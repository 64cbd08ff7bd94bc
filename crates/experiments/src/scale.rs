//! Deployment scaling at constant density: the scenario behind `--scale`
//! (the churn and resilience sweeps) and `repro load --nodes`.

use mobiquery::config::{Scenario, Scheme};

/// Density-preserving scenario for a deployment of `nodes` nodes: the region
/// side grows with √nodes so radio degree, backbone fraction and query-area
/// population stay at the paper's values while the network scales.
pub fn scale_scenario(nodes: usize, scheme: Scheme, seed: u64) -> Scenario {
    let side = 450.0 * (nodes as f64 / 200.0).sqrt();
    Scenario::paper_default()
        .with_node_count(nodes)
        .with_region_side(side)
        .with_duration_secs(60.0)
        .with_scheme(scheme)
        .with_seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_scenario_preserves_density() {
        let small = scale_scenario(200, Scheme::JustInTime, 1);
        let big = scale_scenario(800, Scheme::JustInTime, 1);
        let density = |s: &Scenario| s.node_count as f64 / (s.region_side_m * s.region_side_m);
        assert!((density(&small) - density(&big)).abs() < 1e-12);
        assert_eq!(big.region_side_m, 900.0);
    }
}
