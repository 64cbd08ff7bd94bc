//! CCP-style backbone election based on sensing-coverage redundancy.
//!
//! The Coverage Configuration Protocol (Wang, Xing et al., SenSys 2003 — by
//! the same group as the MobiQuery paper) lets a node sleep only when its
//! sensing area is already K-covered by active neighbours; when the
//! communication range is at least twice the sensing range, preserving
//! coverage also preserves connectivity, so the active nodes form a connected
//! backbone.
//!
//! MobiQuery only needs CCP for the backbone it produces, not for CCP's own
//! protocol dynamics, so we run the eligibility rule as a centralised greedy
//! pass at deployment time (documented substitution in `DESIGN.md`): nodes are
//! visited in random order and put to sleep whenever the remaining active
//! nodes still cover their sensing disk. Coverage of a disk is evaluated on a
//! dense sample of points clipped to the deployment region, which is exact up
//! to the sampling resolution and considerably more robust than the
//! intersection-point rule in the presence of region boundaries.

//!
//! Coverage is evaluated on the sample-point [`Lattice`] anchored at the
//! region origin. The production election maintains an incremental
//! [`CoverageRaster`] of per-point coverage counts (built once, updated per
//! demotion); the original per-point range-query implementation is retained
//! as [`elect_backbone_reference`] and property-tested to produce
//! bit-identical roles.

use crate::plan::PowerPlan;
use crate::raster::CoverageRaster;
use wsn_geom::{Circle, Lattice, Point, Rect, SpatialGrid};
use wsn_net::{NodeRole, SleepSchedule};
use wsn_sim::SimRng;

/// Parameters of the CCP-style election.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcpConfig {
    /// Sensing range of every node, in metres. Paper default: 50 m.
    pub sensing_range_m: f64,
    /// Required degree of coverage (K). The paper uses K = 1.
    pub coverage_degree: usize,
    /// Spacing of the sample lattice used for the coverage check, in metres.
    /// 5 m (a tenth of the sensing range) is ample for 50 m sensing disks.
    pub sample_spacing_m: f64,
}

impl CcpConfig {
    /// The evaluation settings of Section 6.1: 50 m sensing range, 1-coverage.
    pub fn paper_default() -> Self {
        CcpConfig {
            sensing_range_m: 50.0,
            coverage_degree: 1,
            sample_spacing_m: 5.0,
        }
    }
}

impl Default for CcpConfig {
    fn default() -> Self {
        CcpConfig::paper_default()
    }
}

/// Returns `true` when every sample point of `disk ∩ region` is within
/// `sensing_range` of at least `k` of the given active positions.
///
/// This is the reference coverage check: a spatial-grid range query per
/// sample point (short-circuited after `k` hits — dense cells hold far more
/// neighbours than the check needs). Sample points are enumerated through
/// the shared [`Lattice`] so the reference and the raster evaluate
/// predicates at bit-identical coordinates.
fn disk_covered(
    disk: Circle,
    lattice: &Lattice,
    active: &SpatialGrid,
    sensing_range: f64,
    k: usize,
) -> bool {
    // The lattice is anchored at the region origin so every coverage check
    // in a deployment evaluates the same global set of points. This makes the
    // greedy election's invariant exact on the lattice: if each removal keeps
    // the removed node's lattice points covered, the whole region's lattice
    // stays covered.
    let bb = disk.bounding_box();
    let Some((iy_lo, iy_hi)) = lattice.row_range(bb.min_y, bb.max_y) else {
        // The disk lies entirely outside the deployment region; nothing to cover.
        return true;
    };
    let Some((ix_lo, ix_hi)) = lattice.col_range(bb.min_x, bb.max_x) else {
        return true;
    };
    for iy in iy_lo..=iy_hi {
        for ix in ix_lo..=ix_hi {
            let p = lattice.point(ix, iy);
            if disk.contains(p) {
                let covers = active.query_range(p, sensing_range).take(k).count();
                if covers < k {
                    return false;
                }
            }
        }
    }
    true
}

/// Validates the election parameters shared by both implementations and
/// returns the shuffled visit order.
fn election_order(n: usize, config: &CcpConfig, rng: &mut SimRng) -> Vec<usize> {
    assert!(
        config.sensing_range_m > 0.0,
        "sensing range must be positive"
    );
    assert!(
        config.sample_spacing_m > 0.0,
        "sample spacing must be positive"
    );
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Runs the CCP-style backbone election.
///
/// Nodes are considered in a random order (determined by `rng`, so the
/// election is reproducible per seed). A node is demoted to duty-cycled
/// operation when the sensing disks of the *other* currently-active nodes
/// still provide `coverage_degree`-coverage of its own sensing disk within
/// the deployment region; otherwise it stays in the backbone.
///
/// Eligibility is served by an incremental [`CoverageRaster`]: per-point
/// coverage counts built once in O(n · disk-points), after which each
/// tentative demotion touches only the candidate's own disk points with
/// O(1) lookups. The result is bit-identical to
/// [`elect_backbone_reference`] for every input (property-tested).
///
/// Returns one [`NodeRole`] per node, in node-id order.
///
/// # Panics
///
/// Panics if `config.sensing_range_m` or `config.sample_spacing_m` is not
/// strictly positive.
pub fn elect_backbone(
    positions: &[Point],
    region: Rect,
    config: &CcpConfig,
    rng: &mut SimRng,
) -> Vec<NodeRole> {
    let n = positions.len();
    let order = election_order(n, config, rng);
    let mut roles = vec![NodeRole::Backbone; n];
    if n == 0 {
        return roles;
    }
    let mut raster = CoverageRaster::build(
        positions,
        region,
        config.sensing_range_m,
        config.sample_spacing_m,
    );
    for i in order {
        if raster.try_demote(positions[i], config.coverage_degree) {
            roles[i] = NodeRole::DutyCycled;
        }
    }
    roles
}

/// The pre-raster election: identical greedy pass, but every eligibility
/// check re-runs a grid range query per sample point of the candidate's
/// disk.
///
/// Kept as the executable specification of the election: the `ccp_election`
/// criterion bench and the equivalence property tests pin
/// [`elect_backbone`]'s output byte-for-byte against this function across
/// seeds, densities and coverage degrees.
pub fn elect_backbone_reference(
    positions: &[Point],
    region: Rect,
    config: &CcpConfig,
    rng: &mut SimRng,
) -> Vec<NodeRole> {
    let n = positions.len();
    let order = election_order(n, config, rng);
    let mut roles = vec![NodeRole::Backbone; n];
    if n == 0 {
        return roles;
    }

    let lattice = Lattice::new(region, config.sample_spacing_m).expect("validated spacing");
    // Grid of currently-active nodes, updated as nodes are demoted.
    let mut active = SpatialGrid::new(region, config.sensing_range_m)
        .expect("positive sensing range yields a valid grid");
    for (i, &p) in positions.iter().enumerate() {
        active.insert(i, p);
    }

    for i in order {
        let p = positions[i];
        // Tentatively remove the node and test whether the rest still covers
        // its sensing disk.
        active.remove(i);
        let disk = Circle::new(p, config.sensing_range_m);
        if disk_covered(
            disk,
            &lattice,
            &active,
            config.sensing_range_m,
            config.coverage_degree,
        ) {
            roles[i] = NodeRole::DutyCycled;
        } else {
            active.insert(i, p);
        }
    }
    roles
}

/// Runs the CCP-style election over a slotted, partially-alive deployment in
/// **stable priority order** — the reference full re-election of churn mode.
///
/// Unlike [`elect_backbone`], whose shuffled visit order cannot be replayed
/// locally after the deployment changes, this variant visits the alive slots
/// in ascending `(priority[slot], slot)` order. The order is a pure function
/// of per-node values, so after a churn batch the incremental repair
/// (`crate::repair`) can re-evaluate just the perturbed nodes and provably
/// land on the same backbone this full pass elects — the equivalence the
/// repair property tests pin.
///
/// `positions` and `priority` are slot-indexed (dead slots may hold stale
/// values); only the slots listed in `alive_slots` participate. Returns one
/// role per slot; dead slots come back [`NodeRole::DutyCycled`].
///
/// # Panics
///
/// Panics if the config is invalid, a slot is listed twice or out of range.
pub fn elect_backbone_priority(
    positions: &[Point],
    priority: &[u64],
    alive_slots: &[usize],
    region: Rect,
    config: &CcpConfig,
) -> Vec<NodeRole> {
    elect_backbone_priority_with_raster(positions, priority, alive_slots, region, config).0
}

/// [`elect_backbone_priority`] plus the post-election coverage raster, whose
/// counts at that point are exactly "how many **backbone** nodes cover each
/// sample point" — the seed state of [`crate::repair::RepairableBackbone`].
pub(crate) fn elect_backbone_priority_with_raster(
    positions: &[Point],
    priority: &[u64],
    alive_slots: &[usize],
    region: Rect,
    config: &CcpConfig,
) -> (Vec<NodeRole>, CoverageRaster) {
    assert!(
        config.sensing_range_m > 0.0,
        "sensing range must be positive"
    );
    assert!(
        config.sample_spacing_m > 0.0,
        "sample spacing must be positive"
    );
    assert_eq!(positions.len(), priority.len(), "slot arrays must agree");
    let mut roles = vec![NodeRole::DutyCycled; positions.len()];
    for &s in alive_slots {
        assert!(
            !roles[s].is_backbone(),
            "slot {s} listed twice in alive_slots"
        );
        roles[s] = NodeRole::Backbone;
    }
    // Build bottom-to-top for memory locality, exactly like `build` (integer
    // adds commute, so counts do not depend on insertion order).
    let mut raster = CoverageRaster::new(region, config.sensing_range_m, config.sample_spacing_m);
    let mut by_y: Vec<usize> = alive_slots.to_vec();
    by_y.sort_unstable_by(|&a, &b| positions[a].y.total_cmp(&positions[b].y));
    for s in by_y {
        raster.add(positions[s]);
    }
    let mut order: Vec<usize> = alive_slots.to_vec();
    order.sort_unstable_by_key(|&s| (priority[s], s));
    for s in order {
        if raster.try_demote(positions[s], config.coverage_degree) {
            roles[s] = NodeRole::DutyCycled;
        }
    }
    (roles, raster)
}

/// Convenience wrapper: runs the election and packages the result as a
/// [`PowerPlan`] in which every duty-cycled node follows `schedule`.
pub fn elect_power_plan(
    positions: &[Point],
    region: Rect,
    config: &CcpConfig,
    schedule: SleepSchedule,
    rng: &mut SimRng,
) -> PowerPlan {
    let roles = elect_backbone(positions, region, config, rng);
    PowerPlan::new(roles, schedule)
}

/// Verifies that the nodes currently marked [`NodeRole::Backbone`] provide
/// `coverage_degree`-coverage of the whole deployment region.
///
/// Used by tests and by the simulation's self-checks; sampling resolution is
/// taken from `config.sample_spacing_m`.
pub fn backbone_covers_region(
    positions: &[Point],
    roles: &[NodeRole],
    region: Rect,
    config: &CcpConfig,
) -> bool {
    if !(config.sensing_range_m > 0.0 && config.sample_spacing_m > 0.0) {
        return false;
    }
    // Two rasters over the same lattice: coverage by the backbone, and
    // coverage by the whole deployment. A lattice point only *requires*
    // k-coverage where the original deployment could provide any coverage at
    // all (the region corners of a random deployment may simply contain no
    // node).
    let backbone_positions: Vec<Point> = positions
        .iter()
        .zip(roles)
        .filter(|(_, r)| r.is_backbone())
        .map(|(&p, _)| p)
        .collect();
    let backbone = CoverageRaster::build(
        &backbone_positions,
        region,
        config.sensing_range_m,
        config.sample_spacing_m,
    );
    let all = CoverageRaster::build(
        positions,
        region,
        config.sensing_range_m,
        config.sample_spacing_m,
    );
    let lattice = *all.lattice();
    let k = u32::try_from(config.coverage_degree).unwrap_or(u32::MAX);
    for iy in 0..lattice.rows() {
        for ix in 0..lattice.cols() {
            if all.count(ix, iy) > 0 && backbone.count(ix, iy) < k {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_deployment(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
            .collect()
    }

    #[test]
    fn dense_deployment_demotes_many_nodes() {
        let region = Rect::square(200.0);
        let positions = random_deployment(150, 200.0, 1);
        let mut rng = SimRng::seed_from_u64(2);
        let roles = elect_backbone(&positions, region, &CcpConfig::paper_default(), &mut rng);
        let backbone = roles.iter().filter(|r| r.is_backbone()).count();
        assert!(backbone < positions.len(), "some nodes must sleep");
        assert!(backbone > 0, "a backbone must remain");
        // In a deployment this dense most nodes are redundant.
        assert!(
            backbone < positions.len() / 2,
            "expected a small backbone, got {backbone}/{}",
            positions.len()
        );
    }

    #[test]
    fn backbone_preserves_coverage() {
        let region = Rect::square(300.0);
        let cfg = CcpConfig::paper_default();
        for seed in 0..3u64 {
            let positions = random_deployment(200, 300.0, seed * 7 + 1);
            let mut rng = SimRng::seed_from_u64(seed);
            let roles = elect_backbone(&positions, region, &cfg, &mut rng);
            assert!(
                backbone_covers_region(&positions, &roles, region, &cfg),
                "backbone must cover the region (seed {seed})"
            );
        }
    }

    #[test]
    fn sparse_deployment_keeps_everyone_active() {
        // Nodes far apart: nobody is redundant.
        let region = Rect::square(450.0);
        let positions = vec![
            Point::new(50.0, 50.0),
            Point::new(250.0, 50.0),
            Point::new(50.0, 250.0),
            Point::new(250.0, 250.0),
        ];
        let mut rng = SimRng::seed_from_u64(3);
        let roles = elect_backbone(&positions, region, &CcpConfig::paper_default(), &mut rng);
        assert!(roles.iter().all(|r| r.is_backbone()));
    }

    #[test]
    fn colocated_nodes_reduce_to_one_active() {
        let region = Rect::square(100.0);
        let positions = vec![Point::new(50.0, 50.0); 5];
        let mut rng = SimRng::seed_from_u64(4);
        let roles = elect_backbone(&positions, region, &CcpConfig::paper_default(), &mut rng);
        let backbone = roles.iter().filter(|r| r.is_backbone()).count();
        assert_eq!(backbone, 1);
    }

    #[test]
    fn higher_coverage_degree_keeps_more_nodes() {
        let region = Rect::square(200.0);
        let positions = random_deployment(150, 200.0, 9);
        let cfg1 = CcpConfig::paper_default();
        let cfg2 = CcpConfig {
            coverage_degree: 2,
            ..cfg1
        };
        let roles1 = elect_backbone(&positions, region, &cfg1, &mut SimRng::seed_from_u64(5));
        let roles2 = elect_backbone(&positions, region, &cfg2, &mut SimRng::seed_from_u64(5));
        let b1 = roles1.iter().filter(|r| r.is_backbone()).count();
        let b2 = roles2.iter().filter(|r| r.is_backbone()).count();
        assert!(
            b2 >= b1,
            "2-coverage backbone ({b2}) must be at least as large as 1-coverage ({b1})"
        );
    }

    #[test]
    fn election_is_reproducible_per_seed() {
        let region = Rect::square(200.0);
        let positions = random_deployment(100, 200.0, 11);
        let cfg = CcpConfig::paper_default();
        let a = elect_backbone(&positions, region, &cfg, &mut SimRng::seed_from_u64(42));
        let b = elect_backbone(&positions, region, &cfg, &mut SimRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn raster_election_is_bit_identical_to_reference() {
        let region = Rect::square(250.0);
        let cfg = CcpConfig::paper_default();
        for seed in 0..5u64 {
            let positions = random_deployment(180, 250.0, seed * 13 + 3);
            let fast = elect_backbone(
                &positions,
                region,
                &cfg,
                &mut SimRng::seed_from_u64(seed + 100),
            );
            let reference = elect_backbone_reference(
                &positions,
                region,
                &cfg,
                &mut SimRng::seed_from_u64(seed + 100),
            );
            assert_eq!(fast, reference, "seed {seed}");
        }
    }

    #[test]
    fn empty_deployment_is_fine() {
        let mut rng = SimRng::seed_from_u64(1);
        let roles = elect_backbone(
            &[],
            Rect::square(10.0),
            &CcpConfig::paper_default(),
            &mut rng,
        );
        assert!(roles.is_empty());
    }
}
