//! GPS / localization error model.
//!
//! Section 6.3: "Each GPS reading has a random location error within 0 ∼ Δ
//! meters. Δ takes 5 m or 10 m, modeling the typical accuracy of GPS
//! with/without differential correction." We therefore perturb the true
//! position by a vector whose direction is uniform and whose magnitude is
//! uniform in `[0, Δ]`.

use wsn_geom::{Point, Vector};
use wsn_sim::SimRng;

/// A GPS receiver model: bounded random position error and a fixed reading
/// latency (the paper quotes a 2–3 s lag for a walking user and ~8 s to get
/// an initial fix; the predictor's sampling period models the latency, so the
/// default lag here is zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsModel {
    /// Maximum position error Δ in metres; each reading errs by a uniformly
    /// random distance in `[0, Δ]` in a uniformly random direction.
    pub max_error_m: f64,
}

impl GpsModel {
    /// A perfect receiver (no error).
    pub const PERFECT: GpsModel = GpsModel { max_error_m: 0.0 };

    /// Creates a model with the given maximum error in metres.
    ///
    /// # Panics
    ///
    /// Panics if `max_error_m` is negative or not finite.
    pub fn new(max_error_m: f64) -> Self {
        assert!(
            max_error_m.is_finite() && max_error_m >= 0.0,
            "GPS error bound must be non-negative"
        );
        GpsModel { max_error_m }
    }

    /// GPS with differential correction (Δ = 5 m), as in the paper.
    pub fn differential() -> Self {
        GpsModel::new(5.0)
    }

    /// GPS without differential correction (Δ = 10 m), as in the paper.
    pub fn standard() -> Self {
        GpsModel::new(10.0)
    }

    /// Samples one reading of the true position `actual`.
    pub fn sample(&self, actual: Point, rng: &mut SimRng) -> Point {
        if self.max_error_m <= 0.0 {
            return actual;
        }
        let magnitude = rng.gen_range_f64(0.0, self.max_error_m);
        let direction = Vector::from_angle(rng.gen_angle());
        actual + direction * magnitude
    }
}

impl Default for GpsModel {
    fn default() -> Self {
        GpsModel::PERFECT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_gps_returns_truth() {
        let mut rng = SimRng::seed_from_u64(1);
        let p = Point::new(100.0, 200.0);
        assert_eq!(GpsModel::PERFECT.sample(p, &mut rng), p);
    }

    #[test]
    fn error_never_exceeds_bound() {
        let mut rng = SimRng::seed_from_u64(2);
        let gps = GpsModel::standard();
        let truth = Point::new(50.0, 50.0);
        for _ in 0..5_000 {
            let reading = gps.sample(truth, &mut rng);
            assert!(reading.distance_to(truth) <= 10.0 + 1e-9);
        }
    }

    #[test]
    fn errors_are_spread_in_all_directions() {
        let mut rng = SimRng::seed_from_u64(3);
        let gps = GpsModel::differential();
        let truth = Point::new(0.0, 0.0);
        let (mut east, mut west, mut north, mut south) = (0u32, 0u32, 0u32, 0u32);
        for _ in 0..2_000 {
            let r = gps.sample(truth, &mut rng);
            if r.x > 0.0 {
                east += 1;
            } else {
                west += 1;
            }
            if r.y > 0.0 {
                north += 1;
            } else {
                south += 1;
            }
        }
        for count in [east, west, north, south] {
            assert!(count > 500, "direction badly under-represented: {count}");
        }
    }

    #[test]
    fn mean_error_is_about_half_the_bound() {
        let mut rng = SimRng::seed_from_u64(4);
        let gps = GpsModel::new(10.0);
        let truth = Point::new(0.0, 0.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| gps.sample(truth, &mut rng).distance_to(truth))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean error {mean}");
    }

    #[test]
    #[should_panic]
    fn negative_bound_panics() {
        let _ = GpsModel::new(-1.0);
    }
}
