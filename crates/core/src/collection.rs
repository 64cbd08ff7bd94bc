//! Data collection: the sub-deadline heuristic of Equation 1.
//!
//! During data collection every parent in the query tree waits for its
//! children before forwarding its partial aggregate, but must not wait so
//! long that the result misses the user. The paper assigns each node `u` a
//! sub-deadline
//!
//! ```text
//! du = k·Tperiod − |u p| / (Rp + Rq) · Tfresh          (Equation 1)
//! ```
//!
//! where `|u p|` is the distance from `u` to the collector `p` and `Rp + Rq`
//! bounds the distance of any node in the query area from the collector:
//! the further a node is from the collector, the earlier it times out, so
//! partial aggregates flow inward and arrive by the deadline.

use wsn_sim::{Duration, SimTime};

/// Parameters of the sub-deadline assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionTiming {
    /// Query period `Tperiod`.
    pub period: Duration,
    /// Freshness bound `Tfresh`.
    pub freshness: Duration,
    /// Query-area radius `Rq` in metres.
    pub query_radius_m: f64,
    /// Anycast acceptance radius `Rp` in metres (the collector lies within
    /// `Rp` of the pickup point).
    pub pickup_radius_m: f64,
}

impl CollectionTiming {
    /// The sub-deadline `du` for a node at distance `distance_to_collector_m`
    /// from the collector, for the k-th query (Equation 1).
    ///
    /// Distances are clamped into `[0, Rp + Rq]` so that nodes marginally
    /// outside the nominal maximum distance (possible with location error or
    /// when the collector sits at the edge of its acceptance disk) still get
    /// a causally sensible deadline.
    pub fn sub_deadline(&self, k: u64, distance_to_collector_m: f64) -> SimTime {
        let max_d = self.pickup_radius_m + self.query_radius_m;
        let d = distance_to_collector_m.clamp(0.0, max_d);
        let fraction = if max_d > 0.0 { d / max_d } else { 0.0 };
        let deadline = self.period.as_secs_f64() * k as f64;
        SimTime::from_secs_f64(deadline - fraction * self.freshness.as_secs_f64())
    }

    /// The leaf reading time for the k-th query: `k·Tperiod − Tfresh`, the
    /// earliest instant a reading satisfies the freshness constraint at the
    /// deadline.
    pub fn leaf_reading_time(&self, k: u64) -> SimTime {
        SimTime::from_secs_f64(self.period.as_secs_f64() * k as f64 - self.freshness.as_secs_f64())
    }

    /// The deadline of the k-th query, `k·Tperiod`.
    pub fn deadline(&self, k: u64) -> SimTime {
        SimTime::from_secs_f64(self.period.as_secs_f64() * k as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> CollectionTiming {
        CollectionTiming {
            period: Duration::from_secs(2),
            freshness: Duration::from_secs(1),
            query_radius_m: 150.0,
            pickup_radius_m: 50.0,
        }
    }

    #[test]
    fn collector_waits_until_the_deadline() {
        let t = timing();
        // Distance 0 (the collector itself) times out exactly at the deadline.
        assert_eq!(t.sub_deadline(3, 0.0), SimTime::from_secs(6));
    }

    #[test]
    fn farthest_node_times_out_a_freshness_interval_early() {
        let t = timing();
        // Distance Rp + Rq = 200 m: du = k·Tperiod − Tfresh, i.e. the leaf
        // reading time.
        assert_eq!(t.sub_deadline(3, 200.0), SimTime::from_secs(5));
        assert_eq!(t.sub_deadline(3, 200.0), t.leaf_reading_time(3));
    }

    #[test]
    fn sub_deadline_decreases_with_distance() {
        let t = timing();
        let mut last = SimTime::MAX;
        for d in [0.0, 25.0, 75.0, 125.0, 200.0] {
            let du = t.sub_deadline(5, d);
            assert!(du <= last, "sub-deadline must not increase with distance");
            last = du;
        }
    }

    #[test]
    fn distances_beyond_the_maximum_are_clamped() {
        let t = timing();
        assert_eq!(t.sub_deadline(2, 500.0), t.sub_deadline(2, 200.0));
        assert_eq!(t.sub_deadline(2, -5.0), t.sub_deadline(2, 0.0));
    }

    #[test]
    fn every_sub_deadline_lies_inside_the_freshness_window() {
        let t = timing();
        for k in 1..10u64 {
            for d in [0.0, 10.0, 60.0, 140.0, 199.0] {
                let du = t.sub_deadline(k, d);
                assert!(du >= t.leaf_reading_time(k));
                assert!(du <= t.deadline(k));
            }
        }
    }
}
