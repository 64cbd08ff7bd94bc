//! Motion-profile sources: planner and history-based predictor.
//!
//! Both sources turn the ground-truth [`UserMotion`] into the sequence of
//! [`MotionProfile`]s the proxy hands to the network:
//!
//! * the **planner** knows the true future path and publishes each profile
//!   `Ta` seconds before the corresponding motion change takes effect
//!   (`Ta` may be negative to model late plans);
//! * the **predictor** learns about a motion change only from GPS: it takes
//!   one (noisy) fix at the change and another one sampling period δ later,
//!   estimates the velocity from the two fixes, and publishes the profile at
//!   that second fix — i.e. with an effective advance time of `−δ`.

use crate::gps::GpsModel;
use crate::profile::MotionProfile;
use crate::user::UserMotion;
use wsn_sim::{Duration, SimRng, SimTime};

/// How motion profiles are produced for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileSource {
    /// A motion planner with exact knowledge of the future path, publishing
    /// each profile `advance_secs` before the motion change it describes
    /// (negative values model plans that arrive late).
    Planner {
        /// Advance time `Ta` in seconds (may be negative).
        advance_secs: f64,
    },
    /// A history-based predictor: velocity estimated from two GPS fixes taken
    /// `sampling_period_secs` apart, each perturbed by `gps`. The profile is
    /// published at the second fix, so its advance time is
    /// `−sampling_period_secs`.
    Predictor {
        /// Sampling period δ between the two GPS fixes, in seconds.
        sampling_period_secs: f64,
        /// GPS error model applied to each fix.
        gps: GpsModel,
    },
    /// A single exact profile covering the whole run, delivered at time zero
    /// (the paper's Section 6.2 "accurate motion profile" setting).
    Oracle,
}

impl ProfileSource {
    /// Produces the profiles this source would deliver for the given
    /// ground-truth motion, in delivery-time order.
    pub fn profiles(&self, motion: &UserMotion, rng: &mut SimRng) -> Vec<MotionProfile> {
        match *self {
            ProfileSource::Planner { advance_secs } => planner_profiles(motion, advance_secs),
            ProfileSource::Predictor {
                sampling_period_secs,
                gps,
            } => predictor_profiles(motion, sampling_period_secs, gps, rng),
            ProfileSource::Oracle => oracle_profile(motion),
        }
    }
}

/// A single profile containing the exact full trajectory, available at time
/// zero. Matches the paper's "the motion profile that specifies the complete
/// user path is provided to MobiQuery at the beginning of each simulation".
pub fn oracle_profile(motion: &UserMotion) -> Vec<MotionProfile> {
    vec![MotionProfile::new(
        SimTime::ZERO,
        SimTime::ZERO,
        motion.end_time().saturating_since(SimTime::ZERO),
        motion.path().clone(),
    )]
}

/// Planner profiles: one exact profile per motion change, generated
/// `advance_secs` before the change takes effect (clamped to simulation start).
pub fn planner_profiles(motion: &UserMotion, advance_secs: f64) -> Vec<MotionProfile> {
    let events = motion.events();
    let mut profiles = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let until = events
            .get(i + 1)
            .map(|next| next.time)
            .unwrap_or_else(|| motion.end_time());
        let validity = until.saturating_since(event.time);
        let generated = SimTime::from_secs_f64(event.time.as_secs_f64() - advance_secs);
        profiles.push(MotionProfile::new(
            generated,
            event.time,
            validity,
            motion
                .path()
                .slice(event.time, until.max(event.time + Duration::from_micros(1))),
        ));
    }
    profiles
}

/// Predictor profiles: for every motion change, a straight-line profile whose
/// velocity is estimated from two noisy GPS fixes `sampling_period_secs`
/// apart, delivered at the second fix.
pub fn predictor_profiles(
    motion: &UserMotion,
    sampling_period_secs: f64,
    gps: GpsModel,
    rng: &mut SimRng,
) -> Vec<MotionProfile> {
    assert!(
        sampling_period_secs > 0.0,
        "the GPS sampling period must be positive"
    );
    let delta = Duration::from_secs_f64(sampling_period_secs);
    let events = motion.events();
    let mut profiles = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let until = events
            .get(i + 1)
            .map(|next| next.time)
            .unwrap_or_else(|| motion.end_time());
        let second_fix_time = event.time + delta;
        let fix1 = gps.sample(motion.position_at(event.time), rng);
        let fix2 = gps.sample(motion.position_at(second_fix_time), rng);
        let estimated_velocity = (fix2 - fix1) / sampling_period_secs;
        let validity = until.saturating_since(event.time);
        profiles.push(MotionProfile::straight_line(
            second_fix_time, // generated (and delivered) at the second fix
            event.time,      // describes motion from the change onwards
            validity,
            fix1,
            estimated_velocity,
        ));
    }
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::MotionConfig;
    use wsn_geom::Point;

    fn motion(seed: u64) -> UserMotion {
        let mut rng = SimRng::seed_from_u64(seed);
        UserMotion::generate(&MotionConfig::paper_default(), &mut rng)
    }

    #[test]
    fn oracle_profile_matches_truth_exactly() {
        let m = motion(1);
        let profiles = oracle_profile(&m);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.generated_at, SimTime::ZERO);
        for t in [0u64, 50, 123, 399] {
            let t = SimTime::from_secs(t);
            assert!(p.predicted_position(t).distance_to(m.position_at(t)) < 1e-6);
        }
    }

    #[test]
    fn planner_profiles_have_requested_advance_time() {
        let m = motion(2);
        for ta in [-8.0, -3.0, 0.0, 6.0, 18.0] {
            let profiles = planner_profiles(&m, ta);
            assert_eq!(profiles.len(), m.events().len());
            for p in &profiles {
                // Profiles describing a change at t=0 cannot be generated
                // before the simulation starts, so their Ta is clamped.
                if p.effective_from.as_secs_f64() >= ta.abs() {
                    assert!(
                        (p.advance_time_secs() - ta).abs() < 1e-6,
                        "expected Ta={ta}, got {}",
                        p.advance_time_secs()
                    );
                }
            }
        }
    }

    #[test]
    fn planner_profiles_predict_truth_during_validity() {
        let m = motion(3);
        let profiles = planner_profiles(&m, 6.0);
        for p in &profiles {
            let mid = SimTime::from_secs_f64(
                (p.effective_from.as_secs_f64() + p.expires_at().as_secs_f64()) / 2.0,
            );
            assert!(
                p.predicted_position(mid).distance_to(m.position_at(mid)) < 1e-6,
                "planner prediction must match truth inside the validity window"
            );
        }
    }

    #[test]
    fn predictor_profiles_are_delivered_one_period_late() {
        let m = motion(4);
        let mut rng = SimRng::seed_from_u64(5);
        let profiles = predictor_profiles(&m, 8.0, GpsModel::PERFECT, &mut rng);
        assert_eq!(profiles.len(), m.events().len());
        for p in &profiles {
            assert!((p.advance_time_secs() + 8.0).abs() < 1e-6);
        }
    }

    #[test]
    fn perfect_gps_predictor_matches_truth_on_straight_legs() {
        let m = motion(6);
        let mut rng = SimRng::seed_from_u64(7);
        let profiles = predictor_profiles(&m, 8.0, GpsModel::PERFECT, &mut rng);
        // For events whose leg lasts longer than the sampling period and has
        // no reflection inside it, the estimated velocity is exact.
        let events = m.events();
        for (i, p) in profiles.iter().enumerate() {
            let until = events
                .get(i + 1)
                .map(|e| e.time)
                .unwrap_or_else(|| m.end_time());
            let leg_secs = until.as_secs_f64() - events[i].time.as_secs_f64();
            if leg_secs > 9.0 {
                let t =
                    SimTime::from_secs_f64(events[i].time.as_secs_f64() + leg_secs.min(20.0) - 0.5);
                assert!(
                    p.predicted_position(t).distance_to(m.position_at(t)) < 1e-3,
                    "profile {i} should match truth"
                );
            }
        }
    }

    #[test]
    fn noisy_gps_increases_prediction_error() {
        let m = motion(8);
        let mut rng_a = SimRng::seed_from_u64(9);
        let mut rng_b = SimRng::seed_from_u64(9);
        let exact = predictor_profiles(&m, 8.0, GpsModel::PERFECT, &mut rng_a);
        let noisy = predictor_profiles(&m, 8.0, GpsModel::standard(), &mut rng_b);
        let horizon = Duration::from_secs(30);
        let err = |profiles: &[MotionProfile]| {
            profiles
                .iter()
                .map(|p| {
                    let t = p.effective_from + horizon;
                    p.predicted_position(t).distance_to(m.position_at(t))
                })
                .sum::<f64>()
                / profiles.len() as f64
        };
        assert!(err(&noisy) > err(&exact));
    }

    #[test]
    fn source_enum_dispatches() {
        let m = motion(10);
        let mut rng = SimRng::seed_from_u64(11);
        assert_eq!(ProfileSource::Oracle.profiles(&m, &mut rng).len(), 1);
        assert_eq!(
            ProfileSource::Planner { advance_secs: 6.0 }
                .profiles(&m, &mut rng)
                .len(),
            m.events().len()
        );
        assert_eq!(
            ProfileSource::Predictor {
                sampling_period_secs: 8.0,
                gps: GpsModel::differential()
            }
            .profiles(&m, &mut rng)
            .len(),
            m.events().len()
        );
    }

    #[test]
    fn profile_positions_are_finite() {
        let m = motion(12);
        let mut rng = SimRng::seed_from_u64(13);
        for p in predictor_profiles(&m, 8.0, GpsModel::standard(), &mut rng) {
            let q: Point = p.predicted_position(p.expires_at());
            assert!(q.is_finite());
        }
    }
}
