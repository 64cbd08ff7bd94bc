//! A fleet of independently moving users for multi-user trials.
//!
//! The paper simulates one mobile user; the multi-user workload runs `N` of
//! them over one deployment, each with its own trajectory and its own motion
//! profiles. Reproducibility follows the workspace's one seed-derivation
//! scheme: user `u`'s generator is seeded with
//! [`mix_seed`]`(base_seed, &[FLEET_STREAM, u])`, so the fleet is a pure
//! function of `(config, source, users, base_seed)` — independent of
//! generation order, job count, or which sharing mode consumes it — and
//! member `u` of an `N`-user fleet is bit-identical to member `u` of an
//! `M`-user fleet for any `M > u`.

use crate::profile::MotionProfile;
use crate::source::ProfileSource;
use crate::user::{MotionConfig, UserMotion};
use wsn_geom::Point;
use wsn_sim::{mix_seed, SimRng};

/// Stream tag that separates fleet seeds from every other derived stream
/// (trial seeds, per-query streams) sharing the same base seed.
pub const FLEET_STREAM: u64 = 0xF1EE_7000_0000_0001;

/// One user of a multi-user trial: trajectory plus delivered profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMember {
    /// The user's index within the fleet, `0..users`.
    pub index: usize,
    /// The derived seed the member was generated from (also the base for the
    /// member's downstream streams, e.g. query lifetimes).
    pub seed: u64,
    /// Ground-truth trajectory.
    pub motion: UserMotion,
    /// Motion profiles the proxy receives for this user, in delivery order.
    pub profiles: Vec<MotionProfile>,
}

/// Generates `users` independent fleet members.
///
/// User 0 starts at `config.start` — the single-user convention, so an
/// `N = 1` fleet walks the same kind of corner-start trajectory the paper
/// evaluates — while every further user starts at a uniformly random interior
/// point (5% boundary margin, mirroring the default corner start's offset)
/// drawn from that user's own stream.
///
/// ```
/// use wsn_mobility::{generate_fleet, MotionConfig, ProfileSource};
///
/// let fleet = generate_fleet(&MotionConfig::paper_default(), ProfileSource::Oracle, 3, 42);
/// assert_eq!(fleet.len(), 3);
/// let again = generate_fleet(&MotionConfig::paper_default(), ProfileSource::Oracle, 5, 42);
/// assert_eq!(fleet[2], again[2], "member identity is independent of fleet size");
/// ```
pub fn generate_fleet(
    config: &MotionConfig,
    source: ProfileSource,
    users: usize,
    base_seed: u64,
) -> Vec<FleetMember> {
    (0..users)
        .map(|index| fleet_member(config, source, index, base_seed))
        .collect()
}

/// Generates the single fleet member `index` of the fleet
/// `(config, source, base_seed)`.
///
/// Bit-identical to `generate_fleet(config, source, n, base_seed)[index]` for
/// any `n > index` — which is what lets a long-lived query service admit
/// users one at a time, in arrival order, and still replay the exact same
/// fleet as a batch multi-user trial.
pub fn fleet_member(
    config: &MotionConfig,
    source: ProfileSource,
    index: usize,
    base_seed: u64,
) -> FleetMember {
    let seed = mix_seed(base_seed, &[FLEET_STREAM, index as u64]);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut member_config = *config;
    if index > 0 {
        let r = config.region;
        let margin_x = 0.05 * (r.max_x - r.min_x);
        let margin_y = 0.05 * (r.max_y - r.min_y);
        member_config.start = Point::new(
            rng.gen_range_f64(r.min_x + margin_x, r.max_x - margin_x),
            rng.gen_range_f64(r.min_y + margin_y, r.max_y - margin_y),
        );
    }
    let motion = UserMotion::generate(&member_config, &mut rng);
    let profiles = source.profiles(&motion, &mut rng);
    FleetMember {
        index,
        seed,
        motion,
        profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_sim::SimTime;

    #[test]
    fn fleet_is_deterministic_and_members_differ() {
        let cfg = MotionConfig::paper_default();
        let a = generate_fleet(&cfg, ProfileSource::Oracle, 4, 7);
        let b = generate_fleet(&cfg, ProfileSource::Oracle, 4, 7);
        assert_eq!(a, b);
        let t = SimTime::from_secs(100);
        for i in 1..4 {
            assert_ne!(a[0].seed, a[i].seed);
            assert_ne!(
                a[0].motion.position_at(t),
                a[i].motion.position_at(t),
                "members must move independently"
            );
        }
    }

    #[test]
    fn member_zero_keeps_the_configured_start() {
        let cfg = MotionConfig::paper_default();
        let fleet = generate_fleet(&cfg, ProfileSource::Oracle, 3, 42);
        assert_eq!(fleet[0].motion.position_at(SimTime::ZERO), cfg.start);
    }

    #[test]
    fn later_members_start_inside_the_margin() {
        let cfg = MotionConfig::paper_default();
        let fleet = generate_fleet(&cfg, ProfileSource::Oracle, 16, 3);
        for m in &fleet[1..] {
            let p = m.motion.position_at(SimTime::ZERO);
            assert!(
                (22.5..=427.5).contains(&p.x) && (22.5..=427.5).contains(&p.y),
                "user {} starts at {p}, outside the 5% interior margin",
                m.index
            );
        }
    }

    #[test]
    fn members_are_prefix_stable_across_fleet_sizes() {
        let cfg = MotionConfig::paper_default();
        let small = generate_fleet(&cfg, ProfileSource::Oracle, 2, 42);
        let large = generate_fleet(&cfg, ProfileSource::Oracle, 8, 42);
        assert_eq!(small[..], large[..2]);
    }

    #[test]
    fn profiles_come_from_the_requested_source() {
        let cfg = MotionConfig::paper_default();
        let oracle = generate_fleet(&cfg, ProfileSource::Oracle, 2, 1);
        assert!(oracle.iter().all(|m| m.profiles.len() == 1));
        let planner = generate_fleet(&cfg, ProfileSource::Planner { advance_secs: 6.0 }, 2, 1);
        for m in &planner {
            assert_eq!(m.profiles.len(), m.motion.events().len());
        }
    }
}
