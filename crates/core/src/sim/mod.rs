//! The MobiQuery protocol simulation.
//!
//! [`Simulation`] builds a complete scenario — random node deployment, CCP
//! backbone election, neighbour tables, the shared wireless channel, the
//! user's ground-truth motion and the motion-profile stream — seeds the
//! event queue with query deadlines and profile deliveries, runs the
//! discrete-event engine to the end of the query lifetime and distils a
//! [`SimulationOutput`] with the paper's metrics (success ratio, per-period
//! fidelity, per-sleeping-node power, prefetch length, channel loss).
//!
//! Every run is a pure function of its [`Scenario`] (including the seed), so
//! figures are reproducible bit for bit.

mod churn;
mod deploy;
mod event;
mod multi;
mod output;
mod state;
mod stepped;
mod store;
mod world;

pub use churn::{ChurnBatchPlan, ChurnConfig};
pub use event::SimEvent;
pub use multi::{MultiSimulation, MultiUserOutput, QuerySet, TreeSharing, UserQuery};
pub use output::SimulationOutput;
pub use state::QueryState;
pub use stepped::SteppedSim;
pub use store::{priority_for, NodeStore};
pub use world::SimWorld;
pub use wsn_net::{Blackout, FaultConfig, FaultError, FaultPlan};

use crate::config::{Scenario, Scheme};
use crate::error::ConfigError;
use deploy::Deployment;
use std::time::Instant;
use wsn_net::{Channel, NodeId, RadioState, SleepSchedule};
use wsn_power::EnergyLedger;
use wsn_sim::{Duration, Engine, SimRng, SimTime};

/// Wall-clock breakdown of the setup phases of [`Simulation::new`], in
/// milliseconds.
///
/// Deployment setup used to dwarf the event loop at scale (~50× at 20 000
/// nodes before the coverage raster), so the benchmark records where setup
/// time actually goes instead of a single opaque `setup_ms`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupBreakdown {
    /// Node placement, the all-nodes spatial grid, and the backbone
    /// neighbour table (the table is built just after the election, since it
    /// only needs backbone adjacency, but its cost is accounted here).
    pub neighbor_ms: f64,
    /// CCP backbone election: the coverage-raster build and the greedy
    /// demotion pass.
    pub ccp_ms: f64,
    /// Everything downstream of the election: power-plan packaging, mobility
    /// and motion-profile generation, channel and world assembly, and event
    /// seeding.
    pub plan_ms: f64,
}

impl SetupBreakdown {
    /// Total setup wall-clock across all phases.
    pub fn total_ms(&self) -> f64 {
        self.neighbor_ms + self.ccp_ms + self.plan_ms
    }
}

/// A fully constructed simulation, ready to run.
#[derive(Debug)]
pub struct Simulation {
    engine: Engine<SimWorld>,
    scenario: Scenario,
    setup: SetupBreakdown,
}

impl Simulation {
    /// Builds the deployment and protocol state for `scenario`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the scenario fails validation.
    pub fn new(scenario: Scenario) -> Result<Self, ConfigError> {
        scenario.validate()?;
        let mut rng = SimRng::seed_from_u64(scenario.seed);
        let ms_since = |start: Instant| start.elapsed().as_secs_f64() * 1e3;

        // --- Deployment substrate (shared with the multi-user path) ------
        let Deployment {
            positions,
            all_nodes_grid,
            neighbors,
            plan,
            neighbor_ms,
            ccp_ms,
        } = Deployment::build(&scenario, &mut rng)?;
        let phase_start = Instant::now();

        // --- Mobility and motion profiles --------------------------------
        let mut motion_rng = rng.fork(3);
        let motion = wsn_mobility::UserMotion::generate(&scenario.motion, &mut motion_rng);
        let mut profile_rng = rng.fork(4);
        let profiles = scenario.profile_source.profiles(&motion, &mut profile_rng);

        // --- Channel and world --------------------------------------------
        let channel = Channel::new(scenario.radio, scenario.mac);
        let world_rng = rng.fork(5);
        let world = SimWorld::new(
            scenario.clone(),
            positions,
            neighbors,
            plan,
            all_nodes_grid,
            channel,
            world_rng,
            motion,
            profiles,
        );

        let mut engine = Engine::new(world);
        Self::seed_events(&mut engine, &scenario);
        let setup = SetupBreakdown {
            neighbor_ms,
            ccp_ms,
            plan_ms: ms_since(phase_start),
        };
        Ok(Simulation {
            engine,
            scenario,
            setup,
        })
    }

    /// Seeds the initial events: one deadline per query, profile deliveries
    /// for the prefetching schemes, and per-period broadcasts for the NP
    /// baseline.
    fn seed_events(engine: &mut Engine<SimWorld>, scenario: &Scenario) {
        let period = scenario.query.period;
        let max_k = scenario.query.result_count();
        for k in 1..=max_k {
            let deadline = SimTime::ZERO + period * k;
            engine
                .queue_mut()
                .schedule_at(deadline, SimEvent::QueryDeadline { k });
            if scenario.scheme == Scheme::None {
                engine
                    .queue_mut()
                    .schedule_at(deadline - period, SimEvent::NpLaunch { k });
            }
        }
        if scenario.scheme != Scheme::None {
            let delivery_times: Vec<SimTime> = engine
                .world()
                .profiles
                .iter()
                .map(|p| p.generated_at)
                .collect();
            for (index, at) in delivery_times.into_iter().enumerate() {
                engine
                    .queue_mut()
                    .schedule_at(at, SimEvent::ProfileDelivered(index));
            }
        }
    }

    /// The scenario this simulation was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Wall-clock breakdown of the setup phases [`Simulation::new`] just ran
    /// (a timing observation, not part of the deterministic simulation
    /// state).
    pub fn setup_breakdown(&self) -> SetupBreakdown {
        self.setup
    }

    /// Read access to the world (useful in tests).
    pub fn world(&self) -> &SimWorld {
        self.engine.world()
    }

    /// Runs the simulation to the end of the query lifetime and produces the
    /// aggregated output.
    pub fn run(mut self) -> SimulationOutput {
        let horizon = SimTime::from_secs_f64(self.scenario.query.lifetime.as_secs_f64() + 1.0);
        self.engine.run_until(horizon);
        let events_processed = self.engine.events_processed();
        let world = self.engine.into_world();
        Self::build_output(world, events_processed)
    }

    fn build_output(world: SimWorld, events_processed: u64) -> SimulationOutput {
        let scenario = &world.scenario;
        let duration_s = scenario.query.lifetime.as_secs_f64();
        let schedule = scenario.sleep_schedule();

        // Per-sleeping-node power: the baseline duty-cycle pattern plus the
        // extra activity charged during the run.
        let mut with_query = EnergyLedger::new(world.positions.len(), scenario.radio.power);
        let mut baseline = EnergyLedger::new(world.positions.len(), scenario.radio.power);
        let sleeping: Vec<NodeId> = world.plan.sleeping_nodes().collect();
        for &node in &sleeping {
            let (base_idle, base_sleep) = baseline_split(&schedule, duration_s);
            baseline.record(node, RadioState::Idle, Duration::from_secs_f64(base_idle));
            baseline.record(node, RadioState::Sleep, Duration::from_secs_f64(base_sleep));

            let tx = world.activity.tx_s[node.index()].min(duration_s);
            let rx = world.activity.rx_s[node.index()].min(duration_s);
            let extra = world.activity.extra_awake_s[node.index()]
                .min(duration_s - base_idle.min(duration_s));
            let idle = (base_idle + extra - tx - rx).max(0.0);
            let sleep = (duration_s - base_idle - extra).max(0.0);
            with_query.record(node, RadioState::Transmit, Duration::from_secs_f64(tx));
            with_query.record(node, RadioState::Receive, Duration::from_secs_f64(rx));
            with_query.record(node, RadioState::Idle, Duration::from_secs_f64(idle));
            with_query.record(node, RadioState::Sleep, Duration::from_secs_f64(sleep));
        }
        let mean_sleeping_power_w = with_query.mean_power_w(sleeping.iter().copied());
        let baseline_sleeping_power_w = baseline.mean_power_w(sleeping.iter().copied());

        let success_ratio = world.log.success_ratio(scenario.fidelity_threshold);
        let mean_fidelity = world.log.fidelity_summary().mean();
        let mean_prefetch_length = if world.prefetch_len_samples.is_empty() {
            0.0
        } else {
            world.prefetch_len_samples.iter().sum::<usize>() as f64
                / world.prefetch_len_samples.len() as f64
        };

        SimulationOutput {
            scheme: scenario.scheme,
            success_ratio,
            mean_fidelity,
            mean_sleeping_power_w,
            baseline_sleeping_power_w,
            backbone_count: world.plan.backbone_count(),
            node_count: world.positions.len(),
            frames_sent: world.channel.frames_sent(),
            frames_lost: world.channel.frames_lost(),
            trees_built: world.trees_built,
            max_prefetch_length: world.max_prefetch_len,
            mean_prefetch_length,
            events_processed,
            query_log: world.log,
        }
    }
}

/// Splits the run duration of an idle duty-cycled node into (idle, sleep)
/// seconds according to its periodic schedule.
fn baseline_split(schedule: &SleepSchedule, duration_s: f64) -> (f64, f64) {
    let idle = duration_s * schedule.duty_cycle();
    (idle, (duration_s - idle).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately small scenario so unit tests stay fast; integration
    /// tests and benches exercise the paper-scale settings.
    fn small_scenario(scheme: Scheme, sleep_s: f64, seed: u64) -> Scenario {
        Scenario::paper_default()
            .with_node_count(80)
            .with_region_side(300.0)
            .with_duration_secs(60.0)
            .with_sleep_period_secs(sleep_s)
            .with_scheme(scheme)
            .with_seed(seed)
    }

    #[test]
    fn simulation_runs_and_scores_every_query() {
        let out = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 1))
            .unwrap()
            .run();
        assert_eq!(out.query_log.len(), 30, "one record per period");
        assert!(out.trees_built > 0);
        assert!(out.events_processed > 100);
        assert!(out.backbone_count > 0 && out.backbone_count < out.node_count);
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let bad = Scenario::paper_default().with_node_count(0);
        assert!(Simulation::new(bad).is_err());
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let a = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 7))
            .unwrap()
            .run();
        let b = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 7))
            .unwrap()
            .run();
        assert_eq!(a.query_log, b.query_log);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert!((a.mean_sleeping_power_w - b.mean_sleeping_power_w).abs() < 1e-12);
    }

    #[test]
    fn jit_prefetching_beats_no_prefetching() {
        let jit = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 3))
            .unwrap()
            .run();
        let np = Simulation::new(small_scenario(Scheme::None, 9.0, 3))
            .unwrap()
            .run();
        assert!(
            jit.mean_fidelity > np.mean_fidelity + 0.1,
            "JIT fidelity {} should clearly beat NP {}",
            jit.mean_fidelity,
            np.mean_fidelity
        );
        assert!(jit.success_ratio >= np.success_ratio);
    }

    #[test]
    fn sleeping_power_stays_between_sleep_and_idle_and_above_baseline() {
        let out = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 5))
            .unwrap()
            .run();
        assert!(out.mean_sleeping_power_w >= out.baseline_sleeping_power_w - 1e-9);
        assert!(out.mean_sleeping_power_w > 0.13 && out.mean_sleeping_power_w < 0.83);
        assert!(out.query_power_overhead_w() < 0.1);
    }

    #[test]
    fn jit_keeps_a_bounded_number_of_trees_ahead() {
        let out = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 9))
            .unwrap()
            .run();
        let params = small_scenario(Scheme::JustInTime, 9.0, 9).analysis_params();
        let bound = crate::analysis::prefetch_length_jit(&params) as usize;
        assert!(
            out.max_prefetch_length <= bound + 1,
            "observed prefetch length {} must respect the Eq. 12 bound {}",
            out.max_prefetch_length,
            bound
        );
    }

    #[test]
    fn greedy_builds_trees_far_ahead_of_the_user() {
        let jit = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 11))
            .unwrap()
            .run();
        let gp = Simulation::new(small_scenario(Scheme::Greedy, 9.0, 11))
            .unwrap()
            .run();
        assert!(
            gp.max_prefetch_length > jit.max_prefetch_length,
            "greedy ({}) should hold more future trees than JIT ({})",
            gp.max_prefetch_length,
            jit.max_prefetch_length
        );
    }
}
