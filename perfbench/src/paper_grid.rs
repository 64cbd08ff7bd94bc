//! `paper_grid`: the paper's Fig. 4 grid through the event-driven engine.
//!
//! One trial is `Simulation::new` + `Simulation::run` at the Section 6.1
//! scale (200 nodes, 450 m, 400 s, 2 s period). A pass covers
//! {JIT, GP, NP} × sleep {3, 6, 9, 12, 15} s × speed {3–5, 6–10, 16–20} m/s,
//! once under oracle profiles and once under Fig. 7's predictor. It is the
//! only workload on the event-driven engine, and it bypasses the tree
//! cache, the service, faults and repair.

use crate::harness::{ms_since, Outcome};
use crate::trace::Tracer;
use mobiquery::config::{Scenario, Scheme};
use mobiquery::{SetupBreakdown, Simulation};
use std::time::Instant;
use wsn_sim::mix_seed;

const SCHEMES: [Scheme; 3] = [Scheme::JustInTime, Scheme::Greedy, Scheme::None];
const SLEEPS_S: [f64; 5] = [3.0, 6.0, 9.0, 12.0, 15.0];
const SPEEDS: [(f64, f64); 3] = [(3.0, 5.0), (6.0, 10.0), (16.0, 20.0)];
/// Stream tag separating trial seeds from the benchmark's other draws.
const GRID_STREAM: u64 = 0x6752_1D00_0000_0001;
/// Host seconds one pass (90 trials) takes on a 2-core x86-64 VM; a run of
/// `--seconds s` makes `round(s / PASS_S)` passes.
const PASS_S: f64 = 2.25;

/// The pass's 90 scenarios for replicate `rep`.
fn pass(seed: u64, rep: u64) -> Vec<Scenario> {
    let mut trials = Vec::new();
    for predictor in [false, true] {
        for &(lo, hi) in &SPEEDS {
            for &sleep in &SLEEPS_S {
                for scheme in SCHEMES {
                    let point = trials.len() as u64;
                    let mut s = Scenario::paper_default()
                        .with_sleep_period_secs(sleep)
                        .with_speed_range(lo, hi)
                        .with_scheme(scheme)
                        .with_seed(mix_seed(seed, &[GRID_STREAM, rep, point]));
                    if predictor {
                        s = s.with_predictor(8.0, 10.0);
                    }
                    trials.push(s);
                }
            }
        }
    }
    trials
}

/// Runs the workload. `setup_s` is the sum of the timed trials'
/// `Simulation::new`; an op is one trial's `Simulation::run`.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let passes = ((seconds as f64 / PASS_S).round() as u64).max(1);
    let mut out = Outcome::default();

    // Warm-up: the first three trials of an extra pass, excluded from every
    // metric.
    for scenario in pass(seed, u64::MAX).into_iter().take(3) {
        if let Some(sim) = out
            .ops
            .call("Simulation::new", || Simulation::new(scenario))
        {
            out.ops.run("Simulation::run", || sim.run());
        }
    }
    out.rss_after_setup_mb = crate::harness::proc_status_mb("VmRSS");

    let mut phases = SetupBreakdown::default();
    let (mut events, mut sent, mut lost, mut built) = (0u64, 0u64, 0u64, 0u64);
    let mut all_scored = true;
    let mut setup_ms = 0.0;
    let loop_start = Instant::now();
    for rep in 0..passes {
        for (i, scenario) in pass(seed, rep).into_iter().enumerate() {
            let op = rep * 90 + i as u64;
            let periods = scenario.query.result_count() as usize;
            let threshold = scenario.fidelity_threshold;
            tracer.open("trial", op);
            tracer.open("sim.new", op);
            let start = Instant::now();
            let sim = out
                .ops
                .call("Simulation::new", || Simulation::new(scenario));
            setup_ms += ms_since(start);
            tracer.close();
            let Some(sim) = sim else {
                tracer.close();
                continue;
            };
            let b = sim.setup_breakdown();
            phases.neighbor_ms += b.neighbor_ms;
            phases.ccp_ms += b.ccp_ms;
            phases.plan_ms += b.plan_ms;

            tracer.open("sim.run", op);
            let start = Instant::now();
            let output = out.ops.run("Simulation::run", || sim.run());
            let run_ms = ms_since(start);
            tracer.close();
            if let Some(o) = output {
                out.op_ms.push(run_ms);
                all_scored &= o.query_log.len() == periods;
                out.loop_periods += o.query_log.len() as u64;
                out.score.add(o.query_log.records(), threshold);
                events += o.events_processed;
                sent += o.frames_sent;
                lost += o.frames_lost;
                built += o.trees_built;
            }
            tracer.close();
        }
    }
    out.loop_s = loop_start.elapsed().as_secs_f64() - setup_ms / 1e3;
    out.setup_s = setup_ms / 1e3;
    out.check(
        "every trial scored each of its periods exactly once",
        all_scored,
    );

    let run_s: f64 = out.op_ms.iter().sum::<f64>() / 1e3;
    let growth = crate::harness::proc_status_mb("VmHWM") - out.rss_after_setup_mb;
    let l = &mut out.layers;
    l.put("mem.rss_growth_mb", growth, "MiB");
    l.put("setup.neighbor_ms", phases.neighbor_ms, "ms");
    l.put("setup.ccp_ms", phases.ccp_ms, "ms");
    l.put("setup.plan_ms", phases.plan_ms, "ms");
    l.count("sim.events", events);
    l.put("sim.events_per_s", events as f64 / run_s.max(1e-9), "1/s");
    l.count("sim.frames_sent", sent);
    l.count("sim.frames_lost", lost);
    l.count("sim.trees_built", built);
    out
}
