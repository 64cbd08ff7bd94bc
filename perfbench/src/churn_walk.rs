//! `churn_walk`: 64 users scattered over a 200 000-node deployment whose
//! topology changes at every boundary.
//!
//! `SteppedSim::with_churn` at rate 0.002 kills and joins 400 nodes per
//! boundary, repairs the backbone incrementally, rebuilds neighbours and
//! bumps the tree epoch, so every install builds a fresh tree: the tree
//! cache is pure writes and repair dominates the boundary.

use crate::harness::{
    at_paper_density, median_build, ms_since, proc_status_mb, setup_phases, Outcome,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::THREADS;
use mobiquery::config::Scenario;
use mobiquery::sim::{ChurnConfig, QuerySet, SteppedSim, TreeSharing, UserQuery};
use std::time::Instant;
use wsn_mobility::fleet_member;

const NODES: usize = 200_000;
const USERS: usize = 64;
const CHURN_RATE: f64 = 0.002;
/// Boundaries stepped before the timed window.
const WARMUP: u64 = 5;
/// Deployments built before the run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed boundaries per `--seconds` on a 2-core x86-64 VM.
const BOUNDARIES_PER_S: f64 = 6.0;

fn build(scenario: &Scenario, max_k: u64) -> Result<SteppedSim, String> {
    let empty = QuerySet::from_users(Vec::new(), max_k).map_err(|e| e.to_string())?;
    SteppedSim::with_churn(
        scenario.clone(),
        empty,
        TreeSharing::Shared,
        ChurnConfig {
            rate: CHURN_RATE,
            verify: false,
        },
    )
    .map_err(|e| e.to_string())
}

/// Runs the workload. `setup_s` is the median of [`SETUPS`] deployment
/// builds; an op is one `step_period` boundary.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let timed = (seconds as f64 * BOUNDARIES_PER_S).round().max(1.0) as u64;
    let max_k = WARMUP + timed;
    let scenario = at_paper_density(NODES, max_k, seed);
    let mut out = Outcome::default();

    let sim = median_build(&mut out, tracer, SETUPS, "SteppedSim::with_churn", || {
        build(&scenario, max_k)
    });
    let Some(sim) = sim else {
        out.check("the engine was built", false);
        return out;
    };
    let mut sim = sim.with_jobs(THREADS);
    for user in 0..USERS {
        let m = fleet_member(
            &scenario.motion,
            scenario.profile_source,
            user,
            scenario.seed,
        );
        let admitted = out.ops.call("admit", || {
            sim.admit(UserQuery {
                user,
                seed: m.seed,
                motion: m.motion,
                profiles: m.profiles,
                first_k: 1,
                last_k: max_k,
            })
        });
        if admitted.is_none() {
            out.check("every user was admitted", false);
        }
    }
    out.rss_after_setup_mb = proc_status_mb("VmRSS");

    let mut scored: u64 = 0;
    let (mut step_self_ms, mut batch_ms, mut apply_ms, mut repair_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stepped_all = true;
    for b in 0..=max_k {
        let in_window = b >= WARMUP && b < max_k;
        let boundary_start = Instant::now();
        tracer.open("boundary", b);
        tracer.open("engine.step_period", b);
        let start = Instant::now();
        let stepped = out.ops.call("step_period", || sim.step_period());
        let step_ms = ms_since(start);
        tracer.close();
        if stepped.is_none() {
            stepped_all = false;
            tracer.close();
            break;
        }
        // The program's own timers for this boundary's churn batch.
        let batch = sim.churn_log().last().filter(|c| c.boundary == b);
        let (apply, repair) = batch.map_or((0.0, 0.0), |c| (c.apply_ms, c.repair_ms));
        tracer.program_children(&[("repair.apply", apply), ("repair.repair", repair)]);
        let total: u64 = sim.logs().iter().map(|l| l.len() as u64).sum();
        let periods = total - scored;
        scored = total;
        tracer.close();
        if in_window {
            out.op_ms.push(step_ms);
            out.loop_periods += periods;
            out.loop_s += boundary_start.elapsed().as_secs_f64();
            step_self_ms.push(step_ms - apply - repair);
            if batch.is_some() {
                batch_ms.push(apply + repair);
                apply_ms.push(apply);
                repair_ms.push(repair);
            }
        }
    }

    let windows: u64 = sim
        .query_set()
        .users()
        .iter()
        .map(|u| u.query_count())
        .sum();
    out.check(
        "scored records equal the sum of the users' windows",
        stepped_all && scored == windows,
    );
    let backbone = sim.backbone_slots();
    tracer.open("repair.full_election", max_k);
    let start = Instant::now();
    let reference = out
        .ops
        .run("reference_reelection", || sim.reference_reelection());
    let full_ms = ms_since(start);
    tracer.close();
    out.check(
        "repaired backbone equals a full re-election",
        reference.as_ref() == Some(&backbone),
    );
    let churn = sim.churn_log().to_vec();
    let threshold = scenario.fidelity_threshold;
    tracer.open("engine.finish", max_k);
    let start = Instant::now();
    let output = out.ops.run("finish", || sim.finish());
    let finish_ms = ms_since(start);
    tracer.close();
    out.check("finish() completed (refcount discipline)", output.is_some());
    let Some(output) = output else {
        return out;
    };
    for log in &output.logs {
        out.score.add(log.records(), threshold);
    }
    let growth = proc_status_mb("VmHWM") - out.rss_after_setup_mb;

    let evaluated: u64 = churn.iter().map(|c| c.evaluated as u64).sum();
    let flips: u64 = churn.iter().map(|c| (c.promoted + c.demoted) as u64).sum();
    let l = &mut out.layers;
    l.put("mem.rss_growth_mb", growth, "MiB");
    l.put("engine.step_ms", median(&step_self_ms), "ms");
    l.count("engine.query_periods", out.score.scored);
    l.count("engine.installs", output.installs);
    l.count("engine.events", output.events_processed);
    l.put("engine.finish_ms", finish_ms, "ms");
    l.count("cache.trees_built", output.trees_built);
    l.count("cache.shared_hits", output.shared_hits);
    l.ratio(
        "cache.hit_ratio",
        output.shared_hits as f64,
        output.installs as f64,
    );
    l.count("cache.peak_live_trees", output.peak_live_trees as u64);
    l.put("repair.batch_ms", median(&batch_ms), "ms");
    l.put("repair.apply_ms", median(&apply_ms), "ms");
    l.count("repair.evaluated", evaluated);
    l.count("repair.flips", flips);
    l.ratio("repair.flip_ratio", flips as f64, evaluated as f64);
    l.put("repair.full_election_ms", full_ms, "ms");
    l.ratio("repair.speedup_vs_full", full_ms, median(&repair_ms));
    drop(output);
    if tracer.enabled() {
        setup_phases(&mut out, scenario);
    }
    out
}
