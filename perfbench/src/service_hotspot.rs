//! `service_hotspot`: open-loop clients of one long-lived `ServiceSim`
//! crowding an incident zone.
//!
//! A 200 000-node deployment at the paper's density serves queries whose
//! users all walk (3–5 m/s) inside one 1.4 km square zone, under bursty link
//! loss (`FaultConfig::new(0.1)`, recovery armed). Queries arrive as a
//! Poisson process in simulated time — 4 per period, lifetimes uniform in
//! 1..=99 periods, so about 200 are live in steady state — and a tenth
//! retire early. Every live client polls at every boundary. Overlapping
//! areas make the tree cache's shared reads dominate.

use crate::harness::{
    at_paper_density, median_build, ms_since, proc_status_mb, setup_phases, Outcome,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::THREADS;
use mobiquery::config::Scenario;
use mobiquery::sim::{FaultConfig, TreeSharing};
use mobiquery_service::{QueryId, ServiceSim};
use std::collections::BTreeMap;
use std::time::Instant;
use wsn_geom::{Point, Rect};
use wsn_sim::{mix_seed, SimRng};

const NODES: usize = 200_000;
const ZONE_SIDE_M: f64 = 1400.0;
const ARRIVALS_PER_PERIOD: f64 = 4.0;
const MAX_LIFETIME_PERIODS: usize = 99;
const RETIRE_SHARE: f64 = 0.1;
const LINK_LOSS: f64 = 0.1;
/// Boundaries stepped before the timed window, so the live set has filled
/// to its steady state (three mean lifetimes).
const WARMUP: u64 = 150;
/// Deployments built before the run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed boundaries per `--seconds` on a 2-core x86-64 VM.
const BOUNDARIES_PER_S: f64 = 64.0;
/// Stream tag separating the arrival schedule from the benchmark's other
/// draws.
const ARRIVAL_STREAM: u64 = 0x4075_7000_0000_0001;

/// One scheduled query.
struct Arrival {
    /// Boundary before which the client submits (first period = boundary + 1).
    boundary: u64,
    lifetime: u64,
    /// Boundary before which the client retires it early.
    retire: Option<u64>,
}

/// Poisson arrivals in simulated time, generated only while `submit` can
/// still admit them (boundary < `max_k`).
fn schedule(seed: u64, max_k: u64) -> Vec<Arrival> {
    let mut rng = SimRng::seed_from_u64(mix_seed(seed, &[ARRIVAL_STREAM]));
    let mut arrivals = Vec::new();
    let mut t = rng.gen_exp(1.0 / ARRIVALS_PER_PERIOD);
    while t.ceil() < max_k as f64 {
        let boundary = t.ceil() as u64;
        let lifetime = 1 + rng.gen_range_usize(0, MAX_LIFETIME_PERIODS) as u64;
        let retire = rng
            .gen_bool(RETIRE_SHARE)
            .then(|| boundary + 1 + rng.gen_range_usize(0, lifetime as usize) as u64)
            .filter(|&r| r < max_k);
        arrivals.push(Arrival {
            boundary,
            lifetime,
            retire,
        });
        t += rng.gen_exp(1.0 / ARRIVALS_PER_PERIOD);
    }
    arrivals
}

/// The deployment: paper density, every user confined to a centred zone.
fn scenario(seed: u64, max_k: u64) -> Scenario {
    let mut s = at_paper_density(NODES, max_k, seed).with_speed_range(3.0, 5.0);
    let side = s.region_side_m;
    let (lo, hi) = ((side - ZONE_SIDE_M) / 2.0, (side + ZONE_SIDE_M) / 2.0);
    s.motion.region = Rect::new(lo, lo, hi, hi);
    s.motion.start = Point::new(lo + 0.05 * ZONE_SIDE_M, lo + 0.05 * ZONE_SIDE_M);
    s
}

/// A submitted query as its client tracks it.
struct Client {
    id: QueryId,
    /// Next period the client expects from `poll`.
    next: u64,
    /// Last period it will receive.
    last: u64,
}

/// Runs the workload. `setup_s` is the median of [`SETUPS`] deployment
/// builds; an op is one `step_period` boundary.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let timed = (seconds as f64 * BOUNDARIES_PER_S).round().max(1.0) as u64;
    let max_k = WARMUP + timed;
    let scenario = scenario(seed, max_k);
    let period = scenario.query.period;
    let mut out = Outcome::default();

    let svc = median_build(&mut out, tracer, SETUPS, "ServiceSim::with_faults", || {
        ServiceSim::with_faults(
            scenario.clone(),
            TreeSharing::Shared,
            FaultConfig::new(LINK_LOSS),
        )
    });
    out.rss_after_setup_mb = proc_status_mb("VmRSS");
    let Some(svc) = svc else {
        out.check("the service was built", false);
        return out;
    };
    let mut svc = svc.with_jobs(THREADS);

    let arrivals = schedule(seed, max_k);
    let mut next_arrival = arrivals.iter().peekable();
    let mut retires: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut clients: Vec<Client> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let (mut submit_us, mut poll_us, mut retire_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut refused, mut retired, mut polled) = (0u64, 0u64, 0u64);
    let mut contiguous = true;
    let mut stepped_all = true;
    for b in 0..=max_k {
        let in_window = b >= WARMUP && b < max_k;
        let boundary_start = Instant::now();
        tracer.open("boundary", b);
        while let Some(a) = next_arrival.next_if(|a| a.boundary == b) {
            let mut spec = scenario.query.clone();
            spec.lifetime = period * a.lifetime;
            tracer.open("service.submit", b);
            let start = Instant::now();
            let id = out.ops.call("submit", || svc.submit(&spec));
            submit_us.push(ms_since(start) * 1e3);
            tracer.close();
            match id {
                Some(id) => {
                    if let Some(r) = a.retire {
                        retires.entry(r).or_default().push(clients.len());
                    }
                    live.push(clients.len());
                    clients.push(Client {
                        id,
                        next: b + 1,
                        last: (b + a.lifetime).min(max_k),
                    });
                }
                None => refused += 1,
            }
        }
        for c in retires.remove(&b).unwrap_or_default() {
            tracer.open("service.retire", b);
            let start = Instant::now();
            let last = out.ops.call("retire", || svc.retire(clients[c].id));
            retire_us.push(ms_since(start) * 1e3);
            tracer.close();
            if let Some(last) = last {
                clients[c].last = last;
                retired += 1;
            }
        }

        tracer.open("service.step_period", b);
        let start = Instant::now();
        let stepped = out.ops.call("step_period", || svc.step_period());
        let step_ms = ms_since(start);
        tracer.close();
        if stepped.is_none() {
            // An engine error poisons the world: stop serving.
            stepped_all = false;
            tracer.close();
            break;
        }

        let mut periods = 0u64;
        live.retain(|&c| {
            let client = &mut clients[c];
            tracer.open("service.poll", b);
            let start = Instant::now();
            let results = out.ops.call("poll", || svc.poll(client.id));
            poll_us.push(ms_since(start) * 1e3);
            tracer.close();
            for r in results.iter().flatten() {
                contiguous &= r.period == client.next;
                client.next += 1;
                periods += 1;
            }
            client.next <= client.last
        });
        polled += periods;
        tracer.close();
        if in_window {
            out.op_ms.push(step_ms);
            out.loop_periods += periods;
            out.loop_s += boundary_start.elapsed().as_secs_f64();
        }
    }

    let windows: u64 = svc
        .query_set()
        .users()
        .iter()
        .map(|u| u.query_count())
        .sum();
    out.check(
        "polled records equal the sum of the queries' effective windows",
        stepped_all && live.is_empty() && contiguous && polled == windows,
    );
    let threshold = scenario.fidelity_threshold;
    let faults = svc.fault_log().to_vec();
    tracer.open("service.finish", max_k);
    let start = Instant::now();
    let output = out.ops.run("finish", || svc.finish());
    let finish_ms = ms_since(start);
    tracer.close();
    out.check("finish() completed (refcount discipline)", output.is_some());
    let Some(output) = output else {
        return out;
    };
    for log in &output.logs {
        out.score.add(log.records(), threshold);
    }
    out.check(
        "engine logs match the polled records",
        out.score.scored == polled,
    );
    let growth = proc_status_mb("VmHWM") - out.rss_after_setup_mb;

    let l = &mut out.layers;
    l.put("mem.rss_growth_mb", growth, "MiB");
    l.put("service.submit_us", median(&submit_us), "us");
    l.put("service.poll_us", median(&poll_us), "us");
    l.put("service.retire_us", median(&retire_us), "us");
    l.count("service.submitted", clients.len() as u64);
    l.count("service.retired", retired);
    l.count("service.refused", refused);
    l.put("engine.step_ms", median(&out.op_ms), "ms");
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
    let attempts: u64 = faults.iter().map(|f| f.install_attempts).sum();
    let retries: u64 = faults.iter().map(|f| f.retries).sum();
    l.count("fault.install_attempts", attempts);
    l.count("fault.retries", retries);
    l.count(
        "fault.install_failures",
        faults.iter().map(|f| f.install_failures).sum::<u64>(),
    );
    l.ratio("fault.retry_ratio", retries as f64, attempts as f64);
    l.count(
        "fault.link_bad_node_periods",
        faults.iter().map(|f| f.link_bad as u64).sum::<u64>(),
    );
    drop(output);
    if tracer.enabled() {
        setup_phases(&mut out, scenario);
    }
    out
}
