//! What every workload shares: failure accounting, the simulated-record
//! tally and digest, per-layer metric lists and process memory readings.

use crate::stats::median;
use crate::trace::Tracer;
use mobiquery::config::Scenario;
use mobiquery::Simulation;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wsn_metrics::QueryRecord;

/// Counts operations attempted and failed. A failed operation is a call
/// that returns `Err`, a refused admission, or a panic.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Ops {
    /// Runs one operation, counting it, and returns its value unless it
    /// failed.
    pub fn call<T, E: Display>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(e)) => {
                self.fail(what, &e.to_string());
                None
            }
            Err(_) => {
                self.fail(what, "panicked");
                None
            }
        }
    }

    /// Like [`Ops::call`] for a call that can only fail by panicking.
    pub fn run<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.call(what, || Ok::<T, String>(f()))
    }

    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{what}: {why}"));
        }
    }
}

/// Tally and FNV-1a digest of simulated query records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Records scored.
    pub scored: u64,
    /// Records delivered on time at or above the fidelity threshold.
    pub succeeded: u64,
    /// Sum of per-record fidelity.
    pub fidelity_sum: f64,
    /// Digest of every record field, in the order added.
    pub digest: u64,
}

impl Default for Score {
    fn default() -> Self {
        Score {
            scored: 0,
            succeeded: 0,
            fidelity_sum: 0.0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Score {
    /// Adds every record of one query's log.
    pub fn add(&mut self, records: &[QueryRecord], threshold: f64) {
        for r in records {
            self.scored += 1;
            self.succeeded += u64::from(r.succeeded(threshold));
            self.fidelity_sum += r.fidelity();
            let delivered = r.delivered_at.map_or(u64::MAX, |t| t.as_micros());
            for word in [
                r.seq,
                r.deadline.as_micros(),
                delivered,
                r.contributing_nodes as u64,
                r.nodes_in_area as u64,
            ] {
                self.mix(word);
            }
        }
        // Separates one log from the next.
        self.mix(u64::MAX);
    }

    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.digest ^= u64::from(byte);
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Share of scored records that missed (late, undelivered or below the
    /// fidelity threshold).
    pub fn miss_ratio(&self) -> f64 {
        1.0 - self.succeeded as f64 / self.scored.max(1) as f64
    }

    /// Mean fidelity over scored records.
    pub fn mean_fidelity(&self) -> f64 {
        self.fidelity_sum / self.scored.max(1) as f64
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// An ordered list of per-layer metrics.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub Vec<Metric>);

impl Layers {
    /// Appends a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// Appends a count.
    pub fn count(&mut self, name: &'static str, value: impl Into<u64>) {
        self.put(name, value.into() as f64, "count");
    }

    /// Appends `num / den`, or 0 when nothing was attempted.
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.put(name, if den > 0.0 { num / den } else { 0.0 }, "ratio");
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Everything one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Setup host seconds (see each workload for what is set up).
    pub setup_s: f64,
    /// Host seconds of the timed loop, set-up excluded.
    pub loop_s: f64,
    /// Query periods scored inside the timed loop.
    pub loop_periods: u64,
    /// Host time of each op in the timed loop, in ms.
    pub op_ms: Vec<f64>,
    /// Every simulated record of the pass.
    pub score: Score,
    /// Resident set right after set-up, in MiB.
    pub rss_after_setup_mb: f64,
    /// Per-layer metrics (counts, program timers, layer timings).
    pub layers: Layers,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A `kB` field of `/proc/self/status` in MiB (`VmRSS` is the current
/// resident set, `VmHWM` its peak), or 0 where the file is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The paper's scenario scaled to `nodes` at its density (200 nodes per
/// 450 m square), lasting `periods` query periods.
pub fn at_paper_density(nodes: usize, periods: u64, seed: u64) -> Scenario {
    let s = Scenario::paper_default();
    let period_s = s.query.period.as_secs_f64();
    s.with_node_count(nodes)
        .with_region_side(450.0 * (nodes as f64 / 200.0).sqrt())
        .with_duration_secs(periods as f64 * period_s)
        .with_seed(seed)
}

/// Records the setup phases of one extra `Simulation::new` on `scenario`.
pub fn setup_phases(out: &mut Outcome, scenario: Scenario) {
    if let Some(sim) = out
        .ops
        .call("Simulation::new", || Simulation::new(scenario))
    {
        let b = sim.setup_breakdown();
        out.layers.put("setup.neighbor_ms", b.neighbor_ms, "ms");
        out.layers.put("setup.ccp_ms", b.ccp_ms, "ms");
        out.layers.put("setup.plan_ms", b.plan_ms, "ms");
    }
}

/// Builds `n` times, dropping each build before the next, records the
/// median build time as `setup_s` and returns the last build.
pub fn median_build<T, E: Display>(
    out: &mut Outcome,
    tracer: &mut Tracer,
    n: usize,
    what: &str,
    mut build: impl FnMut() -> Result<T, E>,
) -> Option<T> {
    let mut built = None;
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n {
        drop(built.take());
        tracer.open("setup.build", 0);
        let start = Instant::now();
        built = out.ops.call(what, &mut build);
        secs.push(start.elapsed().as_secs_f64());
        tracer.close();
    }
    out.setup_s = median(&secs);
    built
}
