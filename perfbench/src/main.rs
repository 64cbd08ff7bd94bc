//! The repository benchmark. Runs one named workload from a seed, checks
//! its outputs and prints its metrics; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <paper_grid|service_hotspot|churn_walk> --seed <n>
//!           --seconds <n> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of one untraced pass.
//! `--trace 1` runs the workload twice, untraced and then traced, checks the
//! two passes agree, and reports the per-layer metrics, each span's self
//! time and the tracing overhead. See README.md for every metric.

mod churn_walk;
mod harness;
mod paper_grid;
mod service_hotspot;
mod stats;
mod trace;

use harness::{proc_status_mb, Layers, Outcome};
use stats::{median, tail};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::{self_times, Tracer};

/// Worker threads every engine runs with.
pub const THREADS: usize = 1;

type Workload = fn(u64, u64, &mut Tracer) -> Outcome;

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper_grid", paper_grid::run),
    ("service_hotspot", service_hotspot::run),
    ("churn_walk", churn_walk::run),
];

/// Per-layer metrics the traced run puts in its JSON line: those every
/// workload measures, and counts, which read 0 on a workload that bypasses
/// the layer. Layer timings of one workload only are printed above it.
const JSON_LAYERS: [(&str, &str); 27] = [
    ("setup.neighbor_ms", "ms"),
    ("setup.ccp_ms", "ms"),
    ("setup.plan_ms", "ms"),
    ("mem.rss_after_setup_mb", "MiB"),
    ("mem.rss_growth_mb", "MiB"),
    ("trace.overhead_ratio", "ratio"),
    ("service.submitted", "count"),
    ("service.retired", "count"),
    ("service.refused", "count"),
    ("engine.query_periods", "count"),
    ("engine.installs", "count"),
    ("engine.events", "count"),
    ("cache.trees_built", "count"),
    ("cache.shared_hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.peak_live_trees", "count"),
    ("fault.install_attempts", "count"),
    ("fault.retries", "count"),
    ("fault.install_failures", "count"),
    ("fault.retry_ratio", "ratio"),
    ("fault.link_bad_node_periods", "count"),
    ("repair.evaluated", "count"),
    ("repair.flips", "count"),
    ("repair.flip_ratio", "ratio"),
    ("sim.events", "count"),
    ("sim.frames_sent", "count"),
    ("sim.frames_lost", "count"),
];

struct Args {
    workload: (&'static str, Workload),
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let name = take("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|(n, _)| *n == name)
        .ok_or(format!("unknown workload {name}"))?;
    let number = |v: String, flag: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} {v}"));
    let seed = number(take("--seed")?, "--seed")?;
    let seconds = number(take("--seconds")?, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other}")),
    };
    let trace_out = flags.remove("--trace-out");
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--trace-out <file>]");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "# host: nproc={nproc} cpu=\"{}\" rustc=\"{}\" commit={} seed={} threads={THREADS}",
        cpu_model(),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
        args.seed
    );
    if THREADS > nproc {
        eprintln!("perfbench: refusing to start {THREADS} threads on {nproc} cores");
        return ExitCode::from(1);
    }
    let (name, workload) = args.workload;
    println!("# workload: {name} seconds={}", args.seconds);

    let untraced = workload(args.seed, args.seconds, &mut Tracer::new(false));
    report_checks("untraced", &untraced);
    let mut correct = passed(&untraced);
    let mut attempted = untraced.ops.attempted;
    let mut failed = untraced.ops.failed;
    let metrics = if args.trace {
        let mut tracer = Tracer::new(true);
        let traced = workload(args.seed, args.seconds, &mut tracer);
        report_checks("traced", &traced);
        let same = traced.score == untraced.score;
        println!(
            "# check: traced and untraced passes give identical records: {}",
            ok(same)
        );
        correct &= passed(&traced) && same;
        attempted += traced.ops.attempted;
        failed += traced.ops.failed;
        if let Some(path) = &args.trace_out {
            write_spans(path, &tracer);
        }
        print_self_times(&tracer);
        per_layer(&untraced, traced)
    } else {
        end_to_end(&untraced)
    };
    println!(
        "# failed operations: {failed} of {attempted} ({:.4} %)",
        100.0 * failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "FAILED"
    }
}

fn passed(o: &Outcome) -> bool {
    !o.checks.is_empty() && o.checks.iter().all(|(_, held)| *held)
}

fn report_checks(pass: &str, o: &Outcome) {
    for (name, held) in &o.checks {
        println!("# check ({pass}): {name}: {}", ok(*held));
    }
    for e in &o.ops.errors {
        println!("# failed op ({pass}): {e}");
    }
    println!(
        "# records ({pass}): {} scored, digest {:016x}, success_ratio {}",
        o.score.scored,
        o.score.digest,
        1.0 - o.score.miss_ratio()
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn query_periods_per_s(o: &Outcome) -> f64 {
    o.loop_periods as f64 / o.loop_s.max(1e-9)
}

fn end_to_end(o: &Outcome) -> Layers {
    let mut m = Layers::default();
    let tail = tail(&o.op_ms);
    match tail {
        Some(t) => println!(
            "# op_tail_ms is p{} of {} ops ({} beyond it); op_p50_ms is their median",
            t.percentile, t.samples, t.beyond
        ),
        None => println!(
            "# op_tail_ms: too few ops ({}) for any percentile",
            o.op_ms.len()
        ),
    }
    m.put("setup_s", o.setup_s, "s");
    m.put("query_periods_per_s", query_periods_per_s(o), "1/s");
    m.put("op_p50_ms", median(&o.op_ms), "ms");
    m.put("op_tail_ms", tail.map_or(0.0, |t| t.value), "ms");
    m.put("peak_rss_mb", proc_status_mb("VmHWM"), "MiB");
    m.put("miss_ratio", o.score.miss_ratio(), "ratio");
    m.put("mean_fidelity", o.score.mean_fidelity(), "ratio");
    m
}

/// The traced pass's layers plus memory from the untraced pass (the traced
/// pass starts on a heap the first pass already grew) and the overhead.
fn per_layer(untraced: &Outcome, traced: Outcome) -> Layers {
    let (plain, with) = (query_periods_per_s(untraced), query_periods_per_s(&traced));
    println!(
        "# tracing overhead: untraced {plain:.1} query periods/s, traced {with:.1} ({:+.2} %)",
        100.0 * (plain / with - 1.0)
    );
    let mut all = traced.layers;
    all.put("mem.rss_after_setup_mb", untraced.rss_after_setup_mb, "MiB");
    if let Some(growth) = untraced.layers.get("mem.rss_growth_mb") {
        all.0.retain(|m| m.name != "mem.rss_growth_mb");
        all.put("mem.rss_growth_mb", growth, "MiB");
    }
    all.put("trace.overhead_ratio", plain / with, "ratio");
    println!("# per-layer metrics:");
    for m in &all.0 {
        println!("#   {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let mut json = Layers::default();
    for (name, unit) in JSON_LAYERS {
        match all.0.iter().find(|m| m.name == name) {
            Some(m) => json.0.push(m.clone()),
            None => json.put(name, 0.0, unit),
        }
    }
    json
}

fn print_self_times(tracer: &Tracer) {
    let spans = tracer.spans();
    let own = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, f64, f64, Vec<f64>, bool)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end - s.start) as f64 / 1e6;
        e.2 += self_ns as f64 / 1e6;
        e.3.push(self_ns as f64 / 1e6);
        e.4 |= s.program;
    }
    println!("# self time by span (program = measured by the program's own timers):");
    println!(
        "#   {:<24} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "p50_self_ms"
    );
    for (name, (count, total, own, samples, program)) in by_name {
        println!(
            "#   {:<24} {count:>8} {total:>12.2} {own:>12.2} {:>12.4}{}",
            name,
            median(&samples),
            if program { "  (program)" } else { "" }
        );
    }
}

fn write_spans(path: &str, tracer: &Tracer) {
    let written = std::fs::File::create(path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        tracer.write_to(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match written {
        Ok(()) => println!("# spans written to {path}"),
        Err(e) => println!("# spans not written to {path}: {e}"),
    }
}
