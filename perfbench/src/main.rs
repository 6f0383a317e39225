//! The repository benchmark: runs one workload for a fixed time, checks
//! its outputs, and prints the end-to-end metrics (or, with `--trace 1`,
//! the per-layer metrics) as the last line of standard output.
//!
//! ```text
//! perfbench --workload offline-suite|serve-warm|serve-cold
//!           --seed N --seconds S --trace 0|1
//! perfbench daemon --socket PATH        (the serve workloads' daemon)
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics, and which
//! end-to-end metric each layer metric should move.

mod offline;
mod serve;
mod space;
mod stats;

use std::path::Path;
use std::time::Duration;

use ea_core::json::{escape, fmt_f64};

use crate::stats::{geomean, nearest_rank, Outcome, CLASSES, MIN_BEYOND};

/// A second seed, not used to tune the benchmark, for checking that a
/// later claim holds beyond the seeds it was developed on.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Seeds must travel exactly as JSON numbers (f64) once scaled into the
/// `serve-cold` weight seeds.
const MAX_SEED: u64 = 1 << 32;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One operation of a workload's timed window.
#[derive(Debug, Clone)]
pub struct OpRec {
    /// Pair index into the request space.
    pub k: usize,
    /// End-to-end latency: the in-process call, or the client round trip.
    pub ms: f64,
    /// The whole operation including any tracing probes.
    pub op_ms: f64,
    pub outcome: Outcome,
    pub traced: bool,
    /// The correctness check failed for this operation.
    pub mismatch: bool,
    /// Energy over `Instance::energy_lower_bound()`, for a mapping.
    pub ratio: Option<f64>,
}

impl OpRec {
    pub fn new(k: usize, ms: f64, outcome: Outcome, traced: bool) -> OpRec {
        OpRec {
            k,
            ms,
            op_ms: ms,
            outcome,
            traced,
            mismatch: false,
            ratio: None,
        }
    }
}

/// What a workload measured, before the common accounting.
pub struct Finish {
    pub setup_s: f64,
    pub elapsed: Duration,
    pub ops: Vec<OpRec>,
    pub rss_mb: f64,
    /// Layer metrics the workload measured; missing ones print as 0.
    pub layer_metrics: Vec<(String, f64, &'static str)>,
    /// Σ layer self time / operation wall over the traced operations.
    pub coverage: f64,
}

/// Every per-layer metric, in print order. A layer that is not on a
/// workload's path (the serve layers on `offline-suite`) reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("spg.generate_ms", "ms"),
    ("instance.lattice_ms", "ms"),
    ("instance.lattice_useful_ratio", "ratio"),
    ("instance.skeleton_ms", "ms"),
    ("instance.route_ms", "ms"),
    ("solver.random_ms", "ms"),
    ("solver.greedy_ms", "ms"),
    ("solver.dpa2d_ms", "ms"),
    ("solver.dpa1d_ms", "ms"),
    ("solver.dpa2d1d_ms", "ms"),
    ("solver.random_failed", "ratio"),
    ("solver.greedy_failed", "ratio"),
    ("solver.dpa2d_failed", "ratio"),
    ("solver.dpa1d_failed", "ratio"),
    ("solver.dpa2d1d_failed", "ratio"),
    ("portfolio.ms", "ms"),
    ("pool.busy_ratio", "ratio"),
    ("mapping.evaluate_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.daemon_overhead_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("serve.warm_share", "ratio"),
    ("scheduler.batches", "count"),
    ("scheduler.mean_batch", "count"),
    ("scheduler.deduped", "count"),
    ("scheduler.shed", "count"),
    ("workload.overflow_share", "ratio"),
    ("outcome.sent", "count"),
    ("outcome.ok", "count"),
    ("outcome.infeasible", "count"),
    ("outcome.too_expensive", "count"),
    ("outcome.deadline", "count"),
    ("outcome.overloaded", "count"),
    ("outcome.transport_error", "count"),
    ("outcome.other_error", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// High-water resident memory in MiB of `pid` (this process if `None`),
/// from `/proc/<pid>/status`; 0 where that file does not exist.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the working directory's checkout, read from
/// `.git` directly; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["offline-suite", "serve-warm", "serve-cold"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    if seed >= MAX_SEED {
        return Err(format!("--seed must be below {MAX_SEED}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// One `"name": {"value": v, "unit": u}` member.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        escape(name),
        fmt_f64(value),
        escape(unit)
    )
}

/// Accounting, correctness, and metric selection common to all workloads.
/// Prints the report lines and returns the final JSON line and whether
/// every output was correct.
fn report(args: &Args, f: Finish) -> Result<(String, bool), String> {
    let ops = &f.ops;
    let attempted = ops.len();
    if attempted == 0 {
        return Err("the window completed no operation".to_string());
    }
    let mismatches = ops.iter().filter(|o| o.mismatch).count();
    let failed = ops
        .iter()
        .filter(|o| o.mismatch || !o.outcome.answered())
        .count();
    let overflow = space::overflow_flows();
    let overflow_share = ops
        .iter()
        .filter(|o| overflow[o.k / space::UTILISATIONS.len()])
        .count() as f64
        / attempted as f64;

    let count = |class: &str| ops.iter().filter(|o| o.outcome.class() == class).count();
    let classes: Vec<String> = CLASSES
        .iter()
        .map(|c| format!("\"{c}\": {}", count(c)))
        .collect();
    println!(
        "stamp: {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"pool_workers\": {}, \"git_rev\": \"{}\"}}",
        escape(&args.workload),
        args.seed,
        args.seconds.as_secs(),
        args.trace as u8,
        space::nproc(),
        space::pool_workers(),
        escape(&git_rev()),
    );
    println!(
        "outcomes: {{\"sent\": {attempted}, {}, \"mismatch\": {mismatches}, \"failed\": {failed}, \"failed_share\": {}, \"overflow_share\": {}}}",
        classes.join(", "),
        fmt_f64(failed as f64 / attempted as f64),
        fmt_f64(overflow_share),
    );

    let mut metrics = Vec::new();
    if args.trace {
        let mean = |traced: bool| {
            let v: Vec<f64> = ops
                .iter()
                .filter(|o| o.traced == traced)
                .map(|o| o.op_ms)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let mut have = f.layer_metrics;
        have.push(("workload.overflow_share".into(), overflow_share, "ratio"));
        have.push(("outcome.sent".into(), attempted as f64, "count"));
        for class in CLASSES {
            have.push((format!("outcome.{class}"), count(class) as f64, "count"));
        }
        have.push(("trace.coverage".into(), f.coverage, "ratio"));
        have.push((
            "trace.overhead_ratio".into(),
            mean(true) / mean(false),
            "ratio",
        ));
        for (name, unit) in PER_LAYER {
            let value = have
                .iter()
                .find(|(n, ..)| n == name)
                .map_or(0.0, |(_, v, _)| *v);
            metrics.push(metric_json(name, value, unit));
        }
    } else {
        let lat: Vec<f64> = ops.iter().map(|o| o.ms).collect();
        let (p50, _) = nearest_rank(&lat, 0.50).expect("ops is not empty");
        let (p95, beyond) = nearest_rank(&lat, 0.95).expect("ops is not empty");
        println!("latency: {{\"n\": {attempted}, \"beyond_p95\": {beyond}}}");
        if beyond < MIN_BEYOND {
            return Err(format!(
                "only {beyond} of {attempted} samples lie beyond p95 (need {MIN_BEYOND}); run longer"
            ));
        }
        let ratios: Vec<f64> = ops.iter().filter_map(|o| o.ratio).collect();
        let answered_share = 1.0 - failed as f64 / attempted as f64;
        for (name, value, unit) in [
            ("setup_s", f.setup_s, "s"),
            (
                "throughput_rps",
                attempted as f64 / f.elapsed.as_secs_f64(),
                "1/s",
            ),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p95_ms", p95, "ms"),
            ("answered_share", answered_share, "ratio"),
            ("energy_ratio", geomean(&ratios), "ratio"),
            ("peak_rss_mb", f.rss_mb, "MiB"),
        ] {
            metrics.push(metric_json(name, value, unit));
        }
    }
    let correct = mismatches == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok((line, correct))
}

fn run() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("daemon") {
        return match (argv.next().as_deref(), argv.next()) {
            (Some("--socket"), Some(path)) => serve::daemon_main(Path::new(&path)).map(|()| true),
            _ => Err("usage: perfbench daemon --socket PATH".to_string()),
        };
    }
    let args = parse_args()?;
    let finish = match args.workload.as_str() {
        "offline-suite" => offline::run(&args)?,
        "serve-warm" => serve::warm(&args)?,
        _ => serve::cold(&args)?,
    };
    let (line, correct) = report(&args, finish)?;
    println!("{line}");
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: correctness check failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
