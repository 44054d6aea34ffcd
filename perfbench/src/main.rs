//! End-to-end and per-layer benchmark of the code-compression workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compress|refill|sweep|serve-cold|serve-warm> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload is one user-facing path of the system, driven through
//! the library's public API on inputs generated from `--seed`:
//!
//! * `compress` — `cce compress --model-cache` on a warm model store: ELF
//!   read, model-store hit, the verified block pipeline and the v2
//!   container writer;
//! * `refill` — functional co-simulation of the compressed-code memory
//!   system: every I-cache miss decodes the missed block through SAMC;
//! * `sweep` — `cce sweep`: the default design-space grid of cache × CLB ×
//!   decoder cells over shared compressed images on the worker pool;
//! * `serve-cold`, `serve-warm` — the block-serving daemon on a Unix
//!   socket answering pipelined `decode-block` requests from several
//!   connections, spread over every block (cold) or over blocks its
//!   decoded-block cache holds (warm).
//!
//! A run first generates the inputs and the oracles outputs are checked
//! against (not timed), then runs the program's set-up several times
//! (reporting the median as `setup_s`), warms up, and runs operations for
//! `--seconds`, checking every output.  The last line of standard output
//! is one JSON object: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a run with span tracing on (the
//! spans are also written to `perfbench/out/`).

mod compress;
mod design;
mod refill;
mod serve;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Share of `--seconds` spent warming up before the measured window
/// (caches filled, lazy state built); warm-up operations are checked but
/// not timed.
const WARMUP_SHARE: f64 = 0.05;

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.  Every
/// workload reports every name; a layer a workload does not touch reads 0.
const PER_LAYER: [(&str, &str); 23] = [
    ("ops", "count"),
    ("train_ms", "ms"),
    ("elf_read_ms", "ms"),
    ("model_load_ms", "ms"),
    ("pipeline_ms", "ms"),
    ("encode_cpu_ms", "ms"),
    ("verify_cpu_ms", "ms"),
    ("pipeline_blocks", "count"),
    ("pipeline_stalls", "count"),
    ("container_decode_ms", "ms"),
    ("memsim_ms", "ms"),
    ("refill_decode_ms", "ms"),
    ("refills", "count"),
    ("cache_hit_ratio", "ratio"),
    ("clb_hit_ratio", "ratio"),
    ("sim_ns_per_fetch", "ns"),
    ("sweep_cells", "count"),
    ("image_build_ms", "ms"),
    ("publish_ms", "ms"),
    ("verify_dir_ms", "ms"),
    ("serve_rtt_us", "us"),
    ("serve_service_us", "us"),
    ("serve_cache_hit_ratio", "ratio"),
];

/// The design figures of the images a workload produced or used; exact
/// for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct Design {
    /// Compressed bytes (blocks plus model) over uncompressed bytes.
    pub ratio: f64,
    /// Simulated cycles per fetch of the compressed reference system over
    /// its uncompressed baseline.
    pub slowdown: f64,
}

/// Per-layer values a workload reports, keyed by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Counts and host latencies of the operations run so far.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Latency of each successful operation, in seconds.
    pub latencies: Vec<f64>,
}

impl Tally {
    /// Records one operation: its latency, or why it failed (a call that
    /// failed or an output that is wrong).
    pub fn record(&mut self, result: Result<Duration, String>) {
        self.attempted += 1;
        match result {
            Ok(elapsed) => self.latencies.push(elapsed.as_secs_f64()),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }
}

/// A workload's inputs, generated from the seed, and the oracles its
/// outputs are checked against.  Neither is timed.
pub trait Inputs {
    /// The program's own set-up on these inputs (training, image
    /// building, publishing, opening a server), timed as `setup_s`.
    fn setup(&self, tracer: &Tracer) -> Result<Box<dyn Workload + '_>, String>;
}

/// One set-up instance of a workload.
pub trait Workload {
    /// Runs step `i` — one operation, or one batch of pipelined requests
    /// for the serve workloads — and records every operation in `tally`
    /// with the host time of the part a user of the system waits for
    /// (output checks are not timed).
    fn step(&mut self, i: u64, tracer: &Tracer, tally: &mut Tally);

    /// The design figures of this workload's images.
    fn design(&mut self) -> Result<Design, String>;

    /// Per-layer values after the operations in `tally`, from the
    /// tracer's span totals and the program's own counters.
    fn layers(&self, tracer: &Tracer, tally: &Tally, out: &mut Layers);
}

type Prepare = fn(u64) -> Result<Box<dyn Inputs>, String>;

const WORKLOADS: [(&str, Prepare); 5] = [
    ("compress", compress::prepare),
    ("refill", refill::prepare),
    ("sweep", sweep::prepare),
    ("serve-cold", serve::prepare_cold),
    ("serve-warm", serve::prepare_warm),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let prepare = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, prepare)| *prepare)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("--workload must be one of {}", names.join(", "))
        })?;
    let tracer = Tracer::new(args.trace);
    let inputs = prepare(args.seed)?;

    // The first set-up builds the instance the operations run on; the
    // others are spread evenly over the measured window (and dropped), so
    // `setup_s` samples the same host conditions as the operations do.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut timed_setup = || {
        let start = Instant::now();
        let workload = inputs.setup(&tracer)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok::<_, String>(workload)
    };
    let mut workload = timed_setup()?;

    cce_core::obs::reset();
    let mut tally = Tally::default();
    let step = |i: u64, workload: &mut Box<dyn Workload + '_>, tally: &mut Tally| {
        tracer.set_op(Some(i));
        workload.step(i, &tracer, tally);
        tracer.set_op(None);
    };

    let warmup = Duration::from_secs_f64(args.seconds * WARMUP_SHARE);
    let window = Duration::from_secs_f64(args.seconds);
    let mut i = 0u64;
    let start = Instant::now();
    while i == 0 || start.elapsed() < warmup {
        step(i, &mut workload, &mut tally);
        i += 1;
    }
    let measured_from = tally.latencies.len();
    let mut setups = 1;
    let start = Instant::now();
    while tally.latencies.len() == measured_from || start.elapsed() < window {
        if setups < SETUP_REPS && start.elapsed() >= window * setups as u32 / SETUP_REPS as u32 {
            drop(timed_setup()?);
            setups += 1;
        }
        step(i, &mut workload, &mut tally);
        i += 1;
        if tally.latencies.len() == measured_from && tally.attempted > 1000 {
            break; // every operation failing: report, do not spin
        }
    }
    while setups < SETUP_REPS {
        drop(timed_setup()?);
        setups += 1;
    }
    if let Some(e) = &tally.first_error {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {e}",
            tally.failed, tally.attempted
        );
    }
    let mut latencies = tally.latencies[measured_from..].to_vec();
    eprintln!(
        "perfbench: workload {} seed {} — {} timed ops, {} cpus available",
        args.workload,
        args.seed,
        latencies.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut layers = Layers::new();
        for (name, _) in PER_LAYER {
            layers.insert(name, 0.0);
        }
        layers.insert("ops", tally.attempted as f64);
        workload.layers(&tracer, &tally, &mut layers);
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers[name], unit));
        }
        write_trace(&args, &tracer)?;
    } else {
        if latencies.is_empty() {
            return Err("no operation succeeded".into());
        }
        let design = workload.design()?;
        latencies.sort_by(f64::total_cmp);
        setup_s.sort_by(f64::total_cmp);
        metrics.push(("op_p50_ms", quantile(&latencies, 0.5) * 1e3, "ms"));
        metrics.push(("op_p90_ms", quantile(&latencies, 0.9) * 1e3, "ms"));
        metrics.push(("ratio", design.ratio, "ratio"));
        metrics.push(("slowdown", design.slowdown, "x"));
        metrics.push(("setup_s", quantile(&setup_s, 0.5), "s"));
    }
    drop(workload);

    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}

/// Linear-interpolated quantile of an ascending, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Writes the recorded spans to `perfbench/out/trace-<workload>-<seed>.json`.
fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The benchmark's scratch directory, inside its own package.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Value of a counter, histogram (`(count, sum)`) or span (`(count,
/// total ns)`) in the program's metric registry; zeros when the name is
/// not registered or instrumentation is compiled out.
pub fn obs_value(snapshot: &cce_core::obs::Snapshot, name: &str) -> (u64, u64) {
    use cce_core::obs::SampleValue;
    match snapshot.samples.iter().find(|s| s.name == name).map(|s| &s.value) {
        Some(SampleValue::Counter(v)) | Some(SampleValue::Gauge(v)) => (*v, *v),
        Some(SampleValue::Histogram { count, sum, .. }) => (*count, *sum),
        Some(SampleValue::Span { count, total_nanos, .. }) => (*count, *total_nanos),
        None => (0, 0),
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }
}
