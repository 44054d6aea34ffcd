//! SPEED-OPT — times SAMC's stream-division search (reference vs
//! incremental), a multi-restart search and a cold-vs-warm model-cache
//! batch, and writes the `BENCH_optimizer.json` artifact.
//!
//! Run with:
//!   cargo run --release -p cce-bench --bin bench_optimizer -- [-o PATH]

use cce_bench::optimizer;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [] => "BENCH_optimizer.json",
        [flag, path] if flag == "-o" => path.as_str(),
        _ => {
            eprintln!("usage: bench_optimizer [-o PATH]   (default BENCH_optimizer.json)");
            return ExitCode::FAILURE;
        }
    };
    let result = optimizer::run().and_then(|report| {
        std::fs::write(path, report.to_json())?;
        Ok(report)
    });
    match result {
        Ok(report) => {
            println!(
                "{path}: reference {:.1} ms vs incremental {:.1} ms ({:.1}x, division {:016x}, \
                 matches_reference {}); model cache {:.1}x warm ({} hits)",
                report.reference_ms,
                report.fast_ms,
                report.speedup(),
                report.division_hash,
                report.matches_reference,
                report.model_cache.warm_speedup(),
                report.model_cache.warm_hits,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_optimizer: {e}");
            ExitCode::FAILURE
        }
    }
}
