//! Regenerates EXPERIMENTS.md's measured tables:
//!   CCE_SCALE=1.0 cargo run --release -p cce-bench --bin experiments -- [ID...]
//! No id prints every table in EXPERIMENTS.md order; each follows an
//! `== ID ==` line.

use cce_bench::experiments::{select, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&ids).map_err(|unknown| {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        format!("unknown id `{unknown}`\nusage: experiments [ID...]   ids: {}", valid.join(" "))
    })?;
    let scale = cce_bench::scale_from_env()?;
    for (id, run) in experiments {
        print!("== {id} ==\n{}", run(scale).map_err(|e| format!("{id}: {e}"))?);
    }
    Ok(())
}
