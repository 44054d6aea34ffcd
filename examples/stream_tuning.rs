//! Tune SAMC's stream division for a specific program (paper §3): group
//! correlated instruction bits, then hill-climb by random exchanges, and
//! compare the resulting compression against the default byte division.
//!
//! Run with: `cargo run --release --example stream_tuning`

use cce_core::codec::BlockCodec;
use cce_core::isa::Isa;
use cce_core::samc::{optimize_division, OptimizeConfig, SamcCodec, SamcConfig, StreamDivision};
use cce_core::workload::spec95_suite;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let programs = spec95_suite(Isa::Mips, 0.25);
    let program = programs.iter().find(|p| p.name == "xlisp").expect("in suite");
    let words: Vec<u32> = program
        .text
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes(c.try_into().expect("chunk of 4")))
        .collect();
    println!("{}: {} instructions", program.name, words.len());

    let ratio_with = |division: StreamDivision| -> Result<f64, Box<dyn Error>> {
        let config = SamcConfig::mips().with_division(division);
        let codec = SamcCodec::train(&program.text, config)?;
        Ok(codec.compress(&program.text)?.ratio())
    };

    // The paper's default: four contiguous 8-bit streams.
    let default_ratio = ratio_with(StreamDivision::bytes(32))?;
    println!("default 4x8-bit byte streams: ratio {default_ratio:.4}");

    // Optimizer: correlation grouping + random exchange (paper §3), with
    // four independent restarts fanned across the worker pool (the result
    // is deterministic regardless of worker count).
    let optimize = OptimizeConfig {
        streams: 4,
        iterations: 48,
        sample_units: 4096,
        restarts: 4,
        ..OptimizeConfig::default()
    };
    let (division, sample_bits) = optimize_division(&words, 32, &optimize);
    println!("optimized division (sample cost {:.0} bits):", sample_bits);
    for s in 0..division.stream_count() {
        println!("  stream {s}: bits {:?}", division.stream_bits(s));
    }
    let optimized_ratio = ratio_with(division)?;
    println!("optimized streams: ratio {optimized_ratio:.4}");

    // Coarser and finer divisions for comparison (ablation CLAIM-STREAM).
    for (label, division) in [
        ("2x16-bit", StreamDivision::contiguous(32, 2)),
        ("8x4-bit", StreamDivision::contiguous(32, 8)),
    ] {
        println!("{label} streams: ratio {:.4}", ratio_with(division)?);
    }

    println!();
    println!(
        "optimized vs default: {:+.2}%",
        100.0 * (optimized_ratio - default_ratio) / default_ratio
    );
    Ok(())
}
