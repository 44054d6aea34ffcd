//! Compress an ELF executable's text section with every algorithm in the
//! paper and print the resulting ratios — the per-binary view behind
//! Figures 7 and 8.
//!
//! Run with:
//!   `cargo run --example compress_firmware`              (built-in demo ELF)
//!   `cargo run --example compress_firmware -- path.elf`  (your own binary)
//!
//! For your own binary the text must decode under the supported MIPS-I /
//! IA-32 subsets; otherwise only the ISA-independent algorithms run.

use cce_core::elf::ElfStream;
use cce_core::isa::Isa;
use cce_core::workload::spec95_suite;
use cce_core::{measure, streaming, Algorithm};
use std::error::Error;
use std::io::Cursor;

fn main() -> Result<(), Box<dyn Error>> {
    let elf_bytes = match std::env::args().nth(1) {
        Some(path) => std::fs::read(path)?,
        None => {
            // Demo: the synthetic stand-in for SPEC95 `vortex` on MIPS.
            let program = spec95_suite(Isa::Mips, 0.5)
                .into_iter()
                .find(|p| p.name == "vortex")
                .expect("in suite");
            program.to_elf().to_bytes()
        }
    };

    let mut elf = ElfStream::open(Cursor::new(elf_bytes)).map_err(streaming::stream_error)?;
    let isa = streaming::isa_of(&elf)?;
    let text = streaming::buffered_text(&mut elf)?;
    println!("firmware text section: {} bytes ({isa})", text.len());
    println!();
    println!(
        "{:<10} {:>12} {:>8} {:>14} {:>12}",
        "algorithm", "compressed", "ratio", "random access", "LAT bytes"
    );

    for algorithm in Algorithm::ALL {
        match measure(algorithm, isa, &text, 32) {
            Ok(m) => println!(
                "{:<10} {:>12} {:>8.3} {:>14} {:>12}",
                algorithm.to_string(),
                m.compressed_len(),
                m.ratio(),
                if m.random_access() { "yes" } else { "no" },
                m.lat_bytes().map_or("-".to_string(), |b| b.to_string()),
            ),
            Err(e) => println!("{:<10} failed: {e}", algorithm.to_string()),
        }
    }
    Ok(())
}
