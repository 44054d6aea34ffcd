//! `sweep`: the `cce sweep` design-space exploration.
//!
//! Set-up trains and compresses one image per (codec, block size) point
//! of the command's default grid — SAMC and Huffman at 16, 32 and 64
//! bytes — and builds each image's line address table.  An operation
//! simulates the full default grid — cache size × associativity × CLB
//! entries × decoder latency over every image — on the worker pool,
//! timing only (no block is decoded), and must reproduce a serial run of
//! the grid on images built independently before the run: sweep output
//! is worker-count invariant.

use crate::design::{fetch_trace, mips_text, reference_slowdown, BLOCK};
use crate::trace::Tracer;
use crate::{per, Design, Inputs, Layers, Tally, Workload};
use cce_core::codec::compress_parallel;
use cce_core::isa::Isa;
use cce_core::memsim::sweep::{run_sweep, CellResult, SweepConfig, SweepImage};
use cce_core::memsim::LineAddressTable;
use cce_core::Algorithm;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The profile `cce sweep` simulates, at the benchmark's own scale
/// (about 128 KiB of text; the command defaults to a 6 KiB instance,
/// smaller than most caches of the grid).
const PROFILE: &str = "go";
const SCALE: f64 = 2.0;
/// Fetches per cell, the command's default.
const FETCHES: usize = 100_000;
/// The command's default codecs and block sizes.
const ALGORITHMS: [Algorithm; 2] = [Algorithm::Samc, Algorithm::ByteHuffman];
const BLOCKS: [usize; 3] = [16, 32, 64];
/// Simulation workers.
const WORKERS: usize = 2;

struct Grid {
    text: Vec<u8>,
    trace: Vec<u64>,
    config: SweepConfig,
    expected: Vec<CellResult>,
    /// Per-block sizes of the SAMC image at the paper's block size.
    samc_sizes: Vec<usize>,
    seed: u64,
}

struct Sweep<'a> {
    inputs: &'a Grid,
    images: Vec<SweepImage>,
}

pub fn prepare(seed: u64) -> Result<Box<dyn Inputs>, String> {
    let text = mips_text(PROFILE, SCALE, seed);
    let trace = fetch_trace(text.len(), FETCHES, seed);
    let (images, samc_sizes) = build(&text, &Tracer::new(false))?;
    let config = SweepConfig::default();
    let expected = run_sweep(&images, &config, &trace, 1);
    Ok(Box::new(Grid { text, trace, config, expected, samc_sizes, seed }))
}

/// Trains and compresses one image per grid point; also returns the
/// per-block sizes of the SAMC image at [`BLOCK`] bytes.
fn build(text: &[u8], tracer: &Tracer) -> Result<(Vec<SweepImage>, Vec<usize>), String> {
    let mut images = Vec::new();
    let mut samc_sizes = Vec::new();
    for algorithm in ALGORITHMS {
        for block_size in BLOCKS {
            let handle = {
                let _span = tracer.span("codec.train");
                algorithm.build(Isa::Mips, block_size).train(text).map_err(|e| e.to_string())?
            };
            let _span = tracer.span("image.compress");
            let codec = handle.as_block().ok_or("random-access codec built a file codec")?;
            let image = compress_parallel(codec, text, 1).map_err(|e| e.to_string())?;
            if algorithm == Algorithm::Samc && block_size == BLOCK {
                samc_sizes = image.block_sizes().collect();
            }
            images.push(SweepImage {
                codec: algorithm.to_string(),
                block_size,
                lat: Arc::new(LineAddressTable::from_image(&image)),
                compressed_bytes: image.compressed_len() as u64,
                text_bytes: text.len() as u64,
            });
        }
    }
    Ok((images, samc_sizes))
}

impl Inputs for Grid {
    fn setup(&self, tracer: &Tracer) -> Result<Box<dyn Workload + '_>, String> {
        let (images, _) = build(&self.text, tracer)?;
        Ok(Box::new(Sweep { inputs: self, images }))
    }
}

impl Sweep<'_> {
    fn op(&mut self, tracer: &Tracer) -> Result<Duration, String> {
        let start = Instant::now();
        let results = {
            let _span = tracer.span("sweep.run");
            run_sweep(&self.images, &self.inputs.config, &self.inputs.trace, WORKERS)
        };
        let elapsed = start.elapsed();
        if results != self.inputs.expected {
            return Err("parallel sweep differs from the serial one".into());
        }
        Ok(elapsed)
    }
}

impl Workload for Sweep<'_> {
    fn step(&mut self, _i: u64, tracer: &Tracer, tally: &mut Tally) {
        tally.record(self.op(tracer));
    }

    fn design(&mut self) -> Result<Design, String> {
        let compressed: u64 = self.images.iter().map(|i| i.compressed_bytes).sum();
        let text: u64 = self.images.iter().map(|i| i.text_bytes).sum();
        let inputs = self.inputs;
        Ok(Design {
            ratio: compressed as f64 / text as f64,
            slowdown: reference_slowdown(&inputs.samc_sizes, inputs.text.len(), inputs.seed),
        })
    }

    fn layers(&self, tracer: &Tracer, tally: &Tally, out: &mut Layers) {
        let train = tracer.total("codec.train");
        let image = tracer.total("image.compress");
        let run = tracer.total("sweep.run");
        let expected = &self.inputs.expected;
        let cells = expected.len() as f64;
        out.insert("train_ms", per(train.total_ns as f64, train.count as f64) / 1e6);
        out.insert("image_build_ms", per(image.total_ns as f64, image.count as f64) / 1e6);
        out.insert("memsim_ms", per(run.total_ns as f64, tally.attempted as f64) / 1e6);
        out.insert("sweep_cells", cells);
        let hits: f64 = expected.iter().map(|r| r.report.cache.hit_ratio()).sum();
        out.insert("cache_hit_ratio", per(hits, cells));
        let clb: f64 = expected
            .iter()
            .map(|r| {
                per(r.report.clb_hits as f64, (r.report.clb_hits + r.report.clb_misses) as f64)
            })
            .sum();
        out.insert("clb_hit_ratio", per(clb, cells));
        // Simulations per grid: every cell plus one uncompressed baseline
        // per distinct cache geometry.
        let geometries: BTreeSet<_> = expected
            .iter()
            .map(|r| {
                (self.images[r.cell.image].block_size, r.cell.cache_size, r.cell.associativity)
            })
            .collect();
        let simulations = (expected.len() + geometries.len()) as f64;
        let fetches = run.count as f64 * simulations * self.inputs.trace.len() as f64;
        out.insert("sim_ns_per_fetch", per(run.total_ns as f64, fetches));
    }
}
