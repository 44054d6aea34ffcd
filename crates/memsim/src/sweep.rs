//! Parallel design-space sweep over the memory-system grid.
//!
//! A sweep expands a configuration grid — compressed image (codec ×
//! block size) × cache size × associativity × CLB entries × decoder —
//! into cells and simulates every cell over one shared fetch trace.
//! The expensive inputs are built exactly once and shared immutably:
//! each [`SweepImage`] carries its [`LineAddressTable`] behind an
//! [`Arc`], the trace is decoded once by the caller, and uncompressed
//! baselines are simulated once per distinct cache geometry rather than
//! once per cell.
//!
//! Cells run through [`cce_codec::parallel_map`], whose results
//! come back in item order regardless of worker count or scheduling —
//! and every cell simulates a fresh [`MemorySystem`] from a shared
//! immutable image, so a sweep's output is deterministic and
//! worker-count invariant by construction.  `scripts/ci.sh` pins this:
//! the `cce sweep` artifact carries no timing and must be byte-identical
//! across `--workers 1/2/8`.

use crate::cache::CacheConfig;
use crate::lat::LineAddressTable;
use crate::system::{CostModel, DecoderLatency, MemorySystem, SimReport};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One compressed program image — a (codec, block size) grid point,
/// built exactly once and shared across every cell that uses it.
#[derive(Debug, Clone)]
pub struct SweepImage {
    /// Codec name (e.g. `"SAMC"`).
    pub codec: String,
    /// Uncompressed block size in bytes.
    pub block_size: usize,
    /// The image's line address table, shared by reference.
    pub lat: Arc<LineAddressTable>,
    /// Total compressed bytes (blocks only; for ratio reporting).
    pub compressed_bytes: u64,
    /// Uncompressed program bytes.
    pub text_bytes: u64,
}

/// A named decoder-latency grid axis value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDecoder {
    /// Display name (e.g. `"nibble"`, `"rans4"`).
    pub name: String,
    /// The refill-path timing this decoder contributes.
    pub latency: DecoderLatency,
}

/// The sweep grid: per-image axes plus the fixed memory-path costs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Cache capacities in bytes.
    pub cache_sizes: Vec<usize>,
    /// Cache ways per set.
    pub associativities: Vec<usize>,
    /// CLB capacities in lines.
    pub clb_entries: Vec<usize>,
    /// Decompression-engine latencies.
    pub decoders: Vec<SweepDecoder>,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
    /// Bus bytes per cycle.
    pub bus_bytes_per_cycle: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        let base = CostModel::default();
        Self {
            cache_sizes: vec![1024, 2048, 4096],
            associativities: vec![1, 2, 4],
            clb_entries: vec![8, 32],
            decoders: vec![
                SweepDecoder { name: "nibble".into(), latency: DecoderLatency::nibble() },
                SweepDecoder { name: "rans4".into(), latency: DecoderLatency::rans(4) },
            ],
            memory_latency: base.memory_latency,
            bus_bytes_per_cycle: base.bus_bytes_per_cycle,
        }
    }
}

impl SweepConfig {
    /// Expands the grid against `images` into cells, in the fixed
    /// nesting order image → cache size → associativity → CLB entries →
    /// decoder.  Cells whose cache geometry is impossible (capacity not
    /// divisible, set count or block size not a power of two) are
    /// skipped rather than simulated — the grid axes are free-form, the
    /// cache model is not.
    pub fn expand(&self, images: &[SweepImage]) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for (image, spec) in images.iter().enumerate() {
            for &cache_size in &self.cache_sizes {
                for &associativity in &self.associativities {
                    let config = CacheConfig {
                        size_bytes: cache_size,
                        block_size: spec.block_size,
                        associativity,
                    };
                    if !config.is_valid() {
                        continue;
                    }
                    for &clb in &self.clb_entries {
                        for decoder in 0..self.decoders.len() {
                            cells.push(SweepCell {
                                image,
                                cache_size,
                                associativity,
                                clb_entries: clb,
                                decoder,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// The cost model a given decoder axis value induces.
    fn costs(&self, decoder: usize) -> CostModel {
        CostModel {
            memory_latency: self.memory_latency,
            bus_bytes_per_cycle: self.bus_bytes_per_cycle,
            decoder: self.decoders[decoder].latency,
        }
    }
}

/// One grid cell: indices into the image/decoder axes plus the concrete
/// cache/CLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Index into the sweep's `images`.
    pub image: usize,
    /// Cache capacity in bytes.
    pub cache_size: usize,
    /// Cache ways per set.
    pub associativity: usize,
    /// CLB capacity in lines.
    pub clb_entries: usize,
    /// Index into [`SweepConfig::decoders`].
    pub decoder: usize,
}

/// A simulated cell with its uncompressed baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResult {
    /// The cell that was simulated.
    pub cell: SweepCell,
    /// The compressed system's report.
    pub report: SimReport,
    /// The uncompressed baseline at the same cache geometry (shared by
    /// every cell with that geometry; decoder-independent).
    pub baseline: SimReport,
}

impl CellResult {
    /// Slowdown of the compressed cell vs its uncompressed baseline.
    pub fn slowdown(&self) -> f64 {
        self.report.slowdown_vs(&self.baseline)
    }
}

/// Runs the full sweep: expands the grid, simulates each distinct
/// uncompressed baseline geometry once, then fans the cells across
/// `workers` threads.  Results come back in [`SweepConfig::expand`]
/// order for any worker count.
///
/// Records `sweep.cells` (cells simulated), `sweep.reuse.images`
/// (cells beyond the first use of each image — the builds the sharing
/// policy avoided), and `sweep.span` (wall time) obs metrics.
///
/// # Panics
///
/// Panics if a cell references an out-of-range image or decoder index
/// (impossible for cells produced by [`SweepConfig::expand`]).
pub fn run_sweep(
    images: &[SweepImage],
    config: &SweepConfig,
    trace: &[u64],
    workers: usize,
) -> Vec<CellResult> {
    let _span = crate::obs::SWEEP_SPAN.time();
    let cells = config.expand(images);

    // Uncompressed baselines depend only on the cache geometry, never on
    // the codec or decoder: simulate each distinct geometry exactly once.
    let geometries: Vec<(usize, usize, usize)> = {
        let set: std::collections::BTreeSet<_> = cells
            .iter()
            .map(|c| (images[c.image].block_size, c.cache_size, c.associativity))
            .collect();
        set.into_iter().collect()
    };
    let baseline_costs = CostModel {
        memory_latency: config.memory_latency,
        bus_bytes_per_cycle: config.bus_bytes_per_cycle,
        decoder: DecoderLatency::default(),
    };
    let baseline_reports = cce_codec::parallel_map(
        workers,
        &geometries,
        |_, &(block_size, size_bytes, associativity)| {
            let cache = CacheConfig { size_bytes, block_size, associativity };
            MemorySystem::uncompressed(cache, baseline_costs).run(trace)
        },
    );
    let baselines: BTreeMap<(usize, usize, usize), SimReport> =
        geometries.into_iter().zip(baseline_reports).collect();

    let results = cce_codec::parallel_map(workers, &cells, |_, cell| {
        let image = &images[cell.image];
        let cache = CacheConfig {
            size_bytes: cell.cache_size,
            block_size: image.block_size,
            associativity: cell.associativity,
        };
        let mut system = MemorySystem::compressed(
            cache,
            config.costs(cell.decoder),
            Arc::clone(&image.lat),
            cell.clb_entries,
        );
        let report = system.run(trace);
        let baseline = baselines[&(image.block_size, cell.cache_size, cell.associativity)];
        CellResult { cell: *cell, report, baseline }
    });

    crate::obs::SWEEP_CELLS.add(results.len() as u64);
    crate::obs::SWEEP_IMAGE_REUSE.add(results.len().saturating_sub(images.len()) as u64);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(block_size: usize, blocks: usize, compressed_block: usize) -> SweepImage {
        SweepImage {
            codec: "test".into(),
            block_size,
            lat: Arc::new(LineAddressTable::from_block_sizes(vec![compressed_block; blocks])),
            compressed_bytes: (blocks * compressed_block) as u64,
            text_bytes: (blocks * block_size) as u64,
        }
    }

    fn trace(n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| if i % 40 == 0 { ((i * 544) % 32768) as u64 } else { ((i % 48) * 4) as u64 })
            .collect()
    }

    #[test]
    fn expansion_order_is_fixed_and_invalid_cells_are_skipped() {
        let config = SweepConfig {
            cache_sizes: vec![1024, 1000], // 1000 is not a valid geometry
            associativities: vec![1],
            clb_entries: vec![8],
            ..SweepConfig::default()
        };
        let images = [image(32, 64, 18)];
        let cells = config.expand(&images);
        // 1 image × 1 valid cache × 1 assoc × 1 clb × 2 decoders.
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.cache_size == 1024));
        assert_eq!((cells[0].decoder, cells[1].decoder), (0, 1));
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let images = [image(32, 512, 18), image(64, 256, 40)];
        let config = SweepConfig::default();
        let trace = trace(20_000);
        let one = run_sweep(&images, &config, &trace, 1);
        for workers in [2, 8] {
            assert_eq!(run_sweep(&images, &config, &trace, workers), one);
        }
        assert!(!one.is_empty());
    }

    #[test]
    fn baselines_are_shared_per_geometry_and_decoder_independent() {
        let images = [image(32, 512, 18)];
        let config = SweepConfig::default();
        let trace = trace(10_000);
        let results = run_sweep(&images, &config, &trace, 2);
        for pair in results.chunks(2) {
            // Adjacent cells differ only in decoder: same baseline.
            assert_eq!(pair[0].baseline, pair[1].baseline);
            // A slower decoder can never speed the compressed system up.
            assert!(pair[0].slowdown() >= 1.0);
        }
    }

    #[test]
    fn lat_is_shared_not_cloned() {
        let images = [image(32, 128, 18)];
        let before = Arc::strong_count(&images[0].lat);
        let _ = run_sweep(&images, &SweepConfig::default(), &trace(2_000), 4);
        assert_eq!(Arc::strong_count(&images[0].lat), before, "sweep must not retain the LAT");
    }
}
