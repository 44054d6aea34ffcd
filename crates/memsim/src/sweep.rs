//! Parallel design-space sweep over the memory-system grid.
//!
//! A sweep expands a configuration grid — compressed image (codec ×
//! block size) × cache size × associativity × CLB entries × decoder —
//! into cells and simulates every cell over one shared fetch trace.
//! In the Fig. 1 system the CLB, the LAT and the decoder sit only on the
//! I-cache miss path, so which fetches miss depends on the cache
//! geometry alone.  [`run_sweep`] exploits that in three steps:
//!
//! 1. **Transitions, once per block size.** The trace collapses into its
//!    block-transition list: a fetch to the block of the fetch before it
//!    is a guaranteed hit on the most recently used way, and re-stamping
//!    that way cannot change any later LRU victim, so dropping it changes
//!    no miss.
//! 2. **One cache pass per geometry.** Each distinct (block size, cache
//!    size, associativity) runs once over its transition list, recording
//!    its cache stats and the ordered block indices of its misses.  That
//!    pass, priced at the uncompressed refill, is also the cell's
//!    baseline.
//! 3. **Pricing per cell.** Each cell walks its geometry's miss list
//!    (about 1% of fetches) through a fresh [`Clb`] and its image's
//!    [`LineAddressTable`] at the cell decoder's costs.
//!
//! Every quantity is an integer count or the per-block decompression
//! time [`MemorySystem::run`](crate::MemorySystem::run) hoists the same
//! way, so each cell's [`SimReport`] equals a full simulation of it exactly
//! (pinned by `tests/differential.rs`).  Images, with their LATs behind
//! an [`Arc`], and the trace are shared immutably.
//!
//! Both passes run through [`cce_codec::parallel_map`], whose results
//! come back in item order regardless of worker count or scheduling, so
//! a sweep's output is deterministic and worker-count invariant by
//! construction.  `scripts/ci.sh` pins this: the `cce sweep` artifact
//! carries no timing and must be byte-identical across `--workers
//! 1/2/8`, and the default grid must reproduce the committed
//! `BENCH_memsim.json`.
//!
//! [`render_artifact`] writes that artifact (`BENCH_memsim.json`): the
//! workload and grid, one entry per image and per cell, and a summary
//! with each decoder's mean CPF and the arith-vs-rANS delta.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::clb::Clb;
use crate::lat::LineAddressTable;
use crate::system::{CostModel, DecoderLatency, RefillCost, SimReport};
use cce_obs::{HitMiss, JsonWriter};
use std::collections::{BTreeMap, BTreeSet};
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

/// One cache geometry's misses over a trace: the shared first half of
/// every cell with that geometry.
struct MissStream {
    fetches: u64,
    cache: CacheStats,
    /// Block index of every miss, in trace order.
    misses: Vec<usize>,
}

impl MissStream {
    /// Runs `geometry` over `transitions`, the block-transition list of
    /// a `fetches`-long trace (see [`block_transitions`]).  Every dropped
    /// fetch is a hit.
    fn simulate(geometry: CacheConfig, transitions: &[u64], fetches: u64) -> Self {
        let block_shift = geometry.block_size.trailing_zeros();
        let mut cache = Cache::new(geometry);
        let misses: Vec<usize> = transitions
            .iter()
            .filter(|&&addr| !cache.access(addr))
            .map(|&addr| (addr >> block_shift) as usize)
            .collect();
        let missed = misses.len() as u64;
        Self { fetches, cache: CacheStats { hits: fetches - missed, misses: missed }, misses }
    }

    /// The uncompressed system's report: every miss refills a plain block.
    fn baseline(&self, cost: RefillCost) -> SimReport {
        self.report(HitMiss::new(), self.misses.len() as u64 * cost.uncompressed())
    }

    /// A compressed cell's report: every miss refills through `lat`
    /// behind a fresh CLB of `clb_entries`.
    fn price(&self, lat: &LineAddressTable, clb_entries: usize, cost: RefillCost) -> SimReport {
        let mut clb = Clb::new(clb_entries);
        let refill_cycles =
            self.misses.iter().map(|&block| cost.compressed(lat, &mut clb, block)).sum();
        self.report(clb.stats(), refill_cycles)
    }

    /// Assembles a report (one cycle per fetch plus the refills) and
    /// flushes its traffic into the global metrics, as a full
    /// simulation would.
    fn report(&self, clb: HitMiss, refill_cycles: u64) -> SimReport {
        crate::obs::record_run(self.cache, clb, refill_cycles);
        SimReport {
            fetches: self.fetches,
            cache: self.cache,
            clb_hits: clb.hits,
            clb_misses: clb.misses,
            cycles: self.fetches + refill_cycles,
            refill_cycles,
        }
    }
}

/// The first fetch of every run of consecutive fetches to one
/// `block_size` block of `trace`.
fn block_transitions(trace: &[u64], block_size: usize) -> Vec<u64> {
    let block_shift = block_size.trailing_zeros();
    trace.chunk_by(|a, b| a >> block_shift == b >> block_shift).map(|run| run[0]).collect()
}

/// Runs the full sweep: expands the grid, collapses the trace into one
/// block-transition list per block size, runs each distinct cache
/// geometry once over its list (its miss list and stats also give the
/// uncompressed baseline), then prices every cell on its geometry's miss
/// list.  Both passes fan out across `workers` threads; results come
/// back in [`SweepConfig::expand`] order for any worker count, and each
/// equals a standalone [`MemorySystem::run`](crate::MemorySystem::run)
/// of its cell.
///
/// Records `sweep.cells` (cells simulated), `sweep.reuse.images`
/// (cells beyond the first use of each image — the builds the sharing
/// policy avoided), and `sweep.span` (wall time) obs metrics, and
/// flushes each baseline's and each cell's cache, CLB and refill traffic
/// into the `memsim.*` counters once.
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
    let fetches = trace.len() as u64;

    // Which fetches miss depends only on the cache geometry, never on
    // the codec, CLB or decoder: simulate each distinct geometry once.
    let geometries: Vec<(usize, usize, usize)> = cells
        .iter()
        .map(|c| (images[c.image].block_size, c.cache_size, c.associativity))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut transitions = BTreeMap::new();
    for &(block_size, ..) in &geometries {
        transitions.entry(block_size).or_insert_with(|| block_transitions(trace, block_size));
    }
    let baseline_costs = CostModel {
        memory_latency: config.memory_latency,
        bus_bytes_per_cycle: config.bus_bytes_per_cycle,
        decoder: DecoderLatency::default(),
    };
    let passes = cce_codec::parallel_map(
        workers,
        &geometries,
        |_, &(block_size, size_bytes, associativity)| {
            let geometry = CacheConfig { size_bytes, block_size, associativity };
            let stream = MissStream::simulate(geometry, &transitions[&block_size], fetches);
            let baseline = stream.baseline(RefillCost::new(&baseline_costs, block_size));
            (stream, baseline)
        },
    );
    let passes: BTreeMap<_, _> = geometries.into_iter().zip(passes).collect();

    let results = cce_codec::parallel_map(workers, &cells, |_, cell| {
        let image = &images[cell.image];
        let (stream, baseline) = &passes[&(image.block_size, cell.cache_size, cell.associativity)];
        let cost = RefillCost::new(&config.costs(cell.decoder), image.block_size);
        let report = stream.price(&image.lat, cell.clb_entries, cost);
        CellResult { cell: *cell, report, baseline: *baseline }
    });

    crate::obs::SWEEP_CELLS.add(results.len() as u64);
    crate::obs::SWEEP_IMAGE_REUSE.add(results.len().saturating_sub(images.len()) as u64);
    results
}

/// The workload a sweep's images were built from, as its artifact
/// records it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepWorkload {
    /// Workload profile name (e.g. `"go"`).
    pub profile: String,
    /// Workload scale.
    pub scale: f64,
    /// Workload and trace seed.
    pub seed: u64,
    /// Codec axis, in grid order.
    pub codecs: Vec<String>,
    /// Block-size axis, in grid order.
    pub block_sizes: Vec<usize>,
}

/// Mean CPF of the cells run under each of `config`'s decoders, in
/// decoder order, with the number of cells averaged.
fn decoder_mean_cpf(config: &SweepConfig, results: &[CellResult]) -> Vec<(usize, f64)> {
    (0..config.decoders.len())
        .map(|decoder| {
            let cpfs: Vec<f64> = results
                .iter()
                .filter(|r| r.cell.decoder == decoder)
                .map(|r| r.report.cpf())
                .collect();
            (cpfs.len(), cpfs.iter().sum::<f64>() / cpfs.len().max(1) as f64)
        })
        .collect()
}

/// The arith-vs-rANS refill-latency delta: the `nibble` decoder's mean
/// CPF minus the first `rans*` decoder's (`nibble` models the paper's
/// serial engine, so a positive delta means the rANS engine is faster
/// end to end).  `None` unless the grid has both.
pub fn arith_rans_delta(config: &SweepConfig, results: &[CellResult]) -> Option<f64> {
    let means = decoder_mean_cpf(config, results);
    let nibble = config.decoders.iter().position(|d| d.name == "nibble")?;
    let rans = config.decoders.iter().position(|d| d.name.starts_with("rans"))?;
    Some(means[nibble].1 - means[rans].1)
}

/// Renders the versioned sweep artifact (`BENCH_memsim.json`, without a
/// final newline) for `results` of [`run_sweep`] over `images` and
/// `config` with a `fetches`-long trace.  Ratios and CPFs carry six
/// decimals; the artifact holds no wall-clock numbers.
pub fn render_artifact(
    workload: &SweepWorkload,
    images: &[SweepImage],
    config: &SweepConfig,
    fetches: usize,
    results: &[CellResult],
) -> String {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("version").int(1).key("benchmark").string("memsim-sweep");
        w.key("profile").string(&workload.profile).key("scale").number(workload.scale);
        w.key("seed").int(workload.seed).key("fetches").int(fetches);
        w.key("grid").object(|w| {
            w.key("algos").strings(&workload.codecs).key("blocks").ints(&workload.block_sizes);
            w.key("caches").ints(&config.cache_sizes).key("assoc").ints(&config.associativities);
            w.key("clb").ints(&config.clb_entries);
            w.key("decoders").strings(config.decoders.iter().map(|d| &d.name));
            w.key("memory_latency").int(config.memory_latency);
            w.key("bus_bytes_per_cycle").int(config.bus_bytes_per_cycle);
        });
        w.key("images").array(|w| {
            for image in images {
                w.object(|w| {
                    w.key("codec").string(&image.codec).key("block_size").int(image.block_size);
                    w.key("blocks").int(image.lat.len());
                    w.key("compressed_bytes").int(image.compressed_bytes);
                    let ratio = image.compressed_bytes as f64 / image.text_bytes as f64;
                    w.key("text_bytes").int(image.text_bytes).key("ratio").fixed(ratio, 6);
                    w.key("lat_bytes").int(image.lat.table_bytes());
                });
            }
        });
        w.key("cells").array(|w| {
            for r in results {
                let image = &images[r.cell.image];
                let clb_total = (r.report.clb_hits + r.report.clb_misses).max(1);
                w.object(|w| {
                    w.key("codec").string(&image.codec).key("block_size").int(image.block_size);
                    w.key("cache").int(r.cell.cache_size).key("assoc").int(r.cell.associativity);
                    w.key("clb").int(r.cell.clb_entries);
                    w.key("decoder").string(&config.decoders[r.cell.decoder].name);
                    w.key("cpf").fixed(r.report.cpf(), 6);
                    w.key("baseline_cpf").fixed(r.baseline.cpf(), 6);
                    w.key("slowdown").fixed(r.slowdown(), 6);
                    w.key("cache_hit_ratio").fixed(r.report.cache.hit_ratio(), 6);
                    w.key("clb_hit_ratio").fixed(r.report.clb_hits as f64 / clb_total as f64, 6);
                    w.key("refill_cycles").int(r.report.refill_cycles);
                });
            }
        });
        w.key("summary").object(|w| {
            w.key("cells").int(results.len()).key("images").int(images.len());
            w.key("decoder_mean_cpf").array(|w| {
                for (decoder, (cells, mean)) in
                    config.decoders.iter().zip(decoder_mean_cpf(config, results))
                {
                    w.object(|w| {
                        w.key("decoder").string(&decoder.name).key("cells").int(cells);
                        w.key("mean_cpf").fixed(mean, 6);
                    });
                }
            });
            // No delta without both decoders: NaN writes `null`.
            let delta = arith_rans_delta(config, results).unwrap_or(f64::NAN);
            w.key("arith_rans_delta").fixed(delta, 6);
        });
    });
    w.finish()
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
    fn artifact_bytes_are_pinned() {
        let images = [image(32, 64, 18), image(16, 128, 10)];
        let config = SweepConfig {
            cache_sizes: vec![1024],
            associativities: vec![2],
            clb_entries: vec![8],
            ..SweepConfig::default()
        };
        let workload = SweepWorkload {
            profile: "go".into(),
            scale: 0.5,
            seed: 7,
            codecs: vec!["test".into()],
            block_sizes: vec![32, 16],
        };
        let results = run_sweep(&images, &config, &trace(2_000), 1);
        let json = render_artifact(&workload, &images, &config, 2_000, &results);
        let expected = concat!(
            r#"{"version":1,"benchmark":"memsim-sweep","profile":"go","scale":0.5,"seed":7,"#,
            r#""fetches":2000,"grid":{"algos":["test"],"blocks":[32,16],"caches":[1024],"#,
            r#""assoc":[2],"clb":[8],"decoders":["nibble","rans4"],"memory_latency":20,"#,
            r#""bus_bytes_per_cycle":4},"images":[{"codec":"test","block_size":32,"blocks":64,"#,
            r#""compressed_bytes":1152,"text_bytes":2048,"ratio":0.562500,"lat_bytes":88},"#,
            r#"{"codec":"test","block_size":16,"blocks":128,"compressed_bytes":1280,"#,
            r#""text_bytes":2048,"ratio":0.625000,"lat_bytes":176}],"cells":[{"codec":"test","#,
            r#""block_size":32,"cache":1024,"assoc":2,"clb":8,"decoder":"nibble","cpf":3.487500,"#,
            r#""baseline_cpf":1.770000,"slowdown":1.970339,"cache_hit_ratio":0.972500,"#,
            r#""clb_hit_ratio":0.927273,"refill_cycles":4975},{"codec":"test","block_size":32,"#,
            r#""cache":1024,"assoc":2,"clb":8,"decoder":"rans4","cpf":3.625000,"#,
            r#""baseline_cpf":1.770000,"slowdown":2.048023,"cache_hit_ratio":0.972500,"#,
            r#""clb_hit_ratio":0.927273,"refill_cycles":5250},{"codec":"test","block_size":16,"#,
            r#""cache":1024,"assoc":2,"clb":8,"decoder":"nibble","cpf":2.757500,"#,
            r#""baseline_cpf":1.732000,"slowdown":1.592090,"cache_hit_ratio":0.969500,"#,
            r#""clb_hit_ratio":0.868852,"refill_cycles":3515},{"codec":"test","block_size":16,"#,
            r#""cache":1024,"assoc":2,"clb":8,"decoder":"rans4","cpf":2.910000,"#,
            r#""baseline_cpf":1.732000,"slowdown":1.680139,"cache_hit_ratio":0.969500,"#,
            r#""clb_hit_ratio":0.868852,"refill_cycles":3820}],"summary":{"cells":4,"images":2,"#,
            r#""decoder_mean_cpf":[{"decoder":"nibble","cells":2,"mean_cpf":3.122500},"#,
            r#"{"decoder":"rans4","cells":2,"mean_cpf":3.267500}],"arith_rans_delta":-0.145000}}"#,
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn lat_is_shared_not_cloned() {
        let images = [image(32, 128, 18)];
        let before = Arc::strong_count(&images[0].lat);
        let _ = run_sweep(&images, &SweepConfig::default(), &trace(2_000), 4);
        assert_eq!(Arc::strong_count(&images[0].lat), before, "sweep must not retain the LAT");
    }
}
