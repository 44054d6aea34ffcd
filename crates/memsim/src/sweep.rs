//! Parallel design-space sweep over the memory-system grid.
//!
//! A sweep expands a configuration grid — compressed image (codec ×
//! block size) × cache size × associativity × CLB entries × decoder —
//! into cells and simulates every cell over one shared fetch trace.
//! In the Fig. 1 system the CLB, the LAT and the decoder sit only on the
//! I-cache miss path, so which fetches miss depends on the cache
//! geometry alone; and the I-cache and the CLB are both true LRU, so one
//! LRU-stack walk gives the misses of every capacity at once (Mattson et
//! al., *Evaluation techniques for storage hierarchies*, 1970).
//! [`run_sweep`] exploits both in four steps:
//!
//! 1. **Transitions, once per block size.** The trace collapses into its
//!    block-transition list: a fetch to the block of the fetch before it
//!    is a guaranteed hit on the most recently used way, and re-stamping
//!    that way cannot change any later LRU victim, so dropping it changes
//!    no miss.  Block sizes are powers of two and nest, so each size's
//!    list is collapsed from the next finer size's list.
//! 2. **One cache pass per (block size, set count).** Each set keeps its
//!    blocks in recency order, as deep as the group's largest
//!    associativity.  A fetch found at stack depth `d` misses in an
//!    `A`-way cache iff `d >= A` (a block not found misses in all), so
//!    one walk fills the ordered miss list of every associativity.
//! 3. **One CLB pass per (geometry, LAT length).** The miss list, mapped
//!    to LAT lines (block indices past the table wrap), runs through one
//!    fully associative stack as deep as the largest CLB, which counts
//!    the CLB misses of every CLB capacity.  The transfer cycles of each
//!    image's compressed blocks are summed over the same list.
//! 4. **Cells priced from counts.** A cell's refill cycles are its cache
//!    misses, CLB misses and transfer sum priced by the one refill
//!    formula ([`MemorySystem::run`](crate::MemorySystem::run) prices
//!    misses one at a time with it); the baseline prices the cache
//!    misses at the uncompressed refill.
//!
//! Every quantity is an integer count or the per-block decompression
//! time hoisted the same way, so each cell's [`SimReport`] equals a full
//! simulation of it exactly (pinned by `tests/differential.rs`).  Images,
//! with their LATs behind an [`Arc`], and the trace are shared
//! immutably.
//!
//! The passes of steps 2 and 3 run through [`cce_codec::parallel_map`],
//! whose results come back in item order regardless of worker count or
//! scheduling, so a sweep's output is deterministic and worker-count
//! invariant by construction.  `scripts/ci.sh` pins this: the `cce sweep`
//! artifact carries no timing and must be byte-identical across
//! `--workers 1/2/8`, and the default grid must reproduce the committed
//! `BENCH_memsim.json`.
//!
//! [`render_artifact`] writes that artifact (`BENCH_memsim.json`): the
//! workload and grid, one entry per image and per cell, and a summary
//! with each decoder's mean CPF and the arith-vs-rANS delta.

use crate::cache::{CacheConfig, CacheStats};
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
    /// divisible, set count or block size not a power of two) or whose
    /// CLB has no entries are skipped rather than simulated — the grid
    /// axes are free-form, the memory-system model is not.
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
                    for &clb in self.clb_entries.iter().filter(|&&clb| clb > 0) {
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

/// One cache geometry as the sweep groups it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Geometry {
    block_size: usize,
    sets: usize,
    associativity: usize,
}

/// The counts every cell of one [`Geometry`] is priced from.
struct MissCounts {
    /// I-cache misses over the whole trace.
    misses: u64,
    /// CLB misses by LAT length (wrap modulus), then by CLB capacity in
    /// ascending order.
    clb_misses: BTreeMap<usize, Vec<u64>>,
    /// Transfer cycles of the missed compressed blocks, by image index.
    transfer: BTreeMap<usize, u64>,
}

/// The block-transition list of `trace` at each of `block_sizes` (powers
/// of two): the block index of the first fetch of every run of
/// consecutive fetches to one block.  Each list is collapsed from the
/// next finer size's, which is exact because power-of-two blocks nest.
fn block_transitions(
    trace: &[u64],
    block_sizes: impl IntoIterator<Item = usize>,
) -> BTreeMap<usize, Vec<u64>> {
    let mut lists: Vec<(usize, Vec<u64>)> = Vec::new();
    for block_size in block_sizes.into_iter().collect::<BTreeSet<_>>() {
        let (finer, finer_shift) = lists
            .last()
            .map_or((trace, 0), |(size, list)| (list.as_slice(), size.trailing_zeros()));
        let shift = block_size.trailing_zeros() - finer_shift;
        let list = finer.chunk_by(|a, b| a >> shift == b >> shift).map(|run| run[0] >> shift);
        lists.push((block_size, list.collect()));
    }
    lists.into_iter().collect()
}

/// Moves `key` to the front of the LRU stack `stack[..*held]` (most
/// recent first), growing it up to `stack.len()` entries; returns the
/// depth `key` was found at, or `stack.len()` if it was not held.
#[inline]
fn stack_access<T: Copy + PartialEq>(stack: &mut [T], held: &mut usize, key: T) -> usize {
    // One walk both finds `key` and shifts every more recent entry down
    // a place: each slot takes the entry above it.
    let mut carried = key;
    for (depth, slot) in stack[..*held].iter_mut().enumerate() {
        std::mem::swap(slot, &mut carried);
        if carried == key {
            return depth;
        }
    }
    // Not held: `carried` is the old least recent entry, kept if the
    // stack has room.
    if *held < stack.len() {
        stack[*held] = carried;
        *held += 1;
    }
    stack.len()
}

/// One LRU-stack pass of a block-transition list through a cache of
/// `sets` sets: the ordered miss list (block indices) of each of
/// `associativities` (ascending).
fn cache_misses(blocks: &[u64], sets: usize, associativities: &[usize]) -> Vec<Vec<usize>> {
    let depth = associativities[associativities.len() - 1];
    let set_mask = (sets - 1) as u64;
    let mut stacks = vec![0u64; sets * depth];
    let mut held = vec![0usize; sets];
    let mut misses = vec![Vec::new(); associativities.len()];
    for &block in blocks {
        let set = (block & set_mask) as usize;
        let stack = &mut stacks[set * depth..(set + 1) * depth];
        let distance = stack_access(stack, &mut held[set], block);
        for (&ways, list) in associativities.iter().zip(&mut misses) {
            if distance < ways {
                break;
            }
            list.push(block as usize);
        }
    }
    misses
}

/// One fully associative LRU-stack pass of a miss list through the CLB's
/// lines, block indices wrapping at `lat_len`: the CLB misses at each of
/// `capacities` (ascending).
fn clb_misses(misses: &[usize], lat_len: usize, capacities: &[usize]) -> Vec<u64> {
    let coverage_shift = Clb::LINE_COVERAGE.trailing_zeros();
    let mut stack = vec![0usize; capacities[capacities.len() - 1]];
    let mut held = 0;
    let mut counts = vec![0u64; capacities.len()];
    for &block in misses {
        let distance = stack_access(&mut stack, &mut held, (block % lat_len) >> coverage_shift);
        for (&capacity, count) in capacities.iter().zip(&mut counts) {
            if distance < capacity {
                break;
            }
            *count += 1;
        }
    }
    counts
}

/// A report of `fetches` fetches with `misses` cache misses, `clb`
/// traffic and `refill_cycles` (one cycle per fetch plus the refills),
/// whose traffic is flushed into the global metrics as a full simulation
/// would.
fn report(fetches: u64, misses: u64, clb: HitMiss, refill_cycles: u64) -> SimReport {
    let cache = CacheStats { hits: fetches - misses, misses };
    crate::obs::record_run(cache, clb, refill_cycles);
    SimReport {
        fetches,
        cache,
        clb_hits: clb.hits,
        clb_misses: clb.misses,
        cycles: fetches + refill_cycles,
        refill_cycles,
    }
}

/// Runs the full sweep: expands the grid, collapses the trace into one
/// block-transition list per block size, runs one cache stack pass per
/// (block size, set count) and one CLB stack pass per (geometry, LAT
/// length), then prices every cell and each geometry's uncompressed
/// baseline from the counts.  The passes fan out across `workers`
/// threads; results come back in [`SweepConfig::expand`] order for any
/// worker count, and each equals a standalone
/// [`MemorySystem::run`](crate::MemorySystem::run) of its cell.
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
    let geometry = |cell: &SweepCell| {
        let block_size = images[cell.image].block_size;
        let cache = CacheConfig {
            size_bytes: cell.cache_size,
            block_size,
            associativity: cell.associativity,
        };
        Geometry { block_size, sets: cache.sets(), associativity: cell.associativity }
    };

    // Which fetches miss depends only on the cache geometry, never on
    // the codec, CLB or decoder; one stack pass per (block size, set
    // count) serves every associativity, and one CLB pass per LAT length
    // every CLB capacity.
    let mut groups: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
    for cell in &cells {
        let g = geometry(cell);
        groups.entry((g.block_size, g.sets)).or_default().insert(g.associativity);
    }
    let groups: Vec<((usize, usize), Vec<usize>)> =
        groups.into_iter().map(|(key, ways)| (key, ways.into_iter().collect())).collect();
    let capacities: Vec<usize> =
        cells.iter().map(|c| c.clb_entries).collect::<BTreeSet<_>>().into_iter().collect();
    let transitions =
        block_transitions(trace, groups.iter().map(|&((block_size, _), _)| block_size));
    let baseline_costs = CostModel {
        memory_latency: config.memory_latency,
        bus_bytes_per_cycle: config.bus_bytes_per_cycle,
        decoder: DecoderLatency::default(),
    };
    let passes = cce_codec::parallel_map(workers, &groups, |_, ((block_size, sets), ways)| {
        let cost = RefillCost::new(&baseline_costs, *block_size);
        let images: Vec<(usize, &SweepImage)> = images
            .iter()
            .enumerate()
            .filter(|(_, image)| image.block_size == *block_size)
            .collect();
        let lat_lens: BTreeSet<usize> =
            images.iter().map(|(_, image)| image.lat.len().max(1)).collect();
        let per_ways = cache_misses(&transitions[block_size], *sets, ways);
        per_ways
            .into_iter()
            .map(|misses| MissCounts {
                misses: misses.len() as u64,
                clb_misses: lat_lens
                    .iter()
                    .map(|&lat_len| (lat_len, clb_misses(&misses, lat_len, &capacities)))
                    .collect(),
                transfer: images
                    .iter()
                    .map(|&(index, image)| {
                        let lat_len = image.lat.len().max(1);
                        let cycles = misses
                            .iter()
                            .map(|&block| cost.transfer(image.lat.lookup(block % lat_len).1))
                            .sum();
                        (index, cycles)
                    })
                    .collect(),
            })
            .collect::<Vec<_>>()
    });
    let counts: BTreeMap<Geometry, MissCounts> = groups
        .iter()
        .zip(passes)
        .flat_map(|(&((block_size, sets), ref ways), per_ways)| {
            ways.iter().zip(per_ways).map(move |(&associativity, counts)| {
                (Geometry { block_size, sets, associativity }, counts)
            })
        })
        .collect();

    let baselines: BTreeMap<Geometry, SimReport> = counts
        .iter()
        .map(|(g, counts)| {
            let refill =
                counts.misses * RefillCost::new(&baseline_costs, g.block_size).uncompressed();
            (*g, report(fetches, counts.misses, HitMiss::new(), refill))
        })
        .collect();
    let results: Vec<CellResult> = cells
        .iter()
        .map(|cell| {
            let g = geometry(cell);
            let counts = &counts[&g];
            let image = &images[cell.image];
            let capacity = capacities.binary_search(&cell.clb_entries).expect("capacity of a cell");
            let clb_misses = counts.clb_misses[&image.lat.len().max(1)][capacity];
            let clb = HitMiss { hits: counts.misses - clb_misses, misses: clb_misses };
            let cost = RefillCost::new(&config.costs(cell.decoder), image.block_size);
            let refill =
                cost.compressed_refills(counts.misses, clb_misses, counts.transfer[&cell.image]);
            CellResult {
                cell: *cell,
                report: report(fetches, counts.misses, clb, refill),
                baseline: baselines[&g],
            }
        })
        .collect();

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
    fn zero_entry_clb_cells_are_skipped() {
        let config = SweepConfig { clb_entries: vec![0, 8, 0], ..SweepConfig::default() };
        let images = [image(32, 512, 18)];
        let cells = config.expand(&images);
        assert!(!cells.is_empty());
        assert!(cells.iter().all(|c| c.clb_entries == 8));
        // The zero-entry values expand to nothing, so the sweep runs.
        let eight = SweepConfig { clb_entries: vec![8], ..SweepConfig::default() };
        assert_eq!(
            run_sweep(&images, &config, &trace(5_000), 2),
            run_sweep(&images, &eight, &trace(5_000), 2)
        );
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
