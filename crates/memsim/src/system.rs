//! End-to-end memory-system timing model.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::clb::Clb;
use crate::lat::LineAddressTable;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A block decompressor the refill engine can drive, for *functional*
/// co-simulation: the simulated machine really reads its instructions out
/// of compressed memory on every miss.
///
/// Implemented by adapters over the SAMC/SADC codecs (see the
/// `memory_system` integration tests and the `cce-core` examples).
pub trait RefillDecompressor {
    /// Decompresses block `index` from its stored bytes into `out_len`
    /// uncompressed bytes, or `None` on failure (a corrupt image).
    fn refill(&self, index: usize, out_len: usize) -> Option<Vec<u8>>;

    /// Decompresses block `index` into `out` (cleared first), avoiding
    /// the per-refill `Vec` of [`RefillDecompressor::refill`]; returns
    /// `false` on failure.  The fast simulation loop reuses one buffer
    /// across every miss through this entry point, so a steady-state run
    /// allocates nothing per refill.
    ///
    /// The default forwards to `refill` and copies; implementers with a
    /// buffer-filling decode path should override it.
    fn refill_into(&self, index: usize, out_len: usize, out: &mut Vec<u8>) -> bool {
        match self.refill(index, out_len) {
            Some(bytes) => {
                out.clear();
                out.extend_from_slice(&bytes);
                true
            }
            None => false,
        }
    }
}

/// Errors from the checked [`DecoderLatency`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatencyError {
    /// A rANS engine with zero lanes: `8.0 / 0` would make
    /// `cycles_per_byte` infinite and silently poison every cycle count
    /// downstream.
    ZeroLanes,
}

impl fmt::Display for LatencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroLanes => write!(f, "rANS decoder needs at least one lane"),
        }
    }
}

impl Error for LatencyError {}

/// Timing of the decompression engine sitting on the refill path.
///
/// Per-refill cost is `startup_cycles + ceil(block_bytes ·
/// cycles_per_byte)`: a fixed pipeline-fill charge (reading the stream
/// header and loading coder state) plus a steady-state throughput term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderLatency {
    /// Fixed cycles before the first uncompressed byte of a block.
    pub startup_cycles: u64,
    /// Steady-state cycles per *uncompressed* byte produced.
    pub cycles_per_byte: f64,
}

impl DecoderLatency {
    /// The paper's serial nibble engine: no per-block startup, 4 bits —
    /// half a byte — retired per cycle.
    pub fn nibble() -> Self {
        Self { startup_cycles: 0, cycles_per_byte: 2.0 }
    }

    /// An `lanes`-way interleaved rANS engine: one cycle for the stream
    /// tag plus one per 32-bit lane state, then `lanes` bits per cycle
    /// (each lane retires a bit per cycle once primed).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`; use [`DecoderLatency::try_rans`] for a
    /// typed error instead.
    pub fn rans(lanes: usize) -> Self {
        Self::try_rans(lanes).expect("rANS decoder needs at least one lane")
    }

    /// Like [`DecoderLatency::rans`], but returns a typed error in place
    /// of the panic.
    ///
    /// # Errors
    ///
    /// [`LatencyError::ZeroLanes`] if `lanes == 0`.
    pub fn try_rans(lanes: usize) -> Result<Self, LatencyError> {
        if lanes == 0 {
            return Err(LatencyError::ZeroLanes);
        }
        Ok(Self { startup_cycles: 1 + lanes as u64, cycles_per_byte: 8.0 / lanes as f64 })
    }
}

impl Default for DecoderLatency {
    fn default() -> Self {
        Self::nibble()
    }
}

/// Cycle costs of the modelled components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cycles for a main-memory access before data starts flowing.
    pub memory_latency: u64,
    /// Bytes transferred from memory per cycle once flowing.
    pub bus_bytes_per_cycle: u64,
    /// Decompression-engine timing (ignored by uncompressed systems).
    pub decoder: DecoderLatency,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { memory_latency: 20, bus_bytes_per_cycle: 4, decoder: DecoderLatency::nibble() }
    }
}

/// The price of I-cache refills under a [`CostModel`] at one block size
/// — the single home of the refill formula, shared by
/// [`MemorySystem::run`] (one miss at a time) and the sweep (whole miss
/// lists priced from their counts).
///
/// Every term that does not depend on the missed block (the
/// uncompressed refill and the decompression time) is computed once here
/// rather than per miss.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RefillCost {
    memory_latency: u64,
    bus_bytes_per_cycle: u64,
    /// Memory latency plus the uncompressed block's transfer.
    uncompressed: u64,
    /// Decoder startup plus its throughput term for one block.
    decompress: u64,
}

impl RefillCost {
    pub(crate) fn new(costs: &CostModel, block_size: usize) -> Self {
        Self {
            memory_latency: costs.memory_latency,
            bus_bytes_per_cycle: costs.bus_bytes_per_cycle,
            uncompressed: costs.memory_latency
                + (block_size as u64).div_ceil(costs.bus_bytes_per_cycle),
            decompress: costs.decoder.startup_cycles
                + (block_size as f64 * costs.decoder.cycles_per_byte).ceil() as u64,
        }
    }

    /// Cycles to refill a block from uncompressed memory.
    #[inline]
    pub(crate) fn uncompressed(&self) -> u64 {
        self.uncompressed
    }

    /// Bus cycles to move a compressed block of `bytes` from memory.
    #[inline]
    pub(crate) fn transfer(&self, bytes: u32) -> u64 {
        u64::from(bytes).div_ceil(self.bus_bytes_per_cycle)
    }

    /// Cycles of `refills` compressed refills, `clb_misses` of which
    /// missed the CLB, whose compressed blocks took `transfer` bus
    /// cycles in all ([`RefillCost::transfer`] summed over the refills).
    /// A CLB miss fetches the LAT entry from main memory; every refill
    /// then fetches its compressed bytes and decompresses them.
    #[inline]
    pub(crate) fn compressed_refills(&self, refills: u64, clb_misses: u64, transfer: u64) -> u64 {
        clb_misses * self.memory_latency
            + refills * (self.memory_latency + self.decompress)
            + transfer
    }

    /// Cycles to refill cache block `block` from the compressed image:
    /// its LAT entry (addresses past the table wrap) is looked up through
    /// `clb`, then priced by [`RefillCost::compressed_refills`].
    #[inline]
    pub(crate) fn compressed(&self, lat: &LineAddressTable, clb: &mut Clb, block: usize) -> u64 {
        let block = block % lat.len().max(1);
        let clb_miss = !clb.access(block);
        let (_, compressed_size) = lat.lookup(block);
        self.compressed_refills(1, u64::from(clb_miss), self.transfer(compressed_size))
    }
}

/// Result of a trace simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Instruction fetches simulated.
    pub fetches: u64,
    /// I-cache statistics.
    pub cache: CacheStats,
    /// CLB hits (compressed systems only).
    pub clb_hits: u64,
    /// CLB misses — each cost an extra LAT memory access.
    pub clb_misses: u64,
    /// Total cycles (1 per fetch + refill penalties).
    pub cycles: u64,
    /// Cycles spent in refills.
    pub refill_cycles: u64,
}

impl SimReport {
    /// Average cycles per fetched instruction word.
    pub fn cpf(&self) -> f64 {
        self.cycles as f64 / self.fetches.max(1) as f64
    }

    /// Slowdown of this report relative to `baseline` (ratios > 1 mean
    /// this configuration is slower).
    pub fn slowdown_vs(&self, baseline: &SimReport) -> f64 {
        self.cpf() / baseline.cpf()
    }
}

/// The compressed-code memory system of Fig. 1 (or the uncompressed
/// baseline, when built without a LAT).
///
/// The LAT is held behind an [`Arc`], so a sweep can share one immutable
/// table (and the compressed image it describes) across every
/// cache/CLB/decoder cell instead of cloning per cell; single-system
/// callers keep passing an owned table, which converts implicitly.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cache: Cache,
    /// `Some` for compressed systems: the LAT plus the CLB caching it.
    compressed: Option<(Arc<LineAddressTable>, Clb)>,
    costs: CostModel,
    block_size: usize,
    /// Reused refill target for the zero-allocation functional path.
    refill_buf: Vec<u8>,
}

impl MemorySystem {
    /// An uncompressed baseline system.
    pub fn uncompressed(cache_config: CacheConfig, costs: CostModel) -> Self {
        Self {
            block_size: cache_config.block_size,
            cache: Cache::new(cache_config),
            compressed: None,
            costs,
            refill_buf: Vec::new(),
        }
    }

    /// A compressed-code system refilling through `lat` with a CLB of
    /// `clb_entries`.  Accepts an owned table or an `Arc` share of one.
    ///
    /// # Panics
    ///
    /// Panics if `clb_entries == 0`.
    pub fn compressed(
        cache_config: CacheConfig,
        costs: CostModel,
        lat: impl Into<Arc<LineAddressTable>>,
        clb_entries: usize,
    ) -> Self {
        Self {
            block_size: cache_config.block_size,
            cache: Cache::new(cache_config),
            compressed: Some((lat.into(), Clb::new(clb_entries))),
            costs,
            refill_buf: Vec::new(),
        }
    }

    /// Runs an instruction-fetch address trace and reports timing.
    ///
    /// Each fetch costs one cycle; a miss adds the refill penalty: LAT
    /// lookup (hidden on CLB hits), the compressed transfer, and the
    /// decompression time.  Addresses past the LAT-mapped region wrap
    /// (traces are generated against the same text the image encodes).
    pub fn run(&mut self, trace: &[u64]) -> SimReport {
        self.run_inner(trace, None, &[])
    }

    /// Functional co-simulation: like [`MemorySystem::run`], but every
    /// refill actually decompresses the missed block through `codec` and
    /// the produced bytes are compared against `text` — the simulated
    /// machine provably executes out of compressed memory.
    ///
    /// # Panics
    ///
    /// Panics (with the failing block index) if a refill fails or produces
    /// bytes that differ from the program text — a codec/image mismatch
    /// is a setup bug the simulation must not paper over.
    pub fn run_functional(
        &mut self,
        trace: &[u64],
        codec: &dyn RefillDecompressor,
        text: &[u8],
    ) -> SimReport {
        self.run_inner(trace, Some(codec), text)
    }

    /// [`MemorySystem::run`] through the retained reference kernels
    /// ([`Cache::access_reference`], [`Clb::access_reference`], per-miss
    /// cost recomputation) — the straightforward walk, kept so the
    /// differential tests (`crates/memsim/tests/{differential,cycles}.rs`
    /// and the workspace's `tests/memory_system.rs`) can require
    /// access-for-access identical stats from the fast path.  Use a fresh
    /// `MemorySystem` per kernel; the two walks keep separate cache
    /// storage.
    pub fn run_reference(&mut self, trace: &[u64]) -> SimReport {
        self.run_inner_reference(trace, None, &[])
    }

    /// [`MemorySystem::run_functional`] through the retained reference
    /// kernels, with the original allocating
    /// [`RefillDecompressor::refill`] on every miss.
    ///
    /// # Panics
    ///
    /// As [`MemorySystem::run_functional`].
    pub fn run_functional_reference(
        &mut self,
        trace: &[u64],
        codec: &dyn RefillDecompressor,
        text: &[u8],
    ) -> SimReport {
        self.run_inner_reference(trace, Some(codec), text)
    }

    /// The fast kernel: shift addressing (block size is asserted a power
    /// of two by [`Cache::new`]), refills priced by the hoisted
    /// [`RefillCost`], and refills decompressed into one reused buffer.
    fn run_inner(
        &mut self,
        trace: &[u64],
        codec: Option<&dyn RefillDecompressor>,
        text: &[u8],
    ) -> SimReport {
        let cache_before = self.cache.stats();
        let clb_before = self.compressed.as_ref().map(|(_, clb)| clb.stats()).unwrap_or_default();
        let block_shift = self.block_size.trailing_zeros();
        let cost = RefillCost::new(&self.costs, self.block_size);
        let mut buf = std::mem::take(&mut self.refill_buf);

        let mut refill_cycles = 0u64;
        let mut i = 0;
        while i < trace.len() {
            let addr = trace[i];
            let block_addr = addr >> block_shift;
            // Run batching: sequential instruction fetch lands many
            // consecutive fetches in one cache block, and after the first
            // access nothing can evict that block — so the tail of a run
            // is guaranteed hits and collapses into one `access_run`.
            let mut j = i + 1;
            while j < trace.len() && trace[j] >> block_shift == block_addr {
                j += 1;
            }
            let run = (j - i) as u64;
            i = j;
            if self.cache.access_run(addr, run) {
                continue;
            }
            let block = block_addr as usize;
            if let Some(codec) = codec {
                // Functional path: decompress the block and check it.
                let start = block * self.block_size;
                let len = text.len().saturating_sub(start).min(self.block_size);
                if len > 0 {
                    assert!(
                        codec.refill_into(block, len, &mut buf),
                        "refill of block {block} failed"
                    );
                    assert_eq!(
                        buf,
                        &text[start..start + len],
                        "refill of block {block} produced wrong bytes"
                    );
                }
            }
            refill_cycles += match &mut self.compressed {
                None => cost.uncompressed(),
                Some((lat, clb)) => cost.compressed(lat, clb, block),
            };
        }
        self.refill_buf = buf;
        // One cycle per fetch plus the refill penalties.
        let fetches = trace.len() as u64;
        self.finish(fetches, cache_before, clb_before, fetches + refill_cycles, refill_cycles)
    }

    /// The retained pre-PR-10 loop, verbatim: `/` and `%` addressing via
    /// the reference cache/CLB walks, refill costs recomputed on every
    /// miss, and a fresh `Vec` allocated per functional refill.
    fn run_inner_reference(
        &mut self,
        trace: &[u64],
        codec: Option<&dyn RefillDecompressor>,
        text: &[u8],
    ) -> SimReport {
        let cache_before = self.cache.stats();
        let clb_before = self.compressed.as_ref().map(|(_, clb)| clb.stats()).unwrap_or_default();
        let mut cycles = 0u64;
        let mut refill_cycles = 0u64;
        for &addr in trace {
            cycles += 1;
            if self.cache.access_reference(addr) {
                continue;
            }
            let block = (addr / self.block_size as u64) as usize;
            if let Some(codec) = codec {
                // Functional path: decompress the block and check it.
                let start = block * self.block_size;
                let len = text.len().saturating_sub(start).min(self.block_size);
                if len > 0 {
                    let produced = codec
                        .refill(block, len)
                        .unwrap_or_else(|| panic!("refill of block {block} failed"));
                    assert_eq!(
                        produced,
                        &text[start..start + len],
                        "refill of block {block} produced wrong bytes"
                    );
                }
            }
            let refill = match &mut self.compressed {
                None => {
                    self.costs.memory_latency
                        + (self.block_size as u64).div_ceil(self.costs.bus_bytes_per_cycle)
                }
                Some((lat, clb)) => {
                    let block = block % lat.len().max(1);
                    let lat_penalty = if clb.access_reference(block) {
                        0
                    } else {
                        // LAT entry fetched from main memory.
                        self.costs.memory_latency
                    };
                    let (_, compressed_size) = lat.lookup(block);
                    let transfer =
                        u64::from(compressed_size).div_ceil(self.costs.bus_bytes_per_cycle);
                    let decompress = self.costs.decoder.startup_cycles
                        + (self.block_size as f64 * self.costs.decoder.cycles_per_byte).ceil()
                            as u64;
                    lat_penalty + self.costs.memory_latency + transfer + decompress
                }
            };
            cycles += refill;
            refill_cycles += refill;
        }
        self.finish(trace.len() as u64, cache_before, clb_before, cycles, refill_cycles)
    }

    /// Shared epilogue: flush this run's deltas into the global metrics
    /// (no-ops unless the obs feature is on) and assemble the report —
    /// which stays the authoritative per-run result either way.
    fn finish(
        &self,
        fetches: u64,
        cache_before: CacheStats,
        clb_before: cce_obs::HitMiss,
        cycles: u64,
        refill_cycles: u64,
    ) -> SimReport {
        let clb_now = self.compressed.as_ref().map(|(_, clb)| clb.stats()).unwrap_or_default();
        crate::obs::record_run(
            self.cache.stats().since(&cache_before),
            clb_now.since(&clb_before),
            refill_cycles,
        );
        SimReport {
            fetches,
            cache: self.cache.stats(),
            clb_hits: clb_now.hits,
            clb_misses: clb_now.misses,
            cycles,
            refill_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_config() -> CacheConfig {
        CacheConfig { size_bytes: 1024, block_size: 32, associativity: 2 }
    }

    fn looping_trace(n: usize) -> Vec<u64> {
        // A hot loop over 4 blocks plus occasional far excursions.
        (0..n)
            .map(|i| if i % 50 == 0 { ((i * 640) % 65536) as u64 } else { ((i % 32) * 4) as u64 })
            .collect()
    }

    #[test]
    fn all_hits_cost_one_cycle_each() {
        let mut sys = MemorySystem::uncompressed(cache_config(), CostModel::default());
        // Prime one block, then hit it forever.
        let mut trace = vec![0u64];
        trace.extend(std::iter::repeat_n(4u64, 99));
        let report = sys.run(&trace);
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.cycles, 100 + report.refill_cycles);
    }

    #[test]
    fn compressed_system_round_trips_stats() {
        let lat = LineAddressTable::from_block_sizes(vec![18; 2048]);
        let mut sys = MemorySystem::compressed(cache_config(), CostModel::default(), lat, 16);
        let report = sys.run(&looping_trace(10_000));
        assert_eq!(report.fetches, 10_000);
        assert!(report.cache.miss_ratio() < 0.2);
        assert!(report.clb_hits + report.clb_misses == report.cache.misses);
        assert!(report.cpf() >= 1.0);
    }

    #[test]
    fn compressed_is_slower_but_tracks_miss_ratio() {
        let costs = CostModel::default();
        let trace = looping_trace(20_000);
        let mut base = MemorySystem::uncompressed(cache_config(), costs);
        let base_report = base.run(&trace);

        let lat = LineAddressTable::from_block_sizes(vec![20; 2048]);
        let mut comp = MemorySystem::compressed(cache_config(), costs, lat, 32);
        let comp_report = comp.run(&trace);

        let slowdown = comp_report.slowdown_vs(&base_report);
        assert!(slowdown >= 1.0, "slowdown {slowdown}");
        // With this locality the penalty is bounded by the refill-cost
        // ratio scaled by the miss ratio, well under the worst case.
        assert!(slowdown < 2.5, "slowdown {slowdown} too high for this locality");
    }

    #[test]
    fn bigger_cache_shrinks_the_compression_penalty() {
        let costs = CostModel::default();
        let trace = looping_trace(20_000);
        let slowdown_for = |size: usize| {
            let config = CacheConfig { size_bytes: size, block_size: 32, associativity: 2 };
            let mut base = MemorySystem::uncompressed(config, costs);
            let b = base.run(&trace);
            let lat = LineAddressTable::from_block_sizes(vec![20; 2048]);
            let mut comp = MemorySystem::compressed(config, costs, lat, 32);
            comp.run(&trace).slowdown_vs(&b)
        };
        assert!(slowdown_for(8192) <= slowdown_for(256) + 1e-9);
    }

    #[test]
    fn clb_hides_lat_lookups_on_loops() {
        let lat = LineAddressTable::from_block_sizes(vec![18; 2048]);
        let mut sys = MemorySystem::compressed(cache_config(), CostModel::default(), lat, 64);
        let report = sys.run(&looping_trace(50_000));
        let clb_total = report.clb_hits + report.clb_misses;
        assert!(clb_total > 0);
    }

    #[test]
    fn reference_run_matches_fast_run_exactly() {
        let trace = looping_trace(30_000);
        for clb_entries in [4, 32] {
            let lat = Arc::new(LineAddressTable::from_block_sizes(vec![18; 2048]));
            let mut fast = MemorySystem::compressed(
                cache_config(),
                CostModel::default(),
                Arc::clone(&lat),
                clb_entries,
            );
            let mut reference =
                MemorySystem::compressed(cache_config(), CostModel::default(), lat, clb_entries);
            assert_eq!(fast.run(&trace), reference.run_reference(&trace));
        }
        let mut fast = MemorySystem::uncompressed(cache_config(), CostModel::default());
        let mut reference = MemorySystem::uncompressed(cache_config(), CostModel::default());
        assert_eq!(fast.run(&trace), reference.run_reference(&trace));
    }

    #[test]
    fn shared_lat_arc_behaves_like_owned() {
        let trace = looping_trace(5_000);
        let lat = LineAddressTable::from_block_sizes(vec![18; 2048]);
        let shared = Arc::new(lat.clone());
        let mut owned = MemorySystem::compressed(cache_config(), CostModel::default(), lat, 16);
        let mut arced = MemorySystem::compressed(cache_config(), CostModel::default(), shared, 16);
        assert_eq!(owned.run(&trace), arced.run(&trace));
    }

    #[test]
    fn rans_zero_lanes_is_a_typed_error() {
        assert_eq!(DecoderLatency::try_rans(0), Err(LatencyError::ZeroLanes));
        assert!(LatencyError::ZeroLanes.to_string().contains("at least one lane"));
        let four = DecoderLatency::try_rans(4).expect("4 lanes is legal");
        assert_eq!(four, DecoderLatency::rans(4));
        assert_eq!(four.startup_cycles, 5);
        assert_eq!(four.cycles_per_byte, 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn rans_zero_lanes_panics_unchecked() {
        let _ = DecoderLatency::rans(0);
    }
}
