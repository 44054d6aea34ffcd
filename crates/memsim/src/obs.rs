//! Preregistered metric handles for the memory-system simulator.
//!
//! The simulator's per-run numbers live in [`SimReport`](crate::SimReport)
//! (always-on results); these global counters accumulate *deltas* flushed
//! at the end of each `run` and once per sweep baseline and cell, so a
//! metrics artifact covering a whole bench invocation sees the combined
//! cache/CLB/LAT traffic of every simulation it performed.

use cce_obs::{Counter, Desc, SpanStat};

/// I-cache hits across all simulations.
pub static CACHE_HITS: Counter = Counter::new();
/// I-cache misses across all simulations.
pub static CACHE_MISSES: Counter = Counter::new();
/// CLB hits across all simulations.
pub static CLB_HITS: Counter = Counter::new();
/// CLB misses across all simulations.
pub static CLB_MISSES: Counter = Counter::new();
/// LAT entries fetched from main memory (one per CLB miss).
pub static LAT_REFILLS: Counter = Counter::new();
/// Cache-block refills performed.
pub static REFILLS: Counter = Counter::new();
/// Cycles spent refilling (latency + transfer + decompression).
pub static REFILL_CYCLES: Counter = Counter::new();
/// Grid cells simulated by sweep runs.
pub static SWEEP_CELLS: Counter = Counter::new();
/// Cells served by an already-built compressed image (cells − images).
pub static SWEEP_IMAGE_REUSE: Counter = Counter::new();
/// Wall time of whole sweep runs.
pub static SWEEP_SPAN: SpanStat = SpanStat::new();

/// Flushes one simulation's cache and CLB traffic and its refill cycles
/// into the global counters.  Every cache miss is one refill, and every
/// CLB miss one LAT fetch.
pub(crate) fn record_run(cache: crate::CacheStats, clb: cce_obs::HitMiss, refill_cycles: u64) {
    CACHE_HITS.add(cache.hits);
    CACHE_MISSES.add(cache.misses);
    CLB_HITS.add(clb.hits);
    CLB_MISSES.add(clb.misses);
    LAT_REFILLS.add(clb.misses);
    REFILLS.add(cache.misses);
    REFILL_CYCLES.add(refill_cycles);
}

/// Descriptors for the simulator metrics this crate registers.
pub fn descriptors() -> [Desc; 7] {
    [
        Desc::counter("memsim.cache.hits", "I-cache hits across simulations", &CACHE_HITS),
        Desc::counter("memsim.cache.misses", "I-cache misses across simulations", &CACHE_MISSES),
        Desc::counter("memsim.clb.hits", "CLB hits across simulations", &CLB_HITS),
        Desc::counter("memsim.clb.misses", "CLB misses across simulations", &CLB_MISSES),
        Desc::counter("memsim.lat.refills", "LAT entries fetched from main memory", &LAT_REFILLS),
        Desc::counter("memsim.refills", "cache-block refills performed", &REFILLS),
        Desc::counter("memsim.refill.cycles", "cycles spent in refills", &REFILL_CYCLES),
    ]
}

/// Descriptors for the sweep-driver metrics, registered as their own
/// family so the workspace chain stays append-only.
pub fn sweep_descriptors() -> [Desc; 3] {
    [
        Desc::counter("sweep.cells", "design-space grid cells simulated", &SWEEP_CELLS),
        Desc::counter(
            "sweep.reuse.images",
            "sweep cells served by a shared compressed image",
            &SWEEP_IMAGE_REUSE,
        ),
        Desc::span("sweep.span", "wall time of sweep runs", &SWEEP_SPAN),
    ]
}
