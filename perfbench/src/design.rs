//! Shared inputs and the reference memory system behind the `slowdown`
//! design metric.

use cce_core::isa::mips::encode_text;
use cce_core::memsim::{CacheConfig, CostModel, LineAddressTable, MemorySystem};
use cce_core::workload::trace::{instruction_trace, TraceConfig};
use cce_core::workload::{generate_mips_seeded, Spec95};
use std::sync::Arc;

/// Cache block size of every image the benchmark builds (the paper's).
pub const BLOCK: usize = 32;

/// The reference I-cache every workload's `slowdown` is simulated on: a
/// small embedded cache, well below the programs' text sizes.
pub const REFERENCE_CACHE: CacheConfig =
    CacheConfig { size_bytes: 4096, block_size: BLOCK, associativity: 2 };

/// CLB entries of the reference system.
pub const REFERENCE_CLB: usize = 16;

/// Fetches in a reference trace.
const REFERENCE_FETCHES: usize = 200_000;

/// MIPS text of SPEC95-like `profile` at `scale`, an instance chosen by
/// `seed`.
pub fn mips_text(profile: &str, scale: f64, seed: u64) -> Vec<u8> {
    let profile = Spec95::by_name(profile).expect("profile is in the suite");
    encode_text(&generate_mips_seeded(profile, scale, seed))
}

/// A fetch trace over `text_len` bytes of text.
pub fn fetch_trace(text_len: usize, fetches: usize, seed: u64) -> Vec<u64> {
    instruction_trace(text_len, &TraceConfig { fetches, seed, ..TraceConfig::default() })
}

/// Seeded traces the `slowdown` design figure is averaged over.
pub const REFERENCE_TRACES: u64 = 4;

/// The `i`-th reference fetch trace of the instance chosen by `seed`.
pub fn reference_trace(text_len: usize, seed: u64, i: u64) -> Vec<u64> {
    fetch_trace(text_len, REFERENCE_FETCHES, seed.wrapping_mul(REFERENCE_TRACES).wrapping_add(i))
}

/// Simulated slowdown of running an image with per-block compressed
/// `sizes` out of compressed memory on the reference system, against the
/// uncompressed system, averaged over the [`REFERENCE_TRACES`] reference
/// traces of `seed` (all start from empty caches).
pub fn reference_slowdown(sizes: &[usize], text_len: usize, seed: u64) -> f64 {
    let lat = Arc::new(LineAddressTable::from_block_sizes(sizes.iter().copied()));
    let costs = CostModel::default();
    let total: f64 = (0..REFERENCE_TRACES)
        .map(|i| {
            let trace = reference_trace(text_len, seed, i);
            let compressed =
                MemorySystem::compressed(REFERENCE_CACHE, costs, Arc::clone(&lat), REFERENCE_CLB)
                    .run(&trace);
            let baseline = MemorySystem::uncompressed(REFERENCE_CACHE, costs).run(&trace);
            compressed.slowdown_vs(&baseline)
        })
        .sum();
    total / REFERENCE_TRACES as f64
}
