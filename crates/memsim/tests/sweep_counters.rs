//! `run_sweep` flushes the `memsim.*` counters as the standalone runs it
//! stands for would: one uncompressed baseline run per distinct cache
//! geometry and one compressed run per cell.  The counters are global,
//! so this check has a test binary of its own: no other test moves them
//! while it reads them.

use cce_memsim::obs::{
    CACHE_HITS, CACHE_MISSES, CLB_HITS, CLB_MISSES, LAT_REFILLS, REFILLS, REFILL_CYCLES,
    SWEEP_CELLS, SWEEP_IMAGE_REUSE,
};
use cce_memsim::sweep::{run_sweep, SweepConfig, SweepImage};
use cce_memsim::{CacheConfig, CostModel, DecoderLatency, LineAddressTable, MemorySystem};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Every `memsim.*` counter, in `obs::descriptors` order.
fn memsim_counters() -> [u64; 7] {
    [&CACHE_HITS, &CACHE_MISSES, &CLB_HITS, &CLB_MISSES, &LAT_REFILLS, &REFILLS, &REFILL_CYCLES]
        .map(|counter| counter.get())
}

fn delta(after: [u64; 7], before: [u64; 7]) -> [u64; 7] {
    std::array::from_fn(|i| after[i] - before[i])
}

fn image(block_size: usize, blocks: usize) -> SweepImage {
    let sizes: Vec<usize> = (0..blocks).map(|i| 4 + (i * 7) % block_size).collect();
    SweepImage {
        codec: format!("{block_size}x{blocks}"),
        block_size,
        compressed_bytes: sizes.iter().sum::<usize>() as u64,
        text_bytes: (blocks * block_size) as u64,
        lat: Arc::new(LineAddressTable::from_block_sizes(sizes)),
    }
}

#[test]
fn sweep_counters_equal_the_standalone_runs_it_replaces() {
    if !cce_obs::enabled() {
        return; // Built without the `obs` feature: every counter reads 0.
    }
    // Two 32-byte images whose LATs wrap at different lengths, and one
    // 16-byte image, over a looping trace with far jumps.
    let images = [image(32, 512), image(32, 300), image(16, 1024)];
    let trace: Vec<u64> = (0..30_000u64)
        .map(|i| if i % 37 == 0 { (i * 1_093) % 16_384 } else { (i % 61) * 4 })
        .collect();
    let config = SweepConfig { clb_entries: vec![2, 8, 32], ..SweepConfig::default() };

    let (before, cells_before, reuse_before) =
        (memsim_counters(), SWEEP_CELLS.get(), SWEEP_IMAGE_REUSE.get());
    let results = run_sweep(&images, &config, &trace, 2);
    let swept = delta(memsim_counters(), before);
    assert_eq!(SWEEP_CELLS.get() - cells_before, results.len() as u64);
    assert_eq!(SWEEP_IMAGE_REUSE.get() - reuse_before, (results.len() - images.len()) as u64);

    let before = memsim_counters();
    let mut geometries = BTreeSet::new();
    for result in &results {
        let cell = result.cell;
        let image = &images[cell.image];
        let cache = CacheConfig {
            size_bytes: cell.cache_size,
            block_size: image.block_size,
            associativity: cell.associativity,
        };
        let costs = CostModel {
            memory_latency: config.memory_latency,
            bus_bytes_per_cycle: config.bus_bytes_per_cycle,
            decoder: config.decoders[cell.decoder].latency,
        };
        let lat = Arc::clone(&image.lat);
        MemorySystem::compressed(cache, costs, lat, cell.clb_entries).run(&trace);
        if geometries.insert((image.block_size, cell.cache_size, cell.associativity)) {
            let baseline_costs = CostModel { decoder: DecoderLatency::default(), ..costs };
            MemorySystem::uncompressed(cache, baseline_costs).run(&trace);
        }
    }
    let standalone = delta(memsim_counters(), before);

    assert_eq!(swept, standalone);
    assert!(swept.iter().all(|&count| count > 0), "every counter moves: {swept:?}");
}
