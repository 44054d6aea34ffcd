//! Differential property tests: the fast flattened cache/CLB/system
//! kernels must be access-for-access identical to the retained reference
//! walks — same hit/miss sequence, same victim choices (checked through
//! the final contents, which encode every eviction decision), and the
//! same final stats — across seeded random geometries and traces.

use cce_memsim::sweep::{run_sweep, SweepConfig, SweepDecoder, SweepImage};
use cce_memsim::{
    Cache, CacheConfig, Clb, CostModel, DecoderLatency, LineAddressTable, MemorySystem,
};
use cce_rng::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A random but legal cache geometry: power-of-two block size and set
/// count, small enough to force plenty of conflict misses.
fn random_cache_config(rng: &mut Rng) -> CacheConfig {
    let block_size = 1usize << rng.random_range(2..=6u32); // 4..=64 B
    let associativity: usize = rng.random_range(1..=4);
    let sets = 1usize << rng.random_range(0..=5u32); // 1..=32
    CacheConfig { size_bytes: sets * block_size * associativity, block_size, associativity }
}

/// A trace with loops, strides, and jumps over a bounded address space,
/// so both LRU updates and evictions are exercised heavily.
fn random_trace(rng: &mut Rng, len: usize, span: u64) -> Vec<u64> {
    let mut trace = Vec::with_capacity(len);
    let mut pc = 0u64;
    for _ in 0..len {
        match rng.random_range(0..10u32) {
            0 => pc = rng.random_range(0..span), // far jump
            1 => pc = pc.saturating_sub(rng.random_range(0..256u64)), // short backward (loop)
            _ => pc += 4,                        // fall through
        }
        trace.push(pc % span);
    }
    trace
}

#[test]
fn cache_kernels_agree_on_random_geometries_and_traces() {
    let mut rng = Rng::seed_from_u64(0xDAC1998);
    for case in 0..40 {
        let config = random_cache_config(&mut rng);
        let span = 1 << rng.random_range(10..=16u32);
        let trace = random_trace(&mut rng, 3_000, span);
        let mut fast = Cache::new(config);
        let mut reference = Cache::new(config);
        for (i, &addr) in trace.iter().enumerate() {
            assert_eq!(
                fast.access(addr),
                reference.access_reference(addr),
                "case {case} ({config:?}): hit/miss diverged at access {i} (addr {addr:#x})"
            );
        }
        assert_eq!(fast.stats(), reference.stats(), "case {case} ({config:?}): stats diverged");
        // Contents carry (tag, last_use) per way: equality proves every
        // victim choice matched, not just the hit/miss totals.
        assert_eq!(
            fast.contents(),
            reference.contents(),
            "case {case} ({config:?}): victim choices diverged"
        );
    }
}

#[test]
fn clb_kernels_agree_on_random_geometries_and_traces() {
    let mut rng = Rng::seed_from_u64(0x1998DAC);
    for case in 0..40 {
        let capacity: usize = rng.random_range(1..=12);
        let coverage = 1usize << rng.random_range(0..=5u32);
        let blocks: usize = rng.random_range(1..=512);
        let mut fast = Clb::with_coverage(capacity, coverage);
        let mut reference = Clb::with_coverage(capacity, coverage);
        for i in 0..2_000 {
            // Loopy block sequence with occasional jumps, like refills.
            let block =
                if rng.random_bool(0.15) { rng.random_range(0..blocks) } else { (i * 3) % blocks };
            assert_eq!(
                fast.access(block),
                reference.access_reference(block),
                "case {case} (cap {capacity}, cov {coverage}): diverged at step {i}"
            );
        }
        assert_eq!(fast.stats(), reference.stats(), "case {case}: stats diverged");
        assert_eq!(
            fast.resident(),
            reference.resident(),
            "case {case} (cap {capacity}, cov {coverage}): eviction choices diverged"
        );
    }
}

#[test]
fn system_runs_agree_end_to_end_on_random_configurations() {
    let mut rng = Rng::seed_from_u64(7);
    for case in 0..15 {
        let config = random_cache_config(&mut rng);
        let blocks: usize = rng.random_range(16..=1024);
        let sizes: Vec<usize> =
            (0..blocks).map(|_| rng.random_range(4..=config.block_size.max(5))).collect();
        let span = (blocks * config.block_size) as u64;
        let trace = random_trace(&mut rng, 5_000, span);
        let clb_entries: usize = rng.random_range(1..=64);
        let costs = CostModel::default();

        let lat = Arc::new(LineAddressTable::from_block_sizes(sizes));
        let mut fast = MemorySystem::compressed(config, costs, Arc::clone(&lat), clb_entries);
        let mut reference = MemorySystem::compressed(config, costs, lat, clb_entries);
        assert_eq!(
            fast.run(&trace),
            reference.run_reference(&trace),
            "case {case} ({config:?}, clb {clb_entries}): compressed reports diverged"
        );

        let mut fast = MemorySystem::uncompressed(config, costs);
        let mut reference = MemorySystem::uncompressed(config, costs);
        assert_eq!(
            fast.run(&trace),
            reference.run_reference(&trace),
            "case {case} ({config:?}): uncompressed reports diverged"
        );
    }
}

/// A trace of fall-through runs, long stretches of fetches inside one
/// block (tight loops) and far jumps anywhere in `span`.
fn runny_trace(rng: &mut Rng, len: usize, span: u64) -> Vec<u64> {
    let mut trace = Vec::with_capacity(len);
    let mut pc = 0u64;
    while trace.len() < len {
        match rng.random_range(0..12u32) {
            0 => pc = rng.random_range(0..span) & !3, // far jump
            1 => {
                // Spin inside pc's 8-byte neighbourhood for a while.
                let spin: usize = rng.random_range(1..=300);
                trace.extend((0..spin).map(|i| (pc & !7) + (i as u64 % 2) * 4));
            }
            _ => pc = (pc + 4) % span, // fall through
        }
        trace.push(pc);
    }
    trace.truncate(len);
    trace
}

/// A random sweep grid whose cache axes include geometries that
/// [`SweepConfig::expand`] must skip (sizes that are no power-of-two
/// multiple of block × ways, and 3-, 5-, 6- and 7-way caches of
/// power-of-two sizes).
fn random_grid(rng: &mut Rng) -> SweepConfig {
    let cache_sizes = (0..rng.random_range(1..=3))
        .map(|_| {
            if rng.random_bool(0.2) {
                rng.random_range(100..5_000)
            } else {
                1 << rng.random_range(6..=12u32)
            }
        })
        .collect();
    let associativities = (0..rng.random_range(1..=3)).map(|_| rng.random_range(1..=8)).collect();
    let clb_entries = (0..rng.random_range(1..=2)).map(|_| rng.random_range(1..=40)).collect();
    let decoders = (0..rng.random_range(1..=3))
        .map(|_| match rng.random_range(0..=8usize) {
            0 => SweepDecoder { name: "nibble".into(), latency: DecoderLatency::nibble() },
            lanes => {
                SweepDecoder { name: format!("rans{lanes}"), latency: DecoderLatency::rans(lanes) }
            }
        })
        .collect();
    SweepConfig {
        cache_sizes,
        associativities,
        clb_entries,
        decoders,
        memory_latency: rng.random_range(1..=40),
        bus_bytes_per_cycle: rng.random_range(1..=8),
    }
}

/// Every sweep cell's report must equal a from-scratch serial simulation
/// of that cell — through both the fast and the reference kernel — and
/// every baseline a standalone uncompressed run, over seeded random
/// grids, images and traces.  LATs may be shorter than the trace's block
/// range, so refills wrap.
#[test]
fn sweep_cells_match_standalone_simulations() {
    let mut rng = Rng::seed_from_u64(42);
    let (mut skipped_geometries, mut wrapped_cells, mut cells) = (0, 0, 0);
    let (mut shared_stack_passes, mut shared_clb_passes, mut split_lat_lengths) = (0, 0, 0);
    for case in 0..40 {
        let config = random_grid(&mut rng);
        let span = 1u64 << rng.random_range(10..=14u32);
        let images: Vec<SweepImage> = (0..rng.random_range(1..=3))
            .map(|i| {
                let block_size = 8usize << rng.random_range(0..=3u32);
                let range = (span as usize).div_ceil(block_size);
                // Some LATs cover only part of the trace's blocks.
                let blocks = if rng.random_bool(0.5) { rng.random_range(1..range) } else { range };
                let sizes: Vec<usize> =
                    (0..blocks).map(|_| rng.random_range(1..=block_size)).collect();
                SweepImage {
                    codec: format!("img{i}"),
                    block_size,
                    compressed_bytes: sizes.iter().sum::<usize>() as u64,
                    text_bytes: (blocks * block_size) as u64,
                    lat: Arc::new(LineAddressTable::from_block_sizes(sizes)),
                }
            })
            .collect();
        let trace = if case % 2 == 0 {
            runny_trace(&mut rng, 3_000, span)
        } else {
            random_trace(&mut rng, 3_000, span)
        };
        let workers = rng.random_range(1..=4);
        let grid = images.len()
            * config.cache_sizes.len()
            * config.associativities.len()
            * config.clb_entries.len()
            * config.decoders.len();

        let results = run_sweep(&images, &config, &trace, workers);
        let expanded = config.expand(&images);
        assert_eq!(results.len(), expanded.len(), "case {case}");
        skipped_geometries += grid - results.len();
        // The sharing the sweep's passes exist for: one (block size, set
        // count) pass serving several associativities, one CLB pass
        // serving several capacities, and images of one block size whose
        // LATs wrap at different lengths.
        let mut ways_by_pass: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
        for cell in &expanded {
            let block_size = images[cell.image].block_size;
            let sets = cell.cache_size / (block_size * cell.associativity);
            ways_by_pass.entry((block_size, sets)).or_default().insert(cell.associativity);
        }
        shared_stack_passes += ways_by_pass.values().filter(|ways| ways.len() >= 2).count();
        let capacities: BTreeSet<usize> = expanded.iter().map(|c| c.clb_entries).collect();
        shared_clb_passes += usize::from(capacities.len() >= 2);
        let swept: BTreeSet<usize> = expanded.iter().map(|c| c.image).collect();
        for &a in &swept {
            for &b in swept.range(a + 1..) {
                split_lat_lengths += usize::from(
                    images[a].block_size == images[b].block_size
                        && images[a].lat.len() != images[b].lat.len(),
                );
            }
        }
        for result in results {
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
            let mut standalone =
                MemorySystem::compressed(cache, costs, Arc::clone(&image.lat), cell.clb_entries);
            assert_eq!(standalone.run(&trace), result.report, "case {case}, cell {cell:?}");
            let mut reference =
                MemorySystem::compressed(cache, costs, Arc::clone(&image.lat), cell.clb_entries);
            assert_eq!(
                reference.run_reference(&trace),
                result.report,
                "case {case}, cell {cell:?} (reference)"
            );
            let baseline_costs = CostModel { decoder: DecoderLatency::default(), ..costs };
            let mut baseline = MemorySystem::uncompressed(cache, baseline_costs);
            assert_eq!(
                baseline.run(&trace),
                result.baseline,
                "case {case}, cell {cell:?} baseline"
            );
            cells += 1;
            wrapped_cells +=
                usize::from(image.lat.len() < (span as usize).div_ceil(image.block_size));
        }
    }
    // The seeded grids must actually reach the cases they exist for.
    assert!(skipped_geometries > 0, "no invalid geometry was skipped");
    assert!(wrapped_cells > 0 && wrapped_cells < cells, "{wrapped_cells} of {cells} cells wrap");
    assert!(shared_stack_passes > 0, "no cache pass served two associativities");
    assert!(shared_clb_passes > 0, "no CLB pass served two capacities");
    assert!(split_lat_lengths > 0, "no two images of one block size had different LAT lengths");
}
