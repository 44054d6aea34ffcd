//! Set-associative instruction cache.
//!
//! Two kernels share this module:
//!
//! * [`Cache::access`] — the fast kernel: tags and LRU stamps live in one
//!   contiguous array per cache, set/tag addressing is shift/mask on the
//!   power-of-two geometry, an MRU block filter short-circuits the
//!   sequential-fetch common case, and the whole access touches two
//!   short runs of adjacent memory.  This is the walk every simulation
//!   runs.
//! * [`Cache::access_reference`] — the retained pre-flattening walk:
//!   per-set `Vec<Option<(tag, last_use)>>` storage addressed with `/`
//!   and `%`, kept verbatim so the differential tests can prove the fast
//!   kernel access-for-access identical.
//!
//! A single `Cache` instance must be driven through exactly one of the
//! two kernels: each maintains its own storage (the reference's nested
//! layout is built lazily on first use), so interleaving them on one
//! instance would let the two copies of the contents diverge.

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Block (line) size in bytes — must match the codec's block size.
    pub block_size: usize,
    /// Ways per set (1 = direct mapped).
    pub associativity: usize,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Cache::new`]).
    pub fn sets(&self) -> usize {
        assert!(
            self.block_size > 0
                && self.associativity > 0
                && self.size_bytes.is_multiple_of(self.block_size * self.associativity),
            "cache size must be a positive multiple of block_size × associativity"
        );
        self.size_bytes / (self.block_size * self.associativity)
    }

    /// Whether the geometry satisfies every [`Cache::new`] requirement
    /// (used by the sweep driver to skip impossible grid cells instead
    /// of panicking mid-sweep).
    pub fn is_valid(&self) -> bool {
        self.block_size > 0
            && self.block_size.is_power_of_two()
            && self.associativity > 0
            && self.size_bytes > 0
            && self.size_bytes.is_multiple_of(self.block_size * self.associativity)
            && (self.size_bytes / (self.block_size * self.associativity)).is_power_of_two()
    }
}

/// Hit/miss counters — the shared [`cce_obs::HitMiss`] result type,
/// which all memory-system components (cache, CLB) now count with.
pub type CacheStats = cce_obs::HitMiss;

/// A set-associative cache with true-LRU replacement, tracking tags only
/// (contents are irrelevant to the timing model).
///
/// Storage is flat: `tags[set * associativity + way]` and
/// `last_use[set * associativity + way]`, with `last_use == 0` meaning
/// "way empty" (the clock is pre-incremented, so a touched way always
/// stamps ≥ 1).  Set and tag extraction are shift/mask — `new` asserts
/// the power-of-two geometry that makes them exact.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// `log2(block_size)`.
    block_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// Flat `sets × associativity` tag array (fast kernel).
    tags: Vec<u64>,
    /// Flat LRU stamps; `0` = empty way (fast kernel).
    last_use: Vec<u64>,
    /// Block address of the most recent access (fast kernel's MRU
    /// filter); valid only while `mru_index != usize::MAX`.
    mru_block: u64,
    /// Flat way index holding `mru_block`; `usize::MAX` = no MRU yet.
    mru_index: usize,
    /// Pre-flattening `ways[set][way] = Some((tag, last_use))` storage,
    /// built lazily and touched only by [`Cache::access_reference`].
    reference_ways: Vec<Vec<Option<(u64, u64)>>>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a positive multiple of
    /// `block_size × associativity` and both the block size and the set
    /// count are powers of two (the shift/mask addressing relies on it).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(config.block_size.is_power_of_two(), "block size must be a power of two");
        Self {
            config,
            sets,
            block_shift: config.block_size.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tags: vec![0; sets * config.associativity],
            last_use: vec![0; sets * config.associativity],
            mru_block: 0,
            mru_index: usize::MAX,
            reference_ways: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses `addr`; returns `true` on hit.  A miss fills the block
    /// (evicting LRU if needed).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let block = addr >> self.block_shift;
        // MRU filter: instruction fetch is mostly sequential, so the
        // common case is another word of the block just touched.  Nothing
        // can evict that block between two accesses, so re-stamping its
        // way is exactly what the full scan would do — the set walk runs
        // only on a block transition.
        if self.mru_index != usize::MAX && block == self.mru_block {
            self.last_use[self.mru_index] = self.clock;
            self.stats.record(true);
            return true;
        }
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_shift;
        let ways = self.config.associativity;
        let base = set * ways;
        let tags = &mut self.tags[base..base + ways];
        let stamps = &mut self.last_use[base..base + ways];

        // Branchless hit scan over the set's slice: one bounds check for
        // the whole set, no early exit, so the loop unrolls cleanly.  A
        // set never holds two copies of one tag, so "last matching way"
        // is "the matching way"; empty ways carry stamp 0 and the stamp
        // check keeps them from matching tag 0.
        let mut hit_way = usize::MAX;
        for way in 0..ways {
            if tags[way] == tag && stamps[way] != 0 {
                hit_way = way;
            }
        }
        if hit_way != usize::MAX {
            stamps[hit_way] = self.clock;
            self.stats.record(true);
            self.mru_block = block;
            self.mru_index = base + hit_way;
            return true;
        }
        self.stats.record(false);
        // Victim: empty ways carry stamp 0, so "first minimum stamp" is
        // exactly "first empty way, else least recently used" — the
        // reference walk's choice.
        let mut victim = 0;
        let mut victim_use = stamps[0];
        for (way, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < victim_use {
                victim_use = stamp;
                victim = way;
            }
        }
        tags[victim] = tag;
        stamps[victim] = self.clock;
        self.mru_block = block;
        self.mru_index = base + victim;
        false
    }

    /// Accesses a run of `run` consecutive fetches that the caller
    /// guarantees all land in `addr`'s cache block: one full lookup for
    /// the first fetch, then — since nothing can evict the block between
    /// two accesses of the same cache — the remaining `run - 1` fetches
    /// are guaranteed hits on the same way and collapse to one stamp
    /// write and counter bumps.  The resulting state is identical, field
    /// for field, to calling [`Cache::access`] `run` times (intermediate
    /// LRU stamps are overwritten by the last fetch either way).
    ///
    /// Returns whether the *first* fetch hit.
    #[inline]
    pub fn access_run(&mut self, addr: u64, run: u64) -> bool {
        let first = self.access(addr);
        if run > 1 {
            self.clock += run - 1;
            self.last_use[self.mru_index] = self.clock;
            self.stats.hits += run - 1;
        }
        first
    }

    /// The retained pre-PR-10 walk: `/` and `%` addressing over per-set
    /// `Option<(tag, last_use)>` vectors, exactly as [`Cache::access`]
    /// was written before the storage was flattened.  Kept as the
    /// reference implementation the differential tests and the bench
    /// kernel leg compare against; do not mix with [`Cache::access`] on
    /// one instance (see the module docs).
    pub fn access_reference(&mut self, addr: u64) -> bool {
        if self.reference_ways.is_empty() {
            self.reference_ways = vec![vec![None; self.config.associativity]; self.sets];
        }
        self.clock += 1;
        let block = addr / self.config.block_size as u64;
        let set = (block % self.sets as u64) as usize;
        let tag = block / self.sets as u64;

        if let Some(entry) = self.reference_ways[set].iter_mut().flatten().find(|(t, _)| *t == tag)
        {
            entry.1 = self.clock;
            self.stats.record(true);
            return true;
        }
        self.stats.record(false);
        // Fill: empty way, or evict the least recently used.
        let victim =
            self.reference_ways[set].iter().position(Option::is_none).unwrap_or_else(|| {
                self.reference_ways[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.expect("no empty ways").1)
                    .map(|(i, _)| i)
                    .expect("associativity > 0")
            });
        self.reference_ways[set][victim] = Some((tag, self.clock));
        false
    }

    /// The cache contents as the reference's nested layout, regardless of
    /// which kernel filled them — lets the differential tests compare
    /// victim choices entry-for-entry, not just hit/miss counts.
    pub fn contents(&self) -> Vec<Vec<Option<(u64, u64)>>> {
        if !self.reference_ways.is_empty() {
            return self.reference_ways.clone();
        }
        (0..self.sets)
            .map(|set| {
                (0..self.config.associativity)
                    .map(|way| {
                        let index = set * self.config.associativity + way;
                        (self.last_use[index] != 0)
                            .then(|| (self.tags[index], self.last_use[index]))
                    })
                    .collect()
            })
            .collect()
    }

    /// Access counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and counters (both kernels' storage).
    pub fn reset(&mut self) {
        self.tags.fill(0);
        self.last_use.fill(0);
        self.mru_block = 0;
        self.mru_index = usize::MAX;
        for set in &mut self.reference_ways {
            set.fill(None);
        }
        self.clock = 0;
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig { size_bytes: 128, block_size: 32, associativity: 2 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0));
        assert!(c.access(4));
        assert!(c.access(31));
        assert!(!c.access(32));
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_eviction_order() {
        // 2 sets × 2 ways of 32B. Blocks 0, 2, 4 map to set 0.
        let mut c = small();
        c.access(0);
        c.access(2 * 32);
        c.access(4 * 32); // evicts block 0 (LRU)
        assert!(c.access(2 * 32), "block 2 still resident");
        assert!(!c.access(0), "block 0 was evicted");
    }

    #[test]
    fn lru_is_updated_on_hit() {
        let mut c = small();
        c.access(0);
        c.access(2 * 32);
        c.access(0); // touch block 0 so block 2 is now LRU
        c.access(4 * 32); // evicts block 2
        assert!(c.access(0));
        assert!(!c.access(2 * 32));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig { size_bytes: 64, block_size: 32, associativity: 1 });
        assert!(!c.access(0));
        assert!(!c.access(64)); // same set, conflict
        assert!(!c.access(0));
        assert_eq!(c.stats().miss_ratio(), 1.0);
    }

    #[test]
    fn bigger_cache_has_fewer_misses() {
        let trace: Vec<u64> = (0..1000u64).map(|i| (i * 36) % 4096).collect();
        let run = |size| {
            let mut c =
                Cache::new(CacheConfig { size_bytes: size, block_size: 32, associativity: 2 });
            for &a in &trace {
                c.access(a);
            }
            c.stats().miss_ratio()
        };
        assert!(run(8192) <= run(512));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = small();
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn reference_kernel_matches_on_a_conflict_trace() {
        let trace: Vec<u64> = (0..2000u64).map(|i| (i * 36) % 4096).collect();
        let mut fast = small();
        let mut reference = small();
        for &a in &trace {
            assert_eq!(fast.access(a), reference.access_reference(a), "addr {a}");
        }
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(fast.contents(), reference.contents());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let _ = Cache::new(CacheConfig { size_bytes: 96, block_size: 32, associativity: 1 });
    }

    #[test]
    #[should_panic(expected = "block size must be a power of two")]
    fn non_power_of_two_block_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 96, block_size: 24, associativity: 1 });
    }

    #[test]
    fn geometry_validity_screen() {
        let good = CacheConfig { size_bytes: 1024, block_size: 32, associativity: 2 };
        assert!(good.is_valid());
        let bad_sets = CacheConfig { size_bytes: 96, block_size: 32, associativity: 1 };
        assert!(!bad_sets.is_valid());
        let bad_block = CacheConfig { size_bytes: 96, block_size: 24, associativity: 1 };
        assert!(!bad_block.is_valid());
        let indivisible = CacheConfig { size_bytes: 100, block_size: 32, associativity: 2 };
        assert!(!indivisible.is_valid());
    }
}
