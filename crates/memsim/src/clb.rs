//! CLB: cache line address lookaside buffer.

use cce_obs::HitMiss;

/// A small fully-associative LRU cache over LAT entries — "essentially
/// identical to a TLB" (paper §2).  Without it every cache refill would
/// pay an extra main-memory access to read the block's LAT entry.
///
/// Like a TLB entry covering a whole page, each CLB entry holds the LAT
/// *line* fetched from memory — `coverage` consecutive block entries —
/// so spatially-close misses hit the CLB.
///
/// Mirroring [`crate::cache::Cache`], two kernels are provided:
/// [`Clb::access`] keeps the resident line indices and their LRU stamps
/// in two parallel flat arrays and turns the `block_index / coverage`
/// division into a shift (coverage must be a power of two), while
/// [`Clb::access_reference`] is the retained `Vec<(line, last_use)>`
/// walk for differential testing.  Drive one instance through exactly
/// one of the two — each kernel maintains its own storage.
#[derive(Debug, Clone)]
pub struct Clb {
    capacity: usize,
    coverage: usize,
    /// `log2(coverage)`.
    coverage_shift: u32,
    /// Resident LAT line indices (fast kernel; parallel to `stamps`).
    lines: Vec<usize>,
    /// LRU stamps (fast kernel; parallel to `lines`).
    stamps: Vec<u64>,
    /// `(lat_line_index, last_use)` pairs — the retained pre-flattening
    /// storage, touched only by [`Clb::access_reference`].
    entries: Vec<(usize, u64)>,
    clock: u64,
    stats: HitMiss,
}

impl Clb {
    /// Consecutive LAT entries each line of a [`Clb::new`] CLB covers:
    /// one memory line's worth.
    pub const LINE_COVERAGE: usize = 16;

    /// Creates an empty CLB of `capacity` lines, each covering
    /// [`Clb::LINE_COVERAGE`] consecutive LAT entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (model a CLB-less system by never calling
    /// [`Clb::access`] instead).
    pub fn new(capacity: usize) -> Self {
        Self::with_coverage(capacity, Self::LINE_COVERAGE)
    }

    /// Creates a CLB whose lines each cover `coverage` LAT entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `coverage` is not a power of two
    /// (line coverage mirrors a memory line, which is a power of two;
    /// the fast kernel's shift addressing relies on it).
    pub fn with_coverage(capacity: usize, coverage: usize) -> Self {
        assert!(capacity > 0, "CLB capacity must be positive");
        assert!(coverage.is_power_of_two(), "CLB line coverage must be a power of two");
        Self {
            capacity,
            coverage,
            coverage_shift: coverage.trailing_zeros(),
            lines: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            clock: 0,
            stats: HitMiss::new(),
        }
    }

    /// Looks `block_index` up; returns `true` on hit.  A miss installs the
    /// covering LAT line (evicting LRU).
    #[inline]
    pub fn access(&mut self, block_index: usize) -> bool {
        self.clock += 1;
        let line = block_index >> self.coverage_shift;
        // Hit scan over the flat line-index array (stamps untouched).
        if let Some(at) = self.lines.iter().position(|&resident| resident == line) {
            self.stamps[at] = self.clock;
            self.stats.record(true);
            return true;
        }
        self.stats.record(false);
        if self.lines.len() == self.capacity {
            // Stamps are unique (one clock tick per access), so the LRU
            // minimum is unique and first-minimum matches the reference.
            let mut lru = 0;
            let mut lru_stamp = u64::MAX;
            for (at, &stamp) in self.stamps.iter().enumerate() {
                if stamp < lru_stamp {
                    lru_stamp = stamp;
                    lru = at;
                }
            }
            // Same storage manipulation as the reference walk, so entry
            // order (and therefore future scan order) stays identical.
            self.lines.swap_remove(lru);
            self.stamps.swap_remove(lru);
        }
        self.lines.push(line);
        self.stamps.push(self.clock);
        false
    }

    /// The retained pre-PR-10 walk over `(line, last_use)` pairs with a
    /// `/ coverage` division, exactly as [`Clb::access`] was written
    /// before the storage was split into parallel arrays.  Kept for the
    /// differential tests; do not mix with [`Clb::access`] on one
    /// instance.
    pub fn access_reference(&mut self, block_index: usize) -> bool {
        self.clock += 1;
        let block_index = block_index / self.coverage;
        if let Some(entry) = self.entries.iter_mut().find(|(b, _)| *b == block_index) {
            entry.1 = self.clock;
            self.stats.record(true);
            return true;
        }
        self.stats.record(false);
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            self.entries.swap_remove(lru);
        }
        self.entries.push((block_index, self.clock));
        false
    }

    /// The resident `(line, last_use)` pairs in storage order, from
    /// whichever kernel filled them — lets the differential tests compare
    /// eviction choices entry-for-entry.
    pub fn resident(&self) -> Vec<(usize, u64)> {
        if !self.entries.is_empty() {
            return self.entries.clone();
        }
        self.lines.iter().copied().zip(self.stamps.iter().copied()).collect()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.stats.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// The hit/miss counters.
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Hit ratio in `[0, 1]` (0 for no accesses).
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut clb = Clb::new(4);
        assert!(!clb.access(7));
        assert!(clb.access(7));
        assert_eq!((clb.hits(), clb.misses()), (1, 1));
    }

    #[test]
    fn lru_eviction() {
        let mut clb = Clb::with_coverage(2, 1);
        clb.access(1);
        clb.access(2);
        clb.access(1); // 2 becomes LRU
        clb.access(3); // evicts 2
        assert!(clb.access(1));
        assert!(!clb.access(2));
    }

    #[test]
    fn line_coverage_gives_spatial_hits() {
        let mut clb = Clb::with_coverage(2, 16);
        assert!(!clb.access(0));
        for block in 1..16 {
            assert!(clb.access(block), "block {block} shares the LAT line");
        }
        assert!(!clb.access(16));
    }

    #[test]
    fn loops_hit_in_the_clb() {
        let mut clb = Clb::new(8);
        for _ in 0..100 {
            for block in 0..4 {
                clb.access(block);
            }
        }
        assert!(clb.hit_ratio() > 0.98);
    }

    #[test]
    fn reference_kernel_matches_on_a_thrashing_pattern() {
        let mut fast = Clb::with_coverage(4, 2);
        let mut reference = Clb::with_coverage(4, 2);
        // More distinct lines than capacity so evictions happen, with
        // revisits so LRU order matters.
        for i in 0..500usize {
            let block = (i * 7) % 26;
            assert_eq!(fast.access(block), reference.access_reference(block), "step {i}");
        }
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(fast.resident(), reference.resident());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_coverage_panics() {
        let _ = Clb::with_coverage(4, 3);
    }
}
