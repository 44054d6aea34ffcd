//! The daemon's one LRU type, used with two cost models.
//!
//! - **Decoded blocks**, one cache per lock stripe of the daemon's
//!   LRU: every entry costs 1, so capacity is a block count and
//!   worst-case memory is `capacity × (block_size + slack)` bytes per
//!   stripe.  Hot blocks are decoded once and served from memory (the
//!   Ozturk access-pattern observation: a small working set absorbs
//!   most fetches).  Striping by `block % stripes` means a block's entry
//!   always lives in exactly one stripe, so there are no duplicate
//!   entries and no cross-stripe invalidation.
//! - **Verified chunks**, one cache per [`Artifact`](crate::Artifact):
//!   every entry costs its length, so capacity is a byte budget
//!   ([`VERIFIED_CHUNK_BYTES`](crate::store::VERIFIED_CHUNK_BYTES)).
//!
//! Eviction is exact LRU via a monotonic touch stamp.  The summed cost
//! of the entries never exceeds the capacity: an insert evicts
//! least-recently-used entries until the new one fits, and an entry
//! costing more than the whole capacity is not kept and evicts nothing.

use std::collections::HashMap;

/// A cost-bounded LRU map from an index (block or chunk) to a value.
pub struct LruCache<V> {
    capacity: usize,
    used: usize,
    tick: u64,
    entries: HashMap<usize, Entry<V>>,
}

struct Entry<V> {
    stamp: u64,
    cost: usize,
    value: V,
}

impl<V: Clone> LruCache<V> {
    /// A cache whose entries cost at most `capacity` in total (0
    /// disables caching).
    pub fn new(capacity: usize) -> Self {
        Self { capacity, used: 0, tick: 0, entries: HashMap::with_capacity(capacity.min(1024)) }
    }

    /// Returns a clone of the value cached for `key`, refreshing its
    /// recency.
    pub fn get(&mut self, key: usize) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|entry| {
            entry.stamp = tick;
            entry.value.clone()
        })
    }

    /// Inserts `value` for `key` at `cost`, replacing any entry for
    /// `key` and evicting least-recently-used entries until it fits.
    /// A value costing more than the capacity is dropped and leaves
    /// the cache as it was.
    pub fn insert(&mut self, key: usize, value: V, cost: usize) {
        if cost > self.capacity || self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            self.used -= old.cost;
        }
        while self.used + cost > self.capacity {
            // Exact LRU; linear scan is fine at cache-sized entry counts.
            let oldest = *self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(key, _)| key)
                .expect("a nonzero used cost belongs to resident entries");
            let evicted = self.entries.remove(&oldest).expect("key was just found");
            self.used -= evicted.cost;
        }
        self.used += cost;
        self.entries.insert(key, Entry { stamp: self.tick, cost, value });
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed cost of the cached entries (never above the capacity).
    pub fn cost(&self) -> usize {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let mut cache = LruCache::new(2);
        cache.insert(1, vec![1], 1);
        cache.insert(2, vec![2], 1);
        assert_eq!(cache.get(1), Some(vec![1])); // touch 1 → 2 is LRU
        cache.insert(3, vec![3], 1);
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1), Some(vec![1]));
        assert_eq!(cache.get(3), Some(vec![3]));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = LruCache::new(2);
        cache.insert(1, vec![1], 1);
        cache.insert(2, vec![2], 1);
        cache.insert(2, vec![2, 2], 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(1), Some(vec![1]));
        assert_eq!(cache.get(2), Some(vec![2, 2]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(1, vec![1], 1);
        cache.insert(2, vec![], 0);
        assert!(cache.is_empty());
        assert_eq!(cache.get(1), None);
    }

    /// Byte-costed entries, as the verified-chunk cache inserts them.
    fn insert_bytes(cache: &mut LruCache<Vec<u8>>, key: usize, len: usize) {
        cache.insert(key, vec![key as u8; len], len);
    }

    #[test]
    fn loads_past_a_byte_budget_evict_least_recently_used_entries() {
        let mut cache = LruCache::new(10);
        insert_bytes(&mut cache, 0, 4);
        insert_bytes(&mut cache, 1, 4);
        assert_eq!(cache.cost(), 8);
        assert!(cache.get(0).is_some()); // 1 is now least recently used
        insert_bytes(&mut cache, 2, 4); // 12 > 10: evicts 1 alone
        assert_eq!((cache.len(), cache.cost()), (2, 8));
        assert!(cache.get(1).is_none());
        // A large entry evicts as many as it needs, oldest first.
        insert_bytes(&mut cache, 3, 9);
        assert_eq!((cache.len(), cache.cost()), (1, 9));
        assert!(cache.get(3).is_some());
        // Growing an entry in place re-counts its cost.
        insert_bytes(&mut cache, 3, 10);
        assert_eq!((cache.len(), cache.cost()), (1, 10));
    }

    #[test]
    fn resident_cost_never_exceeds_the_byte_budget() {
        let budget = 7;
        let mut cache = LruCache::new(budget);
        for i in 0..200usize {
            let len = 1 + (i * 5 + i / 3) % budget;
            insert_bytes(&mut cache, i % 11, len);
            let _ = cache.get((i * 3) % 11);
            assert!(cache.cost() <= budget, "step {i}: {} > {budget}", cache.cost());
        }
    }

    #[test]
    fn an_over_budget_entry_is_not_kept_and_evicts_nothing() {
        let mut cache = LruCache::new(6);
        insert_bytes(&mut cache, 0, 3);
        insert_bytes(&mut cache, 1, 3);
        insert_bytes(&mut cache, 2, 7);
        assert!(cache.get(2).is_none());
        assert_eq!((cache.len(), cache.cost()), (2, 6));
        assert!(cache.get(0).is_some() && cache.get(1).is_some());
    }
}
