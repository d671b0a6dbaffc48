//! A small size-bounded LRU cache for serving state.
//!
//! Two instances back the service: the **session cache** (user →
//! [`emigre_core::UserArtifacts`]) and the **column cache** (item →
//! reverse-push `PPR(·, item)` column). Both hold `Arc`ed values, so a
//! hit is a pointer clone and an eviction never invalidates state a
//! worker is still using.
//!
//! Recency is a logical clock stamped on every access; eviction scans for
//! the minimum stamp. `O(capacity)` per eviction — the caches are tens to
//! hundreds of entries, far below the threshold where an intrusive list
//! would pay for its complexity.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;

struct Entry<V> {
    value: V,
    stamp: u64,
}

/// Least-recently-used map with hit/miss/eviction accounting. Not
/// internally synchronised — the service wraps it in a `Mutex`.
pub struct LruCache<K: Eq + Hash, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, Entry<V>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "LruCache capacity must be at least 1");
        LruCache {
            cap,
            tick: 0,
            map: HashMap::with_capacity(cap),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Clone of the cached value, refreshing its recency. Counts a hit or
    /// a miss.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(e) => {
                e.stamp = tick;
                self.hits += 1;
                Some(e.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                stamp: self.tick,
            },
        );
    }

    /// Removes `key` outright, returning its value if present. Used to
    /// quarantine entries that fail integrity validation; not counted as
    /// an eviction (evictions measure capacity pressure, not hygiene).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|e| e.value)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Accounting snapshot for `/metrics`.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.map.len() as u64,
            capacity: self.cap as u64,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Borrowing iterator over the cached values, in no particular
    /// order; recency is untouched. Powers the byte-footprint gauges
    /// (`emigre_cache_bytes`), which must observe values without
    /// perturbing LRU state.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|e| &e.value)
    }
}

/// Point-in-time cache accounting, serialisable for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub len: u64,
    pub capacity: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// An [`LruCache`] whose entries are stamped with the graph epoch they
/// were computed on. Lookups pass the *pinned* epoch of the requesting
/// job: an entry from any other epoch is removed on sight, counted as a
/// stale invalidation, and reported as a miss — stale artefacts are never
/// returned, in either direction (an old request pinned to epoch *e*
/// also refuses an entry rebuilt on *e+1*).
///
/// Invalidation is **lazy**: publishing an epoch doesn't sweep the cache
/// (that would stall the write path on the cache lock); each entry dies
/// on its first post-bump touch, or by ordinary LRU pressure. Between a
/// publish and that first touch the stale entry occupies a slot but is
/// unreachable for serving.
///
/// Hit/miss accounting lives here, not in the inner cache, so that a
/// stale hit counts as a miss in `/metrics` (the caller must rebuild)
/// while the dedicated stale counter preserves the why.
pub struct EpochCache<K: Eq + Hash, V> {
    inner: LruCache<K, (u64, V)>,
    hits: u64,
    misses: u64,
    stale_invalidations: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> EpochCache<K, V> {
    /// A cache holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        EpochCache {
            inner: LruCache::new(cap),
            hits: 0,
            misses: 0,
            stale_invalidations: 0,
        }
    }

    /// Clone of the value cached *at* `epoch`, refreshing its recency.
    /// An entry stamped with any other epoch is invalidated and `None`
    /// is returned.
    pub fn get_at(&mut self, key: &K, epoch: u64) -> Option<V> {
        match self.inner.get(key) {
            Some((e, v)) if e == epoch => {
                self.hits += 1;
                Some(v)
            }
            Some(_) => {
                self.inner.remove(key);
                self.stale_invalidations += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key` stamped with the epoch it was computed on.
    pub fn insert_at(&mut self, key: K, epoch: u64, value: V) {
        self.inner.insert(key, (epoch, value));
    }

    /// Quarantine, exactly like [`LruCache::remove`].
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.remove(key).map(|(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Entries dropped because their epoch didn't match the pinned one.
    pub fn stale_invalidations(&self) -> u64 {
        self.stale_invalidations
    }

    /// Accounting snapshot for `/metrics`: len/capacity/evictions from
    /// the inner LRU, hit/miss from the epoch-aware layer.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            ..self.inner.stats()
        }
    }

    /// Borrowing iterator over the cached values (epoch stamps
    /// stripped), recency untouched — see [`LruCache::values`].
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.inner.values().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // refresh 1; 2 becomes LRU
        c.insert(3, 30);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh, no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn capacity_one_always_holds_the_latest_insert() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for i in 0..10u32 {
            c.insert(i, i * 10);
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&i), Some(i * 10));
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None, "previous entry was evicted");
            }
        }
        let s = c.stats();
        assert_eq!(s.evictions, 9);
        assert_eq!(s.len, 1);
        // Re-inserting the resident key is a refresh, not an eviction.
        c.insert(9, 91);
        assert_eq!(c.stats().evictions, 9);
        assert_eq!(c.get(&9), Some(91));
    }

    #[test]
    fn get_refreshes_recency_through_a_full_eviction_cycle() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(3, 3);
        // Touch in an order that inverts insertion recency: LRU is now 2.
        assert_eq!(c.get(&2), Some(2));
        assert_eq!(c.get(&1), Some(1));
        c.insert(4, 4); // evicts 3 (oldest stamp), not 1 or 2
        assert_eq!(c.get(&3), None);
        c.insert(5, 5); // evicts 2
        assert_eq!(c.get(&2), None);
        assert!(c.get(&1).is_some() && c.get(&4).is_some() && c.get(&5).is_some());
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn remove_quarantines_without_counting_an_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
        assert!(c.is_empty());
        assert_eq!(c.stats().evictions, 0, "hygiene is not capacity pressure");
        // The slot is genuinely free again.
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
    }

    // ---- EpochCache: epoch-keyed invalidation --------------------------
    //
    // These tests drive epochs off an `emigre_obs::ManualClock`, the same
    // injected-time device the sliding-window tests use: the "current
    // epoch" advances only when the test says so, making every
    // invalidation decision deterministic — no sleeps, no wall clock.

    use emigre_obs::ManualClock;

    fn manual_epoch() -> ManualClock {
        let (_, clock) = emigre_obs::SlidingWindow::with_manual_clock(4);
        clock
    }

    #[test]
    fn epoch_cache_serves_only_the_pinned_epoch() {
        let clock = manual_epoch();
        let mut c: EpochCache<u32, u32> = EpochCache::new(4);
        c.insert_at(1, clock.now_sec(), 10);
        assert_eq!(c.get_at(&1, clock.now_sec()), Some(10));

        // Epoch bump: the same key must now miss, and the stale entry is
        // gone (not just skipped).
        clock.advance(1);
        assert_eq!(c.get_at(&1, clock.now_sec()), None);
        assert_eq!(c.stale_invalidations(), 1);
        assert!(c.is_empty(), "stale entry was removed, not retained");

        // Rebuilt on the new epoch: hits again.
        c.insert_at(1, clock.now_sec(), 11);
        assert_eq!(c.get_at(&1, clock.now_sec()), Some(11));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn epoch_cache_refuses_newer_entries_for_older_pins() {
        // A request pinned to epoch 0 races a publish: the entry it finds
        // was rebuilt on epoch 1. Serving it would tear the request across
        // two graphs, so it must be refused too.
        let clock = manual_epoch();
        let mut c: EpochCache<u32, u32> = EpochCache::new(4);
        let pinned = clock.now_sec(); // the old request's pin
        clock.advance(1);
        c.insert_at(7, clock.now_sec(), 70); // rebuilt on the new epoch
        assert_eq!(c.get_at(&7, pinned), None);
        assert_eq!(c.stale_invalidations(), 1);
    }

    #[test]
    fn epoch_cache_invalidation_is_lazy_and_per_entry() {
        let clock = manual_epoch();
        let mut c: EpochCache<u32, u32> = EpochCache::new(8);
        for k in 0..4u32 {
            c.insert_at(k, clock.now_sec(), k * 10);
        }
        clock.advance(1);
        // Nothing swept eagerly at the bump...
        assert_eq!(c.len(), 4);
        // ...each entry dies on its first post-bump touch, independently.
        assert_eq!(c.get_at(&2, clock.now_sec()), None);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stale_invalidations(), 1);
        c.insert_at(2, clock.now_sec(), 21);
        assert_eq!(c.get_at(&2, clock.now_sec()), Some(21));
        // Untouched stale survivors still refuse to serve.
        assert_eq!(c.get_at(&3, clock.now_sec()), None);
        assert_eq!(c.stale_invalidations(), 2);
    }

    #[test]
    fn epoch_cache_counts_stale_as_miss_in_stats() {
        let clock = manual_epoch();
        let mut c: EpochCache<u32, u32> = EpochCache::new(2);
        c.insert_at(1, clock.now_sec(), 1);
        clock.advance(3); // epochs may jump by more than one
        assert_eq!(c.get_at(&1, clock.now_sec()), None);
        assert_eq!(c.get_at(&2, clock.now_sec()), None); // plain miss
        let s = c.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2, "stale and plain misses both count");
        assert_eq!(c.stale_invalidations(), 1, "only one was stale");
        assert_eq!(s.evictions, 0, "staleness is hygiene, not pressure");
    }

    #[test]
    fn epoch_cache_lru_pressure_still_applies_within_an_epoch() {
        let clock = manual_epoch();
        let mut c: EpochCache<u32, u32> = EpochCache::new(2);
        let e = clock.now_sec();
        c.insert_at(1, e, 10);
        c.insert_at(2, e, 20);
        assert_eq!(c.get_at(&1, e), Some(10)); // 2 becomes LRU
        c.insert_at(3, e, 30);
        assert_eq!(c.get_at(&2, e), None);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stale_invalidations(), 0);
    }

    /// The service serializes access through a mutex; this test hammers
    /// that exact usage pattern from many threads — concurrent hits,
    /// misses, inserts, and quarantines racing over a tiny capacity — and
    /// checks the invariants that the metrics endpoint reports from:
    /// `len ≤ capacity`, `hits + misses == gets`, and the cache still
    /// works after the storm.
    #[test]
    fn stats_stay_consistent_under_concurrent_eviction_races() {
        use parking_lot::Mutex;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let cache: Arc<Mutex<LruCache<u32, u32>>> = Arc::new(Mutex::new(LruCache::new(4)));
        let gets = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let gets = Arc::clone(&gets);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let key = (t.wrapping_mul(31).wrapping_add(i)) % 16;
                        let mut c = cache.lock();
                        match c.get(&key) {
                            Some(v) => assert_eq!(v, key * 10, "values never cross keys"),
                            None => c.insert(key, key * 10),
                        }
                        gets.fetch_add(1, Ordering::Relaxed);
                        assert!(c.len() <= c.capacity(), "eviction keeps the bound");
                        if i % 97 == 0 {
                            c.remove(&key); // quarantine racing the evictions
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let c = cache.lock();
        let s = c.stats();
        assert!(s.len <= s.capacity);
        assert_eq!(
            s.hits + s.misses,
            gets.load(Ordering::Relaxed),
            "every get is exactly one hit or one miss"
        );
        assert!(s.evictions > 0, "capacity 4 under 16 keys must evict");
        drop(c);
        // Post-race: the cache still behaves.
        let mut c = cache.lock();
        c.insert(99, 990);
        assert_eq!(c.get(&99), Some(990));
    }
}
