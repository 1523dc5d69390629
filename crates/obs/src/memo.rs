//! [`Memo`]: the one cache map of the pipeline — ESA's interpretation
//! vectors and pair verdicts and the engine's policy sentence verdicts
//! all live in one (DESIGN.md §12).
//!
//! A memo has three properties:
//!
//! - **Fill once.** Each resident key owns a `OnceLock` cell. However
//!   many threads ask for a new key at once, one of them computes the
//!   value; the others block on the cell, then read it.
//! - **Exact counts.** Every lookup counts exactly one hit or one miss.
//!   A miss means this call computed the value, so `misses` is the
//!   number of values this process computed, for any thread
//!   interleaving.
//! - **Cap.** Past `cap` resident keys a miss computes its value without
//!   admitting it, so a resident process holds at most `cap` values.
//!
//! The map is one `RwLock<HashMap>` with std's randomly keyed SipHash:
//! some keys (policy sentences, description phrases) come from outside
//! the program. A hit takes the read lock and clones the value; the
//! computation never runs under the lock.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed their value.
    pub misses: u64,
    /// Entries resident at snapshot time.
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The lookups counted since `earlier`; `entries` stays the value
    /// resident now.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
        }
    }
}

/// A thread-safe, cap-bounded, fill-once memo (see the module docs).
#[derive(Debug)]
pub struct Memo<K, V> {
    map: RwLock<HashMap<K, Arc<OnceLock<V>>>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo admitting at most `cap` keys.
    pub fn new(cap: usize) -> Self {
        Memo { map: RwLock::default(), cap, hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// The value of `key`, computed with `compute` when no resident value
    /// exists; a computation counts one miss. A panicking `compute`
    /// passes its panic to the caller and leaves the key empty, so the
    /// next lookup fills it. `compute` may use other memos but must not
    /// look up its own key, which would wait on itself.
    pub fn get_or_compute<Q>(&self, key: &Q, compute: impl FnOnce() -> V) -> V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned + ?Sized,
        Q::Owned: Into<K>,
    {
        let hit = self.map.read().expect("memo lock").get(key).and_then(|cell| cell.get().cloned());
        if let Some(value) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        let compute = || {
            let value = compute();
            self.misses.fetch_add(1, Ordering::Relaxed);
            value
        };
        let Some(cell) = self.cell(key) else {
            return compute();
        };
        let mut filled_here = false;
        let value = cell
            .get_or_init(|| {
                filled_here = true;
                compute()
            })
            .clone();
        if !filled_here {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// The cell of `key`, inserted empty on first sight; `None` when the
    /// key is absent and the memo is full.
    fn cell<Q>(&self, key: &Q) -> Option<Arc<OnceLock<V>>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned + ?Sized,
        Q::Owned: Into<K>,
    {
        let mut map = self.map.write().expect("memo lock");
        if let Some(cell) = map.get(key) {
            return Some(Arc::clone(cell));
        }
        if map.len() >= self.cap {
            return None;
        }
        let cell = Arc::new(OnceLock::new());
        map.insert(key.to_owned().into(), Arc::clone(&cell));
        Some(cell)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().expect("memo lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn concurrent_askers_of_a_new_key_fill_it_once() {
        let memo: Memo<u32, u64> = Memo::new(16);
        let fills = AtomicUsize::new(0);
        let threads = 8;
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    start.wait();
                    let value = memo.get_or_compute(&7, || {
                        fills.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(50));
                        49
                    });
                    assert_eq!(value, 49);
                });
            }
        });
        assert_eq!(fills.load(Ordering::Relaxed), 1, "the fill ran more than once");
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, threads - 1, 1));
    }

    #[test]
    fn every_lookup_counts_once_and_entries_stay_within_the_cap() {
        for cap in 1..=4 {
            let memo: Memo<Box<str>, String> = Memo::new(cap);
            let keys: Vec<String> = (0..6).map(|i| format!("key {i}")).collect();
            let (threads, per_thread) = (8, 24);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (memo, keys) = (&memo, &keys);
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            let key = &keys[(t + i) % keys.len()];
                            assert_eq!(
                                memo.get_or_compute(key.as_str(), || key.to_uppercase()),
                                key.to_uppercase()
                            );
                        }
                    });
                }
            });
            let stats = memo.stats();
            assert_eq!(stats.hits + stats.misses, (threads * per_thread) as u64, "cap={cap}");
            assert_eq!(stats.entries, cap, "cap={cap}");
            assert!(stats.misses >= keys.len() as u64, "cap={cap}: every key computed");
        }
    }

    #[test]
    fn past_the_cap_every_lookup_of_an_unadmitted_key_computes() {
        let memo: Memo<u32, u32> = Memo::new(1);
        let computes = AtomicUsize::new(0);
        let square = |k: u32| {
            computes.fetch_add(1, Ordering::Relaxed);
            k * k
        };
        assert_eq!(memo.get_or_compute(&2, || square(2)), 4);
        for _ in 0..3 {
            assert_eq!(memo.get_or_compute(&3, || square(3)), 9);
        }
        assert_eq!(memo.get_or_compute(&2, || square(2)), 4);
        assert_eq!(computes.load(Ordering::Relaxed), 4, "the admitted key computed once");
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (4, 1, 1));
        let earlier = CacheStats { hits: 1, misses: 1, entries: 9 };
        assert_eq!(stats.delta_since(&earlier), CacheStats { hits: 0, misses: 3, entries: 1 });
    }

    #[test]
    fn a_panicking_fill_reaches_its_caller_and_the_key_fills_later() {
        let memo: Memo<u32, u32> = Memo::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(&1, || panic!("fill failed"))
        }));
        let message = caught.expect_err("the panic must reach the caller");
        assert_eq!(message.downcast_ref::<&str>(), Some(&"fill failed"));
        assert_eq!(memo.get_or_compute(&1, || 10), 10);
        assert_eq!(memo.get_or_compute(&1, || 11), 10);
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }
}
