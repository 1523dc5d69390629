//! [`Memo`]: the one cache map of the pipeline — ESA's interpretation
//! vectors and pair verdicts and the engine's policy sentence verdicts
//! all live in one (DESIGN.md §12).
//!
//! A memo has three properties:
//!
//! - **Fill once.** A key seen for the first time gets a `Pending` slot
//!   holding an `Arc<OnceLock>` cell. However many threads ask for the
//!   key at once, one of them computes the value; the others block on
//!   the cell, then read it. The thread that computed it replaces the
//!   slot with `Ready(value)`, so a filled entry is its key and its value
//!   and nothing more.
//! - **Exact counts.** Every lookup counts exactly one hit or one miss.
//!   A miss means this call computed the value, so `misses` is the
//!   number of values this process computed, for any thread
//!   interleaving.
//! - **Cap.** Past `cap` resident keys a miss computes its value without
//!   admitting it, so a resident process holds at most `cap` values. The
//!   map never shrinks, so a miss that finds it full under the read lock
//!   computes at once and never takes the write lock.
//!
//! `compute` receives the key the map keeps (a fresh one past the cap),
//! so a value may share it: the policy cache's analyzed sentences hold
//! their key's `Arc<str>` as their text.
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

/// A key a memo can keep, built from the borrowed form a lookup probes
/// with: a copy of a plain value, or one allocation for shared text.
pub trait MemoKey<Q: ?Sized>: Borrow<Q> + Hash + Eq + Clone {
    /// The key to keep for `probe`.
    fn from_probe(probe: &Q) -> Self;
}

impl<K: Copy + Hash + Eq> MemoKey<K> for K {
    fn from_probe(probe: &K) -> K {
        *probe
    }
}

impl MemoKey<str> for Arc<str> {
    fn from_probe(probe: &str) -> Arc<str> {
        Arc::from(probe)
    }
}

/// One resident key's entry.
#[derive(Debug)]
enum Slot<V> {
    /// The filled value.
    Ready(V),
    /// A fill in flight: its filler and any thread that asks meanwhile
    /// share the cell.
    Pending(Arc<OnceLock<V>>),
}

/// What a lookup found under a lock.
enum Probe<K, V> {
    Hit(V),
    Join(K, Arc<OnceLock<V>>),
    Full,
    Absent,
}

/// A thread-safe, cap-bounded, fill-once memo (see the module docs).
#[derive(Debug)]
pub struct Memo<K, V> {
    map: RwLock<HashMap<K, Slot<V>>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    /// An empty memo admitting at most `cap` keys.
    pub fn new(cap: usize) -> Self {
        Memo { map: RwLock::default(), cap, hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// The value of `key`, computed with `compute` when no resident value
    /// exists; a computation counts one miss. `compute` gets the key the
    /// memo keeps, or a fresh one when the memo is full. A panicking
    /// `compute` passes its panic to the caller and leaves the key
    /// empty, so a thread already waiting on it, or else the next
    /// lookup, fills it. `compute` may use other memos but must not look
    /// up its own key, which would wait on itself.
    pub fn get_or_compute<Q>(&self, key: &Q, compute: impl FnOnce(&K) -> V) -> V
    where
        K: MemoKey<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let probe = {
            let map = self.map.read().expect("memo lock");
            match map.get_key_value(key) {
                Some((_, Slot::Ready(value))) => {
                    let value = value.clone();
                    drop(map);
                    return self.hit(value);
                }
                found => self.probe(found, map.len()),
            }
        };
        let (kept, cell) = match probe {
            Probe::Hit(value) => return self.hit(value),
            Probe::Full => return self.miss(compute(&K::from_probe(key))),
            Probe::Join(kept, cell) => (kept, cell),
            Probe::Absent => {
                let mut map = self.map.write().expect("memo lock");
                match self.probe(map.get_key_value(key), map.len()) {
                    Probe::Hit(value) => return self.hit(value),
                    Probe::Full => {
                        drop(map);
                        return self.miss(compute(&K::from_probe(key)));
                    }
                    Probe::Join(kept, cell) => (kept, cell),
                    Probe::Absent => {
                        let kept = K::from_probe(key);
                        let cell = Arc::new(OnceLock::new());
                        map.insert(kept.clone(), Slot::Pending(Arc::clone(&cell)));
                        (kept, cell)
                    }
                }
            }
        };
        let mut filled_here = false;
        let value = cell
            .get_or_init(|| {
                let value = compute(&kept);
                filled_here = true;
                value
            })
            .clone();
        if !filled_here {
            return self.hit(value);
        }
        if let Some(slot) = self.map.write().expect("memo lock").get_mut(key) {
            *slot = Slot::Ready(value.clone());
        }
        self.miss(value)
    }

    /// What a lookup that found `found` in a map of `len` keys does.
    fn probe(&self, found: Option<(&K, &Slot<V>)>, len: usize) -> Probe<K, V> {
        match found {
            Some((_, Slot::Ready(value))) => Probe::Hit(value.clone()),
            Some((kept, Slot::Pending(cell))) => Probe::Join(kept.clone(), Arc::clone(cell)),
            None if len >= self.cap => Probe::Full,
            None => Probe::Absent,
        }
    }

    fn hit(&self, value: V) -> V {
        self.hits.fetch_add(1, Ordering::Relaxed);
        value
    }

    fn miss(&self, value: V) -> V {
        self.misses.fetch_add(1, Ordering::Relaxed);
        value
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
                    let value = memo.get_or_compute(&7, |_| {
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
            let memo: Memo<Arc<str>, String> = Memo::new(cap);
            let keys: Vec<String> = (0..6).map(|i| format!("key {i}")).collect();
            let (threads, per_thread) = (8, 24);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (memo, keys) = (&memo, &keys);
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            let key = &keys[(t + i) % keys.len()];
                            assert_eq!(
                                memo.get_or_compute(key.as_str(), |kept| kept.to_uppercase()),
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
        assert_eq!(memo.get_or_compute(&2, |&k| square(k)), 4);
        for _ in 0..3 {
            assert_eq!(memo.get_or_compute(&3, |&k| square(k)), 9);
        }
        assert_eq!(memo.get_or_compute(&2, |&k| square(k)), 4);
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
            memo.get_or_compute(&1, |_| panic!("fill failed"))
        }));
        let message = caught.expect_err("the panic must reach the caller");
        assert_eq!(message.downcast_ref::<&str>(), Some(&"fill failed"));
        assert_eq!(memo.get_or_compute(&1, |_| 10), 10);
        assert_eq!(memo.get_or_compute(&1, |_| 11), 10);
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert!(memo.is_ready(&1), "the refill left its value in the map");
    }

    /// A thread that joins a fill in flight, whose filler then panics,
    /// computes the value itself: one miss, and the entry is ready for
    /// every later lookup.
    #[test]
    fn a_joiner_of_a_panicked_fill_computes_it_and_later_lookups_hit() {
        let memo: Memo<u32, u32> = Memo::new(4);
        let filling = std::sync::Barrier::new(2);
        let joiner_fills = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let filler = scope.spawn(|| {
                memo.get_or_compute(&1, |_| {
                    filling.wait();
                    // Whenever the joiner arrives it finds the pending
                    // slot; the pause makes it likely that it is already
                    // blocked on the cell when the panic comes, which no
                    // barrier can observe.
                    std::thread::sleep(Duration::from_millis(100));
                    panic!("fill failed")
                })
            });
            let joiner = scope.spawn(|| {
                filling.wait();
                assert!(!memo.is_ready(&1), "the fill is still in flight");
                memo.get_or_compute(&1, |&k| {
                    joiner_fills.fetch_add(1, Ordering::Relaxed);
                    k + 9
                })
            });
            assert!(filler.join().is_err(), "the filler's panic reaches it");
            assert_eq!(joiner.join().expect("the joiner computes"), 10);
        });
        assert_eq!(joiner_fills.load(Ordering::Relaxed), 1);
        assert_eq!((memo.stats().misses, memo.stats().hits), (1, 0));
        assert!(memo.is_ready(&1));
        for _ in 0..3 {
            assert_eq!(memo.get_or_compute(&1, |_| unreachable!("a ready key recomputed")), 10);
        }
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 3, 1));
    }

    /// `compute` gets the very key the map keeps, so a value can share
    /// it; past the cap it gets a fresh key the map does not hold.
    #[test]
    fn compute_receives_the_kept_key_and_a_fresh_one_past_the_cap() {
        let memo: Memo<Arc<str>, Arc<str>> = Memo::new(1);
        let value = memo.get_or_compute("kept", Arc::clone);
        let map = memo.map.read().expect("memo lock");
        let (kept, _) = map.get_key_value("kept").expect("admitted");
        assert!(Arc::ptr_eq(kept, &value), "compute saw a copy of the key");
        drop(map);
        let hit = memo.get_or_compute("kept", |_| unreachable!("a ready key recomputed"));
        assert!(Arc::ptr_eq(&hit, &value));

        let first = memo.get_or_compute("past", Arc::clone);
        let second = memo.get_or_compute("past", Arc::clone);
        assert_eq!((&*first, &*second), ("past", "past"));
        assert!(!Arc::ptr_eq(&first, &second), "each past-cap miss builds its own key");
        assert!(memo.map.read().expect("memo lock").get("past").is_none());
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (3, 1, 1));
    }

    impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
        /// Whether `key` holds a filled value in the map.
        fn is_ready(&self, key: &K) -> bool {
            matches!(self.map.read().expect("memo lock").get(key), Some(Slot::Ready(_)))
        }
    }
}
