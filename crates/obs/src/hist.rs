//! Lock-free fixed-bucket log2 histograms and the static registry they
//! live in.
//!
//! A histogram is 64 power-of-two buckets of relaxed `AtomicU64`s,
//! striped [`STRIPES`] ways so concurrent engine workers don't contend on
//! one cache line; [`Histogram::snapshot`] merges the stripes (the
//! "cross-shard aggregation" a batch performs at run end). Quantiles are
//! read off the merged buckets as upper bucket bounds — exact to within
//! a factor of two, which is what a tail-latency table needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Duration;

/// Number of log2 buckets: bucket *b* holds values in `[2^b, 2^(b+1))`
/// nanoseconds (0 and 1 both land in bucket 0).
pub const BUCKETS: usize = 64;

/// Concurrency stripes per histogram. Each recording thread picks a
/// stripe by thread id, so saturated worker pools update disjoint
/// atomics; snapshots merge all stripes.
pub const STRIPES: usize = 8;

/// The bucket index of a nanosecond value: `floor(log2(max(v, 1)))`.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b`, saturating at `u64::MAX`.
#[inline]
pub fn bucket_upper_bound(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

#[derive(Debug)]
struct Stripe {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log2 latency histogram (nanosecond domain).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    stripes: [Stripe; STRIPES],
}

impl Histogram {
    fn new(name: &'static str) -> Self {
        Histogram { name, stripes: std::array::from_fn(|_| Stripe::new()) }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one nanosecond value.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let stripe = &self.stripes[crate::span::thread_tid() as usize % STRIPES];
        stripe.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(ns, Ordering::Relaxed);
        stripe.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Merges every stripe into one snapshot (the cross-shard aggregation
    /// step). Deterministic for a fixed set of recorded values: merging
    /// is commutative and associative, so stripe/worker assignment cannot
    /// change the result.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for stripe in &self.stripes {
            let shard = HistogramSnapshot {
                buckets: std::array::from_fn(|b| stripe.buckets[b].load(Ordering::Relaxed)),
                count: stripe.count.load(Ordering::Relaxed),
                sum: stripe.sum.load(Ordering::Relaxed),
                max: stripe.max.load(Ordering::Relaxed),
            };
            out.merge(&shard);
        }
        out
    }
}

/// An immutable view of a histogram (or a merge/delta of several).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed nanoseconds.
    pub sum: u64,
    /// Largest observed value. Lifetime high-water mark: a delta keeps
    /// the later snapshot's max (per-interval maxima are not recoverable
    /// from monotonic counters).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Merges `other` in (bucket-wise sum, max of maxes). Commutative and
    /// associative, so any merge order over a set of shards produces the
    /// identical snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The growth since `earlier` (bucket-wise saturating difference).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (b, e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*e);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the upper bound
    /// of the bucket holding the rank-`ceil(q·count)` observation,
    /// clamped to the observed max.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(b).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        Duration::from_nanos(self.quantile_ns(0.50))
    }

    /// 90th-percentile latency.
    pub fn p90(&self) -> Duration {
        Duration::from_nanos(self.quantile_ns(0.90))
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        Duration::from_nanos(self.quantile_ns(0.99))
    }

    /// Largest observed latency.
    pub fn max_duration(&self) -> Duration {
        Duration::from_nanos(self.max)
    }

    /// Sum of all observed latency.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.sum)
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.sum.checked_div(self.count).unwrap_or(0))
    }
}

/// The static metric registry: histograms by name, created on first use
/// and immortal (`Box::leak`, bounded by the fixed set of instrumented
/// stage names).
#[derive(Debug, Default)]
pub struct Registry {
    hists: RwLock<Vec<&'static Histogram>>,
}

impl Registry {
    /// Get-or-create the histogram named `name`.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        if let Some(h) =
            self.hists.read().expect("obs registry lock").iter().find(|h| h.name == name)
        {
            return h;
        }
        let mut w = self.hists.write().expect("obs registry lock");
        if let Some(h) = w.iter().find(|h| h.name == name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new(name)));
        w.push(h);
        h
    }

    /// Snapshot of every histogram, sorted by name for deterministic
    /// iteration.
    pub fn snapshot(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        let mut out: Vec<(&'static str, HistogramSnapshot)> = self
            .hists
            .read()
            .expect("obs registry lock")
            .iter()
            .map(|h| (h.name, h.snapshot()))
            .collect();
        out.sort_unstable_by_key(|(name, _)| *name);
        out
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(7), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        // Every boundary: 2^b is the first value of bucket b, 2^b - 1 the
        // last of bucket b-1.
        for b in 1..63 {
            assert_eq!(bucket_of(1u64 << b), b as usize, "lower edge of bucket {b}");
            assert_eq!(bucket_of((1u64 << b) - 1), b as usize - 1, "upper edge below bucket {b}");
        }
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn quantiles_read_off_merged_buckets() {
        let h = Histogram::new("test.quantiles");
        // 90 fast (≈100ns), 9 medium (≈10µs), 1 slow (≈1ms).
        for _ in 0..90 {
            h.record_ns(100);
        }
        for _ in 0..9 {
            h.record_ns(10_000);
        }
        h.record_ns(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1_000_000);
        assert!(
            s.quantile_ns(0.50) < 256,
            "p50 {} should sit in the fast bucket",
            s.quantile_ns(0.5)
        );
        assert!((4_096..=16_384).contains(&s.quantile_ns(0.91)), "p91 {}", s.quantile_ns(0.91));
        assert_eq!(s.quantile_ns(1.0), 1_000_000, "p100 clamps to the observed max");
        assert!(s.mean() >= Duration::from_nanos(100));
        assert_eq!(s.total(), Duration::from_nanos(90 * 100 + 9 * 10_000 + 1_000_000));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new("test.empty").snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile_ns(0.99), 0);
        assert_eq!(s.mean(), Duration::ZERO);
    }

    #[test]
    fn cross_shard_merge_is_order_independent() {
        // Simulate per-worker shards with distinct value mixes, then merge
        // in two different orders: identical snapshots either way.
        let shards: Vec<HistogramSnapshot> = (0..6)
            .map(|w| {
                let h = Histogram::new("test.merge");
                for i in 0..50u64 {
                    h.record_ns((w as u64 + 1) * 100 + i * 37);
                }
                h.snapshot()
            })
            .collect();
        let mut forward = HistogramSnapshot::default();
        for s in &shards {
            forward.merge(s);
        }
        let mut reverse = HistogramSnapshot::default();
        for s in shards.iter().rev() {
            reverse.merge(s);
        }
        assert_eq!(forward, reverse);
        assert_eq!(forward.count, 300);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(forward.quantile_ns(q), reverse.quantile_ns(q));
        }
    }

    #[test]
    fn delta_since_subtracts_bucketwise() {
        let h = Histogram::new("test.delta");
        h.record_ns(100);
        h.record_ns(200);
        let before = h.snapshot();
        h.record_ns(100_000);
        let delta = h.snapshot().delta_since(&before);
        assert_eq!(delta.count, 1);
        assert_eq!(delta.sum, 100_000);
        assert_eq!(delta.buckets[bucket_of(100_000)], 1);
        assert_eq!(delta.buckets[bucket_of(100)], 0);
    }

    #[test]
    fn striped_recording_snapshots_consistently() {
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new("test.striped")));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        h.record_ns(i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(s.max, 999);
    }

    #[test]
    fn registry_returns_same_instance_per_name() {
        let a = registry().histogram("test.registry.same");
        let b = registry().histogram("test.registry.same");
        assert!(std::ptr::eq(a, b));
        let names: Vec<&str> = registry().snapshot().iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot is name-sorted");
    }
}
