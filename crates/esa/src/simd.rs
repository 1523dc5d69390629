//! Runtime-dispatched SIMD paths for the ESA kernel.
//!
//! Two loops dominate corpus runs: the sparse dot behind
//! [`crate::kernel::cosine`] and the norm-bound prune in front of it.
//! This module accelerates both behind one runtime dispatch decision,
//! keeping the scalar loops in [`crate::kernel`] as the always-available
//! reference:
//!
//! * [`mask_dot`] — vectors whose concept ids all fall below 128 (the
//!   paper KB has 75 concepts, so that is the entire real workload) dot
//!   by *ranked mask intersection* instead of the merge: one 128-bit AND
//!   finds every common id, and hardware bit-manipulation (`tzcnt`,
//!   `popcnt`) recovers each weight index, making the cost O(matches)
//!   instead of O(|a| + |b|). The accumulation is the merge's own: one
//!   `f64` product per common id in ascending id order, so the result is
//!   **bit-identical** to [`crate::kernel::merge_dot`], not merely close.
//!   Wider vectors (ids ≥ 128, which only synthetic inputs have) take
//!   the scalar merge.
//! * [`BoundSoa`] — the norm-bound batch check over one-vs-many
//!   comparisons (the description analyzer's permission profiles) folds
//!   4 `f64` bounds per AVX2 step over structure-of-arrays inputs.
//!
//! Dispatch is decided once per process: `PPCHECKER_NO_SIMD=1` forces
//! the scalar reference, otherwise AVX2 is used when the CPU has it,
//! then SSE2 (x86-64 baseline), then scalar on other architectures.
//! [`force_scalar`] is the test/bench hook behind the differential
//! suites — flipping it at runtime is safe because every entry point
//! re-reads the dispatch word.

use std::sync::atomic::{AtomicU8, Ordering};

/// Dispatch states for [`DISPATCH`].
const UNDECIDED: u8 = 0;
const SCALAR: u8 = 1;
#[cfg(target_arch = "x86_64")]
const SSE2: u8 = 2;
#[cfg(target_arch = "x86_64")]
const AVX2: u8 = 3;

static DISPATCH: AtomicU8 = AtomicU8::new(UNDECIDED);

/// Environment + CPUID detection, run once (or again after
/// [`force_scalar`]`(false)`).
fn detect() -> u8 {
    let forced_off =
        std::env::var("PPCHECKER_NO_SIMD").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    if forced_off {
        return SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return AVX2;
        }
        SSE2
    }
    #[cfg(not(target_arch = "x86_64"))]
    SCALAR
}

#[inline]
fn dispatch() -> u8 {
    match DISPATCH.load(Ordering::Relaxed) {
        UNDECIDED => {
            let level = detect();
            DISPATCH.store(level, Ordering::Relaxed);
            level
        }
        level => level,
    }
}

/// `true` when a vector path (AVX2 or SSE2) is active.
pub fn simd_active() -> bool {
    dispatch() != SCALAR
}

/// Human-readable name of the active path (`"avx2"`, `"sse2"`,
/// `"scalar"`), for bench and metrics labels.
pub fn active_path() -> &'static str {
    match dispatch() {
        #[cfg(target_arch = "x86_64")]
        AVX2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        SSE2 => "sse2",
        _ => "scalar",
    }
}

/// Forces the scalar reference path (`true`) or re-runs detection
/// (`false`). Test and bench hook — the differential suites flip this to
/// compare both paths inside one process, which the env var (read once)
/// cannot do.
pub fn force_scalar(on: bool) {
    DISPATCH.store(if on { SCALAR } else { detect() }, Ordering::Relaxed);
}

/// Dot product of two *exact-mask* sparse vectors (every concept id
/// < 128, so bit `id` of the mask is set iff the vector stores id) by
/// ranked intersection: `a_mask & b_mask` enumerates the common ids in
/// ascending order, and the weight index of id `c` in a vector is the
/// popcount of its mask below bit `c` — exactly the CSR position,
/// because ids are strictly sorted. Accumulation is the same f64
/// ascending-id sum as [`crate::kernel::merge_dot`], so the result is
/// bit-identical to the merge on every eligible input.
///
/// Callers gate on [`simd_active`] so `PPCHECKER_NO_SIMD` and
/// [`force_scalar`] disable this path along with the vector bound check.
#[inline]
pub fn mask_dot(a_mask: u128, a_w: &[f32], b_mask: u128, b_w: &[f32]) -> f64 {
    let mut common = a_mask & b_mask;
    let mut dot = 0.0f64;
    while common != 0 {
        let bit = common.trailing_zeros();
        let below = (1u128 << bit) - 1;
        let ia = (a_mask & below).count_ones() as usize;
        let ib = (b_mask & below).count_ones() as usize;
        dot += a_w[ia] as f64 * b_w[ib] as f64;
        common &= common - 1;
    }
    dot
}

/// Structure-of-arrays prune inputs for a fixed set of vectors, built
/// once and checked against many queries: per-vector entry count and
/// prune scale (`max_weight / norm`, the reciprocal hoisted at
/// construction — see [`crate::kernel::SparseVector::prune_scale`]).
///
/// [`survivors`](Self::survivors) computes the norm upper bound
/// `min(|q|, |vᵢ|) · scale(q) · scale(vᵢ)` for every vector in 4-wide
/// `f64` lanes (AVX2) or scalar, writing one `bool` per vector: `true`
/// when the bound reaches `threshold - PRUNE_MARGIN` and the pair still
/// needs its exact dot. The expression order is identical in both paths,
/// and the margin absorbs the (few-ulp) rounding of the hoisted
/// reciprocals, so a `false` is always the verdict the exact cosine
/// would give.
#[derive(Debug, Default, Clone)]
pub struct BoundSoa {
    lens: Vec<f64>,
    scales: Vec<f64>,
}

impl BoundSoa {
    /// Builds the SoA arrays from a vector set.
    pub fn build<'a, I>(vectors: I) -> Self
    where
        I: IntoIterator<Item = &'a crate::kernel::SparseVector>,
    {
        let mut soa = BoundSoa::default();
        for v in vectors {
            soa.lens.push(v.len() as f64);
            soa.scales.push(v.prune_scale());
        }
        soa
    }

    /// Number of vectors in the set.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Writes `out[i] = bound(query, vᵢ) >= threshold - PRUNE_MARGIN`
    /// for every vector in the set (resizing `out` to the set's length)
    /// and returns the number of survivors. Requires `threshold > 0`;
    /// an empty or zero-norm query prunes everything, exactly as the
    /// per-pair bound does.
    pub fn survivors(
        &self,
        query: &crate::kernel::SparseVector,
        threshold: f64,
        out: &mut Vec<bool>,
    ) -> usize {
        debug_assert!(threshold > 0.0, "a zero threshold defeats the prune");
        out.clear();
        out.resize(self.lens.len(), false);
        let q_scale = query.prune_scale();
        if query.is_empty() || q_scale == 0.0 {
            return 0;
        }
        let q_len = query.len() as f64;
        let cut = threshold - crate::kernel::PRUNE_MARGIN;
        let mut survivors = 0usize;
        let mut i = 0usize;
        #[cfg(target_arch = "x86_64")]
        if dispatch() == AVX2 && self.lens.len() >= 4 {
            // SAFETY: AVX2 presence proven by detect().
            unsafe {
                i = self.survivors_avx2(q_len, q_scale, cut, out, &mut survivors);
            }
        }
        while i < self.lens.len() {
            let bound = (q_len.min(self.lens[i]) * q_scale) * self.scales[i];
            if bound >= cut {
                out[i] = true;
                survivors += 1;
            }
            i += 1;
        }
        survivors
    }

    /// 4-lane AVX2 fold over the full blocks; returns the index where the
    /// scalar remainder resumes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn survivors_avx2(
        &self,
        q_len: f64,
        q_scale: f64,
        cut: f64,
        out: &mut [bool],
        survivors: &mut usize,
    ) -> usize {
        use std::arch::x86_64::*;
        let qlen_v = _mm256_set1_pd(q_len);
        let qscale_v = _mm256_set1_pd(q_scale);
        let cut_v = _mm256_set1_pd(cut);
        let n = self.lens.len();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds both unaligned loads.
            let bounds = unsafe {
                let lens = _mm256_loadu_pd(self.lens.as_ptr().add(i));
                let scales = _mm256_loadu_pd(self.scales.as_ptr().add(i));
                // Same association as the scalar loop: (min · qscale) · scale.
                _mm256_mul_pd(_mm256_mul_pd(_mm256_min_pd(qlen_v, lens), qscale_v), scales)
            };
            let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(bounds, cut_v);
            let mut mask = _mm256_movemask_pd(ge) as u32;
            *survivors += mask.count_ones() as usize;
            while mask != 0 {
                let k = mask.trailing_zeros() as usize;
                out[i + k] = true;
                mask &= mask - 1;
            }
            i += 4;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{cosine_upper_bound, merge_dot, SparseVector, PRUNE_MARGIN};

    /// Seed-deterministic xorshift, matching the style of the taint
    /// kernel's differential tests (no rand dependency).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
            self.0 = x;
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// A strictly-sorted random id list with random positive weights.
    fn random_sorted(rng: &mut Rng, max_len: u64, id_space: u64) -> (Vec<u32>, Vec<f32>) {
        let len = rng.below(max_len) as usize;
        let mut ids: Vec<u32> = (0..len).map(|_| rng.below(id_space) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        let weights = ids.iter().map(|_| (1 + rng.below(1000)) as f32 / 250.0).collect();
        (ids, weights)
    }

    #[test]
    fn mask_dot_is_bit_identical_to_merge_for_narrow_vectors() {
        let mut rng = Rng(17);
        for case in 0..2000u64 {
            let (a_ids, a_w) = random_sorted(&mut rng, 40, 128);
            let (b_ids, b_w) = random_sorted(&mut rng, 40, 128);
            let a =
                SparseVector::from_sorted_pairs(a_ids.iter().copied().zip(a_w.clone()).collect());
            let b =
                SparseVector::from_sorted_pairs(b_ids.iter().copied().zip(b_w.clone()).collect());
            let merge = merge_dot(&a_ids, &a_w, &b_ids, &b_w);
            let masked = mask_dot(mask_of(&a_ids), &a_w, mask_of(&b_ids), &b_w);
            assert_eq!(merge.to_bits(), masked.to_bits(), "case {case}: {merge} vs {masked}");
            // And end to end: cosine (which picks the mask path when SIMD
            // is active) must match the forced-scalar cosine bit for bit.
            let auto = crate::kernel::cosine(&a, &b);
            force_scalar(true);
            let scalar = crate::kernel::cosine(&a, &b);
            force_scalar(false);
            assert_eq!(auto.to_bits(), scalar.to_bits(), "case {case}: cosine diverged");
        }
    }

    fn mask_of(ids: &[u32]) -> u128 {
        ids.iter().fold(0u128, |m, &id| m | (1u128 << id))
    }

    #[test]
    fn batch_survivors_agree_with_per_pair_bound() {
        let mut rng = Rng(23);
        let vectors: Vec<SparseVector> = (0..37)
            .map(|_| {
                let (ids, ws) = random_sorted(&mut rng, 40, 512);
                SparseVector::from_sorted_pairs(ids.into_iter().zip(ws).collect())
            })
            .collect();
        let soa = BoundSoa::build(vectors.iter());
        assert_eq!(soa.len(), vectors.len());
        let mut out = Vec::new();
        for threshold in [0.3, 0.67, 0.9] {
            for q in &vectors {
                let n = soa.survivors(q, threshold, &mut out);
                assert_eq!(n, out.iter().filter(|s| **s).count());
                for (i, v) in vectors.iter().enumerate() {
                    // Batch pruning must never drop a pair the per-pair
                    // bound would keep — that is the exactness direction
                    // verdicts depend on.
                    if cosine_upper_bound(q, v) >= threshold - PRUNE_MARGIN {
                        assert!(out[i], "batch pruned a surviving pair (threshold {threshold})");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_survivors_empty_query_prunes_all() {
        let v = SparseVector::from_sorted_pairs(vec![(1, 1.0)]);
        let soa = BoundSoa::build([&v]);
        let mut out = Vec::new();
        assert_eq!(soa.survivors(&SparseVector::default(), 0.67, &mut out), 0);
        assert_eq!(out, vec![false]);
    }
}
