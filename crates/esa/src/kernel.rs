//! The CSR sparse-vector kernel behind ESA similarity.
//!
//! The ESA hot path is "dot product of two small sparse vectors", asked
//! millions of times per corpus run. This module keeps all of that math on
//! flat sorted arrays:
//!
//! - [`CsrIndex`] compiles the term → concept inverted index into
//!   compressed-sparse-row form — one shared `Vec<u32>` of concept ids, one
//!   shared `Vec<f32>` of weights, and per-term offsets — built once in
//!   `Interpreter::new`. A term's interpretation is a contiguous slice pair,
//!   not a heap-allocated map.
//! - [`SparseVector`] is an interpretation vector as sorted concept ids
//!   with parallel weights (structure-of-arrays: the id scan of the merge
//!   never drags weight bytes through cache) plus a 128-bit concept
//!   occupancy mask, its L2 norm and its max weight, all precomputed.
//! - [`dot`] has two bodies, chosen by the vectors alone. When every id
//!   of both vectors is below 128 (the paper KB has 75 concepts, so that
//!   is the whole real workload), [`mask_dot`] intersects the 128-bit
//!   occupancy masks; otherwise [`merge_dot`] runs a branchless linear
//!   two-pointer merge. Both sum one `f64` product per common id in
//!   ascending id order, so they agree bit for bit.
//! - Two O(1) rejections guard the dot: the mask intersection proves
//!   disjointness without touching the arrays, and
//!   [`cosine_upper_bound`] proves "below threshold" for the predicate
//!   without computing the dot (see DESIGN.md §10 for the exactness
//!   argument).
//!
//! Weights are stored as `f32` (the tf-idf values carry nowhere near 24 bits
//! of signal); all accumulation happens in `f64`, and the public similarity
//! API stays `f64`.

use std::borrow::Cow;
use std::collections::HashMap;

/// A sparse concept-space vector: strictly-sorted concept ids with
/// parallel weights, plus precomputed occupancy mask, L2 norm and maximum
/// weight.
///
/// The norm and max weight are derived from the stored (f32-rounded)
/// weights so every consumer sees one consistent quantization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    ids: Vec<u32>,
    weights: Vec<f32>,
    /// Bit `id % 128` set for every stored concept id: a zero mask
    /// intersection proves two vectors share no concept (collisions only
    /// ever create false overlap, handled by the merge).
    mask: u128,
    /// `true` when every id is < 128, i.e. the mask is an *exact* occupancy
    /// set rather than a collision filter. Two exact vectors dot by
    /// ranked mask intersection ([`mask_dot`]) instead of the merge — the
    /// paper KB has 75 concepts, so the entire real workload qualifies.
    mask_exact: bool,
    norm: f64,
    max_weight: f32,
    /// Hoisted prune factor `max_weight / norm` (`0.0` for empty vectors),
    /// so the norm-bound predicate is two multiplies with no division.
    prune_scale: f64,
}

impl SparseVector {
    /// Builds a vector from possibly unsorted, possibly duplicated
    /// `(concept, weight)` contributions; duplicates are summed in `f64`
    /// in their input order (so accumulation matches the HashMap reference
    /// implementation bit-for-bit before the final f32 rounding).
    pub fn from_contributions(mut contributions: Vec<(u32, f64)>) -> Self {
        contributions.sort_by_key(|&(c, _)| c); // stable: preserves input order per concept
        let mut coalesced: Vec<(u32, f64)> = Vec::with_capacity(contributions.len());
        for (concept, w) in contributions {
            match coalesced.last_mut() {
                Some((last, acc)) if *last == concept => *acc += w,
                _ => coalesced.push((concept, w)),
            }
        }
        Self::from_sorted_pairs(coalesced.into_iter().map(|(c, w)| (c, w as f32)).collect())
    }

    /// Builds a vector from already-sorted, already-coalesced pairs.
    pub fn from_sorted_pairs(pairs: Vec<(u32, f32)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "pairs must be strictly sorted");
        let mut ids = Vec::with_capacity(pairs.len());
        let mut weights = Vec::with_capacity(pairs.len());
        let mut mask = 0u128;
        let mut norm_sq = 0.0f64;
        let mut max_weight = 0.0f32;
        for (concept, w) in pairs {
            ids.push(concept);
            weights.push(w);
            mask |= 1u128 << (concept % 128);
            norm_sq += (w as f64) * (w as f64);
            max_weight = max_weight.max(w);
        }
        // Ids are strictly sorted, so the last one is the largest.
        let mask_exact = ids.last().is_none_or(|&id| id < 128);
        let norm = norm_sq.sqrt();
        let prune_scale = if norm == 0.0 { 0.0 } else { max_weight as f64 * (1.0 / norm) };
        SparseVector { ids, weights, mask, mask_exact, norm, max_weight, prune_scale }
    }

    /// The sorted concept ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The weights, parallel to [`ids`](Self::ids).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The vector as `(concept id, weight)` pairs (allocates; for tests
    /// and interop — the hot path reads the parallel arrays directly).
    pub fn pairs(&self) -> Vec<(u32, f32)> {
        self.ids.iter().copied().zip(self.weights.iter().copied()).collect()
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the vector has no known-term mass.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Precomputed L2 norm.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Largest single weight.
    pub fn max_weight(&self) -> f32 {
        self.max_weight
    }

    /// Hoisted norm-bound prune factor `max_weight / norm` (the reciprocal
    /// is folded in at construction; `0.0` for empty vectors). The cosine
    /// upper bound of a pair is `min(|a|,|b|) · a.prune_scale() ·
    /// b.prune_scale()` — no division on the prune path.
    pub fn prune_scale(&self) -> f64 {
        self.prune_scale
    }
}

/// Dot product of two sorted sparse vectors (as parallel id/weight
/// slices) by branchless linear two-pointer merge, accumulated in `f64`.
/// Generic over the stored weight width so one merge loop serves both the
/// f32 kernel vectors and the retained f64 HashMap reference path
/// ([`crate::cosine`]).
#[inline]
pub fn merge_dot<A, B>(a_ids: &[u32], a_weights: &[A], b_ids: &[u32], b_weights: &[B]) -> f64
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    debug_assert_eq!(a_ids.len(), a_weights.len());
    debug_assert_eq!(b_ids.len(), b_weights.len());
    let mut dot = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a_ids.len() && j < b_ids.len() {
        let (ca, cb) = (a_ids[i], b_ids[j]);
        if ca == cb {
            dot += a_weights[i].into() * b_weights[j].into();
            i += 1;
            j += 1;
        } else {
            // Branchless advance: the comparison results are materialized
            // as 0/1 instead of predicted, so random id interleavings
            // don't stall the pipeline.
            i += (ca < cb) as usize;
            j += (cb < ca) as usize;
        }
    }
    dot
}

/// Exact cosine of two kernel vectors, clamped to `[0, 1]`; `0.0` when
/// either vector is empty. Provably-disjoint pairs (empty mask
/// intersection) return without touching the arrays.
#[inline]
pub fn cosine(a: &SparseVector, b: &SparseVector) -> f64 {
    if a.norm == 0.0 || b.norm == 0.0 || a.mask & b.mask == 0 {
        return 0.0;
    }
    (dot(a, b) / (a.norm * b.norm)).clamp(0.0, 1.0)
}

/// Dot product of two *exact-mask* sparse vectors (every concept id
/// < 128, so bit `id` of the mask is set iff the vector stores id) by
/// ranked intersection: `a_mask & b_mask` enumerates the common ids in
/// ascending order, and the weight index of id `c` in a vector is the
/// popcount of its mask below bit `c` — exactly the CSR position,
/// because ids are strictly sorted. The cost is O(matches) instead of
/// O(|a| + |b|). Accumulation is the same f64 ascending-id sum as
/// [`merge_dot`], so the result is bit-identical to the merge on every
/// eligible input.
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

/// The dot product behind [`cosine`]: [`mask_dot`] when both vectors'
/// ids fit the exact 128-bit occupancy mask, [`merge_dot`] otherwise.
/// Both accumulate the same way (f64, ascending id), so the choice never
/// changes a bit of the result.
#[inline]
pub fn dot(a: &SparseVector, b: &SparseVector) -> f64 {
    if a.mask_exact && b.mask_exact {
        mask_dot(a.mask, &a.weights, b.mask, &b.weights)
    } else {
        merge_dot(&a.ids, &a.weights, &b.ids, &b.weights)
    }
}

/// A cheap upper bound on `cosine(a, b)`.
///
/// At most `min(|a|, |b|)` concept ids can coincide, and each coinciding
/// product is at most `max_w(a) · max_w(b)`, so
/// `dot(a, b) ≤ min(|a|,|b|) · max_w(a) · max_w(b)` — dividing by the norms
/// bounds the cosine. The per-vector factor `max_w / norm` is hoisted into
/// [`SparseVector::prune_scale`] at construction, so the predicate here is
/// two multiplies and no division. The bound never undercuts the true
/// cosine (beyond f64 rounding, which callers absorb with
/// [`PRUNE_MARGIN`]), so a threshold predicate may return `false` without
/// the merge whenever the bound falls below the threshold. Mask-disjoint
/// pairs bound to `0.0` exactly.
#[inline]
pub fn cosine_upper_bound(a: &SparseVector, b: &SparseVector) -> f64 {
    if a.norm == 0.0 || b.norm == 0.0 || a.mask & b.mask == 0 {
        return 0.0;
    }
    let overlap = a.len().min(b.len()) as f64;
    let bound = (overlap * a.prune_scale) * b.prune_scale;
    bound.min(1.0)
}

/// Safety margin for norm-bound pruning: the predicate only prunes when
/// `bound < threshold - PRUNE_MARGIN`, absorbing f64 rounding in the bound
/// so a pruned `false` is always the verdict the exact cosine would give.
pub const PRUNE_MARGIN: f64 = 1e-9;

/// The term → concept inverted index in compressed-sparse-row layout.
///
/// Row `t` (a term's L2-normalized tf-idf interpretation) is the slice pair
/// `concept_ids[offsets[t]..offsets[t+1]]` / `weights[offsets[t]..offsets[t+1]]`,
/// sorted by concept id. Built once; lookups never allocate. Term texts
/// borrow from the knowledge base unless normalization rewrote them, and
/// keep std's keyed SipHash: the terms looked up come from the texts
/// being compared.
#[derive(Debug, Default)]
pub struct CsrIndex {
    term_ids: HashMap<Cow<'static, str>, u32>,
    offsets: Vec<u32>,
    concept_ids: Vec<u32>,
    weights: Vec<f32>,
}

impl CsrIndex {
    /// Assembles an index whose row `term_ids[t]` is the window
    /// `offsets[t]..offsets[t + 1]` of `concept_ids` and `weights`, each
    /// window strictly sorted by concept id.
    pub(crate) fn from_parts(
        term_ids: HashMap<Cow<'static, str>, u32>,
        offsets: Vec<u32>,
        concept_ids: Vec<u32>,
        weights: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), term_ids.len() + 1);
        debug_assert_eq!(offsets.last().copied(), Some(concept_ids.len() as u32));
        debug_assert_eq!(concept_ids.len(), weights.len());
        debug_assert!(
            offsets.windows(2).all(|w| {
                concept_ids[w[0] as usize..w[1] as usize].windows(2).all(|c| c[0] < c[1])
            }),
            "rows must be strictly sorted by concept id"
        );
        CsrIndex { term_ids, offsets, concept_ids, weights }
    }

    /// The row id of `term`, if the term occurs in the knowledge base.
    pub fn term_id(&self, term: &str) -> Option<u32> {
        self.term_ids.get(term).copied()
    }

    /// The posting slices of row `id`.
    pub fn row(&self, id: u32) -> (&[u32], &[f32]) {
        let lo = self.offsets[id as usize] as usize;
        let hi = self.offsets[id as usize + 1] as usize;
        (&self.concept_ids[lo..hi], &self.weights[lo..hi])
    }

    /// Number of terms (rows).
    pub fn term_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stored postings across all rows.
    pub fn posting_count(&self) -> usize {
        self.concept_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_sorted_pairs(pairs.to_vec())
    }

    #[test]
    fn dot_merges_shared_concepts_only() {
        let a = vector(&[(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = vector(&[(1, 1.0), (2, 4.0), (5, 0.5)]);
        let dot = merge_dot(a.ids(), a.weights(), b.ids(), b.weights());
        assert!((dot - (2.0 * 4.0 + 3.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let a = vector(&[(3, 0.25), (7, 0.5), (9, 0.125)]);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_disjoint_or_empty_is_zero() {
        let a = vector(&[(0, 1.0)]);
        let b = vector(&[(1, 1.0)]);
        assert_eq!(cosine(&a, &b), 0.0);
        assert_eq!(cosine(&a, &SparseVector::default()), 0.0);
    }

    #[test]
    fn mask_collisions_still_merge_exactly() {
        // Concepts 0 and 128 collide in the occupancy mask; the mask only
        // claims *possible* overlap, and the merge finds none.
        let a = vector(&[(0, 1.0)]);
        let b = vector(&[(128, 1.0)]);
        assert_eq!(cosine(&a, &b), 0.0);
        // A genuinely shared id alongside the collision still dots.
        let c = vector(&[(0, 1.0), (128, 1.0)]);
        assert!((cosine(&a, &c) - 1.0 / 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn upper_bound_dominates_cosine() {
        let a = vector(&[(0, 0.3), (4, 0.9), (6, 0.1)]);
        let b = vector(&[(0, 0.8), (4, 0.2), (9, 0.7), (11, 0.4)]);
        assert!(cosine_upper_bound(&a, &b) + PRUNE_MARGIN >= cosine(&a, &b));
        // Self-comparison: the bound must still dominate (here it exceeds 1
        // before clamping, so it is exactly 1 ≥ cosine = 1).
        assert!(cosine_upper_bound(&a, &a) + PRUNE_MARGIN >= cosine(&a, &a));
    }

    #[test]
    fn upper_bound_dominates_cosine_randomized() {
        // The prune predicate keeps a pair whenever
        // bound >= threshold - PRUNE_MARGIN; for that to be exact, the
        // (reciprocal-hoisted) bound must never undercut the true cosine
        // by more than PRUNE_MARGIN on any input.
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut random_vector = |max_len: u64| {
            let len = (next() % max_len) as usize;
            let mut ids: Vec<u32> = (0..len).map(|_| (next() % 300) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            let pairs = ids.into_iter().map(|id| (id, (1 + next() % 997) as f32 / 300.0)).collect();
            SparseVector::from_sorted_pairs(pairs)
        };
        for _ in 0..3000 {
            let a = random_vector(50);
            let b = random_vector(50);
            let bound = cosine_upper_bound(&a, &b);
            let exact = cosine(&a, &b);
            assert!(
                bound + PRUNE_MARGIN >= exact,
                "bound {bound} undercuts cosine {exact} beyond PRUNE_MARGIN"
            );
        }
    }

    #[test]
    fn mask_dot_is_bit_identical_to_merge_for_narrow_vectors() {
        // Seed-deterministic xorshift (no rand dependency in unit tests).
        let mut state = 17u64;
        let mut next = move || {
            let mut x = state.wrapping_add(0x9e3779b97f4a7c15);
            state = x;
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        };
        // A strictly-sorted random id list below 128 with positive weights.
        let mut random_sorted = || {
            let len = (next() % 40) as usize;
            let mut ids: Vec<u32> = (0..len).map(|_| (next() % 128) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            let weights: Vec<f32> =
                ids.iter().map(|_| (1 + next() % 1000) as f32 / 250.0).collect();
            (ids, weights)
        };
        let mask_of = |ids: &[u32]| ids.iter().fold(0u128, |m, &id| m | (1u128 << id));
        for case in 0..2000u64 {
            let (a_ids, a_w) = random_sorted();
            let (b_ids, b_w) = random_sorted();
            let merge = merge_dot(&a_ids, &a_w, &b_ids, &b_w);
            let masked = mask_dot(mask_of(&a_ids), &a_w, mask_of(&b_ids), &b_w);
            assert_eq!(merge.to_bits(), masked.to_bits(), "case {case}: {merge} vs {masked}");
            // And through `dot`, which picks the mask path for these.
            let a = SparseVector::from_sorted_pairs(a_ids.iter().copied().zip(a_w).collect());
            let b = SparseVector::from_sorted_pairs(b_ids.iter().copied().zip(b_w).collect());
            assert_eq!(dot(&a, &b).to_bits(), merge.to_bits(), "case {case}: dot diverged");
        }
    }

    #[test]
    fn contributions_coalesce_in_order() {
        let v = SparseVector::from_contributions(vec![(5, 0.5), (2, 1.0), (5, 0.25), (2, 0.125)]);
        assert_eq!(v.pairs(), vec![(2, 1.125), (5, 0.75)]);
        assert_eq!(v.len(), 2);
        assert!((v.max_weight() - 1.125).abs() < 1e-9);
        let expected_norm = (1.125f64 * 1.125 + 0.75 * 0.75).sqrt();
        assert!((v.norm() - expected_norm).abs() < 1e-9);
    }

    #[test]
    fn csr_rows_round_trip() {
        let term_ids =
            [("alpha", 0), ("beta", 1), ("gamma", 2)].map(|(t, id)| (Cow::Borrowed(t), id));
        let index = CsrIndex::from_parts(
            term_ids.into_iter().collect(),
            vec![0, 2, 3, 3],
            vec![0, 3, 1],
            vec![0.5, 1.0, 0.25],
        );
        assert_eq!(index.term_count(), 3);
        assert_eq!(index.posting_count(), 3);
        let alpha = index.term_id("alpha").unwrap();
        let (concepts, weights) = index.row(alpha);
        assert_eq!(concepts, &[0, 3]);
        assert_eq!(weights, &[0.5, 1.0]);
        let gamma = index.term_id("gamma").unwrap();
        assert_eq!(index.row(gamma).0.len(), 0);
        assert!(index.term_id("delta").is_none());
    }
}
