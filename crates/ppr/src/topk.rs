//! Deterministic top-k extraction over dense score vectors.
//!
//! Recommendation lists must be reproducible run-to-run, so all ordering is
//! total: descending score with ties broken by ascending node id. NaN scores
//! are rejected eagerly rather than silently mis-sorted.

use emigre_hin::NodeId;
use std::cmp::Ordering;

/// Compares two `(node, score)` entries: higher score first, then lower id.
#[inline]
pub fn score_order(a: &(NodeId, f64), b: &(NodeId, f64)) -> Ordering {
    debug_assert!(!a.1.is_nan() && !b.1.is_nan(), "NaN score");
    b.1.partial_cmp(&a.1)
        .expect("scores must not be NaN")
        .then_with(|| a.0.cmp(&b.0))
}

/// Selects the `k` best-scoring candidates from `candidates`, reading each
/// candidate's score from the dense `scores` vector.
///
/// Runs in `O(|candidates| · log k)` using a bounded min-heap; with
/// `k ≥ |candidates|` it degrades to a full sort of the candidate set.
pub fn top_k<I>(scores: &[f64], candidates: I, k: usize) -> Vec<(NodeId, f64)>
where
    I: IntoIterator<Item = NodeId>,
{
    if k == 0 {
        return Vec::new();
    }
    // A plain vector kept sorted is faster than BinaryHeap for the small k
    // (k = 10) used throughout, and keeps the ordering logic in one place.
    // Every candidate indexes `scores`, so the list never outgrows it: a
    // caller's huge `k` reserves no more than that.
    let mut best: Vec<(NodeId, f64)> = Vec::with_capacity(k.min(scores.len()) + 1);
    for c in candidates {
        let s = scores[c.index()];
        assert!(!s.is_nan(), "NaN score for {c}");
        let entry = (c, s);
        if best.len() == k {
            // Compare against current worst (last element).
            if score_order(&entry, best.last().expect("non-empty")) != Ordering::Less {
                continue;
            }
            best.pop();
        }
        let pos = best
            .binary_search_by(|probe| score_order(probe, &entry))
            .unwrap_or_else(|p| p);
        best.insert(pos, entry);
    }
    best
}

/// 1-based rank of `node` within a ranking produced by [`top_k`], if
/// present.
pub fn rank_of(ranking: &[(NodeId, f64)], node: NodeId) -> Option<usize> {
    ranking.iter().position(|(n, _)| *n == node).map(|p| p + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn selects_highest_scores_in_order() {
        let scores = vec![0.1, 0.5, 0.3, 0.9, 0.2];
        let top = top_k(&scores, (0..5).map(n), 3);
        assert_eq!(
            top.iter().map(|(x, _)| x.0).collect::<Vec<_>>(),
            vec![3, 1, 2]
        );
    }

    #[test]
    fn ties_break_by_node_id() {
        let scores = vec![0.5, 0.5, 0.5, 0.1];
        let top = top_k(&scores, (0..4).map(n), 2);
        assert_eq!(top.iter().map(|(x, _)| x.0).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn candidate_filter_respected() {
        let scores = vec![0.9, 0.8, 0.7];
        let top = top_k(&scores, [n(1), n(2)], 5);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, n(1));
    }

    #[test]
    fn k_zero_and_empty_candidates() {
        let scores = vec![1.0];
        assert!(top_k(&scores, [n(0)], 0).is_empty());
        assert!(top_k(&scores, std::iter::empty(), 3).is_empty());
    }

    #[test]
    fn a_huge_k_returns_every_candidate() {
        let scores = vec![0.1, 0.5, 0.3];
        for k in [1 << 40, usize::MAX] {
            let top = top_k(&scores, (0..3).map(n), k);
            assert_eq!(top.iter().map(|(x, _)| x.0).collect::<Vec<_>>(), [1, 2, 0]);
        }
    }

    #[test]
    fn rank_of_finds_positions() {
        let scores = vec![0.1, 0.5, 0.3];
        let top = top_k(&scores, (0..3).map(n), 3);
        assert_eq!(rank_of(&top, n(1)), Some(1));
        assert_eq!(rank_of(&top, n(2)), Some(2));
        assert_eq!(rank_of(&top, n(0)), Some(3));
        assert_eq!(rank_of(&top, n(9)), None);
    }

    #[test]
    fn equals_full_sort_on_random_input() {
        // Deterministic pseudo-random scores via a simple LCG.
        let mut x: u64 = 12345;
        let scores: Vec<f64> = (0..200)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let mut full: Vec<(NodeId, f64)> =
            (0..200u32).map(|i| (n(i), scores[i as usize])).collect();
        full.sort_by(score_order);
        let top = top_k(&scores, (0..200).map(n), 17);
        assert_eq!(top, full[..17].to_vec());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_scores_rejected() {
        let scores = vec![0.0, f64::NAN];
        top_k(&scores, (0..2).map(n), 2);
    }
}
