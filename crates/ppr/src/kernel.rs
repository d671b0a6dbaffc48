//! Flat transition kernels: precomputed CSR transition rows.
//!
//! The transition matrix `W` only depends on `(graph, TransitionModel)`, so
//! every push loop runs over a materialised CSR instead of a graph view:
//! `W`'s rows (and columns) in flat offset/destination/probability arrays,
//! with parallel edges already merged. A reverse push then reads each
//! `W(u, v)` off a slice instead of re-deriving the source's out-degree
//! and weight sum per in-edge.
//!
//! [`TransitionCsr`] is the one layout: `u32` offsets and `f64`
//! probabilities, stored exactly as the transition model computes them.
//!
//! Counterfactual CHECKs evaluate `base ⊕ delta` graphs that differ from
//! the base in a handful of user-rooted edges. Rebuilding the CSR per CHECK
//! would defeat the purpose, so [`TransitionCsr::patched`] produces a
//! [`PatchedCsr`]: the base arrays shared by reference plus freshly built
//! rows for only the touched sources (and the correspondingly patched
//! reverse rows). Push loops are generic over [`CsrRows`], so the same
//! monomorphised code serves base and patched rows.

use crate::transition::{transition_row_into, TransitionModel};
use emigre_hin::{GraphView, NodeId};
use emigre_obs::HeapSize;
use std::cell::OnceCell;

/// Row-slice access to a transition matrix `W` and its transpose.
///
/// `forward_row(u)` yields `(dsts, probs)` with `probs[i] = W(u, dsts[i])`;
/// `reverse_row(v)` yields `(srcs, probs)` with `probs[i] = W(srcs[i], v)`.
/// Parallel edges are merged, so destinations within a row are distinct.
///
/// Every row entry is below `num_nodes()`, and the push loops index their
/// state by row entries without bounds checks. The trait is sealed so that
/// [`TransitionCsr`] and [`PatchedCsr`], which keep that invariant, are its
/// only implementations.
pub trait CsrRows: sealed::Sealed {
    fn num_nodes(&self) -> usize;

    fn forward_row(&self, u: NodeId) -> (&[u32], &[f64]);
    fn reverse_row(&self, v: NodeId) -> (&[u32], &[f64]);
}

mod sealed {
    /// Implemented only by the kernels of this module.
    pub trait Sealed {}
    impl Sealed for super::TransitionCsr {}
    impl Sealed for super::PatchedCsr<'_> {}
}

/// The transition matrix of one `(graph, model)` pair in CSR form, forward
/// and reverse, as a struct of arrays: `u32` row offsets (so a kernel is
/// addressable up to 2^32−1 entries) and `f64` probabilities.
///
/// ```text
/// per direction      offsets      dsts      probs
/// TransitionCsr      4(n+1) B     4E B      8E B
/// ```
#[derive(Debug, Clone)]
pub struct TransitionCsr {
    model: TransitionModel,
    fwd_offsets: Vec<u32>,
    fwd_dsts: Vec<u32>,
    fwd_probs: Vec<f64>,
    rev_offsets: Vec<u32>,
    rev_srcs: Vec<u32>,
    rev_probs: Vec<f64>,
}

impl TransitionCsr {
    /// Materialises every transition row of `g` under `model`. `O(V + E)`
    /// memory, `O(E log deg_max)` time.
    pub fn build<G: GraphView>(g: &G, model: TransitionModel) -> Self {
        let n = g.num_nodes();
        let mut fwd_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        fwd_offsets.push(0);
        let mut fwd_dsts: Vec<u32> = Vec::new();
        let mut fwd_probs: Vec<f64> = Vec::new();
        let mut row: Vec<(NodeId, f64)> = Vec::new();
        for u in 0..n as u32 {
            transition_row_into(g, model, NodeId(u), &mut row);
            for &(v, p) in &row {
                fwd_dsts.push(v.0);
                fwd_probs.push(p);
            }
            fwd_offsets.push(checked_u32(fwd_dsts.len()));
        }

        Self::from_forward(model, fwd_offsets, fwd_dsts, fwd_probs)
    }

    /// Builds the kernel from a **re-playable edge stream** without ever
    /// materialising a graph or an edge list: peak temporary memory is the
    /// `O(n)` degree/weight-sum accumulators plus whatever state the stream
    /// itself keeps (for the chunked synthetic generator, one chunk).
    ///
    /// `emit` is called twice and must deliver the **same edge sequence**
    /// both times — each call `sink(src, dst, w)` contributes the directed
    /// edge `src → dst`, and, when `mirrored` is set, `dst → src` with the
    /// same weight (the paper's §6.1 bidirectional preprocessing, fused
    /// into the build). Pass 1 accumulates per-node out-degrees and weight
    /// sums; pass 2 computes each entry's probability directly from those
    /// aggregates and places it with counting-sort cursors.
    ///
    /// Within-row destination order follows emission order, so for rows
    /// that must be sorted (everything downstream assumes sorted rows) the
    /// stream must emit each source's edges in ascending-destination order
    /// with distinct destinations; mirrored streams must emit ascending
    /// sources per destination. The synthetic scale generator satisfies
    /// both by construction.
    ///
    /// Weight sums accumulate in emission order, so a stream that replays
    /// the insertion order of an equivalent [`Hin`](emigre_hin::Hin) build
    /// reproduces that graph's rows **bit-for-bit**.
    pub fn from_edge_stream<F>(
        num_nodes: usize,
        model: TransitionModel,
        mirrored: bool,
        mut emit: F,
    ) -> Self
    where
        F: FnMut(&mut dyn FnMut(u32, u32, f64)),
    {
        assert!(num_nodes < u32::MAX as usize, "node count exceeds u32 ids");
        let n = num_nodes;
        let mut deg = vec![0u32; n];
        let mut wsum = vec![0.0f64; n];
        emit(&mut |src, dst, w| {
            deg[src as usize] += 1;
            wsum[src as usize] += w;
            if mirrored {
                deg[dst as usize] += 1;
                wsum[dst as usize] += w;
            }
        });

        let mut fwd_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        fwd_offsets.push(0);
        let mut total = 0usize;
        for &d in &deg {
            total += d as usize;
            fwd_offsets.push(checked_u32(total));
        }

        let mut fwd_dsts = vec![0u32; total];
        let mut fwd_probs = vec![0.0f64; total];
        let mut cursor: Vec<u32> = fwd_offsets[..n].to_vec();
        emit(&mut |src, dst, w| {
            let s = src as usize;
            let slot = cursor[s] as usize;
            cursor[s] += 1;
            fwd_dsts[slot] = dst;
            fwd_probs[slot] = model.edge_probability(w, wsum[s], deg[s] as usize);
            if mirrored {
                let d = dst as usize;
                let slot = cursor[d] as usize;
                cursor[d] += 1;
                fwd_dsts[slot] = src;
                fwd_probs[slot] = model.edge_probability(w, wsum[d], deg[d] as usize);
            }
        });
        drop(cursor);
        drop(deg);
        drop(wsum);

        Self::from_forward(model, fwd_offsets, fwd_dsts, fwd_probs)
    }

    /// Assembles a kernel from finished forward rows, deriving the reverse
    /// arrays by counting sort: one pass to size the reverse rows, one to
    /// fill them (sources come out in ascending order).
    ///
    /// Every constructor ends here, and the sizing pass panics on a
    /// destination of `n` or more, so every kernel row entry is below
    /// `num_nodes`: the invariant the push loops' unchecked scatter rests
    /// on. Reverse entries are row indices `u < n`.
    fn from_forward(
        model: TransitionModel,
        fwd_offsets: Vec<u32>,
        fwd_dsts: Vec<u32>,
        fwd_probs: Vec<f64>,
    ) -> Self {
        let n = fwd_offsets.len() - 1;
        let mut rev_offsets = vec![0u32; n + 1];
        for &v in &fwd_dsts {
            // Index `v + 1` of `n + 1` slots: out of bounds for `v >= n`.
            rev_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            rev_offsets[i + 1] += rev_offsets[i];
        }
        let mut cursor = rev_offsets.clone();
        let mut rev_srcs = vec![0u32; fwd_dsts.len()];
        let mut rev_probs = vec![0.0f64; fwd_dsts.len()];
        for u in 0..n {
            for e in fwd_offsets[u] as usize..fwd_offsets[u + 1] as usize {
                let v = fwd_dsts[e] as usize;
                let slot = cursor[v] as usize;
                cursor[v] += 1;
                rev_srcs[slot] = u as u32;
                rev_probs[slot] = fwd_probs[e];
            }
        }

        TransitionCsr {
            model,
            fwd_offsets,
            fwd_dsts,
            fwd_probs,
            rev_offsets,
            rev_srcs,
            rev_probs,
        }
    }

    /// A new **owned** kernel equal to `TransitionCsr::build(view, model)`:
    /// the `touched` rows are re-evaluated on `view` (the updated graph) and
    /// every other row's slices are copied verbatim from `self`. This is the
    /// committed counterpart of [`TransitionCsr::patched`] — instead of a
    /// borrowed overlay for one CHECK, it produces a standalone kernel that
    /// outlives `self`, which is what an epoch publish needs. Forward cost
    /// is `O(Σ deg(touched))` recompute plus an `O(E)` memcpy; the reverse
    /// transpose is rebuilt by counting sort (`O(V + E)`), so the whole
    /// rebuild stays linear in the graph rather than `O(E log deg)`.
    ///
    /// `view` must have the same node count as the base kernel: live
    /// feedback mutates edges between existing nodes, never the node set.
    pub fn rebuild_rows<G: GraphView>(&self, view: &G, touched: &[NodeId]) -> TransitionCsr {
        let n = self.num_nodes();
        debug_assert_eq!(view.num_nodes(), n, "rebuild_rows: node count changed");
        let mut is_touched = vec![false; n];
        for &u in touched {
            is_touched[u.index()] = true;
        }

        let mut fwd_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        fwd_offsets.push(0);
        let mut fwd_dsts: Vec<u32> = Vec::with_capacity(self.fwd_dsts.len());
        let mut fwd_probs: Vec<f64> = Vec::with_capacity(self.fwd_probs.len());
        let mut row: Vec<(NodeId, f64)> = Vec::new();
        for (u, &rebuild) in is_touched.iter().enumerate() {
            if rebuild {
                transition_row_into(view, self.model, NodeId(u as u32), &mut row);
                for &(v, p) in &row {
                    fwd_dsts.push(v.0);
                    fwd_probs.push(p);
                }
            } else {
                let (dsts, probs) = self.forward_row(NodeId(u as u32));
                fwd_dsts.extend_from_slice(dsts);
                fwd_probs.extend_from_slice(probs);
            }
            fwd_offsets.push(checked_u32(fwd_dsts.len()));
        }

        Self::from_forward(self.model, fwd_offsets, fwd_dsts, fwd_probs)
    }

    /// Overlays freshly computed rows for `touched` sources, evaluated on
    /// `view` (the counterfactual graph). Reverse rows of every destination
    /// that appears in an old or new touched row are patched to match, so
    /// the result is exactly a from-scratch build on `view` up to row
    /// ordering — at `O(Σ deg(touched))` cost instead of `O(E)`.
    ///
    /// Reverse patches are built **lazily** on the first
    /// [`reverse_row`](CsrRows::reverse_row) call: the forward-push CHECK
    /// loop never reads reverse rows, and eagerly transposing every
    /// affected destination (for a popular item endpoint that is its whole
    /// neighbourhood) used to dominate the add path's per-CHECK cost.
    pub fn patched<G: GraphView>(&self, view: &G, touched: &[NodeId]) -> PatchedCsr<'_> {
        let mut fwd_patches: Vec<PatchRow> = Vec::with_capacity(touched.len());
        let mut row: Vec<(NodeId, f64)> = Vec::new();
        for &u in touched {
            transition_row_into(view, self.model, u, &mut row);
            let dsts: Vec<u32> = row.iter().map(|&(v, _)| v.0).collect();
            let probs: Vec<f64> = row.iter().map(|&(_, p)| p).collect();
            fwd_patches.push((u.0, dsts, probs));
        }
        self.patched_rows(fwd_patches)
    }

    /// A [`PatchedCsr`] from caller-supplied forward rows (dsts sorted
    /// ascending per row). Bypasses the [`GraphView`] evaluation of
    /// [`TransitionCsr::patched`] entirely, which is what a caller that
    /// never materialises a graph — the million-node bench leg — needs to
    /// run a CHECK against a streamed kernel. Reverse patches derive lazily
    /// from the supplied rows exactly as for view-built patches.
    ///
    /// Panics if a row's node or one of its destinations is not below
    /// [`CsrRows::num_nodes`], or if a row's two slices differ in length:
    /// the push loops index by row entries without bounds checks.
    pub fn patched_rows(&self, mut rows: Vec<(u32, Vec<u32>, Vec<f64>)>) -> PatchedCsr<'_> {
        let n = self.num_nodes();
        for (u, dsts, probs) in &rows {
            assert!(
                (*u as usize) < n && dsts.iter().all(|&v| (v as usize) < n),
                "patched row {u} names a node past the {n}-node kernel"
            );
            assert_eq!(dsts.len(), probs.len(), "patched row {u}: slice lengths");
        }
        rows.sort_unstable_by_key(|&(u, _, _)| u);
        PatchedCsr {
            base: self,
            fwd_patches: rows,
            rev_patches: OnceCell::new(),
        }
    }

    /// The transition model the rows were materialised under.
    pub fn model(&self) -> TransitionModel {
        self.model
    }

    /// Total number of stored transition entries.
    pub fn num_entries(&self) -> usize {
        self.fwd_dsts.len()
    }
}

#[inline]
fn checked_u32(v: usize) -> u32 {
    u32::try_from(v).expect("transition CSR exceeds u32 entry offsets")
}

impl CsrRows for TransitionCsr {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.fwd_offsets.len() - 1
    }

    #[inline]
    fn forward_row(&self, u: NodeId) -> (&[u32], &[f64]) {
        let (s, e) = (
            self.fwd_offsets[u.index()] as usize,
            self.fwd_offsets[u.index() + 1] as usize,
        );
        (&self.fwd_dsts[s..e], &self.fwd_probs[s..e])
    }

    #[inline]
    fn reverse_row(&self, v: NodeId) -> (&[u32], &[f64]) {
        let (s, e) = (
            self.rev_offsets[v.index()] as usize,
            self.rev_offsets[v.index() + 1] as usize,
        );
        (&self.rev_srcs[s..e], &self.rev_probs[s..e])
    }
}

/// One overridden row: `(node, neighbours, probs)`, neighbours sorted.
type PatchRow = (u32, Vec<u32>, Vec<f64>);

/// A base kernel with a few rows overridden — the transition matrix of a
/// counterfactual `base ⊕ delta` graph. See [`TransitionCsr::patched`].
pub struct PatchedCsr<'a> {
    base: &'a TransitionCsr,
    /// Forward patch rows sorted by node; dsts sorted ascending.
    fwd_patches: Vec<PatchRow>,
    /// Reverse patch rows sorted by node. Built lazily from
    /// `fwd_patches` + base on first reverse access: the transpose of the
    /// patch is derivable without the counterfactual view, and forward-only
    /// consumers (the CHECK push) never pay for it.
    rev_patches: OnceCell<Vec<PatchRow>>,
}

impl PatchedCsr<'_> {
    /// The unpatched base kernel.
    pub(crate) fn base(&self) -> &TransitionCsr {
        self.base
    }

    /// The sources whose forward rows are overridden, ascending.
    pub(crate) fn patched_rows(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.fwd_patches.iter().map(|&(u, _, _)| NodeId(u))
    }

    /// Builds the patched reverse rows: for every destination appearing in
    /// an old or new row of a patched source, the base reverse row with
    /// patched sources filtered out and re-appended from the new forward
    /// rows. Identical output to the former eager construction.
    fn build_rev_patches(&self) -> Vec<PatchRow> {
        let mut affected: Vec<u32> = Vec::new();
        for &(u, ref dsts, _) in &self.fwd_patches {
            let (old_dsts, _) = self.base.forward_row(NodeId(u));
            affected.extend_from_slice(old_dsts);
            affected.extend_from_slice(dsts);
        }
        affected.sort_unstable();
        affected.dedup();

        let touched_ids: Vec<u32> = self.fwd_patches.iter().map(|&(u, _, _)| u).collect();
        let mut rev_patches: Vec<PatchRow> = Vec::with_capacity(affected.len());
        for &v in &affected {
            let (srcs, probs) = self.base.reverse_row(NodeId(v));
            let mut new_srcs: Vec<u32> = Vec::with_capacity(srcs.len());
            let mut new_probs: Vec<f64> = Vec::with_capacity(probs.len());
            for (&s, &p) in srcs.iter().zip(probs) {
                if touched_ids.binary_search(&s).is_err() {
                    new_srcs.push(s);
                    new_probs.push(p);
                }
            }
            for &(u, ref dsts, ref probs) in &self.fwd_patches {
                if let Ok(i) = dsts.binary_search(&v) {
                    new_srcs.push(u);
                    new_probs.push(probs[i]);
                }
            }
            rev_patches.push((v, new_srcs, new_probs));
        }
        rev_patches
    }
}

#[inline]
fn lookup(patches: &[PatchRow], n: u32) -> Option<(&[u32], &[f64])> {
    patches
        .binary_search_by_key(&n, |&(u, _, _)| u)
        .ok()
        .map(|i| (&patches[i].1[..], &patches[i].2[..]))
}

impl CsrRows for PatchedCsr<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    #[inline]
    fn forward_row(&self, u: NodeId) -> (&[u32], &[f64]) {
        lookup(&self.fwd_patches, u.0).unwrap_or_else(|| self.base.forward_row(u))
    }

    #[inline]
    fn reverse_row(&self, v: NodeId) -> (&[u32], &[f64]) {
        let rev = self.rev_patches.get_or_init(|| self.build_rev_patches());
        lookup(rev, v.0).unwrap_or_else(|| self.base.reverse_row(v))
    }
}

/// Exact: six flat CSR arrays, nothing shared, counted at capacity.
impl HeapSize for TransitionCsr {
    fn heap_bytes(&self) -> usize {
        self.fwd_offsets.heap_bytes()
            + self.fwd_dsts.heap_bytes()
            + self.fwd_probs.heap_bytes()
            + self.rev_offsets.heap_bytes()
            + self.rev_srcs.heap_bytes()
            + self.rev_probs.heap_bytes()
    }
}

/// Counts the *patch overlay only* — the borrowed base kernel is charged
/// to its owner, not to every counterfactual view on top of it. The lazy
/// reverse patches count once materialised.
impl HeapSize for PatchedCsr<'_> {
    fn heap_bytes(&self) -> usize {
        self.fwd_patches.heap_bytes() + self.rev_patches.get().map_or(0, |p| p.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::transition_row;
    use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin};

    fn sample_graph() -> Hin {
        let mut g = Hin::new();
        let nt = g.registry_mut().node_type("n");
        let e1 = g.registry_mut().edge_type("a");
        let e2 = g.registry_mut().edge_type("b");
        let nodes: Vec<_> = (0..6).map(|_| g.add_node(nt, None)).collect();
        for i in 0..6usize {
            g.add_edge(nodes[i], nodes[(i + 1) % 6], e1, 1.0 + i as f64)
                .unwrap();
            g.add_edge(nodes[i], nodes[(i + 2) % 6], e1, 2.0).unwrap();
            // Parallel typed edge to exercise merging.
            g.add_edge(nodes[i], nodes[(i + 1) % 6], e2, 0.5).unwrap();
        }
        g
    }

    fn model() -> TransitionModel {
        TransitionModel::RecWalk { beta: 0.5 }
    }

    #[test]
    fn forward_rows_match_transition_row() {
        let g = sample_graph();
        let csr = TransitionCsr::build(&g, model());
        for u in 0..g.num_nodes() as u32 {
            let expect = transition_row(&g, model(), NodeId(u));
            let (dsts, probs) = csr.forward_row(NodeId(u));
            assert_eq!(dsts.len(), expect.len());
            for (i, &(v, p)) in expect.iter().enumerate() {
                assert_eq!(dsts[i], v.0);
                assert!((probs[i] - p).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn reverse_rows_are_exact_transpose() {
        let g = sample_graph();
        let csr = TransitionCsr::build(&g, model());
        let n = g.num_nodes();
        let mut total = 0usize;
        for v in 0..n as u32 {
            let (srcs, probs) = csr.reverse_row(NodeId(v));
            total += srcs.len();
            for (&u, &p) in srcs.iter().zip(probs) {
                let (dsts, fprobs) = csr.forward_row(NodeId(u));
                let i = dsts.binary_search(&v).expect("forward entry exists");
                assert_eq!(fprobs[i].to_bits(), p.to_bits());
            }
        }
        assert_eq!(total, csr.num_entries());
    }

    #[test]
    fn patched_rows_match_full_rebuild_on_overlay() {
        let g = sample_graph();
        let et = g.registry().find_edge_type("a").unwrap();
        let csr = TransitionCsr::build(&g, model());

        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        d.add_edge(EdgeKey::new(NodeId(0), NodeId(4), et), 3.0);
        d.add_edge(EdgeKey::new(NodeId(3), NodeId(0), et), 1.5);
        let view = d.overlay(&g);

        let patched = csr.patched(&view, &d.touched_sources());
        let rebuilt = TransitionCsr::build(&view, model());
        for u in 0..g.num_nodes() as u32 {
            let (pd, pp) = patched.forward_row(NodeId(u));
            let (rd, rp) = rebuilt.forward_row(NodeId(u));
            assert_eq!(pd, rd, "forward dsts differ at {u}");
            for (a, b) in pp.iter().zip(rp) {
                assert!((a - b).abs() < 1e-15);
            }
            // Reverse rows may list sources in a different order; compare
            // as sorted (src, prob) multisets.
            let (ps, ppr) = patched.reverse_row(NodeId(u));
            let (rs, rpr) = rebuilt.reverse_row(NodeId(u));
            let mut a: Vec<(u32, u64)> = ps
                .iter()
                .zip(ppr)
                .map(|(&s, &p)| (s, p.to_bits()))
                .collect();
            let mut b: Vec<(u32, u64)> = rs
                .iter()
                .zip(rpr)
                .map(|(&s, &p)| (s, p.to_bits()))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a.len(), b.len(), "reverse row size differs at {u}");
            for ((sa, pa), (sb, pb)) in a.iter().zip(&b) {
                assert_eq!(sa, sb);
                assert!((f64::from_bits(*pa) - f64::from_bits(*pb)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn rebuild_rows_matches_full_build_bit_for_bit() {
        let g = sample_graph();
        let et = g.registry().find_edge_type("a").unwrap();
        let csr = TransitionCsr::build(&g, model());

        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        d.add_edge(EdgeKey::new(NodeId(0), NodeId(4), et), 3.0);
        d.add_edge(EdgeKey::new(NodeId(3), NodeId(0), et), 1.5);
        let committed = d.apply_to(&g).unwrap();

        let incremental = csr.rebuild_rows(&committed, &d.touched_sources());
        let full = TransitionCsr::build(&committed, model());
        assert_eq!(incremental.num_entries(), full.num_entries());
        for u in 0..g.num_nodes() as u32 {
            let (id, ip) = incremental.forward_row(NodeId(u));
            let (fd, fp) = full.forward_row(NodeId(u));
            assert_eq!(id, fd, "forward dsts differ at {u}");
            for (a, b) in ip.iter().zip(fp) {
                assert_eq!(a.to_bits(), b.to_bits(), "forward prob differs at {u}");
            }
            let (is, ipr) = incremental.reverse_row(NodeId(u));
            let (fs, fpr) = full.reverse_row(NodeId(u));
            assert_eq!(is, fs, "reverse srcs differ at {u}");
            for (a, b) in ipr.iter().zip(fpr) {
                assert_eq!(a.to_bits(), b.to_bits(), "reverse prob differs at {u}");
            }
        }
    }

    #[test]
    fn rebuild_rows_chain_tracks_repeated_deltas() {
        // An epoch chain: apply three deltas in sequence, rebuilding
        // incrementally each time, and compare the final kernel against a
        // from-scratch build on the final graph.
        let g0 = sample_graph();
        let et = g0.registry().find_edge_type("a").unwrap();
        let mut kernel = TransitionCsr::build(&g0, model());
        let mut graph = g0;

        let deltas: Vec<GraphDelta> = {
            let mut d1 = GraphDelta::new();
            d1.remove_edge(EdgeKey::new(NodeId(1), NodeId(2), et));
            let mut d2 = GraphDelta::new();
            d2.add_edge(EdgeKey::new(NodeId(4), NodeId(1), et), 0.75);
            let mut d3 = GraphDelta::new();
            d3.add_edge(EdgeKey::new(NodeId(1), NodeId(5), et), 2.5);
            d3.remove_edge(EdgeKey::new(NodeId(4), NodeId(0), et));
            vec![d1, d2, d3]
        };
        for d in &deltas {
            let next = d.apply_to(&graph).unwrap();
            kernel = kernel.rebuild_rows(&next, &d.touched_sources());
            graph = next;
        }

        let full = TransitionCsr::build(&graph, model());
        assert_eq!(kernel.num_entries(), full.num_entries());
        for u in 0..graph.num_nodes() as u32 {
            let (id, ip) = kernel.forward_row(NodeId(u));
            let (fd, fp) = full.forward_row(NodeId(u));
            assert_eq!(id, fd);
            for (a, b) in ip.iter().zip(fp) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn patched_with_no_touched_rows_is_identity() {
        let g = sample_graph();
        let csr = TransitionCsr::build(&g, model());
        let patched = csr.patched(&g, &[]);
        assert_eq!(patched.patched_rows().count(), 0);
        let (d0, _) = csr.forward_row(NodeId(2));
        let (d1, _) = patched.forward_row(NodeId(2));
        assert_eq!(d0, d1);
    }

    #[test]
    fn reverse_patches_build_lazily_and_match_eager_result() {
        let g = sample_graph();
        let et = g.registry().find_edge_type("a").unwrap();
        let csr = TransitionCsr::build(&g, model());
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        d.add_edge(EdgeKey::new(NodeId(2), NodeId(5), et), 2.0);
        let view = d.overlay(&g);
        let patched = csr.patched(&view, &d.touched_sources());

        // Forward access must not trigger the transpose.
        for u in 0..g.num_nodes() as u32 {
            let _ = patched.forward_row(NodeId(u));
        }
        assert!(patched.rev_patches.get().is_none());

        // First reverse access materialises it; rows must equal a rebuild.
        let rebuilt = TransitionCsr::build(&view, model());
        let (ps, pp) = patched.reverse_row(NodeId(1));
        assert!(patched.rev_patches.get().is_some());
        let (rs, rp) = rebuilt.reverse_row(NodeId(1));
        let mut a: Vec<(u32, u64)> = ps.iter().zip(pp).map(|(&s, &p)| (s, p.to_bits())).collect();
        let mut b: Vec<(u32, u64)> = rs.iter().zip(rp).map(|(&s, &p)| (s, p.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a.len(), b.len());
        for ((sa, pa), (sb, pb)) in a.iter().zip(&b) {
            assert_eq!(sa, sb);
            assert!((f64::from_bits(*pa) - f64::from_bits(*pb)).abs() < 1e-15);
        }
    }

    #[test]
    fn dangling_node_has_empty_rows() {
        let mut g = Hin::new();
        let nt = g.registry_mut().node_type("n");
        let et = g.registry_mut().edge_type("e");
        let a = g.add_node(nt, None);
        let b = g.add_node(nt, None);
        g.add_edge(a, b, et, 1.0).unwrap();
        let csr = TransitionCsr::build(&g, model());
        let (dsts, _) = csr.forward_row(b);
        assert!(dsts.is_empty());
        let (srcs, _) = csr.reverse_row(a);
        assert!(srcs.is_empty());
    }

    #[test]
    fn heap_bytes_is_exact_on_a_hand_built_csr() {
        // Hand-assemble a 3-node ring kernel through `from_forward`. The
        // `vec!` buffers have capacity == len and the derived reverse
        // arrays are allocated exactly sized, so the structural audit must
        // equal the closed-form byte count — no slack, no estimate.
        let fwd_offsets = vec![0u32, 1, 2, 3];
        let fwd_dsts = vec![1u32, 2, 0];
        let fwd_probs = vec![1.0f64, 1.0, 1.0];
        let csr = TransitionCsr::from_forward(model(), fwd_offsets, fwd_dsts, fwd_probs);
        // fwd_offsets (4×u32) + fwd_dsts (3×u32) + fwd_probs (3×f64),
        // mirrored exactly by the counting-sorted reverse arrays.
        let expected = 2 * (4 * 4 + 3 * 4 + 3 * 8);
        assert_eq!(csr.heap_bytes(), expected);
        assert_eq!(csr.num_entries(), 3);
    }

    #[test]
    fn patched_csr_counts_only_its_overlay() {
        let g = sample_graph();
        let csr = TransitionCsr::build(&g, model());
        let et = g.registry().find_edge_type("a").unwrap();
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        let view = d.overlay(&g);
        let patched = csr.patched(&view, &d.touched_sources());
        // The overlay holds only the touched rows — far smaller than the
        // base kernel it borrows, which it must not count.
        assert!(patched.heap_bytes() > 0);
        assert!(patched.heap_bytes() < csr.heap_bytes());
    }

    /// A mirrored bipartite stream: 3 users (0..3) rating 4 items (3..7).
    fn bipartite_stream(sink: &mut dyn FnMut(u32, u32, f64)) {
        for (u, i, w) in [
            (0, 3, 1.0),
            (0, 5, 2.0),
            (1, 4, 1.5),
            (2, 3, 0.5),
            (2, 6, 3.0),
        ] {
            sink(u, i, w);
        }
    }

    #[test]
    fn streamed_bytes_match_the_closed_form() {
        // A streamed build sizes every array exactly (capacity == len), so
        // the audit must equal the per-direction closed form
        // 4(n+1) + 4E + 8E.
        let csr = TransitionCsr::from_edge_stream(7, model(), true, bipartite_stream);
        let (n, e) = (7usize, csr.num_entries());
        assert_eq!(e, 10);
        assert_eq!(csr.heap_bytes(), 2 * (4 * (n + 1) + 4 * e + 8 * e));
    }

    #[test]
    fn from_edge_stream_matches_view_build_on_a_mirrored_bipartite_graph() {
        // 3 users (0..3), 4 items (3..7); user u rates item i with weight
        // depending on (u, i). Emission order: users ascending, each user's
        // items ascending — exactly the order `materialize` inserts below,
        // so weight sums accumulate identically and rows must be
        // bit-identical.
        let edges: Vec<(u32, u32, f64)> = vec![
            (0, 3, 1.0),
            (0, 5, 2.0),
            (1, 3, 0.5),
            (1, 4, 1.5),
            (1, 6, 3.0),
            (2, 4, 1.0),
            (2, 5, 0.25),
        ];
        let mut g = Hin::new();
        let nt = g.registry_mut().node_type("n");
        let et = g.registry_mut().edge_type("rated");
        for _ in 0..7 {
            g.add_node(nt, None);
        }
        for &(u, i, w) in &edges {
            g.add_edge_bidirectional(NodeId(u), NodeId(i), et, w)
                .unwrap();
        }

        let m = TransitionModel::Weighted;
        let from_view = TransitionCsr::build(&g, m);
        let streamed = TransitionCsr::from_edge_stream(7, m, true, |sink| {
            for &(u, i, w) in &edges {
                sink(u, i, w);
            }
        });
        assert_eq!(streamed.num_entries(), from_view.num_entries());
        assert_eq!(streamed.num_entries(), 2 * edges.len());
        for u in 0..7u32 {
            let (sd, sp) = streamed.forward_row(NodeId(u));
            let (vd, vp) = from_view.forward_row(NodeId(u));
            assert_eq!(sd, vd, "forward dsts differ at {u}");
            for (a, b) in sp.iter().zip(vp) {
                assert_eq!(a.to_bits(), b.to_bits(), "forward prob differs at {u}");
            }
            let (ss, spr) = streamed.reverse_row(NodeId(u));
            let (vs, vpr) = from_view.reverse_row(NodeId(u));
            assert_eq!(ss, vs, "reverse srcs differ at {u}");
            for (a, b) in spr.iter().zip(vpr) {
                assert_eq!(a.to_bits(), b.to_bits(), "reverse prob differs at {u}");
            }
        }
    }

    #[test]
    fn from_edge_stream_handles_dangling_nodes() {
        // Unmirrored stream: node 2 has no out-edges (dangling), node 0 has
        // no in-edges. Sub-stochastic convention must hold.
        let csr = TransitionCsr::from_edge_stream(3, TransitionModel::Weighted, false, |sink| {
            sink(0, 1, 1.0);
            sink(0, 2, 3.0);
            sink(1, 2, 2.0);
        });
        let (d2, _) = csr.forward_row(NodeId(2));
        assert!(d2.is_empty());
        let (s0, _) = csr.reverse_row(NodeId(0));
        assert!(s0.is_empty());
        let (d0, p0) = csr.forward_row(NodeId(0));
        assert_eq!(d0, &[1, 2]);
        assert!((p0.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn patched_rows_overrides_without_a_view() {
        let g = sample_graph();
        let csr = TransitionCsr::build(&g, model());
        let (dsts, probs) = csr.forward_row(NodeId(0));
        // Drop the first entry and renormalise the rest — the same shape
        // the million-node bench leg synthesises for its single CHECK.
        let keep = 1.0 - probs[0];
        let new_dsts: Vec<u32> = dsts[1..].to_vec();
        let new_probs: Vec<f64> = probs[1..].iter().map(|p| p / keep).collect();
        let patched = csr.patched_rows(vec![(0, new_dsts.clone(), new_probs.clone())]);
        assert_eq!(patched.patched_rows().count(), 1);
        let (pd, pp) = patched.forward_row(NodeId(0));
        assert_eq!(pd, &new_dsts[..]);
        assert_eq!(pp, &new_probs[..]);
        // Untouched rows fall through to the base.
        let (bd, _) = patched.forward_row(NodeId(3));
        let (cd, _) = csr.forward_row(NodeId(3));
        assert_eq!(bd, cd);
        // The lazy reverse transpose must reflect the dropped entry.
        let dropped = dsts[0];
        let (rs, _) = patched.reverse_row(NodeId(dropped));
        assert!(!rs.contains(&0), "dropped dst still lists source 0");
    }
}
