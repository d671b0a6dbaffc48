//! Counterfactual edit overlays.
//!
//! EMiGRe's explanation search evaluates many hypothetical graphs — "what if
//! the user had not rated *Candide*?", "what if they had read *The Lord of
//! the Rings*?" — and each CHECK recomputes a recommendation on such a
//! hypothetical graph. Cloning an 11k-node HIN per candidate would dominate
//! the runtime, so [`GraphDelta`] records a small set of edge additions and
//! removals and [`DeltaView`] exposes `base ⊕ delta` through the ordinary
//! [`GraphView`] trait without materialising anything.

use crate::graph::HinError;
use crate::types::{EdgeKey, EdgeTypeId, NodeId, NodeTypeId, TypeRegistry};
use crate::view::GraphView;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One overlay edge slated for addition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AddedEdge {
    pub key: EdgeKey,
    pub weight: f64,
}

/// A small set of edge additions and removals relative to a base graph.
///
/// Deltas are symmetric difference style: adding an edge that is later
/// removed (or vice versa) cancels out. A delta knows nothing about any
/// particular base graph until it is attached with [`GraphDelta::overlay`];
/// [`GraphDelta::validate`] checks consistency against a base (removals must
/// exist, additions must not).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphDelta {
    added: Vec<AddedEdge>,
    removed: Vec<EdgeKey>,
}

impl GraphDelta {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the directed edge for addition. If the same key was
    /// previously scheduled for removal the two cancel out.
    pub fn add_edge(&mut self, key: EdgeKey, weight: f64) -> &mut Self {
        if let Some(pos) = self.removed.iter().position(|k| *k == key) {
            self.removed.swap_remove(pos);
            return self;
        }
        if !self.added.iter().any(|a| a.key == key) {
            self.added.push(AddedEdge { key, weight });
        }
        self
    }

    /// Schedules the directed edge for removal. If the same key was
    /// previously scheduled for addition the two cancel out.
    pub fn remove_edge(&mut self, key: EdgeKey) -> &mut Self {
        if let Some(pos) = self.added.iter().position(|a| a.key == key) {
            self.added.swap_remove(pos);
            return self;
        }
        if !self.removed.contains(&key) {
            self.removed.push(key);
        }
        self
    }

    /// Edges scheduled for addition.
    pub fn added(&self) -> &[AddedEdge] {
        &self.added
    }

    /// Edges scheduled for removal.
    pub fn removed(&self) -> &[EdgeKey] {
        &self.removed
    }

    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of scheduled edits (the "size" of a Why-Not explanation when
    /// the delta *is* the explanation).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// The set of nodes whose *outgoing* transition row changes under this
    /// delta. PPR engines use this to repair push residuals incrementally.
    pub fn touched_sources(&self) -> Vec<NodeId> {
        let mut set: Vec<NodeId> = Vec::new();
        for a in &self.added {
            if !set.contains(&a.key.src) {
                set.push(a.key.src);
            }
        }
        for r in &self.removed {
            if !set.contains(&r.src) {
                set.push(r.src);
            }
        }
        set
    }

    /// Checks that the delta can be applied to `base`: every removal targets
    /// an existing edge and every addition a non-existing one, with valid
    /// weights and in-bounds endpoints.
    pub fn validate<G: GraphView>(&self, base: &G) -> Result<(), HinError> {
        let n = base.num_nodes() as u32;
        let in_bounds = |id: NodeId| -> Result<(), HinError> {
            if id.0 >= n {
                Err(HinError::NodeOutOfBounds(id))
            } else {
                Ok(())
            }
        };
        for a in &self.added {
            in_bounds(a.key.src)?;
            in_bounds(a.key.dst)?;
            if a.key.src == a.key.dst {
                return Err(HinError::SelfLoop(a.key.src));
            }
            if !a.weight.is_finite() || a.weight <= 0.0 {
                return Err(HinError::InvalidWeight(a.weight));
            }
            if base.has_edge(a.key.src, a.key.dst, a.key.etype) {
                return Err(HinError::DuplicateEdge(a.key));
            }
        }
        for r in &self.removed {
            in_bounds(r.src)?;
            in_bounds(r.dst)?;
            if !base.has_edge(r.src, r.dst, r.etype) {
                return Err(HinError::MissingEdge(*r));
            }
        }
        Ok(())
    }

    /// Attaches the delta to a base graph, yielding a [`GraphView`] of the
    /// edited graph. The delta is *not* validated here; call
    /// [`GraphDelta::validate`] first if the edits come from untrusted input.
    pub fn overlay<'a, G: GraphView>(&'a self, base: &'a G) -> DeltaView<'a, G> {
        DeltaView::new(base, self)
    }

    /// Materialises `base ⊕ delta` into a new [`crate::Hin`] that shares
    /// every node record the delta does not touch with `base`: the cost is
    /// one pointer per node plus a copy of each edited endpoint's record.
    ///
    /// Used by tests to check overlay/materialised equivalence, and by
    /// callers that want to *commit* an accepted explanation.
    pub fn apply_to(&self, base: &crate::Hin) -> Result<crate::Hin, HinError> {
        self.validate(base)?;
        let mut g = base.clone();
        for r in &self.removed {
            g.remove_edge(r.src, r.dst, r.etype)?;
        }
        for a in &self.added {
            g.add_edge(a.key.src, a.key.dst, a.key.etype, a.weight)?;
        }
        Ok(g)
    }
}

/// `base ⊕ delta` exposed as a read-only [`GraphView`].
///
/// A hash set over the removed keys is built once at construction; the
/// added edges are scanned in full on every adjacency visit. The delta is
/// expected to be tiny (explanations have a handful of edges), so both
/// are effectively free.
pub struct DeltaView<'a, G: GraphView> {
    base: &'a G,
    removed: HashSet<EdgeKey>,
    added: &'a [AddedEdge],
}

impl<'a, G: GraphView> DeltaView<'a, G> {
    fn new(base: &'a G, delta: &'a GraphDelta) -> Self {
        DeltaView {
            base,
            removed: delta.removed.iter().copied().collect(),
            added: &delta.added,
        }
    }

    /// The underlying base graph.
    pub fn base(&self) -> &'a G {
        self.base
    }
}

impl<'a, G: GraphView> GraphView for DeltaView<'a, G> {
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    fn node_type(&self, n: NodeId) -> NodeTypeId {
        self.base.node_type(n)
    }

    fn registry(&self) -> &TypeRegistry {
        self.base.registry()
    }

    fn for_each_out<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, mut f: F) {
        self.base.for_each_out(n, |dst, et, w| {
            if !self.removed.contains(&EdgeKey::new(n, dst, et)) {
                f(dst, et, w);
            }
        });
        for a in self.added {
            if a.key.src == n {
                f(a.key.dst, a.key.etype, a.weight);
            }
        }
    }

    fn for_each_in<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, mut f: F) {
        self.base.for_each_in(n, |src, et, w| {
            if !self.removed.contains(&EdgeKey::new(src, n, et)) {
                f(src, et, w);
            }
        });
        for a in self.added {
            if a.key.dst == n {
                f(a.key.src, a.key.etype, a.weight);
            }
        }
    }

    fn has_edge(&self, u: NodeId, v: NodeId, t: EdgeTypeId) -> bool {
        let key = EdgeKey::new(u, v, t);
        if self.removed.contains(&key) {
            return false;
        }
        if self.added.iter().any(|a| a.key == key) {
            return true;
        }
        self.base.has_edge(u, v, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Hin;

    fn base() -> (Hin, Vec<NodeId>, EdgeTypeId) {
        let mut g = Hin::new();
        let nt = g.registry_mut().node_type("n");
        let et = g.registry_mut().edge_type("e");
        let nodes: Vec<_> = (0..4)
            .map(|i| g.add_node(nt, Some(&format!("{i}"))))
            .collect();
        g.add_edge(nodes[0], nodes[1], et, 1.0).unwrap();
        g.add_edge(nodes[0], nodes[2], et, 2.0).unwrap();
        g.add_edge(nodes[1], nodes[2], et, 1.0).unwrap();
        (g, nodes, et)
    }

    #[test]
    fn overlay_removes_and_adds() {
        let (g, n, et) = base();
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(n[0], n[1], et));
        d.add_edge(EdgeKey::new(n[0], n[3], et), 5.0);
        d.validate(&g).unwrap();
        let v = d.overlay(&g);
        assert!(!v.has_edge(n[0], n[1], et));
        assert!(v.has_edge(n[0], n[3], et));
        assert_eq!(v.out_degree(n[0]), 2);
        assert!((v.out_weight_sum(n[0]) - 7.0).abs() < 1e-12);
        assert_eq!(v.in_degree(n[3]), 1);
        assert_eq!(v.in_degree(n[1]), 0);
        // base untouched
        assert!(g.has_edge(n[0], n[1], et));
    }

    #[test]
    fn add_then_remove_cancels() {
        let (_, n, et) = base();
        let mut d = GraphDelta::new();
        let k = EdgeKey::new(n[0], n[3], et);
        d.add_edge(k, 1.0);
        d.remove_edge(k);
        assert!(d.is_empty());
    }

    #[test]
    fn remove_then_add_cancels() {
        let (_, n, et) = base();
        let mut d = GraphDelta::new();
        let k = EdgeKey::new(n[0], n[1], et);
        d.remove_edge(k);
        d.add_edge(k, 1.0);
        assert!(d.is_empty());
    }

    #[test]
    fn duplicate_scheduling_is_idempotent() {
        let (_, n, et) = base();
        let mut d = GraphDelta::new();
        let k = EdgeKey::new(n[0], n[3], et);
        d.add_edge(k, 1.0).add_edge(k, 1.0);
        d.remove_edge(EdgeKey::new(n[0], n[1], et))
            .remove_edge(EdgeKey::new(n[0], n[1], et));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn validate_catches_bad_edits() {
        let (g, n, et) = base();
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(n[2], n[3], et)); // missing
        assert!(matches!(d.validate(&g), Err(HinError::MissingEdge(_))));

        let mut d = GraphDelta::new();
        d.add_edge(EdgeKey::new(n[0], n[1], et), 1.0); // duplicate
        assert!(matches!(d.validate(&g), Err(HinError::DuplicateEdge(_))));

        let mut d = GraphDelta::new();
        d.add_edge(EdgeKey::new(n[0], n[3], et), -1.0);
        assert!(matches!(d.validate(&g), Err(HinError::InvalidWeight(_))));

        let mut d = GraphDelta::new();
        d.add_edge(EdgeKey::new(n[0], NodeId(99), et), 1.0);
        assert!(matches!(d.validate(&g), Err(HinError::NodeOutOfBounds(_))));
    }

    #[test]
    fn overlay_matches_materialised_graph() {
        let (g, n, et) = base();
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(n[0], n[2], et));
        d.add_edge(EdgeKey::new(n[2], n[0], et), 3.0);
        let materialised = d.apply_to(&g).unwrap();
        let view = d.overlay(&g);
        for u in g.node_ids() {
            let mut a: Vec<(NodeId, EdgeTypeId, u64)> = Vec::new();
            view.for_each_out(u, |v, t, w| a.push((v, t, w.to_bits())));
            let mut b: Vec<(NodeId, EdgeTypeId, u64)> = Vec::new();
            materialised.for_each_out(u, |v, t, w| b.push((v, t, w.to_bits())));
            a.sort();
            b.sort();
            assert_eq!(a, b, "out-lists differ at {u}");
            let mut ai: Vec<(NodeId, EdgeTypeId, u64)> = Vec::new();
            view.for_each_in(u, |v, t, w| ai.push((v, t, w.to_bits())));
            let mut bi: Vec<(NodeId, EdgeTypeId, u64)> = Vec::new();
            materialised.for_each_in(u, |v, t, w| bi.push((v, t, w.to_bits())));
            ai.sort();
            bi.sort();
            assert_eq!(ai, bi, "in-lists differ at {u}");
        }
    }

    #[test]
    fn touched_sources_deduplicates() {
        let (_, n, et) = base();
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(n[0], n[1], et));
        d.remove_edge(EdgeKey::new(n[0], n[2], et));
        d.add_edge(EdgeKey::new(n[1], n[3], et), 1.0);
        let mut t = d.touched_sources();
        t.sort();
        assert_eq!(t, vec![n[0], n[1]]);
    }
}
