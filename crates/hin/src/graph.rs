//! The mutable Heterogeneous Information Network.
//!
//! [`Hin`] stores a directed, weighted, node- and edge-typed graph with both
//! outgoing and incoming adjacency lists. It is the canonical in-memory
//! representation built by the preprocessing pipeline (paper §6.1) and
//! consumed by the PPR engines and the EMiGRe explanation search.

use crate::types::{EdgeKey, EdgeTypeId, NodeId, NodeTypeId, TypeRegistry};
use crate::view::GraphView;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One directed adjacency entry: the node at the other end of the edge, the
/// edge's type and its weight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeRecord {
    /// Other endpoint (destination for out-lists, source for in-lists).
    pub node: NodeId,
    pub etype: EdgeTypeId,
    pub weight: f64,
}

/// Errors raised by graph mutations.
#[derive(Debug, Clone, PartialEq)]
pub enum HinError {
    /// A referenced node id is outside `0..num_nodes()`.
    NodeOutOfBounds(NodeId),
    /// An edge with the same `(src, dst, type)` key already exists.
    DuplicateEdge(EdgeKey),
    /// The requested edge does not exist.
    MissingEdge(EdgeKey),
    /// Edge weights must be finite and strictly positive.
    InvalidWeight(f64),
    /// Self-loops are rejected: they have no meaning for user actions and
    /// would distort the PPR transition rows.
    SelfLoop(NodeId),
}

impl fmt::Display for HinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HinError::NodeOutOfBounds(n) => write!(f, "node {n} out of bounds"),
            HinError::DuplicateEdge(k) => write!(f, "edge {k} already exists"),
            HinError::MissingEdge(k) => write!(f, "edge {k} does not exist"),
            HinError::InvalidWeight(w) => write!(f, "invalid edge weight {w}"),
            HinError::SelfLoop(n) => write!(f, "self-loop on node {n} rejected"),
        }
    }
}

impl std::error::Error for HinError {}

#[derive(Debug, Clone)]
struct NodeData {
    ntype: NodeTypeId,
    /// Optional human-readable label ("Harry Potter", "user #17", ...).
    label: Option<String>,
    out: Vec<EdgeRecord>,
    inc: Vec<EdgeRecord>,
    /// Cached sum of outgoing weights; kept in sync by every mutation so the
    /// PPR transition normaliser is O(1).
    out_weight_sum: f64,
}

/// A directed, weighted Heterogeneous Information Network (paper Def. 3.1).
///
/// Nodes are dense `NodeId`s; at most one edge may exist per
/// `(src, dst, edge-type)` key. Adjacency is stored twice (out and in) so
/// that forward *and* reverse local-push PPR run without building transposes.
///
/// Node records and the type registry are copy-on-write: a clone shares
/// every record and the registry with its original, and a mutation
/// deep-copies only the records it edits (and the registry, if it interns
/// a type). A graph built by
/// [`GraphDelta::apply_to`](crate::GraphDelta::apply_to) therefore costs
/// one pointer per node plus copies of the records its edits touch.
///
/// ```
/// use emigre_hin::{Hin, GraphView};
///
/// let mut g = Hin::new();
/// let user_t = g.registry_mut().node_type("user");
/// let item_t = g.registry_mut().node_type("item");
/// let rated = g.registry_mut().edge_type("rated");
///
/// let u = g.add_node(user_t, Some("Paul"));
/// let i = g.add_node(item_t, Some("Harry Potter"));
/// g.add_edge(u, i, rated, 1.0).unwrap();
/// assert_eq!(g.out_degree(u), 1);
/// assert!(g.has_edge(u, i, rated));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Hin {
    nodes: Vec<Arc<NodeData>>,
    registry: Arc<TypeRegistry>,
    num_edges: usize,
}

impl Hin {
    /// Creates an empty graph with an empty type registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph that shares a pre-populated registry.
    pub fn with_registry(registry: TypeRegistry) -> Self {
        Hin {
            nodes: Vec::new(),
            registry: Arc::new(registry),
            num_edges: 0,
        }
    }

    /// Mutable access to the type registry (for interning new types).
    /// Copies the registry first if another graph shares it.
    pub fn registry_mut(&mut self) -> &mut TypeRegistry {
        Arc::make_mut(&mut self.registry)
    }

    /// Adds a node of the given type, returning its id.
    pub fn add_node(&mut self, ntype: NodeTypeId, label: Option<&str>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Arc::new(NodeData {
            ntype,
            label: label.map(str::to_owned),
            out: Vec::new(),
            inc: Vec::new(),
            out_weight_sum: 0.0,
        }));
        id
    }

    /// The node's label, if one was provided at creation.
    pub fn label(&self, n: NodeId) -> Option<&str> {
        self.nodes.get(n.index()).and_then(|d| d.label.as_deref())
    }

    /// Label if present, otherwise the node id rendered as text.
    pub fn display_name(&self, n: NodeId) -> String {
        match self.label(n) {
            Some(l) => l.to_owned(),
            None => n.to_string(),
        }
    }

    fn check_node(&self, n: NodeId) -> Result<(), HinError> {
        if n.index() >= self.nodes.len() {
            Err(HinError::NodeOutOfBounds(n))
        } else {
            Ok(())
        }
    }

    /// The one way a mutator reaches a record: copies it first if another
    /// graph still shares it.
    fn node_mut(&mut self, n: NodeId) -> &mut NodeData {
        Arc::make_mut(&mut self.nodes[n.index()])
    }

    /// Inserts the directed edge `(src, dst, etype)` with the given weight.
    ///
    /// Fails on duplicate keys, unknown nodes, self-loops, or non-positive /
    /// non-finite weights.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        etype: EdgeTypeId,
        weight: f64,
    ) -> Result<(), HinError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(HinError::SelfLoop(src));
        }
        if !weight.is_finite() || weight <= 0.0 {
            return Err(HinError::InvalidWeight(weight));
        }
        if self.has_edge(src, dst, etype) {
            return Err(HinError::DuplicateEdge(EdgeKey::new(src, dst, etype)));
        }
        let s = self.node_mut(src);
        s.out.push(EdgeRecord {
            node: dst,
            etype,
            weight,
        });
        s.out_weight_sum += weight;
        self.node_mut(dst).inc.push(EdgeRecord {
            node: src,
            etype,
            weight,
        });
        self.num_edges += 1;
        Ok(())
    }

    /// Inserts the edge in both directions (the paper's bidirectional
    /// preprocessing: "we consider any type of relationship to be
    /// bidirectional", §6.1). Both directions get the same weight.
    pub fn add_edge_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        etype: EdgeTypeId,
        weight: f64,
    ) -> Result<(), HinError> {
        self.add_edge(a, b, etype, weight)?;
        self.add_edge(b, a, etype, weight)
    }

    /// Removes the directed edge `(src, dst, etype)`.
    pub fn remove_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        etype: EdgeTypeId,
    ) -> Result<(), HinError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        let key = EdgeKey::new(src, dst, etype);
        let pos = self.nodes[src.index()]
            .out
            .iter()
            .position(|e| e.node == dst && e.etype == etype)
            .ok_or(HinError::MissingEdge(key))?;
        let s = self.node_mut(src);
        let removed = s.out.swap_remove(pos);
        s.out_weight_sum -= removed.weight;
        let inc = &mut self.node_mut(dst).inc;
        let ipos = inc
            .iter()
            .position(|e| e.node == src && e.etype == etype)
            .expect("in-list must mirror out-list");
        inc.swap_remove(ipos);
        self.num_edges -= 1;
        Ok(())
    }

    /// Removes the edge in both directions.
    pub fn remove_edge_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        etype: EdgeTypeId,
    ) -> Result<(), HinError> {
        self.remove_edge(a, b, etype)?;
        self.remove_edge(b, a, etype)
    }

    /// Weight of the edge `(src, dst, etype)`, if it exists.
    pub fn edge_weight(&self, src: NodeId, dst: NodeId, etype: EdgeTypeId) -> Option<f64> {
        self.nodes.get(src.index()).and_then(|d| {
            d.out
                .iter()
                .find(|e| e.node == dst && e.etype == etype)
                .map(|e| e.weight)
        })
    }

    /// Direct slice access to the outgoing adjacency of `n`.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeRecord] {
        &self.nodes[n.index()].out
    }

    /// Direct slice access to the incoming adjacency of `n`.
    pub fn in_edges(&self, n: NodeId) -> &[EdgeRecord] {
        &self.nodes[n.index()].inc
    }

    /// All edges of the graph as `(key, weight)` pairs, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeKey, f64)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(src, d)| {
            d.out
                .iter()
                .map(move |e| (EdgeKey::new(NodeId(src as u32), e.node, e.etype), e.weight))
        })
    }

    /// Iterator over every node id.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Restores one node verbatim from a snapshot: both adjacency lists in
    /// their stored order and the *cached* out-weight sum exactly as
    /// persisted. The incremental sum is part of the graph's observable
    /// state (a remove can leave a rounding residue a recomputation would
    /// erase), so reconstruction must bypass the validating mutators.
    /// Callers append nodes densely in id order.
    pub(crate) fn restore_node(
        &mut self,
        ntype: NodeTypeId,
        label: Option<String>,
        out: Vec<EdgeRecord>,
        inc: Vec<EdgeRecord>,
        out_weight_sum: f64,
    ) {
        self.num_edges += out.len();
        self.nodes.push(Arc::new(NodeData {
            ntype,
            label,
            out,
            inc,
            out_weight_sum,
        }));
    }

    /// Heap bytes reachable from the graph: the record pointer array, each
    /// record with its two `Arc` counters, both adjacency buffers of every
    /// node, label strings, and the type registry with its two `Arc`
    /// counters. Counts buffer *capacities* (what the structure asked the
    /// allocator for), excluding `size_of::<Hin>()` itself. Records and a
    /// registry shared with another graph are counted in full by each.
    /// This is the structural footprint behind the server's
    /// `emigre_graph_bytes` gauge.
    pub fn heap_bytes(&self) -> usize {
        let pointers = self.nodes.capacity() * std::mem::size_of::<Arc<NodeData>>();
        let record = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<NodeData>();
        let per_node: usize = self
            .nodes
            .iter()
            .map(|d| {
                record
                    + (d.out.capacity() + d.inc.capacity()) * std::mem::size_of::<EdgeRecord>()
                    + d.label.as_ref().map_or(0, |l| l.capacity())
            })
            .sum();
        let registry = 2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<TypeRegistry>()
            + self.registry.heap_bytes();
        pointers + per_node + registry
    }
}

impl GraphView for Hin {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn node_type(&self, n: NodeId) -> NodeTypeId {
        self.nodes[n.index()].ntype
    }

    fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    fn for_each_out<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, mut f: F) {
        for e in &self.nodes[n.index()].out {
            f(e.node, e.etype, e.weight);
        }
    }

    fn for_each_in<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, mut f: F) {
        for e in &self.nodes[n.index()].inc {
            f(e.node, e.etype, e.weight);
        }
    }

    fn out_degree(&self, n: NodeId) -> usize {
        self.nodes[n.index()].out.len()
    }

    fn in_degree(&self, n: NodeId) -> usize {
        self.nodes[n.index()].inc.len()
    }

    fn out_weight_sum(&self, n: NodeId) -> f64 {
        self.nodes[n.index()].out_weight_sum
    }

    fn has_edge(&self, u: NodeId, v: NodeId, t: EdgeTypeId) -> bool {
        self.nodes[u.index()]
            .out
            .iter()
            .any(|e| e.node == v && e.etype == t)
    }

    fn has_any_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.nodes[u.index()].out.iter().any(|e| e.node == v)
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Hin, NodeId, NodeId, NodeId, EdgeTypeId) {
        let mut g = Hin::new();
        let user = g.registry_mut().node_type("user");
        let item = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user, Some("u"));
        let a = g.add_node(item, Some("a"));
        let b = g.add_node(item, Some("b"));
        (g, u, a, b, rated)
    }

    #[test]
    fn add_and_query_edges() {
        let (mut g, u, a, b, t) = small();
        g.add_edge(u, a, t, 2.0).unwrap();
        g.add_edge(u, b, t, 3.0).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(u), 2);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.edge_weight(u, a, t), Some(2.0));
        assert_eq!(g.out_weight_sum(u), 5.0);
        assert!(g.has_any_edge(u, a));
        assert!(!g.has_any_edge(a, u));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut g, u, a, _, t) = small();
        g.add_edge(u, a, t, 1.0).unwrap();
        assert_eq!(
            g.add_edge(u, a, t, 1.0),
            Err(HinError::DuplicateEdge(EdgeKey::new(u, a, t)))
        );
    }

    #[test]
    fn same_endpoints_different_type_allowed() {
        let (mut g, u, a, _, t) = small();
        let reviewed = g.registry_mut().edge_type("reviewed");
        g.add_edge(u, a, t, 1.0).unwrap();
        g.add_edge(u, a, reviewed, 1.0).unwrap();
        assert_eq!(g.out_degree(u), 2);
        assert_eq!(g.out_neighbors(u), vec![a]);
    }

    #[test]
    fn self_loop_rejected() {
        let (mut g, u, _, _, t) = small();
        assert_eq!(g.add_edge(u, u, t, 1.0), Err(HinError::SelfLoop(u)));
    }

    #[test]
    fn invalid_weights_rejected() {
        let (mut g, u, a, _, t) = small();
        assert!(matches!(
            g.add_edge(u, a, t, 0.0),
            Err(HinError::InvalidWeight(_))
        ));
        assert!(matches!(
            g.add_edge(u, a, t, -1.0),
            Err(HinError::InvalidWeight(_))
        ));
        assert!(matches!(
            g.add_edge(u, a, t, f64::NAN),
            Err(HinError::InvalidWeight(_))
        ));
        assert!(matches!(
            g.add_edge(u, a, t, f64::INFINITY),
            Err(HinError::InvalidWeight(_))
        ));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (mut g, u, _, _, t) = small();
        let ghost = NodeId(99);
        assert_eq!(
            g.add_edge(u, ghost, t, 1.0),
            Err(HinError::NodeOutOfBounds(ghost))
        );
    }

    #[test]
    fn remove_edge_restores_state() {
        let (mut g, u, a, b, t) = small();
        g.add_edge(u, a, t, 2.0).unwrap();
        g.add_edge(u, b, t, 3.0).unwrap();
        g.remove_edge(u, a, t).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(u), 1);
        assert_eq!(g.in_degree(a), 0);
        assert!((g.out_weight_sum(u) - 3.0).abs() < 1e-12);
        assert_eq!(
            g.remove_edge(u, a, t),
            Err(HinError::MissingEdge(EdgeKey::new(u, a, t)))
        );
    }

    #[test]
    fn bidirectional_helpers() {
        let (mut g, u, a, _, t) = small();
        g.add_edge_bidirectional(u, a, t, 1.5).unwrap();
        assert!(g.has_edge(u, a, t));
        assert!(g.has_edge(a, u, t));
        g.remove_edge_bidirectional(u, a, t).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn edges_iterator_sees_everything() {
        let (mut g, u, a, b, t) = small();
        g.add_edge(u, a, t, 1.0).unwrap();
        g.add_edge(a, b, t, 1.0).unwrap();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&(EdgeKey::new(u, a, t), 1.0)));
        assert!(all.contains(&(EdgeKey::new(a, b, t), 1.0)));
    }

    #[test]
    fn labels_and_display_names() {
        let (g, u, _, _, _) = small();
        assert_eq!(g.label(u), Some("u"));
        assert_eq!(g.display_name(u), "u");
        assert_eq!(g.display_name(NodeId(1)), "a");
    }

    #[test]
    fn nodes_of_type_filters() {
        let (g, u, a, b, _) = small();
        let user_t = g.registry().find_node_type("user").unwrap();
        let item_t = g.registry().find_node_type("item").unwrap();
        assert_eq!(g.nodes_of_type(user_t), vec![u]);
        assert_eq!(g.nodes_of_type(item_t), vec![a, b]);
    }

    #[test]
    fn clone_is_deep() {
        let (mut g, u, a, _, t) = small();
        g.add_edge(u, a, t, 1.0).unwrap();
        let snapshot = g.clone();
        g.remove_edge(u, a, t).unwrap();
        assert!(snapshot.has_edge(u, a, t));
        assert!(!g.has_edge(u, a, t));
    }

    #[test]
    fn mutations_copy_only_the_records_they_edit() {
        let (mut g, u, a, b, t) = small();
        g.add_edge(u, a, t, 1.0).unwrap();
        let parent = g.clone();
        let shared =
            |g: &Hin, n: NodeId| Arc::ptr_eq(&g.nodes[n.index()], &parent.nodes[n.index()]);
        assert!(g.node_ids().all(|n| shared(&g, n)));
        // Failed mutations leave every record shared.
        assert!(g.add_edge(u, a, t, 1.0).is_err());
        assert!(g.remove_edge(a, b, t).is_err());
        assert!(g.node_ids().all(|n| shared(&g, n)));
        g.add_edge(a, b, t, 2.0).unwrap();
        assert!(shared(&g, u));
        assert!(!shared(&g, a) && !shared(&g, b));
        assert_eq!(parent.out_degree(a), 0);
        assert_eq!(parent.in_degree(b), 0);
        // Edge edits share the registry; interning a type copies it.
        assert!(Arc::ptr_eq(&g.registry, &parent.registry));
        g.registry_mut().edge_type("new");
        assert!(!Arc::ptr_eq(&g.registry, &parent.registry));
        assert_eq!(parent.registry().find_edge_type("new"), None);
    }

    #[test]
    fn heap_bytes_counts_pointers_records_lists_labels_and_registry() {
        let mut g = Hin {
            nodes: Vec::with_capacity(3),
            ..Hin::default()
        };
        let nt = g.registry_mut().node_type("n");
        let et = g.registry_mut().edge_type("e");
        let e = |node: u32, weight: f64| EdgeRecord {
            node: NodeId(node),
            etype: et,
            weight,
        };
        // `vec![..]` and `String::from` allocate exactly their length.
        g.restore_node(
            nt,
            Some(String::from("ab")),
            vec![e(1, 1.0), e(2, 2.0)],
            vec![],
            3.0,
        );
        g.restore_node(nt, None, vec![], vec![e(0, 1.0)], 0.0);
        g.restore_node(nt, Some(String::from("c")), vec![], vec![e(0, 2.0)], 0.0);
        let record = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<NodeData>();
        // Pointers, records, four edge entries and three label bytes.
        let nodes = 3 * std::mem::size_of::<usize>()
            + 3 * record
            + 4 * std::mem::size_of::<EdgeRecord>()
            + 3;
        // The registry's `Arc` block (counters and table headers), then
        // its tables.
        let registry = 2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<TypeRegistry>()
            + g.registry().heap_bytes();
        assert_eq!(g.heap_bytes(), nodes + registry);
        // A clone counts the records and the registry it shares in full.
        let c = g.clone();
        assert!(Arc::ptr_eq(&c.registry, &g.registry));
        assert_eq!(c.heap_bytes(), nodes + registry);
    }
}
