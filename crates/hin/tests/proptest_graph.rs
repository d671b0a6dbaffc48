//! Property tests for the HIN substrate: mutation invariants, overlay /
//! materialisation equivalence, copy-on-write isolation of clones, and
//! subgraph-extraction soundness under random graphs and random edit
//! scripts.

use emigre_hin::{EdgeKey, EdgeRecord, EdgeTypeId, GraphDelta, GraphView, Hin, NodeId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Add {
        src: u32,
        dst: u32,
        etype: u16,
        weight: f64,
    },
    Remove {
        src: u32,
        dst: u32,
        etype: u16,
    },
}

fn ops(n: u32, types: u16) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0..n, 0..n, 0..types, 0.1f64..5.0).prop_map(|(src, dst, etype, weight)| Op::Add {
            src,
            dst,
            etype,
            weight
        }),
        (0..n, 0..n, 0..types).prop_map(|(src, dst, etype)| Op::Remove { src, dst, etype }),
    ];
    proptest::collection::vec(op, 1..60)
}

fn apply(g: &mut Hin, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Add {
                src,
                dst,
                etype,
                weight,
            } => {
                let _ = g.add_edge(NodeId(src), NodeId(dst), EdgeTypeId(etype), weight);
            }
            Op::Remove { src, dst, etype } => {
                let _ = g.remove_edge(NodeId(src), NodeId(dst), EdgeTypeId(etype));
            }
        }
    }
}

/// Builds a delta from the ops that are valid against `g` in sequence,
/// skipping the rest.
fn valid_delta(g: &Hin, edits: &[Op]) -> GraphDelta {
    let mut d = GraphDelta::new();
    for op in edits {
        match *op {
            Op::Add {
                src,
                dst,
                etype,
                weight,
            } => {
                let key = EdgeKey::new(NodeId(src), NodeId(dst), EdgeTypeId(etype));
                if src != dst
                    && !g.has_edge(key.src, key.dst, key.etype)
                    && !d.added().iter().any(|a| a.key == key)
                    && !d.removed().contains(&key)
                {
                    d.add_edge(key, weight);
                }
            }
            Op::Remove { src, dst, etype } => {
                let key = EdgeKey::new(NodeId(src), NodeId(dst), EdgeTypeId(etype));
                if g.has_edge(key.src, key.dst, key.etype)
                    && !d.removed().contains(&key)
                    && !d.added().iter().any(|a| a.key == key)
                {
                    d.remove_edge(key);
                }
            }
        }
    }
    d
}

/// One adjacency list in stored order, weights by bit pattern.
type List = Vec<(NodeId, EdgeTypeId, u64)>;

/// Everything a graph's readers see: both adjacency lists of every node,
/// its cached out-weight sum by bit pattern, and the edge count.
fn observe(g: &Hin) -> (Vec<(List, List, u64)>, usize) {
    let list = |l: &[EdgeRecord]| -> List {
        l.iter()
            .map(|e| (e.node, e.etype, e.weight.to_bits()))
            .collect()
    };
    let nodes = g
        .node_ids()
        .map(|n| {
            (
                list(g.out_edges(n)),
                list(g.in_edges(n)),
                g.out_weight_sum(n).to_bits(),
            )
        })
        .collect();
    (nodes, g.num_edges())
}

/// A copy of `g` that shares nothing with it: the binary image restores
/// adjacency order and cached sums verbatim into fresh records.
fn independent_copy(g: &Hin) -> Hin {
    emigre_hin::Snapshot::from_bytes(emigre_hin::snapshot_to_bytes(g))
        .expect("a fresh image opens")
        .to_hin()
}

fn fresh(n: u32) -> Hin {
    let mut g = Hin::new();
    let nt = g.registry_mut().node_type("n");
    g.registry_mut().edge_type("a");
    g.registry_mut().edge_type("b");
    for _ in 0..n {
        g.add_node(nt, None);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any edit script: in-lists mirror out-lists, cached weight sums
    /// match recomputation, and the edge count is consistent.
    #[test]
    fn adjacency_invariants_hold(script in ops(8, 2)) {
        let mut g = fresh(8);
        apply(&mut g, &script);
        let mut total = 0usize;
        for u in g.node_ids() {
            let mut out: Vec<(NodeId, EdgeTypeId, f64)> = Vec::new();
            g.for_each_out(u, |v, t, w| out.push((v, t, w)));
            let wsum: f64 = out.iter().map(|(_, _, w)| w).sum();
            total += out.len();
            for (v, t, w) in out {
                prop_assert!(g.has_edge(u, v, t));
                let mut mirrored = false;
                g.for_each_in(v, |src, t2, w2| {
                    if src == u && t2 == t && (w2 - w).abs() < 1e-15 {
                        mirrored = true;
                    }
                });
                prop_assert!(mirrored, "in-list of {v} missing ({u},{t:?})");
            }
            prop_assert!((g.out_weight_sum(u) - wsum).abs() < 1e-9,
                "cached weight sum drifted at {u}: {} vs {}", g.out_weight_sum(u), wsum);
        }
        prop_assert_eq!(total, g.num_edges());
    }

    /// A random delta over a random graph: the overlay view and the
    /// materialised graph agree on every adjacency query.
    #[test]
    fn overlay_equals_materialised(script in ops(7, 2), edits in ops(7, 2)) {
        let mut g = fresh(7);
        apply(&mut g, &script);
        let d = valid_delta(&g, &edits);
        prop_assume!(d.validate(&g).is_ok());
        let materialised = d.apply_to(&g).unwrap();
        let view = d.overlay(&g);
        prop_assert_eq!(view.num_edges(), materialised.num_edges());
        for u in g.node_ids() {
            let mut a: Vec<(NodeId, EdgeTypeId, u64)> = Vec::new();
            view.for_each_out(u, |v, t, w| a.push((v, t, w.to_bits())));
            let mut b: Vec<(NodeId, EdgeTypeId, u64)> = Vec::new();
            materialised.for_each_out(u, |v, t, w| b.push((v, t, w.to_bits())));
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "out mismatch at {}", u);
        }
    }

    /// A clone shares its node records with the original until either
    /// edits one. Edits to the clone, made directly or through
    /// `GraphDelta::apply_to`, never show through to the original, and
    /// the edited clone equals the same edits made to a copy that shares
    /// nothing.
    #[test]
    fn edits_to_a_clone_leave_the_original_untouched(
        script in ops(8, 2),
        edits in ops(8, 2),
    ) {
        let mut g = fresh(8);
        apply(&mut g, &script);
        let before = observe(&g);

        let mut direct = g.clone();
        apply(&mut direct, &edits);
        let mut expected = independent_copy(&g);
        apply(&mut expected, &edits);
        prop_assert_eq!(observe(&direct), observe(&expected));
        prop_assert_eq!(observe(&g), before.clone());

        let d = valid_delta(&g, &edits);
        let via_delta = d.apply_to(&g).expect("a valid delta applies");
        let expected = d.apply_to(&independent_copy(&g)).expect("a valid delta applies");
        prop_assert_eq!(observe(&via_delta), observe(&expected));
        prop_assert_eq!(observe(&g), before);
    }

    /// Binary snapshots, opened in memory, preserve every query the
    /// algorithms use.
    #[test]
    fn csr_preserves_queries(script in ops(9, 2)) {
        let mut g = fresh(9);
        apply(&mut g, &script);
        let csr = emigre_hin::Snapshot::from_bytes(emigre_hin::snapshot_to_bytes(&g))
            .expect("a fresh image opens");
        prop_assert_eq!(csr.num_edges(), g.num_edges());
        for u in g.node_ids() {
            prop_assert_eq!(csr.out_degree(u), g.out_degree(u));
            prop_assert_eq!(csr.in_degree(u), g.in_degree(u));
            prop_assert!((csr.out_weight_sum(u) - g.out_weight_sum(u)).abs() < 1e-12);
        }
    }

    /// k-hop extraction: every retained node is within k undirected hops of
    /// a seed, and the subgraph is induced (all edges between retained
    /// nodes survive).
    #[test]
    fn khop_is_induced_and_bounded(script in ops(10, 1), seed in 0u32..10, hops in 0usize..4) {
        let mut g = fresh(10);
        apply(&mut g, &script);
        let result = emigre_hin::subgraph::khop_subgraph(&g, &[NodeId(seed)], hops);
        // BFS distances on the original graph (undirected).
        let mut dist = [usize::MAX; 10];
        dist[seed as usize] = 0;
        let mut queue = std::collections::VecDeque::from([NodeId(seed)]);
        while let Some(u) = queue.pop_front() {
            let d = dist[u.index()];
            let mut push = |v: NodeId| {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = d + 1;
                    queue.push_back(v);
                }
            };
            g.for_each_out(u, |v, _, _| push(v));
            g.for_each_in(u, |v, _, _| push(v));
        }
        for orig in g.node_ids() {
            match result.map(orig) {
                Some(_) => prop_assert!(dist[orig.index()] <= hops),
                None => prop_assert!(dist[orig.index()] > hops),
            }
        }
        // Induced: edges between retained nodes survive with weights.
        for (key, w) in g.edges() {
            if let (Some(su), Some(sv)) = (result.map(key.src), result.map(key.dst)) {
                prop_assert_eq!(result.graph.edge_weight(su, sv, key.etype), Some(w));
            }
        }
    }
}
