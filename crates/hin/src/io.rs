//! Plain-text graph interchange: a line-oriented edge-list format and a
//! Graphviz DOT exporter.
//!
//! The edge-list format is self-contained (types, labels, edges) so a
//! preprocessed HIN can be frozen to disk and reloaded bit-identically —
//! useful for pinning an experiment's exact graph, or for moving graphs
//! between this library and external tooling.
//!
//! ```text
//! # emigre-hin v1
//! nodetype 0 user
//! edgetype 0 rated
//! node 0 0 Paul            (id, type, optional label)
//! node 1 1
//! edge 0 1 0 2.5           (src, dst, edge type, weight)
//! ```
//!
//! A node's label is the rest of its line after the type field, kept
//! verbatim: runs of spaces and tabs inside it survive a reload. Leading
//! and trailing whitespace is trimmed, as for every line.

use crate::graph::Hin;
use crate::types::{EdgeTypeId, NodeId, NodeTypeId};
use crate::view::GraphView;
use std::fmt;

const HEADER: &str = "# emigre-hin v1";

/// Errors raised while parsing the edge-list format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    MissingHeader,
    BadRecord { line: usize, reason: String },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing '{HEADER}' header"),
            ParseError::BadRecord { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialises the graph (types, nodes, labels, edges) into the edge-list
/// format. Node ids are written densely in order, so the round-trip is
/// identity.
pub fn to_edge_list(g: &Hin) -> String {
    let reg = g.registry();
    let mut out = String::from(HEADER);
    out.push('\n');
    for t in reg.node_type_ids() {
        out.push_str(&format!("nodetype {} {}\n", t.0, reg.node_type_name(t)));
    }
    for t in reg.edge_type_ids() {
        out.push_str(&format!("edgetype {} {}\n", t.0, reg.edge_type_name(t)));
    }
    for n in g.node_ids() {
        match g.label(n) {
            Some(l) => out.push_str(&format!("node {} {} {}\n", n.0, g.node_type(n).0, l)),
            None => out.push_str(&format!("node {} {}\n", n.0, g.node_type(n).0)),
        }
    }
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort_by_key(|(k, _)| (k.src, k.dst, k.etype));
    for (k, w) in edges {
        out.push_str(&format!(
            "edge {} {} {} {}\n",
            k.src.0, k.dst.0, k.etype.0, w
        ));
    }
    out
}

/// The next whitespace-separated field parsed as `T`; `None` when it is
/// missing or does not parse (a fraction or a sign where `T` is unsigned,
/// a value past `T`'s range).
fn next_field<'a, T: std::str::FromStr>(parts: &mut impl Iterator<Item = &'a str>) -> Option<T> {
    parts.next().and_then(|s| s.parse().ok())
}

/// The first whitespace-separated field of `s` and the rest of `s` after
/// it, both without the whitespace around them.
fn split_field(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    let end = s.find(char::is_whitespace).unwrap_or(s.len());
    (&s[..end], s[end..].trim_start())
}

/// Parses the edge-list format back into a graph.
pub fn from_edge_list(text: &str) -> Result<Hin, ParseError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        _ => return Err(ParseError::MissingHeader),
    }
    let mut g = Hin::new();
    let bad = |line: usize, reason: &str| ParseError::BadRecord {
        line: line + 1,
        reason: reason.to_owned(),
    };
    for (lineno, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (kind, rest) = split_field(line);
        let mut parts = rest.split_whitespace();
        match kind {
            "nodetype" | "edgetype" => {
                let id: u16 = next_field(&mut parts).ok_or_else(|| bad(lineno, "bad type id"))?;
                let name = parts
                    .next()
                    .ok_or_else(|| bad(lineno, "missing type name"))?;
                let interned = if kind == "nodetype" {
                    g.registry_mut().node_type(name).0
                } else {
                    g.registry_mut().edge_type(name).0
                };
                if interned != id {
                    return Err(bad(lineno, "type ids must be dense and in order"));
                }
            }
            "node" => {
                let (id, rest) = split_field(rest);
                let (t, label) = split_field(rest);
                let id: u32 = id.parse().map_err(|_| bad(lineno, "bad node id"))?;
                let t: u16 = t.parse().map_err(|_| bad(lineno, "bad node type"))?;
                if t as usize >= g.registry().num_node_types() {
                    return Err(bad(lineno, "unknown node type"));
                }
                // The rest of the line (if any) is the label, verbatim.
                let label = (!label.is_empty()).then_some(label);
                let created = g.add_node(NodeTypeId(t), label);
                if created.0 != id {
                    return Err(bad(lineno, "node ids must be dense and in order"));
                }
            }
            "edge" => {
                let src: u32 = next_field(&mut parts).ok_or_else(|| bad(lineno, "bad src"))?;
                let dst: u32 = next_field(&mut parts).ok_or_else(|| bad(lineno, "bad dst"))?;
                let et: u16 = next_field(&mut parts).ok_or_else(|| bad(lineno, "bad edge type"))?;
                let w: f64 = next_field(&mut parts).ok_or_else(|| bad(lineno, "bad weight"))?;
                if et as usize >= g.registry().num_edge_types() {
                    return Err(bad(lineno, "unknown edge type"));
                }
                g.add_edge(NodeId(src), NodeId(dst), EdgeTypeId(et), w)
                    .map_err(|e| bad(lineno, &e.to_string()))?;
            }
            other => return Err(bad(lineno, &format!("unknown record {other:?}"))),
        }
    }
    Ok(g)
}

/// Graphviz DOT rendering for small graphs (running examples, debugging).
/// Node shapes encode node types; edge labels carry the edge type name.
/// Bidirectional edge pairs are drawn once with `dir=both`.
pub fn to_dot(g: &Hin) -> String {
    const SHAPES: [&str; 6] = ["ellipse", "box", "diamond", "hexagon", "trapezium", "oval"];
    let reg = g.registry();
    let mut out = String::from("digraph hin {\n  rankdir=LR;\n");
    for n in g.node_ids() {
        let t = g.node_type(n);
        out.push_str(&format!(
            "  n{} [label=\"{}\", shape={}];\n",
            n.0,
            g.display_name(n).replace('"', "'"),
            SHAPES[t.index() % SHAPES.len()]
        ));
    }
    for (k, w) in g.edges() {
        let mirrored = g.has_edge(k.dst, k.src, k.etype);
        if mirrored && k.src > k.dst {
            continue; // drawn once from the lower id
        }
        out.push_str(&format!(
            "  n{} -> n{} [label=\"{} ({w})\"{}];\n",
            k.src.0,
            k.dst.0,
            reg.edge_type_name(k.etype),
            if mirrored { ", dir=both" } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hin {
        let mut g = Hin::new();
        let user = g.registry_mut().node_type("user");
        let item = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let follows = g.registry_mut().edge_type("follows");
        let u = g.add_node(user, Some("Paul Atreides"));
        let v = g.add_node(user, None);
        let i = g.add_node(item, Some("Dune"));
        g.add_edge_bidirectional(u, i, rated, 2.5).unwrap();
        g.add_edge(u, v, follows, 1.0).unwrap();
        g
    }

    #[test]
    fn round_trip_is_identity() {
        let g = sample();
        let text = to_edge_list(&g);
        let back = from_edge_list(&text).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.registry(), g.registry());
        for n in g.node_ids() {
            assert_eq!(back.label(n), g.label(n));
            assert_eq!(back.node_type(n), g.node_type(n));
        }
        for (k, w) in g.edges() {
            assert_eq!(back.edge_weight(k.src, k.dst, k.etype), Some(w));
        }
        // And the re-serialisation is byte-identical.
        assert_eq!(to_edge_list(&back), text);
    }

    #[test]
    fn labels_with_spaces_survive() {
        let g = sample();
        let back = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(back.label(crate::NodeId(0)), Some("Paul Atreides"));
    }

    #[test]
    fn labels_keep_their_inner_whitespace() {
        let mut g = Hin::new();
        let user = g.registry_mut().node_type("user");
        let n = g.add_node(user, Some("Paul  \t Atreides"));
        let text = to_edge_list(&g);
        let back = from_edge_list(&text).unwrap();
        assert_eq!(back.label(n), Some("Paul  \t Atreides"));
        assert_eq!(to_edge_list(&back), text);
        // Whitespace around the fields is not part of them.
        let text = format!("{HEADER}\nnodetype 0 user\n  node\t0  0 \tPaul  \t Atreides \t\n");
        let back = from_edge_list(&text).unwrap();
        assert_eq!(back.label(n), Some("Paul  \t Atreides"));
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(matches!(
            from_edge_list("nope"),
            Err(ParseError::MissingHeader)
        ));
        let text = format!("{HEADER}\nnodetype 0 user\nnode 5 0\n");
        match from_edge_list(&text) {
            Err(ParseError::BadRecord { line: 3, reason }) => {
                assert!(reason.contains("dense"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let text = format!("{HEADER}\nwhatisthis 1 2\n");
        assert!(matches!(
            from_edge_list(&text),
            Err(ParseError::BadRecord { line: 2, .. })
        ));
    }

    #[test]
    fn malformed_edge_ids_are_rejected_not_coerced() {
        let prefix =
            format!("{HEADER}\nnodetype 0 n\nedgetype 0 e\nnode 0 0\nnode 1 0\nnode 2 0\n");
        for (edge, reason) in [
            ("edge 3.9 -1 0 1", "bad src"),
            ("edge 0 -1 0 1", "bad dst"),
            ("edge nan 2 0 1", "bad src"),
            ("edge 0 2 0.7 1", "bad edge type"),
            ("edge 0 4294967296 0 1", "bad dst"),
            ("edge 0 2 65536 1", "bad edge type"),
            ("edge 0 2 0", "bad weight"),
        ] {
            match from_edge_list(&format!("{prefix}{edge}\n")) {
                Err(ParseError::BadRecord { line: 7, reason: r }) => {
                    assert_eq!(r, reason, "{edge}");
                }
                other => panic!("{edge}: unexpected {other:?}"),
            }
        }
        let g = from_edge_list(&format!("{prefix}edge 0 2 0 1.5\n")).unwrap();
        assert_eq!(
            g.edge_weight(NodeId(0), NodeId(2), EdgeTypeId(0)),
            Some(1.5)
        );
    }

    #[test]
    fn unknown_types_rejected() {
        let text = format!("{HEADER}\nnodetype 0 user\nnode 0 7\n");
        assert!(from_edge_list(&text).is_err());
        let text = format!("{HEADER}\nnodetype 0 user\nnode 0 0\nnode 1 0\nedge 0 1 3 1.0\n");
        assert!(from_edge_list(&text).is_err());
    }

    #[test]
    fn dot_renders_nodes_and_merged_bidirectional_edges() {
        let g = sample();
        let dot = to_dot(&g);
        assert!(dot.contains("digraph hin"));
        assert!(dot.contains("Paul Atreides"));
        assert!(dot.contains("dir=both"));
        // The rated pair appears once, the one-way follow once.
        assert_eq!(dot.matches("rated").count(), 1);
        assert_eq!(dot.matches("follows").count(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = sample();
        let mut text = to_edge_list(&g);
        text.push_str("\n# trailing comment\n\n");
        assert!(from_edge_list(&text).is_ok());
    }
}
