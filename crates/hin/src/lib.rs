//! # emigre-hin — Heterogeneous Information Network substrate
//!
//! This crate provides the graph layer that the EMiGRe reproduction is built
//! on: a directed, weighted, typed graph in the sense of the paper's
//! Definition 3.1 (*Heterogeneous Information Network*, HIN). Every node and
//! every edge carries exactly one type drawn from an interned
//! [`TypeRegistry`], edges carry `f64` weights, and both outgoing and
//! incoming adjacency are maintained so that forward and reverse
//! Personalized-PageRank push algorithms can traverse the graph in either
//! direction.
//!
//! Beyond the mutable [`Hin`] graph itself, the crate provides:
//!
//! * [`GraphView`] — the read-only traversal trait all algorithms are
//!   generic over;
//! * [`delta::GraphDelta`] / [`delta::DeltaView`] — a counterfactual edit
//!   overlay that applies a small set of edge additions/removals *on top of*
//!   a base graph without cloning it (the workhorse of EMiGRe's CHECK step);
//! * [`subgraph`] — k-hop neighbourhood extraction (the paper's
//!   "Amazon-Lite" construction);
//! * [`stats`] — per-node-type degree statistics (the paper's Table 4);
//! * [`io`] — plain-text edge-list serialisation and Graphviz DOT export;
//! * [`snapshot`] — versioned, checksummed binary snapshots that load via
//!   `mmap` (or from bytes in memory, [`Snapshot::from_bytes`]) as a
//!   zero-copy, immutable CSR [`GraphView`] — the serving fast-start path
//!   and the crate's one frozen graph layout.

pub mod delta;
pub mod graph;
pub mod io;
pub mod snapshot;
pub mod stats;
pub mod subgraph;
pub mod types;
pub mod view;

pub use delta::{DeltaView, GraphDelta};
pub use graph::{EdgeRecord, Hin, HinError};
pub use snapshot::{snapshot_to_bytes, write_snapshot, Snapshot, SnapshotError};
pub use stats::{DegreeStats, NodeTypeStats};
pub use types::{EdgeKey, EdgeTypeId, NodeId, NodeTypeId, TypeRegistry};
pub use view::GraphView;
