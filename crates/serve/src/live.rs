//! Epoch-versioned live graph: the serving substrate behind `POST /feedback`.
//!
//! PR 3 froze `Hin` + `TransitionCsr` at `ExplanationService::start`, so
//! every verdict answered a stale graph. This module makes the pair
//! *replaceable* without ever making it *mutable in place*:
//!
//! - [`GraphEpoch`] is one immutable `(epoch, graph, kernel)` snapshot.
//!   Once constructed it never changes; readers that hold an `Arc` to it
//!   can CHECK against it for as long as they like.
//! - [`LiveGraph`] owns the *current* epoch behind a mutex'd `Arc` swap.
//!   Readers [`pin`](LiveGraph::pin) the current epoch once per request
//!   (one lock + one `Arc` clone) and do every computation — artefact
//!   build, reverse-push column, all CHECKs — against that snapshot, so a
//!   concurrent publish can never tear one explanation across two graphs.
//! - Writers are serialised by a dedicated write lock and follow a
//!   **two-step publish protocol**: (1) *apply* — validate the delta,
//!   materialise the new graph (one pointer per node, plus a copy of each
//!   edited endpoint's record; every other record is shared with the
//!   parent epoch), and rebuild the kernel's touched rows via
//!   [`TransitionCsr::rebuild_rows`](emigre_ppr::TransitionCsr::rebuild_rows)
//!   (`O(Σ deg(touched))` recompute +
//!   `O(E)` copy, entirely outside the readers' lock); (2) *publish* —
//!   swap the `Arc` under the current-epoch lock, an atomic pointer
//!   replacement, and drop the superseded epoch after the lock is
//!   released. There is no intermediate state a reader can observe:
//!   either the old epoch or the fully built new one.
//!
//! A panic anywhere in step (1) — including an injected
//! [`UpdatePhase::Apply`](crate::fault::UpdatePhase) fault — is caught,
//! counted, and leaves the current epoch untouched; a stall between the
//! steps (an [`UpdatePhase::Publish`](crate::fault::UpdatePhase) fault)
//! delays visibility but can't expose partial state. The update-fault
//! testkit suite pins both claims.
//!
//! **Cost model.** Epochs are immutable values, so readers need no
//! synchronisation beyond the initial pin, and a reader stalled for
//! seconds (or a replayed trace) still sees exactly its epoch. They stay
//! cheap to make because a [`Hin`]'s node records are copy-on-write: the
//! new graph copies `V` record pointers and deep-copies only the records
//! the delta edits, and freeing a superseded epoch's graph releases `V`
//! references plus those few records. What is still `O(E)` per publish is
//! the kernel: `rebuild_rows` copies every untouched row into fresh
//! arrays. Sharing kernel rows across epochs is the next step once
//! update rates demand it.
//!
//! **Why not repair cached push state across epochs?**
//! [`PushWorkspace::repair_row_change`](emigre_ppr::PushWorkspace::repair_row_change)
//! repairs a push's residuals after a transition row changes, and the
//! serving caches could carry artefacts across epochs that way — but
//! repaired state is equal only up to the push tolerance, not
//! bit-identical to a fresh build, and the service's core guarantee
//! (served ≡ single-threaded
//! [`reference_explain`](crate::service::reference_explain), bit for bit)
//! is what the differential suites verify against. Stale artefacts are
//! therefore *invalidated* on epoch bumps and rebuilt on the pinned
//! kernel; dynamic repair stays a per-CHECK in-request tool.

use crate::fault::{FaultHandle, UpdatePhase};
use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin, HinError};
use emigre_ppr::TransitionCsr;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One immutable `(epoch, graph, kernel)` snapshot. Epoch 0 is the graph
/// the service started with; every accepted feedback batch publishes the
/// next consecutive epoch.
#[derive(Debug, Clone)]
pub struct GraphEpoch {
    pub epoch: u64,
    pub graph: Arc<Hin>,
    pub kernel: Arc<TransitionCsr>,
}

impl GraphEpoch {
    /// Structural heap footprint of this epoch: adjacency graph plus the
    /// flat transition kernel. The epoch is the designated *owner* of
    /// both shared structures in the `HeapSize` accounting convention —
    /// `UserArtifacts` and the caches deliberately exclude their `Arc`s
    /// to the kernel, so `graph_bytes + cache_bytes` never double counts.
    /// The graph is counted whole, including the node records and the type
    /// registry it shares with other epochs, so two live epochs together
    /// report more than they hold.
    pub fn graph_bytes(&self) -> u64 {
        use emigre_obs::HeapSize;
        (self.graph.heap_bytes() + self.kernel.heap_bytes()) as u64
    }
}

/// One edge add/remove event on the wire (`POST /feedback`, log replay).
///
/// `src`/`dst` are node ids in the served graph; `etype` is an edge-type
/// *name* resolved against the graph's registry. `weight` defaults to 1.0
/// for adds and is ignored for removes. When the serving config's
/// `bidirectional_actions` is set (the paper's preprocessing mirrors every
/// interaction), each event is applied to both directions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackEvent {
    pub op: String,
    pub src: u32,
    pub dst: u32,
    pub etype: String,
    pub weight: Option<f64>,
}

impl FeedbackEvent {
    pub fn add(src: u32, dst: u32, etype: &str, weight: f64) -> Self {
        FeedbackEvent {
            op: "add".to_string(),
            src,
            dst,
            etype: etype.to_string(),
            weight: Some(weight),
        }
    }

    pub fn remove(src: u32, dst: u32, etype: &str) -> Self {
        FeedbackEvent {
            op: "remove".to_string(),
            src,
            dst,
            etype: etype.to_string(),
            weight: None,
        }
    }
}

/// Why a feedback batch was not applied. Rejection is all-or-nothing: a
/// batch either publishes one new epoch containing every event or leaves
/// the graph exactly as it was.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedbackError {
    /// `op` was neither `"add"` nor `"remove"`.
    BadOp(String),
    /// `etype` names no edge type in the served graph's registry.
    UnknownEdgeType(String),
    /// The batch was empty, or its events cancelled out to a no-op.
    EmptyDelta,
    /// The delta failed graph validation (missing removal target,
    /// duplicate addition, out-of-bounds node, bad weight, self-loop).
    Invalid(HinError),
    /// The updater panicked mid-apply or mid-publish; the previous epoch
    /// is still current and later updates proceed normally.
    UpdatePanicked,
}

impl fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedbackError::BadOp(op) => write!(f, "unknown feedback op {op:?}"),
            FeedbackError::UnknownEdgeType(t) => write!(f, "unknown edge type {t:?}"),
            FeedbackError::EmptyDelta => f.write_str("feedback batch is empty or cancels out"),
            FeedbackError::Invalid(e) => write!(f, "invalid feedback delta: {e}"),
            FeedbackError::UpdatePanicked => f.write_str("update worker panicked; epoch unchanged"),
        }
    }
}

impl std::error::Error for FeedbackError {}

/// Result of one accepted feedback batch.
#[derive(Debug, Clone)]
pub struct FeedbackOutcome {
    /// The epoch the batch published.
    pub epoch: u64,
    /// Directed edges actually changed (after mirroring and cancellation).
    pub edges_changed: usize,
}

/// Converts wire events into one validated-shape [`GraphDelta`] against
/// `graph`'s registry, mirroring both directions when `bidirectional` is
/// set. Graph-level validation (existence, bounds, weights) happens later
/// in [`LiveGraph::apply`] under the write lock, against the graph the
/// delta will actually be applied to.
pub fn events_to_delta(
    events: &[FeedbackEvent],
    graph: &Hin,
    bidirectional: bool,
) -> Result<GraphDelta, FeedbackError> {
    let mut delta = GraphDelta::new();
    for e in events {
        let etype = graph
            .registry()
            .find_edge_type(&e.etype)
            .ok_or_else(|| FeedbackError::UnknownEdgeType(e.etype.clone()))?;
        let fwd = EdgeKey::new(e.src.into(), e.dst.into(), etype);
        let rev = EdgeKey::new(e.dst.into(), e.src.into(), etype);
        match e.op.as_str() {
            "add" => {
                let w = e.weight.unwrap_or(1.0);
                delta.add_edge(fwd, w);
                if bidirectional {
                    delta.add_edge(rev, w);
                }
            }
            "remove" => {
                delta.remove_edge(fwd);
                if bidirectional {
                    delta.remove_edge(rev);
                }
            }
            other => return Err(FeedbackError::BadOp(other.to_string())),
        }
    }
    if delta.is_empty() {
        return Err(FeedbackError::EmptyDelta);
    }
    Ok(delta)
}

/// The epoch-versioned serving graph. See the module docs for the publish
/// protocol and its guarantees.
pub struct LiveGraph {
    /// The current epoch. Swapped whole under this lock; readers hold it
    /// only long enough to clone the `Arc`.
    current: Mutex<Arc<GraphEpoch>>,
    /// Serialises writers so epochs are consecutive and each delta is
    /// validated against the graph it's applied to.
    write: Mutex<()>,
    epochs_published: AtomicU64,
    update_panics: AtomicU64,
}

impl LiveGraph {
    /// Wraps the startup graph/kernel pair as epoch 0.
    pub fn new(graph: Arc<Hin>, kernel: Arc<TransitionCsr>) -> Self {
        LiveGraph {
            current: Mutex::new(Arc::new(GraphEpoch {
                epoch: 0,
                graph,
                kernel,
            })),
            write: Mutex::new(()),
            epochs_published: AtomicU64::new(0),
            update_panics: AtomicU64::new(0),
        }
    }

    /// Pins the current epoch: one lock acquisition, one `Arc` clone.
    /// Everything a request computes must go through the snapshot this
    /// returns, never back to the live pointer.
    pub fn pin(&self) -> Arc<GraphEpoch> {
        Arc::clone(&self.current.lock())
    }

    /// The current epoch id (for gauges; requests should [`pin`] instead).
    ///
    /// [`pin`]: LiveGraph::pin
    pub fn current_epoch(&self) -> u64 {
        self.current.lock().epoch
    }

    /// Epochs published since startup (equals the current epoch id as long
    /// as every publish succeeds).
    pub fn epochs_published(&self) -> u64 {
        self.epochs_published.load(Ordering::Relaxed)
    }

    /// Update attempts that panicked (injected or real) without publishing.
    pub fn update_panics(&self) -> u64 {
        self.update_panics.load(Ordering::Relaxed)
    }

    /// Applies one delta as the next epoch. Serialised with other writers;
    /// concurrent readers keep their pinned epochs throughout. On any
    /// error — validation or a panic in either phase — the current epoch
    /// is left exactly as it was.
    pub fn apply(
        &self,
        delta: &GraphDelta,
        faults: Option<&FaultHandle>,
    ) -> Result<FeedbackOutcome, FeedbackError> {
        let _writer = self.write.lock();
        let base = self.pin();
        let next_epoch = base.epoch + 1;

        // Phase 1: apply. Validation, graph materialisation, and the
        // delta-bounded kernel rebuild all happen outside the readers'
        // lock, against the pinned base. A panic here (the Apply fault
        // point models a crashed updater) is caught and surfaces as
        // `UpdatePanicked` with nothing published.
        let built = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = faults {
                f.on_update(next_epoch, UpdatePhase::Apply);
            }
            let graph = delta
                .apply_to(&base.graph)
                .map_err(FeedbackError::Invalid)?;
            let kernel = base.kernel.rebuild_rows(&graph, &delta.touched_sources());
            Ok((graph, kernel))
        }));
        let (graph, kernel) = match built {
            Ok(Ok(pair)) => pair,
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                self.update_panics.fetch_add(1, Ordering::Relaxed);
                return Err(FeedbackError::UpdatePanicked);
            }
        };

        // Phase 2: publish. The new epoch is complete; the Publish fault
        // point sits between "fully built" and "visible", so a stall here
        // must leave readers on the old epoch and a panic must discard
        // the built epoch entirely.
        let published = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = faults {
                f.on_update(next_epoch, UpdatePhase::Publish);
            }
        }));
        if published.is_err() {
            self.update_panics.fetch_add(1, Ordering::Relaxed);
            return Err(FeedbackError::UpdatePanicked);
        }

        let next = Arc::new(GraphEpoch {
            epoch: next_epoch,
            graph: Arc::new(graph),
            kernel: Arc::new(kernel),
        });
        let superseded = std::mem::replace(&mut *self.current.lock(), next);
        // `superseded` is the epoch `base` pinned. Dropping both here,
        // after the readers' lock is released, frees its kernel and its
        // unshared graph records (unless a reader still pins it) without
        // making any `pin` wait for the free.
        drop(superseded);
        drop(base);
        self.epochs_published.fetch_add(1, Ordering::Relaxed);
        Ok(FeedbackOutcome {
            epoch: next_epoch,
            edges_changed: delta.len(),
        })
    }
}

impl fmt::Debug for LiveGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveGraph")
            .field("epoch", &self.current_epoch())
            .field("epochs_published", &self.epochs_published())
            .field("update_panics", &self.update_panics())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use emigre_hin::NodeId;
    use emigre_ppr::{CsrRows, TransitionModel};

    fn sample() -> (Arc<Hin>, Arc<TransitionCsr>) {
        let mut g = Hin::new();
        let nt = g.registry_mut().node_type("n");
        let et = g.registry_mut().edge_type("rated");
        let nodes: Vec<_> = (0..5).map(|_| g.add_node(nt, None)).collect();
        for i in 0..5usize {
            g.add_edge(nodes[i], nodes[(i + 1) % 5], et, 1.0 + i as f64)
                .unwrap();
        }
        let k = TransitionCsr::build(&g, TransitionModel::Weighted);
        (Arc::new(g), Arc::new(k))
    }

    fn quiet_fault_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let is_fault = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.contains(crate::fault::FAULT_PANIC))
                    .or_else(|| {
                        info.payload()
                            .downcast_ref::<String>()
                            .map(|s| s.contains(crate::fault::FAULT_PANIC))
                    })
                    .unwrap_or(false);
                if !is_fault {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn publish_bumps_epoch_and_rebuilds_kernel() {
        let (g, k) = sample();
        let live = LiveGraph::new(Arc::clone(&g), k);
        assert_eq!(live.current_epoch(), 0);

        let events = vec![FeedbackEvent::add(0, 3, "rated", 2.0)];
        let delta = events_to_delta(&events, &g, true).unwrap();
        let out = live.apply(&delta, None).unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.edges_changed, 2); // mirrored
        assert_eq!(live.current_epoch(), 1);

        let pinned = live.pin();
        assert_eq!(pinned.epoch, 1);
        let et = pinned.graph.registry().find_edge_type("rated").unwrap();
        assert!(pinned.graph.has_edge(NodeId(0), NodeId(3), et));
        assert!(pinned.graph.has_edge(NodeId(3), NodeId(0), et));
        // The rebuilt kernel matches a from-scratch build bit for bit.
        let full = TransitionCsr::build(&*pinned.graph, pinned.kernel.model());
        for u in 0..pinned.graph.num_nodes() as u32 {
            let (ad, ap) = pinned.kernel.forward_row(NodeId(u));
            let (bd, bp) = full.forward_row(NodeId(u));
            assert_eq!(ad, bd);
            for (x, y) in ap.iter().zip(bp) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn feedback_ids_deserialize_only_inside_u32() {
        let event = |src: &str| {
            serde_json::from_str::<FeedbackEvent>(&format!(
                r#"{{"op":"add","src":{src},"dst":1,"etype":"rated"}}"#
            ))
        };
        assert_eq!(event("4294967295").unwrap().src, u32::MAX);
        assert_eq!(event("4.294967295e9").unwrap().src, u32::MAX);
        for bad in [
            "4294967296",
            "4294967301",
            "4.294967296e9",
            "-1",
            "1.5",
            "1e400",
        ] {
            assert!(event(bad).is_err(), "src {bad} must not deserialize");
        }
        assert!(serde_json::from_str::<u8>("300").is_err());
        assert_eq!(serde_json::from_str::<i8>("-128").unwrap(), i8::MIN);
        assert!(serde_json::from_str::<i8>("-129").is_err());
    }

    #[test]
    fn pinned_epoch_survives_later_publishes() {
        let (g, k) = sample();
        let live = LiveGraph::new(Arc::clone(&g), k);
        let pinned = live.pin();

        let delta = events_to_delta(&[FeedbackEvent::remove(0, 1, "rated")], &g, false).unwrap();
        live.apply(&delta, None).unwrap();

        // The old pin still sees the edge; a fresh pin does not.
        let et = g.registry().find_edge_type("rated").unwrap();
        assert!(pinned.graph.has_edge(NodeId(0), NodeId(1), et));
        assert_eq!(pinned.epoch, 0);
        let fresh = live.pin();
        assert_eq!(fresh.epoch, 1);
        assert!(!fresh.graph.has_edge(NodeId(0), NodeId(1), et));
    }

    #[test]
    fn rejected_batches_leave_epoch_untouched() {
        let (g, k) = sample();
        let live = LiveGraph::new(Arc::clone(&g), k);

        // Missing removal target.
        let delta = events_to_delta(&[FeedbackEvent::remove(0, 3, "rated")], &g, false).unwrap();
        assert!(matches!(
            live.apply(&delta, None),
            Err(FeedbackError::Invalid(_))
        ));
        assert_eq!(live.current_epoch(), 0);

        // Unknown edge type / bad op / cancelling batch fail conversion.
        assert!(matches!(
            events_to_delta(&[FeedbackEvent::add(0, 3, "nope", 1.0)], &g, false),
            Err(FeedbackError::UnknownEdgeType(_))
        ));
        let mut bad = FeedbackEvent::add(0, 3, "rated", 1.0);
        bad.op = "upsert".into();
        assert!(matches!(
            events_to_delta(&[bad], &g, false),
            Err(FeedbackError::BadOp(_))
        ));
        let cancel = vec![
            FeedbackEvent::add(0, 3, "rated", 1.0),
            FeedbackEvent::remove(0, 3, "rated"),
        ];
        assert!(matches!(
            events_to_delta(&cancel, &g, false),
            Err(FeedbackError::EmptyDelta)
        ));
        assert!(matches!(
            events_to_delta(&[], &g, false),
            Err(FeedbackError::EmptyDelta)
        ));
    }

    #[test]
    fn apply_panic_keeps_old_epoch_and_allows_later_updates() {
        quiet_fault_panics();
        let (g, k) = sample();
        let live = LiveGraph::new(Arc::clone(&g), k);
        let plan = FaultPlan::new();
        plan.panic_on_update(1, UpdatePhase::Apply);
        let handle = plan.handle();

        let delta = events_to_delta(&[FeedbackEvent::add(0, 2, "rated", 1.0)], &g, false).unwrap();
        assert!(matches!(
            live.apply(&delta, Some(&handle)),
            Err(FeedbackError::UpdatePanicked)
        ));
        assert_eq!(live.current_epoch(), 0);
        assert_eq!(live.update_panics(), 1);
        assert_eq!(live.epochs_published(), 0);

        // The write lock was released; the retry (still targeting epoch 1,
        // whose fault already fired one-shot) succeeds.
        let out = live.apply(&delta, Some(&handle)).unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(live.epochs_published(), 1);
    }

    #[test]
    fn publish_panic_discards_fully_built_epoch() {
        quiet_fault_panics();
        let (g, k) = sample();
        let live = LiveGraph::new(Arc::clone(&g), k);
        let plan = FaultPlan::new();
        plan.panic_on_update(1, UpdatePhase::Publish);
        let handle = plan.handle();

        let delta = events_to_delta(&[FeedbackEvent::add(0, 2, "rated", 1.0)], &g, false).unwrap();
        assert!(matches!(
            live.apply(&delta, Some(&handle)),
            Err(FeedbackError::UpdatePanicked)
        ));
        let et = g.registry().find_edge_type("rated").unwrap();
        let pinned = live.pin();
        assert_eq!(pinned.epoch, 0);
        assert!(!pinned.graph.has_edge(NodeId(0), NodeId(2), et));
    }

    #[test]
    fn publish_stall_blocks_writer_but_not_readers() {
        let (g, k) = sample();
        let live = Arc::new(LiveGraph::new(Arc::clone(&g), k));
        let plan = FaultPlan::new();
        let release = plan.block_update(1, UpdatePhase::Publish);
        let handle = plan.handle();

        let live2 = Arc::clone(&live);
        let g2 = Arc::clone(&g);
        let writer = std::thread::spawn(move || {
            let delta =
                events_to_delta(&[FeedbackEvent::add(0, 2, "rated", 1.0)], &g2, false).unwrap();
            live2.apply(&delta, Some(&handle)).unwrap()
        });

        // While the publish is stalled, readers pin epoch 0 freely.
        while plan.triggered() == 0 {
            std::thread::yield_now();
        }
        for _ in 0..100 {
            assert_eq!(live.pin().epoch, 0);
        }

        drop(release);
        let out = writer.join().unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(live.pin().epoch, 1);
    }
}
