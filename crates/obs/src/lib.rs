//! # emigre-obs — observability for the EMiGRe explain path
//!
//! Three instruments behind one [`ObsHandle`]:
//!
//! 1. **Op counters** ([`Op`], [`CounterSnapshot`]): lock-free atomics for
//!    forward/reverse pushes, residual mass drained, transition rows
//!    patched, CHECKs run, subsets enumerated, and candidate-index hits.
//! 2. **Timing spans** ([`SpanExport`]): a monotonic, hierarchical span
//!    recorder (question → search-space → candidate-ranking → TEST loop)
//!    with a JSON exporter.
//! 3. **Explain traces** ([`ExplainTrace`]): the ranked candidate list,
//!    every τ threshold crossing, and every TEST verdict of one question,
//!    replayable offline.
//! 4. **Latency histograms** ([`LatencyHistogram`]): fixed-memory
//!    log-bucketed timing distributions for long-running serving paths,
//!    snapshotted with estimated p50/p95/p99.
//!
//! Plus two resource-accounting instruments that live outside the handle:
//! the tracking global allocator ([`alloc`]) for live/peak heap
//! watermarks and scoped allocation deltas ([`AllocScope`]), and the
//! structural [`HeapSize`] audit for per-structure byte footprints.
//!
//! A disabled handle (the default) is a `None`: every call is a branch on
//! a null pointer, no state is allocated, nothing is recorded. Code that
//! wants counters, spans or a trace passes an enabled handle explicitly.

pub mod alloc;
mod counters;
mod handle;
pub mod heapsize;
mod histogram;
pub mod prometheus;
mod spans;
mod stages;
mod trace;
mod window;

pub use alloc::{heap_stats, reset_peak, set_tracking, AllocScope, HeapStats, TrackingAlloc};
pub use counters::{CounterSnapshot, Op, OpCounters};
pub use handle::{ObsHandle, SpanGuard};
pub use heapsize::HeapSize;
pub use histogram::{HistogramSnapshot, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use prometheus::{validate_exposition, PromText};
pub use spans::{SpanExport, SpanRecorder};
pub use stages::StageLatencies;
pub use trace::{ExplainTrace, TraceAction, TraceCandidate, TraceCrossing, TraceTest};
pub use window::{ManualClock, SlidingWindow, WindowRing, WindowStats};

// The unit-test harness of this crate installs the tracking allocator so
// `AllocScope`/watermark tests observe real allocations. Library builds
// never install anything — that is each binary's decision.
#[cfg(all(test, feature = "heap-track"))]
#[global_allocator]
static TEST_ALLOC: TrackingAlloc = TrackingAlloc::system();
