//! Tracking global allocator: live/peak heap watermarks, allocation
//! counts, and scoped per-thread deltas.
//!
//! [`TrackingAlloc`] wraps any [`GlobalAlloc`] (normally [`System`]) and
//! maintains two tiers of counters on every allocation:
//!
//! * **Process-wide watermarks** — live bytes, peak bytes, cumulative
//!   allocation count and cumulative allocated bytes, all plain relaxed
//!   atomics ([`heap_stats`]). These feed the `emigre_heap_live_bytes` /
//!   `emigre_heap_peak_bytes` gauges.
//! * **Per-thread cumulative counters** — monotone `Cell`s in
//!   const-initialised TLS (no lazy init, so the allocator never re-enters
//!   itself). [`AllocScope`] snapshots them on construction and reports
//!   the delta, which is how per-stage byte attribution joins
//!   `StageLatencies`.
//!
//! The wrapper is inert unless a binary installs it with
//! `#[global_allocator]` (gated behind the `heap-track` cargo feature in
//! every binary of this workspace); without an install every query returns
//! zero and the code is dead. Even when installed, tracking can be
//! switched off at runtime ([`set_tracking`]): the hot path is then a
//! single relaxed load before delegating to the inner allocator, which is
//! what lets `ppr_flat_bench --max-alloc-overhead-pct` measure the
//! tracker against a passthrough baseline *in the same binary*.
//!
//! Attribution is per-thread by design: work fanned out to a pool thread
//! is charged to that pool thread, not to the requesting thread's
//! [`AllocScope`]. Cross-thread totals come from the process-wide
//! counters instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Runtime switch: when false the installed allocator is a passthrough
/// (one relaxed load of overhead). Defaults to on so a `heap-track` build
/// reports numbers without any setup call.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Serialises tests that require tracking to be *on* against the test
/// that toggles it off ([`set_tracking`] is process-global).
#[cfg(all(test, feature = "heap-track"))]
pub(crate) static TEST_SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Bytes currently live (allocated minus freed). Signed: toggling
/// tracking off between an alloc and its free makes the free observable
/// without the alloc, so the counter is clamped at read time instead of
/// being allowed to wrap.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of `LIVE_BYTES`.
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);
/// Cumulative number of allocations (allocs + reallocs, not frees).
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes ever allocated.
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Cumulative bytes allocated by *this thread*. Monotone, so nested
    /// [`AllocScope`]s are just subtractions of earlier snapshots.
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Cumulative allocation count of this thread.
    static TL_COUNT: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn on_alloc(size: usize) {
    let size_i = size as i64;
    let live = LIVE_BYTES.fetch_add(size_i, Ordering::Relaxed) + size_i;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    // `try_with`: TLS may already be torn down during thread exit; the
    // allocation still happens, it just goes unattributed.
    let _ = TL_BYTES.try_with(|c| c.set(c.get() + size as u64));
    let _ = TL_COUNT.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn on_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] wrapper that counts every allocation. Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: emigre_obs::TrackingAlloc = emigre_obs::TrackingAlloc::system();
/// ```
pub struct TrackingAlloc<A: GlobalAlloc = System>(A);

impl TrackingAlloc<System> {
    /// The standard install: tracking wrapped around the system allocator.
    pub const fn system() -> Self {
        TrackingAlloc(System)
    }
}

impl<A: GlobalAlloc> TrackingAlloc<A> {
    /// Wraps an arbitrary inner allocator.
    pub const fn new(inner: A) -> Self {
        TrackingAlloc(inner)
    }
}

// SAFETY: delegates every operation verbatim to the inner allocator; the
// counter updates never allocate (const-init TLS, plain atomics), so the
// wrapper cannot re-enter itself.
unsafe impl<A: GlobalAlloc> GlobalAlloc for TrackingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc_zeroed(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout);
        if ENABLED.load(Ordering::Relaxed) {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.0.realloc(ptr, layout, new_size);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Enables or disables tracking at runtime; returns the previous state.
/// Only meaningful when a [`TrackingAlloc`] is installed.
pub fn set_tracking(on: bool) -> bool {
    ENABLED.swap(on, Ordering::SeqCst)
}

/// Process-wide heap watermarks. All zero unless a [`TrackingAlloc`] is
/// installed as the global allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start (or the last
    /// [`reset_peak`]).
    pub peak_bytes: u64,
    /// Cumulative allocation count (allocs and reallocs).
    pub alloc_count: u64,
    /// Cumulative bytes ever allocated.
    pub total_bytes: u64,
}

/// Snapshots the process-wide counters.
pub fn heap_stats() -> HeapStats {
    HeapStats {
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
        alloc_count: ALLOC_COUNT.load(Ordering::Relaxed),
        total_bytes: TOTAL_BYTES.load(Ordering::Relaxed),
    }
}

/// Resets the peak watermark down to the current live level, so a later
/// [`heap_stats`] reports the peak *since this call*.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Cumulative bytes allocated by the calling thread. Monotone; zero when
/// no tracking allocator is installed.
#[inline]
pub fn thread_allocated_bytes() -> u64 {
    TL_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Cumulative allocation count of the calling thread.
#[inline]
pub fn thread_alloc_count() -> u64 {
    TL_COUNT.try_with(Cell::get).unwrap_or(0)
}

/// RAII window over the calling thread's allocation counters.
///
/// Construction snapshots the thread-local cumulative counters;
/// [`bytes`](AllocScope::bytes) / [`count`](AllocScope::count) report how
/// much this thread has allocated since. Because the underlying counters
/// are monotone, scopes nest freely — an inner scope's delta is included
/// in every enclosing scope's delta. Allocations made by *other* threads
/// (e.g. a CHECK fanned out to the worker pool) are not attributed here;
/// see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start_bytes: u64,
    start_count: u64,
}

impl AllocScope {
    /// Opens a scope at the current counter values.
    pub fn start() -> Self {
        AllocScope {
            start_bytes: thread_allocated_bytes(),
            start_count: thread_alloc_count(),
        }
    }

    /// Bytes this thread allocated since the scope opened.
    pub fn bytes(&self) -> u64 {
        thread_allocated_bytes().saturating_sub(self.start_bytes)
    }

    /// Allocations this thread performed since the scope opened.
    pub fn count(&self) -> u64 {
        thread_alloc_count().saturating_sub(self.start_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // With the `heap-track` feature the obs test harness installs a
    // TrackingAlloc (see lib.rs), so scopes observe real allocations.
    #[cfg(feature = "heap-track")]
    mod tracked {
        use super::super::*;

        // `toggle_pauses_accounting` flips the process-wide switch, so
        // every test that relies on tracking being *on* takes this lock.
        use super::super::TEST_SERIAL as SERIAL;

        #[test]
        fn scope_sees_an_allocation() {
            let _serial = SERIAL.lock();
            let scope = AllocScope::start();
            let v = vec![0u8; 4096];
            assert!(scope.bytes() >= 4096, "scope.bytes() = {}", scope.bytes());
            assert!(scope.count() >= 1);
            drop(v);
            // Monotone: freeing does not shrink the scope delta.
            assert!(scope.bytes() >= 4096);
        }

        #[test]
        fn scopes_nest_monotonically() {
            let _serial = SERIAL.lock();
            let outer = AllocScope::start();
            let a = vec![0u64; 512]; // 4096 bytes
            let inner = AllocScope::start();
            let b = vec![0u64; 1024]; // 8192 bytes
            assert!(inner.bytes() >= 8192);
            // The outer scope contains both its own and the inner delta.
            assert!(outer.bytes() >= 4096 + 8192);
            assert!(outer.bytes() >= inner.bytes());
            drop((a, b));
        }

        #[test]
        fn cross_thread_allocations_are_not_attributed() {
            let _serial = SERIAL.lock();
            let scope = AllocScope::start();
            let before = scope.bytes();
            std::thread::spawn(|| {
                let v = vec![0u8; 1 << 20];
                std::hint::black_box(&v);
            })
            .join()
            .unwrap();
            // The spawned thread's 1 MiB is charged to *its* counters;
            // this thread only paid for the join plumbing (well under the
            // megabyte the worker allocated).
            assert!(scope.bytes() - before < 1 << 19);
        }

        #[test]
        fn global_watermarks_move() {
            let _serial = SERIAL.lock();
            let before = heap_stats();
            let v = vec![0u8; 1 << 16];
            std::hint::black_box(&v);
            let during = heap_stats();
            assert!(during.total_bytes >= before.total_bytes + (1 << 16));
            assert!(during.peak_bytes >= during.live_bytes.saturating_sub(1));
            assert!(during.alloc_count > before.alloc_count);
        }

        #[test]
        fn toggle_pauses_accounting() {
            let _serial = SERIAL.lock();
            let was = set_tracking(false);
            let scope = AllocScope::start();
            let v = vec![0u8; 1 << 16];
            std::hint::black_box(&v);
            let paused = scope.bytes();
            set_tracking(was);
            assert_eq!(paused, 0, "allocations while disabled must not count");
        }
    }

    #[test]
    fn untracked_builds_report_zero_deltas() {
        // Without an installed TrackingAlloc every query is zero; with
        // one, deltas are still internally consistent. Either way the
        // scope API must be callable and monotone.
        let scope = AllocScope::start();
        let v = vec![0u8; 1024];
        std::hint::black_box(&v);
        let b1 = scope.bytes();
        let b2 = scope.bytes();
        assert!(b2 >= b1);
        #[cfg(not(feature = "heap-track"))]
        assert_eq!(heap_stats(), HeapStats::default());
    }

    #[test]
    fn heap_stats_is_copy_default() {
        let s = HeapStats::default();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.peak_bytes, 0);
    }
}
