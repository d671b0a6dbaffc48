//! The speculation pool for the parallel CHECK path.
//!
//! [`speculative_scan`] evaluates an ordered list of independent items on a
//! small worker pool while the **main thread consumes results strictly in
//! input order**. The consumer can stop the scan at any item (the parallel
//! analogue of "first passing candidate wins"); items evaluated past the
//! stop point were speculative and their results are discarded. Because the
//! per-item `work` function is pure with respect to everything but its own
//! worker-local state, in-order consumption makes the scan's observable
//! behaviour — which items were consumed, in which order, with which
//! results — bit-identical to a sequential loop, regardless of thread
//! count or timing.
//!
//! ## Topology
//!
//! * One bounded **feed** channel (the vendored MPMC channel) carries single
//!   item indices from the main thread to the workers. A worker takes the
//!   lowest fed index, evaluates it and only then takes the next, so it
//!   never holds more than one item. The main thread keeps the feed at most
//!   `SPECULATION_PER_THREAD × threads` items ahead of consumption, so a
//!   `Stop` wastes `O(threads)` evaluations at most.
//! * One **results** channel returns `(index, result)` pairs; the main
//!   thread re-orders them through a buffer as wide as that window and
//!   consumes the next needed index. It refills the feed only when the next
//!   needed result has not arrived, so whenever it blocks on the results
//!   channel that item is fed and still owed.
//!
//! ## Panic containment
//!
//! Every evaluation runs under `catch_unwind`. A worker whose item panics
//! reports `(index, Err)` and exits — its state is considered poisoned and
//! is dropped rather than returned. The item reaches the consumer as
//! [`Consumed::Fallback`], which tells it to evaluate the item on the main
//! thread; the other fed items stay in the feed for the surviving workers.
//! Once every worker has retired, the results channel disconnects and every
//! item whose result has not arrived falls back the same way, so the scan
//! completes with correct accounting even if *every* worker dies.

use crossbeam::channel::bounded;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How many items per worker the feed may run ahead of consumption.
const SPECULATION_PER_THREAD: usize = 8;

/// Consumer verdict after each item: keep scanning or cancel the rest.
pub(crate) enum ScanControl {
    Continue,
    Stop,
}

/// What the pool delivers to the consumer for one item, in input order.
pub(crate) enum Consumed<R> {
    /// A worker evaluated the item; here is its result.
    Done(R),
    /// The pool could not produce this item's result (the evaluating worker
    /// panicked, or every worker had retired first). The consumer must
    /// evaluate the item itself on the main thread.
    Fallback,
}

/// Scan summary returned by [`speculative_scan`]. The counter fields are
/// diagnostics, asserted on by the pool's own tests.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct ScanOutcome<S> {
    /// Worker states that survived the scan (panicked workers' states are
    /// dropped as poisoned). Length ≤ the number of workers spawned.
    pub states: Vec<S>,
    /// Worker panics observed (per poisoned item, not per worker exit).
    pub panics: usize,
    /// Items delivered as [`Consumed::Fallback`].
    pub fallbacks: usize,
    /// Items consumed before the scan ended.
    pub consumed: usize,
}

/// Evaluates `items` on `threads` workers, consuming results in input
/// order. See the module docs for the contract; `work` must be pure apart
/// from its `&mut S` scratch (same item + equivalent state ⇒ same result).
pub(crate) fn speculative_scan<T, S, R>(
    threads: usize,
    items: &[T],
    states: Vec<S>,
    work: impl Fn(&mut S, usize, &T) -> R + Sync,
    mut consume: impl FnMut(usize, Consumed<R>) -> ScanControl,
) -> ScanOutcome<S>
where
    T: Sync,
    S: Send,
    R: Send,
{
    assert!(threads >= 2, "parallel scan needs at least two workers");
    assert_eq!(states.len(), threads, "one state per worker");
    let total = items.len();
    let window = threads * SPECULATION_PER_THREAD;
    let work = &work;

    // The channels live inside the scope, so a panic in `consume` drops the
    // feed's sender and the workers exit before the scope joins them.
    std::thread::scope(|scope| {
        // Neither channel ever holds more than `window` messages: at most
        // `window` fed items are unconsumed, and each yields one result.
        let (feed_tx, feed_rx) = bounded::<usize>(window);
        let (res_tx, res_rx) = bounded::<(usize, Result<R, ()>)>(window);
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (feed_rx, res_tx) = (feed_rx.clone(), res_tx.clone());
                scope.spawn(move || {
                    while let Ok(idx) = feed_rx.recv() {
                        let hit =
                            catch_unwind(AssertUnwindSafe(|| work(&mut state, idx, &items[idx])));
                        let poisoned = hit.is_err();
                        let _ = res_tx.send((idx, hit.map_err(drop)));
                        if poisoned {
                            // Retire, dropping the state the panic left behind.
                            return None;
                        }
                    }
                    Some(state)
                })
            })
            .collect();
        drop(res_tx);

        // Every received index lies in `next_consume..next_consume + window`,
        // so a ring of `window` slots never holds two of them in one slot.
        let mut buffer: Vec<Option<Consumed<R>>> = (0..window).map(|_| None).collect();
        let (mut next_feed, mut next_consume) = (0, 0);
        let (mut panics, mut fallbacks) = (0, 0);
        let mut stopped = false;
        while !stopped && next_consume < total {
            if let Some(c) = buffer[next_consume % window].take() {
                fallbacks += usize::from(matches!(c, Consumed::Fallback));
                stopped = matches!(consume(next_consume, c), ScanControl::Stop);
                next_consume += 1;
                continue;
            }
            // `try_send` fails only once every worker has retired: until
            // then the feed holds fewer than `window` indices.
            while next_feed < total.min(next_consume + window)
                && feed_tx.try_send(next_feed).is_ok()
            {
                next_feed += 1;
            }
            match res_rx.recv() {
                Ok((idx, res)) => {
                    panics += usize::from(res.is_err());
                    buffer[idx % window] = Some(res.map_or(Consumed::Fallback, Consumed::Done));
                }
                // Every worker has retired: the main thread computes the rest.
                Err(_) => buffer[next_consume % window] = Some(Consumed::Fallback),
            }
        }

        // Cancel: empty the feed and disconnect it, so idle workers exit.
        drop(feed_tx);
        while feed_rx.try_recv().is_ok() {}
        let mut states = Vec::with_capacity(threads);
        for h in handles {
            match h.join() {
                Ok(Some(s)) => states.push(s),
                Ok(None) => {}
                Err(_) => panics += 1,
            }
        }
        ScanOutcome {
            states,
            panics,
            fallbacks,
            consumed: next_consume,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    fn run_scan(
        threads: usize,
        n: usize,
        stop_at: Option<usize>,
        panic_on: &[usize],
        sleep_us: impl Fn(usize) -> u64 + Sync,
    ) -> (Vec<usize>, Vec<bool>, ScanOutcome<usize>) {
        let items: Vec<usize> = (0..n).collect();
        let panic_on: std::collections::HashSet<usize> = panic_on.iter().copied().collect();
        let consumed_order = Mutex::new(Vec::new());
        let fallback_flags = Mutex::new(Vec::new());
        let outcome = speculative_scan(
            threads,
            &items,
            vec![0usize; threads],
            |state, idx, item| {
                *state += 1;
                if sleep_us(idx) > 0 {
                    std::thread::sleep(Duration::from_micros(sleep_us(idx)));
                }
                if panic_on.contains(&idx) {
                    panic!("injected worker fault at {idx}");
                }
                item * 10
            },
            |idx, c| {
                consumed_order.lock().unwrap().push(idx);
                let is_fallback = matches!(c, Consumed::Fallback);
                if let Consumed::Done(r) = c {
                    assert_eq!(r, idx * 10, "result routed to wrong index");
                }
                fallback_flags.lock().unwrap().push(is_fallback);
                match stop_at {
                    Some(s) if idx == s => ScanControl::Stop,
                    _ => ScanControl::Continue,
                }
            },
        );
        (
            consumed_order.into_inner().unwrap(),
            fallback_flags.into_inner().unwrap(),
            outcome,
        )
    }

    #[test]
    fn consumes_every_item_in_input_order() {
        for threads in [2, 4] {
            let (order, _, outcome) = run_scan(threads, 97, None, &[], |_| 0);
            assert_eq!(order, (0..97).collect::<Vec<_>>());
            assert_eq!(outcome.consumed, 97);
            assert_eq!(outcome.panics, 0);
            assert_eq!(outcome.states.len(), threads);
            // Every item ran exactly once on some worker (no fallbacks).
            assert_eq!(outcome.states.iter().sum::<usize>(), 97);
        }
    }

    #[test]
    fn stop_cancels_the_scan_early() {
        let (order, _, outcome) = run_scan(4, 500, Some(20), &[], |_| 5);
        assert_eq!(order, (0..=20).collect::<Vec<_>>());
        assert_eq!(outcome.consumed, 21);
        // Speculation is bounded by the feed window, not the item count.
        let evaluated: usize = outcome.states.iter().sum();
        assert!(
            evaluated < 200,
            "runaway speculation: {evaluated} items evaluated for a stop at 20"
        );
    }

    #[test]
    fn a_slow_head_item_never_stalls_the_scan() {
        // The other worker finishes the whole feed window while item 0
        // sleeps; the consumer must then wait for item 0 and keep feeding,
        // not give up on an item the workers still owe.
        let (order, _, outcome) = run_scan(2, 64, None, &[], |idx| match idx {
            0 => 20_000,
            _ => 0,
        });
        assert_eq!(order, (0..64).collect::<Vec<_>>());
        assert_eq!(outcome.fallbacks, 0);
    }

    #[test]
    fn a_slow_item_is_evaluated_once() {
        // However long an item runs, its worker's result is the one
        // consumed: the main thread never recomputes it.
        let (order, _, outcome) = run_scan(2, 32, None, &[], |idx| match idx {
            0 => 150_000,
            _ => 0,
        });
        assert_eq!(order, (0..32).collect::<Vec<_>>());
        assert_eq!(outcome.fallbacks, 0);
        assert_eq!(outcome.states.iter().sum::<usize>(), 32);
    }

    #[test]
    fn panicked_items_fall_back_and_accounting_stays_exact() {
        let (order, flags, outcome) = run_scan(4, 60, None, &[7, 8, 31], |_| 2);
        assert_eq!(order, (0..60).collect::<Vec<_>>());
        assert_eq!(outcome.panics, 3);
        // The fourth worker survives, so only the panicked items fall back.
        assert_eq!(outcome.fallbacks, 3);
        for &idx in &[7usize, 8, 31] {
            assert!(flags[idx], "item {idx} must be delivered as Fallback");
        }
        // Three workers died; their states are dropped as poisoned.
        assert_eq!(outcome.states.len(), 1);
    }

    #[test]
    fn survives_every_worker_dying() {
        // Items 0 and 1 go to different workers and kill both; the main
        // thread must finish the scan alone via fallback.
        let (order, flags, outcome) = run_scan(2, 30, None, &[0, 1], |_| 0);
        assert_eq!(order, (0..30).collect::<Vec<_>>());
        assert_eq!(outcome.states.len(), 0, "both workers must retire");
        assert_eq!(outcome.panics, 2);
        assert!(flags.iter().all(|&f| f), "every item must fall back");
        assert_eq!(outcome.fallbacks, 30);
    }

    #[test]
    fn stop_and_panic_interleaving_stress() {
        // Hammer cancellation: random per-item delays, early stops at
        // varying points, and a mid-scan panic. Every iteration must
        // preserve in-order consumption and terminate.
        for seed in 0..12u64 {
            let stop = (seed as usize * 7) % 40;
            let panic_at = if seed % 3 == 0 {
                vec![stop / 2]
            } else {
                vec![]
            };
            let (order, _, _) = run_scan(3, 40, Some(stop), &panic_at, move |idx| {
                // Deterministic pseudo-random stagger from the seed.
                (idx as u64).wrapping_mul(seed.wrapping_add(17)) % 37
            });
            assert_eq!(order, (0..=stop).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn consumer_panic_propagates() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            speculative_scan(
                2,
                &items,
                vec![(), ()],
                |_, _, item| *item,
                |idx, _| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    if idx == 3 {
                        panic!("consumer failure");
                    }
                    ScanControl::Continue
                },
            )
        }));
        assert!(result.is_err());
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }
}
