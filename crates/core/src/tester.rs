//! The CHECK step: verifying candidate explanations end-to-end.
//!
//! Every heuristic's contribution arithmetic is only a linear prediction of
//! how PPR mass shifts — it ignores transition-row renormalisation and
//! collateral boosts to third items. The paper therefore verifies each
//! candidate set by actually recomputing the recommendation on the edited
//! graph ("TEST" in Algorithms 3–5), and shows experimentally (§6.3,
//! Exhaustive-direct) that skipping it drops the success rate by a third.
//!
//! [`Tester`] performs that verification. It owns nothing graph-sized: it
//! borrows the question context and derives each counterfactual PPR vector
//! from the user's base-graph push state via residual repair
//! ([`PushWorkspace::repair_row_change`]) instead of pushing from scratch:
//! the dynamic update of Zhang, Lofgren & Goel. Its reference is exact PPR
//! on the edited graph, not a second push: the testkit's
//! `verdict_cross_check` suite and the root `property_check_engine`
//! proptest hold its verdicts to the dense oracle.
//!
//! A CHECK pushes in stages of decreasing ε and stops as soon as an
//! interval proves the verdict. Failing CHECKs, the bulk of a long search,
//! mostly stop at the first stage: `rec`'s score and the Why-Not item's
//! are bounded through their base-graph columns, which the context already
//! holds ([`emigre_ppr::ColumnBound`]).
//!
//! The verification core lives in `run_check`, a pure function of the
//! shared question inputs (`CheckShared`, which carries the two column
//! bounds) and one mutable scratch (`CheckState`): no observability, no
//! budget, no interior mutability.
//! It shares its counterfactual setup and rollback (`counterfactual`)
//! with [`Tester::recommendation_after`].
//! That purity is what lets [`Tester::first_passing`] fan candidate sets
//! across worker threads (the crate's `parallel` module) and still merge
//! results in input order with bit-identical verdicts, counters, and
//! traces.

use crate::config::EmigreConfig;
use crate::context::{CandidateIndex, CheckState, ExplainContext};
use crate::explanation::{actions_to_delta, actions_to_trace, Action};
use crate::parallel::{speculative_scan, Consumed, ScanControl};
use emigre_hin::{GraphView, NodeId};
use emigre_obs::Op;
use emigre_ppr::{ColumnBound, CsrRows, PatchedCsr, PushWorkspace, TransitionCsr};
use emigre_rec::RecList;
use std::cell::Cell;

/// Scores at or below this floor are treated as zero when ranking: ten
/// times the push threshold bounds the per-node approximation noise of both
/// the fresh and the residual-repaired push states.
pub fn score_floor(cfg: &crate::config::EmigreConfig) -> f64 {
    cfg.rec.ppr.epsilon * 10.0
}

/// The read-only question inputs a CHECK needs, detached from
/// [`ExplainContext`]'s interior-mutable cells so worker threads can share
/// one copy (`G: GraphView` implies `Sync`).
#[derive(Clone, Copy)]
pub(crate) struct CheckShared<'a, G: GraphView> {
    graph: &'a G,
    cfg: &'a EmigreConfig,
    kernel: &'a TransitionCsr,
    user: NodeId,
    wni: NodeId,
    rec: NodeId,
    /// `[rec, wni]` column bounds ([`ExplainContext::column_bounds`]).
    bounds: &'a [ColumnBound; 2],
}

impl<'a, G: GraphView> CheckShared<'a, G> {
    pub(crate) fn of(ctx: &'a ExplainContext<'_, G>) -> Self {
        CheckShared {
            graph: ctx.graph,
            cfg: &ctx.cfg,
            kernel: &ctx.kernel,
            user: ctx.user,
            wni: ctx.wni,
            rec: ctx.rec,
            bounds: ctx.column_bounds(),
        }
    }
}

/// The op counts of one counterfactual evaluation, replayed into
/// observability by the caller.
pub(crate) struct CheckCost {
    pushes: u64,
    drained: f64,
    rows_patched: u64,
    index_hits: u64,
    stages: u64,
}

/// What one CHECK produced: the verdict plus the cost the caller replays
/// into observability (in consumption order, so parallel traces match
/// sequential ones exactly).
pub(crate) struct CheckOutcome {
    pub(crate) verdict: bool,
    cost: CheckCost,
}

/// Evaluates `decide` on the counterfactual graph of `actions` — the setup
/// every CHECK-shaped evaluation shares. Builds the delta and its overlay,
/// patches the touched transition rows, overlays the candidate index, and
/// starts the push state: the base state's residuals repaired for the
/// changed rows. `decide` pushes over the patched rows as far as it needs
/// and returns its answer with the candidate-index entries it scanned; the
/// workspace and the index are then rolled back, and the evaluation's cost
/// returned alongside the answer.
fn counterfactual<G: GraphView, R>(
    shared: &CheckShared<'_, G>,
    state: &mut CheckState,
    actions: &[Action],
    decide: impl FnOnce(&mut PushWorkspace, &CandidateIndex, &PatchedCsr<'_>) -> (R, u64),
) -> (R, CheckCost) {
    let cfg = shared.cfg;
    let delta = actions_to_delta(actions, cfg);
    let view = delta.overlay(shared.graph);
    let touched = delta.touched_sources();

    let CheckState { ws, cand } = state;
    let patched = shared.kernel.patched(&view, &touched);
    cand.apply_delta(shared.user, &delta, &view);

    // Per-evaluation counter baseline: the workspace tallies
    // pushes/drained cumulatively, so the delta after rollback is this
    // evaluation's cost.
    let pushes_before = ws.pushes();
    let drained_before = ws.mass_drained();
    let stages_before = ws.stages();
    for &u in &touched {
        ws.repair_row_change(
            &cfg.rec.ppr,
            u,
            shared.kernel.forward_row(u),
            patched.forward_row(u),
        );
    }
    let (answer, index_hits) = decide(ws, cand, &patched);

    ws.rollback();
    cand.revert();
    let cost = CheckCost {
        pushes: (ws.pushes() - pushes_before) as u64,
        drained: ws.mass_drained() - drained_before,
        rows_patched: touched.len() as u64,
        index_hits,
        stages: (ws.stages() - stages_before) as u64,
    };
    (answer, cost)
}

/// The TEST function of the paper: does applying `actions` make the Why-Not
/// item the top-1 recommendation?
///
/// Uses **staged precision**: the counterfactual push runs at a coarse
/// threshold first (ε = 1e-3, then ×0.03 down to the target ε), and the
/// decision is returned as soon as an interval test proves it, so pushing
/// further cannot change the answer. Each stage runs, in order:
///
/// 1. the floor test: the Why-Not item's residual-mass interval
///    `[p − R, p + R]`, `R = Σ|residual|` (Eq. 3 with `PPR(x,t) ≤ 1`),
///    lies at or below the score floor → `false`;
/// 2. the column test, while `rec` is still a candidate on the edited
///    graph: `rec`'s certified lower bound clears both the floor and the
///    Why-Not item's certified upper bound → `false`. Both bounds read the
///    forward residuals through the context's base-graph columns
///    `PPR(·, rec)` and `PPR(·, wni)` ([`emigre_ppr::ColumnBound`]), which
///    price residual mass far from the two items at nearly nothing; the
///    ΔW row terms are computed once per CHECK;
/// 3. the competitor scan: some valid item's residual-mass interval lies
///    wholly above the Why-Not item's → `false`; or the Why-Not item's lies
///    above the floor and every competitor's → `true`.
///
/// Every test certifies the verdict of the exact PPR on the edited graph,
/// so they agree wherever more than one decides. Cases no stage decides
/// fall through to the full-precision comparison, which matches
/// [`Tester::recommendation_after`] exactly.
///
/// The check is **allocation-free in the graph size**: the push runs in a
/// reusable [`emigre_ppr::PushWorkspace`] over the precomputed flat kernel
/// with only the delta's rows patched ([`counterfactual`]) and is rolled
/// back through an undo log. No push-state clone, no per-call `O(n)`
/// vectors, no full residual scans.
pub(crate) fn run_check<G: GraphView>(
    shared: &CheckShared<'_, G>,
    state: &mut CheckState,
    actions: &[Action],
) -> CheckOutcome {
    check_fault::trip();
    let cfg = shared.cfg;
    let target_eps = cfg.rec.ppr.epsilon;
    let floor = score_floor(cfg);
    let wni = shared.wni;
    let [rec_bound, wni_bound] = shared.bounds;
    let (verdict, cost) = counterfactual(shared, state, actions, |ws, cand, patched| {
        let mut index_hits = 0u64;
        let verdict = 'verdict: {
            if cand.is_interacted(wni) {
                break 'verdict false; // an interacted item can never be recommended
            }
            // The column bounds' row terms, when `rec` is still a
            // candidate on the edited graph.
            let shifts = (!cand.is_interacted(shared.rec))
                .then(|| (rec_bound.edit_shift(patched), wni_bound.edit_shift(patched)));
            // Push in stages of decreasing ε.
            let mut eps = 1e-3_f64.max(target_eps);
            loop {
                ws.push_stage(patched, &cfg.rec.ppr, eps);
                let r = ws.residual_mass();
                let p_wni = ws.estimate(wni);
                if p_wni + r <= floor {
                    break 'verdict false; // cannot clear the recommendability floor
                }
                if let Some((rec_shift, wni_shift)) = shifts {
                    let (rec_lo, _) = rec_bound.interval(ws, rec_shift, r);
                    let (_, wni_hi) = wni_bound.interval(ws, wni_shift, r);
                    if rec_lo > floor && rec_lo > wni_hi {
                        break 'verdict false; // `rec` provably still beats the WNI
                    }
                }
                // Strongest competitor among valid candidates.
                index_hits += cand.items().len() as u64;
                let mut best_other = f64::NEG_INFINITY;
                for &n in cand.items() {
                    if n != wni && !cand.is_interacted(n) {
                        best_other = best_other.max(ws.estimate(n));
                    }
                }
                if best_other - r > p_wni + r && best_other - r > floor {
                    break 'verdict false; // some competitor provably wins
                }
                if p_wni - r > floor && p_wni - r > best_other + r {
                    break 'verdict true; // WNI provably wins
                }
                if eps <= target_eps {
                    break; // fully converged yet numerically undecided: ties
                }
                eps = (eps * 0.03).max(target_eps);
            }

            // Tie region at target precision: replicate the exact ranking
            // rule (floor + score-desc + id-asc) of `recommendation_after`.
            index_hits += cand.items().len() as u64;
            let scores = ws.estimates();
            let candidates = cand
                .items()
                .iter()
                .copied()
                .filter(|&n| scores[n.index()] > floor && !cand.is_interacted(n));
            RecList::from_scores(scores, candidates, 1).top() == Some(wni)
        };
        (verdict, index_hits)
    });
    CheckOutcome { verdict, cost }
}

/// Caller-side gate run before each candidate in [`Tester::first_passing`],
/// in input order: the algorithm's budget/trace bookkeeping. `Stop` aborts
/// the scan (budget exhausted) exactly as a sequential `break` would.
pub enum PreCheck {
    Proceed,
    Stop,
}

/// Result of [`Tester::first_passing`].
pub struct FirstPass {
    /// Index of the first candidate set whose CHECK passed.
    pub found: Option<usize>,
    /// Index at which the pre-check gate stopped the scan, before any set
    /// passed (that set was not CHECKed).
    pub stopped: Option<usize>,
}

/// Verifies candidate action sets for one Why-Not question.
pub struct Tester<'c, 'g, G: GraphView> {
    ctx: &'c ExplainContext<'g, G>,
    checks: Cell<usize>,
}

impl<'c, 'g, G: GraphView> Tester<'c, 'g, G> {
    pub fn new(ctx: &'c ExplainContext<'g, G>) -> Self {
        Tester {
            ctx,
            checks: Cell::new(0),
        }
    }

    /// Number of CHECK invocations so far.
    pub fn checks_performed(&self) -> usize {
        self.checks.get()
    }

    /// Whether the check budget is exhausted.
    pub fn budget_exhausted(&self) -> bool {
        self.checks.get() >= self.ctx.cfg.max_checks
    }

    /// Runs one CHECK through the context's scratch state and records its
    /// cost (see `run_check` for the verification semantics).
    pub fn test(&self, actions: &[Action]) -> bool {
        self.checks.set(self.checks.get() + 1);
        let shared = CheckShared::of(self.ctx);
        let outcome = {
            let mut check = self.ctx.check.borrow_mut();
            run_check(&shared, &mut check, actions)
        };
        self.record(actions, &outcome);
        outcome.verdict
    }

    /// Replays a CHECK's cost and trace into observability. Called in
    /// consumption order by both the sequential and the parallel path, so
    /// traces and counters are independent of evaluation order.
    fn record(&self, actions: &[Action], outcome: &CheckOutcome) {
        self.record_cost(&outcome.cost);
        let obs = &self.ctx.obs;
        if obs.is_enabled() {
            obs.trace_test(actions_to_trace(actions), outcome.verdict);
        }
    }

    /// Replays one counterfactual evaluation's op counts into
    /// observability.
    fn record_cost(&self, cost: &CheckCost) {
        let obs = &self.ctx.obs;
        if obs.is_enabled() {
            obs.count(Op::Checks, 1);
            obs.count(Op::ForwardPushes, cost.pushes);
            obs.add_mass(cost.drained);
            obs.count(Op::RowsPatched, cost.rows_patched);
            obs.count(Op::CandidateIndexHits, cost.index_hits);
            obs.count(Op::CheckStages, cost.stages);
        }
    }

    /// Scans `sets` in order — `pre(i)`, then CHECK — returning the index
    /// of the first passing set, exactly like the sequential loop
    ///
    /// ```text
    /// for (i, s) in sets { if pre(i) == Stop { break } if test(s) { return i } }
    /// ```
    ///
    /// When the config's `parallelism` resolves to ≥ 2 workers and there is
    /// more than one set, the CHECKs are evaluated speculatively by workers
    /// that take set indices, lowest first, from one shared feed
    /// (`parallel::speculative_scan`) while this thread consumes outcomes in
    /// input order; verdicts, budget accounting, counters, and traces are
    /// bit-identical to the sequential scan at any thread count.
    pub fn first_passing(
        &self,
        sets: &[Vec<Action>],
        mut pre: impl FnMut(usize) -> PreCheck,
    ) -> FirstPass {
        let threads = self.ctx.cfg.effective_parallelism().min(sets.len());
        if threads < 2 {
            for (i, actions) in sets.iter().enumerate() {
                if matches!(pre(i), PreCheck::Stop) {
                    return FirstPass {
                        found: None,
                        stopped: Some(i),
                    };
                }
                if self.test(actions) {
                    return FirstPass {
                        found: Some(i),
                        stopped: None,
                    };
                }
            }
            return FirstPass {
                found: None,
                stopped: None,
            };
        }

        let ctx = self.ctx;
        let shared = CheckShared::of(ctx);
        let states = ctx.take_check_states(threads);
        let span = ctx.obs.span("check_parallel");
        let mut found = None;
        let mut stopped = None;
        let outcome = speculative_scan(
            threads,
            sets,
            states,
            |state, _idx, actions: &Vec<Action>| run_check(&shared, state, actions),
            |i, consumed| {
                if matches!(pre(i), PreCheck::Stop) {
                    stopped = Some(i);
                    return ScanControl::Stop;
                }
                let verdict = match consumed {
                    Consumed::Done(out) => {
                        self.checks.set(self.checks.get() + 1);
                        self.record(&sets[i], &out);
                        out.verdict
                    }
                    // Worker lost (its CHECK panicked, or every worker
                    // retired): the sequential path recomputes on the
                    // context's own state, with budget and trace accounting
                    // exactly as usual.
                    Consumed::Fallback => self.test(&sets[i]),
                };
                if verdict {
                    found = Some(i);
                    ScanControl::Stop
                } else {
                    ScanControl::Continue
                }
            },
        );
        drop(span);
        ctx.return_check_states(outcome.states);
        FirstPass { found, stopped }
    }

    /// Top-1 recommendation on the counterfactual graph (also used by the
    /// PRINCE baseline, which accepts any replacement item).
    pub fn top1_after(&self, actions: &[Action]) -> Option<NodeId> {
        self.recommendation_after(actions, 1).top()
    }

    /// Full counterfactual top-k list. Counted like a CHECK (budget and op
    /// counters) but recorded without a TEST trace entry.
    pub fn recommendation_after(&self, actions: &[Action], k: usize) -> RecList {
        self.checks.set(self.checks.get() + 1);
        let ctx = self.ctx;
        let cfg = &ctx.cfg;
        let shared = CheckShared::of(ctx);
        let (list, cost) = counterfactual(
            &shared,
            &mut ctx.check.borrow_mut(),
            actions,
            |ws, cand, patched| {
                // Same engine as `test`, run straight to the target ε.
                ws.push_stage(patched, &cfg.rec.ppr, cfg.rec.ppr.epsilon);
                // Candidates on the EDITED graph: removals free their items
                // for recommendation again; additions disqualify theirs.
                // Items whose score sits at the push-noise floor are not
                // recommendable: a zero-score "recommendation" is vacuous,
                // and its tie-break would follow push noise rather than the
                // exact scores.
                let floor = score_floor(cfg);
                let scores = ws.estimates();
                let candidates = cand
                    .items()
                    .iter()
                    .copied()
                    .filter(|&n| scores[n.index()] > floor && !cand.is_interacted(n));
                let list = RecList::from_scores(scores, candidates, k);
                (list, cand.items().len() as u64)
            },
        );
        self.record_cost(&cost);
        list
    }
}

/// Test-only CHECK fault injection, reachable from integration tests in
/// other crates (hence compiled in, but disarmed: one relaxed atomic
/// decrement per CHECK, never tripping from the sentinel). Arm it to make
/// the `n`-th subsequent CHECK panic wherever it runs — on a pool worker
/// or inline — to exercise the fallback path end to end.
#[doc(hidden)]
pub mod check_fault {
    use std::sync::atomic::{AtomicI64, Ordering};

    /// `i64::MIN` wraps to `i64::MAX` on the first decrement, so the
    /// disarmed countdown cannot reach zero in any realistic run.
    static COUNTDOWN: AtomicI64 = AtomicI64::new(i64::MIN);

    /// Panics the `n`-th CHECK from now (0-based). The panic fires once:
    /// later CHECKs (including the fallback re-run of the same subset)
    /// see a negative countdown and proceed normally.
    pub fn arm(n: i64) {
        COUNTDOWN.store(n, Ordering::SeqCst);
    }

    /// Returns to the never-fires sentinel.
    pub fn disarm() {
        COUNTDOWN.store(i64::MIN, Ordering::SeqCst);
    }

    pub(crate) fn trip() {
        if COUNTDOWN.fetch_sub(1, Ordering::Relaxed) == 0 {
            panic!("injected CHECK fault");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use emigre_hin::{EdgeKey, Hin};
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// The user rated `pivot`, which feeds `rec`; `wni` sits behind an
    /// unrated bridge. Removing the pivot action or adding the bridge
    /// action must flip the recommendation.
    struct Fixture {
        g: Hin,
        cfg: EmigreConfig,
        u: NodeId,
        pivot: NodeId,
        rec: NodeId,
        wni: NodeId,
        bridge: NodeId,
        rated: emigre_hin::EdgeTypeId,
    }

    fn fixture() -> Fixture {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let pivot = g.add_node(item_t, Some("pivot"));
        let other = g.add_node(item_t, Some("other"));
        let rec = g.add_node(item_t, Some("rec"));
        let wni = g.add_node(item_t, Some("wni"));
        let bridge = g.add_node(item_t, Some("bridge"));
        g.add_edge_bidirectional(u, pivot, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, other, rated, 1.0).unwrap();
        g.add_edge_bidirectional(pivot, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(other, wni, rated, 0.5).unwrap();
        g.add_edge_bidirectional(bridge, wni, rated, 2.0).unwrap();
        // Weak back-path so `pivot` stays PPR-reachable after its user
        // edge is removed (the re-entry test below needs a non-zero score).
        g.add_edge_bidirectional(other, pivot, rated, 0.1).unwrap();
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        Fixture {
            g,
            cfg,
            u,
            pivot,
            rec,
            wni,
            bridge,
            rated,
        }
    }

    #[test]
    fn empty_action_set_keeps_current_rec() {
        let f = fixture();
        let ctx = ExplainContext::build(&f.g, f.cfg.clone(), f.u, f.wni).unwrap();
        assert_eq!(ctx.rec, f.rec);
        let tester = Tester::new(&ctx);
        assert!(!tester.test(&[]));
        assert_eq!(tester.top1_after(&[]), Some(f.rec));
        assert_eq!(tester.checks_performed(), 2);
    }

    #[test]
    fn removing_pivot_flips_to_wni() {
        let f = fixture();
        let ctx = ExplainContext::build(&f.g, f.cfg.clone(), f.u, f.wni).unwrap();
        let tester = Tester::new(&ctx);
        let action = Action::remove(EdgeKey::new(f.u, f.pivot, f.rated), 1.0);
        assert!(tester.test(&[action]));
    }

    #[test]
    fn adding_bridge_flips_to_wni() {
        let f = fixture();
        let ctx = ExplainContext::build(&f.g, f.cfg.clone(), f.u, f.wni).unwrap();
        let tester = Tester::new(&ctx);
        let action = Action::add(EdgeKey::new(f.u, f.bridge, f.rated), 1.0);
        assert!(tester.test(&[action]));
    }

    #[test]
    fn removed_item_reenters_candidate_pool() {
        let f = fixture();
        let ctx = ExplainContext::build(&f.g, f.cfg.clone(), f.u, f.wni).unwrap();
        let tester = Tester::new(&ctx);
        let action = Action::remove(EdgeKey::new(f.u, f.pivot, f.rated), 1.0);
        let list = tester.recommendation_after(&[action], 10);
        assert!(
            list.contains(f.pivot),
            "un-interacted pivot must be recommendable again"
        );
    }

    #[test]
    fn added_item_leaves_candidate_pool() {
        let f = fixture();
        let ctx = ExplainContext::build(&f.g, f.cfg.clone(), f.u, f.wni).unwrap();
        let tester = Tester::new(&ctx);
        let action = Action::add(EdgeKey::new(f.u, f.bridge, f.rated), 1.0);
        let list = tester.recommendation_after(&[action], 10);
        assert!(!list.contains(f.bridge));
    }

    #[test]
    fn staged_test_agrees_with_full_precision_ranking() {
        // Every subset of counterfactual actions must get the same verdict
        // from the staged `test` and from the full-precision list.
        let f = fixture();
        let ctx = ExplainContext::build(&f.g, f.cfg.clone(), f.u, f.wni).unwrap();
        let tester = Tester::new(&ctx);
        let pool = [
            Action::remove(EdgeKey::new(f.u, f.pivot, f.rated), 1.0),
            Action::remove(EdgeKey::new(f.u, NodeId(2), f.rated), 1.0), // "other"
            Action::add(EdgeKey::new(f.u, f.bridge, f.rated), 1.0),
        ];
        for mask in 0u32..(1 << pool.len()) {
            let actions: Vec<Action> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| *a)
                .collect();
            let staged = tester.test(&actions);
            let full = tester.top1_after(&actions) == Some(f.wni);
            assert_eq!(staged, full, "disagreement on mask {mask:#b}");
        }
    }

    #[test]
    fn checks_reuse_workspace_and_roll_back_cleanly() {
        // The CHECK fast path must leave the context's workspace clean
        // (fully rolled back) after every call and never swap out its
        // graph-sized buffers — repeated checks reuse the same storage.
        let f = fixture();
        let ctx = ExplainContext::build(&f.g, f.cfg.clone(), f.u, f.wni).unwrap();
        let tester = Tester::new(&ctx);
        let pool = [
            Action::remove(EdgeKey::new(f.u, f.pivot, f.rated), 1.0),
            Action::add(EdgeKey::new(f.u, f.bridge, f.rated), 1.0),
        ];
        let est_ptr = ctx.check.borrow().ws.estimates().as_ptr();
        for round in 0..50u32 {
            let mask = round % 4;
            let actions: Vec<Action> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| *a)
                .collect();
            tester.test(&actions);
            let check = ctx.check.borrow();
            assert!(check.ws.is_clean(), "undo log not drained");
            assert_eq!(check.ws.touched_len(), 0);
            assert_eq!(
                check.ws.estimates().as_ptr(),
                est_ptr,
                "workspace buffer was reallocated"
            );
        }
    }

    /// A bipartite world big enough that a coarse stage leaves its
    /// residual mass spread over many nodes: 40 users rating 6 of 120
    /// items each (mirrored), weights from a fixed LCG.
    fn spread_world() -> (
        Hin,
        EmigreConfig,
        NodeId,
        emigre_hin::EdgeTypeId,
        Vec<NodeId>,
    ) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let users: Vec<NodeId> = (0..40).map(|_| g.add_node(user_t, None)).collect();
        let items: Vec<NodeId> = (0..120).map(|_| g.add_node(item_t, None)).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        for &u in &users {
            for _ in 0..6 {
                let i = items[next(items.len() as u64) as usize];
                let w = 1.0 + next(4) as f64;
                let _ = g.add_edge_bidirectional(u, i, rated, w);
            }
        }
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-7,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        (g, cfg, users[0], rated, items)
    }

    #[test]
    fn a_failing_check_that_rec_dominates_runs_one_stage() {
        let (g, cfg, u, rated, _) = spread_world();
        let (wni, item) = (NodeId(98), NodeId(48));
        let obs = emigre_obs::ObsHandle::enabled();
        let ctx = ExplainContext::build_with_obs(&g, cfg, u, wni, obs).unwrap();
        let actions = [Action::add(EdgeKey::new(u, item, rated), 1.0)];
        // At the first stage (ε = 1e-3) the residual-mass intervals of
        // `rec` and the Why-Not item still overlap.
        let ((rec_lo, wni_hi), _) = counterfactual(
            &CheckShared::of(&ctx),
            &mut ctx.check.borrow_mut(),
            &actions,
            |ws, _, patched| {
                ws.push_stage(patched, &ctx.cfg.rec.ppr, 1e-3);
                let r = ws.residual_mass();
                ((ws.estimate(ctx.rec) - r, ws.estimate(wni) + r), 0)
            },
        );
        assert!(rec_lo <= wni_hi, "{rec_lo} > {wni_hi}: pick a closer call");

        let tester = Tester::new(&ctx);
        let before = ctx.obs.counters();
        assert!(!tester.test(&actions));
        let cost = ctx.obs.counters().delta(&before);
        assert_eq!(cost.checks, 1);
        assert_eq!(cost.check_stages, 1, "the column bounds decide at ε = 1e-3");
        assert_eq!(tester.top1_after(&actions), Some(ctx.rec));
    }

    #[test]
    fn budget_tracking() {
        let f = fixture();
        let mut cfg = f.cfg.clone();
        cfg.max_checks = 2;
        let ctx = ExplainContext::build(&f.g, cfg, f.u, f.wni).unwrap();
        let tester = Tester::new(&ctx);
        assert!(!tester.budget_exhausted());
        tester.test(&[]);
        tester.test(&[]);
        assert!(tester.budget_exhausted());
    }

    /// All eight subsets of the fixture's action pool, as candidate sets
    /// for `first_passing` (the empty set first, so early indices fail).
    fn all_subsets(f: &Fixture) -> Vec<Vec<Action>> {
        let pool = [
            Action::remove(EdgeKey::new(f.u, NodeId(2), f.rated), 1.0), // "other"
            Action::remove(EdgeKey::new(f.u, f.pivot, f.rated), 1.0),
            Action::add(EdgeKey::new(f.u, f.bridge, f.rated), 1.0),
        ];
        (0u32..(1 << pool.len()))
            .map(|mask| {
                pool.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, a)| *a)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn first_passing_matches_sequential_at_any_thread_count() {
        let f = fixture();
        let sets = {
            let ctx = ExplainContext::build(&f.g, f.cfg.clone(), f.u, f.wni).unwrap();
            drop(ctx);
            all_subsets(&f)
        };
        let mut reference: Option<(Option<usize>, usize)> = None;
        for threads in [1usize, 2, 8] {
            let cfg = f.cfg.clone().with_parallelism(threads);
            let ctx = ExplainContext::build(&f.g, cfg, f.u, f.wni).unwrap();
            let tester = Tester::new(&ctx);
            let fp = tester.first_passing(&sets, |_| PreCheck::Proceed);
            assert_eq!(fp.stopped, None);
            let got = (fp.found, tester.checks_performed());
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "divergence at {threads} threads"),
            }
        }
        let (found, checks) = reference.unwrap();
        let idx = found.expect("some subset flips the recommendation");
        assert!(idx > 0, "the empty set cannot pass");
        assert_eq!(checks, idx + 1, "budget must count consumed checks only");
    }

    #[test]
    fn first_passing_honours_the_pre_gate() {
        let f = fixture();
        let sets = all_subsets(&f);
        for threads in [1usize, 4] {
            let cfg = f.cfg.clone().with_parallelism(threads);
            let ctx = ExplainContext::build(&f.g, cfg, f.u, f.wni).unwrap();
            let tester = Tester::new(&ctx);
            let fp = tester.first_passing(&sets, |i| {
                if i == 1 {
                    PreCheck::Stop
                } else {
                    PreCheck::Proceed
                }
            });
            assert_eq!(fp.stopped, Some(1), "gate at index 1 must stop the scan");
            assert_eq!(fp.found, None);
            assert_eq!(tester.checks_performed(), 1, "only index 0 was checked");
        }
    }

    #[test]
    fn parallel_scan_reuses_and_returns_worker_states() {
        let f = fixture();
        let cfg = f.cfg.clone().with_parallelism(4);
        let ctx = ExplainContext::build(&f.g, cfg, f.u, f.wni).unwrap();
        let tester = Tester::new(&ctx);
        let sets = all_subsets(&f);
        tester.first_passing(&sets, |_| PreCheck::Proceed);
        let spare_after_first = ctx.spare_states.borrow().len();
        assert!(spare_after_first > 0, "worker states must be recycled");
        tester.first_passing(&sets, |_| PreCheck::Proceed);
        assert_eq!(
            ctx.spare_states.borrow().len(),
            spare_after_first,
            "second fan-out must reuse the spare pool, not grow it"
        );
    }
}
