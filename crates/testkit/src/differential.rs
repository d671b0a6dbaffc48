//! Differential assertions: push engines and explainers vs the oracle.
//!
//! The helpers here panic with full context on any disagreement, so the
//! integration tests stay declarative: sample worlds, call the checks,
//! count the cases.
//!
//! ## Error budget
//!
//! A converged local push leaves every |residual| ≤ ε, and the push
//! invariants (Eqs. 3–4) bound each estimate's absolute error by the
//! total residual mass, hence by `n·ε` ([`push_error_bound`]). The
//! differential suite pushes at ε = 1e-12 on worlds of ≲ 100 nodes, so
//! estimates are within ~1e-10 of exact — comfortably inside the 1e-9
//! agreement budget asserted against the oracle (itself iterated to
//! 1e-13 in L1).
//!
//! TEST verdicts get the same treatment: a verdict is asserted to match
//! the oracle only when the oracle's [`OracleVerdict::margin`] exceeds
//! twice the push error bound; inside that band an estimate-based
//! tie-break may legitimately flip, and the helper instead records a
//! near-tie and asserts ε-optimality (the served winner's exact score is
//! within the band of the exact winner's).
//!
//! Returned explanations are passing CHECKs only. [`cross_check_verdicts`]
//! holds every CHECK verdict to the oracle, failing ones included: those
//! are what the staged CHECK stops early on.

use crate::oracle::{oracle_test, DenseOracle, OracleVerdict};
use crate::world::World;
use emigre_core::search::{add_search_space, remove_search_space};
use emigre_core::tester::{PreCheck, Tester};
use emigre_core::{minimal, Action, ExplainContext, Explainer, Method};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_ppr::{ForwardPush, ReversePush, TransitionCsr};

/// The paper's five Remove-mode algorithms, cross-checked on every
/// sampled question.
pub const FIVE_ALGORITHMS: [Method; 5] = [
    Method::RemoveIncremental,
    Method::RemovePowerset,
    Method::RemoveExhaustive,
    Method::RemoveBruteForce,
    Method::RemoveExhaustiveDirect,
];

/// Add-mode methods, checked alongside for coverage.
pub const ADD_METHODS: [Method; 3] = [
    Method::AddIncremental,
    Method::AddPowerset,
    Method::AddExhaustive,
];

/// Absolute per-estimate error bound of a push converged at `epsilon` on
/// an `n`-node graph: total residual mass ≤ `n·ε`.
pub fn push_error_bound(n: usize, epsilon: f64) -> f64 {
    n as f64 * epsilon
}

/// Running tallies of a differential run, for the final `≥ N cases`
/// assertions and the suite's summary output.
#[derive(Debug, Default, Clone)]
pub struct DiffStats {
    /// (graph, user, WNI) cases where the flat-kernel pushes were checked
    /// against the oracle.
    pub ppr_cases: usize,
    /// Explanations whose action set was oracle-TESTed.
    pub explanations_checked: usize,
    /// Verdicts asserted equal under a decisive oracle margin.
    pub decisive_verdicts: usize,
    /// Verdicts inside the error band, held only to ε-optimality.
    pub near_ties: usize,
    /// Explanations the unverified baseline (Exhaustive-direct) returned
    /// that the oracle refutes — the paper's argument for CHECK.
    pub direct_refuted: usize,
    /// Brute-force explanations certified subset-minimal.
    pub minimality_certified: usize,
    /// Action subsets whose CHECK verdict was oracle-TESTed
    /// ([`cross_check_verdicts`]).
    pub verdicts_checked: usize,
    /// Of those, verdicts asserted equal under a decisive margin.
    pub verdicts_decisive: usize,
    /// Decisive verdicts where the Why-Not item loses: failing CHECKs.
    pub decisive_failing: usize,
    /// Worst forward-estimate disagreement seen.
    pub max_row_err: f64,
    /// Worst reverse-estimate disagreement seen.
    pub max_col_err: f64,
}

/// Asserts the flat-kernel forward push over the full row agrees with
/// the oracle row to `tol`; returns the max absolute error.
pub fn assert_forward_agrees(
    world: &World,
    kernel: &TransitionCsr,
    oracle: &DenseOracle,
    seed: NodeId,
    tol: f64,
) -> f64 {
    let push = ForwardPush::compute(kernel, &world.cfg.rec.ppr, seed);
    let exact = oracle.ppr_row(seed);
    let mut max_err = 0.0f64;
    for (i, (&est, &ex)) in push.estimates.iter().zip(exact.iter()).enumerate() {
        let err = (est - ex).abs();
        if err > max_err {
            max_err = err;
        }
        assert!(
            err <= tol,
            "forward push disagrees with oracle: seed={seed:?} node={i} est={est} exact={ex} err={err:e} tol={tol:e}"
        );
    }
    max_err
}

/// Asserts the flat-kernel reverse push column agrees with the oracle
/// column to `tol`; returns the max absolute error.
pub fn assert_reverse_agrees(
    world: &World,
    kernel: &TransitionCsr,
    oracle: &DenseOracle,
    target: NodeId,
    tol: f64,
) -> f64 {
    let push = ReversePush::compute(kernel, &world.cfg.rec.ppr, target);
    let exact = oracle.ppr_column(target);
    let mut max_err = 0.0f64;
    for (s, (&est, &ex)) in push.estimates.iter().zip(exact.iter()).enumerate() {
        let err = (est - ex).abs();
        if err > max_err {
            max_err = err;
        }
        assert!(
            err <= tol,
            "reverse push disagrees with oracle: target={target:?} source={s} est={est} exact={ex} err={err:e} tol={tol:e}"
        );
    }
    max_err
}

/// Every (user, wni) pair on which a question context builds — i.e. the
/// user has a recommendation list and the pair passes full question
/// validation. Deterministic order (users outer, items inner).
pub fn viable_questions(world: &World, limit: usize) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for &user in &world.users {
        for &item in &world.items {
            if out.len() >= limit {
                return out;
            }
            if ExplainContext::build(&world.graph, world.cfg.clone(), user, item).is_ok() {
                out.push((user, item));
            }
        }
    }
    out
}

/// Cross-checks one question: runs `methods`, oracle-TESTs every
/// returned explanation, asserts verdict agreement under decisive
/// margins, ε-optimality inside the band, and subset-minimality of
/// brute-force explanations. `graph` must be the world's base graph.
pub fn cross_check_question(
    world: &World,
    user: NodeId,
    wni: NodeId,
    methods: &[Method],
    stats: &mut DiffStats,
) {
    let graph: &Hin = &world.graph;
    let cfg = &world.cfg;
    let n = graph.num_nodes();
    let bound = push_error_bound(n, cfg.rec.ppr.epsilon);
    let ctx = match ExplainContext::build(graph, cfg.clone(), user, wni) {
        Ok(ctx) => ctx,
        Err(e) => panic!("viable question stopped validating: user={user:?} wni={wni:?}: {e:?}"),
    };
    for &method in methods {
        let result = Explainer::explain_with_context(&ctx, method);
        let Ok(exp) = result else { continue };
        assert_eq!(
            exp.new_top, wni,
            "{method:?} returned an explanation whose new_top is not the WNI"
        );
        // The engine's own TEST verdict on the returned action set, via a
        // fresh budget so method-internal accounting doesn't interfere.
        let engine_wins = Tester::new(&ctx).test(&exp.actions);
        let verdict: OracleVerdict = oracle_test(graph, cfg, user, wni, &exp.actions)
            .unwrap_or_else(|e| {
                panic!("{method:?} explanation does not apply to the base graph: {e:?}")
            });
        stats.explanations_checked += 1;
        if verdict.decisive(bound) {
            stats.decisive_verdicts += 1;
            assert_eq!(
                engine_wins, verdict.wins,
                "{method:?}: engine TEST and oracle TEST disagree outside the error band \
                 (user={user:?} wni={wni:?} actions={:?} margin={:e} bound={:e})",
                exp.actions, verdict.margin, bound
            );
            if exp.verified {
                assert!(
                    verdict.wins,
                    "{method:?} returned a verified explanation the oracle decisively refutes \
                     (user={user:?} wni={wni:?} actions={:?} wni_score={} top={:?})",
                    exp.actions, verdict.wni_score, verdict.top
                );
            } else if !verdict.wins {
                stats.direct_refuted += 1;
            }
        } else {
            // Near-tie: the estimate-based tie-break may flip. Still
            // require ε-optimality — the WNI's exact score reaches the
            // decision boundary to within the band.
            stats.near_ties += 1;
            assert!(
                verdict.margin <= 2.0 * bound,
                "near-tie bookkeeping broken: margin {:e} vs band {:e}",
                verdict.margin,
                2.0 * bound
            );
        }
        if method == Method::RemoveBruteForce && exp.verified && exp.size() <= 8 {
            assert!(
                minimal::is_minimal(&ctx, &exp),
                "brute force returned a non-minimal explanation: {:?}",
                exp.actions
            );
            stats.minimality_certified += 1;
        }
    }
}

/// Cross-checks the CHECK verdicts of one question, failing ones
/// included. The action sets are every non-empty subset of the top `pool`
/// candidates of each mode's search space. For each set whose oracle
/// margin is decisive under [`push_error_bound`], the engine's TEST must
/// equal the oracle's, two ways: `Tester::test` at parallelism 1 and the
/// speculative scan of `Tester::first_passing` at parallelism 2.
pub fn cross_check_verdicts(
    world: &World,
    user: NodeId,
    wni: NodeId,
    pool: usize,
    stats: &mut DiffStats,
) {
    let graph: &Hin = &world.graph;
    let cfg = &world.cfg;
    let bound = push_error_bound(graph.num_nodes(), cfg.rec.ppr.epsilon);
    let build = |cfg: emigre_core::EmigreConfig| {
        ExplainContext::build(graph, cfg, user, wni).unwrap_or_else(|e| {
            panic!("viable question stopped validating: user={user:?} wni={wni:?}: {e:?}")
        })
    };
    let ctx = build(cfg.clone());
    let ctx_par = build(cfg.clone().with_parallelism(2));

    let mut sets: Vec<Vec<Action>> = Vec::new();
    for space in [remove_search_space(&ctx), add_search_space(&ctx)] {
        let top: Vec<Action> = space
            .candidates
            .iter()
            .take(pool)
            .map(|c| c.action)
            .collect();
        for mask in 1u32..(1 << top.len()) {
            sets.push(
                (0..top.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| top[i])
                    .collect(),
            );
        }
    }
    let (seq, par) = (Tester::new(&ctx), Tester::new(&ctx_par));
    for actions in &sets {
        let verdict = oracle_test(graph, cfg, user, wni, actions)
            .unwrap_or_else(|e| panic!("search-space subset does not apply: {e:?}"));
        stats.verdicts_checked += 1;
        let tag = || {
            format!(
                "user={user:?} wni={wni:?} actions={actions:?} margin={:e} top={:?}",
                verdict.margin, verdict.top
            )
        };
        if verdict.decisive(bound) {
            stats.verdicts_decisive += 1;
            if !verdict.wins {
                stats.decisive_failing += 1;
            }
            assert_eq!(
                seq.test(actions),
                verdict.wins,
                "sequential CHECK: {}",
                tag()
            );
            // Two copies of the set put it through the parallel scan.
            let pair = [actions.clone(), actions.clone()];
            let scanned = par.first_passing(&pair, |_| PreCheck::Proceed).found;
            assert_eq!(scanned.is_some(), verdict.wins, "parallel CHECK: {}", tag());
        }
    }
}

/// Full PPR agreement check for one question: forward row from the user,
/// reverse column into the WNI, both against the oracle.
pub fn check_ppr_agreement(
    world: &World,
    kernel: &TransitionCsr,
    oracle: &DenseOracle,
    user: NodeId,
    wni: NodeId,
    tol: f64,
    stats: &mut DiffStats,
) {
    let row_err = assert_forward_agrees(world, kernel, oracle, user, tol);
    let col_err = assert_reverse_agrees(world, kernel, oracle, wni, tol);
    stats.max_row_err = stats.max_row_err.max(row_err);
    stats.max_col_err = stats.max_col_err.max(col_err);
    stats.ppr_cases += 1;
}
