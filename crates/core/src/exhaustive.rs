//! The Exhaustive Comparison (paper Algorithm 5, Eq. 7, Tables 1–3).
//!
//! The Incremental and Powerset heuristics compare the Why-Not item only
//! against the *current* recommendation; a candidate set can close that gap
//! yet boost some third item past `WNI`. Exhaustive Comparison instead
//! scores every candidate action against **every** item `t` of the target
//! list `T`:
//!
//! * `C[n][t]` — the predicted decrease of `t`'s dominance gap over `WNI`
//!   if the action on `n` is applied;
//! * `Threshold[t]` (Eq. 7) — the current gap itself, computed from the
//!   user's existing actions.
//!
//! A combination `S` is a *candidate solution* iff
//! `Σ_{n∈S} C[n][t] > Threshold[t]` for every target `t` — i.e. the row of
//! the combination matrix is strictly positive after subtracting the
//! threshold vector (the selection rule illustrated by the paper's
//! Table 3). Candidates are enumerated ascending by size and CHECKed; the
//! *direct* variant returns the first candidate unverified, and exists only
//! to demonstrate how necessary the CHECK is (§6.3 reports a 33% success
//! drop, which our harness reproduces in shape).
//!
//! No sign-based pruning happens before combination building: an action
//! that is useless against `rec` may be exactly what demotes a third item
//! (paper §5.2.2).
//!
//! One boundary case is worth knowing: when the edge-type restriction
//! `T_e` reduces the candidate pool to *exactly* the action set that the
//! thresholds are computed over, the full-pool combination nets a margin
//! of exactly zero against every target (`Σ C[·][t] = Threshold(t)` by
//! construction) and cannot satisfy the strictly-positive condition — the
//! rec-only heuristics (Powerset) remain the tools for that regime, as
//! they exploit the transition-row renormalisation the linear prediction
//! ignores. With the paper's own Tables 1–3 setting (all out-edges as
//! rows) the condition behaves as illustrated there.

use crate::combinations::{binomial, Combinations};
use crate::context::ExplainContext;
use crate::explanation::{Action, Explanation, Mode};
use crate::failure::{classify_failure, ExplainFailure};
use crate::search::{
    allowed_actions, contribution_versus_target, subset_actions, target_threshold, Candidate,
    SearchSpace,
};
use crate::tester::{PreCheck, Tester};
use emigre_hin::{GraphView, NodeId};
use emigre_ppr::ReversePush;
use std::sync::Arc;

/// Intermediate matrices of Algorithm 5, exposed for inspection — this is
/// the data behind the paper's Tables 1 (contribution matrix), 2 (threshold
/// vector) and 3 (combination matrix after threshold subtraction).
#[derive(Debug, Clone)]
pub struct ExhaustiveTrace {
    /// The candidate pool `H` in matrix row order.
    pub candidates: Vec<Candidate>,
    /// The target set `T` in matrix column order.
    pub targets: Vec<NodeId>,
    /// `contribution[n][t]`, aligned with `candidates` × `targets`.
    pub contribution_matrix: Vec<Vec<f64>>,
    /// `Threshold[t]`, aligned with `targets`.
    pub threshold: Vec<f64>,
    /// Combinations that satisfied the all-targets condition (index vectors
    /// into `candidates`), in enumeration order, capped by the subset
    /// budget.
    pub accepted_combinations: Vec<Vec<usize>>,
}

/// Runs Algorithm 5 with the CHECK step.
pub fn exhaustive<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    space: &SearchSpace,
) -> Result<Explanation, ExplainFailure> {
    run(ctx, space, false).0
}

/// The *Exhaustive-direct* baseline (§6.2): identical search, but the first
/// candidate combination is returned without verification
/// (`Explanation::verified == false`).
pub fn exhaustive_direct<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    space: &SearchSpace,
) -> Result<Explanation, ExplainFailure> {
    run(ctx, space, true).0
}

/// Runs Algorithm 5 and also returns the intermediate matrices.
pub fn exhaustive_with_trace<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    space: &SearchSpace,
) -> (Result<Explanation, ExplainFailure>, ExhaustiveTrace) {
    let (res, trace) = run(ctx, space, false);
    (res, trace.expect("trace always produced"))
}

fn run<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    space: &SearchSpace,
    direct: bool,
) -> (Result<Explanation, ExplainFailure>, Option<ExhaustiveTrace>) {
    let tester = Tester::new(ctx);

    // Candidate pool: the whole ranked space, capped for subset enumeration.
    let mut pool: Vec<Candidate> = space.candidates.clone();
    let capped = pool.len() > ctx.cfg.max_subset_candidates;
    pool.truncate(ctx.cfg.max_subset_candidates);

    // One Reverse Local Push per target (this |T|-fold PPR work is what
    // makes Exhaustive the slowest method — Table 5). The column for `rec`
    // is already in the context and is shared, not copied.
    let ranking_span = ctx.obs.span("candidate_ranking");
    let targets = ctx.targets();
    let pushes: Vec<Arc<ReversePush>> = targets
        .iter()
        .map(|&t| {
            if t == ctx.rec {
                Arc::clone(&ctx.ppr_to_rec)
            } else {
                let p = ReversePush::compute(&*ctx.kernel, &ctx.cfg.rec.ppr, t);
                ctx.obs
                    .count(emigre_obs::Op::ReversePushes, p.pushes as u64);
                ctx.obs.add_mass(p.drained);
                Arc::new(p)
            }
        })
        .collect();

    // C[n][t] and Threshold[t].
    let contribution_matrix: Vec<Vec<f64>> = pool
        .iter()
        .map(|cand| {
            pushes
                .iter()
                .map(|p| contribution_versus_target(ctx, cand, p))
                .collect()
        })
        .collect();
    let user_actions = allowed_actions(ctx);
    let threshold: Vec<f64> = pushes
        .iter()
        .map(|p| target_threshold(ctx, &user_actions, p))
        .collect();
    drop(ranking_span);

    let mut accepted: Vec<Vec<usize>> = Vec::new();
    let mut enumerated: usize = 0;
    let mut budget_hit = capped;
    let mut result: Option<Explanation> = None;

    let test_loop_span = ctx.obs.span("test_loop");
    'sizes: for size in 1..=pool.len() {
        if enumerated.saturating_add(binomial(pool.len(), size)) > ctx.cfg.max_enumerated_subsets {
            budget_hit = true;
            break;
        }
        // Scan this size for qualifying combinations, remembering each
        // one's enumeration position so the final `SubsetsEnumerated`
        // count reflects exactly where a sequential scan would have
        // stopped. The qualifying combinations are independent pure
        // CHECKs, so the (possibly parallel) in-order scan below matches
        // the sequential per-combination loop bit for bit.
        let before = enumerated;
        let mut scanned = 0usize;
        let mut sets: Vec<Vec<Action>> = Vec::new();
        // Per qualifying combination: (enumeration position, binding
        // margin, index vector).
        let mut qual: Vec<(usize, f64, Vec<usize>)> = Vec::new();
        for idx in Combinations::new(pool.len(), size) {
            scanned += 1;
            // The selection rule: strictly positive against every target.
            let qualifies = (0..targets.len()).all(|ti| {
                let sum: f64 = idx.iter().map(|&i| contribution_matrix[i][ti]).sum();
                sum - threshold[ti] > 0.0
            });
            if !qualifies {
                continue;
            }
            // Binding margin: the smallest per-target surplus of the
            // qualifying combination (how close τ was to not crossing).
            // Only needed for the trace.
            let margin = if ctx.obs.is_enabled() {
                (0..targets.len())
                    .map(|ti| {
                        let sum: f64 = idx.iter().map(|&i| contribution_matrix[i][ti]).sum();
                        sum - threshold[ti]
                    })
                    .fold(f64::INFINITY, f64::min)
            } else {
                0.0
            };
            let actions = subset_actions(&pool, &idx);
            if direct {
                // Baseline: trust the prediction, skip the CHECK and stop
                // at the first candidate combination.
                if ctx.obs.is_enabled() {
                    ctx.obs.trace_crossing((before + scanned) as u64, -margin);
                }
                accepted.push(idx.clone());
                enumerated = before + scanned;
                result = Some(Explanation {
                    mode: space.mode,
                    actions,
                    new_top: ctx.wni,
                    checks_performed: tester.checks_performed(),
                    verified: false,
                });
                break 'sizes;
            }
            qual.push((before + scanned, margin, idx));
            sets.push(actions);
        }
        if direct {
            enumerated = before + scanned;
            continue;
        }

        let scan = tester.first_passing(&sets, |i| {
            if ctx.obs.is_enabled() {
                ctx.obs.trace_crossing(qual[i].0 as u64, -qual[i].1);
            }
            accepted.push(qual[i].2.clone());
            if tester.budget_exhausted() {
                PreCheck::Stop
            } else {
                PreCheck::Proceed
            }
        });
        if let Some(i) = scan.found {
            enumerated = qual[i].0;
            result = Some(Explanation {
                mode: space.mode,
                actions: sets.swap_remove(i),
                new_top: ctx.wni,
                checks_performed: tester.checks_performed(),
                verified: true,
            });
            break 'sizes;
        }
        if let Some(i) = scan.stopped {
            enumerated = qual[i].0;
            budget_hit = true;
            break 'sizes;
        }
        enumerated = before + scanned;
    }
    drop(test_loop_span);
    ctx.obs
        .count(emigre_obs::Op::SubsetsEnumerated, enumerated as u64);

    let trace = ExhaustiveTrace {
        candidates: pool,
        targets,
        contribution_matrix,
        threshold,
        accepted_combinations: accepted,
    };
    let res = match result {
        Some(e) => Ok(e),
        None => Err(classify_failure(
            ctx,
            space.mode.unwrap_or(Mode::Remove),
            space.removable_actions,
            tester.checks_performed(),
            budget_hit,
        )),
    };
    (res, Some(trace))
}

impl ExhaustiveTrace {
    /// Renders the contribution matrix in the format of the paper's
    /// Table 1.
    pub fn contribution_table(&self, g: &emigre_hin::Hin) -> String {
        let mut s = String::from("contribution matrix C[n][t]:\n");
        s.push_str(&format!("{:<16}", ""));
        for &t in &self.targets {
            s.push_str(&format!("{:>12}", g.display_name(t)));
        }
        s.push('\n');
        for (i, c) in self.candidates.iter().enumerate() {
            s.push_str(&format!("{:<16}", g.display_name(c.node())));
            for v in &self.contribution_matrix[i] {
                s.push_str(&format!("{v:>12.4}"));
            }
            s.push('\n');
        }
        s
    }

    /// Renders the threshold vector in the format of the paper's Table 2.
    pub fn threshold_table(&self, g: &emigre_hin::Hin) -> String {
        let mut s = String::from("threshold vector:\n");
        for (ti, &t) in self.targets.iter().enumerate() {
            s.push_str(&format!(
                "{:<16}{:>12.4}\n",
                g.display_name(t),
                self.threshold[ti]
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use crate::search::{add_search_space, remove_search_space};
    use emigre_hin::Hin;
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// Fixture with a third item that dominates WNI but not rec, so that
    /// rec-only reasoning (Incremental/Powerset) can be fooled while the
    /// exhaustive comparison accounts for it.
    fn fixture() -> (Hin, EmigreConfig, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let r1 = g.add_node(item_t, Some("r1"));
        let r2 = g.add_node(item_t, Some("r2"));
        let r3 = g.add_node(item_t, Some("r3"));
        let rec = g.add_node(item_t, Some("rec"));
        let rival = g.add_node(item_t, Some("rival"));
        let wni = g.add_node(item_t, Some("wni"));
        g.add_edge_bidirectional(u, r1, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, r2, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, r3, rated, 1.0).unwrap();
        g.add_edge_bidirectional(r1, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(r2, rec, rated, 1.0).unwrap();
        g.add_edge_bidirectional(r2, rival, rated, 1.5).unwrap();
        g.add_edge_bidirectional(r3, rival, rated, 0.5).unwrap();
        g.add_edge_bidirectional(r3, wni, rated, 1.0).unwrap();
        let _ = rec;
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        (g, cfg, u, wni)
    }

    #[test]
    fn trace_matrices_have_consistent_shape() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let (_, trace) = exhaustive_with_trace(&ctx, &space);
        assert_eq!(trace.contribution_matrix.len(), trace.candidates.len());
        for row in &trace.contribution_matrix {
            assert_eq!(row.len(), trace.targets.len());
        }
        assert_eq!(trace.threshold.len(), trace.targets.len());
        assert!(!trace.targets.contains(&wni), "WNI excluded from targets");
    }

    #[test]
    fn thresholds_signal_current_ranking() {
        // Targets ranked above WNI have positive thresholds, targets ranked
        // below have negative ones (paper: "all items ranked worse than WNI
        // have a negative threshold").
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let (_, trace) = exhaustive_with_trace(&ctx, &space);
        let wni_score = ctx.user_push.estimate(wni);
        for (ti, &t) in trace.targets.iter().enumerate() {
            let t_score = ctx.user_push.estimate(t);
            if t_score > wni_score + 1e-9 {
                assert!(
                    trace.threshold[ti] > 0.0,
                    "{} above WNI must have positive threshold, got {}",
                    g.display_name(t),
                    trace.threshold[ti]
                );
            } else if t_score < wni_score - 1e-9 {
                assert!(
                    trace.threshold[ti] < 0.0,
                    "{} below WNI must have negative threshold, got {}",
                    g.display_name(t),
                    trace.threshold[ti]
                );
            }
        }
    }

    #[test]
    fn exhaustive_result_is_verified() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        for space in [remove_search_space(&ctx), add_search_space(&ctx)] {
            if let Ok(exp) = exhaustive(&ctx, &space) {
                assert!(exp.verified);
                let tester = Tester::new(&ctx);
                assert!(tester.test(&exp.actions));
            }
        }
    }

    #[test]
    fn direct_variant_skips_check() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        if let Ok(exp) = exhaustive_direct(&ctx, &space) {
            assert!(!exp.verified);
            assert_eq!(exp.checks_performed, 0);
        }
    }

    #[test]
    fn direct_never_returns_larger_than_checked() {
        // Direct returns the first (smallest) candidate; the checked
        // variant may have to move past it.
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        if let (Ok(d), Ok(c)) = (exhaustive_direct(&ctx, &space), exhaustive(&ctx, &space)) {
            assert!(d.size() <= c.size());
        }
    }

    #[test]
    fn tables_render() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let (_, trace) = exhaustive_with_trace(&ctx, &space);
        let t1 = trace.contribution_table(&g);
        let t2 = trace.threshold_table(&g);
        assert!(t1.contains("r1"));
        assert!(t2.contains("rec"));
    }
}
