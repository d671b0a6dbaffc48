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
//! (paper §5.2.2). The enumeration prunes only exactly: each target's sum
//! is linear in the chosen rows, so the scan skips the subtrees whose best
//! case cannot beat some threshold, and still counts their subsets as
//! enumerated. The targets' columns come from one
//! [`ExplainContext::columns`] call, which a serving caller backs with its
//! epoch cache: the columns it has to push share one lane sweep.
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

use crate::combinations::binomial;
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
use std::ops::ControlFlow;
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
    run(ctx, space, false)
}

fn run<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    space: &SearchSpace,
    direct: bool,
) -> (Result<Explanation, ExplainFailure>, ExhaustiveTrace) {
    let tester = Tester::new(ctx);

    // Candidate pool: the whole ranked space, capped for subset enumeration.
    let mut pool: Vec<Candidate> = space.candidates.clone();
    let capped = pool.len() > ctx.cfg.max_subset_candidates;
    pool.truncate(ctx.cfg.max_subset_candidates);

    // One `PPR(·, t)` column per target, asked for at once: `rec`'s is the
    // context's own, and the rest come from the caller's column source (the
    // service's epoch cache) or one multi-target reverse push.
    let ranking_span = ctx.obs.span("candidate_ranking");
    let targets = ctx.targets();
    let pushes: Vec<Arc<ReversePush>> = ctx.columns(&targets);

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
    let traced = ctx.obs.is_enabled();
    // Binding margin of a qualifying combination: its smallest per-target
    // surplus (how close τ was to not crossing). Only needed for the trace.
    let margin = |sums: &[f64]| {
        if traced {
            sums.iter()
                .zip(&threshold)
                .map(|(s, thr)| s - thr)
                .fold(f64::INFINITY, f64::min)
        } else {
            0.0
        }
    };
    let mut subsets = SubsetScan::new(&contribution_matrix, &threshold);
    'sizes: for size in 1..=pool.len() {
        if enumerated.saturating_add(binomial(pool.len(), size)) > ctx.cfg.max_enumerated_subsets {
            budget_hit = true;
            break;
        }
        let before = enumerated;
        if direct {
            // Baseline: trust the prediction, skip the CHECK and stop at
            // the first candidate combination.
            let mut first = None;
            enumerated = before
                + subsets.scan(size, |rank, idx, sums| {
                    first = Some((before + rank, margin(sums), idx.to_vec()));
                    ControlFlow::Break(())
                });
            if let Some((position, surplus, idx)) = first {
                if traced {
                    ctx.obs.trace_crossing(position as u64, -surplus);
                }
                result = Some(Explanation {
                    mode: space.mode,
                    actions: subset_actions(&pool, &idx),
                    new_top: ctx.wni,
                    checks_performed: tester.checks_performed(),
                    verified: false,
                });
                accepted.push(idx);
                break 'sizes;
            }
            continue;
        }

        // Collect this size's qualifying combinations with their
        // enumeration positions, so the final `SubsetsEnumerated` count
        // reflects exactly where a sequential scan would have stopped.
        // They are independent pure CHECKs, so the (possibly parallel)
        // in-order scan below matches the sequential per-combination loop
        // bit for bit.
        let mut sets: Vec<Vec<Action>> = Vec::new();
        // Per qualifying combination: (enumeration position, binding
        // margin, index vector).
        let mut qual: Vec<(usize, f64, Vec<usize>)> = Vec::new();
        let covered = subsets.scan(size, |rank, idx, sums| {
            qual.push((before + rank, margin(sums), idx.to_vec()));
            sets.push(subset_actions(&pool, idx));
            ControlFlow::Continue(())
        });

        let scan = tester.first_passing(&sets, |i| {
            if traced {
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
        enumerated = before + covered;
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
    (res, trace)
}

/// The selection rule's scan over one subset size: visits the qualifying
/// combinations in the lexicographic order of
/// [`Combinations`](crate::combinations::Combinations), without
/// allocating per subset, and skips every subtree that cannot hold one.
///
/// The enumeration is depth-first. Depth `d` carries the prefix row
/// `rows[d]`: per target, the left fold of the first `d` chosen
/// candidates' contributions, started from the value `f64`'s `Sum` starts
/// from. A subset's row is therefore bit for bit the
/// `idx.iter().map(|&i| C[i][t]).sum()` the selection rule is defined by,
/// and the trace's binding margin reads the same row.
///
/// Every sum is linear in the chosen rows, so a subtree's best case is
/// exact: with `m` slots left after choosing `j`, no completion adds more
/// to target `t` than the `m` largest of `C[j+1..n][t]`. When that best
/// case cannot beat `Threshold[t]` for some `t`, the subtree's
/// C(n−j−1, m) subsets are counted as enumerated and skipped.
///
/// ## Slack
///
/// The skip test is evaluated in floating point, so it carries a slack
/// `σ_t = 2·n·ε·(A_t + |Threshold[t]|)`, with `A_t = Σ_i |C[i][t]|` over
/// the pool and ε = `f64::EPSILON`. Write u = ε/2 for the unit roundoff
/// and γ = (n−1)·u/(1 − (n−1)·u). A left fold of at most `n` terms from a
/// zero seed makes at most n−1 inexact additions, so its result lies
/// within γ·A_t of the exact sum of its terms. Take a skipped subtree with
/// computed prefix P̂, computed best case B̂, and any subset in it with
/// computed sum Ŝ. Three such folds separate Ŝ from P̂ + B̂ (the subset's
/// own, the prefix's and the best case's), and the exact completion never
/// exceeds the exact best case, so Ŝ ≤ P̂ + B̂ + 3γ·A_t. The test computes
/// b = fl(P̂ + fl(B̂ + σ_t)); its two roundings cost at most
/// u·(3·A_t + 2·σ_t), up to second-order terms, so
/// Ŝ ≤ b − σ_t·(1 − 2u) + 3·n·u·A_t·(1 + 2nu). A skip means
/// b ≤ Threshold[t], and σ_t ≥ 2·n·ε·A_t = 4·n·u·A_t exceeds the error
/// term by a factor of 4/3, up to O(n·u) — room that also absorbs the
/// rounding of σ_t's own computation for n ≤ 24 (the
/// `max_subset_candidates` cap). So Ŝ ≤ Threshold[t], and no skipped
/// subset qualifies. The argument needs only the relative error model,
/// which IEEE addition obeys exactly, and assumes σ_t does not underflow,
/// which holds for any contribution above ~1e-290.
struct SubsetScan<'a> {
    contribution: &'a [Vec<f64>],
    threshold: &'a [f64],
    /// `reach[(s·(n+1) + m)·|T| + t]`: the `m` largest of `C[s..n][t]`,
    /// summed, plus `t`'s slack.
    reach: Vec<f64>,
    /// Prefix rows, `|T|` entries per depth `0..=n`.
    rows: Vec<f64>,
    /// The candidate chosen at each depth.
    idx: Vec<usize>,
}

impl<'a> SubsetScan<'a> {
    /// Builds the best-case table once per question, in O(|T|·n²).
    fn new(contribution: &'a [Vec<f64>], threshold: &'a [f64]) -> Self {
        let (n, nt) = (contribution.len(), threshold.len());
        let mut reach = vec![0.0; (n + 1) * (n + 1) * nt];
        let mut column: Vec<f64> = Vec::with_capacity(n);
        for (t, &thr) in threshold.iter().enumerate() {
            let abs_sum: f64 = contribution.iter().map(|row| row[t].abs()).sum();
            let slack = 2.0 * n as f64 * f64::EPSILON * (abs_sum + thr.abs());
            // `column` holds C[s..n][t] in descending order.
            column.clear();
            reach[n * (n + 1) * nt + t] = slack;
            for s in (0..n).rev() {
                let v = contribution[s][t];
                column.insert(column.partition_point(|&x| x >= v), v);
                let mut best = 0.0;
                reach[s * (n + 1) * nt + t] = slack;
                for (m, &x) in column.iter().enumerate() {
                    best += x;
                    reach[(s * (n + 1) + m + 1) * nt + t] = best + slack;
                }
            }
        }
        // Depth 0 holds the value `f64`'s `Sum` starts its fold from, so
        // every prefix row reproduces the selection rule's `sum()`.
        let seed: f64 = std::iter::empty::<f64>().sum();
        let mut rows = vec![0.0; (n + 1) * nt];
        rows[..nt].fill(seed);
        SubsetScan {
            contribution,
            threshold,
            reach,
            rows,
            idx: vec![0; n],
        }
    }

    /// Visits the qualifying `size`-subsets in lexicographic order as
    /// `visit(rank, idx, sums)`: `rank` is the subset's 1-based position
    /// among all `size`-subsets, `sums` its per-target sums. Returns how
    /// many subsets the scan covered: all C(n, size), or the rank of the
    /// subset at which `visit` broke off.
    fn scan(
        &mut self,
        size: usize,
        mut visit: impl FnMut(usize, &[usize], &[f64]) -> ControlFlow<()>,
    ) -> usize {
        debug_assert!((1..=self.idx.len()).contains(&size));
        let mut rank = 0;
        let _ = self.descend(0, 0, size, &mut rank, &mut visit);
        rank
    }

    /// Chooses the candidate at `depth`, from `from` on, and recurses.
    fn descend(
        &mut self,
        depth: usize,
        from: usize,
        size: usize,
        rank: &mut usize,
        visit: &mut impl FnMut(usize, &[usize], &[f64]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let (n, nt) = (self.contribution.len(), self.threshold.len());
        let left = size - depth - 1;
        for j in from..=n - (size - depth) {
            let (done, next) = self.rows.split_at_mut((depth + 1) * nt);
            let row = &mut next[..nt];
            for ((r, &p), &c) in row
                .iter_mut()
                .zip(&done[depth * nt..])
                .zip(&self.contribution[j])
            {
                *r = p + c;
            }
            let reach = &self.reach[((j + 1) * (n + 1) + left) * nt..][..nt];
            let hopeless = row
                .iter()
                .zip(reach)
                .zip(self.threshold)
                .any(|((&p, &r), &thr)| p + r <= thr);
            if hopeless {
                *rank += binomial(n - j - 1, left);
                continue;
            }
            self.idx[depth] = j;
            if left > 0 {
                self.descend(depth + 1, j + 1, size, rank, visit)?;
                continue;
            }
            *rank += 1;
            // The selection rule: strictly positive against every target.
            if row
                .iter()
                .zip(self.threshold)
                .all(|(&sum, &thr)| sum - thr > 0.0)
            {
                visit(*rank, &self.idx[..size], row)?;
            }
        }
        ControlFlow::Continue(())
    }
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

    /// What a run over sizes saw: every qualifying subset as (position,
    /// index vector, sum bits), then the subsets covered per size.
    type Seen = (Vec<(usize, Vec<usize>, Vec<u64>)>, Vec<usize>);

    /// A visitor as [`SubsetScan::scan`] calls it.
    type Visit<'v> = dyn FnMut(usize, &[usize], &[f64]) -> ControlFlow<()> + 'v;

    /// The plain scan the pruned one replaces: every `size`-subset from
    /// `Combinations`, each summed by the selection rule's own fold.
    fn plain_scan(c: &[Vec<f64>], thr: &[f64], size: usize, visit: &mut Visit<'_>) -> usize {
        for (i, idx) in crate::combinations::Combinations::new(c.len(), size).enumerate() {
            let sums: Vec<f64> = (0..thr.len())
                .map(|t| idx.iter().map(|&i| c[i][t]).sum())
                .collect();
            let qualifies = sums.iter().zip(thr).all(|(s, t)| s - t > 0.0);
            if qualifies && visit(i + 1, &idx, &sums).is_break() {
                return i + 1;
            }
        }
        binomial(c.len(), size)
    }

    /// Sizes ascending as [`run`] takes them — the per-size budget
    /// pre-check, then one scan per size — stopping after the `stop`-th
    /// qualifying subset, where a CHECK budget or the direct variant would.
    fn run_sizes(
        n: usize,
        budget: usize,
        stop: usize,
        mut scan: impl FnMut(usize, &mut Visit<'_>) -> usize,
    ) -> Seen {
        let (mut seen, mut covered) = (Vec::new(), Vec::new());
        let mut enumerated = 0;
        for size in 1..=n {
            if enumerated + binomial(n, size) > budget {
                break;
            }
            let before = enumerated;
            let size_covered = scan(size, &mut |rank, idx, sums| {
                let bits = sums.iter().map(|s| s.to_bits()).collect();
                seen.push((before + rank, idx.to_vec(), bits));
                if seen.len() == stop {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            covered.push(size_covered);
            enumerated += size_covered;
            if seen.len() == stop {
                break;
            }
        }
        (seen, covered)
    }

    fn pruned_run(c: &[Vec<f64>], thr: &[f64], budget: usize, stop: usize) -> Seen {
        let mut scan = SubsetScan::new(c, thr);
        run_sizes(c.len(), budget, stop, |size, visit| scan.scan(size, visit))
    }

    fn plain_run(c: &[Vec<f64>], thr: &[f64], budget: usize, stop: usize) -> Seen {
        run_sizes(c.len(), budget, stop, |size, visit| {
            plain_scan(c, thr, size, visit)
        })
    }

    /// Random contribution matrices (zero rows, duplicate rows and
    /// all-negative columns included) with thresholds planted at one
    /// subset's computed sums, at three setups: every target exactly at
    /// the sum (the subset must not qualify), every target one ulp below
    /// it (it must), or a mix.
    fn planted_case(
    ) -> impl proptest::prelude::Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, Vec<usize>, usize)>
    {
        use proptest::collection::vec;
        use proptest::prelude::*;
        (
            (1usize..=16, 1usize..=10),
            vec(-1.0f64..1.0, 16 * 10),
            (vec(0usize..6, 16), vec(0usize..4, 10)),
            (vec(any::<bool>(), 16), 0usize..3, vec(any::<bool>(), 10)),
        )
            .prop_map(
                |((n, nt), cells, (row_kind, col_kind), (pick, plant, at))| {
                    let mut c: Vec<Vec<f64>> =
                        (0..n).map(|i| cells[i * 10..][..nt].to_vec()).collect();
                    for i in 0..n {
                        match row_kind[i] {
                            0 => c[i].fill(0.0),
                            1 if i > 0 => c[i] = c[i / 2].clone(),
                            _ => {}
                        }
                    }
                    for (t, &kind) in col_kind.iter().enumerate().take(nt) {
                        if kind == 0 {
                            c.iter_mut().for_each(|row| row[t] = -row[t].abs());
                        }
                    }
                    let mut subset: Vec<usize> = (0..n).filter(|&i| pick[i]).collect();
                    if subset.is_empty() {
                        subset.push(n / 2);
                    }
                    let thr = (0..nt)
                        .map(|t| {
                            let sum: f64 = subset.iter().map(|&i| c[i][t]).sum();
                            let exact = match plant {
                                0 => true,
                                1 => false,
                                _ => at[t],
                            };
                            if exact {
                                sum
                            } else {
                                sum.next_down()
                            }
                        })
                        .collect();
                    (c, thr, subset, plant)
                },
            )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        #[test]
        fn pruned_scan_matches_the_plain_scan(
            (c, thr, subset, plant) in planted_case(),
            budget in 0usize..70_000,
            stop in 1usize..48,
        ) {
            let full = pruned_run(&c, &thr, usize::MAX, usize::MAX);
            proptest::prop_assert_eq!(&full, &plain_run(&c, &thr, usize::MAX, usize::MAX));
            let subsets = (1usize << c.len()) - 1;
            proptest::prop_assert_eq!(full.1.iter().sum::<usize>(), subsets);
            let planted = full.0.iter().any(|(_, idx, _)| *idx == subset);
            match plant {
                0 => proptest::prop_assert!(!planted, "a sum equal to every threshold qualified"),
                1 => proptest::prop_assert!(planted, "a sum one ulp above every threshold was skipped"),
                _ => {}
            }
            // Budgets and stops that end the run partway.
            let stop = if stop > 40 { usize::MAX } else { stop };
            proptest::prop_assert_eq!(
                pruned_run(&c, &thr, budget, stop),
                plain_run(&c, &thr, budget, stop)
            );
        }
    }
}
