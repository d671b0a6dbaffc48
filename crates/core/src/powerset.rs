//! The Powerset heuristic (paper Algorithm 4).
//!
//! Optimised for *explanation size*: prune the non-positive contributions
//! from `H`, then enumerate the remaining subsets in ascending size —
//! within a size, in descending combined contribution — CHECKing every
//! subset whose combined contribution closes the dominance gap. The first
//! success is returned, so the result is the smallest subset (of the pruned
//! pool) that verifiably works.

use crate::combinations::{binomial, Combinations};
use crate::context::ExplainContext;
use crate::explanation::{Action, Explanation, Mode};
use crate::failure::{classify_failure, ExplainFailure};
use crate::search::{subset_actions, SearchSpace};
use crate::tester::Tester;
use emigre_hin::GraphView;

/// Runs Algorithm 4 over a prepared search space (either mode, or the
/// combined extension's mixed list).
pub fn powerset<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    space: &SearchSpace,
) -> Result<Explanation, ExplainFailure> {
    let tester = Tester::new(ctx);
    // Line 3–7: prune candidates that do not favour WNI — a prefix, since
    // the list is sorted by descending contribution.
    let positive = space.candidates.partition_point(|c| c.contribution > 0.0);
    // Guard the 2^|H| blow-up: keep the highest contributions. Dropped
    // candidates are reflected in the failure bookkeeping via `budget_hit`.
    let capped = positive > ctx.cfg.max_subset_candidates;
    let pool = &space.candidates[..positive.min(ctx.cfg.max_subset_candidates)];

    let mut enumerated: usize = 0;
    let mut budget_hit = capped;

    let _test_loop = ctx.obs.span("test_loop");
    'sizes: for size in 1..=pool.len() {
        // Within a size, order subsets by descending combined contribution
        // (paper line 10). Materialising one size at a time keeps memory at
        // O(C(|H|, size)) and the cap bounds the total.
        if enumerated.saturating_add(binomial(pool.len(), size)) > ctx.cfg.max_enumerated_subsets {
            budget_hit = true;
            break;
        }
        let mut combos: Vec<(Vec<usize>, f64)> = Combinations::new(pool.len(), size)
            .map(|idx| {
                let sum = idx.iter().map(|&i| pool[i].contribution).sum();
                (idx, sum)
            })
            .collect();
        enumerated += combos.len();
        ctx.obs
            .count(emigre_obs::Op::SubsetsEnumerated, combos.len() as u64);
        combos.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("contributions are finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        // Line 24: only subsets whose combined contribution closes the gap
        // are worth a CHECK. Sorted descending by sum, the qualifying
        // subsets are a prefix of this size's list; they are independent
        // pure checks, so the (possibly parallel) in-order scan below is
        // exactly the sequential per-combo loop.
        let slack = crate::search::tau_slack(space.tau);
        let mut sets: Vec<Vec<Action>> = Vec::new();
        let mut margins: Vec<f64> = Vec::new();
        for (idx, sum) in combos {
            if space.tau - sum > slack {
                break; // the rest of this size cannot close the gap either
            }
            margins.push(space.tau - sum);
            sets.push(subset_actions(pool, &idx));
        }
        let scan = tester.first_passing(&sets, |i| {
            if tester.budget_exhausted() {
                budget_hit = true;
                crate::tester::PreCheck::Stop
            } else {
                // This subset's combined contribution crossed τ: a CHECK
                // fires.
                ctx.obs.trace_crossing(enumerated as u64, margins[i]);
                crate::tester::PreCheck::Proceed
            }
        });
        if let Some(i) = scan.found {
            return Ok(Explanation {
                mode: space.mode,
                actions: sets.swap_remove(i),
                new_top: ctx.wni,
                checks_performed: tester.checks_performed(),
                verified: true,
            });
        }
        if scan.stopped.is_some() {
            break 'sizes;
        }
    }

    // A mixed list is diagnosed like Remove mode, whose τ and action count
    // it carries.
    Err(classify_failure(
        ctx,
        space.mode.unwrap_or(Mode::Remove),
        space.removable_actions,
        tester.checks_performed(),
        budget_hit,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use crate::incremental::incremental;
    use crate::search::{add_search_space, remove_search_space};
    use emigre_hin::{Hin, NodeId};
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// Rich fixture where several removals are needed: three rated items
    /// feed `rec`, and `wni` needs at least two of them gone.
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
        let wni = g.add_node(item_t, Some("wni"));
        let b = g.add_node(item_t, Some("b"));
        g.add_edge_bidirectional(u, r1, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, r2, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, r3, rated, 1.0).unwrap();
        g.add_edge_bidirectional(r1, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(r2, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(r3, wni, rated, 1.0).unwrap();
        g.add_edge_bidirectional(b, wni, rated, 2.0).unwrap();
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
    fn powerset_remove_finds_verified_explanation() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let exp = powerset(&ctx, &space).expect("explanation exists");
        let tester = Tester::new(&ctx);
        assert!(tester.test(&exp.actions));
    }

    #[test]
    fn powerset_never_larger_than_incremental() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        for space in [remove_search_space(&ctx), add_search_space(&ctx)] {
            let p = powerset(&ctx, &space);
            let i = incremental(&ctx, &space);
            if let (Ok(p), Ok(i)) = (p, i) {
                assert!(
                    p.size() <= i.size(),
                    "powerset {} vs incremental {} in {:?} mode",
                    p.size(),
                    i.size(),
                    space.mode
                );
            }
        }
    }

    #[test]
    fn powerset_add_prefers_single_edge() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = add_search_space(&ctx);
        if let Ok(exp) = powerset(&ctx, &space) {
            // The strong unrated supporter `b` makes a 1-edge explanation
            // plausible; powerset must find a minimal one if any size-1
            // subset passes.
            let tester = Tester::new(&ctx);
            let single_works = space
                .candidates
                .iter()
                .any(|c| c.contribution > 0.0 && tester.test(&[c.action]));
            if single_works {
                assert_eq!(exp.size(), 1);
            }
        }
    }

    #[test]
    fn subset_cap_reports_budget() {
        let (g, mut cfg, u, wni) = fixture();
        cfg.max_enumerated_subsets = 0; // force immediate budget stop
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let err = powerset(&ctx, &space).unwrap_err();
        assert!(matches!(
            err.reason,
            crate::failure::FailureReason::BudgetExhausted { .. }
        ));
    }
}
