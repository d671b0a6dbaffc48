//! The Incremental heuristic (paper Algorithm 3).
//!
//! Optimised for *runtime*: walk the ranked candidate list `H` once,
//! accumulating the highest-contribution actions. While the running
//! threshold τ is still positive the current recommendation is predicted to
//! dominate and no CHECK is spent; once the accumulated contributions drive
//! τ to ≤ 0 the candidate set plausibly flips the ranking, and each further
//! accumulation step is CHECKed until one passes or `H` is exhausted.
//!
//! The produced explanation is a *prefix* of `H`, so it is rarely minimal —
//! the paper's Fig. 6 shows exactly this (Incremental's sizes exceed every
//! other method), which we reproduce.

use crate::context::ExplainContext;
use crate::explanation::{Action, Explanation, Mode};
use crate::failure::{classify_failure, ExplainFailure};
use crate::search::SearchSpace;
use crate::tester::{PreCheck, Tester};
use emigre_hin::GraphView;

/// Runs Algorithm 3 over a prepared search space (either mode, or the
/// combined extension's mixed list).
pub fn incremental<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    space: &SearchSpace,
) -> Result<Explanation, ExplainFailure> {
    let tester = Tester::new(ctx);
    let mut tau = space.tau;
    let slack = crate::search::tau_slack(space.tau);
    let mut actions: Vec<Action> = Vec::new();

    let _test_loop = ctx.obs.span("test_loop");
    // One pass over the ranked list accumulates the prefix chain; each
    // prefix whose running τ crossed into CHECK territory becomes one
    // candidate set for the (possibly parallel) CHECK scan below. The
    // prefixes are independent pure checks, so fanning them out and
    // consuming verdicts in rank order is exactly the sequential loop.
    let mut sets: Vec<Vec<Action>> = Vec::new();
    let mut crossings: Vec<(u64, f64)> = Vec::new();
    for (rank, cand) in space.candidates.iter().enumerate() {
        // Candidates are sorted descending; once contributions stop being
        // positive, no further candidate can close the gap (paper line 7's
        // pruning).
        if cand.contribution <= 0.0 {
            break;
        }
        actions.push(cand.action);
        tau -= cand.contribution;
        if tau <= slack {
            crossings.push((rank as u64, tau));
            sets.push(actions.clone());
        }
    }

    let mut budget_hit = false;
    let scan = tester.first_passing(&sets, |i| {
        // τ crossed into CHECK territory at this candidate rank.
        ctx.obs.trace_crossing(crossings[i].0, crossings[i].1);
        if tester.budget_exhausted() {
            budget_hit = true;
            PreCheck::Stop
        } else {
            PreCheck::Proceed
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
    use crate::failure::FailureReason;
    use crate::search::{add_search_space, remove_search_space};
    use emigre_hin::{Hin, NodeId};
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// One rated item feeds `rec` strongly, another feeds `wni` more
    /// weakly: removing the rec-supporter flips the recommendation, and
    /// unrated boosters make the Add mode solvable too.
    fn fixture() -> (Hin, EmigreConfig, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let r1 = g.add_node(item_t, Some("r1"));
        let r2 = g.add_node(item_t, Some("r2"));
        let rec = g.add_node(item_t, Some("rec"));
        let wni = g.add_node(item_t, Some("wni"));
        let b1 = g.add_node(item_t, Some("b1"));
        let b2 = g.add_node(item_t, Some("b2"));
        g.add_edge_bidirectional(u, r1, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, r2, rated, 1.0).unwrap();
        g.add_edge_bidirectional(r1, rec, rated, 3.0).unwrap();
        g.add_edge_bidirectional(r2, wni, rated, 0.8).unwrap();
        g.add_edge_bidirectional(b1, wni, rated, 1.0).unwrap();
        g.add_edge_bidirectional(b2, wni, rated, 1.0).unwrap();
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
    fn add_incremental_finds_explanation() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = add_search_space(&ctx);
        let exp = incremental(&ctx, &space).expect("add-mode explanation exists");
        assert_eq!(exp.mode, Some(Mode::Add));
        assert!(exp.size() >= 1);
        assert!(exp.actions.iter().all(|a| a.added));
        // Explanation is verified: replaying it must still pass the test.
        let tester = Tester::new(&ctx);
        assert!(tester.test(&exp.actions));
    }

    #[test]
    fn remove_incremental_finds_explanation() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let exp = incremental(&ctx, &space).expect("remove-mode explanation exists");
        assert_eq!(exp.mode, Some(Mode::Remove));
        assert!(exp.actions.iter().all(|a| !a.added));
        let tester = Tester::new(&ctx);
        assert!(tester.test(&exp.actions));
    }

    #[test]
    fn explanation_is_prefix_of_ranked_candidates() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let exp = incremental(&ctx, &space).unwrap();
        for (i, action) in exp.actions.iter().enumerate() {
            assert_eq!(*action, space.candidates[i].action);
        }
    }

    #[test]
    fn cold_start_user_fails_with_meta_explanation() {
        let (mut g, cfg, _, wni) = fixture();
        let user_t = g.registry().find_node_type("user").unwrap();
        let rated = g.registry().find_edge_type("rated").unwrap();
        let loner = g.add_node(user_t, Some("loner"));
        // One action so the user HAS a recommendation, but nothing to
        // remove that could flip anything.
        let r1 = NodeId(1);
        g.add_edge_bidirectional(loner, r1, rated, 1.0).unwrap();
        let ctx = ExplainContext::build(&g, cfg, loner, wni).unwrap();
        let space = remove_search_space(&ctx);
        let err = incremental(&ctx, &space).unwrap_err();
        assert!(matches!(
            err.reason,
            FailureReason::ColdStart {
                removable_actions: 1
            }
        ));
    }
}
