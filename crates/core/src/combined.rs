//! Combined Add+Remove mode — the paper's future-work extension.
//!
//! Section 6.4 ("Out Of Scope Item") observes that some Why-Not questions
//! cannot be answered by additions alone or removals alone, and Section 7
//! proposes mixing past and future actions as future work. This module
//! implements that extension with the single modes' own algorithms; only
//! the candidate list `H` changes:
//!
//! 1. build both search spaces;
//! 2. merge their candidates into one descending-contribution list
//!    ([`SearchSpace::merge`]) — each candidate's action says whether it
//!    adds or removes an edge;
//! 3. run Algorithm 3 ([`incremental`]) over the merged list, CHECKing
//!    once the shared dominance threshold is crossed;
//! 4. or, with the `minimal` flag, Algorithm 4 ([`powerset`]) over the
//!    merged positive pool, to favour smaller explanations.
//!
//! The resulting [`Explanation`] has `mode == None` and can contain both
//! added and removed edges.

use crate::context::ExplainContext;
use crate::explainer::Explainer;
use crate::explanation::Explanation;
use crate::failure::{ExplainFailure, FailureReason};
use crate::incremental::incremental;
use crate::powerset::powerset;
use crate::search::{add_search_space, remove_search_space, SearchSpace};
use emigre_hin::GraphView;

/// Runs the combined mode. With `minimal = false` this is the fast
/// incremental variant; with `minimal = true` a powerset pass over the
/// merged pool favours smaller explanations.
pub fn combined<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    minimal: bool,
) -> Result<Explanation, ExplainFailure> {
    let space_span = ctx.obs.span("search_space");
    let remove_space = remove_search_space(ctx);
    let add_space = add_search_space(ctx);
    drop(space_span);

    let ranking_span = ctx.obs.span("candidate_ranking");
    let space = SearchSpace::merge(remove_space, add_space);
    drop(ranking_span);
    Explainer::trace_space(ctx, &space);

    let result = if minimal {
        powerset(ctx, &space)
    } else {
        incremental(ctx, &space)
    };
    // A combined-mode failure is never "out of scope for a single mode" —
    // both modes were explored.
    result.map_err(|failure| match failure.reason {
        FailureReason::OutOfScope { .. } => ExplainFailure {
            reason: FailureReason::BudgetExhausted {
                checks_performed: failure.checks_performed,
            },
            ..failure
        },
        _ => failure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use crate::tester::Tester;
    use emigre_hin::{Hin, NodeId};
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// A scenario solvable in both single modes — combined must also solve
    /// it.
    fn easy_fixture() -> (Hin, EmigreConfig, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let r1 = g.add_node(item_t, Some("r1"));
        let rec = g.add_node(item_t, Some("rec"));
        let wni = g.add_node(item_t, Some("wni"));
        let b = g.add_node(item_t, Some("b"));
        g.add_edge_bidirectional(u, r1, rated, 1.0).unwrap();
        g.add_edge_bidirectional(r1, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(r1, wni, rated, 0.5).unwrap();
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
    fn combined_solves_whatever_single_modes_solve() {
        let (g, cfg, u, wni) = easy_fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let exp = combined(&ctx, false).expect("solvable scenario");
        let tester = Tester::new(&ctx);
        assert!(tester.test(&exp.actions));
        assert_eq!(exp.mode, None);
    }

    #[test]
    fn minimal_variant_not_larger_than_fast_variant() {
        let (g, cfg, u, wni) = easy_fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let fast = combined(&ctx, false).unwrap();
        let min = combined(&ctx, true).unwrap();
        assert!(min.size() <= fast.size());
    }

    #[test]
    fn combined_not_worse_than_single_incremental() {
        let (g, cfg, u, wni) = easy_fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let single = incremental(&ctx, &crate::search::add_search_space(&ctx));
        let comb = combined(&ctx, false);
        if single.is_ok() {
            assert!(
                comb.is_ok(),
                "combined failed where add-incremental succeeded"
            );
        }
    }
}
