//! Brute-force baseline (paper §6.2).
//!
//! Enumerates *every* subset of the user's removable actions in ascending
//! size and CHECKs each until one makes the Why-Not item top-1. Because it
//! explores the complete Remove-mode solution space it is guaranteed to
//! find a **minimal** explanation whenever one exists, which makes it the
//! reference point for both the success-rate (Fig. 5) and explanation-size
//! (Fig. 6) comparisons. The paper runs it in Remove mode only — the
//! Add-mode space (all non-existing user-item edges) is prohibitively
//! large — and so do we.

use crate::combinations::{binomial, Combinations};
use crate::context::ExplainContext;
use crate::explanation::{Action, Explanation, Mode};
use crate::failure::{classify_failure, ExplainFailure};
use crate::search::{subset_actions, SearchSpace};
use crate::tester::{PreCheck, Tester};
use emigre_hin::GraphView;

/// Exhausts all removal subsets ascending by size. The candidate ordering
/// within a size follows the search space's contribution ranking, which
/// does not affect completeness, only which of several equal-size
/// solutions is found first.
pub fn brute_force<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    space: &SearchSpace,
) -> Result<Explanation, ExplainFailure> {
    assert_eq!(
        space.mode,
        Some(Mode::Remove),
        "brute force is defined for Remove mode (paper §6.2)"
    );
    let tester = Tester::new(ctx);
    let capped = space.candidates.len() > ctx.cfg.max_subset_candidates;
    let pool = &space.candidates[..space.candidates.len().min(ctx.cfg.max_subset_candidates)];

    let mut enumerated: usize = 0;
    let mut budget_hit = capped;
    let mut result = None;
    let _test_loop = ctx.obs.span("test_loop");
    for size in 1..=pool.len() {
        if enumerated.saturating_add(binomial(pool.len(), size)) > ctx.cfg.max_enumerated_subsets {
            budget_hit = true;
            break;
        }
        // Every subset of this size, in index order: independent pure
        // CHECKs, so the (possibly parallel) in-order scan is exactly the
        // sequential per-subset loop.
        let mut sets: Vec<Vec<Action>> = Combinations::new(pool.len(), size)
            .map(|idx| subset_actions(pool, &idx))
            .collect();
        let scan = tester.first_passing(&sets, |_| {
            if tester.budget_exhausted() {
                PreCheck::Stop
            } else {
                PreCheck::Proceed
            }
        });
        // `SubsetsEnumerated` counts up to and including the subset where
        // the scan stopped, as the sequential loop would have.
        if let Some(i) = scan.found {
            enumerated += i + 1;
            result = Some(sets.swap_remove(i));
            break;
        }
        if let Some(i) = scan.stopped {
            enumerated += i + 1;
            budget_hit = true;
            break;
        }
        enumerated += sets.len();
        if capped {
            break; // a capped pool is searched at size 1 only
        }
    }
    ctx.obs
        .count(emigre_obs::Op::SubsetsEnumerated, enumerated as u64);

    match result {
        Some(actions) => Ok(Explanation {
            mode: Some(Mode::Remove),
            actions,
            new_top: ctx.wni,
            checks_performed: tester.checks_performed(),
            verified: true,
        }),
        None => Err(classify_failure(
            ctx,
            Mode::Remove,
            space.removable_actions,
            tester.checks_performed(),
            budget_hit,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use crate::powerset::powerset;
    use crate::search::remove_search_space;
    use emigre_hin::{Hin, NodeId};
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

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
    fn brute_force_finds_minimal_explanation() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let exp = brute_force(&ctx, &space).expect("solution exists");
        // Minimality: no strictly smaller subset may pass the test.
        let tester = Tester::new(&ctx);
        assert!(tester.test(&exp.actions));
        for size in 1..exp.size() {
            for idx in crate::combinations::Combinations::new(space.candidates.len(), size) {
                let actions = subset_actions(&space.candidates, &idx);
                assert!(
                    !tester.test(&actions),
                    "smaller subset {idx:?} also works — brute force not minimal"
                );
            }
        }
    }

    #[test]
    fn powerset_at_most_brute_force_size_plus_pruning() {
        // On this fixture all solutions involve positive-contribution
        // edges, so powerset must match the brute-force minimum exactly.
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let bf = brute_force(&ctx, &space).unwrap();
        let ps = powerset(&ctx, &space).unwrap();
        assert_eq!(ps.size(), bf.size());
    }

    #[test]
    #[should_panic(expected = "Remove mode")]
    fn add_mode_rejected() {
        let (g, cfg, u, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = crate::search::add_search_space(&ctx);
        let _ = brute_force(&ctx, &space);
    }

    #[test]
    fn check_budget_respected() {
        let (g, mut cfg, u, wni) = fixture();
        cfg.max_checks = 1;
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        match brute_force(&ctx, &space) {
            Ok(exp) => assert!(exp.checks_performed <= 1),
            Err(err) => assert!(err.checks_performed <= 1),
        }
    }
}
