//! PRINCE-style *Why* explanations (paper §3.2, Definition 3.2, Fig. 2).
//!
//! PRINCE (Ghazimatin et al., WSDM 2020) answers the opposite question from
//! EMiGRe: *why was `rec` recommended?* Its counterfactual is a minimal set
//! of the user's own actions whose removal changes the top-1 to **any**
//! other item — the replacement is free, whereas a Why-Not explanation must
//! land exactly on the Why-Not item. The paper's Fig. 1a vs Fig. 2
//! comparison (same user, different answers: `{(2,11),(2,14)} → Harry
//! Potter` vs `{(2,14)} → The Alchemist`) is the motivating argument that
//! the two problems are genuinely different; this module reproduces the
//! PRINCE side of it.
//!
//! Implementation: for each replacement candidate `r*` in the user's
//! recommendation list, actions are ranked by their swap contribution
//! `W(u,n)·(PPR(n,rec) − PPR(n,r*))` and accumulated greedily until the
//! rec-over-r* gap is predicted to close (PRINCE's Theorem 1 shows this
//! greedy set is optimal per replacement item); the smallest verified set
//! over all replacements is returned. The replacements' `PPR(·, r*)`
//! columns come from one [`ExplainContext::columns`] call: the Why-Not
//! item's is the context's own, and the rest share one lane sweep (or the
//! caller's column source) and are counted like every other push.

use crate::context::ExplainContext;
use crate::explanation::{Action, Explanation, Mode};
use crate::failure::{classify_failure, ExplainFailure};
use crate::search::allowed_actions;
use crate::tester::Tester;
use emigre_hin::{GraphView, NodeId};

/// Result of a PRINCE run: the counterfactual set plus the replacement item
/// that takes over the top slot.
#[derive(Debug, Clone, PartialEq)]
pub struct WhyExplanation {
    /// Past actions whose removal changes the recommendation.
    pub actions: Vec<Action>,
    /// The item recommended instead (any item other than `rec`).
    pub replacement: NodeId,
    pub checks_performed: usize,
}

impl WhyExplanation {
    pub fn size(&self) -> usize {
        self.actions.len()
    }
}

/// Computes a minimal PRINCE counterfactual for the context's current
/// recommendation. Uses the same context as the Why-Not search (the
/// Why-Not item plays no role here beyond having built the context).
pub fn prince<G: GraphView>(ctx: &ExplainContext<'_, G>) -> Result<WhyExplanation, ExplainFailure> {
    let tester = Tester::new(ctx);
    // The user's removable actions, with their transition probabilities.
    let actions_pool = allowed_actions(ctx);
    let removable = actions_pool.len();

    // Candidate replacement items: the rest of the recommendation list.
    let replacements: Vec<NodeId> = ctx
        .rec_list
        .items()
        .into_iter()
        .filter(|&t| t != ctx.rec)
        .collect();

    let columns = ctx.columns(&replacements);

    let mut best: Option<WhyExplanation> = None;
    for ppr_to_r in columns {
        // Swap contributions towards replacing rec by r*; their sum is the
        // gap of rec over r* from the user's perspective.
        let swap: Vec<f64> = actions_pool
            .iter()
            .map(|&(a, p)| p * (ctx.ppr_n_rec(a.edge.dst) - ppr_to_r.estimate(a.edge.dst)))
            .collect();
        let gap: f64 = swap.iter().sum();
        let mut ranked: Vec<(usize, f64)> = swap.into_iter().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        let mut acc = 0.0;
        let mut chosen: Vec<Action> = Vec::new();
        for (i, contribution) in ranked {
            if contribution <= 0.0 {
                break;
            }
            chosen.push(actions_pool[i].0);
            acc += contribution;
            if acc >= gap {
                break;
            }
        }
        if chosen.is_empty() {
            continue;
        }
        // Prune early if this candidate set cannot beat the best found.
        if let Some(ref b) = best {
            if chosen.len() >= b.size() {
                continue;
            }
        }
        if tester.budget_exhausted() {
            break;
        }
        // Verify: the removal must change the top-1 to anything ≠ rec
        // (Definition 3.2's only requirement).
        if let Some(new_top) = tester.top1_after(&chosen) {
            if new_top != ctx.rec {
                let candidate = WhyExplanation {
                    actions: chosen,
                    replacement: new_top,
                    checks_performed: tester.checks_performed(),
                };
                let better = best.as_ref().is_none_or(|b| candidate.size() < b.size());
                if better {
                    best = Some(candidate);
                }
            }
        }
    }

    best.ok_or_else(|| {
        classify_failure(
            ctx,
            Mode::Remove,
            removable,
            tester.checks_performed(),
            false,
        )
    })
}

/// Adapts a PRINCE result into the Why-Not [`Explanation`] shape so that
/// the evaluation harness can compare the two on the same axes. `verified`
/// reflects whether the replacement equals the Why-Not item — usually it
/// does not, which is the point of the comparison.
pub fn as_whynot_explanation(why: &WhyExplanation, wni: NodeId) -> Explanation {
    Explanation {
        mode: Some(Mode::Remove),
        actions: why.actions.clone(),
        new_top: why.replacement,
        checks_performed: why.checks_performed,
        verified: why.replacement == wni,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use emigre_hin::Hin;
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// rec is supported by one strong action; removing it promotes a rival
    /// that is NOT the Why-Not item (the Fig. 1a vs Fig. 2 situation).
    fn fixture() -> (Hin, EmigreConfig, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let pivot = g.add_node(item_t, Some("pivot"));
        let side = g.add_node(item_t, Some("side"));
        let rec = g.add_node(item_t, Some("rec"));
        let rival = g.add_node(item_t, Some("rival"));
        let wni = g.add_node(item_t, Some("wni"));
        g.add_edge_bidirectional(u, pivot, rated, 2.0).unwrap();
        g.add_edge_bidirectional(u, side, rated, 1.0).unwrap();
        g.add_edge_bidirectional(pivot, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(side, rival, rated, 1.5).unwrap();
        g.add_edge_bidirectional(side, wni, rated, 0.5).unwrap();
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        (g, cfg, u, rec, rival, wni)
    }

    #[test]
    fn prince_changes_recommendation_to_some_other_item() {
        let (g, cfg, u, rec, _, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        assert_eq!(ctx.rec, rec);
        let why = prince(&ctx).expect("counterfactual exists");
        assert_ne!(why.replacement, rec);
        // Verify end-to-end.
        let tester = Tester::new(&ctx);
        assert_eq!(tester.top1_after(&why.actions), Some(why.replacement));
    }

    #[test]
    fn prince_answer_differs_from_whynot_answer() {
        // The heart of the paper's motivation: PRINCE's replacement is the
        // rival, not the Why-Not item.
        let (g, cfg, u, _, rival, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let why = prince(&ctx).unwrap();
        assert_eq!(why.replacement, rival);
        assert_ne!(why.replacement, wni);
        let adapted = as_whynot_explanation(&why, wni);
        assert!(!adapted.verified);
    }

    #[test]
    fn prince_counts_the_replacement_columns_it_pushes() {
        let (g, cfg, u, _, _, wni) = fixture();
        let obs = emigre_obs::ObsHandle::enabled();
        let ctx = ExplainContext::build_with_obs(&g, cfg, u, wni, obs.clone()).unwrap();
        let before = obs.counters().reverse_pushes;
        prince(&ctx).unwrap();
        // The Why-Not item's column is the context's own; every other
        // replacement's is pushed once and counted.
        let expected: usize = ctx
            .rec_list
            .items()
            .into_iter()
            .filter(|&t| t != ctx.rec && t != ctx.wni)
            .map(|t| emigre_ppr::ReversePush::compute(&*ctx.kernel, &ctx.cfg.rec.ppr, t).pushes)
            .sum();
        assert!(
            expected > 0,
            "the fixture has a replacement besides the Why-Not item"
        );
        assert_eq!(obs.counters().reverse_pushes - before, expected as u64);
    }

    #[test]
    fn prince_set_is_minimal_on_fixture() {
        let (g, cfg, u, _, _, wni) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let why = prince(&ctx).unwrap();
        assert_eq!(why.size(), 1, "removing the pivot action suffices");
    }
}
