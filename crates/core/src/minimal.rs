//! Explanation minimisation and minimality checking.
//!
//! The paper prizes small explanations ("the shorter the explanation, the
//! better", §6.2) but only brute force guarantees minimality — Incremental
//! in particular returns whole prefixes of the candidate list (Fig. 6).
//! This module closes the gap as a post-processing step:
//!
//! * [`shrink`] — greedily drops actions from a verified explanation while
//!   it keeps passing the CHECK, yielding a **1-minimal** explanation (no
//!   single action can be removed — not necessarily globally minimum);
//! * [`is_minimal`] — exhaustively certifies global minimality by testing
//!   every proper subset (exponential; intended for small explanations and
//!   for tests).

use crate::context::ExplainContext;
use crate::explanation::{Action, Explanation};
use crate::tester::Tester;
use emigre_hin::GraphView;

/// Greedy 1-minimisation: repeatedly try to drop one action (in reverse
/// contribution order — the last-added, least-contributing actions go
/// first) while the reduced set still passes the CHECK.
///
/// Returns the explanation unchanged if it is not verified, empty, or
/// already 1-minimal. Each drop attempt costs one CHECK; the worst case is
/// `O(size²)` CHECKs.
pub fn shrink<G: GraphView>(ctx: &ExplainContext<'_, G>, explanation: &Explanation) -> Explanation {
    if !explanation.verified || explanation.size() <= 1 {
        return explanation.clone();
    }
    let tester = Tester::new(ctx);
    let mut actions: Vec<Action> = explanation.actions.clone();
    loop {
        let mut dropped = false;
        // Try dropping from the back first: heuristics append actions in
        // descending contribution order, so later entries are the most
        // likely to be redundant.
        for i in (0..actions.len()).rev() {
            if actions.len() == 1 {
                break;
            }
            if tester.budget_exhausted() {
                break;
            }
            let mut candidate = actions.clone();
            candidate.remove(i);
            if tester.test(&candidate) {
                actions = candidate;
                dropped = true;
                break; // restart the scan over the reduced set
            }
        }
        if !dropped {
            break;
        }
    }
    Explanation {
        mode: explanation.mode,
        actions,
        new_top: explanation.new_top,
        checks_performed: explanation.checks_performed + tester.checks_performed(),
        verified: true,
    }
}

/// Certifies global minimality: no *proper subset* of the actions passes
/// the CHECK. Exponential in the explanation size — guard with
/// `explanation.size()` before calling on anything large.
pub fn is_minimal<G: GraphView>(ctx: &ExplainContext<'_, G>, explanation: &Explanation) -> bool {
    let n = explanation.actions.len();
    if n <= 1 {
        return true;
    }
    let tester = Tester::new(ctx);
    for size in 1..n {
        for idx in crate::combinations::Combinations::new(n, size) {
            let subset: Vec<Action> = idx.iter().map(|&i| explanation.actions[i]).collect();
            if tester.test(&subset) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use crate::explainer::{Explainer, Method};
    use emigre_hin::{Hin, NodeId};
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// A fixture where Incremental over-shoots: one strong booster alone
    /// suffices, but the greedy prefix picks up extra edges first.
    fn fixture() -> (Hin, EmigreConfig, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let r1 = g.add_node(item_t, Some("r1"));
        let rec = g.add_node(item_t, Some("rec"));
        let wni = g.add_node(item_t, Some("wni"));
        let strong = g.add_node(item_t, Some("strong"));
        let weak1 = g.add_node(item_t, Some("weak1"));
        let weak2 = g.add_node(item_t, Some("weak2"));
        g.add_edge_bidirectional(u, r1, rated, 1.0).unwrap();
        g.add_edge_bidirectional(r1, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(strong, wni, rated, 4.0).unwrap();
        g.add_edge_bidirectional(weak1, wni, rated, 0.3).unwrap();
        g.add_edge_bidirectional(weak2, wni, rated, 0.3).unwrap();
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
    fn shrink_never_grows_and_stays_correct() {
        let (g, cfg, u, wni) = fixture();
        let explainer = Explainer::new(cfg.clone());
        let ctx = explainer.context(&g, u, wni).unwrap();
        for method in [Method::AddIncremental, Method::AddPowerset] {
            if let Ok(exp) = Explainer::explain_with_context(&ctx, method) {
                let small = shrink(&ctx, &exp);
                assert!(small.size() <= exp.size(), "{method} grew under shrink");
                assert!(small.verified);
                let tester = Tester::new(&ctx);
                assert!(
                    tester.test(&small.actions),
                    "{method} shrink broke the explanation"
                );
            }
        }
    }

    #[test]
    fn shrunk_explanations_are_one_minimal() {
        let (g, cfg, u, wni) = fixture();
        let explainer = Explainer::new(cfg.clone());
        let ctx = explainer.context(&g, u, wni).unwrap();
        let exp = Explainer::explain_with_context(&ctx, Method::AddIncremental)
            .expect("add solution exists");
        let small = shrink(&ctx, &exp);
        // Dropping any single remaining action must break it.
        let tester = Tester::new(&ctx);
        if small.size() > 1 {
            for i in 0..small.size() {
                let mut reduced = small.actions.clone();
                reduced.remove(i);
                assert!(!tester.test(&reduced), "not 1-minimal at index {i}");
            }
        }
    }

    #[test]
    fn is_minimal_agrees_with_brute_force_result() {
        let (g, cfg, u, wni) = fixture();
        let explainer = Explainer::new(cfg.clone());
        let ctx = explainer.context(&g, u, wni).unwrap();
        // Brute force returns a globally minimal explanation when it
        // succeeds; is_minimal must certify it.
        if let Ok(bf) = Explainer::explain_with_context(&ctx, Method::RemoveBruteForce) {
            assert!(is_minimal(&ctx, &bf));
        }
        // An explanation padded with a redundant action is not minimal.
        let exp = Explainer::explain_with_context(&ctx, Method::AddPowerset).unwrap();
        if exp.size() == 1 {
            let tester = Tester::new(&ctx);
            // Find a second addable action that keeps the test passing.
            let space = crate::search::add_search_space(&ctx);
            for cand in &space.candidates {
                let extra = cand.action;
                if extra.edge != exp.actions[0].edge {
                    let padded_actions = vec![exp.actions[0], extra];
                    if tester.test(&padded_actions) {
                        let padded = Explanation {
                            actions: padded_actions,
                            ..exp.clone()
                        };
                        assert!(!is_minimal(&ctx, &padded));
                        return;
                    }
                }
            }
        }
    }

    #[test]
    fn unverified_and_tiny_explanations_pass_through() {
        let (g, cfg, u, wni) = fixture();
        let explainer = Explainer::new(cfg.clone());
        let ctx = explainer.context(&g, u, wni).unwrap();
        let exp = Explainer::explain_with_context(&ctx, Method::AddPowerset).unwrap();
        if exp.size() == 1 {
            assert_eq!(shrink(&ctx, &exp).actions, exp.actions);
            assert!(is_minimal(&ctx, &exp));
        }
        let mut unverified = exp.clone();
        unverified.verified = false;
        assert_eq!(shrink(&ctx, &unverified).actions, unverified.actions);
    }
}
