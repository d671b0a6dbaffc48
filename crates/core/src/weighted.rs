//! Weighted Why-Not explanations — the paper's §7 future work:
//!
//! > "an explanation could be *'You should have rated book A with 5 stars
//! > to get recommended book B'*".
//!
//! Instead of treating a suggested action as a fixed-weight edge, this
//! module searches for the **minimal rating** (edge weight) that makes the
//! Why-Not item the top recommendation. PPR is monotone in the weight of
//! an edge pointing into the Why-Not item's support — a heavier edge
//! routes strictly more of the user's walk mass through it — so a binary
//! search over the weight, verified by the CHECK at each probe, converges
//! to the threshold weight. A final CHECK guards against the rare
//! non-monotone interaction (e.g. the heavier edge also feeding a rival
//! through a shared hub).

use crate::context::ExplainContext;
use crate::explanation::{Action, Explanation, Mode};
use crate::failure::{classify_failure, ExplainFailure};
use crate::search::add_search_space;
use crate::tester::Tester;
use emigre_hin::GraphView;

/// Result of the weight search: the single suggested action with the
/// smallest sufficient weight found.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSuggestion {
    /// The suggested edge with its minimal sufficient weight.
    pub action: Action,
    /// The weight that was proven sufficient (upper end of the final
    /// bracket).
    pub sufficient_weight: f64,
    /// The largest probed weight proven *insufficient* (lower end), or
    /// `None` if even the minimum probed weight works.
    pub insufficient_weight: Option<f64>,
    pub checks_performed: usize,
}

impl WeightedSuggestion {
    /// Renders the suggestion as a star rating on a 1–5 scale, in the
    /// paper's phrasing, assuming `weight_range` maps to stars linearly.
    pub fn describe(&self, g: &emigre_hin::Hin, wni: emigre_hin::NodeId) -> String {
        format!(
            "You should have rated {} with at least {:.2} stars to get recommended {}.",
            g.display_name(self.action.edge.dst),
            self.sufficient_weight,
            g.display_name(wni)
        )
    }

    /// Converts into a standard single-action Add explanation.
    pub fn into_explanation(self, wni: emigre_hin::NodeId) -> Explanation {
        Explanation {
            mode: Some(Mode::Add),
            actions: vec![self.action],
            new_top: wni,
            checks_performed: self.checks_performed,
            verified: true,
        }
    }
}

/// Searches the Add-mode candidates for the single edge whose addition —
/// at the smallest weight within `weight_range` — promotes the Why-Not
/// item. Candidates are tried in contribution order; the first candidate
/// that works at `weight_range.1` is refined by binary search down to
/// `tolerance`.
pub fn minimal_weight_suggestion<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    weight_range: (f64, f64),
    tolerance: f64,
) -> Result<WeightedSuggestion, ExplainFailure> {
    assert!(
        weight_range.0 > 0.0 && weight_range.0 < weight_range.1,
        "weight range must be positive and non-empty"
    );
    assert!(tolerance > 0.0);
    let space = add_search_space(ctx);
    let tester = Tester::new(ctx);

    let action_at = |cand: &crate::search::Candidate, weight: f64| Action {
        weight,
        ..cand.action
    };

    for cand in space.candidates.iter().filter(|c| c.contribution > 0.0) {
        if tester.budget_exhausted() {
            break;
        }
        let (lo0, hi0) = weight_range;
        if !tester.test(&[action_at(cand, hi0)]) {
            continue; // even the maximal rating cannot promote the item
        }
        // The minimal rating might already work.
        if tester.test(&[action_at(cand, lo0)]) {
            return Ok(WeightedSuggestion {
                action: action_at(cand, lo0),
                sufficient_weight: lo0,
                insufficient_weight: None,
                checks_performed: tester.checks_performed(),
            });
        }
        // Bracketed: lo fails, hi works — shrink to tolerance.
        let (mut lo, mut hi) = (lo0, hi0);
        while hi - lo > tolerance {
            if tester.budget_exhausted() {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if tester.test(&[action_at(cand, mid)]) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // Guard against non-monotonicity: `hi` must still pass.
        if tester.test(&[action_at(cand, hi)]) {
            return Ok(WeightedSuggestion {
                action: action_at(cand, hi),
                sufficient_weight: hi,
                insufficient_weight: Some(lo),
                checks_performed: tester.checks_performed(),
            });
        }
    }

    Err(classify_failure(
        ctx,
        Mode::Add,
        space.removable_actions,
        tester.checks_performed(),
        tester.budget_exhausted(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use emigre_hin::{Hin, NodeId};
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// The bridge to `wni` needs real weight before it beats `rec`; a
    /// weight-1 edge is not enough.
    fn fixture() -> (Hin, EmigreConfig, NodeId, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let r1 = g.add_node(item_t, Some("r1"));
        let rec = g.add_node(item_t, Some("rec"));
        let wni = g.add_node(item_t, Some("wni"));
        let bridge = g.add_node(item_t, Some("bridge"));
        g.add_edge_bidirectional(u, r1, rated, 2.0).unwrap();
        g.add_edge_bidirectional(r1, rec, rated, 3.0).unwrap();
        g.add_edge_bidirectional(bridge, wni, rated, 3.0).unwrap();
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        (g, cfg, u, wni, bridge)
    }

    #[test]
    fn finds_minimal_sufficient_weight() {
        let (g, cfg, u, wni, bridge) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let s = minimal_weight_suggestion(&ctx, (0.5, 5.0), 0.05).expect("suggestion exists");
        assert_eq!(s.action.edge.dst, bridge);
        // The bracket is tight and ordered.
        if let Some(lo) = s.insufficient_weight {
            assert!(lo < s.sufficient_weight);
            assert!(s.sufficient_weight - lo <= 0.05 + 1e-12);
        }
        // The reported weight verifiably works; anything clearly below the
        // bracket does not.
        let tester = Tester::new(&ctx);
        assert!(tester.test(&[s.action]));
        if let Some(lo) = s.insufficient_weight {
            let weak = Action::add(s.action.edge, (lo * 0.5).max(0.01));
            assert!(!tester.test(&[weak]), "weight below bracket should fail");
        }
    }

    #[test]
    fn describe_reads_like_the_papers_future_work() {
        let (g, cfg, u, wni, _) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let s = minimal_weight_suggestion(&ctx, (0.5, 5.0), 0.1).unwrap();
        let text = s.describe(&g, wni);
        assert!(text.contains("You should have rated bridge"));
        assert!(text.contains("recommended wni"));
    }

    #[test]
    fn impossible_targets_fail_with_meta_explanation() {
        let (mut g, cfg, u, _, _) = fixture();
        let item_t = g.registry().find_node_type("item").unwrap();
        // An isolated item: no weight on any single new edge can place it
        // on top because... actually a direct edge is impossible (adding
        // (u, island) disqualifies it), and no other edge feeds it.
        let island = g.add_node(item_t, Some("island"));
        let ctx = ExplainContext::build(&g, cfg, u, island).unwrap();
        assert!(minimal_weight_suggestion(&ctx, (0.5, 5.0), 0.1).is_err());
    }

    #[test]
    #[should_panic(expected = "weight range")]
    fn rejects_bad_ranges() {
        let (g, cfg, u, wni, _) = fixture();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let _ = minimal_weight_suggestion(&ctx, (2.0, 1.0), 0.1);
    }
}
