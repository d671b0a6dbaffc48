//! Scenario generation (§6.2).
//!
//! "We computed the top-10 recommendation list for each one of the 100
//! users … then, for each user, we computed the Why-Not explanation for
//! each one of the items in his/her recommendation list (except for the
//! first one)."

use emigre_core::context::target_list;
use emigre_core::EmigreConfig;
use emigre_hin::{GraphView, NodeId};
use emigre_ppr::{ForwardPush, TransitionCsr};
use emigre_rec::RecList;
use serde::{Deserialize, Serialize};

/// One `(user, Why-Not item)` experiment unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scenario {
    pub user: NodeId,
    pub wni: NodeId,
    /// The user's current top-1 recommendation.
    pub rec: NodeId,
    /// 1-based rank of the Why-Not item in the user's list (2..).
    pub wni_rank: usize,
}

/// Computes a user's recommendation list exactly as
/// [`emigre_core::ExplainContext`] does: the same kernel push, score floor
/// and ordering, so `list.top()` is the context's `rec`.
pub fn recommendation_list<G: GraphView>(g: &G, cfg: &EmigreConfig, user: NodeId) -> RecList {
    let kernel = TransitionCsr::build(g, cfg.rec.ppr.transition);
    list_over(g, cfg, &kernel, user)
}

fn list_over<G: GraphView>(
    g: &G,
    cfg: &EmigreConfig,
    kernel: &TransitionCsr,
    user: NodeId,
) -> RecList {
    let push = ForwardPush::compute(kernel, &cfg.rec.ppr, user);
    target_list(g, cfg, user, &push)
}

/// Generates up to `wni_per_user` scenarios per user: positions 2.. of the
/// user's top-10 list. Users whose list is shorter contribute fewer
/// scenarios; users with an empty list contribute none. Every scenario's
/// `rec` and `wni_rank` equal those of the context built for it.
pub fn generate_scenarios<G: GraphView>(
    g: &G,
    cfg: &EmigreConfig,
    users: &[NodeId],
    wni_per_user: usize,
) -> Vec<Scenario> {
    let kernel = TransitionCsr::build(g, cfg.rec.ppr.transition);
    let mut scenarios = Vec::new();
    for &user in users {
        let list = list_over(g, cfg, &kernel, user);
        let Some(rec) = list.top() else { continue };
        for (pos, &(item, _)) in list.entries().iter().enumerate().skip(1) {
            if pos > wni_per_user {
                break;
            }
            scenarios.push(Scenario {
                user,
                wni: item,
                rec,
                wni_rank: pos + 1,
            });
        }
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use emigre_data::examples::running_example;

    #[test]
    fn running_example_scenarios() {
        let ex = running_example();
        let scenarios = generate_scenarios(&ex.graph, &ex.config, &[ex.paul], 9);
        assert!(!scenarios.is_empty());
        for s in &scenarios {
            assert_eq!(s.user, ex.paul);
            assert_eq!(s.rec, ex.python);
            assert_ne!(s.wni, ex.python);
            assert!(s.wni_rank >= 2);
        }
        // Harry Potter is in Paul's list, so it appears as a scenario.
        assert!(scenarios.iter().any(|s| s.wni == ex.harry_potter));
    }

    #[test]
    fn wni_per_user_caps_scenarios() {
        let ex = running_example();
        let all = generate_scenarios(&ex.graph, &ex.config, &[ex.paul], 9);
        let capped = generate_scenarios(&ex.graph, &ex.config, &[ex.paul], 2);
        assert!(capped.len() <= 2);
        assert!(all.len() >= capped.len());
        assert_eq!(&all[..capped.len()], &capped[..]);
    }

    #[test]
    fn scenarios_are_valid_whynot_questions() {
        use emigre_core::Explainer;
        let ex = running_example();
        let explainer = Explainer::new(ex.config.clone());
        for s in generate_scenarios(&ex.graph, &ex.config, &[ex.paul], 9) {
            let ctx = explainer
                .context(&ex.graph, s.user, s.wni)
                .expect("generated scenario must be a valid question");
            assert_eq!(ctx.rec, s.rec);
        }
    }
}
