//! Group and category Why-Not questions — the paper's §4 future work:
//!
//! > "Why-Not questions can be expressed in different granularities: one
//! > item, a set of items, or a category of items. In this paper, we
//! > consider only a single item … and leave the other classes as future
//! > work."
//!
//! A group question *"why is nothing from {X₁, …, Xₖ} recommended?"* is
//! satisfied by promoting **any** member of the group. This module answers
//! it by ranking the members by how close they already are (their current
//! PPR for the user) and running the single-item machinery on each until
//! one succeeds — the nearest member is the cheapest counterfactual, so
//! the greedy order doubles as a quality heuristic. Every member's context
//! shares one set of user artefacts (kernel, user push, recommendation
//! list) and the `PPR(·, rec)` column, like the batch loop's.

use crate::batch::user_artifacts;
use crate::context::{push_columns, ExplainContext};
use crate::explainer::{Explainer, Method};
use crate::explanation::Explanation;
use crate::failure::{ExplainFailure, FailureReason};
use crate::question::WhyNotQuestion;
use emigre_hin::{EdgeTypeId, GraphView, Hin, NodeId};
use emigre_obs::ObsHandle;
use emigre_ppr::PushWorkspace;
use std::sync::Arc;

/// Outcome of a group question: which member was promoted and how.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupExplanation {
    /// The group member that the explanation promotes to top-1.
    pub promoted: NodeId,
    pub explanation: Explanation,
    /// Members that were attempted and failed before `promoted` succeeded,
    /// in attempt order.
    pub failed_members: Vec<NodeId>,
}

/// Answers "why is no member of `group` the top recommendation?".
///
/// Members the user has already interacted with, or that equal the current
/// recommendation, are skipped (they are not valid Why-Not items). Returns
/// the first success in descending current-PPR order.
pub fn explain_any_of<G: GraphView>(
    explainer: &Explainer,
    g: &G,
    user: NodeId,
    group: &[NodeId],
    method: Method,
) -> Result<GroupExplanation, ExplainFailure> {
    let out_of_scope = |checks_performed| ExplainFailure {
        reason: FailureReason::OutOfScope {
            mode: method.mode().unwrap_or(crate::explanation::Mode::Add),
        },
        checks_performed,
    };
    let cfg = explainer.config();
    let obs = ObsHandle::disabled();
    let Ok(artifacts) = user_artifacts(g, cfg, user, &obs) else {
        return Err(out_of_scope(0)); // no recommendation to compete with
    };

    // Rank members by their current standing in the shared user push.
    let push = &artifacts.user_push;
    let mut members: Vec<NodeId> = group.to_vec();
    members.sort_by(|a, b| {
        push.estimates[b.index()]
            .partial_cmp(&push.estimates[a.index()])
            .expect("finite scores")
            .then(a.cmp(b))
    });
    members.dedup();

    let mut failed = Vec::new();
    let mut checks = 0usize;
    let one_column = |item: NodeId| {
        let mut pushed = push_columns(&artifacts.kernel, &cfg.rec.ppr, &[item], &obs);
        pushed.pop().expect("one column per item")
    };
    let ppr_to_rec = one_column(artifacts.rec);
    for wni in members {
        if WhyNotQuestion::validate(g, cfg, user, wni, Some(artifacts.rec)).is_err() {
            continue; // interacted / already recommended / not an item
        }
        let columns = [Arc::clone(&ppr_to_rec), one_column(wni)];
        let ws = PushWorkspace::new(g.num_nodes());
        let Ok(ctx) = ExplainContext::from_artifacts(
            g,
            cfg.clone(),
            &artifacts,
            wni,
            columns,
            ws,
            obs.clone(),
        ) else {
            continue; // validated above
        };
        match Explainer::explain_with_context(&ctx, method) {
            Ok(explanation) => {
                return Ok(GroupExplanation {
                    promoted: wni,
                    explanation,
                    failed_members: failed,
                })
            }
            Err(f) => {
                checks += f.checks_performed;
                failed.push(wni);
            }
        }
    }
    Err(out_of_scope(checks))
}

/// Collects the items of a category node (nodes of the configured item
/// type with a `belongs_to`-typed edge into `category`), then answers
/// "why is nothing from this category recommended?".
pub fn explain_category(
    explainer: &Explainer,
    g: &Hin,
    user: NodeId,
    category: NodeId,
    belongs_to: EdgeTypeId,
    method: Method,
) -> Result<GroupExplanation, ExplainFailure> {
    let item_type = explainer.config().rec.item_type;
    let members: Vec<NodeId> = g
        .in_edges(category)
        .iter()
        .filter(|e| e.etype == belongs_to && g.node_type(e.node) == item_type)
        .map(|e| e.node)
        .collect();
    explain_any_of(explainer, g, user, &members, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use emigre_hin::NodeTypeId;
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    struct Fixture {
        g: Hin,
        explainer: Explainer,
        user: NodeId,
        shelf: NodeId,
        near: NodeId,
        far: NodeId,
        seen: NodeId,
        belongs: EdgeTypeId,
    }

    /// A "shelf" category with two unseen members: `near` is promotable by
    /// one added edge; `far` is isolated from the user's reachable graph.
    fn fixture() -> Fixture {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let cat_t = g.registry_mut().node_type("category");
        let rated = g.registry_mut().edge_type("rated");
        let belongs = g.registry_mut().edge_type("belongs-to");
        let user = g.add_node(user_t, Some("u"));
        let seen = g.add_node(item_t, Some("seen"));
        let rec = g.add_node(item_t, Some("rec"));
        let near = g.add_node(item_t, Some("near"));
        let far = g.add_node(item_t, Some("far"));
        let bridge = g.add_node(item_t, Some("bridge"));
        let shelf = g.add_node(cat_t, Some("shelf"));
        g.add_edge_bidirectional(user, seen, rated, 1.0).unwrap();
        g.add_edge_bidirectional(seen, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(seen, near, rated, 0.5).unwrap();
        g.add_edge_bidirectional(bridge, near, rated, 2.0).unwrap();
        g.add_edge_bidirectional(near, shelf, belongs, 1.0).unwrap();
        g.add_edge_bidirectional(far, shelf, belongs, 1.0).unwrap();
        g.add_edge_bidirectional(seen, shelf, belongs, 1.0).unwrap();
        let _ = rec;
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let item_type: NodeTypeId = item_t;
        let cfg = EmigreConfig::new(RecConfig::new(item_type).with_ppr(ppr), rated)
            .with_edge_types(vec![rated]);
        Fixture {
            g,
            explainer: Explainer::new(cfg),
            user,
            shelf,
            near,
            far,
            seen,
            belongs,
        }
    }

    #[test]
    fn group_question_promotes_the_reachable_member() {
        let f = fixture();
        let res = explain_any_of(
            &f.explainer,
            &f.g,
            f.user,
            &[f.near, f.far],
            Method::AddPowerset,
        )
        .expect("near is promotable");
        assert_eq!(res.promoted, f.near);
        assert_eq!(res.explanation.new_top, f.near);
    }

    #[test]
    fn category_question_collects_shelf_members() {
        let f = fixture();
        let res = explain_category(
            &f.explainer,
            &f.g,
            f.user,
            f.shelf,
            f.belongs,
            Method::AddPowerset,
        )
        .expect("the shelf has a promotable member");
        assert_eq!(res.promoted, f.near);
    }

    #[test]
    fn interacted_members_are_skipped() {
        let f = fixture();
        // `seen` alone: already interacted, not a valid question.
        assert!(
            explain_any_of(&f.explainer, &f.g, f.user, &[f.seen], Method::AddPowerset).is_err()
        );
    }

    #[test]
    fn unpromotable_group_fails() {
        let f = fixture();
        assert!(explain_any_of(&f.explainer, &f.g, f.user, &[f.far], Method::AddPowerset).is_err());
    }

    #[test]
    fn empty_group_fails_cleanly() {
        let f = fixture();
        assert!(explain_any_of(&f.explainer, &f.g, f.user, &[], Method::AddPowerset).is_err());
    }
}
