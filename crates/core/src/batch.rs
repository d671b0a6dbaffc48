//! Batch explanation of a whole recommendation list.
//!
//! The paper's experiment (§6.2) asks a Why-Not question for *every* item
//! of a user's top-10 list except the first — nine questions that share
//! the user's forward-push state, the recommendation list, and the
//! `PPR(·, rec)` column, and differ only in the `PPR(·, WNI)` column.
//! [`batch_contexts`] computes the shared artefacts once, cutting the
//! per-question setup from three push runs to one. Its contexts also share
//! one map of item columns: `rec`'s column, a Why-Not item's column and
//! every target column Exhaustive Comparison reads are pushed once per
//! batch, so a 10-item list pushes at most 10 item columns instead of up
//! to 81. `rec`'s and the valid Why-Not items' columns are pushed
//! together, by one multi-target reverse push, so every later target
//! lookup of a whole-list batch hits the map.

use crate::config::EmigreConfig;
use crate::context::{push_columns, ExplainContext, UserArtifacts};
use crate::explainer::{Explainer, Method};
use crate::explanation::Explanation;
use crate::failure::ExplainFailure;
use crate::question::{QuestionError, WhyNotQuestion};
use emigre_hin::{GraphView, NodeId};
use emigre_obs::ObsHandle;
use emigre_ppr::{PushWorkspace, ReversePush, TransitionCsr};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Builds contexts for several Why-Not items of the same user, sharing the
/// user push, recommendation list and `PPR(·, rec)` column across them.
///
/// Returns one entry per requested item, in order: a built context or the
/// question-validation error for that item.
pub fn batch_contexts<'g, G: GraphView>(
    graph: &'g G,
    cfg: &EmigreConfig,
    user: NodeId,
    wnis: &[NodeId],
) -> Vec<Result<ExplainContext<'g, G>, QuestionError>> {
    batch_contexts_with_obs(graph, cfg, user, wnis, ObsHandle::disabled())
}

/// [`batch_contexts`] with an explicit observability handle. The handle is
/// shared by every produced context, so counters aggregate across the whole
/// batch; the shared user push and every item column are counted once,
/// not once per question.
pub fn batch_contexts_with_obs<'g, G: GraphView>(
    graph: &'g G,
    cfg: &EmigreConfig,
    user: NodeId,
    wnis: &[NodeId],
    obs: ObsHandle,
) -> Vec<Result<ExplainContext<'g, G>, QuestionError>> {
    match user_artifacts(graph, cfg, user, &obs) {
        Ok(artifacts) => contexts_from(graph, cfg, &artifacts, wnis, &obs),
        Err(e) => wnis.iter().map(|_| Err(e)).collect(),
    }
}

/// The user-shared half of a context build — kernel, user push,
/// recommendation list — exactly as [`ExplainContext::build`] computes it.
pub(crate) fn user_artifacts<G: GraphView>(
    graph: &G,
    cfg: &EmigreConfig,
    user: NodeId,
    obs: &ObsHandle,
) -> Result<UserArtifacts, QuestionError> {
    cfg.validate();
    let _span = obs.span("batch_setup");
    let kernel = Arc::new(TransitionCsr::build(graph, cfg.rec.ppr.transition));
    UserArtifacts::build(graph, cfg, kernel, user, obs)
}

fn contexts_from<'g, G: GraphView>(
    graph: &'g G,
    cfg: &EmigreConfig,
    artifacts: &UserArtifacts,
    wnis: &[NodeId],
    obs: &ObsHandle,
) -> Vec<Result<ExplainContext<'g, G>, QuestionError>> {
    // The batch's item columns, each pushed once: `rec`'s and the valid
    // Why-Not items' together below, any other target when a search first
    // asks for it.
    let pushed: RefCell<HashMap<NodeId, Arc<ReversePush>>> = RefCell::default();
    let (kernel, ppr, column_obs) = (Arc::clone(&artifacts.kernel), cfg.rec.ppr, obs.clone());
    let columns = Rc::new(move |items: &[NodeId]| {
        let mut missing: Vec<NodeId> = Vec::new();
        for &t in items {
            if !pushed.borrow().contains_key(&t) && !missing.contains(&t) {
                missing.push(t);
            }
        }
        let fresh = push_columns(&kernel, &ppr, &missing, &column_obs);
        let mut pushed = pushed.borrow_mut();
        pushed.extend(missing.into_iter().zip(fresh));
        items
            .iter()
            .map(|t| Arc::clone(&pushed[t]))
            .collect::<Vec<_>>()
    });
    // A malformed question fails before paying for its column.
    let checked: Vec<Result<NodeId, QuestionError>> = wnis
        .iter()
        .map(|&wni| {
            WhyNotQuestion::validate(graph, cfg, artifacts.user, wni, Some(artifacts.rec))
                .map(|_| wni)
        })
        .collect();
    {
        let _span = obs.span("context_build");
        let asked: Vec<NodeId> = std::iter::once(artifacts.rec)
            .chain(checked.iter().filter_map(|c| c.as_ref().ok().copied()))
            .collect();
        columns(&asked);
    }
    checked
        .into_iter()
        .map(|checked| {
            let wni = checked?;
            let _span = obs.span("context_build");
            let ws = PushWorkspace::new(graph.num_nodes());
            let pair = columns(&[artifacts.rec, wni]).try_into();
            let ctx = ExplainContext::from_artifacts(
                graph,
                cfg.clone(),
                artifacts,
                wni,
                pair.expect("one column per item"),
                ws,
                obs.clone(),
            )?;
            let columns = Rc::clone(&columns);
            Ok(ctx.with_column_source(move |items| columns(items)))
        })
        .collect()
}

/// One list item's batch outcome.
#[derive(Debug, Clone)]
pub struct ListExplanation {
    pub wni: NodeId,
    /// 1-based rank in the user's list.
    pub rank: usize,
    pub result: Result<Explanation, ExplainFailure>,
}

/// Runs `method` for every item of the user's recommendation list except
/// the top one — the paper's §6.2 inner loop as a library call.
pub fn explain_whole_list<G: GraphView>(
    explainer: &Explainer,
    graph: &G,
    user: NodeId,
    method: Method,
) -> Result<Vec<ListExplanation>, QuestionError> {
    // The list comes from the same artefacts the contexts share, so every
    // context's `rec_list` is exactly the list being explained.
    let cfg = explainer.config();
    let obs = ObsHandle::disabled();
    let artifacts = user_artifacts(graph, cfg, user, &obs)?;
    let wnis: Vec<NodeId> = artifacts.rec_list.items().into_iter().skip(1).collect();
    let contexts = contexts_from(graph, cfg, &artifacts, &wnis, &obs);
    Ok(contexts
        .into_iter()
        .zip(wnis)
        .enumerate()
        .map(|(idx, (ctx, wni))| ListExplanation {
            wni,
            rank: idx + 2,
            result: match ctx {
                Ok(ctx) => Explainer::explain_with_context(&ctx, method),
                Err(_) => Err(ExplainFailure {
                    reason: crate::failure::FailureReason::OutOfScope {
                        mode: method.mode().unwrap_or(crate::explanation::Mode::Add),
                    },
                    checks_performed: 0,
                }),
            },
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emigre_hin::Hin;
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    fn fixture() -> (Hin, EmigreConfig, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let r1 = g.add_node(item_t, None);
        let items: Vec<NodeId> = (0..5).map(|_| g.add_node(item_t, None)).collect();
        g.add_edge_bidirectional(u, r1, rated, 1.0).unwrap();
        for (k, &i) in items.iter().enumerate() {
            g.add_edge_bidirectional(r1, i, rated, 1.0 + k as f64 * 0.3)
                .unwrap();
        }
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        (g, cfg, u)
    }

    #[test]
    fn batch_contexts_match_individual_builds() {
        let (g, cfg, u) = fixture();
        // Take two valid WNIs from the user's list.
        let list = crate::batch::explain_whole_list(
            &Explainer::new(cfg.clone()),
            &g,
            u,
            Method::AddIncremental,
        )
        .unwrap();
        assert!(!list.is_empty());
        let wnis: Vec<NodeId> = list.iter().map(|l| l.wni).take(2).collect();
        let batched = batch_contexts(&g, &cfg, u, &wnis);
        for (res, &wni) in batched.iter().zip(&wnis) {
            let individual = ExplainContext::build(&g, cfg.clone(), u, wni).unwrap();
            let batched_ctx = res.as_ref().expect("valid question");
            assert_eq!(batched_ctx.rec, individual.rec);
            assert_eq!(batched_ctx.rec_list, individual.rec_list);
            for n in 0..g.num_nodes() {
                assert!(
                    (batched_ctx.ppr_to_wni.estimates[n] - individual.ppr_to_wni.estimates[n])
                        .abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn invalid_members_reported_individually() {
        let (g, cfg, u) = fixture();
        let interacted = NodeId(1); // r1 — rated by u
        let batched = batch_contexts(&g, &cfg, u, &[interacted]);
        assert!(matches!(
            batched[0],
            Err(QuestionError::AlreadyInteracted(_))
        ));
    }

    #[test]
    fn whole_list_covers_ranks_two_onwards() {
        let (g, cfg, u) = fixture();
        let out = explain_whole_list(&Explainer::new(cfg.clone()), &g, u, Method::AddIncremental)
            .unwrap();
        assert!(!out.is_empty());
        for (i, l) in out.iter().enumerate() {
            assert_eq!(l.rank, i + 2);
            // The explained list is the one every context computes.
            let ctx = ExplainContext::build(&g, cfg.clone(), u, l.wni).unwrap();
            assert_eq!(ctx.rec_list.rank_of(l.wni), Some(l.rank));
        }
    }
}
