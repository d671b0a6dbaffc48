//! Decision-level equivalence of the batched context path against
//! per-question builds.
//!
//! `batch_contexts` shares the user's forward push, the recommendation
//! list, the `PPR(·, rec)` column, and (since the candidate-index hoist)
//! the base `CandidateIndex` across all Why-Not items of one user. None of
//! that sharing may change any decision: for every WNI of a user's top-10
//! and every method, the batched context must produce exactly the same
//! explanation (same mode, same actions) or exactly the same failure as a
//! context built from scratch for that one question.
//!
//! The batch's contexts also share one map of item columns, so a whole
//! list's Exhaustive Comparison pushes each distinct item column once.

use emigre_core::batch::{batch_contexts, batch_contexts_with_obs, explain_whole_list};
use emigre_core::explainer::ExplainError;
use emigre_core::tester::score_floor;
use emigre_core::{EmigreConfig, ExplainContext, Explainer, Method};
use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_hin::NodeId;
use emigre_obs::ObsHandle;
use emigre_ppr::{ForwardPush, ReversePush, TransitionCsr};
use emigre_rec::{PprRecommender, RecList};

fn dataset(seed: u64) -> (AmazonHin, EmigreConfig) {
    let synth = SynthConfig {
        num_users: 12,
        num_items: 90,
        num_categories: 4,
        actions_per_user: (6, 14),
        ..SynthConfig::small()
    }
    .with_seed(seed);
    let data = SynthDataset::generate(synth);
    let pre = PreprocessConfig {
        sample_users: 4,
        user_activity_range: (3, 100),
        ..PreprocessConfig::default()
    };
    let hin = AmazonHin::build(&data.raw, &pre);
    let mut cfg = hin.emigre_config();
    // Loose push threshold: this test checks decision plumbing, not
    // approximation quality, and debug builds are slow.
    cfg.rec.ppr.epsilon = 1e-5;
    cfg.max_checks = 500;
    (hin, cfg)
}

/// The user's recommendation list, computed exactly as the batch path does.
fn top_list(hin: &AmazonHin, cfg: &EmigreConfig, user: NodeId) -> Vec<NodeId> {
    let kernel = TransitionCsr::build(&hin.graph, cfg.rec.ppr.transition);
    let push = ForwardPush::compute(&kernel, &cfg.rec.ppr, user);
    let floor = score_floor(cfg);
    let candidates = PprRecommender::new(cfg.rec)
        .candidates(&hin.graph, user)
        .into_iter()
        .filter(|n| push.estimates[n.index()] > floor);
    RecList::from_scores(&push.estimates, candidates, cfg.target_list_size).items()
}

#[test]
fn batched_and_individual_contexts_decide_identically() {
    let methods = [
        Method::AddIncremental,
        Method::RemoveIncremental,
        Method::RemovePowerset,
        Method::RemoveExhaustive,
        Method::AddExhaustive,
        Method::Combined,
    ];
    let mut compared = 0usize;
    for seed in [7u64, 21] {
        let (hin, cfg) = dataset(seed);
        for &user in hin.users.iter().take(2) {
            let list = top_list(&hin, &cfg, user);
            let wnis: Vec<NodeId> = list.into_iter().skip(1).collect();
            if wnis.is_empty() {
                continue;
            }
            let batched = batch_contexts(&hin.graph, &cfg, user, &wnis);
            for (res, &wni) in batched.iter().zip(&wnis) {
                let individual = ExplainContext::build(&hin.graph, cfg.clone(), user, wni);
                match (res, &individual) {
                    (Ok(b), Ok(i)) => {
                        assert_eq!(b.rec, i.rec, "shared rec differs for {user:?}/{wni:?}");
                        for method in methods {
                            let rb = Explainer::explain_with_context(b, method);
                            let ri = Explainer::explain_with_context(i, method);
                            match (rb, ri) {
                                (Ok(eb), Ok(ei)) => {
                                    assert_eq!(
                                        eb.mode, ei.mode,
                                        "mode differs: {method:?} {user:?}/{wni:?}"
                                    );
                                    assert_eq!(
                                        eb.actions, ei.actions,
                                        "actions differ: {method:?} {user:?}/{wni:?}"
                                    );
                                    assert_eq!(eb.verified, ei.verified);
                                }
                                (Err(fb), Err(fi)) => {
                                    assert_eq!(
                                        format!("{:?}", fb.reason),
                                        format!("{:?}", fi.reason),
                                        "failure differs: {method:?} {user:?}/{wni:?}"
                                    );
                                }
                                (rb, ri) => panic!(
                                    "outcome kind differs for {method:?} {user:?}/{wni:?}: \
                                     batched={rb:?} individual={ri:?}"
                                ),
                            }
                            compared += 1;
                        }
                    }
                    (Err(eb), Err(ei)) => {
                        assert_eq!(format!("{eb:?}"), format!("{ei:?}"));
                    }
                    _ => panic!("question validity differs for {user:?}/{wni:?}"),
                }
            }
        }
    }
    assert!(
        compared >= 20,
        "expected a substantive comparison set, got {compared}"
    );
}

#[test]
fn whole_list_exhaustive_matches_per_question_explains() {
    let mut compared = 0usize;
    for seed in [7u64, 21] {
        let (hin, cfg) = dataset(seed);
        let explainer = Explainer::new(cfg.clone());
        for &user in hin.users.iter().take(2) {
            for method in [Method::RemoveExhaustive, Method::AddExhaustive] {
                let Ok(list) = explain_whole_list(&explainer, &hin.graph, user, method) else {
                    continue;
                };
                for l in list {
                    let single = explainer.explain(&hin.graph, user, l.wni, method);
                    match (l.result, single) {
                        (Ok(eb), Ok(ei)) => {
                            assert_eq!(eb.mode, ei.mode, "{method:?} {user:?}/{:?}", l.wni);
                            assert_eq!(eb.actions, ei.actions, "{method:?} {user:?}/{:?}", l.wni);
                        }
                        (Err(fb), Err(ExplainError::NotFound(fi))) => {
                            assert_eq!(format!("{:?}", fb.reason), format!("{:?}", fi.reason));
                        }
                        (rb, ri) => panic!(
                            "outcome differs for {method:?} {user:?}/{:?}: batch={rb:?} single={ri:?}",
                            l.wni
                        ),
                    }
                    compared += 1;
                }
            }
        }
    }
    assert!(
        compared >= 20,
        "expected a substantive comparison set, got {compared}"
    );
}

#[test]
fn a_batch_pushes_each_item_column_once() {
    let (hin, cfg) = dataset(7);
    let kernel = TransitionCsr::build(&hin.graph, cfg.rec.ppr.transition);
    let mut batches = 0;
    for &user in hin.users.iter().take(2) {
        let list = top_list(&hin, &cfg, user);
        if list.len() < 3 {
            continue;
        }
        let wnis: Vec<NodeId> = list.iter().copied().skip(1).collect();
        let obs = ObsHandle::counters_only();
        let contexts = batch_contexts_with_obs(&hin.graph, &cfg, user, &wnis, obs.clone());
        for ctx in contexts.iter().flatten() {
            for method in [Method::RemoveExhaustive, Method::AddExhaustive] {
                let _ = Explainer::explain_with_context(ctx, method);
            }
        }
        // Every target Exhaustive Comparison reads is on the list, so the
        // batch pushes `rec`'s column and each Why-Not item's, once each.
        let expected: u64 = list
            .iter()
            .map(|&t| ReversePush::compute(&kernel, &cfg.rec.ppr, t).pushes as u64)
            .sum();
        assert_eq!(obs.counters().reverse_pushes, expected, "user {user:?}");
        batches += 1;
    }
    assert!(batches > 0, "no user had a list to batch");
}
