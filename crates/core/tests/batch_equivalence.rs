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

use emigre_core::batch::batch_contexts;
use emigre_core::tester::score_floor;
use emigre_core::{EmigreConfig, ExplainContext, Explainer, Method};
use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_hin::NodeId;
use emigre_ppr::{ForwardPush, TransitionCsr};
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
