//! # emigre-core — Why-Not counterfactual explanations (EMiGRe)
//!
//! This crate implements the contribution of *"Why-Not Explainable Graph
//! Recommender"* (Attolou, Tzompanaki, Stefanidis, Kotzinos — ICDE 2024):
//! given a user `u` of a PPR-based graph recommender, the current top-1
//! recommendation `rec`, and a *Why-Not item* `WNI` the user expected, find
//! a set of user-rooted edges whose removal from — or addition to — the
//! graph makes `WNI` the top-1 recommendation (Definition 4.2).
//!
//! ## Map of the paper onto this crate
//!
//! | Paper | Module |
//! |---|---|
//! | Def. 4.1 (Why-Not question) | [`question`] |
//! | Def. 4.2 (Why-Not explanation) | [`explanation`] |
//! | Alg. 1 (Remove-mode search space, Eq. 5) | [`search`] |
//! | Alg. 2 (Add-mode search space, Eq. 6) | [`search`] |
//! | Alg. 3 (Incremental heuristic) | [`incremental`] |
//! | Alg. 4 (Powerset heuristic) | [`powerset`] |
//! | Alg. 5 (Exhaustive Comparison, Eq. 7, Tables 1–3) | [`exhaustive`] |
//! | Brute-force baseline (§6.2) | [`brute`] |
//! | PRINCE Why-explanations (§3.2, Fig. 2) | [`prince`] |
//! | CHECK / TEST step, and the one CHECK scan every search method runs (`Tester::first_passing`) | [`tester`] |
//! | Failure meta-explanations (§6.4) | [`failure`] |
//! | Combined Add+Remove mode (§7, future work): Alg. 3 or 4 over the merged list (`SearchSpace::merge`) | [`combined`] |
//! | Weighted explanations ("rate with 5 stars", §7) | [`weighted`] |
//! | Group/category Why-Not questions (§4, future work) | [`group`] |
//! | §6.2 list-wide batch loop | [`batch`] |
//! | Explanation minimisation / minimality certification | [`minimal`] |
//!
//! The entry point is [`Explainer`]; see the crate examples and the
//! `emigre-eval` binaries for end-to-end usage.

pub mod batch;
pub mod brute;
pub mod combinations;
pub mod combined;
pub mod config;
pub mod context;
pub mod exhaustive;
pub mod explainer;
pub mod explanation;
pub mod failure;
pub mod group;
pub mod incremental;
pub mod minimal;
pub(crate) mod parallel;
pub mod powerset;
pub mod prince;
pub mod question;
pub mod search;
pub mod tester;
pub mod weighted;

pub use config::EmigreConfig;
pub use context::{CandidateIndex, ExplainContext, UserArtifacts};
pub use exhaustive::ExhaustiveTrace;
pub use explainer::{Explainer, Method};
pub use explanation::{Action, Explanation, Mode};
pub use failure::{ExplainFailure, FailureReason};
pub use question::{QuestionError, WhyNotQuestion};
pub use search::{Candidate, SearchSpace};
