//! # emigre — Why-Not explainable graph recommendation
//!
//! A from-scratch Rust reproduction of *"Why-Not Explainable Graph
//! Recommender"* (Attolou, Tzompanaki, Stefanidis, Kotzinos — ICDE 2024).
//!
//! Given a Personalized-PageRank recommender over a Heterogeneous
//! Information Network, EMiGRe answers the question *"why was item X not
//! recommended to me?"* with a **counterfactual explanation**: a set of the
//! user's own (past or suggested) actions whose removal or addition makes
//! X the top-1 recommendation.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`hin`] — the typed graph substrate (graphs, counterfactual overlays,
//!   CSR snapshots, k-hop extraction, degree statistics);
//! * [`ppr`] — Personalized PageRank (power iteration, forward/reverse
//!   local push, dynamic residual repair);
//! * [`rec`] — the PPR recommender and its ranked lists;
//! * [`core`] — EMiGRe itself (search spaces, Incremental / Powerset /
//!   Exhaustive Comparison heuristics, brute-force and PRINCE baselines,
//!   combined add+remove extension, failure meta-explanations);
//! * [`data`] — synthetic Amazon-style datasets, embeddings, the §6.1
//!   preprocessing pipeline, and the paper's worked examples;
//! * [`eval`] — the experiment harness reproducing every table and figure;
//! * [`obs`] — explain-path observability: op counters, timing spans, and
//!   replayable per-question search traces;
//! * [`serve`] — the concurrent explanation service (worker pool, session
//!   caches, admission control) and its std-only HTTP JSON front end.
//!
//! ## Quickstart
//!
//! ```
//! use emigre::prelude::*;
//!
//! // The paper's running example: Paul is recommended "Python" and asks
//! // why "Harry Potter" is missing.
//! let ex = emigre::data::examples::running_example();
//! let explainer = Explainer::new(ex.config.clone());
//!
//! let explanation = explainer
//!     .explain(&ex.graph, ex.paul, ex.harry_potter, Method::RemovePowerset)
//!     .expect("an explanation exists");
//! assert_eq!(explanation.new_top, ex.harry_potter);
//! println!("{}", explanation.describe(&ex.graph));
//! // "If you had not interacted with Candide and C, your top
//! //  recommendation would be Harry Potter."
//! ```

pub use emigre_core as core;
pub use emigre_data as data;
pub use emigre_eval as eval;
pub use emigre_hin as hin;
pub use emigre_obs as obs;
pub use emigre_ppr as ppr;
pub use emigre_rec as rec;
pub use emigre_serve as serve;

/// The commonly-needed names in one import.
pub mod prelude {
    pub use emigre_core::{
        Action, EmigreConfig, ExplainContext, ExplainFailure, Explainer, Explanation,
        FailureReason, Method, Mode, WhyNotQuestion,
    };
    pub use emigre_hin::{EdgeKey, EdgeTypeId, GraphDelta, GraphView, Hin, NodeId, NodeTypeId};
    pub use emigre_ppr::{PprConfig, TransitionModel};
    pub use emigre_rec::{PprRecommender, RecConfig, RecList};
}
