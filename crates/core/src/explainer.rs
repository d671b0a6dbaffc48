//! The public entry point: [`Explainer`] and the method registry.

use crate::brute::brute_force;
use crate::combined::combined;
use crate::config::EmigreConfig;
use crate::context::ExplainContext;
use crate::exhaustive::{exhaustive, exhaustive_direct};
use crate::explanation::{Explanation, Mode};
use crate::failure::ExplainFailure;
use crate::incremental::incremental;
use crate::powerset::powerset;
use crate::question::QuestionError;
use crate::search::{add_search_space, remove_search_space};
use emigre_hin::{GraphView, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Every explanation method of the paper's evaluation (§6.2), plus the
/// combined-mode extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// `add_Incremental` — Incremental heuristic, Add mode.
    AddIncremental,
    /// `add_Powerset` — Powerset heuristic, Add mode.
    AddPowerset,
    /// `add_ex` — Exhaustive Comparison, Add mode.
    AddExhaustive,
    /// `remove_Incremental` — Incremental heuristic, Remove mode.
    RemoveIncremental,
    /// `remove_Powerset` — Powerset heuristic, Remove mode.
    RemovePowerset,
    /// `remove_ex` — Exhaustive Comparison, Remove mode.
    RemoveExhaustive,
    /// `remove_ex_direct` — Exhaustive without the CHECK (baseline).
    RemoveExhaustiveDirect,
    /// `remove_brute` — brute force over all removal subsets (baseline).
    RemoveBruteForce,
    /// Combined Add+Remove extension (fast incremental variant).
    Combined,
    /// Combined Add+Remove extension (size-minimising variant).
    CombinedMinimal,
}

impl Method {
    /// Every method in the paper's reporting order (Figs. 4–6, Table 5),
    /// followed by the combined-mode extensions. The one registry behind
    /// label parsing, the CLI, and the serving cost classes.
    pub const ALL: [Method; 10] = [
        Method::AddIncremental,
        Method::AddPowerset,
        Method::AddExhaustive,
        Method::RemoveIncremental,
        Method::RemovePowerset,
        Method::RemoveExhaustive,
        Method::RemoveExhaustiveDirect,
        Method::RemoveBruteForce,
        Method::Combined,
        Method::CombinedMinimal,
    ];

    /// All methods in the paper's reporting order (Figs. 4–6, Table 5),
    /// without the extensions.
    pub fn paper_methods() -> [Method; 8] {
        let [paper @ .., _combined, _combined_minimal] = Self::ALL;
        paper
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Method::AddIncremental => "add_Incremental",
            Method::AddPowerset => "add_Powerset",
            Method::AddExhaustive => "add_ex",
            Method::RemoveIncremental => "remove_Incremental",
            Method::RemovePowerset => "remove_Powerset",
            Method::RemoveExhaustive => "remove_ex",
            Method::RemoveExhaustiveDirect => "remove_ex_direct",
            Method::RemoveBruteForce => "remove_brute",
            Method::Combined => "combined",
            Method::CombinedMinimal => "combined_minimal",
        }
    }

    /// The method whose [`Method::label`] is `label`, if any.
    pub fn from_label(label: &str) -> Option<Method> {
        Self::ALL.into_iter().find(|m| m.label() == label)
    }

    /// The mode the method searches in (`None` for combined).
    pub fn mode(&self) -> Option<Mode> {
        match self {
            Method::AddIncremental | Method::AddPowerset | Method::AddExhaustive => Some(Mode::Add),
            Method::RemoveIncremental
            | Method::RemovePowerset
            | Method::RemoveExhaustive
            | Method::RemoveExhaustiveDirect
            | Method::RemoveBruteForce => Some(Mode::Remove),
            Method::Combined | Method::CombinedMinimal => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Top-level errors: either the question itself is malformed, or the search
/// ended without an explanation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainError {
    InvalidQuestion(QuestionError),
    NotFound(ExplainFailure),
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::InvalidQuestion(e) => write!(f, "invalid why-not question: {e}"),
            ExplainError::NotFound(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExplainError {}

/// The EMiGRe framework facade (paper Fig. 3): validates the Why-Not
/// question, builds the shared context, runs the selected method.
#[derive(Debug, Clone)]
pub struct Explainer {
    cfg: EmigreConfig,
}

impl Explainer {
    pub fn new(cfg: EmigreConfig) -> Self {
        cfg.validate();
        Explainer { cfg }
    }

    pub fn config(&self) -> &EmigreConfig {
        &self.cfg
    }

    /// Builds the shared per-question context (recommendation list, PPR
    /// columns). Reuse it via [`Explainer::explain_with_context`] when
    /// running several methods on the same question — the evaluation
    /// harness does exactly that.
    pub fn context<'g, G: GraphView>(
        &self,
        graph: &'g G,
        user: NodeId,
        wni: NodeId,
    ) -> Result<ExplainContext<'g, G>, QuestionError> {
        ExplainContext::build(graph, self.cfg.clone(), user, wni)
    }

    /// [`Explainer::context`] with an explicit observability handle; the
    /// eval runner uses this to collect per-question counters, spans, and
    /// traces.
    pub fn context_with_obs<'g, G: GraphView>(
        &self,
        graph: &'g G,
        user: NodeId,
        wni: NodeId,
        obs: emigre_obs::ObsHandle,
    ) -> Result<ExplainContext<'g, G>, QuestionError> {
        ExplainContext::build_with_obs(graph, self.cfg.clone(), user, wni, obs)
    }

    /// One-shot API: builds the context and runs `method`.
    pub fn explain<G: GraphView>(
        &self,
        graph: &G,
        user: NodeId,
        wni: NodeId,
        method: Method,
    ) -> Result<Explanation, ExplainError> {
        let ctx = self
            .context(graph, user, wni)
            .map_err(ExplainError::InvalidQuestion)?;
        Self::explain_with_context(&ctx, method).map_err(ExplainError::NotFound)
    }

    /// Runs `method` against a pre-built context.
    pub fn explain_with_context<G: GraphView>(
        ctx: &ExplainContext<'_, G>,
        method: Method,
    ) -> Result<Explanation, ExplainFailure> {
        let obs = &ctx.obs;
        obs.trace_method(method.label());
        let _method_span = obs.span(method.label());
        // Builds the single-mode search space under its own span and
        // records the ranked candidate list into the trace.
        let space = |mode: Mode| {
            let _s = obs.span("search_space");
            let space = match mode {
                Mode::Add => add_search_space(ctx),
                Mode::Remove => remove_search_space(ctx),
            };
            Self::trace_space(ctx, &space);
            space
        };
        let result = match method {
            Method::AddIncremental => incremental(ctx, &space(Mode::Add)),
            Method::AddPowerset => powerset(ctx, &space(Mode::Add)),
            Method::AddExhaustive => exhaustive(ctx, &space(Mode::Add)),
            Method::RemoveIncremental => incremental(ctx, &space(Mode::Remove)),
            Method::RemovePowerset => powerset(ctx, &space(Mode::Remove)),
            Method::RemoveExhaustive => exhaustive(ctx, &space(Mode::Remove)),
            Method::RemoveExhaustiveDirect => exhaustive_direct(ctx, &space(Mode::Remove)),
            Method::RemoveBruteForce => brute_force(ctx, &space(Mode::Remove)),
            Method::Combined => combined(ctx, false),
            Method::CombinedMinimal => combined(ctx, true),
        };
        if obs.is_enabled() {
            match &result {
                Ok(e) => {
                    obs.trace_found(crate::explanation::actions_to_trace(&e.actions), e.verified)
                }
                Err(f) => obs.trace_failure(&f.reason.to_string()),
            }
        }
        result
    }

    /// Records a search space's ranked candidate list into the trace.
    pub(crate) fn trace_space<G: GraphView>(
        ctx: &ExplainContext<'_, G>,
        space: &crate::search::SearchSpace,
    ) {
        if ctx.obs.is_enabled() {
            let cands = space
                .candidates
                .iter()
                .map(|c| emigre_obs::TraceCandidate {
                    node: c.node().0,
                    contribution: c.contribution,
                })
                .collect();
            let mode = match space.mode {
                Some(mode) => mode.to_string(),
                None => "combined".to_owned(),
            };
            ctx.obs.trace_candidates(&mode, cands);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emigre_hin::Hin;
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    fn fixture() -> (Hin, EmigreConfig, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let r1 = g.add_node(item_t, Some("r1"));
        let r2 = g.add_node(item_t, Some("r2"));
        let rec = g.add_node(item_t, Some("rec"));
        let wni = g.add_node(item_t, Some("wni"));
        let b = g.add_node(item_t, Some("b"));
        g.add_edge_bidirectional(u, r1, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, r2, rated, 1.0).unwrap();
        g.add_edge_bidirectional(r1, rec, rated, 2.0).unwrap();
        g.add_edge_bidirectional(r2, wni, rated, 0.5).unwrap();
        g.add_edge_bidirectional(b, wni, rated, 2.0).unwrap();
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
    fn every_method_returns_consistent_results() {
        let (g, cfg, u, wni) = fixture();
        let explainer = Explainer::new(cfg);
        let ctx = explainer.context(&g, u, wni).unwrap();
        for method in Method::ALL {
            match Explainer::explain_with_context(&ctx, method) {
                Ok(exp) => {
                    assert_eq!(exp.new_top, wni, "{method}: wrong target");
                    if exp.verified {
                        let tester = crate::tester::Tester::new(&ctx);
                        assert!(tester.test(&exp.actions), "{method}: broken CHECK");
                    }
                    if let Some(mode) = method.mode() {
                        assert_eq!(exp.mode, Some(mode), "{method}: wrong mode tag");
                    }
                }
                Err(failure) => {
                    // A failure is acceptable for remove-mode methods here,
                    // but must carry a meta-explanation.
                    let _ = failure.reason;
                }
            }
        }
    }

    #[test]
    fn one_shot_api_matches_context_api() {
        let (g, cfg, u, wni) = fixture();
        let explainer = Explainer::new(cfg);
        let one_shot = explainer.explain(&g, u, wni, Method::AddPowerset);
        let ctx = explainer.context(&g, u, wni).unwrap();
        let ctxed = Explainer::explain_with_context(&ctx, Method::AddPowerset);
        match (one_shot, ctxed) {
            (Ok(a), Ok(b)) => assert_eq!(a.actions, b.actions),
            (Err(ExplainError::NotFound(a)), Err(b)) => assert_eq!(a.reason, b.reason),
            other => panic!("inconsistent results: {other:?}"),
        }
    }

    #[test]
    fn invalid_question_is_reported_as_such() {
        let (g, cfg, u, _) = fixture();
        let explainer = Explainer::new(cfg);
        let err = explainer
            .explain(&g, u, NodeId(1), Method::AddIncremental)
            .unwrap_err();
        assert!(matches!(err, ExplainError::InvalidQuestion(_)));
    }

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(Method::AddExhaustive.label(), "add_ex");
        assert_eq!(Method::RemoveBruteForce.label(), "remove_brute");
        assert_eq!(Method::paper_methods().len(), 8);
        assert_eq!(Method::AddPowerset.to_string(), "add_Powerset");
    }

    #[test]
    fn brute_force_and_combined_scan_through_the_parallel_pool() {
        // Both methods CHECK at least two candidate sets on this fixture
        // (two singleton removals; two τ-crossing prefixes of the merged
        // list), so at parallelism 4 the scan must fan out.
        let (g, cfg, u, wni) = fixture();
        let cfg = cfg.with_parallelism(4);
        for method in [Method::RemoveBruteForce, Method::Combined] {
            let obs = emigre_obs::ObsHandle::enabled();
            let ctx = ExplainContext::build_with_obs(&g, cfg.clone(), u, wni, obs).unwrap();
            let _ = Explainer::explain_with_context(&ctx, method);
            let fanned_out = ctx
                .obs
                .span_tree()
                .iter()
                .any(|s| s.find("check_parallel").is_some());
            assert!(fanned_out, "{method} bypassed Tester::first_passing's pool");
        }
    }

    #[test]
    fn labels_round_trip_through_the_registry() {
        for (i, m) in Method::ALL.iter().enumerate() {
            assert_eq!(Method::from_label(m.label()), Some(*m));
            assert!(!Method::ALL[..i].contains(m), "{m} listed twice");
        }
        assert_eq!(Method::from_label("remove_Brute"), None);
        assert_eq!(Method::paper_methods(), Method::ALL[..8]);
    }
}
