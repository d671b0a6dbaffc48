//! EMiGRe configuration.

use emigre_hin::EdgeTypeId;
use emigre_rec::RecConfig;
use serde::{Deserialize, Serialize};

/// Full configuration of the EMiGRe explainer.
///
/// The paper's experimental setting (§6.1–6.2): PPR with α = 0.15, β = 0.5;
/// explanations restricted to the user-item edge types `T_e`
/// ("rated"/"reviewed"); top-10 recommendation lists; a bidirectionalised
/// graph, so counterfactual edits mirror both directions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmigreConfig {
    /// Recommender configuration (PPR hyper-parameters + item node type).
    pub rec: RecConfig,
    /// Edge types allowed in explanations (the paper's `T_e`). Empty means
    /// every edge type is allowed.
    pub explanation_edge_types: Vec<EdgeTypeId>,
    /// Edge type assigned to Add-mode edges (a suggested action such as
    /// "rated"). Must be listed in `explanation_edge_types` when that list
    /// is non-empty.
    pub add_edge_type: EdgeTypeId,
    /// Weight of Add-mode edges (the paper gives non-existing edges no
    /// weight of their own; 1.0 equals a neutral rating action).
    pub added_edge_weight: f64,
    /// Whether counterfactual edits mirror both edge directions. Keep `true`
    /// on graphs built with the paper's bidirectional preprocessing.
    pub bidirectional_actions: bool,
    /// Size of the recommendation list used as the target set `T`
    /// (paper: top-10).
    pub target_list_size: usize,
    /// Cap on the ranked candidate list `H` handed to the heuristics.
    pub max_candidates: usize,
    /// Cap on `|H|` for subset-enumerating methods (Powerset, Exhaustive,
    /// brute force); the powerset has `2^cap` members, so keep it ≤ ~20.
    pub max_subset_candidates: usize,
    /// Global cap on enumerated subsets per explanation attempt.
    pub max_enumerated_subsets: usize,
    /// Global cap on CHECK/TEST invocations per explanation attempt.
    pub max_checks: usize,
    /// Worker threads for candidate CHECK evaluation. `1` (the default)
    /// keeps the sequential path; `0` resolves to the machine's available
    /// parallelism; `n ≥ 2` fans CHECKs across `n` workers with a
    /// deterministic in-order merge, so results, traces, and counters are
    /// bit-identical to the sequential path at any setting.
    pub parallelism: usize,
}

impl EmigreConfig {
    /// A configuration with paper-like defaults for the given recommender.
    pub fn new(rec: RecConfig, add_edge_type: EdgeTypeId) -> Self {
        EmigreConfig {
            rec,
            explanation_edge_types: Vec::new(),
            add_edge_type,
            added_edge_weight: 1.0,
            bidirectional_actions: true,
            target_list_size: 10,
            max_candidates: 512,
            max_subset_candidates: 16,
            max_enumerated_subsets: 100_000,
            max_checks: 2_000,
            parallelism: 1,
        }
    }

    /// Sets the CHECK parallelism knob (see [`EmigreConfig::parallelism`]).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The effective CHECK worker count: resolves `parallelism == 0` to the
    /// machine's available parallelism, and caps at 64 workers.
    pub fn effective_parallelism(&self) -> usize {
        let raw = if self.parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.parallelism
        };
        raw.clamp(1, 64)
    }

    /// Restricts explanation actions to the given edge types (`T_e`).
    pub fn with_edge_types(mut self, types: Vec<EdgeTypeId>) -> Self {
        self.explanation_edge_types = types;
        self
    }

    /// Whether edges of `t` may appear in explanations.
    pub fn edge_type_allowed(&self, t: EdgeTypeId) -> bool {
        self.explanation_edge_types.is_empty() || self.explanation_edge_types.contains(&t)
    }

    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        self.rec.ppr.validate();
        assert!(
            self.added_edge_weight.is_finite() && self.added_edge_weight > 0.0,
            "added_edge_weight must be positive"
        );
        assert!(self.target_list_size >= 2, "need at least a top-2 list");
        assert!(
            self.edge_type_allowed(self.add_edge_type),
            "add_edge_type must be allowed by explanation_edge_types"
        );
        assert!(
            self.max_subset_candidates <= 24,
            "max_subset_candidates > 24 would allow 2^24+ subsets"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emigre_hin::NodeTypeId;

    fn cfg() -> EmigreConfig {
        EmigreConfig::new(RecConfig::new(NodeTypeId(1)), EdgeTypeId(0))
    }

    #[test]
    fn defaults_validate() {
        cfg().validate();
    }

    #[test]
    fn parallelism_resolution() {
        let c = cfg();
        assert_eq!(c.parallelism, 1, "sequential by default");
        assert_eq!(c.effective_parallelism(), 1);
        assert_eq!(c.with_parallelism(8).effective_parallelism(), 8);
        // Auto resolves to at least one worker.
        assert!(cfg().with_parallelism(0).effective_parallelism() >= 1);
        assert_eq!(cfg().with_parallelism(1000).effective_parallelism(), 64);
    }

    #[test]
    fn empty_edge_type_list_allows_all() {
        let c = cfg();
        assert!(c.edge_type_allowed(EdgeTypeId(0)));
        assert!(c.edge_type_allowed(EdgeTypeId(7)));
    }

    #[test]
    fn restricted_edge_types_filter() {
        let c = cfg().with_edge_types(vec![EdgeTypeId(0), EdgeTypeId(2)]);
        assert!(c.edge_type_allowed(EdgeTypeId(0)));
        assert!(!c.edge_type_allowed(EdgeTypeId(1)));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "add_edge_type")]
    fn add_type_must_be_allowed() {
        cfg().with_edge_types(vec![EdgeTypeId(3)]).validate();
    }

    #[test]
    #[should_panic(expected = "added_edge_weight")]
    fn bad_added_weight_panics() {
        let mut c = cfg();
        c.added_edge_weight = 0.0;
        c.validate();
    }
}
