//! The Personalized-PageRank recommender (RecWalk-style).

use crate::RecList;
use emigre_hin::{GraphView, NodeId, NodeTypeId};
use emigre_ppr::{ForwardPush, PprConfig, TransitionCsr};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Configuration of the PPR recommender.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecConfig {
    /// PPR hyper-parameters (α, ε, transition model).
    pub ppr: PprConfig,
    /// The node type that is recommendable (the paper's item set `I`).
    pub item_type: NodeTypeId,
}

impl RecConfig {
    /// Default configuration for a given item node type.
    pub fn new(item_type: NodeTypeId) -> Self {
        RecConfig {
            ppr: PprConfig::default(),
            item_type,
        }
    }

    pub fn with_ppr(mut self, ppr: PprConfig) -> Self {
        self.ppr = ppr;
        self
    }
}

/// PPR-based top-n recommender over a HIN (paper Eq. 2).
///
/// ```
/// use emigre_hin::{Hin, GraphView};
/// use emigre_rec::{PprRecommender, RecConfig};
///
/// let mut g = Hin::new();
/// let user_t = g.registry_mut().node_type("user");
/// let item_t = g.registry_mut().node_type("item");
/// let rated = g.registry_mut().edge_type("rated");
/// let u = g.add_node(user_t, None);
/// let seen = g.add_node(item_t, None);
/// let fresh = g.add_node(item_t, None);
/// g.add_edge_bidirectional(u, seen, rated, 1.0).unwrap();
/// g.add_edge_bidirectional(seen, fresh, rated, 1.0).unwrap();
///
/// let rec = PprRecommender::new(RecConfig::new(item_t));
/// // `seen` is excluded (already interacted); `fresh` is recommended.
/// assert_eq!(rec.top1(&g, u).map(|(n, _)| n), Some(fresh));
/// ```
#[derive(Debug, Clone)]
pub struct PprRecommender {
    config: RecConfig,
}

impl PprRecommender {
    pub fn new(config: RecConfig) -> Self {
        config.ppr.validate();
        PprRecommender { config }
    }

    pub fn config(&self) -> &RecConfig {
        &self.config
    }

    /// Dense per-node PPR scores personalised for `user`: Forward Local
    /// Push from the user over a transition kernel of `g`, built per call
    /// (`O(E)`); the explain path instead pushes over one kernel shared by
    /// every question.
    pub fn scores<G: GraphView>(&self, g: &G, user: NodeId) -> Vec<f64> {
        let kernel = TransitionCsr::build(g, self.config.ppr.transition);
        ForwardPush::compute(&kernel, &self.config.ppr, user).estimates
    }

    /// The candidate set: recommendable nodes the user has not interacted
    /// with (paper: `I \ N_out(u)`).
    pub fn candidates<G: GraphView>(&self, g: &G, user: NodeId) -> Vec<NodeId> {
        let mut interacted: HashSet<NodeId> = HashSet::new();
        g.for_each_out(user, |v, _, _| {
            interacted.insert(v);
        });
        (0..g.num_nodes() as u32)
            .map(NodeId)
            .filter(|&n| {
                n != user && g.node_type(n) == self.config.item_type && !interacted.contains(&n)
            })
            .collect()
    }

    /// Top-`k` ranked recommendations.
    pub fn recommend<G: GraphView>(&self, g: &G, user: NodeId, k: usize) -> RecList {
        let scores = self.scores(g, user);
        let candidates = self.candidates(g, user);
        RecList::from_scores(&scores, candidates, k)
    }

    /// The single top recommendation, if any candidate exists.
    pub fn top1<G: GraphView>(&self, g: &G, user: NodeId) -> Option<(NodeId, f64)> {
        self.recommend(g, user, 1).entries().first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emigre_hin::Hin;
    use emigre_ppr::{ppr_power, TransitionModel};

    /// A small two-community item graph: the user interacted with items in
    /// community A, so the uninteracted A item should outrank B items.
    fn communities() -> (Hin, NodeId, NodeId, NodeId, NodeTypeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let cat_t = g.registry_mut().node_type("category");
        let rated = g.registry_mut().edge_type("rated");
        let belongs = g.registry_mut().edge_type("belongs-to");

        let u = g.add_node(user_t, Some("u"));
        let a1 = g.add_node(item_t, Some("a1"));
        let a2 = g.add_node(item_t, Some("a2"));
        let a3 = g.add_node(item_t, Some("a3"));
        let b1 = g.add_node(item_t, Some("b1"));
        let b2 = g.add_node(item_t, Some("b2"));
        let cat_a = g.add_node(cat_t, Some("A"));
        let cat_b = g.add_node(cat_t, Some("B"));
        for i in [a1, a2, a3] {
            g.add_edge_bidirectional(i, cat_a, belongs, 1.0).unwrap();
        }
        for i in [b1, b2] {
            g.add_edge_bidirectional(i, cat_b, belongs, 1.0).unwrap();
        }
        g.add_edge_bidirectional(u, a1, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, a2, rated, 1.0).unwrap();
        (g, u, a3, b1, item_t)
    }

    fn recommender(item_t: NodeTypeId) -> PprRecommender {
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        PprRecommender::new(RecConfig::new(item_t).with_ppr(ppr))
    }

    #[test]
    fn recommends_same_community_item() {
        let (g, u, a3, _, item_t) = communities();
        let rec = recommender(item_t);
        assert_eq!(rec.top1(&g, u).map(|(n, _)| n), Some(a3));
    }

    #[test]
    fn interacted_items_excluded_from_candidates() {
        let (g, u, a3, b1, item_t) = communities();
        let rec = recommender(item_t);
        let cands = rec.candidates(&g, u);
        assert!(cands.contains(&a3));
        assert!(cands.contains(&b1));
        assert_eq!(cands.len(), 3); // a3, b1, b2
    }

    #[test]
    fn non_item_nodes_never_recommended() {
        let (g, u, _, _, item_t) = communities();
        let rec = recommender(item_t);
        let list = rec.recommend(&g, u, 100);
        for &(n, _) in list.entries() {
            assert_eq!(g.node_type(n), item_t);
        }
    }

    #[test]
    fn push_and_power_agree_on_ranking() {
        let (g, u, _, _, item_t) = communities();
        let rec = recommender(item_t);
        let exact = ppr_power(&g, &rec.config().ppr, u);
        let power = RecList::from_scores(&exact, rec.candidates(&g, u), 5);
        let push = rec.recommend(&g, u, 5);
        assert_eq!(power.items(), push.items());
        for (a, b) in power.entries().iter().zip(push.entries()) {
            assert!((a.1 - b.1).abs() < 1e-6);
        }
    }

    #[test]
    fn user_with_no_actions_still_gets_a_list() {
        let (mut g, _, _, _, item_t) = communities();
        let user_t = g.registry().find_node_type("user").unwrap();
        let loner = g.add_node(user_t, Some("loner"));
        let rec = recommender(item_t);
        // No out-edges: PPR concentrates on the seed, all items score zero,
        // ranking falls back to node-id order; the list still has 5 items.
        let list = rec.recommend(&g, loner, 5);
        assert_eq!(list.len(), 5);
    }

    #[test]
    fn recommendation_works_on_delta_overlay() {
        use emigre_hin::{EdgeKey, GraphDelta};
        let (g, u, a3, _, item_t) = communities();
        let rated = g.registry().find_edge_type("rated").unwrap();
        let rec = recommender(item_t);
        // Counterfactually interact with a3: it must vanish from candidates
        // and something else takes the top slot.
        let mut d = GraphDelta::new();
        d.add_edge(EdgeKey::new(u, a3, rated), 1.0);
        let view = d.overlay(&g);
        let top = rec.top1(&view, u).map(|(n, _)| n);
        assert_ne!(top, Some(a3));
    }
}
