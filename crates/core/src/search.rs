//! Search-space definition (paper Algorithms 1 and 2).
//!
//! Both modes produce the same artefact: a list `H` of candidate actions
//! ranked by *contribution* — how much applying the action is predicted to
//! close the dominance gap between the current recommendation `rec` and the
//! Why-Not item `WNI` — plus the threshold `τ`, the initial gap itself.
//!
//! ## Contributions
//!
//! * Remove mode (Eq. 5): undoing the action `(u, n)` denies `rec` the
//!   PPR mass routed through `n`, so the predicted gap decrease is
//!   `W(u,n) · (PPR(n, rec) − PPR(n, WNI))`, with `W(u,n)` the transition
//!   probability of the edge.
//! * Add mode (Eq. 6): performing the new action `(u, n)` routes fresh mass
//!   through `n`, so the predicted gap decrease is
//!   `PPR(n, WNI) − PPR(n, rec)` (non-existing edges carry no weight in the
//!   transition matrix — the paper drops the `W` factor, and so do we).
//!
//! ## The threshold τ (documented deviation)
//!
//! The paper's pseudo-code accumulates τ with inconsistent signs (see
//! DESIGN.md §4). We implement the semantics its prose describes: τ starts
//! at `Σ_n contribution_rmv(n)` over the user's current allowed actions —
//! a *positive* number while `rec` dominates `WNI` — and selecting
//! candidates subtracts their contribution; once the running value reaches
//! ≤ 0 the candidate set plausibly flips the ranking and is CHECKed.

use crate::context::ExplainContext;
use crate::explanation::{Action, Mode};
use emigre_hin::{EdgeKey, GraphView, NodeId};
use serde::{Deserialize, Serialize};

/// One candidate action with its predicted contribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The counterfactual action: an existing user-rooted edge to remove
    /// (its own type and weight), or a prospective one to add (the
    /// configured `add_edge_type` and `added_edge_weight`).
    pub action: Action,
    /// Predicted decrease of the rec-over-WNI dominance gap.
    pub contribution: f64,
}

impl Candidate {
    /// The neighbour (existing or prospective) at the far end of the
    /// user-rooted edge.
    pub fn node(&self) -> NodeId {
        self.action.edge.dst
    }
}

/// The ranked search space `H` with its threshold `τ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// The mode every candidate belongs to; `None` for the combined
    /// extension's mixed list ([`SearchSpace::merge`]).
    pub mode: Option<Mode>,
    /// Candidates ordered by descending contribution (the paper's
    /// `DescendingOrderList`), ties broken by ascending node id.
    pub candidates: Vec<Candidate>,
    /// Initial dominance gap of `rec` over `WNI`, estimated from the user's
    /// current actions (positive while `rec` wins).
    pub tau: f64,
    /// Number of removable user actions considered (feeds the §6.4
    /// cold-start meta-explanation).
    pub removable_actions: usize,
    /// True if the candidate list was truncated by `max_candidates`.
    pub truncated: bool,
}

impl SearchSpace {
    /// The combined extension's search space (§7): the candidates of both
    /// single-mode spaces — each already truncated to `max_candidates` —
    /// ranked as one list, against the remove space's τ and action count
    /// (both modes estimate the same gap). The merged list is not truncated
    /// again.
    pub fn merge(remove: SearchSpace, add: SearchSpace) -> SearchSpace {
        let mut candidates = remove.candidates;
        candidates.extend(add.candidates);
        sort_candidates(&mut candidates);
        SearchSpace {
            mode: None,
            candidates,
            tau: remove.tau,
            removable_actions: remove.removable_actions,
            truncated: remove.truncated || add.truncated,
        }
    }
}

/// The actions of the candidates at positions `idx` of `pool`: one
/// enumerated candidate subset, as the action set a CHECK tests.
pub(crate) fn subset_actions(pool: &[Candidate], idx: &[usize]) -> Vec<Action> {
    idx.iter().map(|&i| pool[i].action).collect()
}

/// The user's out-edges of allowed types — the action set `A` of
/// Algorithms 1 and 2 — each as its removal action paired with the edge's
/// transition probability `W(u, n)`.
pub fn allowed_actions<G: GraphView>(ctx: &ExplainContext<'_, G>) -> Vec<(Action, f64)> {
    let g = ctx.graph;
    let u = ctx.user;
    let deg = g.out_degree(u);
    if deg == 0 {
        return Vec::new();
    }
    let wsum = g.out_weight_sum(u);
    let model = ctx.cfg.rec.ppr.transition;
    let mut out = Vec::new();
    g.for_each_out(u, |n, et, w| {
        if n != u && ctx.cfg.edge_type_allowed(et) {
            out.push((
                Action::remove(EdgeKey::new(u, n, et), w),
                model.edge_probability(w, wsum, deg),
            ));
        }
    });
    out
}

/// Remove-mode contribution of an existing action (Eq. 5).
#[inline]
fn contribution_remove<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    n: NodeId,
    transition_prob: f64,
) -> f64 {
    transition_prob * (ctx.ppr_n_rec(n) - ctx.ppr_n_wni(n))
}

/// Add-mode contribution of a prospective action (Eq. 6).
#[inline]
fn contribution_add<G: GraphView>(ctx: &ExplainContext<'_, G>, n: NodeId) -> f64 {
    ctx.ppr_n_wni(n) - ctx.ppr_n_rec(n)
}

/// The initial dominance gap τ: Σ over current allowed actions of the
/// remove-mode contribution (Algorithm 1 lines 4–8; Algorithm 2 lines 4–7).
fn initial_tau<G: GraphView>(ctx: &ExplainContext<'_, G>, actions: &[(Action, f64)]) -> f64 {
    actions
        .iter()
        .map(|&(a, p)| contribution_remove(ctx, a.edge.dst, p))
        .sum()
}

fn sort_candidates(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| {
        b.contribution
            .partial_cmp(&a.contribution)
            .expect("contributions are finite")
            .then_with(|| a.node().cmp(&b.node()))
            .then_with(|| a.action.edge.etype.cmp(&b.action.edge.etype))
    });
}

/// Algorithm 1: Remove-mode search space. Candidates are the user's own
/// allowed-type actions ranked by Eq. 5.
pub fn remove_search_space<G: GraphView>(ctx: &ExplainContext<'_, G>) -> SearchSpace {
    let actions = allowed_actions(ctx);
    let tau = initial_tau(ctx, &actions);
    let mut candidates: Vec<Candidate> = actions
        .iter()
        .map(|&(action, p)| Candidate {
            action,
            contribution: contribution_remove(ctx, action.edge.dst, p),
        })
        .collect();
    sort_candidates(&mut candidates);
    let removable_actions = candidates.len();
    let truncated = candidates.len() > ctx.cfg.max_candidates;
    candidates.truncate(ctx.cfg.max_candidates);
    SearchSpace {
        mode: Some(Mode::Remove),
        candidates,
        tau,
        removable_actions,
        truncated,
    }
}

/// Algorithm 2: Add-mode search space. Candidates come from the support of
/// a Reverse Local Push rooted at `WNI` (every node with non-zero
/// `PPR(·, WNI)` — already computed in the context), filtered to items the
/// user could newly interact with, ranked by Eq. 6.
pub fn add_search_space<G: GraphView>(ctx: &ExplainContext<'_, G>) -> SearchSpace {
    let actions = allowed_actions(ctx);
    let tau = initial_tau(ctx, &actions);
    let g = ctx.graph;
    let u = ctx.user;
    let item_type = ctx.cfg.rec.item_type;
    let mut candidates: Vec<Candidate> = ctx
        .ppr_to_wni
        .support()
        .into_iter()
        .filter(|&n| n != u && n != ctx.wni && g.node_type(n) == item_type && !g.has_any_edge(u, n))
        .map(|n| Candidate {
            action: Action::add(
                EdgeKey::new(u, n, ctx.cfg.add_edge_type),
                ctx.cfg.added_edge_weight,
            ),
            contribution: contribution_add(ctx, n),
        })
        .collect();
    sort_candidates(&mut candidates);
    let truncated = candidates.len() > ctx.cfg.max_candidates;
    candidates.truncate(ctx.cfg.max_candidates);
    SearchSpace {
        mode: Some(Mode::Add),
        candidates,
        tau,
        removable_actions: actions.len(),
        truncated,
    }
}

/// Floating-point slack for the running-τ crossing test: accumulating all
/// contributions and subtracting them again leaves rounding residue on the
/// order of machine epsilon times the magnitudes involved, which must not
/// keep τ "positive" after the gap is fully consumed.
pub fn tau_slack(tau0: f64) -> f64 {
    tau0.abs() * 1e-9 + 1e-15
}

/// The switching threshold of Eq. 7 for one target `t`: the current
/// dominance gap of `t` over `WNI`, estimated from the user's existing
/// allowed actions ([`allowed_actions`], computed once per question) —
/// `Σ_{n ∈ N_out(u)} W(u,n)·(PPR(n,t) − PPR(n,WNI))`. Positive for targets
/// currently ranked above `WNI`, negative below.
pub fn target_threshold<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    actions: &[(Action, f64)],
    ppr_to_t: &emigre_ppr::ReversePush,
) -> f64 {
    actions
        .iter()
        .map(|&(a, p)| {
            let n = a.edge.dst;
            p * (ppr_to_t.estimate(n) - ctx.ppr_n_wni(n))
        })
        .sum()
}

/// Per-target contribution `C[n][t]` for the Exhaustive Comparison
/// (Algorithm 5): the predicted decrease of target `t`'s dominance gap over
/// `WNI` caused by applying the candidate action.
///
/// Removals follow Eq. 5 with `t` in place of `rec`. For additions the
/// paper's line 14 keeps the remove-mode sign, which would select additions
/// that *help* the competitor; we negate so that positive always means
/// "WNI gains on t" (DESIGN.md §4).
pub fn contribution_versus_target<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    candidate: &Candidate,
    ppr_to_t: &emigre_ppr::ReversePush,
) -> f64 {
    let n = candidate.node();
    let diff = ppr_to_t.estimate(n) - ctx.ppr_n_wni(n);
    if candidate.action.added {
        return -diff;
    }
    let g = ctx.graph;
    let deg = g.out_degree(ctx.user);
    let wsum = g.out_weight_sum(ctx.user);
    let p = ctx
        .cfg
        .rec
        .ppr
        .transition
        .edge_probability(candidate.action.weight, wsum, deg);
    p * diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmigreConfig;
    use emigre_hin::Hin;
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// Two clusters: the user's past actions pull towards `rec`; a bridge
    /// item pulls towards `wni`.
    fn setup() -> (Hin, EmigreConfig, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let a = g.add_node(item_t, Some("a")); // rated, near rec
        let b = g.add_node(item_t, Some("b")); // rated, near rec
        let rec = g.add_node(item_t, Some("rec"));
        let wni = g.add_node(item_t, Some("wni"));
        let bridge = g.add_node(item_t, Some("bridge")); // near wni, unrated
        g.add_edge_bidirectional(u, a, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, b, rated, 1.0).unwrap();
        g.add_edge_bidirectional(a, rec, rated, 1.0).unwrap();
        g.add_edge_bidirectional(b, rec, rated, 1.0).unwrap();
        g.add_edge_bidirectional(b, wni, rated, 0.3).unwrap();
        g.add_edge_bidirectional(bridge, wni, rated, 2.0).unwrap();
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        (g, cfg, u, rec, wni, bridge)
    }

    #[test]
    fn remove_space_ranks_existing_actions() {
        let (g, cfg, u, rec, wni, _) = setup();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        assert_eq!(ctx.rec, rec);
        let space = remove_search_space(&ctx);
        assert_eq!(space.mode, Some(Mode::Remove));
        assert_eq!(space.candidates.len(), 2); // the two rated items
                                               // Sorted descending.
        assert!(space.candidates[0].contribution >= space.candidates[1].contribution);
        // `a` only supports rec; `b` supports both — so removing `a` helps
        // WNI more.
        assert_eq!(g.label(space.candidates[0].node()), Some("a"));
        // rec currently dominates, so τ > 0.
        assert!(space.tau > 0.0, "tau = {}", space.tau);
        assert_eq!(space.removable_actions, 2);
        assert!(!space.truncated);
    }

    #[test]
    fn add_space_proposes_unrated_items_near_wni() {
        let (g, cfg, u, _, wni, bridge) = setup();
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = add_search_space(&ctx);
        assert_eq!(space.mode, Some(Mode::Add));
        // bridge must be a candidate and must rank first (it feeds WNI).
        assert!(!space.candidates.is_empty());
        assert_eq!(space.candidates[0].node(), bridge);
        assert!(space.candidates[0].contribution > 0.0);
        // Already-rated items and the WNI itself are excluded.
        assert!(space.candidates.iter().all(|c| c.node() != wni));
        assert!(space
            .candidates
            .iter()
            .all(|c| !g.has_any_edge(u, c.node())));
        // τ is the same dominance gap in both modes.
        let rspace = remove_search_space(&ctx);
        assert!((space.tau - rspace.tau).abs() < 1e-12);
    }

    #[test]
    fn edge_type_restriction_empties_space() {
        let (g, mut cfg, u, _, wni, _) = setup();
        let other = emigre_hin::EdgeTypeId(5);
        cfg.explanation_edge_types = vec![other];
        cfg.add_edge_type = other;
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        assert!(space.candidates.is_empty());
        assert_eq!(space.removable_actions, 0);
        assert_eq!(space.tau, 0.0);
    }

    #[test]
    fn max_candidates_truncates() {
        let (g, mut cfg, u, _, wni, _) = setup();
        cfg.max_candidates = 1;
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        assert_eq!(space.candidates.len(), 1);
        assert!(space.truncated);
        assert_eq!(space.removable_actions, 2);
    }

    #[test]
    fn tau_approximates_scaled_dominance_gap() {
        // With every out-edge of u allowed, τ = Σ W(u,n)(PPR(n,rec) −
        // PPR(n,WNI)) ≈ (PPR(u,rec) − PPR(u,WNI)) / (1−α).
        let (g, cfg, u, _, wni, _) = setup();
        let alpha = cfg.rec.ppr.alpha;
        let ctx = ExplainContext::build(&g, cfg, u, wni).unwrap();
        let space = remove_search_space(&ctx);
        let gap = ctx.user_push.estimate(ctx.rec) - ctx.user_push.estimate(ctx.wni);
        assert!(
            (space.tau * (1.0 - alpha) - gap).abs() < 1e-5,
            "tau {} gap {}",
            space.tau,
            gap
        );
    }
}
