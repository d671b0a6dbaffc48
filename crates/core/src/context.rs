//! Shared per-question state: the EMiGRe "framework" box of Figure 3.
//!
//! Building an explanation needs several PPR artefacts that are identical
//! across modes and heuristics:
//!
//! * the user's recommendation list (yields `rec` and the target set `T`);
//! * the user's forward-push state (reused by the dynamic CHECK);
//! * `PPR(·, rec)` and `PPR(·, WNI)` columns via Reverse Local Push — the
//!   inputs of the contribution equations (5) and (6).
//!
//! [`ExplainContext::build`] computes them once; every algorithm in this
//! crate then borrows the context. Any other item's column — Algorithm 5
//! needs one per target — comes from [`ExplainContext::column`].

use crate::config::EmigreConfig;
use crate::question::{QuestionError, WhyNotQuestion};
use emigre_hin::{GraphDelta, GraphView, NodeId, NodeTypeId};
use emigre_obs::{HeapSize, ObsHandle, Op};
use emigre_ppr::{ColumnBound, CsrRows, ForwardPush, PushWorkspace, ReversePush, TransitionCsr};
use emigre_rec::{PprRecommender, RecList};
use std::cell::{OnceCell, RefCell};
use std::sync::Arc;

/// Index over the recommendation candidate pool: the item-typed nodes and
/// a bitset of the user's interactions.
///
/// The CHECK step used to rediscover both per call — an `O(n)` all-nodes
/// scan with a `node_type` test per node, and a `Vec::contains` per
/// candidate over the interacted list. The index is built once per
/// question; counterfactual deltas overlay it transactionally
/// ([`CandidateIndex::apply_delta`] / [`CandidateIndex::revert`]).
///
/// `Clone` copies the base index only: between transactions `overrides` is
/// empty (apply/revert are balanced), which is the state batch builds
/// share.
#[derive(Clone)]
pub struct CandidateIndex {
    /// Nodes of the recommendable item type, excluding the user.
    items: Vec<NodeId>,
    /// `interacted[n]`: does the user have any out-edge to `n`?
    interacted: Vec<bool>,
    /// `(node, prior)` pairs recording bitset writes of the active delta.
    overrides: Vec<(u32, bool)>,
}

/// Exact: three flat buffers at capacity.
impl HeapSize for CandidateIndex {
    fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<NodeId>()
            + self.interacted.capacity()
            + self.overrides.capacity() * std::mem::size_of::<(u32, bool)>()
    }
}

impl CandidateIndex {
    /// Scans the base graph once. `O(n + deg(user))`.
    pub fn build<G: GraphView>(g: &G, item_type: NodeTypeId, user: NodeId) -> Self {
        let mut items = Vec::new();
        for i in 0..g.num_nodes() as u32 {
            let n = NodeId(i);
            if n != user && g.node_type(n) == item_type {
                items.push(n);
            }
        }
        let mut interacted = vec![false; g.num_nodes()];
        g.for_each_out(user, |v, _, _| interacted[v.index()] = true);
        CandidateIndex {
            items,
            interacted,
            overrides: Vec::new(),
        }
    }

    /// The item-typed candidate nodes (user excluded), ascending by id.
    #[inline]
    pub fn items(&self) -> &[NodeId] {
        &self.items
    }

    /// Whether the user interacts with `n` under the active delta (or the
    /// base graph, between transactions).
    #[inline]
    pub fn is_interacted(&self, n: NodeId) -> bool {
        self.interacted[n.index()]
    }

    /// Overlays a counterfactual delta's effect on the interaction bitset.
    /// `view` must be the delta's overlay of the base graph: a removal only
    /// clears the bit when no other `user → dst` edge survives.
    pub fn apply_delta<G: GraphView>(&mut self, user: NodeId, delta: &GraphDelta, view: &G) {
        debug_assert!(self.overrides.is_empty(), "unbalanced apply/revert");
        for a in delta.added() {
            if a.key.src == user {
                self.set(a.key.dst, true);
            }
        }
        for r in delta.removed() {
            if r.src == user && !view.has_any_edge(user, r.dst) {
                self.set(r.dst, false);
            }
        }
    }

    fn set(&mut self, n: NodeId, value: bool) {
        let i = n.index();
        if self.interacted[i] != value {
            self.overrides.push((n.0, self.interacted[i]));
            self.interacted[i] = value;
        }
    }

    /// Undoes [`CandidateIndex::apply_delta`] in `O(edits)`.
    pub fn revert(&mut self) {
        while let Some((n, prior)) = self.overrides.pop() {
            self.interacted[n as usize] = prior;
        }
    }
}

/// Mutable per-check scratch shared through the context: the reusable push
/// workspace and the candidate index. Borrowed exclusively for the
/// duration of one CHECK — or moved wholesale into a CHECK worker thread
/// by the parallel path.
pub(crate) struct CheckState {
    pub(crate) ws: PushWorkspace,
    pub(crate) cand: CandidateIndex,
}

/// The per-user half of a question's pre-computed state: everything that
/// depends on the user but **not** on the Why-Not item.
///
/// One user's session asks many Why-Not questions (the §6.2 batch loop, or
/// a serving session cache); all of them share the forward push, the
/// recommendation list, the `PPR(·, rec)` column, and the candidate index.
/// The artefacts are `Arc`-shared so assembling a context from them is
/// `O(1)` — no `O(n)`/`O(E)` clones per question.
///
/// Generic over the kernel layout `K` ([`CsrRows`]): the `f64` reference
/// [`TransitionCsr`] by default, or an `f32` [`emigre_ppr::CompactCsr`]
/// for large graphs. Every push below runs through the trait, so the
/// choice is purely a memory/precision trade.
pub struct UserArtifacts<K = TransitionCsr> {
    pub user: NodeId,
    /// Flat transition rows of the base graph.
    pub kernel: Arc<K>,
    /// Forward-push state personalised on the user.
    pub user_push: Arc<ForwardPush>,
    /// The current top-1 recommendation.
    pub rec: NodeId,
    /// The user's top-`target_list_size` recommendation list.
    pub rec_list: RecList,
    /// `PPR(·, rec)` estimates for every node.
    pub ppr_to_rec: Arc<ReversePush>,
    /// Override-free candidate index, cloned into each context.
    pub cand_base: CandidateIndex,
}

/// Counts the artefacts this user *uniquely owns*: the two dense push
/// states, the recommendation list, and the candidate index. The `kernel`
/// is deliberately excluded — it is the graph-wide transition CSR shared
/// by every user and charged to its owner (the live `GraphEpoch`), so
/// summing cached `UserArtifacts` never double counts it.
impl<K> HeapSize for UserArtifacts<K> {
    fn heap_bytes(&self) -> usize {
        self.user_push.heap_bytes()
            + self.ppr_to_rec.heap_bytes()
            + self.rec_list.heap_bytes()
            + self.cand_base.heap_bytes()
    }
}

/// Manual so the bound stays `K`-free: the kernel is behind an `Arc`.
impl<K> Clone for UserArtifacts<K> {
    fn clone(&self) -> Self {
        UserArtifacts {
            user: self.user,
            kernel: Arc::clone(&self.kernel),
            user_push: Arc::clone(&self.user_push),
            rec: self.rec,
            rec_list: self.rec_list.clone(),
            ppr_to_rec: Arc::clone(&self.ppr_to_rec),
            cand_base: self.cand_base.clone(),
        }
    }
}

impl<K: CsrRows> UserArtifacts<K> {
    /// Computes the user-shared artefacts: one forward push, the
    /// recommendation list (or `InvalidUser` if it is empty), one reverse
    /// push on `rec`, and the candidate index. The caller supplies the
    /// graph-wide `kernel` so it can be shared across users too.
    pub fn build<G: GraphView>(
        graph: &G,
        cfg: &EmigreConfig,
        kernel: Arc<K>,
        user: NodeId,
        obs: &ObsHandle,
    ) -> Result<Self, QuestionError> {
        if user.0 >= graph.num_nodes() as u32 {
            return Err(QuestionError::InvalidUser(user));
        }
        let user_push = ForwardPush::compute(&*kernel, &cfg.rec.ppr, user);
        obs.count(Op::ForwardPushes, user_push.pushes as u64);
        obs.add_mass(user_push.drained);
        let rec_list = target_list(graph, cfg, user, &user_push);
        let rec = rec_list.top().ok_or(QuestionError::InvalidUser(user))?;
        let ppr_to_rec = ReversePush::compute(&*kernel, &cfg.rec.ppr, rec);
        obs.count(Op::ReversePushes, ppr_to_rec.pushes as u64);
        obs.add_mass(ppr_to_rec.drained);
        let cand_base = CandidateIndex::build(graph, cfg.rec.item_type, user);
        Ok(UserArtifacts {
            user,
            kernel,
            user_push: Arc::new(user_push),
            rec,
            rec_list,
            ppr_to_rec: Arc::new(ppr_to_rec),
            cand_base,
        })
    }
}

/// The user's top-`target_list_size` recommendation list from a converged
/// user push. Candidates must score above the CHECK step's zero-score
/// floor (see [`crate::tester::score_floor`]), so vacuous candidates never
/// enter the target list. Every path that needs a user's list — context
/// builds and scenario generation — computes it here, so the lists agree
/// exactly.
pub fn target_list<G: GraphView>(
    graph: &G,
    cfg: &EmigreConfig,
    user: NodeId,
    push: &ForwardPush,
) -> RecList {
    let floor = crate::tester::score_floor(cfg);
    let candidates = PprRecommender::new(cfg.rec)
        .candidates(graph, user)
        .into_iter()
        .filter(|n| push.estimates[n.index()] > floor);
    RecList::from_scores(&push.estimates, candidates, cfg.target_list_size)
}

/// Pre-computed state shared by every explanation algorithm for one
/// `(user, WNI)` question.
///
/// Generic over the kernel layout `K` like [`UserArtifacts`]; the default
/// keeps every existing call site on the reference [`TransitionCsr`].
/// Build over a different layout with [`ExplainContext::build_with_kernel`].
pub struct ExplainContext<'g, G: GraphView, K = TransitionCsr> {
    pub graph: &'g G,
    pub cfg: EmigreConfig,
    pub user: NodeId,
    /// The Why-Not item.
    pub wni: NodeId,
    /// The current top-1 recommendation.
    pub rec: NodeId,
    /// The user's top-`target_list_size` recommendation list (the target
    /// set `T` of Algorithm 5; includes `rec`, may include `wni`).
    pub rec_list: RecList,
    /// Forward-push state personalised on the user (base graph). Shared
    /// with the user's other questions; read-only through the context.
    pub user_push: Arc<ForwardPush>,
    /// `PPR(·, rec)` estimates for every node.
    pub ppr_to_rec: Arc<ReversePush>,
    /// `PPR(·, wni)` estimates for every node.
    pub ppr_to_wni: Arc<ReversePush>,
    /// Flat transition rows of the base graph, shared by every push in
    /// this context; counterfactual CHECKs patch the touched rows on top.
    pub kernel: Arc<K>,
    /// Reusable CHECK scratch (push workspace + candidate index).
    pub(crate) check: RefCell<CheckState>,
    /// Recycled CHECK states for parallel workers: taken before a fan-out,
    /// returned after, so repeated parallel sessions within one question
    /// reuse their `O(n)` buffers.
    pub(crate) spare_states: RefCell<Vec<CheckState>>,
    /// The `rec` and Why-Not columns prepared as CHECK bounds against the
    /// workspace base, built at the context's first CHECK
    /// ([`ExplainContext::column_bounds`]).
    bounds: OnceCell<[ColumnBound; 2]>,
    /// Observability sink for everything computed through this context
    /// (counters, spans, the per-question trace). Disabled by default;
    /// see [`ExplainContext::build_with_obs`].
    pub obs: ObsHandle,
    /// Where [`ExplainContext::column`] finds `PPR(·, t)` for items other
    /// than `rec` and the Why-Not item, if the caller attached a source
    /// ([`ExplainContext::with_column_source`]).
    columns: Option<Box<dyn Fn(NodeId) -> Arc<ReversePush> + 'g>>,
}

impl<'g, G: GraphView> ExplainContext<'g, G> {
    /// Validates the question, runs the recommender, and computes the PPR
    /// columns. Fails if the question is malformed (Definition 4.1) or the
    /// user has no recommendation at all. Records nothing; pass a handle to
    /// [`ExplainContext::build_with_obs`] for counters, spans and a trace.
    pub fn build(
        graph: &'g G,
        cfg: EmigreConfig,
        user: NodeId,
        wni: NodeId,
    ) -> Result<Self, QuestionError> {
        Self::build_with_obs(graph, cfg, user, wni, ObsHandle::disabled())
    }

    /// [`ExplainContext::build`] with an explicit observability handle.
    /// The context's pushes are tallied into it at build time, and every
    /// CHECK through this context feeds the same sink.
    pub fn build_with_obs(
        graph: &'g G,
        cfg: EmigreConfig,
        user: NodeId,
        wni: NodeId,
        obs: ObsHandle,
    ) -> Result<Self, QuestionError> {
        let _span = obs.span("context_build");
        cfg.validate();
        // Cheap structural validation first (bounds, typing, interaction).
        WhyNotQuestion::validate(graph, &cfg, user, wni, None)?;

        // All pushes in this context run over the flat transition kernel;
        // building it is one O(E) sweep amortised across every CHECK.
        let kernel = Arc::new(TransitionCsr::build(graph, cfg.rec.ppr.transition));
        let artifacts = UserArtifacts::build(graph, &cfg, kernel, user, &obs)?;
        let ws = PushWorkspace::new(graph.num_nodes());
        Self::for_question(graph, cfg, &artifacts, wni, ws, obs)
    }
}

impl<'g, G: GraphView, K: CsrRows> ExplainContext<'g, G, K> {
    /// [`ExplainContext::build_with_obs`] over a caller-supplied kernel of
    /// any layout. The `O(E)` kernel sweep is the caller's (so one compact
    /// kernel can serve many questions); everything else — validation, the
    /// user artefacts, the `PPR(·, wni)` column — is computed here exactly
    /// as in the default build.
    pub fn build_with_kernel(
        graph: &'g G,
        cfg: EmigreConfig,
        kernel: Arc<K>,
        user: NodeId,
        wni: NodeId,
        obs: ObsHandle,
    ) -> Result<Self, QuestionError> {
        let _span = obs.span("context_build");
        cfg.validate();
        WhyNotQuestion::validate(graph, &cfg, user, wni, None)?;
        let artifacts = UserArtifacts::build(graph, &cfg, kernel, user, &obs)?;
        let ws = PushWorkspace::new(graph.num_nodes());
        Self::for_question(graph, cfg, &artifacts, wni, ws, obs)
    }

    /// The per-question half of every build: validates `wni` against the
    /// user's shared artefacts, runs its `PPR(·, wni)` column over their
    /// kernel, and assembles the context with
    /// [`ExplainContext::from_artifacts`]. A malformed question fails
    /// before paying for the column.
    ///
    /// One user's many questions (the batch and group loops) build the
    /// artefacts once and call this per Why-Not item, so they share the
    /// kernel, the user push, the recommendation list and the `PPR(·, rec)`
    /// column.
    pub fn for_question(
        graph: &'g G,
        cfg: EmigreConfig,
        artifacts: &UserArtifacts<K>,
        wni: NodeId,
        ws: PushWorkspace,
        obs: ObsHandle,
    ) -> Result<Self, QuestionError> {
        WhyNotQuestion::validate(graph, &cfg, artifacts.user, wni, Some(artifacts.rec))?;
        let ppr_to_wni = ReversePush::compute(&*artifacts.kernel, &cfg.rec.ppr, wni);
        obs.count(Op::ReversePushes, ppr_to_wni.pushes as u64);
        obs.add_mass(ppr_to_wni.drained);
        Self::from_artifacts(graph, cfg, artifacts, wni, Arc::new(ppr_to_wni), ws, obs)
    }

    /// Assembles a context from a user's shared artefacts, the
    /// WNI-specific `PPR(·, wni)` column, and a recycled workspace.
    ///
    /// `O(1)` plus the candidate-index clone and the workspace reload —
    /// no pushes run. This is the serving fast path: artefacts come from a
    /// session cache, the column from a column cache, and the workspace
    /// from the worker's scratch. Validation against `rec` still happens
    /// here (`AlreadyRecommended` etc.), so cache hits fail questions with
    /// the same errors as cold builds.
    pub fn from_artifacts(
        graph: &'g G,
        cfg: EmigreConfig,
        artifacts: &UserArtifacts<K>,
        wni: NodeId,
        ppr_to_wni: Arc<ReversePush>,
        mut ws: PushWorkspace,
        obs: ObsHandle,
    ) -> Result<Self, QuestionError> {
        WhyNotQuestion::validate(graph, &cfg, artifacts.user, wni, Some(artifacts.rec))?;
        obs.trace_question(artifacts.user.0, wni.0, artifacts.rec.0);
        if cfg.dynamic_test {
            ws.load_base(&artifacts.user_push);
        } else {
            ws.clear(graph.num_nodes());
        }
        Ok(ExplainContext {
            graph,
            cfg,
            user: artifacts.user,
            wni,
            rec: artifacts.rec,
            rec_list: artifacts.rec_list.clone(),
            user_push: Arc::clone(&artifacts.user_push),
            ppr_to_rec: Arc::clone(&artifacts.ppr_to_rec),
            ppr_to_wni,
            kernel: Arc::clone(&artifacts.kernel),
            check: RefCell::new(CheckState {
                ws,
                cand: artifacts.cand_base.clone(),
            }),
            spare_states: RefCell::new(Vec::new()),
            bounds: OnceCell::new(),
            obs,
            columns: None,
        })
    }

    /// Attaches the source [`ExplainContext::column`] reads every item
    /// column from, other than `rec`'s and the Why-Not item's. The source
    /// must return `PPR(·, t)` on this context's graph, as a fresh push
    /// would, and count any push it runs itself.
    pub fn with_column_source(mut self, source: impl Fn(NodeId) -> Arc<ReversePush> + 'g) -> Self {
        self.columns = Some(Box::new(source));
        self
    }

    /// `PPR(·, t)` for an item `t`. `rec` and the Why-Not item answer with
    /// the context's own columns; any other item goes to the attached
    /// source. Without one, the column is pushed on the context's kernel
    /// and counted into its observability handle.
    pub fn column(&self, t: NodeId) -> Arc<ReversePush> {
        if t == self.rec {
            return Arc::clone(&self.ppr_to_rec);
        }
        if t == self.wni {
            return Arc::clone(&self.ppr_to_wni);
        }
        if let Some(source) = &self.columns {
            return source(t);
        }
        let p = ReversePush::compute(&*self.kernel, &self.cfg.rec.ppr, t);
        self.obs.count(Op::ReversePushes, p.pushes as u64);
        self.obs.add_mass(p.drained);
        Arc::new(p)
    }

    /// Takes `count` CHECK states for parallel workers, building the ones
    /// the spare pool cannot supply. Must be called between CHECKs (the
    /// main state's candidate index is override-free then, so its `Clone`
    /// is the base index).
    pub(crate) fn take_check_states(&self, count: usize) -> Vec<CheckState> {
        let mut states = Vec::with_capacity(count);
        {
            let mut spare = self.spare_states.borrow_mut();
            while states.len() < count {
                match spare.pop() {
                    Some(s) => states.push(s),
                    None => break,
                }
            }
        }
        while states.len() < count {
            let mut ws = PushWorkspace::new(self.graph.num_nodes());
            if self.cfg.dynamic_test {
                ws.load_base(&self.user_push);
            } else {
                ws.clear(self.graph.num_nodes());
            }
            let cand = self.check.borrow().cand.clone();
            states.push(CheckState { ws, cand });
        }
        states
    }

    /// `[rec, wni]`: the context's two columns as [`ColumnBound`]s over the
    /// CHECK workspace's base, which every worker state shares. One `O(n)`
    /// pass per column, at the first call; must be called between CHECKs.
    pub(crate) fn column_bounds(&self) -> &[ColumnBound; 2] {
        self.bounds.get_or_init(|| {
            let check = self.check.borrow();
            let ppr = &self.cfg.rec.ppr;
            [
                ColumnBound::new(ppr, &check.ws, Arc::clone(&self.ppr_to_rec)),
                ColumnBound::new(ppr, &check.ws, Arc::clone(&self.ppr_to_wni)),
            ]
        })
    }

    /// Returns worker CHECK states to the spare pool for the next fan-out.
    pub(crate) fn return_check_states(&self, states: Vec<CheckState>) {
        self.spare_states.borrow_mut().extend(states);
    }

    /// Consumes the context, handing its push workspace back for reuse by
    /// the next question (see [`ExplainContext::from_artifacts`]).
    pub fn into_workspace(self) -> PushWorkspace {
        self.check.into_inner().ws
    }

    /// `PPR(n, rec)` for a candidate node `n`.
    #[inline]
    pub fn ppr_n_rec(&self, n: NodeId) -> f64 {
        self.ppr_to_rec.estimate(n)
    }

    /// `PPR(n, WNI)` for a candidate node `n`.
    #[inline]
    pub fn ppr_n_wni(&self, n: NodeId) -> f64 {
        self.ppr_to_wni.estimate(n)
    }

    /// The target set `T` of Algorithm 5: the recommendation list without
    /// the Why-Not item itself.
    pub fn targets(&self) -> Vec<NodeId> {
        self.rec_list
            .items()
            .into_iter()
            .filter(|&t| t != self.wni)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emigre_hin::Hin;
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    /// Book-shop toy graph: user rated two items, two fresh items compete.
    fn setup() -> (Hin, EmigreConfig, NodeId, NodeId, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let seen1 = g.add_node(item_t, None);
        let seen2 = g.add_node(item_t, None);
        let close = g.add_node(item_t, None);
        let far = g.add_node(item_t, None);
        g.add_edge_bidirectional(u, seen1, rated, 1.0).unwrap();
        g.add_edge_bidirectional(u, seen2, rated, 1.0).unwrap();
        g.add_edge_bidirectional(seen1, close, rated, 1.0).unwrap();
        g.add_edge_bidirectional(seen2, close, rated, 1.0).unwrap();
        g.add_edge_bidirectional(seen2, far, rated, 0.2).unwrap();
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        (g, cfg, u, close, far)
    }

    #[test]
    fn context_identifies_rec_and_targets() {
        let (g, cfg, u, close, far) = setup();
        let ctx = ExplainContext::build(&g, cfg, u, far).unwrap();
        assert_eq!(ctx.rec, close);
        assert_eq!(ctx.wni, far);
        assert!(ctx.rec_list.contains(far));
        let targets = ctx.targets();
        assert!(targets.contains(&close));
        assert!(!targets.contains(&far));
    }

    #[test]
    fn asking_about_the_recommendation_fails() {
        let (g, cfg, u, close, _) = setup();
        let err = match ExplainContext::build(&g, cfg, u, close) {
            Err(e) => e,
            Ok(_) => panic!("expected AlreadyRecommended"),
        };
        assert_eq!(err, QuestionError::AlreadyRecommended(close));
    }

    #[test]
    fn ppr_columns_are_consistent_with_push_state() {
        let (g, cfg, u, _, far) = setup();
        let ctx = ExplainContext::build(&g, cfg, u, far).unwrap();
        // Forward estimate of PPR(u, rec) ≈ reverse estimate at u.
        let fwd = ctx.user_push.estimate(ctx.rec);
        let rev = ctx.ppr_n_rec(u);
        assert!((fwd - rev).abs() < 1e-6, "{fwd} vs {rev}");
    }

    #[test]
    fn rec_outscores_wni_initially() {
        let (g, cfg, u, _, far) = setup();
        let ctx = ExplainContext::build(&g, cfg, u, far).unwrap();
        assert!(ctx.user_push.estimate(ctx.rec) > ctx.user_push.estimate(ctx.wni));
    }
}
