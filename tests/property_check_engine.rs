//! Property-based checks of the allocation-free CHECK engine, which
//! repairs the user's base-graph push instead of pushing afresh:
//!
//! * its reference is exact PPR: wherever the dense oracle's margin is
//!   decisive, `Tester::test` returns the verdict of power iteration on
//!   the edited graph;
//! * workspace reuse is invisible: a long-lived [`ExplainContext`] whose
//!   `Tester` reuses one push workspace across many queries decides every
//!   query exactly like a fresh context (fresh workspace, fresh candidate
//!   index) built for that query alone.

use emigre::core::tester::Tester;
use emigre::prelude::*;
use emigre_testkit::{oracle_test, push_error_bound};
use proptest::prelude::*;

/// Random bidirectional user-item graph description.
#[derive(Debug, Clone)]
struct World {
    users: usize,
    items: usize,
    interactions: Vec<(usize, usize, f64)>,
    links: Vec<(usize, usize, f64)>,
}

fn world() -> impl Strategy<Value = World> {
    (2usize..4, 4usize..9).prop_flat_map(|(users, items)| {
        let interactions =
            proptest::collection::vec((0..users, 0..items, 0.5f64..3.0), users..(users * 4));
        let links = proptest::collection::vec((0..items, 0..items, 0.5f64..3.0), 2..(items * 2));
        (interactions, links).prop_map(move |(interactions, links)| World {
            users,
            items,
            interactions,
            links,
        })
    })
}

fn build(w: &World) -> (Hin, Vec<NodeId>, Vec<NodeId>, EdgeTypeId) {
    let mut g = Hin::new();
    let user_t = g.registry_mut().node_type("user");
    let item_t = g.registry_mut().node_type("item");
    let rated = g.registry_mut().edge_type("rated");
    let users: Vec<NodeId> = (0..w.users).map(|_| g.add_node(user_t, None)).collect();
    let items: Vec<NodeId> = (0..w.items).map(|_| g.add_node(item_t, None)).collect();
    for &(u, i, wt) in &w.interactions {
        let _ = g.add_edge_bidirectional(users[u], items[i], rated, wt);
    }
    for &(a, b, wt) in &w.links {
        if a != b {
            let _ = g.add_edge_bidirectional(items[a], items[b], rated, wt);
        }
    }
    (g, users, items, rated)
}

fn config(item_t: NodeTypeId, rated: EdgeTypeId) -> EmigreConfig {
    let ppr = PprConfig {
        transition: TransitionModel::Weighted,
        epsilon: 1e-7,
        ..PprConfig::default()
    };
    EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated)
}

/// The user's own rated edges (removal candidates) and the absent
/// user→item edges (addition candidates).
fn action_pools(
    g: &Hin,
    user: NodeId,
    items: &[NodeId],
    rated: EdgeTypeId,
) -> (Vec<Action>, Vec<Action>) {
    let mut removals: Vec<Action> = Vec::new();
    g.for_each_out(user, |dst, et, wt| {
        if et == rated {
            removals.push(Action::remove(EdgeKey::new(user, dst, et), wt));
        }
    });
    let additions: Vec<Action> = items
        .iter()
        .filter(|&&i| !g.has_edge(user, i, rated))
        .map(|&i| Action::add(EdgeKey::new(user, i, rated), 1.0))
        .collect();
    (removals, additions)
}

/// One query: which removal / addition to draw from the pools and whether
/// to combine them (0 = remove only, 1 = add only, 2 = both, 3 = empty).
type QueryPick = (prop::sample::Index, prop::sample::Index, usize);

fn actions_for(pick: &QueryPick, removals: &[Action], additions: &[Action]) -> Vec<Action> {
    let (r, a, kind) = pick;
    let mut out = Vec::new();
    if (*kind == 0 || *kind == 2) && !removals.is_empty() {
        out.push(removals[r.index(removals.len())]);
    }
    if (*kind == 1 || *kind == 2) && !additions.is_empty() {
        out.push(additions[a.index(additions.len())]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Workspace reuse is invisible: across a random sequence of queries,
    /// the long-lived tester and a per-query fresh tester return identical
    /// verdicts and identical counterfactual top-1s.
    #[test]
    fn reused_workspace_tester_matches_fresh_state_tester(
        w in world(),
        user_pick in any::<prop::sample::Index>(),
        wni_pick in any::<prop::sample::Index>(),
        queries in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0usize..4),
            1..7,
        ),
    ) {
        let (g, users, items, rated) = build(&w);
        let item_t = g.node_type(items[0]);
        let user = users[user_pick.index(users.len())];
        let wni = items[wni_pick.index(items.len())];

        let cfg = config(item_t, rated);
        let ctx = ExplainContext::build(&g, cfg.clone(), user, wni);
        prop_assume!(ctx.is_ok()); // only well-formed questions count as cases
        let ctx = ctx.expect("assumed");
        let tester = Tester::new(&ctx);
        let (removals, additions) = action_pools(&g, user, &items, rated);

        for pick in &queries {
            let actions = actions_for(pick, &removals, &additions);
            // The fresh context has never seen any other query: its
            // workspace and candidate index start from the base state.
            let fresh_ctx = ExplainContext::build(&g, cfg.clone(), user, wni)
                .expect("question was valid above");
            let fresh = Tester::new(&fresh_ctx);

            let reused_verdict = tester.test(&actions);
            let fresh_verdict = fresh.test(&actions);
            prop_assert_eq!(
                reused_verdict,
                fresh_verdict,
                "verdict drift (actions={:?})",
                actions
            );
            prop_assert_eq!(
                tester.top1_after(&actions),
                fresh.top1_after(&actions),
                "top-1 drift (actions={:?})",
                actions
            );
        }
    }
}

proptest! {
    // Worlds hold at most 12 nodes, so 256 questions cost well under a
    // second and reach a few dozen decisive passing verdicts.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The repaired CHECK's reference is exact PPR on the edited graph:
    /// wherever the oracle's margin clears the push error band, the verdict
    /// equals the dense oracle's (power iteration on the materialised
    /// counterfactual graph, ranked by the production rule).
    #[test]
    fn repaired_check_matches_exact_ppr_verdicts(
        w in world(),
        user_pick in any::<prop::sample::Index>(),
        wni_pick in any::<prop::sample::Index>(),
        queries in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0usize..4),
            1..5,
        ),
    ) {
        let (g, users, items, rated) = build(&w);
        let item_t = g.node_type(items[0]);
        let user = users[user_pick.index(users.len())];
        let wni = items[wni_pick.index(items.len())];

        let cfg = config(item_t, rated);
        let ctx = ExplainContext::build(&g, cfg.clone(), user, wni);
        prop_assume!(ctx.is_ok()); // only well-formed questions count as cases
        let ctx = ctx.expect("assumed");
        let tester = Tester::new(&ctx);
        let (removals, additions) = action_pools(&g, user, &items, rated);
        let bound = push_error_bound(g.num_nodes(), cfg.rec.ppr.epsilon);

        for pick in &queries {
            let actions = actions_for(pick, &removals, &additions);
            let exact = oracle_test(&g, &cfg, user, wni, &actions)
                .expect("pool actions apply to the base graph");
            let verdict = tester.test(&actions);
            if exact.decisive(bound) {
                prop_assert_eq!(
                    verdict,
                    exact.wins,
                    "repaired vs exact verdict (actions={:?}, margin={:e}, top={:?})",
                    actions,
                    exact.margin,
                    exact.top
                );
            }
        }
    }
}
