//! Seeded benchmark inputs: the served graph, one round of reads
//! (recommend lists and Why-Not questions), the toggle write batches, and
//! the reference answer of every read on both graph states the writes
//! alternate between.
//!
//! **Fixed work.** A question is kept only when its reference answer did
//! its cost class's pinned amount of CHECK work (see [`Class`]). Which
//! questions a seed draws then changes little about the work in a round,
//! so class latencies compare across seeds and commits.
//!
//! **Deterministic writes.** The "add" batch inserts a few absent `rated`
//! edges and the "remove" batch deletes exactly those edges again. Removal
//! restores the adjacency lists bit for bit (the added edges sit at the
//! tail of each list), so the served graph alternates between two states:
//! even epochs serve the seed graph, odd epochs the seed graph plus the
//! batch. Every read is checked against the reference answer for the state
//! of the epoch it was served from.

use emigre_core::{EmigreConfig, Method};
use emigre_data::{AmazonHin, PreprocessConfig, SynthConfig, SynthDataset};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_ppr::PprConfig;
use emigre_rec::RecConfig;
use emigre_serve::{
    events_to_delta, reference_explain, reference_recommend, ExplainOutcome, FeedbackEvent,
    RecommendOutcome,
};

/// Fewest questions per cost class in one round. Every user of the world
/// asks one question of each class it has one for (nearly all users do,
/// on every seed), so that seeds differ in which Why-Not items are asked
/// more than in whose questions they are: a user's degree shifts the cost
/// of every explain it asks.
const MIN_PER_CLASS: usize = 32;
/// Recommendation list length; the items past the top are the Why-Not
/// candidates.
pub const LIST_K: usize = 10;
/// CHECK budget of every explain. A costly question runs all of it.
const MAX_CHECKS: usize = 16;
/// `(user, item)` pairs the toggle batch adds and removes.
const TOGGLE_PAIRS: usize = 4;

/// Cost classes of explain requests: one per heuristic of the paper,
/// each pinned to one amount of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Remove-mode Incremental (Alg. 3) answers decided by exactly one
    /// CHECK: the cached context plus one counterfactual push.
    Cheap,
    /// Add-mode Powerset (Alg. 4) answers that run the whole CHECK budget.
    Costly,
    /// Remove-mode Exhaustive Comparison (Alg. 5) answers decided without
    /// a CHECK: one reverse push per target item dominates.
    Exhaustive,
}

pub const CLASSES: [Class; 3] = [Class::Cheap, Class::Costly, Class::Exhaustive];

impl Class {
    fn method(self) -> Method {
        match self {
            Class::Cheap => Method::RemoveIncremental,
            Class::Costly => Method::AddPowerset,
            Class::Exhaustive => Method::RemoveExhaustive,
        }
    }

    /// Whether a reference answer that made `checks` CHECKs did this
    /// class's pinned work.
    fn fixed_work(self, checks: usize) -> bool {
        match self {
            Class::Cheap => checks == 1,
            Class::Costly => checks == MAX_CHECKS,
            Class::Exhaustive => checks == 0,
        }
    }
}

pub struct Question {
    pub user: NodeId,
    pub wni: NodeId,
    pub method: Method,
    pub class: Class,
    /// Reference outcome on the even-epoch and the odd-epoch graph.
    pub expected: [ExplainOutcome; 2],
}

pub enum Request {
    Recommend {
        user: NodeId,
        /// Reference list on the even-epoch and the odd-epoch graph.
        expected: [RecommendOutcome; 2],
    },
    Explain(Question),
}

pub struct Inputs {
    /// The graph in the edge-list format the service loads at start.
    pub graph_text: String,
    pub cfg: EmigreConfig,
    /// One round of reads, interleaved so that consecutive reads come from
    /// different users.
    pub round: Vec<Request>,
    /// Write batches: `toggle[epoch % 2]` publishes the next epoch.
    pub toggle: [Vec<FeedbackEvent>; 2],
}

/// splitmix64: a tiny deterministic generator for input selection.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The served configuration, resolved by type name against the parsed
/// graph as `emigre serve` would: paper PPR settings, explanations over
/// `rated`/`reviewed` edges, suggested actions typed `rated`.
fn serve_config(g: &Hin) -> Result<EmigreConfig, String> {
    let reg = g.registry();
    let item = reg.find_node_type("item").ok_or("no `item` node type")?;
    let rated = reg.find_edge_type("rated").ok_or("no `rated` edge type")?;
    let reviewed = reg
        .find_edge_type("reviewed")
        .ok_or("no `reviewed` edge type")?;
    let mut cfg = EmigreConfig::new(RecConfig::new(item).with_ppr(PprConfig::default()), rated)
        .with_edge_types(vec![rated, reviewed]);
    cfg.max_checks = MAX_CHECKS;
    Ok(cfg)
}

/// The dataset every run serves: a synthetic Amazon-style review graph
/// (users, items, reviews, categories) through the paper's preprocessing
/// pipeline. It is fixed, like a benchmark dataset, so that runs differ
/// only in the traffic their seed draws from it; a graph drawn per seed
/// shifts every latency with its size.
fn world() -> AmazonHin {
    let data = SynthDataset::generate(
        SynthConfig {
            num_users: 60,
            num_items: 600,
            num_categories: 6,
            actions_per_user: (8, 26),
            ..SynthConfig::default()
        }
        .with_seed(0x5EED_0001),
    );
    AmazonHin::build(
        &data.raw,
        &PreprocessConfig {
            sample_users: 40,
            user_activity_range: (4, 100),
            seed: 0x5EED_0002,
            ..PreprocessConfig::default()
        },
    )
}

fn apply(g: &Hin, events: &[FeedbackEvent], bidirectional: bool) -> Result<Hin, String> {
    events_to_delta(events, g, bidirectional)
        .map_err(|e| format!("toggle batch does not convert: {e}"))?
        .apply_to(g)
        .map_err(|e| format!("toggle batch does not apply: {e}"))
}

fn same_adjacency(a: &Hin, b: &Hin) -> bool {
    a.num_nodes() == b.num_nodes()
        && a.node_ids()
            .all(|n| a.out_edges(n) == b.out_edges(n) && a.in_edges(n) == b.in_edges(n))
}

fn checks(outcome: &ExplainOutcome) -> usize {
    match outcome {
        Ok(e) => e.checks_performed,
        Err(f) => f.checks_performed,
    }
}

/// Builds every input of one run from `seed`.
pub fn build(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng(seed);
    let hin = world();
    // The seed orders the users, and below each user's Why-Not items: a
    // user asks the first fixed-work question of each class found.
    let mut users = hin.users.clone();
    rng.shuffle(&mut users);
    // Reference and service both work on the parsed file, exactly as a
    // server started from this graph file would.
    let graph_text = emigre_hin::io::to_edge_list(&hin.graph);
    let base = emigre_hin::io::from_edge_list(&graph_text).map_err(|e| e.to_string())?;
    let cfg = serve_config(&base)?;
    let rated = cfg.add_edge_type;

    // Toggle batch: absent `rated` edges between sampled users and items.
    let items = base.nodes_of_type(cfg.rec.item_type);
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    while pairs.len() < TOGGLE_PAIRS {
        let user = users[rng.below(users.len())];
        let item = items[rng.below(items.len())];
        if !base.has_edge(user, item, rated) && !pairs.contains(&(user, item)) {
            pairs.push((user, item));
        }
    }
    let add: Vec<FeedbackEvent> = pairs
        .iter()
        .map(|&(u, i)| FeedbackEvent::add(u.0, i.0, "rated", 1.0))
        .collect();
    let remove: Vec<FeedbackEvent> = pairs
        .iter()
        .map(|&(u, i)| FeedbackEvent::remove(u.0, i.0, "rated"))
        .collect();
    let bidirectional = cfg.bidirectional_actions;
    let plus = apply(&base, &add, bidirectional)?;
    if !same_adjacency(&apply(&plus, &remove, bidirectional)?, &base) {
        return Err("the remove batch does not restore the seed graph".to_owned());
    }

    // Questions valid on both states whose reference did the class's
    // pinned work.
    let mut per_user: Vec<Vec<Request>> = Vec::new();
    let mut taken = [0usize; CLASSES.len()];
    for &user in &users {
        let (Ok(list0), Ok(list1)) = (
            reference_recommend(&base, &cfg, user, LIST_K),
            reference_recommend(&plus, &cfg, user, LIST_K),
        ) else {
            continue;
        };
        let mut wnis: Vec<NodeId> = list0.iter().skip(1).map(|&(item, _)| item).collect();
        rng.shuffle(&mut wnis);
        let mut reads = Vec::new();
        let mut asked = [false; CLASSES.len()];
        for wni in wnis {
            for class in CLASSES {
                let k = class as usize;
                if asked[k] {
                    continue;
                }
                let method = class.method();
                let Ok(even) = reference_explain(&base, &cfg, user, wni, method) else {
                    continue;
                };
                if !class.fixed_work(checks(&even)) {
                    continue;
                }
                let Ok(odd) = reference_explain(&plus, &cfg, user, wni, method) else {
                    continue;
                };
                reads.push(Request::Explain(Question {
                    user,
                    wni,
                    method,
                    class,
                    expected: [even, odd],
                }));
                taken[k] += 1;
                asked[k] = true;
            }
        }
        if !reads.is_empty() {
            reads.insert(
                0,
                Request::Recommend {
                    user,
                    expected: [list0, list1],
                },
            );
            per_user.push(reads);
        }
    }
    if taken.iter().any(|&n| n < MIN_PER_CLASS) {
        return Err(format!(
            "seed {seed}: found {taken:?} fixed-work questions per class, need {MIN_PER_CLASS} each"
        ));
    }

    // Interleave: the first read of every user, then the second, ...
    let longest = per_user.iter().map(Vec::len).max().unwrap_or(0);
    let mut queues: Vec<_> = per_user.into_iter().map(Vec::into_iter).collect();
    let mut round = Vec::new();
    for _ in 0..longest {
        round.extend(queues.iter_mut().filter_map(Iterator::next));
    }
    Ok(Inputs {
        graph_text,
        cfg,
        round,
        toggle: [add, remove],
    })
}
