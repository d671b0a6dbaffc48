//! Synthetic Amazon-style review data.
//!
//! Stands in for the withdrawn Amazon Customer Review dataset. The
//! generator is calibrated so that, after the §6.1 preprocessing, the graph
//! reproduces the paper's Table 4 in shape: ~120 users averaging degree
//! ~22, ~7.5k items with a long-tailed popularity distribution, 32
//! categories of wildly varying size, and ~2.3k review nodes of degree
//! ~2.3. All randomness flows from one explicit seed through ChaCha8, so
//! a configuration generates the same dataset on every platform, forever.

use rand::distributions::{Distribution, WeightedIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One user-item interaction: a star rating plus (usually) review text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interaction {
    pub user: usize,
    pub item: usize,
    /// 1–5 stars.
    pub stars: u8,
    /// Review text; `None` for rating-only interactions.
    pub review: Option<String>,
}

/// Raw (pre-graph) dataset: the common shape produced by the synthetic
/// generator and by [`crate::loader`] for the real TSV format.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RawDataset {
    pub num_users: usize,
    /// `item_categories[i]` = category indices of item `i`.
    pub item_categories: Vec<Vec<usize>>,
    pub category_names: Vec<String>,
    pub interactions: Vec<Interaction>,
}

impl RawDataset {
    pub fn num_items(&self) -> usize {
        self.item_categories.len()
    }

    /// Number of interactions per user.
    pub fn user_action_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_users];
        for i in &self.interactions {
            counts[i.user] += 1;
        }
        counts
    }
}

/// Generator configuration. Defaults reproduce the paper's Table 4 scale;
/// tests and benches shrink it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    pub num_users: usize,
    pub num_items: usize,
    pub num_categories: usize,
    /// Interactions per user are drawn uniformly from this inclusive range.
    pub actions_per_user: (usize, usize),
    /// Probability that an interaction carries review text.
    pub review_probability: f64,
    /// Probability that an item belongs to a second category.
    pub second_category_probability: f64,
    /// Zipf exponent of item popularity (0 = uniform; ~1 = web-like skew).
    pub popularity_exponent: f64,
    /// Probability that an interaction targets one of the user's preferred
    /// categories (taste clustering). Real review data is strongly
    /// clustered by taste; without it, synthetic users spread PPR mass so
    /// thinly that Why-Not explanations degenerate into bulk edits.
    pub taste_affinity: f64,
    /// Zipf exponent of category sizes (drives Table 4's huge category-
    /// degree standard deviation).
    pub category_exponent: f64,
    /// Weights of star ratings 1..=5 (the preprocessing keeps > 3 only, so
    /// the 4/5 mass determines the final graph size).
    pub star_weights: [f64; 5],
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            num_users: 120,
            num_items: 7459,
            num_categories: 32,
            actions_per_user: (14, 40),
            review_probability: 0.85,
            second_category_probability: 0.57,
            popularity_exponent: 0.8,
            taste_affinity: 0.8,
            category_exponent: 1.0,
            star_weights: [0.06, 0.06, 0.10, 0.26, 0.52],
            seed: 0xE141_6E5E,
        }
    }
}

impl SynthConfig {
    /// A laptop-instant configuration for tests and examples.
    pub fn small() -> Self {
        SynthConfig {
            num_users: 25,
            num_items: 300,
            num_categories: 6,
            actions_per_user: (8, 24),
            ..Self::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn validate(&self) {
        assert!(self.num_users > 0 && self.num_items > 1 && self.num_categories > 0);
        assert!(self.actions_per_user.0 >= 1);
        assert!(self.actions_per_user.0 <= self.actions_per_user.1);
        assert!(self.actions_per_user.1 < self.num_items);
        assert!((0.0..=1.0).contains(&self.review_probability));
        assert!((0.0..=1.0).contains(&self.second_category_probability));
        assert!((0.0..=1.0).contains(&self.taste_affinity));
        assert!(self.star_weights.iter().all(|&w| w >= 0.0));
        assert!(self.star_weights.iter().sum::<f64>() > 0.0);
    }
}

/// Zipf-like sampler over `0..n`: index `i` has weight `1/(i+1)^s`.
/// Identity mapping from rank to index — callers shuffle if needed.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }
}

/// Category-flavoured vocabulary for review text, so reviews of items in
/// the same category share tokens and the embedder links them.
const SENTIMENT_POSITIVE: &[&str] = &[
    "loved",
    "excellent",
    "wonderful",
    "great",
    "amazing",
    "perfect",
    "recommend",
];
const SENTIMENT_NEGATIVE: &[&str] = &[
    "disappointing",
    "broken",
    "terrible",
    "waste",
    "refund",
    "awful",
    "poor",
];
const TOPIC_WORDS: &[&str] = &[
    "story",
    "battery",
    "fabric",
    "flavor",
    "pages",
    "sound",
    "screen",
    "plot",
    "material",
    "taste",
    "author",
    "charger",
    "fit",
    "aroma",
    "binding",
    "bass",
    "display",
    "characters",
    "stitching",
    "texture",
];

fn review_text<R: Rng>(rng: &mut R, category: usize, stars: u8) -> String {
    let sentiment = if stars >= 4 {
        SENTIMENT_POSITIVE
    } else {
        SENTIMENT_NEGATIVE
    };
    // Each category draws from a window of the topic vocabulary, giving
    // same-category reviews overlapping tokens.
    let base = (category * 3) % TOPIC_WORDS.len();
    let mut words: Vec<&str> = Vec::new();
    for _ in 0..rng.gen_range(3..7) {
        if rng.gen_bool(0.6) {
            let off = rng.gen_range(0..5);
            words.push(TOPIC_WORDS[(base + off) % TOPIC_WORDS.len()]);
        } else {
            words.push(sentiment[rng.gen_range(0..sentiment.len())]);
        }
    }
    words.join(" ")
}

/// The synthetic dataset: a [`RawDataset`] plus the configuration that
/// produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthDataset {
    pub config: SynthConfig,
    pub raw: RawDataset,
}

impl SynthDataset {
    /// Generates the dataset. Deterministic in `config` (including seed).
    pub fn generate(config: SynthConfig) -> Self {
        config.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        // Categories per item, sizes skewed by the category Zipf.
        let cat_zipf = Zipf::new(config.num_categories, config.category_exponent);
        let mut item_categories: Vec<Vec<usize>> = Vec::with_capacity(config.num_items);
        for _ in 0..config.num_items {
            let primary = cat_zipf.sample(&mut rng);
            let mut cats = vec![primary];
            if rng.gen_bool(config.second_category_probability) {
                let secondary = cat_zipf.sample(&mut rng);
                if secondary != primary {
                    cats.push(secondary);
                }
            }
            item_categories.push(cats);
        }

        // Per-category item pools (in item order, so the global Zipf rank
        // ordering carries over into each pool).
        let mut category_items: Vec<Vec<usize>> = vec![Vec::new(); config.num_categories];
        for (item, cats) in item_categories.iter().enumerate() {
            for &c in cats {
                category_items[c].push(item);
            }
        }

        // Interactions: per user, Zipf-popular items without repetition,
        // biased towards the user's preferred categories.
        let item_zipf = Zipf::new(config.num_items, config.popularity_exponent);
        let star_dist = WeightedIndex::new(config.star_weights).expect("validated star weights");
        let mut interactions = Vec::new();
        for user in 0..config.num_users {
            // 1-2 preferred categories per user, Zipf-favouring big ones.
            let mut prefs = vec![cat_zipf.sample(&mut rng)];
            if rng.gen_bool(0.5) {
                let second = cat_zipf.sample(&mut rng);
                if second != prefs[0] {
                    prefs.push(second);
                }
            }
            let pref_zipfs: Vec<Zipf> = prefs
                .iter()
                .map(|&c| Zipf::new(category_items[c].len().max(1), config.popularity_exponent))
                .collect();

            let k = rng.gen_range(config.actions_per_user.0..=config.actions_per_user.1);
            let mut chosen: Vec<usize> = Vec::with_capacity(k);
            let mut attempts = 0usize;
            while chosen.len() < k && attempts < 50 * k {
                attempts += 1;
                let pi = rng.gen_range(0..prefs.len());
                let item = if rng.gen_bool(config.taste_affinity)
                    && !category_items[prefs[pi]].is_empty()
                {
                    category_items[prefs[pi]][pref_zipfs[pi].sample(&mut rng)]
                } else {
                    item_zipf.sample(&mut rng)
                };
                if !chosen.contains(&item) {
                    chosen.push(item);
                }
            }
            for item in chosen {
                let stars = (star_dist.sample(&mut rng) + 1) as u8;
                let review = if rng.gen_bool(config.review_probability) {
                    let cat = item_categories[item][0];
                    Some(review_text(&mut rng, cat, stars))
                } else {
                    None
                };
                interactions.push(Interaction {
                    user,
                    item,
                    stars,
                    review,
                });
            }
        }

        let category_names = (0..config.num_categories)
            .map(|c| format!("category-{c:02}"))
            .collect();
        SynthDataset {
            raw: RawDataset {
                num_users: config.num_users,
                item_categories,
                category_names,
                interactions,
            },
            config,
        }
    }
}

// ---------------------------------------------------------------------------
// Million-node scale substrate: a streaming power-law bipartite generator.

/// Configuration of the streaming scale generator ([`ScaleGen`]).
///
/// Unlike [`SynthConfig`] — which materialises a full review dataset with
/// text, categories and stars — this generator produces only the rated
/// bipartite user↔item structure, but does so as a *stream*: edges are
/// emitted user by user from per-user RNG streams, so a graph with
/// millions of nodes and tens of millions of edges can be consumed (into
/// a transition CSR, a file, a sketch) without ever materialising adjacency
/// for more than one chunk of users.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleSpec {
    pub num_users: usize,
    pub num_items: usize,
    /// Every user gets at least this many interactions.
    pub base_degree: usize,
    /// Hard cap on a user's interactions (keeps single rows bounded).
    pub max_degree: usize,
    /// Zipf exponent of the *extra*-degree distribution: small exponents
    /// mean heavier-tailed users. Must not be exactly 1 (the continuous
    /// inverse CDF has a removable pole there; use 0.999… if needed).
    pub degree_exponent: f64,
    /// Zipf exponent of item popularity (rank = item index).
    pub popularity_exponent: f64,
    pub seed: u64,
}

impl ScaleSpec {
    /// A preset holding the user:item ratio at 1:9 — the shape of the
    /// paper's Table 4 — at any total node count. Used by the bench
    /// `--scale {10k,100k,1m}` sweep.
    pub fn with_total_nodes(total: usize, seed: u64) -> Self {
        let num_users = (total / 10).max(1);
        ScaleSpec {
            num_users,
            num_items: (total - num_users).max(2),
            base_degree: 4,
            max_degree: 256,
            degree_exponent: 1.7,
            popularity_exponent: 0.9,
            seed,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_users + self.num_items
    }

    pub fn validate(&self) {
        assert!(self.num_users > 0 && self.num_items > 1);
        assert!(self.base_degree >= 1);
        assert!(self.base_degree <= self.max_degree);
        assert!(self.max_degree < self.num_items);
        assert!(self.degree_exponent > 0.0 && (self.degree_exponent - 1.0).abs() > 1e-6);
        assert!(self.popularity_exponent > 0.0 && (self.popularity_exponent - 1.0).abs() > 1e-6);
        assert!(
            self.num_users as u64 <= u32::MAX as u64 && self.num_items as u64 <= u32::MAX as u64,
            "node ids must fit u32"
        );
    }
}

/// SplitMix64: the standard 64-bit mix used to derive independent
/// per-user seeds from `(seed, user)`. Per-user streams are the point:
/// user `u`'s edges depend only on `(seed, u)`, never on generation
/// order or chunk size, which is what makes chunked emission
/// byte-identical at any chunk granularity.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Continuous bounded Zipf via inverse-CDF: returns a value in `[1, n]`
/// with density ∝ `x^(-s)`, `s ≠ 1`, in O(1) with no `O(n)` tables —
/// the property that keeps generator memory independent of graph size.
fn zipf_sample<R: Rng>(rng: &mut R, n: f64, s: f64) -> f64 {
    let one_minus_s = 1.0 - s;
    let v: f64 = rng.gen_range(0.0..1.0);
    (1.0 + v * (n.powf(one_minus_s) - 1.0)).powf(1.0 / one_minus_s)
}

/// The streaming power-law generator. Node ids: users are `0..U`, items
/// are `U..U+I`; every emitted edge is `(user, item, weight)` with the
/// item id ascending within each user — exactly the order the §6.1
/// bidirectional preprocessing would insert them, so a mirrored stream
/// build reproduces the materialised graph bit for bit.
pub struct ScaleGen {
    spec: ScaleSpec,
}

impl ScaleGen {
    pub fn new(spec: ScaleSpec) -> Self {
        spec.validate();
        ScaleGen { spec }
    }

    pub fn spec(&self) -> &ScaleSpec {
        &self.spec
    }

    /// First item node id (`== num_users`).
    pub fn item_base(&self) -> u32 {
        self.spec.num_users as u32
    }

    /// Generates user `u`'s interactions into `out` as
    /// `(item_node_id, weight)` pairs, ascending by item, deduplicated.
    /// Deterministic in `(spec.seed, u)` alone.
    pub fn user_edges(&self, user: u32, out: &mut Vec<(u32, f64)>) {
        out.clear();
        let s = &self.spec;
        let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(s.seed ^ (user as u64).rotate_left(17)));
        let extra_span = (s.max_degree - s.base_degree) as f64 + 1.0;
        let extra = zipf_sample(&mut rng, extra_span, s.degree_exponent) as usize - 1;
        let degree = (s.base_degree + extra).min(s.max_degree);
        for _ in 0..degree {
            let rank = zipf_sample(&mut rng, s.num_items as f64, s.popularity_exponent);
            let item = (rank as usize - 1).min(s.num_items - 1) as u32;
            let stars = rng.gen_range(1..=5) as f64;
            out.push((self.item_base() + item, stars));
        }
        // Ascending by item; duplicates keep the first draw so the result
        // is still a pure function of the user's RNG stream.
        out.sort_by_key(|&(item, _)| item);
        out.dedup_by_key(|&mut (item, _)| item);
    }

    /// Streams every edge to `emit`, processing users in chunks of
    /// `chunk_users` (≥ 1). Peak generator memory is `O(chunk_users ·
    /// max_degree)` — the reused chunk buffer — independent of the graph
    /// size. The emitted sequence is identical for every chunk size.
    pub fn for_each_edge<F: FnMut(u32, u32, f64)>(&self, chunk_users: usize, mut emit: F) {
        assert!(chunk_users >= 1);
        let mut chunk: Vec<(u32, u32, f64)> = Vec::new();
        let mut row: Vec<(u32, f64)> = Vec::new();
        let mut user = 0u32;
        while (user as usize) < self.spec.num_users {
            chunk.clear();
            let end = (user as usize)
                .saturating_add(chunk_users)
                .min(self.spec.num_users) as u32;
            while user < end {
                self.user_edges(user, &mut row);
                chunk.extend(row.iter().map(|&(item, w)| (user, item, w)));
                user += 1;
            }
            for &(u, i, w) in &chunk {
                emit(u, i, w);
            }
        }
    }

    /// Total directed edge count of the *bidirectionalised* graph
    /// (2 × interactions), streamed in `O(1)` memory.
    pub fn num_directed_edges(&self) -> usize {
        let mut interactions = 0usize;
        self.for_each_edge(1024, |_, _, _| interactions += 1);
        2 * interactions
    }

    /// Builds the transition CSR directly from the stream — the
    /// million-node path. Peak memory is the CSR itself plus one chunk
    /// buffer; no [`Hin`](emigre_hin::Hin) adjacency `Vec`s are ever
    /// allocated.
    pub fn build_compact(
        &self,
        model: emigre_ppr::TransitionModel,
        chunk_users: usize,
    ) -> emigre_ppr::TransitionCsr {
        emigre_ppr::TransitionCsr::from_edge_stream(self.num_nodes(), model, true, |sink| {
            self.for_each_edge(chunk_users, &mut *sink)
        })
    }

    fn num_nodes(&self) -> usize {
        self.spec.num_nodes()
    }

    /// Materialises the full mutable graph — `user`/`item` node types, a
    /// single bidirectional `rated` edge type — for specs small enough to
    /// hold both adjacency directions in memory (tests, the 10k/100k CI
    /// legs). Insertion order matches [`ScaleGen::for_each_edge`], so a
    /// mirrored stream build of the same spec is bit-identical to
    /// building a kernel over this graph.
    pub fn materialize_hin(&self) -> emigre_hin::Hin {
        let mut g = emigre_hin::Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        for _ in 0..self.spec.num_users {
            g.add_node(user_t, None);
        }
        for _ in 0..self.spec.num_items {
            g.add_node(item_t, None);
        }
        self.for_each_edge(1024, |u, i, w| {
            g.add_edge_bidirectional(emigre_hin::NodeId(u), emigre_hin::NodeId(i), rated, w)
                .expect("generator emits unique, in-range edges");
        });
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SynthDataset::generate(SynthConfig::small());
        let b = SynthDataset::generate(SynthConfig::small());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthDataset::generate(SynthConfig::small());
        let b = SynthDataset::generate(SynthConfig::small().with_seed(7));
        assert_ne!(a.raw.interactions, b.raw.interactions);
    }

    #[test]
    fn action_counts_respect_range() {
        let cfg = SynthConfig::small();
        let d = SynthDataset::generate(cfg.clone());
        for c in d.raw.user_action_counts() {
            assert!(c >= cfg.actions_per_user.0 && c <= cfg.actions_per_user.1);
        }
    }

    #[test]
    fn no_duplicate_interactions_per_user() {
        let d = SynthDataset::generate(SynthConfig::small());
        let mut seen = std::collections::HashSet::new();
        for i in &d.raw.interactions {
            assert!(
                seen.insert((i.user, i.item)),
                "duplicate {:?}",
                (i.user, i.item)
            );
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let d = SynthDataset::generate(SynthConfig::small());
        let mut counts = vec![0usize; d.raw.num_items()];
        for i in &d.raw.interactions {
            counts[i.item] += 1;
        }
        // Zipf with identity rank→index: early items must dominate the tail.
        let head: usize = counts[..30].iter().sum();
        let tail: usize = counts[counts.len() - 30..].iter().sum();
        assert!(head > 3 * tail.max(1), "head {head} vs tail {tail}");
    }

    #[test]
    fn every_item_has_one_or_two_categories() {
        let d = SynthDataset::generate(SynthConfig::small());
        for cats in &d.raw.item_categories {
            assert!(!cats.is_empty() && cats.len() <= 2);
            if cats.len() == 2 {
                assert_ne!(cats[0], cats[1]);
            }
        }
    }

    #[test]
    fn review_probability_is_roughly_respected() {
        let d = SynthDataset::generate(SynthConfig::small());
        let with_review = d
            .raw
            .interactions
            .iter()
            .filter(|i| i.review.is_some())
            .count();
        let frac = with_review as f64 / d.raw.interactions.len() as f64;
        assert!((frac - 0.85).abs() < 0.1, "review fraction {frac}");
    }

    #[test]
    fn star_distribution_favours_high_ratings() {
        let d = SynthDataset::generate(SynthConfig::small());
        let good = d.raw.interactions.iter().filter(|i| i.stars > 3).count();
        let frac = good as f64 / d.raw.interactions.len() as f64;
        assert!(frac > 0.6, "good-rating fraction {frac}");
    }

    #[test]
    fn default_config_is_table4_scale() {
        let c = SynthConfig::default();
        assert_eq!(c.num_users, 120);
        assert_eq!(c.num_items, 7459);
        assert_eq!(c.num_categories, 32);
        c.validate();
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        SynthConfig {
            actions_per_user: (10, 5),
            ..SynthConfig::default()
        }
        .validate();
    }

    fn scale_gen(total: usize) -> ScaleGen {
        ScaleGen::new(ScaleSpec::with_total_nodes(total, 0xC0FFEE))
    }

    fn collect_edges(gen: &ScaleGen, chunk: usize) -> Vec<(u32, u32, u64)> {
        let mut v = Vec::new();
        gen.for_each_edge(chunk, |u, i, w| v.push((u, i, w.to_bits())));
        v
    }

    #[test]
    fn scale_stream_is_chunk_size_invariant() {
        let gen = scale_gen(2000);
        let whole = collect_edges(&gen, usize::MAX);
        for chunk in [1usize, 7, 1024] {
            assert_eq!(collect_edges(&gen, chunk), whole, "chunk={chunk}");
        }
    }

    #[test]
    fn scale_stream_is_seed_deterministic_and_seed_sensitive() {
        let a = collect_edges(&scale_gen(1000), 64);
        let b = collect_edges(&scale_gen(1000), 64);
        assert_eq!(a, b);
        let other = ScaleGen::new(ScaleSpec::with_total_nodes(1000, 7));
        assert_ne!(collect_edges(&other, 64), a);
    }

    #[test]
    fn scale_edges_are_sorted_unique_and_in_range() {
        let gen = scale_gen(3000);
        let spec = gen.spec().clone();
        let mut last_user = 0u32;
        let mut last_item = 0u32;
        gen.for_each_edge(128, |u, i, w| {
            assert!((u as usize) < spec.num_users);
            assert!((i as usize) >= spec.num_users && (i as usize) < spec.num_nodes());
            assert!((1.0..=5.0).contains(&w));
            if u == last_user {
                assert!(i > last_item || (last_item == 0 && last_user == 0));
            } else {
                assert!(u > last_user, "users must stream in ascending order");
            }
            last_user = u;
            last_item = i;
        });
    }

    #[test]
    fn scale_degrees_respect_bounds() {
        let gen = scale_gen(2000);
        let spec = gen.spec().clone();
        let mut row = Vec::new();
        for u in 0..spec.num_users as u32 {
            gen.user_edges(u, &mut row);
            // Dedup can only shrink below base_degree on pathological
            // collisions; the cap is hard.
            assert!(row.len() <= spec.max_degree, "user {u}");
            assert!(!row.is_empty(), "user {u} generated no edges");
        }
    }

    #[test]
    fn scale_popularity_has_a_zipf_tail() {
        let gen = scale_gen(20_000);
        let spec = gen.spec().clone();
        let mut item_deg = vec![0usize; spec.num_items];
        let mut total = 0usize;
        gen.for_each_edge(1024, |_, i, _| {
            item_deg[i as usize - spec.num_users] += 1;
            total += 1;
        });
        // Head dominance: the top 1% of items by rank carry a share of
        // the edge mass far beyond uniform (1%), and the deep tail is
        // populated but sparse.
        let head: usize = item_deg[..spec.num_items / 100].iter().sum();
        let head_share = head as f64 / total as f64;
        assert!(head_share > 0.08, "head share {head_share}");
        let tail_half: usize = item_deg[spec.num_items / 2..].iter().sum();
        let tail_share = tail_half as f64 / total as f64;
        assert!(tail_share < 0.35, "tail share {tail_share}");
        assert!(tail_half > 0, "the tail must not be empty");
        // And user degrees are long-tailed too: some user far exceeds the
        // base degree.
        let mut row = Vec::new();
        let max_deg = (0..spec.num_users as u32)
            .map(|u| {
                gen.user_edges(u, &mut row);
                row.len()
            })
            .max()
            .unwrap();
        assert!(max_deg > 4 * spec.base_degree, "max user degree {max_deg}");
    }

    #[test]
    fn scale_materialized_graph_matches_stream_counts() {
        let gen = scale_gen(1200);
        let g = gen.materialize_hin();
        assert_eq!(emigre_hin::GraphView::num_nodes(&g), gen.spec().num_nodes());
        assert_eq!(
            emigre_hin::GraphView::num_edges(&g),
            gen.num_directed_edges()
        );
    }

    #[test]
    #[should_panic]
    fn scale_spec_rejects_exponent_one() {
        ScaleSpec {
            popularity_exponent: 1.0,
            ..ScaleSpec::with_total_nodes(1000, 1)
        }
        .validate();
    }
}
