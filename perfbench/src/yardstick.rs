//! A fixed unit of work timed next to every measured request.
//!
//! The benchmark shares its host with other machines' work, and the host's
//! speed drifts by a third within minutes; every latency drifts with it.
//! The yardstick is a personalized-PageRank forward push over the served
//! graph — the kind of work an explain is made of — in the benchmark's own
//! code, so no change to the service moves it. Timed right before a
//! request, it runs at the same host speed, and a latency divided by it
//! stays put while the host speeds up and slows down.

use emigre_hin::Hin;
use std::time::Instant;

/// Teleport probability of the push, as in the paper's PPR settings.
const ALPHA: f64 = 0.15;
/// Residual threshold per unit of out-degree: sized so one push takes
/// about a millisecond on a 2-vCPU Xeon, a fraction of a cheap explain.
const EPS: f64 = 1e-5;

pub struct Yardstick {
    /// Row offsets, destinations and transition probabilities of the
    /// served graph's out-edges.
    offsets: Vec<usize>,
    dsts: Vec<u32>,
    probs: Vec<f64>,
    /// The node with the most out-edges: the push starts there.
    source: usize,
}

impl Yardstick {
    pub fn new(g: &Hin) -> Self {
        let (mut offsets, mut dsts, mut probs) = (vec![0], Vec::new(), Vec::new());
        for n in g.node_ids() {
            let out = g.out_edges(n);
            let total: f64 = out.iter().map(|e| e.weight).sum();
            for e in out {
                dsts.push(e.node.0);
                probs.push(e.weight / total);
            }
            offsets.push(dsts.len());
        }
        let degree = |u: usize| offsets[u + 1] - offsets[u];
        let source = (0..offsets.len() - 1)
            .max_by_key(|&u| (degree(u), std::cmp::Reverse(u)))
            .unwrap_or(0);
        Yardstick {
            offsets,
            dsts,
            probs,
            source,
        }
    }

    /// Runs one push and returns its wall time in milliseconds.
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        let n = self.offsets.len() - 1;
        let (mut est, mut res) = (vec![0.0f64; n], vec![0.0f64; n]);
        let mut queue = std::collections::VecDeque::from([self.source]);
        res[self.source] = 1.0;
        while let Some(u) = queue.pop_front() {
            let r = std::mem::take(&mut res[u]);
            est[u] += ALPHA * r;
            let push = (1.0 - ALPHA) * r;
            for k in self.offsets[u]..self.offsets[u + 1] {
                let v = self.dsts[k] as usize;
                let threshold = EPS * (self.offsets[v + 1] - self.offsets[v]).max(1) as f64;
                let before = res[v];
                res[v] += push * self.probs[k];
                if before < threshold && res[v] >= threshold {
                    queue.push_back(v);
                }
            }
        }
        std::hint::black_box(&est);
        t.elapsed().as_secs_f64() * 1e3
    }
}
