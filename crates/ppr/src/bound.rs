//! Certified intervals for a counterfactual PPR score, read through a
//! base-graph column.
//!
//! A CHECK pushes `π′(u, ·)`, PPR from the user on an edited graph with
//! transition matrix `W′ = W + ΔW`, in a [`PushWorkspace`], and reads each
//! score's error off the residuals. The residual-mass interval
//! `π′(u,t) ∈ [p(t) − R, p(t) + R]`, `R = Σ|r|`, holds for every target
//! at once because it charges every unit of residual mass to every score.
//! For a target whose base-graph column `c ≈ π(·, t)` (Reverse Local Push,
//! Eq. 4) is already at hand, the same residuals can be priced through the
//! column instead: the forward/reverse pairing of Zhang–Lofgren–Goel.
//! Where the residual mass sits on nodes far from `t`, which is where a
//! coarse stage leaves it, the column interval is orders of magnitude
//! narrower. [`ColumnBound`] derives it.

use crate::config::PprConfig;
use crate::kernel::{CsrRows, PatchedCsr};
use crate::reverse::ReversePush;
use crate::workspace::PushWorkspace;
use std::sync::Arc;

/// δ: how far a stored transition row may sum above 1. See the slack
/// section of [`ColumnBound`].
const ROW_SUM_EXCESS: f64 = 1.0 / (1u64 << 20) as f64;

/// The certified interval of `π′(u, t)` for one target `t`, from its
/// base-graph column `c`.
///
/// ## The bound
///
/// With `q = p(t) + Σ_v r(v)·c(v)` and `R = Σ|r|`,
///
/// ```text
/// π′(u,t) ∈ [q − E, q + E] ∩ [p(t) − R, p(t) + R]
/// E = R·( ε_c + (1−α)/α · Σ_{x ∈ touched rows} ( |Σ_y ΔW(x,y)·c(y)| + 2ε_c ) )
/// ```
///
/// where `ε_c = max|ρ|` is the column's largest residual. Write
/// `Π = α(I − (1−α)W)⁻¹` for the base PPR matrix and `Π′` for the edited
/// one. Three facts give the bound:
///
/// 1. Eq. 3 on the edited graph: `π′(u,t) = p(t) + Σ_v r(v)·π′(v,t)`.
/// 2. The resolvent identity `Π′ − Π = (1−α)/α · Π′·ΔW·Π`, that is
///    `π′(v,t) = π(v,t) + (1−α)/α · Σ_x π′(v,x)·Σ_y ΔW(x,y)·π(y,t)`, with
///    `x` over the rows `ΔW` touches.
/// 3. Eq. 4 for the column: `π(y,t) = c(y) + Σ_x π(y,x)·ρ(x)`, so
///    `|π(y,t) − c(y)| ≤ ε_c`, since a row of `Π` sums to at most 1.
///
/// Substituting 2 into 1 and splitting `π = c + (π − c)` gives
///
/// ```text
/// π′(u,t) − q = Σ_v r(v)·(π(v,t) − c(v))
///             + (1−α)/α · Σ_x [Σ_v r(v)·π′(v,x)] · [Σ_y ΔW(x,y)·π(y,t)]
/// ```
///
/// The first sum is at most `R·ε_c` by 3. Each `|Σ_v r(v)·π′(v,x)|` is at
/// most `R`, since `0 ≤ π′(v,x) ≤ 1`. Each `|Σ_y ΔW(x,y)·π(y,t)|` is at
/// most `|Σ_y ΔW(x,y)·c(y)| + 2ε_c` by 3, since a row difference has
/// `Σ_y |ΔW(x,y)| ≤ 2`. The second interval is 1 with `0 ≤ π′ ≤ 1`.
///
/// `Σ_v r(v)·c(v)` costs `O(touched)` per stage
/// ([`PushWorkspace::residual_dot`]) after one `O(n)` dot over the base
/// state ([`ColumnBound::new`]); the row terms cost `O(Σ deg(touched))`
/// once per CHECK ([`ColumnBound::edit_shift`]).
///
/// ## Slack
///
/// The bound is evaluated in floating point over stored rows, so the code
/// widens it twice. Write u = `f64::EPSILON`/2 for the unit roundoff, n
/// for the node count, and g = 8·(n + 16)·u; n < 2³² keeps g below 2⁻¹⁷.
///
/// *Row sums.* A stored row sums to at most 1 + δ, δ = 2⁻²⁰.
/// An `f64` row `w/Σw`, normalised by a weight sum that is itself a left
/// fold, sums to 1 within (deg + 3)·u ≤ 2⁻²¹ + 2⁻⁵⁰, because a
/// `u32`-offset CSR holds fewer than 2³² entries. A row of `Π` or `Π′`
/// then sums to at most 1 + η, η = (1−α)δ / (α − (1−α)δ), and the three
/// facts above weaken to `|π − c| ≤ (1+η)·ε_c`,
/// `|Σ_v r(v)·π′(v,x)| ≤ (1+η)·R` and `Σ_y |ΔW(x,y)| ≤ 2(1+δ)`.
///
/// *Rounding.* Every sum the bound reads is a left fold of at most n + 3
/// terms, whose magnitudes are bounded by the residual masses and by
/// `|c| ≤ 2` (a column is a non-negative under-estimate of `π(·,t)`, at
/// most 1 + η). Let B be the base state's Σ|r| and m ≤ n the touched
/// count. Then, up to second-order terms in u:
///
/// - the computed mass R̂ ([`PushWorkspace::residual_mass`]) is within
///   (n + m + 1)·u·(R + B) + u·R̂ of R, so R̄ = R̂·(1 + g) + g·B ≥ R;
/// - the computed q̂ is within 2(n + m + 3)·u·(R + B) + u·(|Σ r·c| + |q̂|)
///   of q, at most g·(R̄ + B + |q̂|);
/// - a row's computed `|Σ_y ΔW(x,y)·c(y)|`, two folds of deg′ and deg
///   products and their difference, is within 3u·(deg′ + deg + 2) + 4u ≤ g
///   of the exact one, so each touched row adds g;
/// - forming E over k ≤ n touched rows and subtracting it from q̂ rounds
///   at most k + 12 times, a relative (k + 12)·u ≤ g.
///
/// So, with `shift = Σ_x ( |Σ_y ΔW(x,y)·c(y)| + 2(1+δ)(1+η)·ε_c + g )`
/// computed once per CHECK, the interval [`ColumnBound::interval`] returns
///
/// ```text
/// Ê = (1+η)²(1+g)·R̄·(ε_c + (1−α)/α · shift) + g·(R̄ + B + |q̂|)
/// T̂ = (1+η)(1+g)·R̄ + g·p(t)
/// [max(q̂ − Ê, p(t) − T̂), min(q̂ + Ê, p(t) + T̂)]
/// ```
///
/// contains `π′(u,t)`. Like every interval test of the CHECK, the
/// argument takes Eq. 3 for the push state and Eq. 4 for the column as
/// exact. Their own drift is the push loops' rounding, which the mass
/// conservation suites bound at ~1e-16 per push.
#[derive(Clone, Debug)]
pub struct ColumnBound {
    column: Arc<ReversePush>,
    /// `Σ_v r_base(v)·c(v)` over the base state the bound was built for.
    base_dot: f64,
    /// B: that base state's Σ|r|.
    base_mass: f64,
    /// ε_c: the column's largest |residual|.
    col_eps: f64,
    /// (1−α)/α.
    gain: f64,
    /// η: how far a row of `Π` or `Π′` may sum above 1.
    eta: f64,
    /// g: the rounding allowance.
    g: f64,
}

impl ColumnBound {
    /// Prepares `column` for bounding pushes that start from `ws`'s base
    /// state, or from any workspace loaded with the same base: one `O(n)`
    /// pass over the column, between transactions.
    pub fn new(cfg: &PprConfig, ws: &PushWorkspace, column: Arc<ReversePush>) -> Self {
        let alpha = cfg.alpha;
        let leak = (1.0 - alpha) * ROW_SUM_EXCESS;
        // α ≤ (1−α)δ leaves Π's row sums unbounded: the interval is then
        // infinite (or NaN) and decides nothing.
        let eta = if alpha > leak {
            leak / (alpha - leak)
        } else {
            f64::INFINITY
        };
        ColumnBound {
            base_dot: ws.base_dot(&column.estimates),
            base_mass: ws.base_mass(),
            col_eps: column
                .residuals
                .iter()
                .fold(0.0, |m: f64, r| m.max(r.abs())),
            gain: (1.0 - alpha) / alpha,
            eta,
            g: 8.0 * (ws.num_nodes() as f64 + 16.0) * (f64::EPSILON / 2.0),
            column,
        }
    }

    /// The per-CHECK row term of the bound,
    /// `Σ_x ( |Σ_y ΔW(x,y)·c(y)| + 2(1+δ)(1+η)·ε_c + g )` over the rows
    /// `edited` overrides, `ΔW` being each override minus its base row. In
    /// `O(Σ deg)` over those rows, old and new.
    pub fn edit_shift(&self, edited: &PatchedCsr<'_>) -> f64 {
        let c = &self.column.estimates;
        let dot = |(dsts, probs): (&[u32], &[f64])| -> f64 {
            dsts.iter()
                .zip(probs)
                .map(|(&y, p)| p * c[y as usize])
                .sum()
        };
        let per_row = 2.0 * (1.0 + ROW_SUM_EXCESS) * (1.0 + self.eta) * self.col_eps + self.g;
        edited
            .patched_rows()
            .map(|x| {
                (dot(edited.forward_row(x)) - dot(edited.base().forward_row(x))).abs() + per_row
            })
            .sum()
    }

    /// An interval containing `π′(seed, t)` for the workspace's current
    /// state, whose edit `shift` is [`ColumnBound::edit_shift`]'s and whose
    /// residual mass is `mass` ([`PushWorkspace::residual_mass`]).
    /// `O(touched)`.
    pub fn interval(&self, ws: &PushWorkspace, shift: f64, mass: f64) -> (f64, f64) {
        let (g, eta) = (self.g, self.eta);
        let r = mass * (1.0 + g) + g * self.base_mass;
        let p = ws.estimate(self.column.target);
        let q = p + ws.residual_dot(&self.column.estimates, self.base_dot);
        let e = (1.0 + eta) * (1.0 + eta) * (1.0 + g) * r * (self.col_eps + self.gain * shift)
            + g * (r + self.base_mass + q.abs());
        let t = (1.0 + eta) * (1.0 + g) * r + g * p;
        ((q - e).max(p - t), (q + e).min(p + t))
    }
}
