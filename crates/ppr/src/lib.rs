//! # emigre-ppr — Personalized PageRank engine
//!
//! The EMiGRe paper scores user-item relevance with Personalized PageRank
//! (PPR, Jeh & Widom) over a Heterogeneous Information Network, and keeps it
//! tractable with the **Forward Local Push** and **Reverse Local Push**
//! approximations of Zhang, Lofgren & Goel (KDD'16), including their
//! dynamic-graph updates. This crate implements one push engine for all of
//! it, over flat transition kernels:
//!
//! * [`kernel`] — the flat-CSR transition matrix ([`kernel::TransitionCsr`])
//!   with delta-aware row patching ([`kernel::PatchedCsr`]). Every push
//!   reads its rows through the [`kernel::CsrRows`] trait;
//! * [`forward`] — Forward Local Push from a source node, maintaining the
//!   invariant of the paper's Eq. (3):
//!   `PPR(s,t) = p(t) + Σ_x r(x)·PPR(x,t)`;
//! * [`reverse`] — Reverse Local Push towards a target node, maintaining the
//!   invariant of Eq. (4): `PPR(s,t) = p(s) + Σ_x PPR(s,x)·r(x)`;
//! * [`workspace`] — reusable transactional push state
//!   ([`workspace::PushWorkspace`]): closed-form residual repair after an
//!   edge edit, so the counterfactual CHECK resumes from the user's push
//!   instead of recomputing, free of per-call `O(n)` allocations;
//! * [`bound`] — certified intervals for a counterfactual score, read
//!   through the target's base-graph column ([`bound::ColumnBound`]);
//! * [`power`] — dense power iteration over any [`emigre_hin::GraphView`];
//!   the exact reference every push is validated against;
//! * [`transition`] — the random-walk transition models (weighted, uniform,
//!   and the RecWalk-style β-mix the paper configures with β = 0.5);
//! * [`topk`] — deterministic top-k extraction with exclusion sets.
//!
//! A kernel is built from any [`emigre_hin::GraphView`] — the base graph,
//! a snapshot, or a counterfactual [`emigre_hin::DeltaView`] overlay — and
//! the pushes are generic over [`kernel::CsrRows`], so the same loop runs
//! on base and patched rows.

pub mod bound;
pub mod config;
pub mod forward;
pub mod kernel;
pub mod power;
pub mod reverse;
mod sweep;
pub mod topk;
pub mod transition;
pub mod workspace;

pub use bound::ColumnBound;
pub use config::PprConfig;
pub use forward::ForwardPush;
pub use kernel::{CsrRows, PatchedCsr, TransitionCsr};
pub use power::ppr_power;
pub use reverse::ReversePush;
pub use topk::{rank_of, top_k};
pub use transition::{transition_row, transition_row_into, TransitionModel};
pub use workspace::PushWorkspace;
