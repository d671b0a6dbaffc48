//! emigre-testkit — the differential testing harness.
//!
//! Three pillars, matching the paper's correctness obligations:
//!
//! 1. **Dense exact-PPR oracle** ([`oracle`]): power iteration on the
//!    full dense transition matrix, independently re-derived from raw
//!    edge data, iterated to 1e-13. Every flat-kernel push estimate and
//!    every TEST verdict the engine produces is checked against it.
//! 2. **Seeded, shrinkable HIN generators** ([`world`], [`strategies`]):
//!    whole heterogeneous worlds — users, items, categories, multiple
//!    relation types — sampled from a seed, with pathologies the real
//!    datasets exhibit (dangling nodes, near-zero weights, exact rank
//!    ties via twin items, self-referential users). `WorldSpec::shrink`
//!    and `minimize` stand in for proptest shrinking, which the vendored
//!    stand-in lacks.
//! 3. **Differential assertions** ([`differential`]): the glue that runs
//!    pushes and all explanation algorithms on sampled worlds and panics
//!    with full context on any disagreement with the oracle.
//!
//! Fault injection for `emigre-serve` lives in the serve crate itself
//! ([`emigre_serve::FaultPlan`]) because it must hook the worker loop;
//! the tests that drive it live in this crate's `tests/fault_injection.rs`.
//!
//! This crate is test infrastructure: it is a workspace member so its
//! own tests run under `cargo test`, but no production crate depends on
//! it.

pub mod differential;
pub mod oracle;
pub mod strategies;
pub mod world;

pub use differential::{
    assert_forward_agrees, assert_reverse_agrees, check_ppr_agreement, cross_check_question,
    cross_check_verdicts, push_error_bound, viable_questions, DiffStats, ADD_METHODS,
    FIVE_ALGORITHMS,
};
pub use oracle::{oracle_test, DenseOracle, OracleVerdict, MAX_ORACLE_NODES, ORACLE_TOLERANCE};
pub use strategies::{arb_default_world, arb_world, ArbWorld};
pub use world::{minimize, World, WorldParams, WorldSpec, NEAR_ZERO_WEIGHT};
