//! # emigre-rec — the graph recommender layer
//!
//! The paper explains recommendations produced by a RecWalk-style
//! Personalized-PageRank recommender (its Eq. 2):
//!
//! ```text
//! rec = argmax_{i ∈ I \ N_out(u)} PPR(u, i)
//! ```
//!
//! i.e. the best-scoring *item* the user has not interacted with. This crate
//! provides that recommender ([`PprRecommender`]) and the ranked-list type
//! ([`RecList`]) the experiment harness consumes. RecWalk's blend of graph
//! walk and item model is the transition β-mix every push runs on
//! ([`emigre_ppr::TransitionModel`]).

pub mod list;
pub mod ppr_rec;

pub use list::RecList;
pub use ppr_rec::{PprRecommender, RecConfig};
