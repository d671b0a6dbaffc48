//! Failure meta-explanations (paper §6.4).
//!
//! A Why-Not question can be unanswerable within a single mode — the paper
//! measures remove-mode success rates under 30% and attributes the failures
//! to identifiable data conditions. Section 6.4 proposes reporting these
//! conditions to the user as *meta-explanations*; this module implements
//! that post-processing step.

use crate::context::ExplainContext;
use crate::explanation::Mode;
use emigre_hin::{GraphView, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an explanation attempt produced no answer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailureReason {
    /// §6.4 "Cold Start And Less Active Users": the user has no (or almost
    /// no) actions of the allowed types, so the Remove-mode search space is
    /// empty or trivially small.
    ColdStart { removable_actions: usize },
    /// §6.4 "Popular Item": the current recommendation draws most of its
    /// PPR from *other* users' activity, so undoing this user's own actions
    /// cannot demote it. `rec_popularity` / `wni_popularity` are weighted
    /// user-interaction in-degrees.
    PopularItem {
        rec_popularity: f64,
        wni_popularity: f64,
    },
    /// §6.4 "Out Of Scope Item": the single-mode search space was exhausted
    /// without success; additions alone (or removals alone) cannot promote
    /// the item — the combined mode may still succeed.
    OutOfScope { mode: Mode },
    /// The search hit a configured budget (max checks / max subsets) before
    /// exhausting the space; a larger budget might still find an answer.
    BudgetExhausted { checks_performed: usize },
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::ColdStart { removable_actions } => write!(
                f,
                "cold start: only {removable_actions} removable user action(s)"
            ),
            FailureReason::PopularItem {
                rec_popularity,
                wni_popularity,
            } => write!(
                f,
                "popular item: the recommendation's popularity ({rec_popularity:.1}) \
                 dwarfs the why-not item's ({wni_popularity:.1})"
            ),
            FailureReason::OutOfScope { mode } => {
                write!(f, "out of scope for single-{mode} mode")
            }
            FailureReason::BudgetExhausted { checks_performed } => {
                write!(f, "budget exhausted after {checks_performed} checks")
            }
        }
    }
}

/// A failed explanation attempt, with its meta-explanation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExplainFailure {
    pub reason: FailureReason,
    pub checks_performed: usize,
}

impl fmt::Display for ExplainFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no why-not explanation found ({}; {} checks performed)",
            self.reason, self.checks_performed
        )
    }
}

impl std::error::Error for ExplainFailure {}

/// Weighted popularity of an item: its in-degree counted over incoming
/// user-typed edges only, so category links do not make an item popular.
fn user_popularity<G: GraphView>(ctx: &ExplainContext<'_, G>, item: NodeId) -> f64 {
    let user_type = ctx.graph.node_type(ctx.user);
    let mut s = 0.0;
    ctx.graph.for_each_in(item, |src, _, w| {
        if ctx.graph.node_type(src) == user_type {
            s += w;
        }
    });
    s
}

/// How much more popular (by user interactions) the recommendation must be
/// than the Why-Not item before a failure is labelled `PopularItem`.
const POPULARITY_DOMINANCE_FACTOR: f64 = 2.0;

/// Classifies an exhausted single-mode search into a §6.4 meta-explanation.
///
/// `removable_actions` is the size of the Remove-mode search space (number
/// of the user's allowed-type actions); `budget_hit` is whether the search
/// stopped on a budget rather than exhausting the space.
pub fn classify_failure<G: GraphView>(
    ctx: &ExplainContext<'_, G>,
    mode: Mode,
    removable_actions: usize,
    checks_performed: usize,
    budget_hit: bool,
) -> ExplainFailure {
    // Diagnosis order: structural condition (cold start) first, then the
    // data condition (popular item), then search-budget truncation, and
    // only when the space was genuinely exhausted: out of scope.
    let popularity = || (user_popularity(ctx, ctx.rec), user_popularity(ctx, ctx.wni));
    let reason = if mode == Mode::Remove && removable_actions <= 1 {
        FailureReason::ColdStart { removable_actions }
    } else {
        match (mode == Mode::Remove).then(popularity) {
            Some((rec_pop, wni_pop))
                if rec_pop > POPULARITY_DOMINANCE_FACTOR * wni_pop.max(1.0) =>
            {
                FailureReason::PopularItem {
                    rec_popularity: rec_pop,
                    wni_popularity: wni_pop,
                }
            }
            _ if budget_hit => FailureReason::BudgetExhausted { checks_performed },
            _ => FailureReason::OutOfScope { mode },
        }
    };
    ExplainFailure {
        reason,
        checks_performed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let f = ExplainFailure {
            reason: FailureReason::ColdStart {
                removable_actions: 0,
            },
            checks_performed: 0,
        };
        assert!(f.to_string().contains("cold start"));

        let f = ExplainFailure {
            reason: FailureReason::PopularItem {
                rec_popularity: 40.0,
                wni_popularity: 2.0,
            },
            checks_performed: 5,
        };
        assert!(f.to_string().contains("popular item"));

        let f = ExplainFailure {
            reason: FailureReason::OutOfScope { mode: Mode::Add },
            checks_performed: 9,
        };
        assert!(f.to_string().contains("single-add"));

        let f = ExplainFailure {
            reason: FailureReason::BudgetExhausted {
                checks_performed: 100,
            },
            checks_performed: 100,
        };
        assert!(f.to_string().contains("budget"));
    }
}
