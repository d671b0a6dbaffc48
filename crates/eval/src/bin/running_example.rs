//! Reproduces the paper's running example end-to-end:
//!
//! * Figure 1 — Paul is recommended *Python* and asks "Why not Harry
//!   Potter?"; the Remove-mode explanation is {Candide, C}, the Add-mode
//!   explanation is {The Lord of the Rings};
//! * Figure 2 — PRINCE's Why-counterfactual removes only {C} and lands on
//!   *The Alchemist*, demonstrating that Why ≠ Why-Not;
//! * Tables 1–3 — the Exhaustive Comparison's intermediate matrices
//!   (contribution matrix, threshold vector) for the same question.

use emigre_core::{exhaustive, prince, search, Explainer, Method};
use emigre_data::examples::running_example;

fn main() {
    let show_matrices = std::env::args().any(|a| a == "--matrices");
    let ex = running_example();
    let explainer = Explainer::new(ex.config.clone());
    let g = &ex.graph;

    let ctx = explainer
        .context(g, ex.paul, ex.harry_potter)
        .expect("valid why-not question");
    println!(
        "Paul's recommendation: {}   (asking: why not {}?)\n",
        g.display_name(ctx.rec),
        g.display_name(ex.harry_potter)
    );
    println!("Paul's top-10 list:");
    for (i, (item, score)) in ctx.rec_list.entries().iter().enumerate() {
        println!(
            "  {:>2}. {:<24} PPR {score:.5}",
            i + 1,
            g.display_name(*item)
        );
    }
    println!();

    let remove = explainer
        .explain(g, ex.paul, ex.harry_potter, Method::RemovePowerset)
        .expect("Fig. 1a explanation");
    println!("Figure 1a (Remove mode): {}", remove.describe(g));

    let add = explainer
        .explain(g, ex.paul, ex.harry_potter, Method::AddPowerset)
        .expect("Fig. 1b explanation");
    println!("Figure 1b (Add mode):    {}", add.describe(g));

    let why = prince::prince(&ctx).expect("PRINCE counterfactual");
    println!(
        "Figure 2  (PRINCE Why):  removing {{{}}} changes the recommendation to {} — not {}.\n",
        why.actions
            .iter()
            .map(|a| g.display_name(a.edge.dst))
            .collect::<Vec<_>>()
            .join(", "),
        g.display_name(why.replacement),
        g.display_name(ex.harry_potter)
    );

    if show_matrices {
        // Tables 1–3 list ALL of Paul's out-edges as rows (the paper's
        // matrix includes users 1 and 5), so the trace drops the T_e
        // restriction used for the Fig. 1 explanations above.
        let mut cfg = ex.config.clone();
        cfg.explanation_edge_types = vec![];
        let full = Explainer::new(cfg);
        let ctx = full
            .context(g, ex.paul, ex.harry_potter)
            .expect("valid question");
        let space = search::remove_search_space(&ctx);
        let (_, trace) = exhaustive::exhaustive_with_trace(&ctx, &space);
        println!("Tables 1–2 — Exhaustive Comparison intermediates (Remove mode):\n");
        println!("{}", trace.contribution_table(g));
        println!("{}", trace.threshold_table(g));
        println!(
            "accepted combinations (all-targets condition): {:?}",
            trace
                .accepted_combinations
                .iter()
                .map(|combi| combi
                    .iter()
                    .map(|&i| g.display_name(trace.candidates[i].node()))
                    .collect::<Vec<_>>())
                .collect::<Vec<_>>()
        );
    } else {
        println!("(re-run with --matrices for the Tables 1–3 intermediates)");
    }
}
