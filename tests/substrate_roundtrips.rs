//! Integration tests for the supporting substrates through the public
//! facade: graph serialisation, DOT export and the batch explanation loop
//! — each exercised on the paper's running example rather than synthetic
//! micro-fixtures.

use emigre::core::{batch, Explainer, Method};
use emigre::data::examples::running_example;

#[test]
fn running_example_survives_serialisation() {
    let ex = running_example();
    let text = emigre::hin::io::to_edge_list(&ex.graph);
    let reloaded = emigre::hin::io::from_edge_list(&text).expect("round-trip");
    // The reloaded graph answers the Fig. 1a question identically.
    let explainer = Explainer::new(ex.config.clone());
    let a = explainer
        .explain(&ex.graph, ex.paul, ex.harry_potter, Method::RemovePowerset)
        .unwrap();
    let b = explainer
        .explain(&reloaded, ex.paul, ex.harry_potter, Method::RemovePowerset)
        .unwrap();
    assert_eq!(a.actions, b.actions);
}

#[test]
fn dot_export_mentions_the_cast() {
    let ex = running_example();
    let dot = emigre::hin::io::to_dot(&ex.graph);
    for name in ["Paul", "Harry Potter", "Candide", "Python"] {
        assert!(dot.contains(name), "missing {name} in DOT output");
    }
}

#[test]
fn batch_loop_explains_pauls_whole_list() {
    let ex = running_example();
    let explainer = Explainer::new(ex.config.clone());
    let out =
        batch::explain_whole_list(&explainer, &ex.graph, ex.paul, Method::AddPowerset).unwrap();
    assert!(out.len() >= 5, "Paul's list has many why-not targets");
    // The Harry Potter entry reproduces Fig. 1b through the batch path.
    let hp = out
        .iter()
        .find(|l| l.wni == ex.harry_potter)
        .expect("Harry Potter is in the list");
    let exp = hp.result.as_ref().expect("Fig. 1b explanation");
    assert_eq!(exp.actions[0].edge.dst, ex.lord_of_the_rings);
}
