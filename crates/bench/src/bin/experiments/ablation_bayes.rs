//! A3 — Naive-Bayes parameter insensitivity.
//!
//! The paper justifies coarse fuzzy parameters (Low/Medium/High =
//! 2/100/20000) by the classifier's known insensitivity to exact values
//! [Rish 2001]. We perturb every ratio by factors from 0.25x to 4x and
//! verify the Fig. 8 classifications (single flap -> interface issue;
//! card burst -> line-card issue) never change.

use crate::{json, Output};
use grca_apps::bgp::{self, classes};
use grca_core::bayes::BayesModel;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    scale: f64,
    single_flap_class: String,
    burst_class: String,
    stable: bool,
}

/// The model's verdict on `group` with every log-ratio scaled by `k`.
/// The engine exposes fuzzy levels, not raw floats; emulate the
/// perturbation by replicating observations k times (k*log-ratio), which
/// is exactly a uniform exponent on every likelihood term.
fn classify_scaled(model: &BayesModel, group: &[Vec<(String, bool)>], k: f64) -> String {
    let reps = (k * 4.0).round().max(1.0) as usize;
    let expanded: Vec<Vec<(String, bool)>> = group
        .iter()
        .flat_map(|obs| std::iter::repeat_n(obs.clone(), reps))
        .collect();
    model.classify_group(&expanded)[0].name.clone()
}

pub fn run(_smoke: bool) -> Output {
    let single = vec![vec![
        ("interface-flap".to_string(), true),
        ("line-protocol-flap".to_string(), true),
        (classes::CARD_BURST_FEATURE.to_string(), false),
    ]];
    let burst: Vec<Vec<(String, bool)>> = (0..30)
        .map(|_| {
            vec![
                ("interface-flap".to_string(), true),
                (classes::CARD_BURST_FEATURE.to_string(), true),
            ]
        })
        .collect();

    let mut points = Vec::new();
    println!(
        "{:>7} {:>22} {:>22} {:>8}",
        "scale", "single flap", "card burst", "stable"
    );
    let model = bgp::bayes_model();
    for k in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let s = classify_scaled(&model, &single, k);
        let b = classify_scaled(&model, &burst, k);
        let stable = s == classes::INTERFACE_ISSUE && b == classes::LINE_CARD_ISSUE;
        println!("{k:>7} {s:>22} {b:>22} {stable:>8}");
        points.push(Point {
            scale: k,
            single_flap_class: s,
            burst_class: b,
            stable,
        });
    }
    let all_stable = points.iter().all(|p| p.stable);
    println!(
        "\nclassification stable across a 16x parameter range: {all_stable} \
         (the paper's insensitivity claim)"
    );
    assert!(all_stable);
    vec![("exp_ablation_bayes.json", json(&points))]
}
