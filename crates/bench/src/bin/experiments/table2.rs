//! E2 — Table II: the common diagnosis rules of the Knowledge Library.
//!
//! Prints every rule with its temporal and spatial joining parameters in
//! the DSL's notation.

use crate::{json, Output};
use grca_core::knowledge_rules;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    symptom: String,
    diagnostic: String,
    temporal_symptom: String,
    temporal_diagnostic: String,
    join_level: String,
    priority: u32,
}

pub fn run(_smoke: bool) -> Output {
    let rules = knowledge_rules();
    println!(
        "{:<28} {:<34} {:<24} {:<24} {:<16} {:>4}",
        "symptom", "diagnostic", "symptom expansion", "diagnostic expansion", "join level", "prio"
    );
    println!("{:-<136}", "");
    let mut rows = Vec::new();
    for r in &rules {
        let ts = format!(
            "{} -{} +{}",
            r.temporal.symptom.option,
            r.temporal.symptom.x.as_secs(),
            r.temporal.symptom.y.as_secs()
        );
        let td = format!(
            "{} -{} +{}",
            r.temporal.diagnostic.option,
            r.temporal.diagnostic.x.as_secs(),
            r.temporal.diagnostic.y.as_secs()
        );
        println!(
            "{:<28} {:<34} {:<24} {:<24} {:<16} {:>4}",
            r.symptom,
            r.diagnostic,
            ts,
            td,
            r.spatial.join_level.to_string(),
            r.priority
        );
        rows.push(Row {
            symptom: r.symptom.to_string(),
            diagnostic: r.diagnostic.to_string(),
            temporal_symptom: ts,
            temporal_diagnostic: td,
            join_level: r.spatial.join_level.to_string(),
            priority: r.priority,
        });
    }
    println!("\n{} rules (paper Table II samples 30 of >300)", rows.len());
    vec![("exp_table2.json", json(&rows))]
}
