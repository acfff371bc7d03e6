//! E1 — Table I: the common event definitions of the Knowledge Library.
//!
//! Prints the library in the paper's table layout and verifies each
//! definition actually extracts instances from a mixed simulated scenario
//! (a library entry that can never fire would be dead weight).

use crate::{json, Output};
use grca_bench::fixture;
use grca_events::{extract, knowledge_library, ExtractCx};
use grca_net_model::gen::TopoGenConfig;
use grca_simnet::FaultRates;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: String,
    location_type: String,
    description: String,
    data_source: String,
    instances_in_mixed_scenario: usize,
}

pub fn run(_smoke: bool) -> Output {
    // A mixed scenario that exercises every event family.
    let mut rates = FaultRates::bgp_study();
    rates.link_cost_out_maint = 2.0;
    rates.router_cost_out_maint = 0.5;
    rates.ospf_weight_change = 3.0;
    rates.link_congestion = 3.0;
    rates.link_loss = 2.0;
    rates.egress_change = 3.0;
    rates.backbone_link_failure = 1.0;
    let fx = fixture(&TopoGenConfig::default(), 10, 1, rates);
    let routing = grca_apps::build_routing(&fx.topo, &fx.db);
    let cx = ExtractCx::new(&fx.topo, &fx.db, Some(&routing));

    let mut lib = knowledge_library();
    // Parameterize the egress-change emulation for the check.
    for d in &mut lib {
        if let grca_events::Retrieval::BgpEgressChange { ingresses } = &mut d.retrieval {
            *ingresses = fx.topo.cdn_nodes.iter().map(|n| n.attach_router).collect();
        }
    }

    println!(
        "{:<36} {:<20} {:<22} {:>9}",
        "event name", "location type", "data source", "instances"
    );
    println!("{:-<92}", "");
    let mut rows = Vec::new();
    for def in &lib {
        let n = extract(def, &cx).len();
        println!(
            "{:<36} {:<20} {:<22} {:>9}",
            def.name,
            def.location_type.to_string(),
            def.data_source,
            n
        );
        rows.push(Row {
            name: def.name.clone(),
            location_type: def.location_type.to_string(),
            description: def.description.clone(),
            data_source: def.data_source.clone(),
            instances_in_mixed_scenario: n,
        });
    }
    let dead: Vec<&Row> = rows
        .iter()
        .filter(|r| r.instances_in_mixed_scenario == 0)
        .collect();
    println!(
        "\n{} definitions (paper Table I: 24); {} with zero instances in this scenario",
        rows.len(),
        dead.len()
    );
    vec![("exp_table1.json", json(&rows))]
}
