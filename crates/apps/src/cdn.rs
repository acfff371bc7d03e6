//! The CDN service-impairment RCA application (§III-B, Fig. 5, Tables V
//! & VI).
//!
//! Symptom: round-trip-time increases between end-users (client sites) and
//! CDN nodes, from passive traffic monitoring. The spatial model does the
//! heavy lifting here: a `server:client` symptom is expanded — through the
//! CDN attachment configuration, the emulated BGP decision and the OSPF
//! path computation — to the ingress:egress pair and the router/link-level
//! paths that carried the traffic *at the time of the degradation*, which
//! is what the paper calls "practically impossible to manually identify
//! for historical events".

use crate::context::{build_routing, run_app, AppOutput};
use grca_collector::Database;
use grca_core::{DiagnosisGraph, DiagnosisRule, ExpandOption, Expansion, TemporalRule};
use grca_events::{cdn_app_events, knowledge_library, names as ev, EventDefinition};
use grca_net_model::{JoinLevel, RouterId, Topology};
use grca_types::Result;

/// Event definitions: Table I library + Table V app events, with the
/// egress-change emulation parameterized on the CDN attachment routers.
pub fn event_definitions(topo: &Topology) -> Vec<EventDefinition> {
    let ingresses: Vec<RouterId> = topo.cdn_nodes.iter().map(|n| n.attach_router).collect();
    let mut defs = knowledge_library();
    // The app redefines the library's egress-change event with its own
    // ingress set (§II-A allows application redefinition), so drop the
    // placeholder first.
    defs.retain(|d| d.name != ev::BGP_EGRESS_CHANGE);
    defs.extend(cdn_app_events(ingresses));
    defs
}

/// The Fig. 5 diagnosis graph, rooted at the RTT-increase symptom.
pub fn diagnosis_graph() -> DiagnosisGraph {
    diagnosis_graph_for(ev::CDN_RTT_INCREASE)
}

/// §III-B names "CDN end-to-end throughput drop" as the application's
/// input event; RTT increases come from the same monitor. Both symptoms
/// share the Fig. 5 rule set, so the graph is parameterized on the root.
pub fn diagnosis_graph_for(root: &str) -> DiagnosisGraph {
    use JoinLevel as L;
    // Degradation bins lag their cause by up to ~15 minutes.
    let lagged = TemporalRule::new(
        Expansion::new(ExpandOption::StartStart, 900, 300),
        Expansion::new(ExpandOption::StartEnd, 60, 60),
    );
    let co = TemporalRule::symmetric(300);
    let mut g = DiagnosisGraph::new(format!("cdn-rca:{root}"), root);
    g.add_rule(DiagnosisRule::new(
        root,
        ev::BGP_EGRESS_CHANGE,
        lagged,
        L::IngressDestination,
        150,
    ));
    g.add_rule(DiagnosisRule::new(
        root,
        ev::CDN_SERVER_ISSUE,
        co,
        L::Router,
        145,
    ));
    g.add_rule(DiagnosisRule::new(
        root,
        ev::CDN_POLICY_CHANGE,
        lagged,
        L::Router,
        140,
    ));
    g.add_rule(DiagnosisRule::new(
        root,
        ev::INTERFACE_FLAP,
        lagged,
        L::LinkPath,
        130,
    ));
    // Congestion outranks loss: a congested link also shows overflow
    // packets, so when both alarms fire the deeper condition is the
    // congestion; a lossy-but-uncongested link raises only the loss alarm.
    g.add_rule(DiagnosisRule::new(
        root,
        ev::LINK_CONGESTION_ALARM,
        co,
        L::LinkPath,
        126,
    ));
    g.add_rule(DiagnosisRule::new(
        root,
        ev::LINK_LOSS_ALARM,
        co,
        L::LinkPath,
        125,
    ));
    g.add_rule(DiagnosisRule::new(
        root,
        ev::OSPF_RECONVERGENCE,
        lagged,
        L::LinkPath,
        110,
    ));
    // Library chain: congestion that itself followed a reconvergence.
    let lib = grca_core::knowledge_rules();
    for r in lib {
        if r.symptom == ev::LINK_CONGESTION_ALARM && r.diagnostic == ev::OSPF_RECONVERGENCE {
            g.add_rule(r);
        }
    }
    g
}

/// Run the full CDN application. Routing state is rebuilt from the
/// collected OSPF/BGP monitor feeds and drives both the egress-change
/// extraction and the path-level spatial joins.
pub fn run(topo: &Topology, db: &Database) -> Result<AppOutput> {
    let routing = build_routing(topo, db);
    run_app(
        topo,
        db,
        &routing,
        &event_definitions(topo),
        diagnosis_graph(),
        Some(&routing),
    )
}

/// [`run`], through both the sequential and the parallel engine paths
/// (the evaluation harness's verdict-identity check).
pub fn run_differential(
    topo: &Topology,
    db: &Database,
    threads: usize,
) -> Result<crate::context::DiffOutput> {
    let routing = build_routing(topo, db);
    crate::context::run_app_differential(
        topo,
        db,
        &routing,
        &event_definitions(topo),
        diagnosis_graph(),
        Some(&routing),
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_events::names as ev;

    #[test]
    fn graph_is_valid_and_rooted_at_rtt_increase() {
        let g = diagnosis_graph();
        g.validate().unwrap();
        assert_eq!(g.root, ev::CDN_RTT_INCREASE);
        assert!(g.rules.len() >= 7, "Fig. 5 has at least seven edges");
    }

    #[test]
    fn event_definitions_redefine_egress_change_with_ingresses() {
        let topo = grca_net_model::gen::generate(&grca_net_model::gen::TopoGenConfig::small());
        let defs = event_definitions(&topo);
        let egress: Vec<_> = defs
            .iter()
            .filter(|d| d.name == ev::BGP_EGRESS_CHANGE)
            .collect();
        assert_eq!(
            egress.len(),
            1,
            "exactly one (redefined) egress-change event"
        );
        match &egress[0].retrieval {
            grca_events::Retrieval::BgpEgressChange { ingresses } => {
                assert_eq!(ingresses.len(), topo.cdn_nodes.len());
            }
            other => panic!("unexpected retrieval {other:?}"),
        }
    }

    #[test]
    fn throughput_variant_shares_the_rule_set() {
        let rtt = diagnosis_graph();
        let tput = diagnosis_graph_for(ev::CDN_THROUGHPUT_DROP);
        tput.validate().unwrap();
        assert_eq!(tput.root, ev::CDN_THROUGHPUT_DROP);
        assert_eq!(rtt.rules.len(), tput.rules.len());
        // Same diagnostics in the same order.
        let diag = |g: &grca_core::DiagnosisGraph| {
            g.rules.iter().map(|r| r.diagnostic).collect::<Vec<_>>()
        };
        assert_eq!(diag(&rtt), diag(&tput));
    }

    #[test]
    fn congestion_outranks_loss() {
        let g = diagnosis_graph();
        let prio = |d: &str| {
            g.rules
                .iter()
                .find(|r| r.symptom == ev::CDN_RTT_INCREASE && r.diagnostic == d)
                .unwrap()
                .priority
        };
        assert!(prio(ev::LINK_CONGESTION_ALARM) > prio(ev::LINK_LOSS_ALARM));
        assert!(prio(ev::BGP_EGRESS_CHANGE) > prio(ev::LINK_CONGESTION_ALARM));
    }
}
