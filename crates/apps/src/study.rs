//! [`Study`] as the application table: everything that differs between
//! the three paper studies — which definitions, which graph, whether
//! extraction and spatial joins need routing state rebuilt from the
//! collector — looked up in one place, so harnesses and binaries take a
//! `Study` and never dispatch on it themselves.

use crate::context::{build_routing, AppOutput, DiffOutput};
use crate::online::OnlineRca;
use crate::report::Study;
use crate::{bgp, cdn, pim};
use grca_collector::Database;
use grca_core::{DiagnosisGraph, Emission};
use grca_events::EventDefinition;
use grca_net_model::{NullOracle, Topology};
use grca_telemetry::records::RawRecord;
use grca_types::{Result, Timestamp};

impl Study {
    /// The study's event definitions: Knowledge Library plus its
    /// app-specific events.
    pub fn definitions(self, topo: &Topology) -> Vec<EventDefinition> {
        match self {
            Study::Bgp => bgp::event_definitions(),
            Study::Cdn => cdn::event_definitions(topo),
            Study::Pim => pim::event_definitions(),
        }
    }

    /// The study's diagnosis graph (Figs. 4–6).
    pub fn graph(self) -> DiagnosisGraph {
        match self {
            Study::Bgp => bgp::diagnosis_graph(),
            Study::Cdn => cdn::diagnosis_graph(),
            Study::Pim => pim::diagnosis_graph(),
        }
    }

    /// Run the study in batch mode over a collected database.
    pub fn run(self, topo: &Topology, db: &Database) -> Result<AppOutput> {
        match self {
            Study::Bgp => bgp::run(topo, db),
            Study::Cdn => cdn::run(topo, db),
            Study::Pim => pim::run(topo, db),
        }
    }

    /// [`Study::run`] through both the sequential and the parallel engine
    /// paths.
    pub fn run_differential(
        self,
        topo: &Topology,
        db: &Database,
        threads: usize,
    ) -> Result<DiffOutput> {
        match self {
            Study::Bgp => bgp::run_differential(topo, db, threads),
            Study::Cdn => cdn::run_differential(topo, db, threads),
            Study::Pim => pim::run_differential(topo, db, threads),
        }
    }

    /// A fresh online pipeline for the study.
    pub fn online(self, topo: &Topology) -> OnlineRca<'_> {
        OnlineRca::new(topo, self.definitions(topo), self.graph())
            .expect("study graph must validate")
    }

    /// Deliver one cycle's `records` to `online` and advance its clock to
    /// `now`, supplying whatever routing state the study's rules need.
    pub fn advance<'a>(
        self,
        online: &mut OnlineRca<'a>,
        records: &[RawRecord],
        now: Timestamp,
        topo: &'a Topology,
    ) -> Vec<Emission> {
        match self {
            // The BGP graph joins at router/interface level from configuration
            // alone — no routing state needed.
            Study::Bgp => online.advance(records, now, &NullOracle, None),
            // CDN/PIM extraction and spatial joins read routing state rebuilt
            // from the database: ingest first so the snapshot includes this
            // cycle's deliveries, exactly as a batch run over the same data.
            Study::Cdn | Study::Pim => {
                online.ingest(records);
                let routing = build_routing(topo, online.database());
                online.advance(&[], now, &routing, Some(&routing))
            }
        }
    }
}
