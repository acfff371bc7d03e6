//! `batch-studies`: the paper's primary mode — an offline study of a
//! closed window. One week-long scenario per study (BGP, CDN, PIM) at the
//! default topology; each iteration bulk-ingests a scenario into a fresh
//! `Database` and runs the study's application over it. The same layers as
//! the soak, used the other way round: `Cut::Full` single-pass extraction,
//! routing rebuilt once, `diagnose_all`.

use crate::host::Probes;
use crate::quality::{verdict_at, Quality};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Outcome};
use grca_apps::{bgp, build_routing, cdn, pim, AppOutput, Study};
use grca_collector::Database;
use grca_core::{Diagnosis, DiagnosisGraph, Engine};
use grca_events::{extract_all, EventDefinition, ExtractCx};
use grca_net_model::{NullOracle, RouteOracle, SpatialModel, TierConfig, Topology};
use grca_simnet::{run_scenario, FaultRates, ScenarioConfig, SimOutput};
use grca_types::TimeWindow;
use std::collections::BTreeMap;
use std::time::Instant;

const STUDIES: [Study; 3] = [Study::Bgp, Study::Cdn, Study::Pim];

fn study_name(study: Study) -> &'static str {
    match study {
        Study::Bgp => "bgp",
        Study::Cdn => "cdn",
        Study::Pim => "pim",
    }
}

struct StudyInput {
    study: Study,
    cfg: ScenarioConfig,
    sim: SimOutput,
}

struct Input {
    topo: Topology,
    studies: Vec<StudyInput>,
    gen_secs: f64,
}

impl Input {
    fn records(&self) -> usize {
        self.studies.iter().map(|s| s.sim.records.len()).sum()
    }
}

fn generate(seed: u64, smoke: bool) -> Input {
    let tier = if smoke {
        TierConfig::smoke()
    } else {
        TierConfig::default_preset()
    };
    let topo = tier.generate();
    let days = if smoke { 2 } else { 7 };
    let t0 = Instant::now();
    let studies = STUDIES
        .iter()
        .enumerate()
        .map(|(i, &study)| {
            let rates = match study {
                Study::Bgp => FaultRates::bgp_study(),
                Study::Cdn => FaultRates::cdn_study(),
                Study::Pim => FaultRates::pim_study(),
            };
            let mut cfg = ScenarioConfig::new(days, seed.wrapping_add(1 + i as u64), rates);
            cfg.background.probe_fanout = tier.probe_fanout;
            let sim = run_scenario(&topo, &cfg);
            StudyInput { study, cfg, sim }
        })
        .collect();
    Input {
        topo,
        studies,
        gen_secs: t0.elapsed().as_secs_f64(),
    }
}

fn run_study(study: Study, topo: &Topology, db: &Database) -> AppOutput {
    match study {
        Study::Bgp => bgp::run(topo, db),
        Study::Cdn => cdn::run(topo, db),
        Study::Pim => pim::run(topo, db),
    }
    .expect("study application validates")
}

fn verdicts(diagnoses: &[Diagnosis]) -> Vec<(String, TimeWindow)> {
    diagnoses.iter().map(Diagnosis::verdict).collect()
}

/// What one untraced iteration cost and whether its outputs held up.
struct Iteration {
    /// Wall nanoseconds of ingest → run, per study, and the reading of the
    /// host's speed that preceded each (see [`crate::host`]).
    study_ns: Vec<u64>,
    study_probe: Vec<usize>,
    /// Records the collector refused.
    dropped: usize,
    /// Verdicts differing from the reference's (none on the iteration that
    /// makes the reference).
    differing: usize,
}

/// One untraced iteration: per study, fresh bulk ingest then the study's
/// top-level `run`, timed together. Each study's verdicts are compared with
/// `reference` as soon as its clock has stopped and then dropped, so what
/// the process holds does not grow with the number of iterations a run
/// fits; without a reference the verdicts are handed back to become one.
/// The host's speed is read before each study.
fn iteration(
    input: &Input,
    reference: Option<&[Vec<(String, TimeWindow)>]>,
    probes: &mut Probes,
) -> (Iteration, Vec<Vec<(String, TimeWindow)>>) {
    let mut it = Iteration {
        study_ns: Vec::new(),
        study_probe: Vec::new(),
        dropped: 0,
        differing: 0,
    };
    let mut made = Vec::new();
    for (i, s) in input.studies.iter().enumerate() {
        it.study_probe.push(probes.take());
        let t0 = Instant::now();
        let (db, stats) = Database::ingest(&input.topo, &s.sim.records);
        let out = run_study(s.study, &input.topo, &db);
        it.study_ns.push(t0.elapsed().as_nanos() as u64);
        it.dropped += stats.total_dropped();
        let got = verdicts(&out.diagnoses);
        match reference {
            Some(want) => it.differing += crate::differing(&got, &want[i]),
            None => made.push(got),
        }
    }
    (it, made)
}

/// The same iteration stage by stage — the bodies of `{bgp,cdn,pim}::run`
/// and `run_app` — with a span around each call into a layer.
fn staged_iteration(input: &Input, tr: &mut Tracer) -> Vec<Vec<Diagnosis>> {
    input
        .studies
        .iter()
        .map(|s| {
            let topo = &input.topo;
            tr.span("batch.study", |tr| {
                let (db, _) = tr.span("collector.ingest", |_| {
                    Database::ingest(topo, &s.sim.records)
                });
                let (defs, graph): (Vec<EventDefinition>, DiagnosisGraph) = match s.study {
                    Study::Bgp => (bgp::event_definitions(), bgp::diagnosis_graph()),
                    Study::Cdn => (cdn::event_definitions(topo), cdn::diagnosis_graph()),
                    Study::Pim => (pim::event_definitions(), pim::diagnosis_graph()),
                };
                graph.validate().expect("study graph validates");
                let routing = (s.study != Study::Bgp)
                    .then(|| tr.span("routing.build", |_| build_routing(topo, &db)));
                let store = tr.span("events.batch_extract", |_| {
                    extract_all(&defs, &ExtractCx::new(topo, &db, routing.as_ref()))
                });
                let oracle: &dyn RouteOracle = match &routing {
                    Some(r) => r,
                    None => &NullOracle,
                };
                let spatial = tr.span("net-model.spatial_bind", |_| {
                    SpatialModel::new(topo, oracle)
                });
                let engine = tr.span("core.bind", |_| Engine::new(&graph, &store, &spatial));
                let name = if s.study == Study::Bgp {
                    "core.diagnose"
                } else {
                    "core.diagnose_cdn"
                };
                let diagnoses: Vec<Diagnosis> = tr.span(name, |_| {
                    store
                        .instances(graph.root)
                        .iter()
                        .map(|sym| engine.diagnose(sym))
                        .collect()
                });
                drop(engine);
                tr.span("batch.drop", |_| drop((store, routing, db)));
                diagnoses
            })
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (input, setup_s) = crate::set_up(|| generate(args.seed, args.smoke));
    let records = input.records();
    eprintln!(
        "batch-studies: {} routers, {} records over {} studies of {} days",
        input.topo.routers.len(),
        records,
        input.studies.len(),
        input.studies[0].cfg.days
    );

    // The first iteration pays for cold caches and lazy set-up the others
    // do not; it is run untimed and its verdicts are the reference every
    // timed iteration must repeat.
    let mut probes = Probes::default();
    let (_, reference) = iteration(&input, None, &mut Probes::default());
    crate::reset_peak_rss();
    let budget = args.budget();
    let iterations = crate::repeat_for(budget, || {
        iteration(&input, Some(&reference), &mut probes).0
    });
    probes.take();
    let peak_rss_mb = crate::peak_rss_mb();

    let traced = args.trace.then(|| {
        crate::repeat_for(budget, || {
            let mut tr = Tracer::new();
            let diagnoses = staged_iteration(&input, &mut tr);
            (tr, diagnoses)
        })
    });

    // Untimed checks: no record refused; every iteration returned the same
    // verdicts; the parallel engine agrees with the sequential one.
    let v0 = Instant::now();
    let per_iteration = records as u64 + reference.iter().map(|v| v.len() as u64).sum::<u64>();
    for it in &iterations {
        out.attempted += per_iteration;
        out.failed += (it.dropped + it.differing) as u64;
    }
    let mut quality = Quality::default();
    for (s, want) in input.studies.iter().zip(&reference) {
        let (db, _) = Database::ingest(&input.topo, &s.sim.records);
        let diff = match s.study {
            Study::Bgp => bgp::run_differential(&input.topo, &db, 2),
            Study::Cdn => cdn::run_differential(&input.topo, &db, 2),
            Study::Pim => pim::run_differential(&input.topo, &db, 2),
        }
        .expect("study application validates");
        out.attempted += want.len() as u64;
        let differ = crate::differing(&verdicts(&diff.parallel), want);
        if differ > 0 {
            out.failed += differ as u64;
            out.notes.push(format!(
                "{}: {differ} verdicts differ between diagnose_all and diagnose_all_parallel(2)",
                study_name(s.study)
            ));
        }
        // A closed-window study hands over every verdict when the run over
        // the window returns: detection is window end minus injection.
        let finals = &diff.output.diagnoses;
        let events: Vec<_> = finals
            .iter()
            .map(|d| verdict_at(&input.topo, d, s.cfg.end().unix()))
            .collect();
        quality.add(
            s.study,
            &input.topo,
            &s.sim.truth,
            &s.sim.faults,
            &events,
            finals,
        );
    }
    if out.failed > 0 && out.notes.is_empty() {
        out.notes.push(
            "records refused by the collector or verdicts changing between iterations".into(),
        );
    }
    let verify_secs = v0.elapsed().as_secs_f64();

    let total_verdicts: usize = reference.iter().map(Vec::len).sum();
    let iter_secs: Vec<f64> = iterations
        .iter()
        .map(|it| it.study_ns.iter().sum::<u64>() as f64 / 1e9)
        .collect();
    // Each study's wall in seconds of the quiet host: every iteration's
    // reading corrected for the host's slowness around it, then the median
    // across iterations.
    let typical_secs: f64 = (0..input.studies.len())
        .map(|i| {
            let corrected: Vec<f64> = iterations
                .iter()
                .map(|it| it.study_ns[i] as f64 / 1e9 / probes.slowness(it.study_probe[i]))
                .collect();
            median(&corrected)
        })
        .sum();
    eprintln!(
        "batch-studies: {} timed iterations, {:.3} s each ({:.3} s raw, host slowness {:.2}), \
         {} verdicts, {} detection samples",
        iterations.len(),
        typical_secs,
        median(&iter_secs),
        probes.overall(),
        total_verdicts,
        quality.detect_samples()
    );

    if let Some(traced) = traced {
        for (_, diagnoses) in &traced {
            for (d, want) in diagnoses.iter().zip(&reference) {
                out.attempted += want.len() as u64;
                let differ = crate::differing(&verdicts(d), want);
                if differ > 0 {
                    out.failed += differ as u64;
                    out.notes.push(format!(
                        "staged driver drifted from the study's run(): {differ} verdicts differ"
                    ));
                }
            }
        }
        let per_pass: Vec<BTreeMap<&'static str, f64>> = traced
            .iter()
            .map(|(tr, diagnoses)| {
                let sum = tr.summary();
                let get = |n: &str| sum.get(n).copied().unwrap_or_default();
                let recs = records as f64;
                let mut m = BTreeMap::new();
                let ingest = get("collector.ingest");
                m.insert("collector.ingest_ns_per_rec", ingest.total_ns as f64 / recs);
                m.insert(
                    "collector.ingest_allocs_per_rec",
                    ingest.allocs as f64 / recs,
                );
                m.insert(
                    "events.batch_extract_ns_per_rec",
                    get("events.batch_extract").total_ns as f64 / recs,
                );
                m.insert("routing.build_ms", get("routing.build").total_ms() / 2.0);
                m.insert(
                    "net-model.spatial_bind_us",
                    get("net-model.spatial_bind").per_call_us(),
                );
                m.insert("core.bind_us", get("core.bind").per_call_us());
                let n = |i: usize| diagnoses[i].len().max(1) as f64;
                m.insert(
                    "core.diagnose_us",
                    get("core.diagnose").total_ns as f64 / 1e3 / n(0),
                );
                m.insert(
                    "core.diagnose_us_cdn",
                    get("core.diagnose_cdn").total_ns as f64 / 1e3 / (n(1) + n(2)),
                );
                let all: Vec<&Diagnosis> = diagnoses.iter().flatten().collect();
                m.insert("core.diagnosed", all.len() as f64);
                m.insert(
                    "core.evidence_per_diag",
                    all.iter().map(|d| d.evidence.len()).sum::<usize>() as f64
                        / all.len().max(1) as f64,
                );
                let study_ns = get("batch.study").total_ns as f64;
                let untraced_ns = median(&iter_secs) * 1e9;
                let stage_ns = study_ns - get("batch.study").self_ns as f64;
                m.insert("trace.coverage", stage_ns / untraced_ns);
                m.insert("trace.overhead_frac", study_ns / untraced_ns - 1.0);
                m
            })
            .collect();
        out.metrics = crate::median_of_each(per_pass);
        out.metrics.insert("simnet.gen_s", input.gen_secs);
        out.metrics.insert("simnet.records", records as f64);
        out.metrics.insert("eval.verify_s", verify_secs);
        out.metrics
            .insert("eval.detect_p50_s", quality.detect().p50_s);
        traced[0].0.report("batch-studies");
        return out;
    }

    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("throughput_per_s", records as f64 / typical_secs);
    // Input to complete result: one iteration, all three studies.
    m.insert("response_p50_ms", typical_secs * 1e3);
    quality.end_to_end(m);
    m.insert("peak_rss_mb", peak_rss_mb);
    out
}
