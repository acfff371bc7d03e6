//! The Result Browser (§II-E): root-cause breakdowns, filtering, trending
//! and raw-data drill-down.
//!
//! This is the programmatic face of what the deployed system exposes as a
//! GUI: the breakdown tables of the paper's Tables IV/VI/VIII come from
//! [`ResultBrowser::breakdown`], the iterative knowledge-building loop
//! starts from [`ResultBrowser::with_label`] (filter out explained
//! symptoms, focus on the rest), and [`drill_down`] surfaces the raw
//! records around an event for manual exploration.

use crate::engine::{Diagnosis, UNKNOWN};
use grca_collector::Database;
use grca_net_model::{Location, RouterId, Topology};
use grca_types::{Duration, TimeWindow};
use std::collections::BTreeMap;

/// A root-cause breakdown table.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Breakdown {
    /// (root-cause label, count, percentage), sorted by count descending.
    pub rows: Vec<(String, usize, f64)>,
    pub total: usize,
}

impl Breakdown {
    /// Percentage for one label (0 if absent).
    pub fn pct(&self, label: &str) -> f64 {
        self.rows
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, _, p)| *p)
            .unwrap_or(0.0)
    }

    /// Render as a text table (the Result Browser's breakdown view).
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        let width = self
            .rows
            .iter()
            .map(|(l, _, _)| l.len())
            .max()
            .unwrap_or(10)
            .max(10);
        out.push_str(&format!("{:-<w$}\n", "", w = width + 22));
        for (label, count, pct) in &self.rows {
            out.push_str(&format!("{label:<width$}  {count:>7}  {pct:>6.2}%\n"));
        }
        out.push_str(&format!("{:-<w$}\n", "", w = width + 22));
        out.push_str(&format!(
            "{:<width$}  {:>7}  100.00%\n",
            "total", self.total
        ));
        out
    }
}

/// The Result Browser over one application's diagnoses.
pub struct ResultBrowser<'a> {
    pub topo: &'a Topology,
    pub diagnoses: &'a [Diagnosis],
}

impl<'a> ResultBrowser<'a> {
    pub fn new(topo: &'a Topology, diagnoses: &'a [Diagnosis]) -> Self {
        ResultBrowser { topo, diagnoses }
    }

    /// The root-cause breakdown (Tables IV/VI/VIII).
    pub fn breakdown(&self) -> Breakdown {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for d in self.diagnoses {
            *counts.entry(d.label()).or_default() += 1;
        }
        let total = self.diagnoses.len();
        let mut rows: Vec<(String, usize, f64)> = counts
            .into_iter()
            .map(|(l, c)| (l, c, 100.0 * c as f64 / total.max(1) as f64))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Breakdown { rows, total }
    }

    /// Diagnoses whose root-cause label is `label`.
    pub fn with_label(&self, label: &str) -> Vec<&Diagnosis> {
        self.diagnoses
            .iter()
            .filter(|d| d.label() == label)
            .collect()
    }

    /// Diagnoses with no explanation — the working set of the iterative
    /// knowledge-building loop (§IV-A).
    pub fn unexplained(&self) -> Vec<&Diagnosis> {
        self.with_label(UNKNOWN)
    }

    /// Daily counts per root-cause label — the trending view the paper
    /// motivates for chronic-issue tracking.
    pub fn trend(&self) -> BTreeMap<i64, BTreeMap<String, usize>> {
        let mut out: BTreeMap<i64, BTreeMap<String, usize>> = BTreeMap::new();
        for d in self.diagnoses {
            let day = d.symptom.window.start.day_index();
            *out.entry(day).or_default().entry(d.label()).or_default() += 1;
        }
        out
    }

    /// Diagnoses whose symptom started within the window.
    pub fn in_window(&self, w: TimeWindow) -> Vec<&Diagnosis> {
        self.diagnoses
            .iter()
            .filter(|d| w.contains(d.symptom.window.start))
            .collect()
    }

    /// Diagnoses whose symptom location sits on the given router.
    pub fn at_router(&self, router: RouterId) -> Vec<&Diagnosis> {
        self.diagnoses
            .iter()
            .filter(|d| location_routers(&d.symptom.location).contains(&router))
            .collect()
    }
}

/// Render the daily trend as a text table: one row per day, one column
/// per root cause (most common first) — the chronic-issue tracking view.
pub fn render_trend(trend: &BTreeMap<i64, BTreeMap<String, usize>>) -> String {
    // Column order: causes by total count, capped for readability.
    let mut totals: BTreeMap<&str, usize> = BTreeMap::new();
    for causes in trend.values() {
        for (c, n) in causes {
            *totals.entry(c).or_default() += n;
        }
    }
    let mut cols: Vec<&str> = totals.keys().copied().collect();
    cols.sort_by_key(|c| std::cmp::Reverse(totals[c]));
    cols.truncate(6);
    let w = cols.iter().map(|c| c.len()).max().unwrap_or(8).max(8);
    let mut out = format!("{:<12}", "day");
    for c in &cols {
        out.push_str(&format!(" {c:>w$}"));
    }
    out.push_str(
        "  total
",
    );
    for (day, causes) in trend {
        let date = grca_types::Timestamp::from_unix(day * 86_400);
        let (y, m, d, ..) = date.to_civil();
        out.push_str(&format!("{y:04}-{m:02}-{d:02}  "));
        for c in &cols {
            out.push_str(&format!(" {:>w$}", causes.get(*c).copied().unwrap_or(0)));
        }
        let total: usize = causes.values().sum();
        out.push_str(&format!(
            "  {total:>5}
"
        ));
    }
    out
}

/// Render one diagnosis as an operator-facing report: the symptom, the
/// verdict, and each evidence chain from root cause back to the symptom.
pub fn render_diagnosis(topo: &Topology, d: &Diagnosis) -> String {
    let mut out = format!(
        "symptom  {} @ {} {}
verdict  {}
",
        d.symptom.name,
        d.symptom.location.display(topo),
        d.symptom.window,
        d.label()
    );
    for &rc in &d.root_causes {
        out.push_str(
            "cause chain:
",
        );
        for e in d.chain(rc) {
            out.push_str(&format!(
                "  {:indent$}{} @ {} {} (priority {})
",
                "",
                e.event(),
                e.instance.location.display(topo),
                e.instance.window,
                e.priority,
                indent = (e.depth as usize - 1) * 2,
            ));
        }
    }
    if d.root_causes.is_empty() && !d.evidence.is_empty() {
        out.push_str(
            "(matched evidence but no winner — inspect manually)
",
        );
    }
    out
}

/// Routers a location directly names (for drill-down scoping; path-typed
/// locations scope to their endpoints).
pub fn location_routers(loc: &Location) -> Vec<RouterId> {
    match *loc {
        Location::Router(r) => vec![r],
        Location::RouterNeighborIp { router, .. } => vec![router],
        Location::IngressEgress { ingress, egress } => vec![ingress, egress],
        Location::IngressDestination { ingress, .. } => vec![ingress],
        _ => Vec::new(),
    }
}

/// Raw records surrounding one diagnosis, for manual exploration
/// ("integrated data drilling-through functionality", §IV-B).
#[derive(Debug, Default)]
pub struct DrillDown {
    pub syslog: Vec<String>,
    pub snmp: Vec<String>,
    pub workflow: Vec<String>,
    pub tacacs: Vec<String>,
}

impl DrillDown {
    pub fn total(&self) -> usize {
        self.syslog.len() + self.snmp.len() + self.workflow.len() + self.tacacs.len()
    }
}

/// Collect the raw rows on the symptom's router(s) within ±`margin` of the
/// symptom window.
pub fn drill_down(topo: &Topology, db: &Database, d: &Diagnosis, margin: Duration) -> DrillDown {
    let routers = location_routers(&d.symptom.location);
    let w = TimeWindow::new(
        d.symptom.window.start - margin,
        d.symptom.window.end + margin,
    );
    let mut out = DrillDown::default();
    for row in db.syslog.range(w).iter() {
        if routers.contains(&row.router) {
            out.syslog.push(format!(
                "{} {} {}",
                row.utc,
                topo.router(row.router).name,
                row.raw
            ));
        }
    }
    for row in db.snmp.range(w).iter() {
        if routers.contains(&row.router) {
            out.snmp.push(format!(
                "{} {} {:?}={:.1}",
                row.utc,
                topo.router(row.router).name,
                row.metric,
                row.value
            ));
        }
    }
    for row in db.workflow.range(w).iter() {
        if row.router.map(|r| routers.contains(&r)).unwrap_or(false) {
            out.workflow
                .push(format!("{} {} {}", row.utc, row.entity, row.activity));
        }
    }
    for row in db.tacacs.range(w).iter() {
        if routers.contains(&row.router) {
            out.tacacs.push(format!(
                "{} {} [{}] {}",
                row.utc,
                topo.router(row.router).name,
                row.user,
                row.command
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_events::EventInstance;
    use grca_net_model::gen::{generate, TopoGenConfig};
    use grca_types::Timestamp;

    fn mk_diag(
        _topo: &Topology,
        label_evt: Option<&str>,
        start: i64,
        router: RouterId,
    ) -> Diagnosis {
        let symptom = EventInstance::new(
            "symptom",
            TimeWindow::at(Timestamp(start)),
            Location::Router(router),
        );
        match label_evt {
            None => Diagnosis {
                symptom,
                evidence: vec![],
                root_causes: vec![],
            },
            Some(name) => {
                let ev = crate::engine::Evidence {
                    rule: 0,
                    instance: EventInstance::new(
                        name,
                        TimeWindow::at(Timestamp(start)),
                        Location::Router(router),
                    ),
                    priority: 10,
                    depth: 1,
                    parent: None,
                };
                Diagnosis {
                    symptom,
                    evidence: vec![ev],
                    root_causes: vec![0],
                }
            }
        }
    }

    #[test]
    fn breakdown_counts_and_percentages() {
        let topo = generate(&TopoGenConfig::small());
        let r = RouterId::new(0);
        let diags = vec![
            mk_diag(&topo, Some("iface-flap"), 0, r),
            mk_diag(&topo, Some("iface-flap"), 86_400, r),
            mk_diag(&topo, Some("cpu"), 10, r),
            mk_diag(&topo, None, 20, r),
        ];
        let b = ResultBrowser::new(&topo, &diags).breakdown();
        assert_eq!(b.total, 4);
        assert_eq!(b.rows[0].0, "iface-flap");
        assert_eq!(b.pct("iface-flap"), 50.0);
        assert_eq!(b.pct("unknown"), 25.0);
        assert_eq!(b.pct("missing"), 0.0);
        let pct_sum: f64 = b.rows.iter().map(|(_, _, p)| p).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9);
        let rendered = b.render("test");
        assert!(rendered.contains("iface-flap"));
        assert!(rendered.contains("50.00%"));
    }

    #[test]
    fn filters_and_trend() {
        let topo = generate(&TopoGenConfig::small());
        let r0 = RouterId::new(0);
        let r1 = RouterId::new(1);
        let diags = vec![
            mk_diag(&topo, Some("a"), 0, r0),
            mk_diag(&topo, None, 10, r1),
            mk_diag(&topo, Some("a"), 86_400 + 5, r0),
        ];
        let rb = ResultBrowser::new(&topo, &diags);
        assert_eq!(rb.with_label("a").len(), 2);
        assert_eq!(rb.unexplained().len(), 1);
        assert_eq!(rb.at_router(r0).len(), 2);
        let trend = rb.trend();
        assert_eq!(trend.len(), 2);
        assert_eq!(trend[&0]["a"], 1);
        assert_eq!(trend[&1]["a"], 1);
    }

    #[test]
    fn render_trend_tabulates_days() {
        let topo = generate(&TopoGenConfig::small());
        let r = RouterId::new(0);
        let diags = vec![
            mk_diag(&topo, Some("a"), 10, r),
            mk_diag(&topo, Some("a"), 20, r),
            mk_diag(&topo, Some("b"), 86_400 + 10, r),
        ];
        let rb = ResultBrowser::new(&topo, &diags);
        let txt = render_trend(&rb.trend());
        assert!(txt.contains("1970-01-01"));
        assert!(txt.contains("1970-01-02"));
        assert!(txt.contains('a') && txt.contains('b'));
    }

    #[test]
    fn render_diagnosis_shows_chain() {
        let topo = generate(&TopoGenConfig::small());
        let r = RouterId::new(0);
        let d = mk_diag(&topo, Some("iface-flap"), 100, r);
        let txt = render_diagnosis(&topo, &d);
        assert!(txt.contains("verdict  iface-flap"));
        assert!(txt.contains("cause chain:"));
        let unknown = mk_diag(&topo, None, 100, r);
        assert!(render_diagnosis(&topo, &unknown).contains("verdict  unknown"));
    }

    #[test]
    fn in_window_filters_by_start() {
        let topo = generate(&TopoGenConfig::small());
        let r = RouterId::new(0);
        let diags = vec![mk_diag(&topo, None, 100, r), mk_diag(&topo, None, 5_000, r)];
        let rb = ResultBrowser::new(&topo, &diags);
        let w = TimeWindow::new(Timestamp(0), Timestamp(1000));
        assert_eq!(rb.in_window(w).len(), 1);
    }

    #[test]
    fn drill_down_scopes_by_router_and_time() {
        let topo = generate(&TopoGenConfig::small());
        let r0 = topo.router_by_name("nyc-per1").unwrap();
        let recs = vec![
            grca_telemetry::records::RawRecord::Syslog(grca_telemetry::records::SyslogLine {
                host: "nyc-per1".into(),
                line: "2010-01-01 00:01:00 %SYS-5-RESTART: System restarted".into(),
            }),
            grca_telemetry::records::RawRecord::Syslog(grca_telemetry::records::SyslogLine {
                host: "chi-per1".into(), // other router: excluded
                line: "2010-01-01 00:01:00 %SYS-5-RESTART: System restarted".into(),
            }),
        ];
        let (db, _) = Database::ingest(&topo, &recs);
        let utc =
            grca_types::TimeZone::US_EASTERN.to_utc(Timestamp::from_civil(2010, 1, 1, 0, 1, 0));
        let d = mk_diag(&topo, None, utc.unix(), r0);
        let dd = drill_down(&topo, &db, &d, Duration::mins(5));
        assert_eq!(dd.syslog.len(), 1);
        assert!(dd.syslog[0].contains("nyc-per1"));
        assert_eq!(dd.total(), 1);
    }
}
