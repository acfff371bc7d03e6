//! Experiment harness shared by the `exp_*` binaries and Criterion benches.
//!
//! Every table and figure of the paper's evaluation has a regenerating
//! binary in `src/bin/` (see DESIGN.md §3 for the index). The helpers here
//! build the standard fixtures (topology, scenario, collector database,
//! application runs) and render side-by-side paper-vs-measured tables; the
//! binaries persist machine-readable results under `results/` for
//! EXPERIMENTS.md.

use grca_collector::Database;
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::Topology;
use grca_simnet::{run_scenario, FaultRates, ScenarioConfig, SimOutput};
use grca_types::Duration;
use serde::Serialize;
use std::path::PathBuf;

/// A ready-to-analyze fixture.
pub struct Fixture {
    pub topo: Topology,
    pub cfg: ScenarioConfig,
    pub out: SimOutput,
    pub db: Database,
}

/// Build a fixture: simulate + ingest. Panics on collector drops (the
/// simulator and topology must agree).
pub fn fixture(topo_cfg: &TopoGenConfig, days: u32, seed: u64, rates: FaultRates) -> Fixture {
    fixture_with(topo_cfg, days, seed, rates, |_| {})
}

/// Like [`fixture`], with a hook to adjust the scenario configuration
/// (confounder probabilities, baselines) before the simulation runs.
pub fn fixture_with(
    topo_cfg: &TopoGenConfig,
    days: u32,
    seed: u64,
    rates: FaultRates,
    tweak: impl FnOnce(&mut ScenarioConfig),
) -> Fixture {
    let topo = generate(topo_cfg);
    let mut cfg = ScenarioConfig::new(days, seed, rates);
    // Paper-scale topologies produce heavy baselines; coarsen them.
    if topo.routers.len() > 200 {
        cfg.background.snmp_baseline_bin = Duration::hours(6);
        cfg.background.perf_baseline_bin = Duration::hours(6);
        cfg.background.cdn_baseline_bin = Duration::hours(6);
    }
    tweak(&mut cfg);
    let out = run_scenario(&topo, &cfg);
    let (db, stats) = Database::ingest(&topo, &out.records);
    assert_eq!(
        stats.total_dropped(),
        0,
        "collector drops:\n{}",
        stats.render()
    );
    Fixture { topo, cfg, out, db }
}

/// One row of a paper-vs-measured comparison.
#[derive(Debug, Serialize)]
pub struct CompareRow {
    pub category: String,
    pub paper_pct: Option<f64>,
    pub measured_pct: f64,
    pub measured_count: usize,
}

/// Assemble comparison rows: paper percentages (None = row not in paper)
/// joined with a measured `(category, count, pct)` breakdown.
pub fn compare(paper: &[(&str, f64)], measured: &[(String, usize, f64)]) -> Vec<CompareRow> {
    let mut rows: Vec<CompareRow> = Vec::new();
    for (cat, p) in paper {
        let m = measured.iter().find(|(c, _, _)| c == cat);
        rows.push(CompareRow {
            category: cat.to_string(),
            paper_pct: Some(*p),
            measured_pct: m.map(|(_, _, p)| *p).unwrap_or(0.0),
            measured_count: m.map(|(_, n, _)| *n).unwrap_or(0),
        });
    }
    for (cat, n, pct) in measured {
        if !paper.iter().any(|(c, _)| c == cat) {
            rows.push(CompareRow {
                category: cat.clone(),
                paper_pct: None,
                measured_pct: *pct,
                measured_count: *n,
            });
        }
    }
    rows
}

/// Render the comparison as a text table.
pub fn render_compare(title: &str, rows: &[CompareRow]) -> String {
    let w = rows
        .iter()
        .map(|r| r.category.len())
        .max()
        .unwrap_or(10)
        .max(8);
    let mut out = format!(
        "{title}\n{:<w$}  {:>9}  {:>9}  {:>7}\n",
        "category", "paper %", "ours %", "count"
    );
    out.push_str(&format!("{:-<len$}\n", "", len = w + 31));
    for r in rows {
        let paper = r
            .paper_pct
            .map(|p| format!("{p:>8.2}%"))
            .unwrap_or_else(|| "       --".to_string());
        out.push_str(&format!(
            "{:<w$}  {paper}  {:>8.2}%  {:>7}\n",
            r.category, r.measured_pct, r.measured_count
        ));
    }
    out
}

/// One paper-table reproduction: a study's batch run over a fixture,
/// broken down by the paper's categories and scored against the hidden
/// ground truth.
pub struct TableRun {
    /// Symptoms diagnosed.
    pub diagnosed: usize,
    /// Per-symptom accuracy against the simulator's ground truth.
    pub accuracy: f64,
    pub rows: Vec<CompareRow>,
}

/// Run `study` over `fx`, print the per-symptom cost (next to the paper's
/// `paper_cost`), the paper-vs-measured table under `title` and the
/// accuracy, and return the numbers the table binaries persist.
pub fn table_run(
    study: grca_apps::Study,
    fx: &Fixture,
    paper: &[(&str, f64)],
    title: &str,
    paper_cost: &str,
) -> TableRun {
    let t = std::time::Instant::now();
    let run = study.run(&fx.topo, &fx.db).expect("valid app");
    let secs = t.elapsed().as_secs_f64();
    println!(
        "diagnosed {} symptoms in {secs:.1}s ({:.1} ms/symptom; paper: {paper_cost})\n",
        run.diagnoses.len(),
        secs * 1e3 / run.diagnoses.len().max(1) as f64
    );
    let measured = grca_apps::category_breakdown(study, &fx.topo, &run.diagnoses);
    let rows = compare(paper, &measured);
    println!("{}", render_compare(title, &rows));
    let acc = grca_apps::score(study, &fx.topo, &run.diagnoses, &fx.out.truth);
    println!(
        "accuracy vs hidden ground truth: {:.2}%",
        100.0 * acc.rate()
    );
    TableRun {
        diagnosed: run.diagnoses.len(),
        accuracy: acc.rate(),
        rows,
    }
}

/// Process-level memory observability for the experiment binaries:
/// the peak resident set from `/proc/self/status` and a counting global
/// allocator for per-phase allocation accounting.
pub mod mem {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Peak (high-water-mark) resident set size in kB since process start
    /// (`None` off Linux).
    pub fn vm_hwm_kb() -> Option<u64> {
        let s = std::fs::read_to_string("/proc/self/status").ok()?;
        s.lines().find_map(|line| {
            let rest = line.strip_prefix("VmHWM:")?;
            rest.trim().strip_suffix("kB")?.trim().parse().ok()
        })
    }

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

    /// A counting wrapper around the system allocator. Install it with
    /// `#[global_allocator]` in an experiment binary, then diff
    /// [`alloc_snapshot`] around a phase to attribute allocation traffic.
    pub struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the counters are relaxed
    // atomics and never influence the returned pointers.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Cumulative `(allocation count, allocated bytes)` since process
    /// start. Only meaningful when [`CountingAlloc`] is the global
    /// allocator; returns zeros otherwise.
    pub fn alloc_snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }
}

/// Results-schema contract checking: a committed `*.schema.json` file
/// lists the metric paths a benchmark's JSON output must contain, and the
/// producing binary validates its own output against it before writing.
/// Renaming or dropping a metric then fails the run loudly instead of
/// silently shipping a result file downstream dashboards can't read.
///
/// The vendored `serde_json` exposes no dynamic `Value`, so this module
/// carries a minimal JSON reader of its own — enough to walk objects and
/// arrays along dotted paths like `presets[].latency.p95_secs` (a `[]`
/// suffix descends into every element of an array).
pub mod schema {
    /// A parsed JSON document (just enough structure to walk paths).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn literal(&mut self, text: &str, v: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or("unterminated escape")?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "invalid \\u escape".to_string())?;
                                self.pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape {:?}", other as char)),
                        }
                    }
                    Some(_) => {
                        // Copy the raw UTF-8 run up to the next quote/escape.
                        let start = self.pos;
                        while let Some(b) = self.peek() {
                            if b == b'"' || b == b'\\' {
                                break;
                            }
                            self.pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| "invalid utf-8 in string".to_string())?,
                        );
                    }
                    None => return Err("unterminated string".to_string()),
                }
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.expect(b':')?;
                let val = self.value()?;
                fields.push((key, val));
                self.ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', found {other:?}")),
                }
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = r.value()?;
        r.ws();
        if r.pos != r.bytes.len() {
            return Err(format!("trailing garbage at byte {}", r.pos));
        }
        Ok(v)
    }

    /// Check one dotted path. A segment's `[]` suffix requires the field to
    /// be a *non-empty* array and descends into every element (an empty
    /// array would vacuously hide a renamed metric).
    pub fn check_path(doc: &Json, path: &str) -> Result<(), String> {
        fn walk(v: &Json, segments: &[&str], path: &str) -> Result<(), String> {
            let Some((seg, rest)) = segments.split_first() else {
                return Ok(());
            };
            let (key, each) = match seg.strip_suffix("[]") {
                Some(k) => (k, true),
                None => (*seg, false),
            };
            let field = v
                .get(key)
                .ok_or_else(|| format!("{path}: missing field {key:?}"))?;
            if !each {
                return walk(field, rest, path);
            }
            match field {
                Json::Arr(items) if items.is_empty() => {
                    Err(format!("{path}: array {key:?} is empty"))
                }
                Json::Arr(items) => items.iter().try_for_each(|item| walk(item, rest, path)),
                _ => Err(format!("{path}: field {key:?} is not an array")),
            }
        }
        let segments: Vec<&str> = path.split('.').collect();
        walk(doc, &segments, path)
    }

    /// Validate a result document against a schema file of the form
    /// `{"required": ["path", ...]}`. Returns every violation, not just
    /// the first.
    pub fn validate(doc_text: &str, schema_text: &str) -> Result<(), Vec<String>> {
        let schema = parse(schema_text).map_err(|e| vec![format!("schema: {e}")])?;
        let Some(Json::Arr(required)) = schema.get("required") else {
            return Err(vec!["schema: missing \"required\" array".to_string()]);
        };
        let doc = parse(doc_text).map_err(|e| vec![format!("result: {e}")])?;
        let errors: Vec<String> = required
            .iter()
            .filter_map(|p| match p {
                Json::Str(path) => check_path(&doc, path).err(),
                other => Some(format!("schema: non-string path {other:?}")),
            })
            .collect();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

/// Directory for machine-readable experiment outputs.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("GRCA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("results")
        });
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Persist a JSON result snapshot under `results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, json).expect("write result");
    println!("\n[saved {}]", path.display());
}

/// Shape check: do the paper and measured distributions rank their shared
/// top-`top_k` categories identically (who wins, who follows)?
pub fn same_ranking(rows: &[CompareRow], top_k: usize) -> bool {
    let mut paper: Vec<&CompareRow> = rows.iter().filter(|r| r.paper_pct.is_some()).collect();
    let mut ours = paper.clone();
    paper.sort_by(|a, b| b.paper_pct.partial_cmp(&a.paper_pct).unwrap());
    ours.sort_by(|a, b| b.measured_pct.partial_cmp(&a.measured_pct).unwrap());
    paper
        .iter()
        .take(top_k)
        .zip(ours.iter().take(top_k))
        .all(|(p, o)| p.category == o.category)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_joins_both_sides() {
        let paper = [("A", 60.0), ("B", 30.0), ("C", 10.0)];
        let measured = vec![
            ("A".to_string(), 55, 55.0),
            ("B".to_string(), 35, 35.0),
            ("D".to_string(), 10, 10.0),
        ];
        let rows = compare(&paper, &measured);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].measured_pct, 55.0);
        assert_eq!(rows[2].measured_count, 0); // C missing in measured
        assert!(rows[3].paper_pct.is_none()); // D extra
        let txt = render_compare("t", &rows);
        assert!(txt.contains("55.00%"));
    }

    #[test]
    fn schema_parses_and_walks_paths() {
        let doc = r#"{"presets": [
            {"preset": "smoke", "latency": {"p50_secs": 3600, "p95_secs": 7200.5},
             "samples": [{"rss_mb": 10.0}, {"rss_mb": 11.5}],
             "note": "a \"quoted\" A string"}
        ], "empty": [], "flag": true, "nothing": null}"#;
        let v = schema::parse(doc).unwrap();
        assert!(schema::check_path(&v, "presets[].latency.p50_secs").is_ok());
        assert!(schema::check_path(&v, "presets[].samples[].rss_mb").is_ok());
        assert!(schema::check_path(&v, "flag").is_ok());
        // Renamed metric: fails loudly.
        let err = schema::check_path(&v, "presets[].latency.p99_secs").unwrap_err();
        assert!(err.contains("p99_secs"), "{err}");
        // Empty arrays can't vouch for their element schema.
        assert!(schema::check_path(&v, "empty[].x").is_err());
        // Non-array with [] suffix.
        assert!(schema::check_path(&v, "flag[].x").is_err());
    }

    #[test]
    fn schema_validate_reports_every_violation() {
        let doc = r#"{"a": 1, "b": {"c": 2}}"#;
        let good = r#"{"required": ["a", "b.c"]}"#;
        assert!(schema::validate(doc, good).is_ok());
        let bad = r#"{"required": ["a", "b.missing", "gone"]}"#;
        let errs = schema::validate(doc, bad).unwrap_err();
        assert_eq!(errs.len(), 2);
        assert!(schema::validate("not json", good).is_err());
        assert!(schema::validate(doc, r#"{"require": []}"#).is_err());
    }

    #[test]
    fn schema_parser_rejects_malformed_documents() {
        for bad in [
            "{",
            r#"{"a": }"#,
            r#"{"a": 1,}x"#,
            r#"[1, 2"#,
            r#""unterminated"#,
            r#"{"a": 1} trailing"#,
        ] {
            assert!(schema::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Numbers, nesting, escapes round-trip structurally.
        let v = schema::parse(r#"[-1.5e3, [[]], {"k": "\n\t\\"}]"#).unwrap();
        match v {
            schema::Json::Arr(items) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn ranking_check() {
        let rows = compare(
            &[("A", 60.0), ("B", 30.0)],
            &[("A".to_string(), 6, 58.0), ("B".to_string(), 3, 32.0)],
        );
        assert!(same_ranking(&rows, 2));
        let flipped = compare(
            &[("A", 60.0), ("B", 30.0)],
            &[("A".to_string(), 1, 10.0), ("B".to_string(), 9, 90.0)],
        );
        assert!(!same_ranking(&flipped, 1));
    }
}
