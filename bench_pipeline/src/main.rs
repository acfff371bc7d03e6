//! `bench_pipeline` — one named, stage-attributed benchmark for G-RCA's
//! online, durable, serving and batch paths. See `README.md` beside this
//! package for the workloads, every metric's definition and bound, and the
//! public functions of the system the benchmark calls.
//!
//! ```text
//! bench_pipeline --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench_pipeline --all [--seed N] [--seconds S] [--trace] [--smoke]
//! bench_pipeline --aa  [--seed N] [--seconds S] [--smoke]
//! bench_pipeline --contract | --probe
//! ```
//!
//! A `--workload` run prints its narrative to stderr and, as the last line
//! of stdout, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics of an untraced run, or with
//! `--trace 1` the per-layer metrics of a traced one. It exits non-zero if
//! any output failed its reference check.

mod batch;
mod host;
mod metrics;
mod quality;
mod serve;
mod soak;
mod soak_staged;
mod stats;
mod trace;

use grca_bench::mem::{vm_hwm_kb, CountingAlloc};
use grca_bench::schema::{self, Json};
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 2026;
/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Complete set-ups per run, at least and at most; `setup_s` is their median.
pub const SETUP_REPEATS: (usize, usize) = (3, 25);
/// Set-up is repeated until it has taken this long in all: the cheap
/// set-ups (tens of milliseconds) are the ones one sample says least about.
pub const SETUP_BUDGET_SECS: f64 = 1.5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub all: bool,
    pub aa: bool,
}

impl Args {
    /// Seconds of timed work per half: a traced run spends half its budget
    /// on the untraced baseline the trace is checked against.
    pub fn budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What a workload run hands back: the reference check's tally and the
/// metrics it measured, by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail on anything that failed.
    pub notes: Vec<String>,
}

/// Scratch space inside the build's target directory (the binary lives in
/// `<target>/release/`), so nothing is written outside the checkout.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("binary sits in <target>/<profile>/");
    target.join("bench_pipeline")
}

/// Forget the process's peak RSS so far, so `peak_rss_mb` covers the timed
/// section (inputs held in memory + the pipeline) and not set-up's
/// transients. Best effort: without it the peak simply includes set-up.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

pub fn peak_rss_mb() -> f64 {
    vm_hwm_kb().unwrap_or(0) as f64 / 1024.0
}

/// Set up several times, keeping the last: set-up cost is a metric of its
/// own (`setup_s`, the median), and one sample of it is noise. Like every
/// wall-clock metric it is corrected for the host's slowness, read before
/// and after each set-up (see [`host`]).
pub fn set_up<T>(mut generate: impl FnMut() -> T) -> (T, f64) {
    let (least, most) = SETUP_REPEATS;
    let started = Instant::now();
    let mut probes = host::Probes::default();
    let mut secs = Vec::new();
    let mut input = None;
    while secs.len() < least
        || (secs.len() < most && started.elapsed().as_secs_f64() < SETUP_BUDGET_SECS)
    {
        drop(input.take());
        probes.take();
        let t0 = Instant::now();
        input = Some(generate());
        secs.push(t0.elapsed().as_secs_f64());
    }
    probes.take();
    let corrected: Vec<f64> = secs
        .iter()
        .enumerate()
        .map(|(i, s)| s / probes.slowness(i))
        .collect();
    (
        input.expect("set up at least once"),
        stats::median(&corrected),
    )
}

/// Per metric, the median over several passes' readings of it.
pub fn median_of_each(passes: Vec<BTreeMap<&'static str, f64>>) -> BTreeMap<&'static str, f64> {
    passes[0]
        .keys()
        .map(|&key| {
            let readings: Vec<f64> = passes.iter().map(|m| m[key]).collect();
            (key, stats::median(&readings))
        })
        .collect()
}

/// Positions at which two sequences disagree, a difference in length
/// counted once per missing item.
pub fn differing<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// Call `f` until the next call would overrun `budget_secs`; at least once.
pub fn repeat_for<T>(budget_secs: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        let c0 = Instant::now();
        out.push(f());
        let last = c0.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() + last > budget_secs {
            return out;
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_pipeline --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      bench_pipeline --all|--aa [--seed N] [--seconds S] [--trace] [--smoke]\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        all: false,
        aa: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i)),
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--aa" => args.aa = true,
            "--probe" => {
                // The host-speed probe on its own: how `PROBE_REF_NS` is read.
                let ns = stats::sorted((0..500).map(|_| host::probe_ns() as f64).collect());
                println!(
                    "probe ns over 500 readings: min {} p10 {} p50 {} p90 {} (reference {})",
                    ns[0],
                    stats::percentile(&ns, 0.1),
                    stats::percentile(&ns, 0.5),
                    stats::percentile(&ns, 0.9),
                    host::PROBE_REF_NS
                );
                std::process::exit(0);
            }
            "--contract" => {
                print!("{}", contract_json());
                std::process::exit(0);
            }
            _ => usage(),
        }
        i += 1;
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage();
    }
    args
}

/// `BENCHMARK.json`, generated from the registry in [`metrics`].
fn contract_json() -> String {
    let metric = |m: &MetricDef, bound: bool| {
        let b = if bound {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{b}}}",
            m.name, m.unit, m.better
        )
    };
    let join = |v: Vec<String>| v.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"bench_pipeline/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"bench_pipeline\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS as u64,
        join(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        join(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        join(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    match name {
        "soak-tier1" | "soak-fine" | "soak-hostile" => soak::run(name, args),
        "serve-live" => serve::run(args),
        "batch-studies" => batch::run(args),
        _ => usage(),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of the run's kind, values with all their digits.
fn result_line(out: &Outcome, defs: &[MetricDef], strict: bool) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = match out.metrics.get(m.name) {
                Some(v) => *v,
                None if strict => panic!("workload did not report {}", m.name),
                None => 0.0,
            };
            assert!(v.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn single(name: &str, args: &Args) -> ! {
    eprintln!(
        "bench_pipeline {name}: seed {}, {} s, trace {}, {} cores{}",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if args.smoke { ", smoke sizes" } else { "" }
    );
    let out = run_workload(name, args);
    for note in &out.notes {
        eprintln!("{name}: FAILED CHECK: {note}");
    }
    let (defs, strict) = if args.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    for m in defs {
        if let Some(v) = out.metrics.get(m.name) {
            eprintln!("  {:<36} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    eprintln!(
        "  failed_frac {} / {} = {}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", result_line(&out, defs, strict));
    std::process::exit(if out.failed == 0 && out.attempted > 0 {
        0
    } else {
        1
    });
}

/// One workload in a child process (so `VmHWM` is its own), result parsed
/// back from the child's last stdout line.
fn child(name: &str, args: &Args, trace: bool) -> BTreeMap<String, f64> {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn workload child");
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let doc = schema::parse(line).unwrap_or_else(|e| panic!("{name}: no result line: {e}"));
    assert!(
        out.status.success() && doc.get("correct") == Some(&Json::Bool(true)),
        "{name}: outputs failed their reference check: {line}"
    );
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("{name}: result has no metrics");
    };
    metrics
        .iter()
        .map(|(k, m)| match m.get("value") {
            Some(Json::Num(v)) => (k.clone(), *v),
            _ => panic!("{name}: metric {k} has no value"),
        })
        .collect()
}

type Results = BTreeMap<&'static str, BTreeMap<String, f64>>;

fn print_set(title: &str, defs: &[MetricDef], sets: &[&Results]) {
    println!("\n{title}");
    print!("{:<36} {:<9}", "metric", "unit");
    for w in WORKLOADS {
        for _ in sets {
            print!(" {:>14}", w.name);
        }
    }
    println!();
    for m in defs {
        print!("{:<36} {:<9}", m.name, m.unit);
        for w in WORKLOADS {
            for set in sets {
                print!(" {:>14.4}", set[w.name].get(m.name).copied().unwrap_or(0.0));
            }
        }
        println!();
    }
}

/// `--all`: every workload, each in its own child; with `--trace` the
/// traced set follows the untraced one.
fn all(args: &Args) {
    let run_set = |trace: bool, order: &mut dyn Iterator<Item = &'static str>| -> Results {
        order.map(|name| (name, child(name, args, trace))).collect()
    };
    let names = || WORKLOADS.iter().map(|w| w.name);
    let e2e = run_set(false, &mut names());
    print_set("end-to-end metrics (untraced run)", END_TO_END, &[&e2e]);
    if args.trace {
        let layers = run_set(true, &mut names());
        print_set("per-layer metrics (traced run)", PER_LAYER, &[&layers]);
    }
}

/// `--aa`: the untraced set twice, second time in reverse workload order;
/// fail if any end-to-end metric moved by more than its own bound.
fn aa(args: &Args) {
    let names = || WORKLOADS.iter().map(|w| w.name);
    let a: Results = names().map(|n| (n, child(n, args, false))).collect();
    let b: Results = names().rev().map(|n| (n, child(n, args, false))).collect();
    print_set(
        "end-to-end metrics, A/A (two runs side by side per workload)",
        END_TO_END,
        &[&a, &b],
    );
    let mut breaches = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (x, y) = (a[w.name][m.name], b[w.name][m.name]);
            let rel = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            if rel > m.bound {
                breaches += 1;
                println!(
                    "A/A BREACH {} {}: {x} vs {y} differ by {:.1}% > bound {:.0}%",
                    w.name,
                    m.name,
                    rel * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }
    if breaches > 0 {
        std::process::exit(1);
    }
    println!("\nA/A: every end-to-end metric agrees within its own bound");
}

fn main() {
    let args = parse_args();
    if args.aa {
        aa(&args);
    } else if args.all {
        all(&args);
    } else if let Some(name) = args.workload.clone() {
        single(&name, &args);
    } else {
        usage();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_what_the_repo_root_carries() {
        assert_eq!(
            contract_json(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with `bench_pipeline --contract > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 10,
            ..Default::default()
        };
        for m in END_TO_END {
            out.metrics.insert(m.name, 1.25);
        }
        let doc = schema::parse(&result_line(&out, END_TO_END, true)).expect("valid JSON");
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn repeat_for_runs_at_least_once_and_respects_the_budget() {
        assert_eq!(repeat_for(0.0, || 1).len(), 1);
        let n = repeat_for(0.05, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        })
        .len();
        assert!((2..=5).contains(&n), "{n} calls in a 50 ms budget");
    }
}
