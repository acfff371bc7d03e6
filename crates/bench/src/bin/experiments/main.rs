//! Every experiment of EXPERIMENTS.md, run from one table.
//!
//! Each entry regenerates the `results/*.json` files it names and
//! panics when one of its own self-checks fails; the runner does all
//! writing. With no flag every entry runs and rewrites its files.
//!
//! * `--only NAME` (repeatable) runs only the named entries.
//! * `--smoke` runs the small chaos and recovery configurations (every
//!   other entry is already seconds) and writes nothing.
//! * `--check` regenerates into a private temporary directory and
//!   compares each file byte for byte with the committed one, naming
//!   every file that differs or is missing. The golden corpus also goes
//!   through its one-point tolerance check. On a difference the fresh
//!   files are left in place for `diff`.
//!
//! ```sh
//! cargo run --release -p grca-bench --bin experiments -- --check
//! cargo run --release -p grca-bench --bin experiments -- --only paper_tables
//! ```

mod ablation_bayes;
mod ablation_joinlevel;
mod ablation_nice;
mod ablation_temporal;
mod eval_golden;
mod ext_cyclic;
mod ext_online;
mod fig3;
mod fig7_mining;
mod fig8_bayes;
mod online_chaos;
mod paper_tables;
mod recovery;
mod rule_validation;
mod table1;
mod table2;

use std::path::{Path, PathBuf};

/// What an entry hands the runner: each file's name under `results/`
/// and its JSON text.
type Output = Vec<(&'static str, String)>;

/// One experiment.
struct Experiment {
    /// The name `--only` selects it by.
    name: &'static str,
    /// The files it writes under `results/`, in the order it returns them.
    files: &'static [&'static str],
    /// Runs it, at the smoke configuration when the flag is set.
    run: fn(bool) -> Output,
    /// A check beside the byte diff: the fresh and the committed text of
    /// each of its files, to the problems found.
    check: Option<fn(&str, &str) -> Vec<String>>,
}

const fn entry(
    name: &'static str,
    files: &'static [&'static str],
    run: fn(bool) -> Output,
) -> Experiment {
    Experiment {
        name,
        files,
        run,
        check: None,
    }
}

const EXPERIMENTS: &[Experiment] = &[
    entry("table1", &["exp_table1.json"], table1::run),
    entry("table2", &["exp_table2.json"], table2::run),
    entry("fig3", &[], fig3::run),
    entry(
        "paper_tables",
        &["exp_table4.json", "exp_table6.json", "exp_table8.json"],
        paper_tables::run,
    ),
    entry("fig7_mining", &["exp_fig7_mining.json"], fig7_mining::run),
    entry("fig8_bayes", &["exp_fig8_bayes.json"], fig8_bayes::run),
    entry(
        "rule_validation",
        &["exp_rule_validation.json"],
        rule_validation::run,
    ),
    entry(
        "ablation_temporal",
        &["exp_ablation_temporal.json"],
        ablation_temporal::run,
    ),
    entry(
        "ablation_bayes",
        &["exp_ablation_bayes.json"],
        ablation_bayes::run,
    ),
    entry(
        "ablation_joinlevel",
        &["exp_ablation_joinlevel.json"],
        ablation_joinlevel::run,
    ),
    entry(
        "ablation_nice",
        &["exp_ablation_nice.json"],
        ablation_nice::run,
    ),
    entry("ext_cyclic", &["exp_ext_cyclic.json"], ext_cyclic::run),
    entry("ext_online", &["exp_ext_online.json"], ext_online::run),
    entry(
        "online_chaos",
        &["BENCH_rca_chaos.json", "EVAL_chaos.json"],
        online_chaos::run,
    ),
    entry("recovery", &["BENCH_rca_recovery.json"], recovery::run),
    Experiment {
        check: Some(eval_golden::tolerance),
        ..entry("eval_golden", &["EVAL_golden.json"], eval_golden::run)
    },
];

/// A result's text as it is committed.
fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serialize result")
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

const USAGE: &str = "usage: experiments [--only NAME]... [--smoke | --check]";

/// The picked entries (all when no `--only`), `--smoke` and `--check`.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<&'static Experiment>, bool, bool), String> {
    let (mut picked, mut smoke, mut check) = (Vec::new(), false, false);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--only" => {
                let name = args.next().ok_or("--only needs a name")?;
                let e = EXPERIMENTS.iter().find(|e| e.name == name);
                picked.push(e.ok_or_else(|| format!("no experiment {name:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if smoke && check {
        return Err("--smoke writes nothing, so there is nothing to --check".into());
    }
    if picked.is_empty() {
        picked = EXPERIMENTS.iter().collect();
    }
    Ok((picked, smoke, check))
}

/// Every file of `output` whose text is not byte for byte the one in
/// `committed`, by name.
fn compare(output: &Output, committed: &Path) -> Vec<String> {
    output
        .iter()
        .filter_map(|(file, text)| match std::fs::read(committed.join(file)) {
            Ok(old) if old == text.as_bytes() => None,
            Ok(_) => Some(format!("{file}: differs from the committed file")),
            Err(_) => Some(format!("{file}: missing from results/")),
        })
        .collect()
}

fn main() {
    // The recovery entry's crash and restart children re-execute this
    // binary with the case in their environment.
    if std::env::var_os("GRCA_RECOVERY_CHILD").is_some() {
        return recovery::child_main();
    }
    let (picked, smoke, check) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    });
    let committed = results_dir();
    let out = if check {
        std::env::temp_dir().join(format!("grca-experiments-{}", std::process::id()))
    } else {
        committed.clone()
    };
    std::fs::create_dir_all(&out).expect("create output dir");

    let mut problems = Vec::new();
    for e in &picked {
        println!("\n=== {}", e.name);
        let Ok(output) = std::panic::catch_unwind(|| (e.run)(smoke)) else {
            problems.push(format!("{}: self-check failed", e.name));
            continue;
        };
        let files: Vec<&str> = output.iter().map(|(f, _)| *f).collect();
        assert_eq!(files, e.files, "{}: returned other files", e.name);
        if smoke {
            continue;
        }
        for (file, text) in &output {
            std::fs::write(out.join(file), text).expect("write result");
            println!("[wrote {}]", out.join(file).display());
        }
        if check {
            problems.extend(compare(&output, &committed));
            if let Some(extra) = e.check {
                for (file, text) in &output {
                    let old = std::fs::read_to_string(committed.join(file)).unwrap_or_default();
                    problems.extend(extra(text, &old).iter().map(|p| format!("{file}: {p}")));
                }
            }
        }
    }

    if check && problems.is_empty() {
        std::fs::remove_dir_all(&out).ok();
        println!("\nchecked: every file regenerates byte for byte");
    } else if check {
        eprintln!("\nregenerated files are in {}", out.display());
    }
    for p in &problems {
        eprintln!("FAILED {p}");
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_result_file_belongs_to_exactly_one_entry() {
        let named: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.files.to_vec()).collect();
        let committed: Vec<String> = std::fs::read_dir(results_dir())
            .expect("read results/")
            .map(|d| d.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with(".json") && !f.ends_with(".schema.json"))
            .collect();
        for f in &committed {
            let owners = named.iter().filter(|n| *n == f).count();
            assert_eq!(owners, 1, "results/{f} is named by {owners} entries");
        }
        for f in &named {
            assert!(committed.iter().any(|c| c == f), "results/{f} is missing");
        }
    }

    #[test]
    fn compare_names_a_changed_and_a_missing_file() {
        let committed = results_dir();
        let text = |f: &str| std::fs::read_to_string(committed.join(f)).unwrap();
        let mut changed = text("exp_table2.json");
        changed.pop();
        changed.push(' ');
        let output = vec![
            ("exp_table1.json", text("exp_table1.json")),
            ("exp_table2.json", changed),
            ("exp_no_such_table.json", "{}".to_string()),
        ];
        assert_eq!(
            compare(&output, &committed),
            [
                "exp_table2.json: differs from the committed file",
                "exp_no_such_table.json: missing from results/"
            ]
        );
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        let (all, smoke, check) = parse(&[]).unwrap();
        assert_eq!((all.len(), smoke, check), (EXPERIMENTS.len(), false, false));
        let (some, _, check) =
            parse(&["--only", "fig3", "--only", "eval_golden", "--check"]).unwrap();
        let names: Vec<&str> = some.iter().map(|e| e.name).collect();
        assert_eq!((names, check), (vec!["fig3", "eval_golden"], true));
        for bad in [
            &["--only", "no_such"][..],
            &["--only"],
            &["--smoke", "--check"],
            &["-x"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
