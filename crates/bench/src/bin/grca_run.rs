//! A small CLI over the platform: simulate a scenario, run a study, print
//! the breakdown and accuracy.
//!
//! ```sh
//! grca_run <bgp|cdn|pim> [--days N] [--seed N] [--scale small|default|paper] [--report N]
//! ```

use grca_apps::{report, Study};
use grca_bench::fixture;
use grca_core::{render_diagnosis, ResultBrowser};
use grca_net_model::gen::TopoGenConfig;
use grca_simnet::FaultRates;

fn usage() -> ! {
    eprintln!(
        "usage: grca_run <bgp|cdn|pim> [--days N] [--seed N] \
         [--scale small|default|paper] [--report N]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(study_arg) = args.first() else {
        usage()
    };
    let (study, rates, default_days): (Study, FaultRates, u32) = match study_arg.as_str() {
        "bgp" => (Study::Bgp, FaultRates::bgp_study(), 30),
        "cdn" => (Study::Cdn, FaultRates::cdn_study(), 30),
        "pim" => (Study::Pim, FaultRates::pim_study(), 14),
        _ => usage(),
    };
    let mut days = default_days;
    let mut seed = 2010u64;
    let mut scale = "default".to_string();
    let mut report_n = 0usize;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--days" => days = val.parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage()),
            "--scale" => scale = val.clone(),
            "--report" => report_n = val.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let topo_cfg = match scale.as_str() {
        "small" => TopoGenConfig::small(),
        "default" => TopoGenConfig::default(),
        "paper" => TopoGenConfig::paper_scale(),
        _ => usage(),
    };

    eprintln!("simulating {days} days (seed {seed}, scale {scale}) ...");
    let fx = fixture(&topo_cfg, days, seed, rates);
    eprintln!(
        "{} raw records on {}",
        fx.out.records.len(),
        fx.topo.summary()
    );
    let run = study
        .run(&fx.topo, &fx.db)
        .expect("valid application configuration");

    let rb = ResultBrowser::new(&fx.topo, &run.diagnoses);
    println!(
        "{}",
        rb.breakdown()
            .render(&format!("{study_arg} root-cause breakdown"))
    );
    println!("paper categories:");
    for (cat, n, pct) in report::category_breakdown(study, &fx.topo, &run.diagnoses) {
        println!("  {cat:<55} {n:>7}  {pct:>6.2}%");
    }
    let acc = report::score(study, &fx.topo, &run.diagnoses, &fx.out.truth);
    println!(
        "\naccuracy vs hidden ground truth: {:.2}% ({} matched)",
        100.0 * acc.rate(),
        acc.matched
    );
    for d in run.diagnoses.iter().take(report_n) {
        println!("\n{}", render_diagnosis(&fx.topo, d));
    }
}
