//! E3 — Fig. 3: the three temporal expanding options, plus the worked
//! example of §II-C (the eBGP flap / interface flap join).

use crate::Output;
use grca_core::{ExpandOption, Expansion, TemporalRule};
use grca_types::{TimeWindow, Timestamp};

fn show(opt: ExpandOption, x: i64, y: i64, w: TimeWindow) {
    let e = Expansion::new(opt, x, y);
    println!(
        "  {:<12} X={x:>4} Y={y:>3}: {} -> {}",
        opt.to_string(),
        w,
        e.expand(w)
    );
}

pub fn run(_smoke: bool) -> Output {
    let w = TimeWindow::new(Timestamp(1000), Timestamp(2000));
    println!("expanding options over the raw window {w}:");
    show(ExpandOption::StartEnd, 5, 5, w);
    show(ExpandOption::StartStart, 180, 5, w);
    show(ExpandOption::EndEnd, 10, 20, w);

    println!("\n§II-C worked example:");
    let rule = TemporalRule::new(
        Expansion::new(ExpandOption::StartStart, 180, 5),
        Expansion::new(ExpandOption::StartEnd, 5, 5),
    );
    let symptom = TimeWindow::new(Timestamp(1000), Timestamp(2000));
    let diag = TimeWindow::new(Timestamp(900), Timestamp(901));
    println!(
        "  eBGP flap      {symptom} expands to {}",
        rule.symptom.expand(symptom)
    );
    println!(
        "  interface flap {diag} expands to {}",
        rule.diagnostic.expand(diag)
    );
    println!(
        "  temporally joined: {} (paper: yes — [820,1005] overlaps [895,906])",
        rule.joined(symptom, diag)
    );
    assert!(rule.joined(symptom, diag));
    assert_eq!(
        rule.symptom.expand(symptom),
        TimeWindow::new(Timestamp(820), Timestamp(1005))
    );
    assert_eq!(
        rule.diagnostic.expand(diag),
        TimeWindow::new(Timestamp(895), Timestamp(906))
    );
    println!("\nassertions passed: expansion arithmetic matches the paper exactly");
    Vec::new()
}
