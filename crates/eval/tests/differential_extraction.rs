//! Differential test for the single-pass extractor: over every golden
//! corpus scenario — all three studies, including the adversarial
//! telemetry mutations — registering the study's full definition library
//! and extracting in one pass per table must produce exactly the same
//! event store as the per-definition baseline scans.

use grca_eval::corpus;
use grca_events::{extract_all, extract_all_baseline, ExtractCx};

#[test]
fn single_pass_extraction_matches_baseline_over_golden_corpus() {
    for s in corpus() {
        let built = s.build();
        let defs = s.study.definitions(&built.topo);
        // Routing state feeds the egress-change definition (CDN study);
        // supplying it everywhere matches the applications' run paths and
        // is a no-op for libraries without routing-derived events.
        let routing = grca_apps::build_routing(&built.topo, &built.db);
        let cx = ExtractCx::new(&built.topo, &built.db, Some(&routing));
        let fast = extract_all(&defs, &cx);
        let slow = extract_all_baseline(&defs, &cx);
        assert_eq!(
            fast.total(),
            slow.total(),
            "scenario {}: instance counts diverge",
            s.name
        );
        assert!(
            fast == slow,
            "scenario {}: single-pass store diverges from per-definition baseline",
            s.name
        );
    }
}
