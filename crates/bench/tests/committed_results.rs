//! The committed benchmark results under `results/` must satisfy their
//! committed schema contracts. The experiment binaries validate before
//! writing, but nothing else stops a schema edit (or a hand-edited
//! JSON) from landing with a stale counterpart — this test does.

use grca_bench::schema;

fn check(result: &str, schema_file: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/");
    let doc = std::fs::read_to_string(format!("{dir}{result}"))
        .unwrap_or_else(|e| panic!("read results/{result}: {e}"));
    let contract = std::fs::read_to_string(format!("{dir}{schema_file}"))
        .unwrap_or_else(|e| panic!("read results/{schema_file}: {e}"));
    if let Err(errors) = schema::validate(&doc, &contract) {
        panic!("results/{result} violates results/{schema_file}: {errors:?}");
    }
}

#[test]
fn committed_recovery_results_satisfy_schema() {
    check("BENCH_rca_recovery.json", "BENCH_rca_recovery.schema.json");
}
