//! The checked-in `CORPUS.json` describes the corpus the code runs: its
//! `spec` objects parse back, case by case, to `default_corpus()`. Parse
//! only, no runs — so a report not regenerated after a spec change fails
//! `cargo test`, not only the corpus job that reruns the matrix.

use strom::nic::corpus::default_corpus;
use strom::nic::ScenarioSpec;
use strom::telemetry::json::{self, Value};

#[test]
fn checked_in_corpus_report_specs_are_the_default_corpus() {
    let text = include_str!("../CORPUS.json");
    let doc = json::parse(text).expect("CORPUS.json parses");
    let Some(Value::Arr(cases)) = doc.get("cases") else {
        panic!("CORPUS.json has no cases array");
    };
    let corpus = default_corpus();
    assert_eq!(cases.len(), corpus.len(), "one report case per corpus case");
    for (case, item) in corpus.iter().zip(cases) {
        let spec = item.get("spec").expect("each report case has a spec");
        let parsed = ScenarioSpec::from_value(spec).unwrap_or_else(|e| {
            panic!("{}: the report's spec does not parse: {e}", case.spec.id())
        });
        assert_eq!(
            parsed,
            case.spec,
            "{}: CORPUS.json is stale — regenerate it with `figures corpus`",
            case.spec.id()
        );
    }
}
