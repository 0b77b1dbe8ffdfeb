//! The corpus gate machinery, exercised end to end on a cheap subset of
//! the default corpus: pinned fingerprints match across reruns, a
//! perturbed seed or tightened floor demonstrably *fails* the gate, and
//! the report JSON round-trips its specs.
//!
//! The full 18-case matrix runs in CI via `figures corpus`; this test
//! keeps `cargo test` fast by re-checking only the light families
//! (chaos soak, KV serve, kernel chains) against the same golden file.
//! Bless flow (after an intentional behaviour change):
//!
//! ```text
//! STROM_BLESS=1 cargo run --release -p strom-bench --bin figures -- corpus
//! ```

use strom_nic::corpus::{default_corpus, golden_fingerprints, run_corpus_cases, CorpusScale};
use strom_nic::{CorpusCase, PerfGate, ScenarioSpec};

/// The light slice of the default corpus (still both platforms).
fn light_cases() -> Vec<CorpusCase> {
    default_corpus()
        .into_iter()
        .filter(|c| {
            matches!(
                c.spec.name.as_str(),
                "chaos-soak" | "kv-serve" | "chain-filter-agg-hll" | "chain-crcverify-shuffle"
            )
        })
        .collect()
}

/// Every light case reproduces its blessed quick-scale fingerprint and
/// holds its gates. (If this fails after an intentional change,
/// re-bless — see the module docs.)
#[test]
fn light_corpus_cases_match_blessed_fingerprints() {
    let cases = light_cases();
    assert_eq!(cases.len(), 8, "4 light families x 2 platforms");
    if std::env::var_os("STROM_BLESS").is_some() {
        run_corpus_cases(&cases, CorpusScale::Quick)
            .bless()
            .expect("write corpus goldens");
        return;
    }
    let report = run_corpus_cases(&cases, CorpusScale::Quick);
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "corpus gate failed:\n  {}",
        failures.join("\n  ")
    );
}

/// The acceptance demonstration: a perturbed seed produces a different
/// fingerprint, so the same golden that passes above now *fails* the
/// gate — drift cannot slip through.
#[test]
fn perturbed_seed_fails_the_fingerprint_gate() {
    let mut cases: Vec<CorpusCase> = light_cases()
        .into_iter()
        .filter(|c| c.spec.name == "kv-serve")
        .collect();
    assert_eq!(cases.len(), 2);
    for c in &mut cases {
        c.spec.seed ^= 1;
    }
    let report = run_corpus_cases(&cases, CorpusScale::Quick);
    let failures = report.failures();
    assert_eq!(
        failures.len(),
        2,
        "both platforms must report drift: {failures:?}"
    );
    for f in &failures {
        assert!(f.contains("fingerprint drift"), "unexpected failure: {f}");
    }
    assert!(!report.pass());
}

/// A tightened floor fails the perf gate even when the fingerprint
/// still matches — the two contracts are independent.
#[test]
fn impossible_floor_fails_the_perf_gate() {
    let mut cases: Vec<CorpusCase> = light_cases()
        .into_iter()
        .filter(|c| c.spec.name == "chain-filter-agg-hll")
        .collect();
    for c in &mut cases {
        c.gates.push(PerfGate::at_least("gib_per_sec", 1e6));
    }
    let report = run_corpus_cases(&cases, CorpusScale::Quick);
    for case in &report.cases {
        assert!(
            case.fingerprint_ok(),
            "{}: fingerprint must still match its golden",
            case.id()
        );
        assert!(!case.pass(), "{}: the 1e6 GiB/s floor must fail", case.id());
    }
    assert!(report
        .failures()
        .iter()
        .all(|f| f.contains("gate gib_per_sec")));
}

/// An unpinned case (an id missing from the golden file) is a failure,
/// not a silent pass: new scenarios must be blessed before they gate.
#[test]
fn unpinned_case_fails_loudly() {
    let mut cases: Vec<CorpusCase> = light_cases()
        .into_iter()
        .filter(|c| c.spec.name == "chaos-soak")
        .take(1)
        .collect();
    cases[0].spec.name = "chaos-soak-unpinned".into();
    let report = run_corpus_cases(&cases, CorpusScale::Quick);
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("no golden fingerprint pinned"));
}

/// The specs embedded in the report JSON parse back to the cases that
/// ran — a failing case is reproducible from `CORPUS.json` alone.
#[test]
fn report_json_specs_round_trip() {
    let cases: Vec<CorpusCase> = light_cases()
        .into_iter()
        .filter(|c| c.spec.name == "kv-serve")
        .collect();
    let report = run_corpus_cases(&cases, CorpusScale::Quick);
    let json = report.to_json();
    let doc = strom_telemetry::json::parse(&json).expect("report JSON parses");
    let parsed = match doc.get("cases") {
        Some(strom_telemetry::json::Value::Arr(items)) => items,
        other => panic!("cases must be an array, got {other:?}"),
    };
    assert_eq!(parsed.len(), cases.len());
    for (case, item) in cases.iter().zip(parsed) {
        let spec_value = item.get("spec").expect("case has a spec");
        let spec = ScenarioSpec::from_value(spec_value).expect("embedded spec parses");
        spec.validate().expect("embedded spec validates");
        assert_eq!(spec, case.spec);
    }
    assert_eq!(
        doc.get("schema"),
        Some(&strom_telemetry::json::Value::Str("strom-corpus-v1".into()))
    );
}

/// The golden file itself stays in sync with the default corpus: every
/// default case id is pinned at both scales (a case added without
/// blessing shows up here before CI even runs the matrix).
#[test]
fn every_default_case_is_pinned_at_both_scales() {
    let corpus = default_corpus();
    for scale in [CorpusScale::Quick, CorpusScale::Full] {
        let golden = golden_fingerprints(scale);
        for case in &corpus {
            assert!(
                golden.contains_key(&case.spec.id()),
                "{} has no {} golden — bless with STROM_BLESS=1 figures corpus {}",
                case.spec.id(),
                scale.name(),
                if scale == CorpusScale::Full {
                    "--full"
                } else {
                    "--quick"
                },
            );
        }
    }
}
