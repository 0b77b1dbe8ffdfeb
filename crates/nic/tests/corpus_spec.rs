//! Seeded property tests for the declarative [`ScenarioSpec`]: every
//! valid spec round-trips through its JSON exactly; malformed and
//! inconsistent documents are rejected with *typed* errors; and the
//! specs the corpus runs are digest-identical across reruns.

use strom_nic::corpus::{ScenarioSpec, SpecError, Workload};
use strom_nic::{ChainKind, Platform};
use strom_sim::SimRng;

/// Draws one structurally valid spec from the RNG, spanning every
/// workload family, both platforms, and the full flag lattice (cc only
/// ever paired with ecn, as validation demands).
fn arbitrary_spec(rng: &mut SimRng) -> ScenarioSpec {
    let platform = if rng.chance(0.5) {
        Platform::TenGig
    } else {
        Platform::HundredGig
    };
    let workload = match rng.below(5) {
        0 => Workload::ChaosSoak {
            ops: rng.range(3, 10_000),
        },
        1 => {
            let cc = rng.chance(0.5);
            Workload::Shuffle {
                nodes: rng.range(2, 16) as usize,
                values_per_node: rng.range(1, 1 << 20) as usize,
                lossy: rng.chance(0.5),
                cc,
                ecn: cc || rng.chance(0.5),
            }
        }
        2 => {
            let cc = rng.chance(0.5);
            Workload::Incast {
                senders: rng.range(1, 32) as usize,
                window: rng.range(1, 64) as usize,
                reads: rng.chance(0.5),
                cc,
                ecn: cc || rng.chance(0.5),
            }
        }
        3 => Workload::KvServe {
            servers: rng.range(1, 8) as usize,
            clients: rng.range(1, 8) as usize,
            mean_gap_ns: rng.range(1, 1_000_000),
            requests: rng.range(1, 100_000) as usize,
        },
        _ => Workload::KernelChain {
            chain: if rng.chance(0.5) {
                ChainKind::FilterAggHll
            } else {
                ChainKind::CrcVerifyShuffle
            },
            tuples: rng.range(1, 1 << 22) as usize,
        },
    };
    let name: String = (0..rng.range(1, 24))
        .map(|_| {
            let c = rng.below(37);
            match c {
                0..=25 => (b'a' + c as u8) as char,
                26..=35 => (b'0' + (c - 26) as u8) as char,
                _ => '-',
            }
        })
        .collect();
    ScenarioSpec {
        name,
        platform,
        seed: rng.next_u64(),
        workload,
    }
}

/// 300 random valid specs all validate and survive
/// `to_json → from_json` bit-exactly (u64 seeds included — they travel
/// as hex strings precisely because JSON numbers are f64).
#[test]
fn random_valid_specs_round_trip_through_json() {
    let mut rng = SimRng::seed(0x5EC5_FD21);
    for i in 0..300 {
        let spec = arbitrary_spec(&mut rng);
        spec.validate()
            .unwrap_or_else(|e| panic!("draw {i}: {spec:?} must validate: {e}"));
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("draw {i}: {json} must parse: {e}"));
        assert_eq!(spec, back, "draw {i}: round trip changed the spec");
    }
}

#[test]
fn unknown_names_are_rejected_with_typed_errors() {
    let base = r#"{"name":"x","platform":"10g","seed":"0x1",
                   "workload":{"family":"chaos-soak","ops":5}}"#;
    assert!(ScenarioSpec::from_json(base).is_ok());

    let bad_family = base.replace("chaos-soak", "warp-drive");
    assert_eq!(
        ScenarioSpec::from_json(&bad_family),
        Err(SpecError::UnknownScenario("warp-drive".into()))
    );

    let bad_platform = base.replace("10g", "400g");
    assert_eq!(
        ScenarioSpec::from_json(&bad_platform),
        Err(SpecError::UnknownPlatform("400g".into()))
    );

    let bad_chain = r#"{"name":"x","platform":"10g","seed":"0x1",
        "workload":{"family":"kernel-chain","chain":"sort-merge","tuples":10}}"#;
    assert_eq!(
        ScenarioSpec::from_json(bad_chain),
        Err(SpecError::UnknownChain("sort-merge".into()))
    );
}

#[test]
fn inconsistent_and_misshapen_specs_are_rejected() {
    // DCQCN without ECN marking: typed as Inconsistent, not a shape
    // error — every field is individually in range.
    let cc_no_ecn = r#"{"name":"x","platform":"100g","seed":"0x2","workload":
        {"family":"incast","senders":4,"window":2,"reads":false,"cc":true,"ecn":false}}"#;
    assert!(matches!(
        ScenarioSpec::from_json(cc_no_ecn),
        Err(SpecError::Inconsistent(_))
    ));

    let zero_nodes = r#"{"name":"x","platform":"10g","seed":"0x2","workload":
        {"family":"shuffle","nodes":1,"values_per_node":5,"lossy":false,"cc":false,"ecn":false}}"#;
    assert!(matches!(
        ScenarioSpec::from_json(zero_nodes),
        Err(SpecError::InvalidShape(_))
    ));

    let bad_name = r#"{"name":"Bad Name!","platform":"10g","seed":"0x1",
                       "workload":{"family":"chaos-soak","ops":5}}"#;
    assert!(matches!(
        ScenarioSpec::from_json(bad_name),
        Err(SpecError::BadName(_))
    ));

    // JSON-level damage is Malformed: truncation, a float seed, a
    // missing field.
    for doc in [
        r#"{"name":"x","platform":"10g""#,
        r#"{"name":"x","platform":"10g","seed":17,"workload":{"family":"chaos-soak","ops":5}}"#,
        r#"{"name":"x","platform":"10g","seed":"0x1","workload":{"family":"chaos-soak"}}"#,
        r#"{"name":"x","platform":"10g","seed":"0x1","workload":
            {"family":"chaos-soak","ops":5.5}}"#,
    ] {
        assert!(
            matches!(ScenarioSpec::from_json(doc), Err(SpecError::Malformed(_))),
            "{doc} must be Malformed"
        );
    }
}

/// Small random specs re-run digest-identically — the determinism
/// contract the golden fingerprints pin. Shapes are clamped small so
/// the property stays cheap.
#[test]
fn random_specs_rerun_digest_identically() {
    let mut rng = SimRng::seed(0x00D1_6E57);
    let mut checked = 0;
    while checked < 3 {
        let mut spec = arbitrary_spec(&mut rng);
        // Clamp to a quick shape, preserving the drawn flags/platform.
        spec.workload = match spec.workload {
            Workload::ChaosSoak { .. } => Workload::ChaosSoak { ops: 5 },
            Workload::Shuffle { lossy, cc, ecn, .. } => Workload::Shuffle {
                nodes: 3,
                values_per_node: 500,
                lossy,
                cc,
                ecn,
            },
            Workload::Incast { reads, cc, ecn, .. } => Workload::Incast {
                senders: 3,
                window: 2,
                reads,
                cc,
                ecn,
            },
            Workload::KvServe { .. } => Workload::KvServe {
                servers: 2,
                clients: 1,
                mean_gap_ns: 4_000,
                requests: 50,
            },
            Workload::KernelChain { chain, .. } => Workload::KernelChain {
                chain,
                tuples: 2_000,
            },
        };
        let first = spec.run().expect("clamped spec is valid");
        let second = spec.run().expect("clamped spec is valid");
        assert_eq!(
            first.fingerprint, second.fingerprint,
            "{spec:?} is not reproducible"
        );
        assert_eq!(first.perf, second.perf, "{spec:?} perf drifted");
        checked += 1;
    }
}
