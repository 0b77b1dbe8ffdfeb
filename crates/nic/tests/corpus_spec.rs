//! Seeded property tests for the scenario document ([`ScenarioSpec`]):
//! every valid spec of every family round-trips through its JSON
//! exactly; every checked field refuses an out-of-range value with a
//! typed error; a missing or unknown field anywhere in a document is
//! `Malformed`; and the specs the corpus runs are digest-identical
//! across reruns.

use strom_nic::cluster_incast::IncastSpec;
use strom_nic::cluster_shuffle::ShuffleSpec;
use strom_nic::corpus::default_corpus;
use strom_nic::{
    Chain, ChainKind, ChainSpec, ChaosSpec, KvSpec, LinkFaultModel, LossModel, Platform,
    ScenarioSpec, SpecError, SwitchParams, Workload,
};
use strom_sim::time::NANOS;
use strom_sim::{ArrivalProcess, Bandwidth, EcnConfig, SimRng};
use strom_telemetry::json::{self, Value};

fn platform(rng: &mut SimRng) -> Platform {
    Platform::ALL[rng.below(2) as usize]
}

/// A fault model with every knob drawn: any of the three loss processes
/// (Gilbert–Elliott included), and corruption, reorder and duplicate
/// rates.
fn fault(rng: &mut SimRng) -> LinkFaultModel {
    LinkFaultModel {
        loss: match rng.below(3) {
            0 => LossModel::None,
            1 => LossModel::Bernoulli(rng.unit()),
            _ => LossModel::GilbertElliott {
                p_good_to_bad: rng.unit(),
                p_bad_to_good: rng.unit(),
                loss_good: rng.unit(),
                loss_bad: rng.unit(),
            },
        },
        corrupt_rate: rng.unit(),
        reorder_rate: rng.unit(),
        reorder_jitter: rng.next_u64(),
        duplicate_rate: rng.unit(),
    }
}

/// A switch with an explicit port rate half the time, and a WRED marker
/// (min below max, a drawn probability and seed) whenever `marking`.
fn switch(rng: &mut SimRng, marking: bool) -> SwitchParams {
    SwitchParams {
        port_rate: rng
            .chance(0.5)
            .then(|| Bandwidth::gbit_per_sec(0.001 + 400.0 * rng.unit())),
        latency: rng.next_u64(),
        egress_capacity: rng.range(1, 1 << 20) as usize,
        ecn: marking.then(|| {
            let min_threshold = rng.below(100) as usize;
            EcnConfig {
                min_threshold,
                max_threshold: min_threshold + rng.below(100) as usize,
                max_mark_prob: rng.unit(),
                seed: rng.next_u64(),
            }
        }),
    }
}

fn arrivals(rng: &mut SimRng) -> ArrivalProcess {
    if rng.chance(0.5) {
        ArrivalProcess::Poisson {
            mean_gap: rng.next_u64(),
        }
    } else {
        ArrivalProcess::Mmpp {
            calm_gap: rng.next_u64(),
            burst_gap: rng.next_u64(),
            calm_dwell: rng.next_u64(),
            burst_dwell: rng.next_u64(),
        }
    }
}

/// Draws one valid workload of `family` (0..5) with every field drawn
/// (DCQCN only ever beside a marking switch, as the check demands).
fn arbitrary_workload(rng: &mut SimRng, family: u64) -> Workload {
    match family {
        0 => Workload::Chaos(ChaosSpec {
            platform: platform(rng),
            ops: rng.range(3, u64::MAX),
            seed: rng.next_u64(),
        }),
        1 => {
            let nodes = rng.range(2, 23) as usize;
            let cc = rng.chance(0.5);
            let marking = cc || rng.chance(0.5);
            Workload::Shuffle(ShuffleSpec {
                platform: platform(rng),
                nodes,
                values_per_node: rng.below(1 << 20) as usize,
                local_partitions: 1 << rng.below(11),
                seed: rng.next_u64(),
                switch: switch(rng, marking),
                fault: fault(rng),
                port_faults: (0..rng.below(3))
                    .map(|_| (rng.below(nodes as u64) as usize, fault(rng)))
                    .collect(),
                trace_capacity: rng.chance(0.5).then(|| rng.range(1, 1 << 20) as usize),
                retransmit_timeout: rng.chance(0.5).then(|| rng.next_u64()),
                cc,
            })
        }
        2 => {
            let senders = rng.range(1, 100) as usize;
            let cc = rng.chance(0.5);
            let marking = cc || rng.chance(0.5);
            Workload::Incast(IncastSpec {
                platform: platform(rng),
                senders,
                message_len: rng.next_u64() as u32,
                messages_per_sender: rng.below(1_000) as usize,
                window: rng.range(1, 64) as usize,
                seed: rng.next_u64(),
                switch: switch(rng, marking),
                cc,
                retransmit_timeout: rng.chance(0.5).then(|| rng.next_u64()),
                elephants: rng.below(senders as u64 + 1) as usize,
                elephant_boost: rng.range(1, 8) as usize,
                reads: rng.chance(0.5),
            })
        }
        3 => {
            let get_pct = rng.below(101) as u8;
            let marking = rng.chance(0.5);
            Workload::KvServe(KvSpec {
                platform: platform(rng),
                servers: rng.range(1, 9) as usize,
                clients: rng.range(1, 9) as usize,
                keys_per_server: rng.range(1, 10_000) as usize,
                primary_entries: rng.next_u64() | 1,
                value_size: rng.next_u64() as u32,
                requests: rng.below(1_000_000) as usize,
                process: arrivals(rng),
                zipf_theta: 2.0 * rng.unit(),
                get_pct,
                put_pct: rng.below(101 - u64::from(get_pct)) as u8,
                miss_pct: rng.below(256) as u8,
                insert_pct: rng.below(256) as u8,
                seed: rng.next_u64(),
                switch: switch(rng, marking),
                cc: rng.chance(0.5),
                fault: rng.chance(0.5).then(|| fault(rng)),
            })
        }
        _ => Workload::KernelChain(Chain {
            kind: if rng.chance(0.5) {
                ChainKind::FilterAggHll
            } else {
                ChainKind::CrcVerifyShuffle
            },
            spec: ChainSpec {
                platform: platform(rng),
                tuples: rng.below(1 << 22) as usize,
                seed: rng.next_u64(),
                partitions: 1 << rng.below(11),
                corrupt: rng.chance(0.5),
                fault: fault(rng),
                trace_capacity: rng.chance(0.5).then(|| rng.range(1, 1 << 20) as usize),
            },
        }),
    }
}

/// Draws one valid spec of any family under a random `[a-z0-9-]+` name.
fn arbitrary_spec(rng: &mut SimRng) -> ScenarioSpec {
    let family = rng.below(5);
    let workload = arbitrary_workload(rng, family);
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
    ScenarioSpec { name, workload }
}

/// 300 random valid specs all validate and survive
/// `to_json → from_json` bit-exactly: u64 values travel as hex strings
/// precisely because JSON numbers are f64, and every f64 (rates, port
/// rates, WRED probabilities, skews) is written in its shortest exact
/// form.
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

/// The spec of `workload` under the name `x`, through its own JSON.
fn parse_back(workload: Workload) -> Result<ScenarioSpec, SpecError> {
    let name = "x".to_string();
    ScenarioSpec::from_json(&ScenarioSpec { name, workload }.to_json())
}

/// Every field a family's check reads refuses an out-of-range value,
/// typed, and the same spec with the value in range parses back.
#[test]
fn every_checked_field_refuses_an_out_of_range_value() {
    let shape = |w: Workload| matches!(parse_back(w), Err(SpecError::InvalidShape(_)));
    let chaos = ChaosSpec {
        platform: Platform::TenGig,
        ops: 3,
        seed: 1,
    };
    assert!(parse_back(Workload::Chaos(chaos.clone())).is_ok());
    assert!(shape(Workload::Chaos(ChaosSpec { ops: 2, ..chaos })));

    let shuffle = ShuffleSpec::new(22, 10, 1);
    assert!(parse_back(Workload::Shuffle(shuffle.clone())).is_ok());
    for bad in [
        ShuffleSpec {
            nodes: 1,
            ..shuffle.clone()
        },
        // 23 nodes number their pair QPs up to 23 × 22 = 506 ≥ 500.
        ShuffleSpec {
            nodes: 23,
            ..shuffle.clone()
        },
        ShuffleSpec {
            local_partitions: 3,
            ..shuffle.clone()
        },
        ShuffleSpec {
            local_partitions: 2048,
            ..shuffle.clone()
        },
        ShuffleSpec {
            port_faults: vec![(22, LinkFaultModel::none())],
            ..shuffle.clone()
        },
    ] {
        assert!(shape(Workload::Shuffle(bad.clone())), "{bad:?}");
    }

    let incast = IncastSpec::new(499, 1, 1);
    assert!(parse_back(Workload::Incast(incast.clone())).is_ok());
    for bad in [
        IncastSpec {
            senders: 0,
            ..incast.clone()
        },
        IncastSpec {
            senders: 500,
            ..incast.clone()
        },
        IncastSpec {
            window: 0,
            ..incast.clone()
        },
        IncastSpec {
            elephant_boost: 0,
            ..incast.clone()
        },
    ] {
        assert!(shape(Workload::Incast(bad.clone())), "{bad:?}");
    }

    let kv = KvSpec::new(1, 499, 1_000, 1);
    assert!(parse_back(Workload::KvServe(kv.clone())).is_ok());
    for bad in [
        KvSpec {
            servers: 0,
            ..kv.clone()
        },
        KvSpec {
            clients: 0,
            ..kv.clone()
        },
        KvSpec {
            servers: 2,
            ..kv.clone()
        },
        KvSpec {
            keys_per_server: 0,
            ..kv.clone()
        },
        KvSpec {
            primary_entries: 0,
            ..kv.clone()
        },
        KvSpec {
            get_pct: 81,
            ..kv.clone()
        },
        KvSpec {
            zipf_theta: -0.5,
            ..kv.clone()
        },
    ] {
        assert!(shape(Workload::KvServe(bad.clone())), "{bad:?}");
    }

    let spec = ChainSpec::new(10, 1);
    let chain = |spec| {
        Workload::KernelChain(Chain {
            kind: ChainKind::FilterAggHll,
            spec,
        })
    };
    assert!(parse_back(chain(spec.clone())).is_ok());
    assert!(shape(chain(ChainSpec {
        partitions: 3,
        ..spec.clone()
    })));
    assert!(shape(chain(ChainSpec {
        partitions: 2048,
        ..spec
    })));

    // A port rate must be a positive bit/s; JSON carries what no
    // `Bandwidth` can hold.
    let mut shuffle = ShuffleSpec::new(2, 10, 1);
    shuffle.switch.port_rate = Some(Bandwidth::gbit_per_sec(10.0));
    let doc = ScenarioSpec {
        name: "x".into(),
        workload: Workload::Shuffle(shuffle.clone()),
    }
    .to_json();
    assert!(doc.contains(r#""port_rate": 10000000000"#), "{doc}");
    for rate in ["0", "-1"] {
        let doc = doc.replace("10000000000", rate);
        assert!(matches!(
            ScenarioSpec::from_json(&doc),
            Err(SpecError::InvalidShape(_))
        ));
    }
}

#[test]
fn a_kv_tier_past_the_qp_table_is_refused_from_its_document() {
    let doc = ScenarioSpec {
        name: "kv".into(),
        workload: Workload::KvServe(KvSpec::new(32, 32, 3_000 * NANOS, 7)),
    }
    .to_json();
    match ScenarioSpec::from_json(&doc) {
        Err(SpecError::InvalidShape(why)) => {
            assert!(
                why.contains("= 1024 QPs, but the NIC's QP table (num_qps = 500)"),
                "{why}"
            )
        }
        other => panic!("want InvalidShape, got {other:?}"),
    }
}

/// A chaos spec under the name `x`, and its document.
fn chaos_doc() -> (ScenarioSpec, String) {
    let spec = ScenarioSpec {
        name: "x".into(),
        workload: Workload::Chaos(ChaosSpec {
            platform: Platform::TenGig,
            ops: 5,
            seed: 1,
        }),
    };
    let doc = spec.to_json();
    (spec, doc)
}

#[test]
fn unknown_names_are_rejected_with_typed_errors() {
    let (spec, doc) = chaos_doc();
    assert_eq!(ScenarioSpec::from_json(&doc), Ok(spec));
    assert_eq!(
        ScenarioSpec::from_json(&doc.replace("chaos-soak", "warp-drive")),
        Err(SpecError::UnknownScenario("warp-drive".into()))
    );
    assert_eq!(
        ScenarioSpec::from_json(&doc.replace("10g", "400g")),
        Err(SpecError::UnknownPlatform("400g".into()))
    );
    let chain = ScenarioSpec {
        name: "x".into(),
        workload: Workload::KernelChain(Chain {
            kind: ChainKind::FilterAggHll,
            spec: ChainSpec::new(10, 1),
        }),
    };
    assert_eq!(
        ScenarioSpec::from_json(&chain.to_json().replace("filter-agg-hll", "sort-merge")),
        Err(SpecError::UnknownChain("sort-merge".into()))
    );
}

#[test]
fn inconsistent_and_misshapen_specs_are_rejected() {
    // DCQCN without ECN marking: typed as Inconsistent, not a shape
    // error — every field is individually in range.
    for workload in [
        Workload::Shuffle(ShuffleSpec {
            cc: true,
            ..ShuffleSpec::new(2, 10, 1)
        }),
        Workload::Incast(IncastSpec {
            cc: true,
            ..IncastSpec::new(2, 1, 1)
        }),
    ] {
        assert!(matches!(
            parse_back(workload),
            Err(SpecError::Inconsistent(_))
        ));
    }

    let (_, doc) = chaos_doc();
    assert_eq!(
        ScenarioSpec::from_json(&doc.replace(r#""x""#, r#""""#)),
        Err(SpecError::EmptyName)
    );
    assert_eq!(
        ScenarioSpec::from_json(&doc.replace(r#""x""#, r#""Bad Name!""#)),
        Err(SpecError::BadName('B'))
    );

    // JSON-level damage is Malformed: truncation, a number where a hex
    // string belongs, a string that is not hex, a fraction where an
    // integer belongs, and nesting a million levels deep (an error, not
    // a stack overflow).
    let chain = ScenarioSpec {
        name: "x".into(),
        workload: Workload::KernelChain(Chain {
            kind: ChainKind::FilterAggHll,
            spec: ChainSpec::new(10, 1),
        }),
    };
    for bad in [
        doc[..doc.len() / 2].to_string(),
        doc.replace(r#""seed": "0x1""#, r#""seed": 1"#),
        doc.replace(r#""seed": "0x1""#, r#""seed": "17""#),
        chain
            .to_json()
            .replace(r#""tuples": 10"#, r#""tuples": 10.5"#),
        "[".repeat(1_000_000),
    ] {
        assert!(
            matches!(ScenarioSpec::from_json(&bad), Err(SpecError::Malformed(_))),
            "{bad} must be Malformed"
        );
    }
}

/// Every document one edit away from `v`: each object anywhere in it
/// with one field dropped, or with an unknown field added.
fn one_field_off(v: &Value) -> Vec<Value> {
    let mut out = Vec::new();
    match v {
        Value::Obj(fields) => {
            for i in 0..fields.len() {
                let mut dropped = fields.clone();
                dropped.remove(i);
                out.push(Value::Obj(dropped));
                for inner in one_field_off(&fields[i].1) {
                    let mut edited = fields.clone();
                    edited[i].1 = inner;
                    out.push(Value::Obj(edited));
                }
            }
            let mut added = fields.clone();
            added.push(("bogus".into(), Value::Num(1.0)));
            out.push(Value::Obj(added));
        }
        Value::Arr(items) => {
            for i in 0..items.len() {
                for inner in one_field_off(&items[i]) {
                    let mut edited = items.clone();
                    edited[i] = inner;
                    out.push(Value::Arr(edited));
                }
            }
        }
        _ => {}
    }
    out
}

/// Every field of every family spec and shared part is required, and
/// nothing else is allowed: dropping any one field, or adding an unknown
/// one, anywhere in a document is `Malformed`. Covers one draw of every
/// family and every case of the default corpus.
#[test]
fn a_missing_or_unknown_field_anywhere_is_malformed() {
    let mut rng = SimRng::seed(0x00F1_E1D5);
    let mut specs: Vec<ScenarioSpec> = (0..5)
        .map(|family| ScenarioSpec {
            name: "x".into(),
            workload: arbitrary_workload(&mut rng, family),
        })
        .collect();
    specs.extend(default_corpus().into_iter().map(|c| c.spec));
    for spec in &specs {
        let doc = json::parse(&spec.to_json()).expect("a spec's JSON parses");
        assert_eq!(doc.to_string(), spec.to_json(), "the writer is exact");
        let edits = one_field_off(&doc);
        assert!(edits.len() >= 8, "{}", spec.to_json());
        for edit in &edits {
            let text = edit.to_string();
            assert!(
                matches!(ScenarioSpec::from_json(&text), Err(SpecError::Malformed(_))),
                "{text} must be Malformed"
            );
        }
    }
}

/// Small specs of every family re-run digest-identically — the
/// determinism contract the golden fingerprints pin. Shapes are small
/// so the property stays cheap; platform and seed are drawn.
#[test]
fn random_specs_rerun_digest_identically() {
    let mut rng = SimRng::seed(0x00D1_6E57);
    for family in 0..5 {
        let (platform, seed) = (platform(&mut rng), rng.next_u64());
        let workload = match family {
            0 => Workload::Chaos(ChaosSpec {
                platform,
                ops: 5,
                seed,
            }),
            1 => {
                let mut s = ShuffleSpec::new(3, 500, seed);
                s.platform = platform;
                s.fault = LinkFaultModel::bernoulli(0.02);
                s.cc = true;
                s.switch.ecn = Some(EcnConfig::step(8));
                Workload::Shuffle(s)
            }
            2 => Workload::Incast(IncastSpec {
                platform,
                reads: rng.chance(0.5),
                messages_per_sender: 6,
                ..IncastSpec::new(3, 2, seed)
            }),
            3 => Workload::KvServe(KvSpec {
                platform,
                requests: 50,
                ..KvSpec::new(2, 1, 4_000 * NANOS, seed)
            }),
            _ => Workload::KernelChain(Chain {
                kind: ChainKind::CrcVerifyShuffle,
                spec: ChainSpec {
                    platform,
                    ..ChainSpec::new(2_000, seed)
                },
            }),
        };
        let spec = ScenarioSpec {
            name: "rerun".into(),
            workload,
        };
        let first = spec.run().expect("small spec is valid");
        let second = spec.run().expect("small spec is valid");
        assert_eq!(
            first.fingerprint, second.fingerprint,
            "{spec:?} is not reproducible"
        );
        assert_eq!(first.perf, second.perf, "{spec:?} perf drifted");
    }
}
