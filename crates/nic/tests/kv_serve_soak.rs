//! Chaos soak for the KV serving tier: the open-loop GET/PUT/traversal
//! workload runs over links injecting seeded loss / corruption /
//! reordering / duplication ([`strom_nic::chaos_model`]), and the
//! exactly-once audit must still come out clean — every acked PUT
//! committed exactly once (version ladders are gapless and
//! duplicate-free), every response payload verifies against a version
//! the key legitimately held, and no QP goes terminal. Same seed ⇒
//! bit-identical outcome, so any failing soak seed replays exactly.

use strom_nic::kv_serve::{run_kv_serve, KvSpec};
use strom_nic::{active_fault_types, chaos_model};
use strom_sim::time::NANOS;

/// A small tier with a request stream long enough to meet faults.
fn soak_spec(seed: u64) -> KvSpec {
    let mut spec = KvSpec::new(2, 2, 4_000 * NANOS, seed);
    spec.requests = 180;
    spec.keys_per_server = 24;
    spec.primary_entries = 8;
    spec.fault = Some(chaos_model(seed));
    spec
}

#[test]
fn chaos_soak_preserves_exactly_once_put_semantics() {
    for round in 0..6u64 {
        let seed = 0x4B5A_0A4B ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let spec = soak_spec(seed);
        let model = spec.fault.expect("soak injects faults");
        assert!(active_fault_types(&model) >= 2);
        let o = run_kv_serve(&spec);
        // No QP died, RC delivered every response, exactly-once held and
        // every payload verified.
        assert_eq!(
            o.violations(),
            0,
            "seed {seed:#x}: audit violated under chaos: {o:?}"
        );
        assert_eq!(o.completed, spec.requests as u64);
        assert!(
            o.retransmissions > 0,
            "seed {seed:#x}: chaos too mild to be a soak"
        );
    }
}

#[test]
fn chaos_runs_replay_bit_identically() {
    let spec = soak_spec(0xC4A0_55ED);
    let a = run_kv_serve(&spec);
    let b = run_kv_serve(&spec);
    assert_eq!(a, b, "chaos rerun diverged");
}

#[test]
fn chaos_tail_is_fatter_than_the_clean_tail() {
    let mut clean = soak_spec(0x7A11);
    clean.fault = None;
    let chaotic = soak_spec(0x7A11);
    let a = run_kv_serve(&clean);
    let b = run_kv_serve(&chaotic);
    assert_eq!(a.retransmissions, 0, "clean links must not retransmit");
    assert!(
        b.p999_ps.unwrap() > a.p999_ps.unwrap(),
        "retransmission delays must surface in the p999: {:?} vs {:?}",
        a.p999_ps,
        b.p999_ps
    );
}
