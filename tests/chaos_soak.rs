//! Chaos soak harness: seeded fault schedules composing bursty loss,
//! corruption, reordering, and duplication over the full testbed.
//!
//! Every run is parameterized by a single `u64` seed via
//! [`strom::nic::chaos_model`]; the same seed also seeds the testbed
//! RNG, so any failure reproduces exactly from its seed. The harness
//! checks the robustness contract end to end: byte-for-byte payload
//! integrity, no stuck QPs, bounded retransmissions, the simulation
//! quiesces, and corrupted frames are provably dropped by the ICRC.

use strom::kernels::consistency::{self, ConsistencyKernel, ConsistencyParams};
use strom::kernels::get::{GetKernel, GetParams};
use strom::kernels::layouts::{
    build_hash_table, build_linked_list, build_object_store, value_pattern,
};
use strom::kernels::shuffle::{encode_histogram, ShuffleKernel, ShuffleParams};
use strom::kernels::traversal::{TraversalKernel, TraversalParams};
use strom::nic::cluster_shuffle::{pair_qpn, run_shuffle, ShuffleSpec};
use strom::nic::{
    active_fault_types, chaos_model, run_chaos, ChaosOutcome, ChaosSpec, ClusterTestbed,
    CompletionStatus, LinkFaultModel, NicConfig, Platform, RpcOpCode, Scenario, StatusRegisters,
    SwitchParams, Testbed, WorkRequest,
};
use strom::sim::time::MICROS;
use strom::sim::{default_workers, parallel_map, SimRng};
use strom::telemetry::MetricsSnapshot;

const CLIENT: usize = 0;
const SERVER: usize = 1;
const QP: u32 = 1;

/// Livelock budget: generous for the small workloads below; a
/// retransmission storm that never converges exhausts it instead of
/// hanging the suite.
const EVENT_BUDGET: u64 = 50_000_000;

/// The two-host data-plane soak at `seed`: two to six mixed READ/WRITE
/// ops on the 10 G platform under [`chaos_model`]`(seed)`. The scenario
/// itself checks the robustness contract: every op succeeds, both memory
/// images match a pure-array reference byte for byte, the run quiesces,
/// and no QP is left stuck or errored.
fn soak(seed: u64) -> ChaosSpec {
    ChaosSpec {
        platform: Platform::TenGig,
        ops: 7,
        seed,
    }
}

/// Runs the soak at `seed` on a testbed the test keeps, with its trace
/// ring on when `trace_capacity` is given.
fn soak_on_testbed(seed: u64, trace_capacity: Option<usize>) -> (ChaosOutcome, ClusterTestbed) {
    let spec = soak(seed);
    let mut tb = spec.testbed();
    if let Some(capacity) = trace_capacity {
        tb.enable_tracing(capacity);
    }
    let outcome = spec.drive(&mut tb);
    (outcome, tb)
}

/// Everything a determinism check compares for one soak run: the outcome
/// (memory-image fingerprint, retransmissions, elapsed time, fault
/// counters), both nodes' complete status registers and the metrics
/// snapshot.
fn observe(seed: u64) -> (ChaosOutcome, [StatusRegisters; 2], MetricsSnapshot) {
    let (outcome, tb) = soak_on_testbed(seed, None);
    let status = [tb.status(CLIENT), tb.status(SERVER)];
    (outcome, status, tb.metrics().snapshot())
}

/// The headline soak: ≥ 20 distinct seeds, each composing at least two
/// fault types, each verified byte-for-byte against the reference.
/// Aggregated over the corpus, every fault dimension must actually have
/// fired — including corrupted frames provably dropped by the ICRC.
#[test]
fn chaos_soak_data_plane_survives_composed_faults() {
    // Each seed drives a fully independent simulation (its own testbed,
    // its own RNG), so the corpus fans out across worker threads;
    // results come back in seed order and are aggregated exactly as the
    // sequential loop would (the per-seed outcomes are bit-identical —
    // see `parallel_soak_is_bit_identical_to_sequential`).
    let outcomes = parallel_map((0..24u64).collect(), default_workers(), |seed| {
        let model = chaos_model(seed);
        assert!(active_fault_types(&model) >= 2, "seed {seed}: {model:?}");
        let outcome = run_chaos(&soak(seed));
        // Bounded retransmissions: a handful of ops must not trigger a
        // storm (go-back-N over these workloads resends at most a few
        // windows per timeout, and the budget caps consecutive timeouts).
        assert!(
            outcome.retransmissions < 10_000,
            "seed {seed}: {} retransmissions looks like a storm",
            outcome.retransmissions
        );
        outcome
    });
    let total = |count: fn(&ChaosOutcome) -> u64| outcomes.iter().map(count).sum::<u64>();
    let (lost, crc_dropped, reordered, duplicated, timeouts) = (
        total(|o| o.frames_lost),
        total(|o| o.crc_dropped),
        total(|o| o.frames_reordered),
        total(|o| o.frames_duplicated),
        total(|o| o.timeouts),
    );
    let totals = format!(
        "lost {lost}, crc_dropped {crc_dropped}, reordered {reordered}, \
         duplicated {duplicated}, timeouts {timeouts}"
    );
    // Across the corpus every fault dimension fired and was survived.
    assert!(lost > 0, "no frames lost: {totals}");
    assert!(
        crc_dropped > 0,
        "corruption was never caught by the ICRC: {totals}"
    );
    assert!(reordered > 0, "no reordering: {totals}");
    assert!(duplicated > 0, "no duplication: {totals}");
    assert!(
        total(|o| o.retransmissions) > 0,
        "faults never forced a retransmission"
    );
}

/// Identical seed + fault configuration ⇒ bit-identical memory images,
/// retransmission counts, status registers and metrics across two runs.
#[test]
fn chaos_runs_are_bit_identical_for_identical_seeds() {
    for seed in [3u64, 11, 17, 23] {
        assert_eq!(
            observe(seed),
            observe(seed),
            "seed {seed}: chaos run is not reproducible"
        );
    }
}

/// Telemetry determinism: two traced same-seed runs produce identical
/// trace streams (record-for-record, plus the FNV fingerprint over the
/// full emission history) and identical histogram buckets — and turning
/// tracing ON does not perturb the simulation itself.
#[test]
fn traced_chaos_runs_emit_identical_telemetry() {
    for seed in [2u64, 13, 21] {
        let (untraced, untraced_tb) = soak_on_testbed(seed, None);
        let (first, first_tb) = soak_on_testbed(seed, Some(1 << 15));
        let (second, second_tb) = soak_on_testbed(seed, Some(1 << 15));

        // Identical trace streams and histogram buckets across reruns.
        assert_eq!(first, second, "seed {seed}: traced run is not reproducible");
        for node in [CLIENT, SERVER] {
            assert_eq!(first_tb.status(node), second_tb.status(node), "seed {seed}");
        }
        let (trace, second_trace) = (first_tb.trace(), second_tb.trace());
        assert_eq!(trace.records(), second_trace.records(), "seed {seed}");
        assert_eq!(trace.emitted(), second_trace.emitted(), "seed {seed}");
        assert_eq!(
            first_tb.metrics().snapshot(),
            second_tb.metrics().snapshot(),
            "seed {seed}"
        );
        assert!(
            trace.emitted() > 0,
            "seed {seed}: a chaos run must emit trace events"
        );
        assert_eq!(
            trace.fingerprint(),
            second_trace.fingerprint(),
            "seed {seed}"
        );

        // Tracing must be observation-only: every simulation observable
        // matches the untraced run — memory images, retransmissions and
        // elapsed time through the outcome, then the status registers.
        // (The metrics snapshots differ only by the dispatch counter
        // tracing registers, so compare the histograms alone.)
        assert_eq!(first, untraced, "seed {seed}");
        for node in [CLIENT, SERVER] {
            assert_eq!(
                first_tb.status(node),
                untraced_tb.status(node),
                "seed {seed}"
            );
        }
        assert_eq!(
            first_tb.metrics().snapshot().histograms,
            untraced_tb.metrics().snapshot().histograms,
            "seed {seed}: tracing changed a latency histogram"
        );
    }
}

/// Determinism regression for the parallel runner: fanning the soak out
/// across threads yields byte-identical per-seed outcomes (memory
/// images, retransmission counts, fault counters, status registers and
/// metrics) to the sequential path.
#[test]
fn parallel_soak_is_bit_identical_to_sequential() {
    let seeds: Vec<u64> = (0..8).collect();
    let sequential: Vec<_> = seeds.iter().map(|&s| observe(s)).collect();
    let parallel = parallel_map(seeds, 4, observe);
    assert_eq!(
        parallel, sequential,
        "parallel execution must not change any per-seed observable"
    );
}

/// Runs all four paper kernels (traversal, get, consistency, shuffle)
/// under a composed fault schedule and verifies their results
/// byte-for-byte.
fn run_chaos_kernels(seed: u64) {
    let model = chaos_model(seed);
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = seed;
    let mut tb = Testbed::new(cfg);
    tb.connect_qp(QP);
    tb.set_fault_model(model);
    let client_buf = tb.pin(CLIENT, 2 << 20);
    let src = tb.pin(CLIENT, 2 << 20);
    let server = tb.pin(SERVER, 16 << 20);
    tb.deploy_kernel(SERVER, Box::new(TraversalKernel::new()));
    tb.deploy_kernel(SERVER, Box::new(GetKernel::new()));
    tb.deploy_kernel(SERVER, Box::new(ConsistencyKernel::new()));
    tb.deploy_kernel(SERVER, Box::new(ShuffleKernel::new()));

    // Traversal: walk a linked list to its last node.
    let keys: Vec<u64> = (1..=12u64).map(|i| i * 10).collect();
    let list = build_linked_list(tb.mem(SERVER), server, &keys, 64);
    let tail_key = *list.keys.last().unwrap();
    let target = client_buf;
    let w = tb.add_watch(CLIENT, target, 64);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::TRAVERSAL,
            params: TraversalParams::for_linked_list(list.head, tail_key, 64, target).encode(),
        },
    );
    tb.run_until_watch(w);
    assert_eq!(
        tb.mem(CLIENT).read(target, 64),
        value_pattern(tail_key, 64),
        "seed {seed}: traversal result corrupted under {model:?}"
    );

    // Get: hash-table lookup.
    let ht = build_hash_table(tb.mem(SERVER), server + (4 << 20), 64, &[5, 6, 7], 64);
    let target = client_buf + 4096;
    let w = tb.add_watch(CLIENT, target, 64);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::GET,
            params: GetParams {
                entry_addr: ht.entry_addr(6),
                key: 6,
                target_address: target,
                chained: false,
            }
            .encode(),
        },
    );
    tb.run_until_watch(w);
    assert_eq!(
        tb.mem(CLIENT).read(target, 64),
        value_pattern(6, 64),
        "seed {seed}: get result corrupted under {model:?}"
    );

    // Consistency: fetch an object and verify its checksum word.
    let store = build_object_store(tb.mem(SERVER), server + (8 << 20), 1, 256);
    let size = store.object_size();
    let target = client_buf + 8192;
    let w = tb.add_watch(CLIENT, target, u64::from(size));
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::CONSISTENCY,
            params: ConsistencyParams {
                object_addr: store.object_addrs[0],
                object_len: size,
                target_address: target,
            }
            .encode(),
        },
    );
    tb.run_until_watch(w);
    assert!(
        consistency::verify_object(&tb.mem(CLIENT).read(target, size as usize)),
        "seed {seed}: consistency object corrupted under {model:?}"
    );

    // Shuffle: stream tuples through the partitioning kernel.
    let parts = 4u32;
    let capacity = 1u32 << 16;
    let bases: Vec<u64> = (0..u64::from(parts))
        .map(|i| server + (12 << 20) + i * u64::from(capacity))
        .collect();
    let histogram = encode_histogram(&bases.iter().map(|&b| (b, capacity)).collect::<Vec<_>>());
    tb.mem(SERVER).write(server + (11 << 20), &histogram);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::SHUFFLE,
            params: ShuffleParams {
                histogram_addr: server + (11 << 20),
                num_partitions: parts,
            }
            .encode(),
        },
    );
    tb.run_until_complete(CLIENT, h);
    let mut rng = SimRng::seed(seed ^ 0x54f1e);
    let mut data = vec![0u8; 2_000 * 8];
    rng.fill_bytes(&mut data);
    tb.mem(CLIENT).write(src, &data);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::SHUFFLE,
            local_vaddr: src,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    assert!(
        tb.run_until_idle_bounded(EVENT_BUDGET),
        "seed {seed}: kernels run failed to quiesce under {model:?}"
    );
    let values: Vec<u64> = data
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let want = strom::baselines::cpu_partition::software_partition(&values, parts as usize);
    for (pid, base) in bases.iter().enumerate() {
        let expected: Vec<u8> = want.partitions[pid]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(
            tb.mem(SERVER).read(*base, expected.len()),
            expected,
            "seed {seed}: shuffle partition {pid} corrupted under {model:?}"
        );
    }

    assert!(!tb.qp_has_outstanding(CLIENT, QP), "seed {seed}");
    assert!(!tb.qp_errored(CLIENT, QP), "seed {seed}");
    assert_eq!(tb.fabric(SERVER).unmatched(), 0, "seed {seed}");
}

/// The four paper kernels all survive composed fault schedules with
/// results delivered intact.
#[test]
fn chaos_soak_kernels_survive_composed_faults() {
    parallel_map(
        vec![1u64, 4, 9, 14, 19, 22],
        default_workers(),
        run_chaos_kernels,
    );
}

/// With a dead link (loss = 1.0) the retry budget exhausts: the work
/// request completes with `RetryExceeded`, the QP lands in the terminal
/// error state (visible through the status registers), and the
/// simulation still quiesces — the host is never left hanging.
#[test]
fn retry_budget_exhaustion_errors_the_qp() {
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = 7;
    let max_retries = cfg.max_retries;
    let mut tb = Testbed::new(cfg);
    tb.connect_qp(QP);
    tb.set_fault_model(LinkFaultModel::bernoulli(1.0));
    let a = tb.pin(CLIENT, 1 << 20);
    let b = tb.pin(SERVER, 1 << 20);

    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Write {
            remote_vaddr: b,
            local_vaddr: a,
            len: 4096,
        },
    );
    tb.run_until_complete(CLIENT, h);
    assert_eq!(
        tb.completion_status(CLIENT, h),
        Some(CompletionStatus::RetryExceeded)
    );
    assert!(tb.qp_errored(CLIENT, QP));
    assert!(
        tb.run_until_idle_bounded(EVENT_BUDGET),
        "an errored QP must not keep the timer wheel spinning"
    );
    assert!(!tb.qp_has_outstanding(CLIENT, QP));

    let status = tb.status(CLIENT);
    assert_eq!(status.qps_in_error, 1);
    assert!(
        status.timeouts > u64::from(max_retries),
        "budget must only exhaust after {max_retries} consecutive timeouts, saw {}",
        status.timeouts
    );
    assert!(
        status.backoff_events > 0,
        "consecutive timeouts must back off exponentially"
    );

    // Posting to the errored QP fails fast with an error completion
    // rather than retrying forever.
    let h2 = tb.post(
        CLIENT,
        QP,
        WorkRequest::Write {
            remote_vaddr: b,
            local_vaddr: a,
            len: 64,
        },
    );
    tb.run_until_complete(CLIENT, h2);
    assert_eq!(
        tb.completion_status(CLIENT, h2),
        Some(CompletionStatus::RetryExceeded)
    );
}

/// Duplicate delivery of every frame — requests, ACKs, and read
/// responses — is absorbed: duplicates are dropped before the data path
/// (PSN dup-detection on the responder, the stale-PSN classify path on
/// the requester), so payloads land exactly once.
#[test]
fn duplicated_frames_are_dropped_before_the_data_path() {
    let mut model = LinkFaultModel::none();
    model.duplicate_rate = 1.0;
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = 5;
    let mut tb = Testbed::new(cfg);
    tb.connect_qp(QP);
    tb.set_fault_model(model);
    let a = tb.pin(CLIENT, 1 << 20);
    let b = tb.pin(SERVER, 1 << 20);

    let mut rng = SimRng::seed(55);
    let mut data = vec![0u8; 10_000];
    rng.fill_bytes(&mut data);
    tb.mem(CLIENT).write(a, &data);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Write {
            remote_vaddr: b,
            local_vaddr: a,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);

    let mut remote = vec![0u8; 20_000];
    rng.fill_bytes(&mut remote);
    tb.mem(SERVER).write(b + (1 << 19), &remote);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Read {
            remote_vaddr: b + (1 << 19),
            local_vaddr: a + (1 << 19),
            len: remote.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    assert!(tb.run_until_idle_bounded(EVENT_BUDGET));

    assert_eq!(tb.mem(SERVER).read(b, data.len()), data);
    assert_eq!(tb.mem(CLIENT).read(a + (1 << 19), remote.len()), remote);
    // Every frame was delivered twice...
    assert!(tb.status(SERVER).frames_duplicated > 0);
    assert!(tb.status(CLIENT).frames_duplicated > 0);
    // ...but each WRITE payload byte was written to host memory once.
    assert_eq!(tb.status(SERVER).payload_bytes_rx, data.len() as u64);
    assert!(!tb.qp_has_outstanding(CLIENT, QP));
    assert!(!tb.qp_errored(CLIENT, QP));
}

/// Out-of-order delivery of ACKs and read responses (reordering jitter
/// with no loss) is recovered from without corrupting data.
#[test]
fn reordered_acks_and_responses_recover() {
    let mut model = LinkFaultModel::none();
    model.reorder_rate = 0.3;
    model.reorder_jitter = 5 * MICROS;
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = 6;
    let mut tb = Testbed::new(cfg);
    tb.connect_qp(QP);
    tb.set_fault_model(model);
    let a = tb.pin(CLIENT, 1 << 20);
    let b = tb.pin(SERVER, 1 << 20);

    let mut rng = SimRng::seed(66);
    let mut data = vec![0u8; 60_000];
    rng.fill_bytes(&mut data);
    tb.mem(CLIENT).write(a, &data);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Write {
            remote_vaddr: b,
            local_vaddr: a,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);

    let mut remote = vec![0u8; 60_000];
    rng.fill_bytes(&mut remote);
    tb.mem(SERVER).write(b + (1 << 19), &remote);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Read {
            remote_vaddr: b + (1 << 19),
            local_vaddr: a + (1 << 19),
            len: remote.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    assert!(tb.run_until_idle_bounded(EVENT_BUDGET));

    assert_eq!(tb.mem(SERVER).read(b, data.len()), data);
    assert_eq!(tb.mem(CLIENT).read(a + (1 << 19), remote.len()), remote);
    let reordered = tb.status(CLIENT).frames_reordered + tb.status(SERVER).frames_reordered;
    assert!(reordered > 0, "jitter never reordered a frame");
    assert!(!tb.qp_has_outstanding(CLIENT, QP));
    assert!(!tb.qp_errored(CLIENT, QP));
}

/// Four-node switched soak: 8 seeds, each pinning two *independent*
/// composed fault models (≥ 2 active fault types apiece) to two distinct
/// switch egress ports while the rest of the fabric stays clean. The
/// all-to-all shuffle inside [`run_shuffle`] verifies every byte of
/// every flow — including the flows that never touch a faulty port, so
/// a fault leaking across ports would surface as a foreign-flow
/// corruption, not just a retransmission.
#[test]
fn cluster_chaos_soak_survives_per_port_faults() {
    let outcomes = parallel_map((0..8u64).collect(), default_workers(), |seed| {
        let mut spec = ShuffleSpec::new(4, 120 + (seed as usize) * 17, 0xC1A0_0000 + seed);
        let port_a = (seed as usize) % 4;
        let port_b = (port_a + 1 + (seed as usize) % 3) % 4;
        assert_ne!(port_a, port_b);
        let model_a = chaos_model(seed ^ 0x0A);
        let model_b = chaos_model(seed ^ 0x0B);
        assert!(
            active_fault_types(&model_a) >= 2,
            "seed {seed}: {model_a:?}"
        );
        assert!(
            active_fault_types(&model_b) >= 2,
            "seed {seed}: {model_b:?}"
        );
        spec.port_faults = vec![(port_a, model_a), (port_b, model_b)];
        run_shuffle(&spec)
    });
    let recovered: u64 = outcomes.iter().map(|o| o.retransmissions).sum();
    assert!(
        recovered > 0,
        "per-port faults never forced a retransmission across 8 seeds"
    );
}

/// A dead switch port (loss = 1.0 toward node 1) exhausts the retry
/// budget for the flow that crosses it — and *only* that flow: traffic
/// between healthy ports completes byte-for-byte while the dead flow
/// errors out, and the simulation still quiesces.
#[test]
fn dead_port_retry_exhaustion_is_isolated_to_that_port() {
    const N: usize = 4;
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = 0x1507;
    let mut tb = ClusterTestbed::switched(cfg, N, SwitchParams::default());
    tb.set_port_fault_model(1, LinkFaultModel::bernoulli(1.0));
    let (q01, q02, q23) = (pair_qpn(N, 0, 1), pair_qpn(N, 0, 2), pair_qpn(N, 2, 3));
    tb.connect_qp_between(0, 1, q01);
    tb.connect_qp_between(0, 2, q02);
    tb.connect_qp_between(2, 3, q23);
    let bufs: Vec<u64> = (0..N).map(|n| tb.pin(n, 1 << 20)).collect();
    let mut rng = SimRng::seed(0x0150_70b5);
    let mut data_02 = vec![0u8; 50_000];
    rng.fill_bytes(&mut data_02);
    let mut data_23 = vec![0u8; 50_000];
    rng.fill_bytes(&mut data_23);
    tb.mem(0).write(bufs[0], &data_02);
    tb.mem(2).write(bufs[2], &data_23);

    // All three flows contend for the switch concurrently.
    let h01 = tb.post(
        0,
        q01,
        WorkRequest::Write {
            remote_vaddr: bufs[1],
            local_vaddr: bufs[0] + (1 << 19),
            len: 4096,
        },
    );
    let h02 = tb.post(
        0,
        q02,
        WorkRequest::Write {
            remote_vaddr: bufs[2] + (1 << 19),
            local_vaddr: bufs[0],
            len: data_02.len() as u32,
        },
    );
    let h23 = tb.post(
        2,
        q23,
        WorkRequest::Write {
            remote_vaddr: bufs[3],
            local_vaddr: bufs[2],
            len: data_23.len() as u32,
        },
    );
    tb.run_until_complete(0, h01);
    tb.run_until_complete(0, h02);
    tb.run_until_complete(2, h23);
    assert!(
        tb.run_until_idle_bounded(EVENT_BUDGET),
        "a dead port must not keep the simulation spinning"
    );

    // The dead-port flow exhausted its budget...
    assert_eq!(
        tb.completion_status(0, h01),
        Some(CompletionStatus::RetryExceeded)
    );
    assert!(tb.qp_errored(0, q01));
    // ...while both healthy flows delivered every byte.
    assert_eq!(
        tb.completion_status(0, h02),
        Some(CompletionStatus::Success)
    );
    assert_eq!(
        tb.completion_status(2, h23),
        Some(CompletionStatus::Success)
    );
    assert!(!tb.qp_errored(0, q02));
    assert!(!tb.qp_errored(2, q23));
    assert_eq!(tb.mem(2).read(bufs[2] + (1 << 19), data_02.len()), data_02);
    assert_eq!(tb.mem(3).read(bufs[3], data_23.len()), data_23);
    // The faults were injected at the dead port, not dropped by queueing.
    assert_eq!(
        tb.switch_tail_drops(),
        0,
        "default queues never overflow here"
    );
}
