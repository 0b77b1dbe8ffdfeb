//! The KV serving tier: N client nodes drive M server nodes hosting
//! on-NIC GET/PUT/traversal kernels, under an **open-loop** load
//! generator.
//!
//! The incast benchmark ([`crate::cluster_incast`]) is closed-loop: a
//! sender posts its next message when the previous completes, so the
//! offered load self-throttles to whatever the system sustains.
//! Production serving tiers are not so kind — millions of independent
//! clients do not slow down because the server queue grew. This module
//! models that regime: request *arrival times* come from a seeded
//! arrival process ([`ArrivalProcess::Poisson`] or bursty
//! [`ArrivalProcess::Mmpp`]) that never waits for completions, key
//! popularity is Zipf-skewed, and per-request latency is measured from
//! the **intended arrival time** to response landing — so queueing delay
//! is charged to the tail exactly as an SLO dashboard would. Driving the
//! arrival rate up traces the classic latency knee.
//!
//! Each server node hosts a [`strom_kernels::layouts::KvStore`] (a
//! versioned chained hash table) served entirely by NIC kernels:
//!
//! - **GET**: [`strom_kernels::GetKernel`] in chained mode — response is
//!   the 8 B bucket version header plus the value, `ERR_NOT_FOUND` on a
//!   true miss;
//! - **PUT/INSERT**: [`strom_kernels::PutKernel`] fed by RDMA RPC WRITE —
//!   acks the committed version, so every update is countable;
//! - **traversal**: the generic [`strom_kernels::TraversalKernel`]
//!   walking the same chained entries (§6.2's chaining case).
//!
//! Verification is end-to-end and survives concurrency: every PUT
//! carries a nonce-derived payload
//! ([`strom_kernels::layouts::versioned_value_pattern`] keyed by the
//! request id), acks recover the committed version→nonce order, and the
//! post-run audit replays it: acked versions per key must be exactly
//! `1..=n` (lost or duplicated PUTs are *counted*, not assumed away),
//! the server-side version counter must equal the acked count, and every
//! GET/traversal response must match some version the key legitimately
//! held at or after the GET observed it.
//!
//! Everything derives from the spec's seed; same-spec reruns are
//! bit-identical (the [`KvOutcome::fingerprint`] pins this).

use strom_kernels::framework::{decode_error, ERR_NOT_FOUND};
use strom_kernels::layouts::{build_kv_store, versioned_value_pattern, KvStore};
use strom_kernels::put::{encode_put_request, PutConfig, PUT_HEADER_LEN};
use strom_kernels::simd::bytes_equal;
use strom_kernels::{GetKernel, GetParams, PutKernel, TraversalKernel};
use strom_sim::arrivals::{ArrivalGen, ArrivalProcess, ZipfSampler};
use strom_sim::time::Time;
use strom_sim::SimRng;
use strom_telemetry::{Fingerprint, Histogram, MetricsRegistry};
use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::config::Platform;
use crate::fault::LinkFaultModel;
use crate::testbed::{ClusterTestbed, SwitchParams};
use crate::WorkRequest;

/// Everything that determines one serving-tier run.
#[derive(Debug, Clone)]
pub struct KvSpec {
    /// Hardware platform (10 G or 100 G datapath).
    pub platform: Platform,
    /// Server nodes (each hosts one shard of the key space).
    pub servers: usize,
    /// Client nodes (each aggregates many logical clients; arrivals are
    /// generated globally, so a node models an arbitrarily large client
    /// population).
    pub clients: usize,
    /// Preloaded keys per server shard.
    pub keys_per_server: usize,
    /// Primary hash-table entries per server (2 buckets each; fewer
    /// entries ⇒ longer chains).
    pub primary_entries: u64,
    /// Value size in bytes (fixed per tier).
    pub value_size: u32,
    /// Total requests the generator emits.
    pub requests: usize,
    /// The arrival process (the offered-load knob).
    pub process: ArrivalProcess,
    /// Zipf skew of key popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Percent of requests that are GETs.
    pub get_pct: u8,
    /// Percent of requests that are PUTs (the remainder up to 100 are
    /// traversal-kernel lookups).
    pub put_pct: u8,
    /// Percent of GETs that target a deliberately absent key.
    pub miss_pct: u8,
    /// Percent of PUTs that insert a fresh key instead of updating.
    pub insert_pct: u8,
    /// Seed for the schedule and all simulation randomness.
    pub seed: u64,
    /// Switch geometry.
    pub switch: SwitchParams,
    /// Enables DCQCN on every NIC.
    pub cc: bool,
    /// Link fault model for chaos soaks (`None` = clean links).
    pub fault: Option<LinkFaultModel>,
}

impl KvSpec {
    /// A small clean-network spec: Poisson arrivals at `mean_gap_ps`
    /// between requests, moderate skew, a 70/20/10 GET/PUT/traversal mix
    /// with a sprinkle of misses and inserts.
    pub fn new(servers: usize, clients: usize, mean_gap_ps: u64, seed: u64) -> Self {
        KvSpec {
            platform: Platform::TenGig,
            servers,
            clients,
            keys_per_server: 48,
            primary_entries: 16,
            value_size: 64,
            requests: 400,
            process: ArrivalProcess::Poisson {
                mean_gap: mean_gap_ps,
            },
            zipf_theta: 0.99,
            get_pct: 70,
            put_pct: 20,
            miss_pct: 5,
            insert_pct: 10,
            seed,
            switch: SwitchParams::default(),
            cc: false,
            fault: None,
        }
    }
}

/// What one serving-tier run observed. All-integer so reruns compare
/// bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvOutcome {
    /// Requests whose response landed.
    pub completed: u64,
    /// Completed GETs (hits + misses).
    pub gets: u64,
    /// Completed PUTs (updates + inserts).
    pub puts: u64,
    /// Completed traversal-kernel lookups.
    pub traversals: u64,
    /// GETs answered `ERR_NOT_FOUND` (each must have been deliberate).
    pub misses: u64,
    /// Requests whose response never landed (must be 0: RC delivers).
    pub lost_responses: u64,
    /// Responses whose payload matched no version the key ever held,
    /// unexpected misses, and unexpected hits (must be 0).
    pub verify_failures: u64,
    /// PUTs acked but missing from the version ladder, plus server
    /// version counts exceeding acked updates (must be 0).
    pub lost_puts: u64,
    /// Version acks seen twice for the same key (must be 0:
    /// exactly-once).
    pub dup_puts: u64,
    /// PUTs answered with an error word (arena sizing bugs).
    pub put_errors: u64,
    /// Fresh keys committed by insert PUTs.
    pub inserts_acked: u64,
    /// Latency quantiles over all completed requests, picoseconds,
    /// measured from *intended arrival* (open-loop: queueing counts).
    pub p50_ps: Option<u64>,
    pub p99_ps: Option<u64>,
    pub p999_ps: Option<u64>,
    /// Per-op-type p99, picoseconds.
    pub get_p99_ps: Option<u64>,
    pub put_p99_ps: Option<u64>,
    pub traversal_p99_ps: Option<u64>,
    /// Offered load (arrival-process mean), requests per second.
    pub offered_rps: u64,
    /// Achieved throughput: completions over the span from first arrival
    /// to last response, requests per second.
    pub achieved_rps: u64,
    /// First arrival to last response, picoseconds.
    pub elapsed_ps: u64,
    /// Retransmissions summed over all nodes (chaos diagnostics).
    pub retransmissions: u64,
    /// Client↔server QPs that went terminal (must be 0).
    pub qp_errors: usize,
    /// FNV-1a fold of every request's (op, key, latency, response word)
    /// in schedule order — bit-identity across reruns.
    pub fingerprint: u64,
}

/// The operation mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KvOp {
    /// Chained GET expected to hit.
    Get,
    /// Chained GET on a deliberately absent key.
    GetMiss,
    /// Update of a preloaded key.
    Put,
    /// Insert of a fresh key.
    Insert,
    /// Traversal-kernel lookup (value only, no version header).
    Traversal,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Request {
    /// Intended arrival time, relative to traffic start.
    at: Time,
    client: usize,
    server: usize,
    op: KvOp,
    key: u64,
    /// PUT nonce: the value payload is `versioned_value_pattern(key,
    /// nonce, ..)`, recoverable from the committed version via the ack.
    nonce: u64,
}

/// Base of the deliberately-absent key range (never preloaded or
/// inserted).
const MISS_KEY_BASE: u64 = 1 << 40;
/// Base of the fresh-insert key range (never preloaded or GET-sampled).
const INSERT_KEY_BASE: u64 = 1 << 41;

/// Livelock bound for the post-traffic drain.
const EVENT_BUDGET: u64 = 200_000_000;

/// The QP connecting client `c` to server `s`.
fn qpn_for(spec: &KvSpec, c: usize, s: usize) -> Qpn {
    (c * spec.servers + s) as Qpn + 1
}

/// The shard (server index) owning `key`.
fn shard_of(key: u64, servers: usize) -> usize {
    ((key - 1) % servers as u64) as usize
}

/// Generates the full request schedule from the spec's seed. Pure: the
/// schedule depends on nothing but the spec.
fn build_schedule(spec: &KvSpec) -> Vec<Request> {
    let total_keys = (spec.keys_per_server * spec.servers) as u64;
    let mut gen = ArrivalGen::new(spec.process, spec.seed);
    let zipf = ZipfSampler::new(total_keys, spec.zipf_theta);
    let mut rng = SimRng::seed(spec.seed ^ 0x4B5E_11E5);
    let mut reqs = Vec::with_capacity(spec.requests);
    let mut next_insert = 0u64;
    let mut next_miss = 0u64;
    for i in 0..spec.requests {
        let at = gen.next_arrival();
        let client = rng.below(spec.clients as u64) as usize;
        let roll = rng.below(100) as u8;
        let (op, key) = if roll < spec.get_pct {
            if (rng.below(100) as u8) < spec.miss_pct {
                next_miss += 1;
                (KvOp::GetMiss, MISS_KEY_BASE + next_miss)
            } else {
                (KvOp::Get, zipf.sample(&mut rng) + 1)
            }
        } else if roll < spec.get_pct + spec.put_pct {
            if (rng.below(100) as u8) < spec.insert_pct {
                next_insert += 1;
                (KvOp::Insert, INSERT_KEY_BASE + next_insert)
            } else {
                (KvOp::Put, zipf.sample(&mut rng) + 1)
            }
        } else {
            (KvOp::Traversal, zipf.sample(&mut rng) + 1)
        };
        reqs.push(Request {
            at,
            client,
            server: shard_of(key, spec.servers),
            op,
            key,
            nonce: i as u64 + 1,
        });
    }
    reqs
}

/// Runs the serving tier and returns the observables.
pub fn run_kv_serve(spec: &KvSpec) -> KvOutcome {
    run_kv_serve_instrumented(spec).0
}

/// [`run_kv_serve`] plus the testbed's metrics registry (per-op latency
/// histograms land there as `kv_get_latency_ps` etc.).
pub fn run_kv_serve_instrumented(spec: &KvSpec) -> (KvOutcome, MetricsRegistry) {
    assert!(spec.servers >= 1 && spec.clients >= 1, "empty tier");
    assert!(spec.get_pct as u32 + spec.put_pct as u32 <= 100, "op mix");
    assert!(spec.keys_per_server >= 1, "empty shard");
    let m = spec.servers;
    let schedule = build_schedule(spec);

    let mut cfg = spec.platform.config();
    cfg.seed = spec.seed;
    cfg.cc = spec.cc;
    let mut tb = ClusterTestbed::switched(cfg, m + spec.clients, spec.switch);
    if let Some(fault) = spec.fault {
        tb.set_fault_model(fault);
    }
    for c in 0..spec.clients {
        for s in 0..m {
            tb.connect_qp_between(s, m + c, qpn_for(spec, c, s));
        }
    }

    // Server shards: preload keys 1..=K round-robin over servers, with
    // arena headroom for exactly this schedule's inserts (plus slack so
    // ERR_NO_SPACE stays a bug signal, not an expected outcome).
    let total_keys = (spec.keys_per_server * m) as u64;
    let mut inserts_per_server = vec![0u64; m];
    for r in &schedule {
        if r.op == KvOp::Insert {
            inserts_per_server[r.server] += 1;
        }
    }
    let mut stores: Vec<KvStore> = Vec::with_capacity(m);
    for (s, &inserts) in inserts_per_server.iter().enumerate() {
        let keys: Vec<u64> = (1..=total_keys).filter(|&k| shard_of(k, m) == s).collect();
        let spare = inserts + 2;
        let len = KvStore::region_len(
            spec.primary_entries,
            keys.len() as u64 + spare,
            spec.value_size,
        );
        let base = tb.pin(s, len);
        let kv = build_kv_store(
            tb.mem(s),
            base,
            spec.primary_entries,
            &keys,
            spec.value_size,
            spare,
        );
        tb.deploy_kernel(s, Box::new(GetKernel::new()));
        tb.deploy_kernel(s, Box::new(TraversalKernel::new()));
        tb.deploy_kernel(s, Box::new(PutKernel::new()));
        tb.post_local_rpc(s, 0, RpcOpCode::PUT, PutConfig::for_store(&kv).encode());
        stores.push(kv);
    }

    // Client regions: one fixed-size chunk per request (indexed by the
    // global request id, so slots never alias): 8 B header/ack + value
    // response slot, then the PUT staging blob.
    let chunk =
        (8 + u64::from(spec.value_size) + PUT_HEADER_LEN as u64 + u64::from(spec.value_size))
            .next_multiple_of(64);
    let mut client_base = vec![0u64; spec.clients];
    for (c, base) in client_base.iter_mut().enumerate() {
        *base = tb.pin(m + c, chunk * schedule.len() as u64);
    }
    tb.bring_up();
    tb.run_until_idle(); // Settle the PUT arena configuration RPCs.

    // Open loop: process everything due before each arrival, advance the
    // clock to the arrival itself, post — never wait for completions.
    let t0 = tb.now();
    let mut watches = Vec::with_capacity(schedule.len());
    for (i, r) in schedule.iter().enumerate() {
        let due = t0 + r.at;
        while tb.next_event_at().is_some_and(|t| t <= due) {
            tb.step();
        }
        if tb.now() < due {
            tb.advance(due - tb.now());
        }
        let node = m + r.client;
        let qpn = qpn_for(spec, r.client, r.server);
        let slot = client_base[r.client] + chunk * i as u64;
        let watch = match r.op {
            KvOp::Get | KvOp::GetMiss => {
                let w = tb.add_watch(node, slot, 8);
                tb.post(
                    node,
                    qpn,
                    WorkRequest::Rpc {
                        rpc_op: RpcOpCode::GET,
                        params: GetParams {
                            entry_addr: stores[r.server].entry_addr(r.key),
                            key: r.key,
                            target_address: slot,
                            chained: true,
                        }
                        .encode(),
                    },
                );
                w
            }
            KvOp::Put | KvOp::Insert => {
                let w = tb.add_watch(node, slot, 8);
                let value = versioned_value_pattern(r.key, r.nonce, spec.value_size);
                let blob =
                    encode_put_request(r.key, stores[r.server].entry_addr(r.key), slot, &value);
                let stage = slot + 8 + u64::from(spec.value_size);
                tb.mem(node).write(stage, &blob);
                tb.post(
                    node,
                    qpn,
                    WorkRequest::RpcWrite {
                        rpc_op: RpcOpCode::PUT,
                        local_vaddr: stage,
                        len: blob.len() as u32,
                    },
                );
                w
            }
            KvOp::Traversal => {
                let w = tb.add_watch(node, slot, u64::from(spec.value_size));
                tb.post(
                    node,
                    qpn,
                    WorkRequest::Rpc {
                        rpc_op: RpcOpCode::TRAVERSAL,
                        params: stores[r.server].table.get_params(r.key, slot).encode(),
                    },
                );
                w
            }
        };
        watches.push((watch, due));
    }
    assert!(
        tb.run_until_idle_bounded(EVENT_BUDGET),
        "seed {}: serving tier failed to quiesce within the event budget",
        spec.seed
    );

    // ---- Post-run audit ----
    // Pass 1: collect PUT acks and build each key's committed
    // version → nonce ladder.
    let mut acked: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    let mut put_errors = 0u64;
    let mut dup_puts = 0u64;
    for (i, r) in schedule.iter().enumerate() {
        if !matches!(r.op, KvOp::Put | KvOp::Insert) {
            continue;
        }
        let Some(_) = tb.watch_fired(watches[i].0) else {
            continue; // Counted as lost below.
        };
        let node = m + r.client;
        let slot = client_base[r.client] + chunk * i as u64;
        let word = tb.mem(node).read_u64(slot);
        if decode_error(word).is_some() {
            put_errors += 1;
        } else {
            acked.entry(r.key).or_default().push((word, r.nonce));
        }
    }
    let mut lost_puts = 0u64;
    let mut inserts_acked = 0u64;
    let mut version_nonce: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
    let mut final_version: std::collections::BTreeMap<u64, u64> = Default::default();
    for (&key, ladder) in acked.iter_mut() {
        ladder.sort_unstable();
        // Exactly-once: acked versions must be exactly 1..=n, each once.
        for (idx, &(v, nonce)) in ladder.iter().enumerate() {
            let expect = idx as u64 + 1;
            if v == expect {
                version_nonce.insert((key, v), nonce);
            } else if idx > 0 && v == ladder[idx - 1].0 {
                dup_puts += 1;
            } else {
                lost_puts += 1;
            }
        }
        let n = ladder.len() as u64;
        let server = shard_of(key, m);
        match stores[server].lookup(tb.mem(server), key) {
            Some((v, _)) if v == n => {}
            _ => lost_puts += 1, // Acked but not (fully) committed.
        }
        final_version.insert(key, n);
        if key >= INSERT_KEY_BASE {
            inserts_acked += 1;
        }
    }

    // Pass 2: verify every response against the version ladder.
    let mut latency = Histogram::new();
    let mut per_op = [Histogram::new(), Histogram::new(), Histogram::new()];
    let metrics = tb.metrics().clone();
    let mut completed = 0u64;
    let (mut gets, mut puts, mut traversals) = (0u64, 0u64, 0u64);
    let mut misses = 0u64;
    let mut lost_responses = 0u64;
    let mut verify_failures = 0u64;
    let mut last_response = t0;
    let mut fp = Fingerprint::new();
    // The payload a key legitimately holds at committed version `w`.
    let pattern_at = |key: u64, w: u64| -> Vec<u8> {
        match version_nonce.get(&(key, w)) {
            Some(&nonce) => versioned_value_pattern(key, nonce, spec.value_size),
            None => versioned_value_pattern(key, 0, spec.value_size),
        }
    };
    for (i, r) in schedule.iter().enumerate() {
        let (watch, due) = watches[i];
        let Some(fired) = tb.watch_fired(watch) else {
            lost_responses += 1;
            fp.word(r.op as u64).word(r.key).word(u64::MAX).word(0);
            continue;
        };
        let lat = fired.saturating_sub(due);
        let node = m + r.client;
        let slot = client_base[r.client] + chunk * i as u64;
        let head = tb.mem(node).read_u64(slot);
        completed += 1;
        last_response = last_response.max(fired);
        latency.record(lat);
        let fin = final_version.get(&r.key).copied().unwrap_or(0);
        match r.op {
            KvOp::Get | KvOp::GetMiss => {
                gets += 1;
                per_op[0].record(lat);
                match decode_error(head) {
                    Some(code) => {
                        if r.op == KvOp::GetMiss && code == ERR_NOT_FOUND {
                            misses += 1;
                        } else {
                            verify_failures += 1;
                        }
                    }
                    None => {
                        // Hit: header is the version the kernel read; the
                        // value may be newer if a PUT raced the value DMA,
                        // but never older and never torn.
                        let value = tb.mem(node).read(slot + 8, spec.value_size as usize);
                        let ok = r.op == KvOp::Get
                            && head <= fin
                            && (head..=fin).any(|w| bytes_equal(&value, &pattern_at(r.key, w)));
                        if !ok {
                            verify_failures += 1;
                        }
                    }
                }
            }
            KvOp::Put | KvOp::Insert => {
                puts += 1;
                per_op[1].record(lat);
            }
            KvOp::Traversal => {
                traversals += 1;
                per_op[2].record(lat);
                let value = tb.mem(node).read(slot, spec.value_size as usize);
                let ok = (0..=fin).any(|w| bytes_equal(&value, &pattern_at(r.key, w)));
                if !ok {
                    verify_failures += 1;
                }
            }
        }
        fp.word(r.op as u64).word(r.key).word(lat).word(head);
    }
    for (name, h) in [
        ("kv_get_latency_ps", &per_op[0]),
        ("kv_put_latency_ps", &per_op[1]),
        ("kv_traversal_latency_ps", &per_op[2]),
    ] {
        let handle = metrics.histogram(name);
        for (v, n) in h.nonzero_buckets() {
            for _ in 0..n {
                handle.record(v);
            }
        }
    }

    let elapsed_ps = (last_response - t0).max(1);
    let mut qp_errors = 0usize;
    for c in 0..spec.clients {
        for s in 0..m {
            if tb.qp_errored(m + c, qpn_for(spec, c, s)) {
                qp_errors += 1;
            }
        }
    }
    let outcome = KvOutcome {
        completed,
        gets,
        puts,
        traversals,
        misses,
        lost_responses,
        verify_failures,
        lost_puts,
        dup_puts,
        put_errors,
        inserts_acked,
        p50_ps: latency.quantile(0.50),
        p99_ps: latency.quantile(0.99),
        p999_ps: latency.quantile(0.999),
        get_p99_ps: per_op[0].quantile(0.99),
        put_p99_ps: per_op[1].quantile(0.99),
        traversal_p99_ps: per_op[2].quantile(0.99),
        offered_rps: spec.process.mean_rate_per_sec().round() as u64,
        achieved_rps: (completed as u128 * 1_000_000_000_000 / elapsed_ps as u128) as u64,
        elapsed_ps,
        retransmissions: (0..tb.num_nodes()).map(|n| tb.retransmissions(n)).sum(),
        qp_errors,
        fingerprint: fp.value(),
    };
    (outcome, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_sim::time::NANOS;

    /// A light-load spec small enough for unit-test budgets.
    fn small(seed: u64) -> KvSpec {
        let mut spec = KvSpec::new(2, 2, 3_000 * NANOS, seed);
        spec.requests = 160;
        spec.keys_per_server = 24;
        spec.primary_entries = 8;
        spec
    }

    /// The invariants every healthy run must satisfy.
    fn assert_clean(o: &KvOutcome) {
        assert_eq!(o.lost_responses, 0, "RC must deliver every response");
        assert_eq!(o.verify_failures, 0, "payloads must verify: {o:?}");
        assert_eq!(o.lost_puts, 0, "every acked PUT must be committed");
        assert_eq!(o.dup_puts, 0, "version acks must be exactly-once");
        assert_eq!(o.put_errors, 0, "arena was sized for the schedule");
        assert_eq!(o.qp_errors, 0);
        assert_eq!(o.completed, o.gets + o.puts + o.traversals);
    }

    #[test]
    fn mixed_workload_serves_and_verifies() {
        let o = run_kv_serve(&small(0x5E21));
        assert_clean(&o);
        assert_eq!(o.completed, 160);
        assert!(o.gets > 0 && o.puts > 0 && o.traversals > 0);
        assert!(o.misses > 0, "the 5% miss mix must have sampled misses");
        assert!(o.inserts_acked > 0, "inserts must have committed");
        assert!(o.p50_ps.is_some() && o.p99_ps.is_some());
    }

    #[test]
    fn reruns_are_bit_identical() {
        let a = run_kv_serve(&small(0xD15C));
        let b = run_kv_serve(&small(0xD15C));
        assert_eq!(a, b, "same spec must reproduce the outcome exactly");
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let a = run_kv_serve(&small(1));
        let b = run_kv_serve(&small(2));
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_clean(&a);
        assert_clean(&b);
    }

    #[test]
    fn overload_pushes_the_tail_out() {
        // Same workload at a 12× higher offered rate: open-loop arrivals
        // pile into the serving queues, so the p99 must grow sharply —
        // the latency knee the closed-loop incast driver cannot see.
        let light = run_kv_serve(&small(0xA11));
        let mut hot = small(0xA11);
        hot.process = ArrivalProcess::Poisson {
            mean_gap: 250 * NANOS,
        };
        let heavy = run_kv_serve(&hot);
        assert_clean(&heavy);
        let (lo, hi) = (light.p99_ps.unwrap(), heavy.p99_ps.unwrap());
        assert!(
            hi > lo * 2,
            "open-loop overload must inflate the tail: {lo} → {hi}"
        );
    }

    #[test]
    fn bursty_arrivals_fatten_the_tail_at_equal_mean_rate() {
        let mut calm = small(0xBB51);
        calm.requests = 240;
        let mut bursty = calm.clone();
        // MMPP with the same long-run mean rate as the Poisson spec:
        // dwell-weighted mean gap = (6000·1 + 600·1)/2 ... chosen so
        // mean_rate matches within a few percent.
        bursty.process = ArrivalProcess::Mmpp {
            calm_gap: 9_000 * NANOS,
            burst_gap: 600 * NANOS,
            calm_dwell: 150_000 * NANOS,
            burst_dwell: 50_000 * NANOS,
        };
        let a = run_kv_serve(&calm);
        let b = run_kv_serve(&bursty);
        assert_clean(&a);
        assert_clean(&b);
        assert!(
            b.p99_ps.unwrap() > a.p99_ps.unwrap(),
            "bursts must fatten the tail: {:?} vs {:?}",
            a.p99_ps,
            b.p99_ps
        );
    }
}
