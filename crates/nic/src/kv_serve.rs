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
use strom_kernels::layouts::{
    build_kv_store, versioned_value_pattern, versioned_value_pattern_into, KvStore,
};
use strom_kernels::put::{encode_put_request, PutConfig, PUT_HEADER_LEN};
use strom_kernels::simd::bytes_equal;
use strom_kernels::{GetKernel, GetParams, PutKernel, TraversalKernel};
use strom_sim::arrivals::{ArrivalGen, ArrivalProcess, ZipfSampler};
use strom_sim::time::Time;
use strom_sim::SimRng;
use strom_telemetry::{Fingerprint, Histogram};
use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::config::Platform;
use crate::fault::LinkFaultModel;
use crate::scenario::{us, Scenario, EVENT_BUDGET};
use crate::spec::{check_qp_table, shape, spec_json, SpecError};
use crate::testbed::{ClusterTestbed, SwitchParams};
use crate::watch::WatchId;
use crate::WorkRequest;

/// Everything that determines one serving-tier run.
#[derive(Debug, Clone, PartialEq)]
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

    /// What makes the spec runnable. DCQCN without a marking switch is
    /// allowed here: it paces without cutting rates.
    pub fn check(&self) -> Result<(), SpecError> {
        let (s, c) = (self.servers, self.clients);
        shape(s >= 1 && c >= 1, "kv servers and clients must be ≥ 1")?;
        // Every client holds one QP to every server, numbered from 1
        // (`qpn_for`), so the highest QPN is the product.
        check_qp_table(self.platform, &format!("{c} clients × {s} servers"), c * s)?;
        shape(self.keys_per_server >= 1, "kv keys_per_server must be ≥ 1")?;
        shape(self.primary_entries >= 1, "kv primary_entries must be ≥ 1")?;
        let mix = u32::from(self.get_pct) + u32::from(self.put_pct);
        shape(mix <= 100, "kv get_pct + put_pct must be ≤ 100")?;
        let theta = self.zipf_theta;
        shape(
            theta >= 0.0 && theta.is_finite(),
            "kv zipf_theta must be finite, ≥ 0",
        )
    }
}

spec_json! {
    KvSpec {
        platform, servers, clients, keys_per_server, primary_entries, value_size, requests,
        process, zipf_theta, get_pct, put_pct, miss_pct, insert_pct, seed, switch, cc, fault,
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

/// Runs the serving tier on a fresh testbed (see [`KvSpec`]'s
/// [`Scenario`] impl).
pub fn run_kv_serve(spec: &KvSpec) -> KvOutcome {
    let mut tb = spec.testbed();
    spec.drive(&mut tb)
}

impl KvOutcome {
    /// The must-be-zero audit counters summed: verify failures, lost and
    /// duplicated PUTs, PUT errors, lost responses and QP errors.
    pub fn violations(&self) -> u64 {
        self.verify_failures
            + self.lost_puts
            + self.dup_puts
            + self.put_errors
            + self.lost_responses
            + self.qp_errors as u64
    }
}

impl Scenario for KvSpec {
    type Outcome = KvOutcome;

    fn testbed(&self) -> ClusterTestbed {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        let mut cfg = self.platform.config();
        cfg.seed = self.seed;
        cfg.cc = self.cc;
        let mut tb = ClusterTestbed::switched(cfg, self.servers + self.clients, self.switch);
        if let Some(fault) = self.fault {
            tb.set_fault_model(fault);
        }
        tb
    }

    /// Audits every response against the committed version ladders and
    /// counts each violation in the outcome ([`KvOutcome::violations`]);
    /// the per-op latency histograms land in the testbed's registry as
    /// `kv_get_latency_ps`, `kv_put_latency_ps` and
    /// `kv_traversal_latency_ps`.
    fn drive(&self, tb: &mut ClusterTestbed) -> KvOutcome {
        let m = self.servers;
        let schedule = build_schedule(self);

        for c in 0..self.clients {
            for s in 0..m {
                tb.connect_qp_between(s, m + c, qpn_for(self, c, s));
            }
        }

        // Server shards: preload keys 1..=K round-robin over servers, with
        // arena headroom for exactly this schedule's inserts (plus slack so
        // ERR_NO_SPACE stays a bug signal, not an expected outcome).
        let total_keys = (self.keys_per_server * m) as u64;
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
                self.primary_entries,
                keys.len() as u64 + spare,
                self.value_size,
            );
            let base = tb.pin(s, len);
            let kv = build_kv_store(
                tb.mem(s),
                base,
                self.primary_entries,
                &keys,
                self.value_size,
                spare,
            );
            tb.deploy_kernel(s, Box::new(GetKernel::new()));
            tb.deploy_kernel(s, Box::new(TraversalKernel::new()));
            tb.deploy_kernel(s, Box::new(PutKernel::new()));
            tb.post_local_rpc(s, 0, RpcOpCode::PUT, PutConfig::for_store(&kv).encode());
            stores.push(kv);
        }

        // Client regions: one fixed-size slot per request of that client,
        // numbered within the client's own requests so slots never alias:
        // 8 B header/ack + value response slot, then the PUT staging blob.
        let slot_len =
            (8 + u64::from(self.value_size) + PUT_HEADER_LEN as u64 + u64::from(self.value_size))
                .next_multiple_of(64);
        let mut per_client = vec![0u64; self.clients];
        for r in &schedule {
            per_client[r.client] += 1;
        }
        let mut next_slot: Vec<u64> = (per_client.iter().enumerate())
            .map(|(c, &n)| tb.pin(m + c, slot_len * n.max(1)))
            .collect();
        let slots: Vec<u64> = (schedule.iter())
            .map(|r| {
                let slot = next_slot[r.client];
                next_slot[r.client] += slot_len;
                slot
            })
            .collect();
        tb.bring_up();
        tb.run_until_idle(); // Settle the PUT arena configuration RPCs.

        // Open loop: process everything due before each arrival, advance the
        // clock to the arrival itself, post — never wait for completions.
        let t0 = tb.now();
        let mut watches = Vec::with_capacity(schedule.len());
        for (r, &slot) in schedule.iter().zip(&slots) {
            let due = t0 + r.at;
            while tb.next_event_at().is_some_and(|t| t <= due) {
                tb.step();
            }
            if tb.now() < due {
                tb.advance(due - tb.now());
            }
            let node = m + r.client;
            let qpn = qpn_for(self, r.client, r.server);
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
                    let value = versioned_value_pattern(r.key, r.nonce, self.value_size);
                    let blob =
                        encode_put_request(r.key, stores[r.server].entry_addr(r.key), slot, &value);
                    let stage = slot + 8 + u64::from(self.value_size);
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
                    let w = tb.add_watch(node, slot, u64::from(self.value_size));
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
            watches.push(watch);
        }
        assert!(
            tb.run_until_idle_bounded(EVENT_BUDGET),
            "seed {}: serving tier failed to quiesce within the event budget",
            self.seed
        );

        let keys = KeyIndex {
            preloaded: total_keys,
            inserts: inserts_per_server.iter().sum(),
        };
        let a = audit(
            &schedule,
            self.value_size,
            keys,
            t0,
            &mut Served {
                tb,
                schedule: &schedule,
                slots: &slots,
                watches: &watches,
                stores: &stores,
            },
        );
        for (name, h) in [
            ("kv_get_latency_ps", &a.per_op[0]),
            ("kv_put_latency_ps", &a.per_op[1]),
            ("kv_traversal_latency_ps", &a.per_op[2]),
        ] {
            tb.metrics().histogram(name).merge(h);
        }

        let elapsed_ps = (a.last_response - t0).max(1);
        let mut qp_errors = 0usize;
        for c in 0..self.clients {
            for s in 0..m {
                if tb.qp_errored(m + c, qpn_for(self, c, s)) {
                    qp_errors += 1;
                }
            }
        }
        KvOutcome {
            completed: a.completed,
            gets: a.gets,
            puts: a.puts,
            traversals: a.traversals,
            misses: a.misses,
            lost_responses: a.lost_responses,
            verify_failures: a.verify_failures,
            lost_puts: a.lost_puts,
            dup_puts: a.dup_puts,
            put_errors: a.put_errors,
            inserts_acked: a.inserts_acked,
            p50_ps: a.latency.quantile(0.50),
            p99_ps: a.latency.quantile(0.99),
            p999_ps: a.latency.quantile(0.999),
            get_p99_ps: a.per_op[0].quantile(0.99),
            put_p99_ps: a.per_op[1].quantile(0.99),
            traversal_p99_ps: a.per_op[2].quantile(0.99),
            offered_rps: self.process.mean_rate_per_sec().round() as u64,
            achieved_rps: (a.completed as u128 * 1_000_000_000_000 / elapsed_ps as u128) as u64,
            elapsed_ps,
            retransmissions: (0..tb.num_nodes()).map(|n| tb.retransmissions(n)).sum(),
            qp_errors,
            fingerprint: a.fingerprint,
        }
    }

    fn fingerprint(out: &KvOutcome) -> u64 {
        let mut fp = Fingerprint::new();
        for word in [
            out.fingerprint,
            out.elapsed_ps,
            out.completed,
            out.retransmissions,
            out.violations(),
        ] {
            fp.word(word);
        }
        fp.value()
    }

    fn perf(out: &KvOutcome) -> Vec<(&'static str, f64)> {
        vec![
            ("elapsed_us", us(out.elapsed_ps)),
            ("p999_us", us(out.p999_ps.unwrap_or(0))),
            ("achieved_krps", out.achieved_rps as f64 / 1e3),
            ("completed", out.completed as f64),
            ("violations", out.violations() as f64),
        ]
    }
}

/// Dense numbering of every key a PUT can commit: the preloaded keys
/// `1..=preloaded` first, then the inserted keys in insert order.
#[derive(Debug, Clone, Copy)]
struct KeyIndex {
    preloaded: u64,
    inserts: u64,
}

impl KeyIndex {
    fn len(self) -> usize {
        (self.preloaded + self.inserts) as usize
    }

    /// The index of `key`, if a PUT can commit it.
    fn of(self, key: u64) -> Option<usize> {
        if (1..=self.preloaded).contains(&key) {
            Some(key as usize - 1)
        } else if (1..=self.inserts).contains(&key.wrapping_sub(INSERT_KEY_BASE)) {
            Some((self.preloaded + key - INSERT_KEY_BASE - 1) as usize)
        } else {
            None
        }
    }

    /// The key at index `k`.
    fn key(self, k: usize) -> u64 {
        let k = k as u64;
        if k < self.preloaded {
            k + 1
        } else {
            INSERT_KEY_BASE + 1 + k - self.preloaded
        }
    }
}

/// What the post-run audit reads from a finished run.
trait FinishedRun {
    /// When request `i`'s response landed, if it did.
    fn landed(&self, i: usize) -> Option<Time>;
    /// Reads `buf.len()` bytes of request `i`'s client slot from `offset`.
    fn read_slot(&mut self, i: usize, offset: u64, buf: &mut [u8]);
    /// The version of `key` its server's store holds, if it holds the key.
    fn committed(&mut self, key: u64) -> Option<u64>;
}

/// A serving-tier run after its last event.
struct Served<'a> {
    tb: &'a mut ClusterTestbed,
    schedule: &'a [Request],
    slots: &'a [u64],
    watches: &'a [WatchId],
    stores: &'a [KvStore],
}

impl FinishedRun for Served<'_> {
    fn landed(&self, i: usize) -> Option<Time> {
        self.tb.watch_fired(self.watches[i])
    }

    fn read_slot(&mut self, i: usize, offset: u64, buf: &mut [u8]) {
        let node = self.stores.len() + self.schedule[i].client;
        self.tb.mem(node).read_into(self.slots[i] + offset, buf);
    }

    fn committed(&mut self, key: u64) -> Option<u64> {
        let server = shard_of(key, self.stores.len());
        let store = &self.stores[server];
        store.lookup(self.tb.mem(server), key).map(|(v, _)| v)
    }
}

/// The audit's verdict, plus the latency record and fingerprint it reads
/// off the responses on the way.
#[derive(Debug, Default)]
struct Audit {
    completed: u64,
    gets: u64,
    puts: u64,
    traversals: u64,
    misses: u64,
    lost_responses: u64,
    verify_failures: u64,
    lost_puts: u64,
    dup_puts: u64,
    put_errors: u64,
    inserts_acked: u64,
    latency: Histogram,
    /// GET, PUT and traversal latencies.
    per_op: [Histogram; 3],
    last_response: Time,
    fingerprint: u64,
}

/// The little-endian word at the start of request `i`'s slot: a PUT's
/// ack, a GET's version header, a traversal's first value bytes.
fn slot_word(run: &mut impl FinishedRun, i: usize) -> u64 {
    let mut word = [0u8; 8];
    run.read_slot(i, 0, &mut word);
    u64::from_le_bytes(word)
}

/// The post-run exactly-once audit of a schedule whose requests were
/// due at `t0` plus their arrival offsets.
///
/// Pass 1 sorts the acked PUTs into each key's committed version ladder
/// (version → nonce): the acked versions of a key must be exactly
/// `1..=n`, each once, and its server must hold version `n`. Pass 2
/// checks every response against the ladder: a GET's value must be the
/// payload of a version between the one its header names and the final
/// one, a traversal's that of any version the key held.
fn audit(
    schedule: &[Request],
    value_size: u32,
    keys: KeyIndex,
    t0: Time,
    run: &mut impl FinishedRun,
) -> Audit {
    let mut out = Audit {
        last_response: t0,
        ..Audit::default()
    };
    // Pass 1: every acked PUT as (key index, version, nonce), sorted so
    // that each key's ladder is one run, in version order.
    let mut acks = Vec::new();
    for (i, r) in schedule.iter().enumerate() {
        if !matches!(r.op, KvOp::Put | KvOp::Insert) || run.landed(i).is_none() {
            continue; // Unlanded PUTs are counted as lost below.
        }
        let word = slot_word(run, i);
        if decode_error(word).is_some() {
            out.put_errors += 1;
        } else {
            let k = keys
                .of(r.key)
                .expect("PUTs target preloaded or inserted keys");
            acks.push((k, word, r.nonce));
        }
    }
    acks.sort_unstable();
    // Key `k`'s ladder is `acks[start[k]..start[k + 1]]`.
    let mut start = vec![0usize; keys.len() + 1];
    for &(k, ..) in &acks {
        start[k + 1] += 1;
    }
    for k in 0..keys.len() {
        start[k + 1] += start[k];
    }
    let ladder = |k: usize| &acks[start[k]..start[k + 1]];
    for k in (0..keys.len()).filter(|&k| start[k] < start[k + 1]) {
        let ladder = ladder(k);
        // Exactly-once: acked versions must be exactly 1..=n, each once.
        for (idx, &(_, v, _)) in ladder.iter().enumerate() {
            if v == idx as u64 + 1 {
                continue;
            } else if idx > 0 && v == ladder[idx - 1].1 {
                out.dup_puts += 1;
            } else {
                out.lost_puts += 1;
            }
        }
        let key = keys.key(k);
        if run.committed(key) != Some(ladder.len() as u64) {
            out.lost_puts += 1; // Acked but not (fully) committed.
        }
        if key >= INSERT_KEY_BASE {
            out.inserts_acked += 1;
        }
    }
    // The nonce whose payload key `k` holds at committed version `w`: 0,
    // the preloaded payload, at version 0 or where the ladder has a gap.
    let nonce_at = |k: Option<usize>, w: u64| -> u64 {
        let at = k
            .zip(w.checked_sub(1))
            .and_then(|(k, i)| ladder(k).get(i as usize));
        at.filter(|&&(_, v, _)| v == w)
            .map_or(0, |&(.., nonce)| nonce)
    };

    // Pass 2: verify every response against the version ladder.
    let mut fp = Fingerprint::new();
    let mut value = vec![0u8; value_size as usize];
    let mut want = vec![0u8; value_size as usize];
    for (i, r) in schedule.iter().enumerate() {
        let Some(fired) = run.landed(i) else {
            out.lost_responses += 1;
            fp.word(r.op as u64).word(r.key).word(u64::MAX).word(0);
            continue;
        };
        let lat = fired.saturating_sub(t0 + r.at);
        let head = slot_word(run, i);
        out.completed += 1;
        out.last_response = out.last_response.max(fired);
        out.latency.record(lat);
        let k = keys.of(r.key);
        let fin = k.map_or(0, |k| ladder(k).len() as u64);
        // Whether `value` is the payload of one of the key's `versions`.
        let mut held = |versions: std::ops::RangeInclusive<u64>, value: &[u8]| {
            versions.into_iter().any(|w| {
                versioned_value_pattern_into(r.key, nonce_at(k, w), &mut want);
                bytes_equal(value, &want)
            })
        };
        match r.op {
            KvOp::Get | KvOp::GetMiss => {
                out.gets += 1;
                out.per_op[0].record(lat);
                match decode_error(head) {
                    Some(code) => {
                        if r.op == KvOp::GetMiss && code == ERR_NOT_FOUND {
                            out.misses += 1;
                        } else {
                            out.verify_failures += 1;
                        }
                    }
                    None => {
                        // Hit: header is the version the kernel read; the
                        // value may be newer if a PUT raced the value DMA,
                        // but never older and never torn.
                        run.read_slot(i, 8, &mut value);
                        if !(r.op == KvOp::Get && held(head..=fin, &value)) {
                            out.verify_failures += 1;
                        }
                    }
                }
            }
            KvOp::Put | KvOp::Insert => {
                out.puts += 1;
                out.per_op[1].record(lat);
            }
            KvOp::Traversal => {
                out.traversals += 1;
                out.per_op[2].record(lat);
                run.read_slot(i, 0, &mut value);
                if !held(0..=fin, &value) {
                    out.verify_failures += 1;
                }
            }
        }
        fp.word(r.op as u64).word(r.key).word(lat).word(head);
    }
    out.fingerprint = fp.value();
    out
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
        // RC delivers every response, payloads verify, every acked PUT
        // commits exactly once, the arena fits the schedule, no QP dies.
        assert_eq!(o.violations(), 0, "audit violated: {o:?}");
        assert_eq!(o.completed, o.gets + o.puts + o.traversals);
    }

    /// A finished run made of plain data: each request's landing time
    /// and slot bytes, and each key's committed version.
    struct Fake {
        landed: Vec<Option<Time>>,
        slots: Vec<Vec<u8>>,
        committed: Vec<(u64, u64)>,
    }

    impl FinishedRun for Fake {
        fn landed(&self, i: usize) -> Option<Time> {
            self.landed[i]
        }

        fn read_slot(&mut self, i: usize, offset: u64, buf: &mut [u8]) {
            let at = offset as usize;
            buf.copy_from_slice(&self.slots[i][at..at + buf.len()]);
        }

        fn committed(&mut self, key: u64) -> Option<u64> {
            self.committed.iter().find(|c| c.0 == key).map(|c| c.1)
        }
    }

    const VALUE: u32 = 16;

    /// Audits `requests`, each given as (op, key, nonce, slot word, value)
    /// and landed 1 µs after it was due, against the committed versions.
    /// A traversal's slot is its value alone.
    fn audit_of(requests: &[(KvOp, u64, u64, u64, Vec<u8>)], committed: &[(u64, u64)]) -> Audit {
        let schedule: Vec<Request> = (requests.iter().enumerate())
            .map(|(i, &(op, key, nonce, ..))| Request {
                at: i as Time * NANOS,
                client: 0,
                server: 0,
                op,
                key,
                nonce,
            })
            .collect();
        let slots = (requests.iter())
            .map(|(op, _, _, word, value)| match op {
                KvOp::Traversal => value.clone(),
                _ => [&word.to_le_bytes()[..], value].concat(),
            })
            .collect();
        let mut run = Fake {
            landed: schedule
                .iter()
                .map(|r| Some(r.at + 1_000 * NANOS))
                .collect(),
            slots,
            committed: committed.to_vec(),
        };
        let keys = KeyIndex {
            preloaded: 8,
            inserts: 0,
        };
        audit(&schedule, VALUE, keys, 0, &mut run)
    }

    fn at(key: u64, nonce: u64) -> Vec<u8> {
        versioned_value_pattern(key, nonce, VALUE)
    }

    fn verdict(a: &Audit) -> (u64, u64, u64) {
        (a.dup_puts, a.lost_puts, a.verify_failures)
    }

    /// Two PUTs of key 1 (nonces 1 and 2) both committed, so the server
    /// holds version 2; a GET that read version 1, and a traversal of a
    /// key never updated: a clean ladder.
    fn clean() -> Vec<(KvOp, u64, u64, u64, Vec<u8>)> {
        vec![
            (KvOp::Put, 1, 1, 1, Vec::new()),
            (KvOp::Put, 1, 2, 2, Vec::new()),
            (KvOp::Get, 1, 0, 1, at(1, 1)),
            (KvOp::Traversal, 3, 0, 0, at(3, 0)),
        ]
    }

    #[test]
    #[should_panic(expected = "= 1024 QPs, but the NIC's QP table (num_qps = 500)")]
    fn a_tier_past_the_qp_table_is_refused_up_front() {
        KvSpec::new(32, 32, 3_000 * NANOS, 7).testbed();
    }

    /// Every event the testbed dispatches on a small fixed run, by kind.
    /// The counts are a property of the model: work on the event engine,
    /// the switch or the frame path may make an event cheaper, but a
    /// change that adds, removes or re-kinds one changes the model and
    /// must re-pin these on purpose.
    #[test]
    fn dispatched_event_counts_by_kind_are_pinned() {
        let counts = |cc: bool| {
            let mut spec = small(7);
            spec.cc = cc;
            let mut tb = spec.testbed();
            assert_clean(&spec.drive(&mut tb));
            (crate::EVENT_KINDS.into_iter())
                .zip(tb.dispatched_by_kind())
                .collect::<Vec<_>>()
        };
        let want = |pacer_ticks: u64| {
            vec![
                ("cmd_arrive", 160),
                ("frame_arrive", 862),
                ("dma_write_done", 320),
                ("kernel_dma_read_done", 318),
                ("retransmit_check", 20),
                ("pacer_tick", pacer_ticks),
                ("arp_arrive", 24),
                ("switch_tick", 862),
            ]
        };
        assert_eq!(counts(false), want(0));
        // With DCQCN on, the pacer's ticks join the count.
        assert_eq!(counts(true), want(431));
    }

    #[test]
    fn audit_passes_a_clean_ladder() {
        let a = audit_of(&clean(), &[(1, 2)]);
        assert_eq!(verdict(&a), (0, 0, 0));
        assert_eq!((a.completed, a.gets, a.puts, a.traversals), (4, 1, 2, 1));
        assert_eq!(a.last_response, 3 * NANOS + 1_000 * NANOS);
    }

    #[test]
    fn audit_counts_a_duplicated_ack() {
        let mut requests = clean();
        requests[1].3 = 1; // Both PUTs acked version 1.
        let a = audit_of(&requests, &[(1, 2)]);
        assert_eq!(verdict(&a), (1, 0, 0));
    }

    #[test]
    fn audit_counts_a_version_gap() {
        let mut requests = clean();
        requests[1].3 = 3; // Acked versions 1 and 3: version 2 is missing.
        let a = audit_of(&requests, &[(1, 2)]);
        assert_eq!(verdict(&a), (0, 1, 0));
    }

    #[test]
    fn audit_counts_a_torn_value() {
        let mut requests = clean();
        // Half of version 1's payload over half of the preload.
        let (new, old) = (at(1, 1), at(1, 0));
        requests[2].4 = [&new[..8], &old[8..]].concat();
        let a = audit_of(&requests, &[(1, 2)]);
        assert_eq!(verdict(&a), (0, 0, 1));
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
