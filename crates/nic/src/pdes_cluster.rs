//! The N-node cluster expressed as PDES partitions: the parallel
//! counterpart of [`ClusterTestbed`](crate::ClusterTestbed).
//!
//! The full testbed cannot run under the parallel engine bit-identically
//! — it threads one global RNG, one trace ring, one pcap stream, and one
//! frame pool through every node, so any partitioning would reorder
//! those shared draws. This module instead models the cluster's
//! *dataplane shape* as true partitions: one per node (its generator,
//! its RNG, its TX serializer, its ICRC work) and one for the switch
//! (per-egress serializers, tail-drop bound, store-and-forward latency).
//! Per-event CPU cost is real — every frame's payload is materialized
//! and ICRC'd with the same `strom_wire::icrc` used on the wire path —
//! so parallel speedups measured here transfer to the full testbed once
//! its shared-state seams (audited by
//! [`ClusterTestbed::enable_lookahead_audit`](crate::ClusterTestbed::enable_lookahead_audit))
//! are split the same way.
//!
//! The physical lookahead is the cable propagation delay: every
//! node↔switch hop adds `propagation` on top of its serialization time,
//! so no cross-partition event can land sooner than `propagation` after
//! its send — the conservative-window premise, enforced at every send
//! by the engine's [`Outbox`].

use strom_sim::arrivals::ZipfSampler;
use strom_sim::pdes::{Outbox, Partition, PartitionId, PdesEngine, PdesReport};
use strom_sim::time::{Time, TimeDelta, NANOS};
use strom_sim::{Bandwidth, LinkSerializer, SimRng};
use strom_telemetry::{Fingerprint, PdesCounters};
use strom_wire::icrc::icrc;

use crate::event::NodeId;

/// Workload and fabric geometry for one PDES cluster run.
#[derive(Debug, Clone)]
pub struct PdesClusterParams {
    /// Number of nodes (the switch is one extra partition).
    pub nodes: usize,
    /// Master seed; each partition derives an independent stream.
    pub seed: u64,
    /// Requests every node issues before going quiet.
    pub requests_per_node: u32,
    /// Payload size range (bytes), inclusive.
    pub payload: (u32, u32),
    /// Link bandwidth (node↔switch, both directions).
    pub bandwidth_gbps: f64,
    /// Cable propagation delay — the engine's lookahead.
    pub propagation: TimeDelta,
    /// Switch store-and-forward latency per frame.
    pub switch_latency: TimeDelta,
    /// Tail-drop bound: a frame is dropped when its egress serializer
    /// is backlogged further than this into the future.
    pub egress_backlog_cap: TimeDelta,
    /// Mean gap between a node's request generations.
    pub gen_gap: TimeDelta,
    /// KV flavor: requests become Zipf-keyed GET/PUTs against per-node
    /// version maps instead of echo round trips (`None` keeps the
    /// original workload — and the original digests — unchanged).
    pub kv: Option<KvPdesWorkload>,
}

/// The KV-flavored PDES workload: every key has a *home* partition
/// (`key % nodes`) holding its version counter; a PUT bumps it, a GET
/// reads it, and each observed `(key, version)` pair folds into the
/// run digest — so the parallel engine must reproduce the *KV effect
/// order* bit-exactly, not just the frame counts.
#[derive(Debug, Clone)]
pub struct KvPdesWorkload {
    /// Key-space size.
    pub keys: u64,
    /// Zipf skew of key popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Percent of requests that are PUTs.
    pub put_pct: u8,
}

impl Default for PdesClusterParams {
    fn default() -> Self {
        Self {
            nodes: 8,
            seed: 0x57_0A11_C1C5,
            requests_per_node: 200,
            payload: (64, 1024),
            bandwidth_gbps: 10.0,
            propagation: 50 * NANOS,
            switch_latency: 120 * NANOS,
            egress_backlog_cap: 40_000 * NANOS,
            gen_gap: 800 * NANOS,
            kv: None,
        }
    }
}

/// Per-frame Ethernet-ish framing overhead (headers + preamble + IFG).
const FRAME_OVERHEAD: u64 = 64;

/// A frame crossing the PDES fabric.
#[derive(Debug, Clone)]
pub struct FrameMsg {
    /// Originating node.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// `true` for a response, `false` for a request.
    pub is_response: bool,
    /// When the originating request was generated (for RTT accounting).
    pub sent_at: Time,
    /// The payload bytes (materialized: ICRC is computed over them at
    /// both ends, so per-event CPU work matches the real wire path).
    pub payload: Vec<u8>,
    /// ICRC over the payload, checked at the receiver.
    pub crc: u32,
}

/// Writes the 17-byte KV op header over the front of a payload
/// (resizing up if the random length came out shorter).
fn encode_kv(payload: &mut Vec<u8>, put: bool, key: u64, version: u64) {
    if payload.len() < 17 {
        payload.resize(17, 0);
    }
    payload[0] = u8::from(put);
    payload[1..9].copy_from_slice(&key.to_le_bytes());
    payload[9..17].copy_from_slice(&version.to_le_bytes());
}

/// Reads the KV op header back: `(put, key, version)`.
fn decode_kv(payload: &[u8]) -> (bool, u64, u64) {
    (
        payload[0] != 0,
        u64::from_le_bytes(payload[1..9].try_into().expect("sized")),
        u64::from_le_bytes(payload[9..17].try_into().expect("sized")),
    )
}

/// Events exchanged between cluster partitions.
#[derive(Debug)]
pub enum ClusterEvent {
    /// Node-local generator tick: produce the next request.
    Gen,
    /// A frame arriving at the switch (from a node) or at a node (from
    /// the switch).
    Frame(FrameMsg),
}

/// One PDES partition: node `id < nodes`, or the switch (`id == nodes`).
pub struct ClusterPart {
    id: PartitionId,
    params: PdesClusterParams,
    rng: SimRng,
    /// Node: its TX serializer. Switch: unused (see `egress`).
    tx: LinkSerializer,
    /// Switch only: per-destination egress serializers.
    egress: Vec<LinkSerializer>,
    /// Requests generated so far (node only).
    generated: u32,
    /// Sum of request→response round-trip times (node only).
    pub rtt_sum: u64,
    /// This partition's counter block.
    pub counters: PdesCounters,
    /// KV mode: the Zipf popularity sampler (node only).
    zipf: Option<ZipfSampler>,
    /// KV mode: version counter of every key homed here.
    kv_versions: std::collections::BTreeMap<u64, u64>,
    /// KV mode: FNV fold of every `(key, version)` this node observed —
    /// locally applied or received in a response.
    pub kv_digest: u64,
}

impl ClusterPart {
    fn switch_id(&self) -> PartitionId {
        self.params.nodes
    }

    fn is_switch(&self) -> bool {
        self.id == self.switch_id()
    }

    /// Builds a payload of pseudo-random bytes and its ICRC — the real
    /// CPU work of the TX path.
    fn make_payload(&mut self) -> (Vec<u8>, u32) {
        let (lo, hi) = self.params.payload;
        let len = self.rng.range(lo as u64, hi as u64 + 1) as usize;
        let mut payload = vec![0u8; len];
        self.rng.fill_bytes(&mut payload);
        let crc = icrc(&payload);
        (payload, crc)
    }

    /// Serializes a frame onto this node's TX link and forwards it to
    /// the switch partition. The send delay is serialization + cable
    /// propagation, so it always clears the engine's lookahead.
    fn send_frame(&mut self, out: &mut Outbox<'_, ClusterEvent>, msg: FrameMsg) {
        let bytes = msg.payload.len() as u64 + FRAME_OVERHEAD;
        let (_, end) = self.tx.admit(out.now(), bytes);
        let delay = (end - out.now()) + self.params.propagation;
        self.counters.frames_out += 1;
        self.counters.bytes_tx += msg.payload.len() as u64;
        let switch = self.switch_id();
        out.send(switch, delay, ClusterEvent::Frame(msg));
    }

    /// Applies one KV op to a key homed on this partition; returns the
    /// version the op observed (PUT: the bumped one).
    fn apply_kv(&mut self, put: bool, key: u64) -> u64 {
        let v = self.kv_versions.entry(key).or_insert(0);
        if put {
            *v += 1;
        }
        *v
    }

    /// Folds an observed `(key, version)` pair into this node's digest.
    fn fold_kv(&mut self, key: u64, version: u64) {
        // Each pair re-keys the fold with the running digest (pinned by
        // the PDES goldens).
        self.kv_digest = Fingerprint::resume(self.kv_digest ^ Fingerprint::new().value())
            .word(key)
            .word(version)
            .value();
    }

    fn on_gen(&mut self, out: &mut Outbox<'_, ClusterEvent>) {
        if self.generated >= self.params.requests_per_node {
            return;
        }
        self.generated += 1;
        if let Some(wl) = self.params.kv.clone() {
            // KV mode: Zipf-pick a key, route the op to its home node
            // (applied locally when the key lives here).
            let key = self
                .zipf
                .as_ref()
                .expect("kv sampler")
                .sample(&mut self.rng)
                + 1;
            let put = (self.rng.below(100) as u8) < wl.put_pct;
            let home = (key % self.params.nodes as u64) as usize;
            if home == self.id {
                let v = self.apply_kv(put, key);
                self.fold_kv(key, v);
            } else {
                let (mut payload, _) = self.make_payload();
                encode_kv(&mut payload, put, key, 0);
                let crc = icrc(&payload);
                let msg = FrameMsg {
                    src: self.id,
                    dst: home,
                    is_response: false,
                    sent_at: out.now(),
                    payload,
                    crc,
                };
                self.send_frame(out, msg);
            }
        } else {
            let (payload, crc) = self.make_payload();
            // Pick any peer but ourselves.
            let mut dst = self.rng.below(self.params.nodes as u64 - 1) as usize;
            if dst >= self.id {
                dst += 1;
            }
            let msg = FrameMsg {
                src: self.id,
                dst,
                is_response: false,
                sent_at: out.now(),
                payload,
                crc,
            };
            self.send_frame(out, msg);
        }
        if self.generated < self.params.requests_per_node {
            let gap = 1 + self.rng.below(2 * self.params.gen_gap);
            out.send(self.id, gap, ClusterEvent::Gen);
        }
    }

    /// Switch: store-and-forward a frame toward its destination node,
    /// or tail-drop it when the egress queue is over the cap.
    fn on_switch_frame(&mut self, out: &mut Outbox<'_, ClusterEvent>, msg: FrameMsg) {
        self.counters.frames_in += 1;
        let now = out.now();
        let port = msg.dst;
        let backlog = self.egress[port].busy_until().saturating_sub(now);
        if backlog > self.params.egress_backlog_cap {
            self.counters.drops += 1;
            return;
        }
        let bytes = msg.payload.len() as u64 + FRAME_OVERHEAD;
        let admit_at = now + self.params.switch_latency;
        let (_, end) = self.egress[port].admit(admit_at, bytes);
        let delay = (end - now) + self.params.propagation;
        self.counters.frames_out += 1;
        self.counters.bytes_tx += msg.payload.len() as u64;
        out.send(port, delay, ClusterEvent::Frame(msg));
    }

    /// Node: receive a frame from the switch — verify its ICRC (real RX
    /// work), answer requests, account responses.
    fn on_node_frame(&mut self, out: &mut Outbox<'_, ClusterEvent>, msg: FrameMsg) {
        self.counters.frames_in += 1;
        assert_eq!(
            icrc(&msg.payload),
            msg.crc,
            "ICRC mismatch on an uncorrupted fabric"
        );
        if msg.is_response {
            self.counters.responses += 1;
            self.rtt_sum += out.now() - msg.sent_at;
            if self.params.kv.is_some() {
                let (_, key, version) = decode_kv(&msg.payload);
                self.fold_kv(key, version);
            }
            return;
        }
        if self.params.kv.is_some() {
            // KV request for a key homed here: apply, answer with the
            // observed version.
            let (put, key, _) = decode_kv(&msg.payload);
            let version = self.apply_kv(put, key);
            let (mut payload, _) = self.make_payload();
            encode_kv(&mut payload, put, key, version);
            let crc = icrc(&payload);
            let reply = FrameMsg {
                src: self.id,
                dst: msg.src,
                is_response: true,
                sent_at: msg.sent_at,
                payload,
                crc,
            };
            self.send_frame(out, reply);
            return;
        }
        let (payload, crc) = self.make_payload();
        let reply = FrameMsg {
            src: self.id,
            dst: msg.src,
            is_response: true,
            sent_at: msg.sent_at,
            payload,
            crc,
        };
        self.send_frame(out, reply);
    }
}

impl Partition for ClusterPart {
    type Event = ClusterEvent;

    fn init(&mut self, out: &mut Outbox<'_, ClusterEvent>) {
        if !self.is_switch() && self.params.requests_per_node > 0 {
            out.send(
                self.id,
                1 + self.rng.below(self.params.gen_gap),
                ClusterEvent::Gen,
            );
        }
    }

    fn handle(&mut self, event: ClusterEvent, out: &mut Outbox<'_, ClusterEvent>) {
        self.counters.dispatched += 1;
        match event {
            ClusterEvent::Gen => self.on_gen(out),
            ClusterEvent::Frame(msg) => {
                if self.is_switch() {
                    self.on_switch_frame(out, msg);
                } else {
                    self.on_node_frame(out, msg);
                }
            }
        }
    }
}

/// What a PDES cluster run produced: the engine report plus the merged
/// model counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPdesReport {
    /// The engine-level report (events, windows, fingerprints, log).
    pub pdes: PdesReport,
    /// Per-partition counter blocks (nodes 0..n, switch last).
    pub partition_counters: Vec<PdesCounters>,
    /// The merged cluster total.
    pub total: PdesCounters,
    /// Sum of request→response RTTs across all nodes (picoseconds).
    pub rtt_sum: u64,
    /// Fold of every `(key, version)` observation across all nodes
    /// (0 when the KV workload is off).
    pub kv_digest: u64,
    /// One combined digest over fingerprints and counters — the value
    /// the cross-engine equivalence tests and the golden file pin.
    pub digest: u64,
}

fn finish(pdes: PdesReport, parts: Vec<ClusterPart>) -> ClusterPdesReport {
    let partition_counters: Vec<PdesCounters> = parts.iter().map(|p| p.counters).collect();
    let mut total = PdesCounters::default();
    for c in &partition_counters {
        total.merge(c);
    }
    let rtt_sum = parts.iter().map(|p| p.rtt_sum).sum();
    let mut kv_digest = Fingerprint::resume(0);
    for p in &parts {
        kv_digest.mix(p.kv_digest);
    }
    let kv_digest = kv_digest.value();
    let mut digest = Fingerprint::resume(pdes.fingerprint);
    for c in &partition_counters {
        digest.mix(c.fingerprint());
    }
    let digest = digest.value() ^ rtt_sum ^ kv_digest;
    ClusterPdesReport {
        pdes,
        partition_counters,
        total,
        rtt_sum,
        kv_digest,
        digest,
    }
}

/// Builds the engine for one run: `nodes` node partitions plus the
/// switch, lookahead = propagation.
pub fn build_pdes_cluster(params: &PdesClusterParams) -> PdesEngine<ClusterPart> {
    assert!(params.nodes >= 2, "a cluster needs at least two nodes");
    let n = params.nodes;
    let bw = Bandwidth::gbit_per_sec(params.bandwidth_gbps);
    let parts = (0..=n)
        .map(|id| ClusterPart {
            id,
            params: params.clone(),
            rng: SimRng::seed(params.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            tx: LinkSerializer::new(bw),
            egress: if id == n {
                (0..n).map(|_| LinkSerializer::new(bw)).collect()
            } else {
                Vec::new()
            },
            generated: 0,
            rtt_sum: 0,
            counters: PdesCounters::default(),
            zipf: params
                .kv
                .as_ref()
                .map(|w| ZipfSampler::new(w.keys, w.zipf_theta)),
            kv_versions: Default::default(),
            kv_digest: 0,
        })
        .collect();
    PdesEngine::new(parts, params.propagation)
}

/// Runs the cluster model on the windowed engine with `workers` threads.
pub fn run_pdes_cluster(params: &PdesClusterParams, workers: usize) -> ClusterPdesReport {
    let (report, parts) = build_pdes_cluster(params).run(workers);
    finish(report, parts)
}

/// Runs the cluster model on the sequential global-heap reference.
pub fn run_pdes_cluster_reference(params: &PdesClusterParams) -> ClusterPdesReport {
    let (report, parts) = build_pdes_cluster(params).run_reference();
    finish(report, parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_gets_a_response_when_nothing_drops() {
        let params = PdesClusterParams {
            nodes: 4,
            requests_per_node: 50,
            // Effectively unbounded egress queue: nothing drops.
            egress_backlog_cap: u64::MAX / 2,
            ..Default::default()
        };
        let report = run_pdes_cluster(&params, 1);
        assert_eq!(report.total.drops, 0);
        assert_eq!(report.total.responses, 4 * 50);
        assert!(report.rtt_sum > 0);
    }

    #[test]
    fn reference_and_windowed_agree_on_a_small_run() {
        let params = PdesClusterParams {
            nodes: 3,
            requests_per_node: 30,
            ..Default::default()
        };
        let a = run_pdes_cluster_reference(&params);
        let b = run_pdes_cluster(&params, 1);
        let c = run_pdes_cluster(&params, 3);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, c.digest);
        assert_eq!(a.partition_counters, c.partition_counters);
        assert_eq!(a.pdes.events, c.pdes.events);
    }

    #[test]
    fn kv_workload_digest_agrees_across_engines() {
        // The KV serving smoke: Zipf-keyed GET/PUTs against per-node
        // version maps. The digest folds every observed (key, version)
        // pair, so engine equality means the *order of KV effects* —
        // not just message counts — is bit-identical in parallel.
        let params = PdesClusterParams {
            nodes: 5,
            requests_per_node: 80,
            kv: Some(KvPdesWorkload {
                keys: 64,
                zipf_theta: 0.99,
                put_pct: 30,
            }),
            ..Default::default()
        };
        let reference = run_pdes_cluster_reference(&params);
        let seq = run_pdes_cluster(&params, 1);
        let par = run_pdes_cluster(&params, 4);
        assert_ne!(reference.kv_digest, 0, "KV ops must have been applied");
        assert_eq!(reference.digest, seq.digest);
        assert_eq!(reference.digest, par.digest);
        assert_eq!(reference.kv_digest, par.kv_digest);
        assert_eq!(reference.partition_counters, par.partition_counters);
    }

    #[test]
    fn kv_workload_changes_the_digest_but_not_the_default_path() {
        // Golden-file safety: `kv: None` must keep producing the exact
        // pre-KV schedule (same RNG draw order), while enabling KV
        // explores a different one.
        let base = PdesClusterParams {
            nodes: 3,
            requests_per_node: 40,
            ..Default::default()
        };
        let kv = PdesClusterParams {
            kv: Some(KvPdesWorkload {
                keys: 32,
                zipf_theta: 0.8,
                put_pct: 50,
            }),
            ..base.clone()
        };
        let plain = run_pdes_cluster(&base, 2);
        assert_eq!(plain.kv_digest, 0, "no KV ops on the default path");
        let kvr = run_pdes_cluster(&kv, 2);
        assert_ne!(plain.digest, kvr.digest);
    }

    #[test]
    fn congested_egress_tail_drops_deterministically() {
        let params = PdesClusterParams {
            nodes: 6,
            requests_per_node: 150,
            // All nodes hammer a tiny egress budget.
            egress_backlog_cap: 2_000,
            gen_gap: 100,
            ..Default::default()
        };
        let a = run_pdes_cluster(&params, 1);
        let b = run_pdes_cluster(&params, 4);
        assert!(a.total.drops > 0, "cap too loose to exercise tail-drop");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.total.drops, b.total.drops);
    }
}
