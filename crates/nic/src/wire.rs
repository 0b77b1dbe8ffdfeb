//! The wire: everything between two NICs.
//!
//! A [`Wire`] owns the transmit-link serializers, the fault models with
//! their per-direction state and every RNG draw they make, the pcap
//! writer, the per-receiver FIFO clamp, the fault counters kept on the
//! receiving side, and the medium itself — a cable
//! for the two-node [`crate::ClusterTestbed::new`], a store-and-forward
//! switch ([`strom_sim::Switch`]) for [`crate::ClusterTestbed::switched`].
//! A NIC hands it a frame; what comes out the far end is a
//! [`NicEvent::FrameArrive`] on the receiver, at least one cable
//! propagation delay later. It knows nodes only as port numbers.
//!
//! Each frame was built once by its NIC
//! ([`strom_wire::packet::Packet::build`]) into the one [`Bytes`] it
//! travels in. The wire carries that buffer and applies the faults to
//! it: a bit flip or a CE mark edits it in place when the wire holds its
//! only handle and copies it first otherwise, so no other holder (a send
//! kernel that kept the payload) sees the edit. The receiver parses it
//! without copying, and the buffer is freed with the last slice of it.
//! Frames are not pooled: plain allocation measured as fast as a
//! free-list of returned frames (DESIGN.md §10).

use bytes::Bytes;

use strom_sim::switch::{Delivery, EcnConfig, Switch, SwitchConfig, SwitchPortCounters, TailDrop};
use strom_sim::time::{Time, TimeDelta};
use strom_sim::{Bandwidth, LinkSerializer, SimRng};
use strom_telemetry::{
    Counter, DropReason, Gauge, MetricsRegistry, TraceEvent, TraceSink, WireCounters,
};
use strom_wire::pcap::PcapWriter;

use crate::config::NicConfig;
use crate::event::{Event, NicEvent, NodeId, Scheduler};
use crate::fault::{self, LinkFaultModel, LinkFaultState};

/// Geometry and timing of the cluster switch, the knobs
/// [`crate::ClusterTestbed::switched`] takes on top of the per-NIC
/// [`NicConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchParams {
    /// Egress serialization rate per switch port; `None` uses the NIC
    /// link rate from the [`NicConfig`] (a non-blocking switch).
    pub port_rate: Option<Bandwidth>,
    /// Store-and-forward switching latency per frame.
    pub latency: TimeDelta,
    /// Egress queue bound per port, in frames; the switch tail-drops
    /// beyond it.
    pub egress_capacity: usize,
    /// ECN marking policy for the egress queues; `None` disables marking
    /// (the pre-CC switch, bit-identical behaviour).
    pub ecn: Option<EcnConfig>,
}

impl Default for SwitchParams {
    /// A shallow-buffered top-of-rack switch: 500 ns switching latency,
    /// line-rate ports, 64-frame egress queues, no ECN marking.
    fn default() -> Self {
        SwitchParams {
            port_rate: None,
            latency: 500 * strom_sim::time::NANOS,
            egress_capacity: 64,
            ecn: None,
        }
    }
}

/// A frame in flight: the encoded bytes plus the fault-model decisions
/// already drawn at transmit time (the RNG draw order must not depend on
/// switch queueing), applied when it is delivered.
struct InFlight {
    frame: Bytes,
    /// Reorder jitter, if the frame is to be held back.
    jitter: Option<TimeDelta>,
    /// Whether the frame is delivered twice.
    dup: bool,
}

/// Per-egress-port metrics mirrors into the shared registry, brought up
/// to the switch's own [`SwitchPortCounters`] when the registry is read
/// ([`Wire::publish_switch_metrics`]) rather than on every grant.
struct PortMetrics {
    frames_out: Counter,
    tail_drops: Counter,
    ecn_marked: Counter,
    queue_peak: Gauge,
}

/// The cluster switch plus its wire-side plumbing.
struct SwitchState {
    model: Switch<InFlight>,
    /// Reusable arbitration output buffers (zero steady-state allocation).
    deliveries: Vec<Delivery<InFlight>>,
    drops: Vec<TailDrop<InFlight>>,
    /// Per-egress-port metrics mirrors, published on read.
    port_metrics: Vec<PortMetrics>,
}

/// What the fault models did to frames headed for one node. Counted
/// here, where the decision is drawn, and read through the receiver's
/// status registers.
#[derive(Debug, Clone, Copy, Default)]
struct RxFaults {
    lost: u64,
    reordered: u64,
    duplicated: u64,
}

/// The network between the NICs.
pub(crate) struct Wire {
    /// Egress serializers: `links[n]` is node n's transmit direction.
    links: Vec<LinkSerializer>,
    rng: SimRng,
    /// Per-directed-pair fault-model state: `fault_state[src * n + dst]`
    /// is the Gilbert–Elliott chain for frames sent by `src` to `dst`.
    fault_state: Vec<LinkFaultState>,
    /// Per-destination-port fault-model overrides (`None` = the global
    /// model in `cfg.fault`); lets a chaos run degrade one switch port
    /// while the others stay healthy.
    port_fault: Vec<Option<LinkFaultModel>>,
    rx_faults: Vec<RxFaults>,
    /// Latest scheduled frame arrival per receiving node. The RX path is
    /// a FIFO: a short packet's smaller store-and-forward delay must not
    /// let it overtake an earlier, larger packet on the same wire.
    last_arrival: Vec<Time>,
    /// Wire capture (disabled until [`Wire::enable_capture`]).
    capture: Option<PcapWriter>,
    /// Where injected losses and tail drops are traced.
    trace: TraceSink,
    /// The cluster switch, absent in transparent (point-to-point) mode.
    /// Boxed so a tick can take it out while it reaches the other fields.
    switch: Option<Box<SwitchState>>,
}

impl Wire {
    pub(crate) fn new(
        cfg: &NicConfig,
        n: usize,
        switch: Option<SwitchParams>,
        metrics: &MetricsRegistry,
    ) -> Self {
        let switch = switch.map(|params| {
            Box::new(SwitchState {
                model: Switch::new(SwitchConfig {
                    ports: n,
                    port_rate: params.port_rate.unwrap_or(cfg.link_bandwidth),
                    latency: params.latency,
                    egress_capacity: params.egress_capacity,
                    ecn: params.ecn,
                }),
                deliveries: Vec::new(),
                drops: Vec::new(),
                port_metrics: (0..n)
                    .map(|p| PortMetrics {
                        frames_out: metrics.counter(&format!("switch.port{p}.frames_out")),
                        tail_drops: metrics.counter(&format!("switch.port{p}.tail_drops")),
                        ecn_marked: metrics.counter(&format!("switch.port{p}.ecn_marked")),
                        queue_peak: metrics.gauge(&format!("switch.port{p}.queue_peak")),
                    })
                    .collect(),
            })
        });
        Wire {
            links: (0..n)
                .map(|_| LinkSerializer::new(cfg.link_bandwidth))
                .collect(),
            rng: SimRng::seed(cfg.seed),
            fault_state: vec![LinkFaultState::default(); n * n],
            port_fault: vec![None; n],
            rx_faults: vec![RxFaults::default(); n],
            last_arrival: vec![0; n],
            capture: None,
            trace: TraceSink::default(),
            switch,
        }
    }

    pub(crate) fn set_trace(&mut self, sink: &TraceSink) {
        self.trace = sink.clone();
    }

    /// Starts capturing every RoCE frame that reaches the wire.
    pub(crate) fn enable_capture(&mut self) {
        self.capture = Some(PcapWriter::new());
    }

    pub(crate) fn pcap_bytes(&self) -> Option<&[u8]> {
        self.capture.as_ref().map(|c| c.as_bytes())
    }

    pub(crate) fn switch_counters(&self, port: usize) -> Option<SwitchPortCounters> {
        self.switch.as_ref().map(|s| s.model.counters(port))
    }

    /// Brings the registry's per-port switch mirrors up to the switch's
    /// counters. The counters only grow, so each mirror adds what it is
    /// behind by; the gauge takes the high watermark as it stands.
    pub(crate) fn publish_switch_metrics(&self) {
        let Some(sw) = &self.switch else {
            return;
        };
        for (port, pm) in sw.port_metrics.iter().enumerate() {
            let c = sw.model.counters(port);
            for (mirror, count) in [
                (&pm.frames_out, c.frames_out),
                (&pm.tail_drops, c.tail_drops),
                (&pm.ecn_marked, c.ecn_marked),
            ] {
                mirror.add(count - mirror.get());
            }
            pm.queue_peak.set(c.queue_peak);
        }
    }

    pub(crate) fn switch_tail_drops(&self) -> u64 {
        self.switch
            .as_ref()
            .map_or(0, |s| s.model.total_tail_drops())
    }

    /// Forgets every per-port override and restarts every direction's
    /// loss chain (the global model itself lives in `cfg.fault`).
    pub(crate) fn reset_faults(&mut self) {
        self.fault_state.fill(LinkFaultState::default());
        self.port_fault.fill(None);
    }

    /// Overrides the fault model for all traffic toward `dst` and
    /// restarts the loss chains of the directed pairs that end there.
    pub(crate) fn set_port_fault_model(&mut self, dst: NodeId, model: LinkFaultModel) {
        let n = self.links.len();
        assert!(dst < n, "port out of range");
        self.port_fault[dst] = Some(model);
        for src in 0..n {
            self.fault_state[src * n + dst] = LinkFaultState::default();
        }
    }

    /// Writes what the fault models did to frames headed for `node` into
    /// that node's counter block.
    pub(crate) fn rx_faults_into(&self, node: NodeId, counters: &mut WireCounters) {
        let f = self.rx_faults[node];
        counters.frames_lost = f.lost;
        counters.frames_reordered = f.reordered;
        counters.frames_duplicated = f.duplicated;
    }

    /// Occupies `src`'s transmit link with `wire_bytes` from `tx_ready`;
    /// returns when the last bit has left the NIC.
    pub(crate) fn serialize(&mut self, src: NodeId, tx_ready: Time, wire_bytes: u64) -> Time {
        self.links[src].admit(tx_ready, wire_bytes).1
    }

    /// When `src`'s transmit link drains everything queued on it so far.
    pub(crate) fn tx_busy_until(&self, src: NodeId) -> Time {
        self.links[src].busy_until()
    }

    /// Carries a frame whose last bit left `src` at `wire_end` to `dst`:
    /// the fault pipeline, then the cable or the switch.
    ///
    /// Fault decisions come in wire order — loss, then (if the frame
    /// survives) corruption, reordering, duplication — from the one RNG
    /// in this fixed order, and always here at transmit time, never from
    /// inside the switch, so a chaos run replays exactly from (seed,
    /// fault model) regardless of switch queueing.
    pub(crate) fn carry(
        &mut self,
        src: NodeId,
        dst: NodeId,
        mut frame: Bytes,
        wire_end: Time,
        cfg: &NicConfig,
        sched: &mut Scheduler,
    ) {
        let fault = self.port_fault[dst].unwrap_or(cfg.fault);
        let state = &mut self.fault_state[src * self.links.len() + dst];
        if fault.should_drop(state, &mut self.rng) {
            self.rx_faults[dst].lost += 1;
            self.trace.emit(TraceEvent::PacketDrop {
                node: dst as u8,
                reason: DropReason::Loss,
            });
            return;
        }
        if fault.corrupt_rate > 0.0 && fault.should_corrupt(&mut self.rng) {
            // One bit flips in flight; the receiver's checksums must catch
            // it (frames_crc_dropped) unless it lands in the handful of
            // unprotected header bytes, where it is harmless.
            fault::flip_random_bit(edit(&mut frame), &mut self.rng);
        }
        if let Some(cap) = &mut self.capture {
            // Captured as it leaves the wire (post-corruption), stamped
            // with the serialization end time.
            cap.record(wire_end, &frame);
        }
        let jitter = if fault.reorder_rate > 0.0 {
            fault.reorder_delay(&mut self.rng)
        } else {
            None
        };
        if jitter.is_some() {
            self.rx_faults[dst].reordered += 1;
        }
        let dup = fault.duplicate_rate > 0.0 && fault.should_duplicate(&mut self.rng);
        if dup {
            self.rx_faults[dst].duplicated += 1;
        }
        let flight = InFlight { frame, jitter, dup };
        match &mut self.switch {
            None => self.deliver(dst, flight, wire_end, cfg, sched),
            Some(sw) => {
                // The frame reaches the switch after propagating from the
                // NIC; it leaves once it wins arbitration and serializes
                // on the egress port. Delivery continues in
                // `on_switch_tick`.
                let bytes = wire_bytes(&flight.frame);
                let received = wire_end + cfg.propagation;
                let eligible = sw.model.enqueue(src, dst, bytes, received, flight);
                sched.schedule(eligible, Event::SwitchTick);
            }
        }
    }

    /// Carries an ARP body from `src` to `dst`. ARP rides a bare
    /// minimum-size Ethernet frame below the RoCE datapath — no fault
    /// model, no capture, no ICRC to store-and-forward for — and is
    /// delivered point-to-point even in switched mode (bring-up is
    /// control-plane traffic; the switch model concerns itself with the
    /// RoCE frames the experiments measure).
    pub(crate) fn carry_arp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        body: Vec<u8>,
        tx_ready: Time,
        cfg: &NicConfig,
        sched: &mut Scheduler,
    ) {
        assert!(dst < self.links.len(), "ARP requester is a testbed node");
        let wire_bytes = strom_wire::ethernet::wire_bytes(body.len()) as u64;
        let wire_end = self.serialize(src, tx_ready, wire_bytes);
        let arrival = self.arrival(cfg, dst, wire_end, 0);
        self.last_arrival[dst] = arrival;
        let ev = NicEvent::ArpArrive { frame: body };
        sched.schedule(arrival, Event::Nic { node: dst, ev });
    }

    /// When a frame that left the last serializer before `dst` at `sent`
    /// is through `dst`'s RX path: the cable, the ICRC store-and-forward
    /// of its `ip_len` bytes, the RX pipeline — and never less than one
    /// cycle behind the frame ahead of it (the FIFO clamp).
    fn arrival(&self, cfg: &NicConfig, dst: NodeId, sent: Time, ip_len: usize) -> Time {
        (sent + cfg.propagation + cfg.store_and_forward_time(ip_len) + cfg.rx_pipeline_time())
            .max(self.last_arrival[dst] + cfg.clock.period_ps())
    }

    /// Schedules the arrival at `dst` of a frame that left the last
    /// serializer before it at `sent`, applying the transmit-time
    /// reorder/duplicate decisions.
    fn deliver(
        &mut self,
        dst: NodeId,
        flight: InFlight,
        sent: Time,
        cfg: &NicConfig,
        sched: &mut Scheduler,
    ) {
        let in_order = self.arrival(cfg, dst, sent, ip_len(&flight.frame));
        let arrival = match flight.jitter {
            // Held back by jitter — and deliberately NOT recorded in
            // last_arrival, so frames behind it overtake it (the FIFO
            // clamp is what normally forbids that).
            Some(jitter) => in_order + jitter,
            None => {
                self.last_arrival[dst] = in_order;
                in_order
            }
        };
        let frame = flight.frame;
        if flight.dup {
            let ev = NicEvent::FrameArrive {
                frame: frame.clone(),
            };
            sched.schedule(
                arrival + cfg.clock.period_ps(),
                Event::Nic { node: dst, ev },
            );
        }
        let ev = NicEvent::FrameArrive { frame };
        sched.schedule(arrival, Event::Nic { node: dst, ev });
    }

    /// Runs one switch arbitration pass: grants eligible ingress frames,
    /// emits tail-drops as traced packet drops (the retransmission
    /// machinery recovers them like any loss), and schedules granted
    /// frames' arrivals after egress serialization.
    pub(crate) fn on_switch_tick(&mut self, cfg: &NicConfig, sched: &mut Scheduler) {
        let Some(mut sw) = self.switch.take() else {
            return;
        };
        sw.model
            .arbitrate(sched.now(), &mut sw.deliveries, &mut sw.drops);
        for d in sw.drops.drain(..) {
            self.trace.emit(TraceEvent::PacketDrop {
                node: d.dst as u8,
                reason: DropReason::TailDrop,
            });
        }
        for d in sw.deliveries.drain(..) {
            let mut flight = d.payload;
            if d.marked {
                // The switch decided to CE-mark this frame: rewrite the
                // ECN field (and IPv4 checksum) in the egress buffer; the
                // ICRC stays valid because it covers BTH+payload only.
                let buf = edit(&mut flight.frame);
                strom_wire::mark_ce(&mut buf[strom_wire::ethernet::ETHERNET_HEADER_LEN..]);
            }
            self.deliver(d.dst, flight, d.egress_end, cfg, sched);
        }
        self.switch = Some(sw);
    }
}

/// The length of a frame's IP packet (IP header through ICRC): all of it
/// but the Ethernet header, as frames are built to their exact size.
fn ip_len(frame: &[u8]) -> usize {
    frame.len() - strom_wire::ethernet::ETHERNET_HEADER_LEN
}

/// What a link serializer charges for `frame`: its bytes plus framing,
/// FCS, padding, preamble and IPG.
pub(crate) fn wire_bytes(frame: &[u8]) -> u64 {
    strom_wire::ethernet::wire_bytes(ip_len(frame)) as u64
}

/// The bytes of `frame` to edit: in place when this is its only handle,
/// else in a private copy taken first, so no other holder sees the edit.
fn edit(frame: &mut Bytes) -> &mut [u8] {
    if frame.try_mut().is_none() {
        *frame = Bytes::copy_from_slice(frame);
    }
    frame.try_mut().expect("sole owner of a fresh copy")
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_sim::time::NANOS;
    use strom_wire::bth::Reth;
    use strom_wire::opcode::Opcode;
    use strom_wire::packet::Packet;

    /// A two-node cable and its scheduler.
    fn cable(cfg: &NicConfig) -> (Wire, Scheduler) {
        let wire = Wire::new(cfg, 2, None, &MetricsRegistry::default());
        (wire, Scheduler::new(2))
    }

    fn write_only(payload: usize) -> Packet {
        let reth = Reth {
            vaddr: 0x1000,
            rkey: 0,
            dma_len: payload as u32,
        };
        let data = Bytes::from(vec![0xAB; payload]);
        Packet::new(0, 1, Opcode::WriteOnly, 1, 7, Some(reth), None, data)
    }

    /// Carries `pkt`, encoded, from node 0 to node 1.
    fn carry(wire: &mut Wire, pkt: &Packet, sent: Time, cfg: &NicConfig, sched: &mut Scheduler) {
        wire.carry(0, 1, Bytes::from(pkt.encode()), sent, cfg, sched);
    }

    /// When `pkt`, off the sender's link at `sent`, reaches node 1 of an
    /// idle cable (nothing ahead of it to clamp against).
    fn nominal(cfg: &NicConfig, sent: Time, pkt: &Packet) -> Time {
        cable(cfg).0.arrival(cfg, 1, sent, pkt.ip_len())
    }

    /// Every frame the scheduler holds for node 1, in firing order.
    fn arrivals(sched: &mut Scheduler) -> Vec<(Time, Bytes)> {
        std::iter::from_fn(|| sched.queue.pop())
            .map(|s| match s.event {
                Event::Nic {
                    node: 1,
                    ev: NicEvent::FrameArrive { frame },
                } => (s.at, frame),
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    /// The fault pipeline draws loss, then corruption (and its bit),
    /// then reorder (and its jitter), then duplication — and nothing
    /// else — from the one RNG: a script replaying exactly those draws
    /// from the same seed predicts every frame and ends in step.
    #[test]
    fn fault_draws_come_in_wire_order_from_the_one_rng() {
        let mut cfg = NicConfig::ten_gig();
        cfg.seed = 0xD1CE;
        cfg.fault = LinkFaultModel {
            corrupt_rate: 0.4,
            reorder_rate: 0.4,
            reorder_jitter: 900 * NANOS,
            duplicate_rate: 0.4,
            ..LinkFaultModel::bernoulli(0.3)
        };
        let (mut wire, mut sched) = cable(&cfg);
        let mut script = SimRng::seed(cfg.seed);
        let pkt = write_only(64);
        let clean = pkt.encode();
        let (mut lost, mut reordered, mut duplicated) = (0, 0, 0);
        for i in 0..300u64 {
            // Far enough apart that the FIFO clamp never binds.
            let wire_end = i * 10_000 * NANOS;
            carry(&mut wire, &pkt, wire_end, &cfg, &mut sched);
            let got = arrivals(&mut sched);
            if script.chance(0.3) {
                lost += 1;
                assert!(got.is_empty(), "packet {i}: a lost frame arrived");
                continue;
            }
            let mut want = clean.clone();
            if script.chance(0.4) {
                let bit = script.below(want.len() as u64 * 8);
                want[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            let jitter = script.chance(0.4).then(|| script.range(1, 900 * NANOS + 1));
            reordered += u64::from(jitter.is_some());
            let dup = script.chance(0.4);
            duplicated += u64::from(dup);
            let at = nominal(&cfg, wire_end, &pkt) + jitter.unwrap_or(0);
            let mut times = vec![at];
            times.extend(dup.then_some(at + cfg.clock.period_ps()));
            assert_eq!(got.len(), times.len(), "packet {i}: copies delivered");
            for ((t, frame), want_t) in got.iter().zip(times) {
                assert_eq!((*t, &frame[..]), (want_t, &want[..]), "packet {i}");
            }
        }
        assert_eq!(wire.rng.next_u64(), script.next_u64(), "an unscripted draw");
        let mut counters = WireCounters::default();
        wire.rx_faults_into(1, &mut counters);
        assert_eq!(
            (
                counters.frames_lost,
                counters.frames_reordered,
                counters.frames_duplicated
            ),
            (lost, reordered, duplicated)
        );
        assert!(lost > 0 && reordered > 0 && duplicated > 0);
    }

    /// A short frame sent right behind a long one has the smaller
    /// store-and-forward delay, but the receiver is a FIFO: it arrives
    /// one cycle after the long frame, not before it.
    #[test]
    fn fifo_clamp_keeps_a_short_frame_behind_a_long_one() {
        let cfg = NicConfig::ten_gig();
        let (mut wire, mut sched) = cable(&cfg);
        carry(&mut wire, &write_only(1024), 1_000, &cfg, &mut sched);
        carry(&mut wire, &write_only(8), 1_001, &cfg, &mut sched);
        let got = arrivals(&mut sched);
        assert_eq!(got.len(), 2);
        assert!(got[0].1.len() > got[1].1.len(), "long frame first");
        assert_eq!(got[1].0, got[0].0 + cfg.clock.period_ps());
    }

    /// A jittered frame is held back without moving the FIFO clamp, so
    /// the frame behind it keeps its own nominal arrival and overtakes.
    #[test]
    fn jittered_frame_is_not_recorded_in_last_arrival() {
        let mut cfg = NicConfig::ten_gig();
        cfg.fault.reorder_rate = 1.0;
        cfg.fault.reorder_jitter = 5_000 * NANOS;
        let (mut wire, mut sched) = cable(&cfg);
        let (held, behind) = (write_only(64), write_only(8));
        carry(&mut wire, &held, 1_000, &cfg, &mut sched);
        assert_eq!(wire.last_arrival[1], 0, "jittered arrival was recorded");
        let clean = NicConfig::ten_gig();
        carry(&mut wire, &behind, 2_000, &clean, &mut sched);
        for (at, frame) in arrivals(&mut sched) {
            if frame.len() == behind.encode().len() {
                assert_eq!(
                    at,
                    nominal(&clean, 2_000, &behind),
                    "clamped to the held frame"
                );
            } else {
                assert!(
                    at > nominal(&cfg, 1_000, &held),
                    "first frame was not held back"
                );
            }
        }
    }

    /// The wire edits a frame in place only when it holds the frame's one
    /// handle. A CE mark at the switch rewrites the frame the NIC handed
    /// over; a bit flip on a frame something else still holds (a send
    /// kernel that kept the payload) goes to a private copy, and the
    /// holder's bytes stay as they were.
    #[test]
    fn faults_edit_a_frame_in_place_only_when_the_wire_alone_holds_it() {
        let mut pkt = write_only(64);
        pkt.ecn = strom_wire::ECN_ECT0;
        let clean = pkt.encode();

        let cfg = NicConfig::ten_gig();
        let params = SwitchParams {
            ecn: Some(EcnConfig::step(0)),
            ..SwitchParams::default()
        };
        let mut wire = Wire::new(&cfg, 2, Some(params), &MetricsRegistry::default());
        let mut sched = Scheduler::new(2);
        let frame = Bytes::from(clean.clone());
        let at = frame.as_ptr();
        wire.carry(0, 1, frame, 1_000, &cfg, &mut sched);
        let marked = loop {
            let s = sched.queue.pop().expect("the frame is delivered");
            match s.event {
                Event::SwitchTick => wire.on_switch_tick(&cfg, &mut sched),
                Event::Nic {
                    node: 1,
                    ev: NicEvent::FrameArrive { frame },
                } => break frame,
                other => panic!("unexpected event {other:?}"),
            }
        };
        assert_eq!(marked.as_ptr(), at, "the CE mark was not made in place");
        let parsed = Packet::parse(&marked).expect("a CE mark keeps the frame valid");
        assert_eq!(parsed.ecn, strom_wire::ECN_CE);

        let mut cfg = NicConfig::ten_gig();
        cfg.fault.corrupt_rate = 1.0;
        for shared in [false, true] {
            let (mut wire, mut sched) = cable(&cfg);
            let frame = Bytes::from(clean.clone());
            let (at, holder) = (frame.as_ptr(), shared.then(|| frame.slice(60..)));
            wire.carry(0, 1, frame, 1_000, &cfg, &mut sched);
            let got = arrivals(&mut sched);
            let [(_, flipped)] = &got[..] else {
                panic!("one frame arrives, got {}", got.len());
            };
            let diff: u32 = (flipped.iter().zip(&clean))
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(diff, 1, "one bit flips");
            assert_eq!(flipped.as_ptr() == at, !shared, "shared = {shared}");
            if let Some(holder) = holder {
                assert_eq!(holder, clean[60..], "the holder saw the flip");
            }
        }
    }
}
