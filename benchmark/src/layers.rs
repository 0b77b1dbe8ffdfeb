//! Per-layer operations: each calls one layer's public functions in a
//! loop, warm and in isolation. The same operations serve two purposes —
//! timed alone they give the `ns`/`GiB/s` per-layer metrics, and run as
//! many times as a workload's outcome counted they give the layer replay
//! whose self time is attributed against the unit's wall time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use strom_kernels::layouts::{build_kv_store, versioned_value_pattern};
use strom_kernels::put::encode_put_request;
use strom_kernels::shuffle::encode_histogram;
use strom_kernels::{
    AggregateKernel, AggregateParams, FilterKernel, FilterParams, GetKernel, GetParams, HllKernel,
    Kernel, KernelAction, KernelEvent, Predicate, PutConfig, PutKernel, ShuffleKernel,
    ShuffleParams, TraversalKernel,
};
use strom_mem::{DmaCmd, HostMemory, Tlb};
use strom_nic::{NicConfig, Testbed, WorkRequest};
use strom_proto::{
    Dcqcn, DcqcnConfig, MultiQueue, Requester, Responder, RetransmissionTimer, StateTable,
};
use strom_sim::time::{MICROS, NANOS};
use strom_sim::{
    ArrivalGen, ArrivalProcess, Bandwidth, EcnConfig, EventQueue, SimRng, Switch, SwitchConfig,
    ZipfSampler,
};
use strom_telemetry::{Histogram, TraceEvent, TraceSink};
use strom_wire::bth::{Aeth, AethSyndrome, Reth};
use strom_wire::icrc;
use strom_wire::opcode::Opcode;
use strom_wire::packet::Packet;
use strom_wire::segment::segment_message;

use crate::spans::Recorder;
use crate::workloads::{UnitOutcome, Workload};

/// Payload of a full frame at the platforms' 1500 B MTU.
const MTU_PAYLOAD: usize = 1440;
/// Share of the filter chain's tuples its predicate keeps (`v % 10 000 >
/// 5 000`), i.e. what the aggregate and HLL stages see.
const FILTER_KEEP: f64 = 0.4999;

/// One layer operation. `run(n)` performs it `n` times and returns a
/// checksum so the work cannot be optimised away.
pub struct Op {
    /// The per-layer metric this operation measures (`<crate>.<op>`).
    pub metric: &'static str,
    /// `Some(bytes per call)` for throughput metrics (GiB/s), `None` for
    /// cost metrics (ns per call).
    bytes_per_call: Option<u64>,
    run: Box<dyn FnMut(u64) -> u64>,
}

impl Op {
    fn cost(metric: &'static str, run: impl FnMut(u64) -> u64 + 'static) -> Op {
        Op {
            metric,
            bytes_per_call: None,
            run: Box::new(run),
        }
    }

    fn throughput(metric: &'static str, bytes: usize, run: impl FnMut(u64) -> u64 + 'static) -> Op {
        Op {
            metric,
            bytes_per_call: Some(bytes as u64),
            run: Box::new(run),
        }
    }

    pub fn run(&mut self, n: u64) -> u64 {
        (self.run)(n)
    }

    /// Times the operation alone: batches grown until one lasts 4 ms,
    /// then the fastest of five (host noise is additive, see README).
    /// Returns ns per call, or GiB/s for throughput operations.
    pub fn measure(&mut self) -> f64 {
        let mut n = 16u64;
        loop {
            let t = Instant::now();
            black_box(self.run(n));
            if t.elapsed() >= Duration::from_millis(4) || n >= 1 << 24 {
                break;
            }
            n *= 2;
        }
        let best_ns = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(self.run(n));
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        let ns_per_call = best_ns / n as f64;
        match self.bytes_per_call {
            Some(bytes) => bytes as f64 / ns_per_call * 1e9 / (1u64 << 30) as f64,
            None => ns_per_call,
        }
    }
}

fn sample_packet(payload: usize) -> Packet {
    Packet::new(
        1,
        2,
        Opcode::WriteOnly,
        5,
        100,
        Some(Reth {
            vaddr: 0x1000,
            rkey: 1,
            dma_len: payload as u32,
        }),
        None,
        Bytes::from(vec![0xabu8; payload]),
    )
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    SimRng::seed(seed).fill_bytes(&mut data);
    data
}

/// Hold-depth-constant churn on the event queue: one pop and one
/// schedule per call, with the delta mix of the testbed (mostly sub-2 µs
/// pipeline hops, some timer-scale waits).
fn queue_op(metric: &'static str, depth: u64) -> Op {
    let mut rng = SimRng::seed(0x51ed ^ depth);
    let mut delta = move || match rng.below(10) {
        0 => rng.range(2 * MICROS, 200 * MICROS),
        _ => rng.range(100, 2 * MICROS),
    };
    let mut q: EventQueue<[u64; 7]> = EventQueue::new();
    for i in 0..depth {
        q.schedule_at(delta(), [i; 7]);
    }
    let deltas: Vec<u64> = (0..4096).map(|_| delta()).collect();
    let mut i = 0usize;
    Op::cost(metric, move |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            let s = q.pop().expect("churn holds the depth constant");
            acc ^= s.at;
            i = (i + 1) & 4095;
            q.schedule_at(s.at + deltas[i], s.event);
        }
        acc
    })
}

/// Full-MTU frames crossing an 8-port 100 G switch with step-16 ECN
/// marking at full load: one enqueue and one arbitration per frame.
fn switch_op() -> Op {
    let mut sw: Switch<u32> = Switch::new(SwitchConfig {
        ports: 8,
        port_rate: Bandwidth::gbit_per_sec(100.0),
        latency: 500 * NANOS,
        egress_capacity: 256,
        ecn: Some(EcnConfig::step(16)),
    });
    let (mut deliveries, mut drops) = (Vec::new(), Vec::new());
    let (mut now, mut i) = (0u64, 0usize);
    Op::cost("sim.switch_ns_per_frame", move |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            let src = i % 8;
            let dst = (src + 1 + (i / 8) % 7) % 8;
            i += 1;
            let eligible = sw.enqueue(src, dst, 1_500, now, i as u32);
            sw.arbitrate(eligible, &mut deliveries, &mut drops);
            acc += deliveries.len() as u64 + drops.len() as u64;
            deliveries.clear();
            drops.clear();
            // 8 ports x 120 ns per frame: every egress runs at line rate.
            now += 15 * NANOS;
        }
        acc
    })
}

/// Executes a kernel's actions against host memory until it goes quiet,
/// the way the NIC's kernel fabric does, minus all timing.
fn pump(kernel: &mut dyn Kernel, mem: &mut HostMemory, mut actions: Vec<KernelAction>) -> u64 {
    let mut acc = 0u64;
    loop {
        let mut next = Vec::new();
        for a in actions {
            match a {
                KernelAction::DmaRead { tag, vaddr, len } => {
                    let data = Bytes::from(mem.read(vaddr, len as usize));
                    next.extend(kernel.on_event(KernelEvent::DmaData { tag, data }));
                }
                KernelAction::DmaWrite { vaddr, data } => mem.write(vaddr, &data),
                KernelAction::RoceSend { data, .. } => acc += data.len() as u64,
                KernelAction::Done | KernelAction::Forward { .. } => {}
            }
        }
        if next.is_empty() {
            return acc;
        }
        actions = next;
    }
}

/// The three KV kernels against one shard shaped like `kv_serve`'s:
/// 4 096 keys over 1 024 primary entries, 64 B values.
fn kv_ops() -> [Op; 3] {
    const KEYS: u64 = 4_096;
    const VALUE: u32 = 64;
    let shard = || {
        let mut mem = HostMemory::new();
        let len = strom_kernels::layouts::KvStore::region_len(1_024, KEYS + 2, VALUE);
        let (base, _) = mem.pin(len + 4_096).expect("non-empty region");
        let keys: Vec<u64> = (1..=KEYS).collect();
        let kv = build_kv_store(&mut mem, base, 1_024, &keys, VALUE, 2);
        (mem, kv)
    };
    // A fixed odd stride visits every key before repeating.
    let next_key = |i: &mut u64| {
        *i = (*i + 2_654_435_761) % KEYS;
        *i + 1
    };

    let (mut mem, kv) = shard();
    let mut kernel = GetKernel::new();
    let mut i = 0u64;
    let get = Op::cost("kernels.get_ns_per_op", move |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            let key = next_key(&mut i);
            let params = GetParams {
                entry_addr: kv.entry_addr(key),
                key,
                target_address: 0x8000,
                chained: true,
            };
            let actions = kernel.on_event(KernelEvent::Invoke {
                qpn: 1,
                params: params.encode(),
            });
            acc += pump(&mut kernel, &mut mem, actions);
        }
        acc
    });

    let (mut mem, kv) = shard();
    let mut kernel = PutKernel::new();
    kernel.on_event(KernelEvent::Invoke {
        qpn: 0,
        params: PutConfig::for_store(&kv).encode(),
    });
    let mut i = 0u64;
    let put = Op::cost("kernels.put_ns_per_op", move |n| {
        let mut acc = 0u64;
        for round in 0..n {
            let key = next_key(&mut i);
            let value = versioned_value_pattern(key, round + 1, VALUE);
            let blob = encode_put_request(key, kv.entry_addr(key), 0x9000, &value);
            let actions = kernel.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::from(blob),
                last: true,
            });
            acc += pump(&mut kernel, &mut mem, actions);
        }
        acc
    });

    let (mut mem, kv) = shard();
    let mut kernel = TraversalKernel::new();
    let mut i = 0u64;
    let traversal = Op::cost("kernels.traversal_ns_per_op", move |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            let key = next_key(&mut i);
            let actions = kernel.on_event(KernelEvent::Invoke {
                qpn: 1,
                params: kv.table.get_params(key, 0x8000).encode(),
            });
            acc += pump(&mut kernel, &mut mem, actions);
        }
        acc
    });
    [get, put, traversal]
}

/// A stream kernel fed full-MTU payloads: `run(n)` is one invocation of
/// `n` packets. `config_reply` answers the DMA read a kernel issues while
/// configuring (the shuffle kernel's histogram); DMA writes are dropped,
/// host-memory cost is `mem.*`'s to report.
fn stream_op(
    metric: &'static str,
    mut kernel: Box<dyn Kernel>,
    params: Bytes,
    config_reply: Option<Bytes>,
) -> Op {
    let tuples: Vec<u8> = {
        let mut rng = SimRng::seed(0xC4A1);
        (0..MTU_PAYLOAD / 8)
            .flat_map(|_| (rng.next_u64() % 10_000).to_le_bytes())
            .collect()
    };
    let chunk = Bytes::from(tuples);
    Op::throughput(metric, MTU_PAYLOAD, move |n| {
        let actions = kernel.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: params.clone(),
        });
        for a in actions {
            if let (KernelAction::DmaRead { tag, .. }, Some(reply)) = (a, &config_reply) {
                kernel.on_event(KernelEvent::DmaData {
                    tag,
                    data: reply.clone(),
                });
            }
        }
        let mut acc = 0u64;
        for i in 0..n {
            let actions = kernel.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: chunk.clone(),
                last: i + 1 == n,
            });
            acc += actions.len() as u64;
        }
        acc
    })
}

/// Every layer operation, in catalogue order.
pub fn ops() -> Vec<Op> {
    let mut ops = vec![
        queue_op("sim.queue_ns_per_event_1e2", 100),
        queue_op("sim.queue_ns_per_event_1e4", 10_000),
        switch_op(),
    ];

    let mut arrivals = ArrivalGen::new(ArrivalProcess::Poisson { mean_gap: MICROS }, 7);
    let zipf = ZipfSampler::new(16_384, 0.99);
    let mut rng = SimRng::seed(7);
    ops.push(Op::cost("sim.arrivals_ns_per_draw", move |n| {
        (0..n).fold(0, |acc, _| {
            acc ^ arrivals.next_arrival() ^ zipf.sample(&mut rng)
        })
    }));

    for (encode, parse, payload) in [
        (
            "wire.encode_ns_per_frame_64",
            "wire.parse_ns_per_frame_64",
            64,
        ),
        (
            "wire.encode_ns_per_frame_mtu",
            "wire.parse_ns_per_frame_mtu",
            MTU_PAYLOAD,
        ),
    ] {
        let pkt = sample_packet(payload);
        let frame = Bytes::from(pkt.encode());
        let mut buf = Vec::new();
        ops.push(Op::cost(encode, move |n| {
            for _ in 0..n {
                black_box(&pkt).encode_into(&mut buf);
            }
            buf.len() as u64
        }));
        ops.push(Op::cost(parse, move |n| {
            (0..n).fold(0, |acc, _| {
                acc + Packet::parse(black_box(&frame))
                    .expect("valid frame")
                    .bth
                    .psn as u64
            })
        }));
    }
    let data = random_bytes(0x1234, 64 << 10);
    ops.push(Op::throughput("wire.icrc_gib_s", data.len(), move |n| {
        (0..n).fold(0, |acc, _| acc ^ u64::from(icrc::icrc(black_box(&data))))
    }));
    ops.push(Op::cost("wire.segment_ns_per_msg", |n| {
        (0..n).fold(0, |acc, _| {
            acc + segment_message(black_box(8 << 10), MTU_PAYLOAD).len() as u64
        })
    }));

    let mut st = StateTable::new(8);
    st.init_qp(1, 0, 0);
    let mut requester = Requester::new(8, 64, MTU_PAYLOAD);
    ops.push(Op::cost("proto.requester_ns_per_msg", move |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            let wr = WorkRequest::Write {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 64,
            };
            let (_, pkts) = requester.post(&mut st, 1, wr).expect("QP is up");
            let psn = pkts[0].psn;
            // Acked at once, so the outstanding list stays bounded.
            let ack = Aeth {
                syndrome: AethSyndrome::Ack,
                msn: 0,
            };
            let _ = requester.on_ack(&mut st, 1, psn, ack);
            acc += u64::from(psn);
        }
        acc
    }));
    let mut st = StateTable::new(8);
    st.init_qp(1, 0, 0);
    let mut responder = Responder::new(8, MTU_PAYLOAD);
    let mut pkt = sample_packet(64);
    pkt.bth.dest_qp = 1;
    pkt.bth.psn = 0;
    ops.push(Op::cost("proto.responder_ns_per_pkt", move |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            acc += responder.on_packet(&mut st, &pkt).len() as u64;
            pkt.bth.psn = (pkt.bth.psn + 1) & 0xff_ffff;
        }
        acc
    }));
    let mut mq = MultiQueue::new(16, 256);
    ops.push(Op::cost("proto.multi_queue_ns_per_read", move |n| {
        (0..n).fold(0, |acc, _| {
            mq.push(3, 0x1000, 64);
            acc + mq.consume(3, 64).map_or(0, |(ptr, _)| ptr)
        })
    }));
    let mut timer = RetransmissionTimer::new(64, 100 * MICROS);
    let mut now = 0u64;
    ops.push(Op::cost("proto.retransmit_ns_per_timer", move |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            timer.arm(5, now);
            now += 100 * MICROS;
            acc += timer.expired(now).len() as u64;
            timer.note_progress(5);
        }
        acc
    }));
    let mut dcqcn = Dcqcn::new(DcqcnConfig::for_line_rate(100e9), 64);
    let mut now = 0u64;
    ops.push(Op::cost("proto.dcqcn_ns_per_cnp", move |n| {
        let mut acc = 0.0f64;
        for _ in 0..n {
            now += 60 * MICROS;
            dcqcn.on_cnp(5, now);
            acc += dcqcn.rate(5, now + 30 * MICROS);
        }
        acc as u64
    }));

    const REGION: u64 = 16 << 20;
    let mut mem = HostMemory::new();
    let (base, phys) = mem.pin(REGION).expect("non-empty region");
    let mut tlb = Tlb::new();
    tlb.insert_region(base, &phys).expect("fresh TLB");
    let tlb2 = tlb.clone();
    let mut off = 0u64;
    let mut step = move || {
        off = (off + 40_503 * 64) % (REGION - 4_096);
        base + off
    };
    let mut addr = step;
    ops.push(Op::cost("mem.tlb_ns_per_translate", move |n| {
        (0..n).fold(0, |acc, _| acc ^ tlb.translate(addr()).expect("pinned"))
    }));
    let mut addr = step;
    ops.push(Op::cost("mem.dma_ns_per_cmd", move |n| {
        (0..n).fold(0, |acc, _| {
            let cmd = DmaCmd::decode(&DmaCmd::write(addr(), MTU_PAYLOAD as u32).encode());
            let segments = tlb2.translate_command(cmd.vaddr, cmd.len).expect("pinned");
            acc + segments.len() as u64
        })
    }));
    let payload = random_bytes(0x77, MTU_PAYLOAD);
    let mut write_mem = mem;
    let mut read_mem = HostMemory::new();
    let (read_base, _) = read_mem.pin(REGION).expect("non-empty region");
    read_mem.write(read_base, &random_bytes(0x78, REGION as usize));
    let mut addr = step;
    ops.push(Op::throughput(
        "mem.host_write_gib_s",
        MTU_PAYLOAD,
        move |n| {
            for _ in 0..n {
                write_mem.write(addr(), black_box(&payload));
            }
            n
        },
    ));
    ops.push(Op::throughput(
        "mem.host_read_gib_s",
        MTU_PAYLOAD,
        move |n| {
            (0..n).fold(0, |acc, _| {
                acc + read_mem.read(step() - base + read_base, MTU_PAYLOAD)[0] as u64
            })
        },
    ));

    ops.extend(kv_ops());
    let histogram = encode_histogram(&[(0x10_0000, u32::MAX); 16]);
    ops.push(stream_op(
        "kernels.shuffle_gib_s",
        Box::new(ShuffleKernel::new()),
        ShuffleParams {
            histogram_addr: 0x1000,
            num_partitions: 16,
        }
        .encode(),
        Some(Bytes::from(histogram)),
    ));
    ops.push(stream_op(
        "kernels.filter_gib_s",
        Box::new(FilterKernel::new()),
        FilterParams {
            dest_addr: 0x10_0000,
            dest_capacity: u32::MAX,
            predicate: Predicate::GreaterThan,
            operand: 5_000,
            target_address: 0x8000,
        }
        .encode(),
        None,
    ));
    ops.push(stream_op(
        "kernels.aggregate_gib_s",
        Box::new(AggregateKernel::new()),
        AggregateParams {
            target_address: 0x8000,
        }
        .encode(),
        None,
    ));
    ops.push(stream_op(
        "kernels.hll_gib_s",
        Box::new(HllKernel::new()),
        HllKernel::stream_params(0x8000),
        None,
    ));
    let data = random_bytes(0x4321, 64 << 10);
    ops.push(Op::throughput(
        "kernels.crc64_gib_s",
        data.len(),
        move |n| {
            (0..n).fold(0, |acc, _| {
                acc ^ strom_kernels::crc64::crc64(black_box(&data))
            })
        },
    ));

    let sink_off = TraceSink::default();
    ops.push(Op::cost("telemetry.trace_emit_disabled_ns", move |n| {
        for _ in 0..n {
            black_box(&sink_off).emit(TraceEvent::Retransmit { qpn: 1, packets: 2 });
        }
        n
    }));
    let sink_on = TraceSink::enabled(1 << 12);
    ops.push(Op::cost("telemetry.trace_emit_enabled_ns", move |n| {
        for _ in 0..n {
            black_box(&sink_on).emit(TraceEvent::Retransmit { qpn: 1, packets: 2 });
        }
        sink_on.emitted()
    }));
    let mut histogram = Histogram::new();
    let mut v = 1u64;
    ops.push(Op::cost("telemetry.histogram_record_ns", move |n| {
        for _ in 0..n {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.record(v >> 40);
        }
        histogram.count()
    }));
    ops
}

/// What a direct-drive two-node testbed did: the only place event counts
/// are reachable (the scenario drivers do not expose them).
#[derive(Debug, Clone, Copy)]
pub struct PairStats {
    pub events: u64,
    pub messages: u64,
    pub frames: u64,
    pub payload_bytes: u64,
    pub wall_s: f64,
}

impl PairStats {
    pub fn events_per_frame(&self) -> f64 {
        self.events as f64 / self.frames.max(1) as f64
    }
}

/// Posts `len`-byte WRITEs one at a time on a back-to-back 100 G pair,
/// counting `step_batch()` returns, for at least `budget` of wall time.
pub fn drive_pair(len: u32, budget: Duration) -> PairStats {
    let mut tb = Testbed::new(NicConfig::hundred_gig());
    tb.connect_qp(1);
    let src = tb.pin(0, 1 << 21);
    let dst = tb.pin(1, 1 << 21);
    tb.mem(0).write(src, &random_bytes(0x9a1e, len as usize));
    let wr = WorkRequest::Write {
        remote_vaddr: dst,
        local_vaddr: src,
        len,
    };
    let post = |tb: &mut Testbed| {
        let h = tb.post(0, 1, wr.clone());
        let mut events = 0u64;
        while tb.completed_at(0, h).is_none() {
            events += tb.step_batch();
        }
        events
    };
    // Warm: address resolution and first-touch allocation stay untimed.
    post(&mut tb);
    tb.run_until_idle();
    let frames0 = tb.status(0).wire.frames_rx + tb.status(1).wire.frames_rx;
    let bytes0 = tb.status(1).wire.payload_bytes_rx;
    let (mut events, mut messages) = (0u64, 0u64);
    let t = Instant::now();
    while t.elapsed() < budget {
        for _ in 0..32 {
            events += post(&mut tb);
            messages += 1;
        }
    }
    loop {
        let n = tb.step_batch();
        if n == 0 {
            break;
        }
        events += n;
    }
    let wall_s = t.elapsed().as_secs_f64();
    PairStats {
        events,
        messages,
        frames: tb.status(0).wire.frames_rx + tb.status(1).wire.frames_rx - frames0,
        payload_bytes: tb.status(1).wire.payload_bytes_rx - bytes0,
        wall_s,
    }
}

/// How many times each layer operation ran inside one unit of `workload`,
/// worked out from the outcome's own counts. Data frames are payload over
/// the frame payload plus retransmissions; RoCE acknowledges per message,
/// so ack frames are messages plus CNPs. Event counts are not reachable
/// through the scenario drivers: they are frames times the events per
/// frame a direct-drive pair showed at that frame size.
pub fn replay_plan(
    workload: Workload,
    unit: &UnitOutcome,
    events_per_frame: f64,
) -> Vec<(&'static str, u64)> {
    let c = &unit.counts;
    let small = workload == Workload::KvServe;
    let chunks = unit.payload_bytes.div_ceil(MTU_PAYLOAD as u64);
    let data_frames = c.retransmissions
        + if small {
            // A request frame and a response frame per request.
            2 * unit.messages
        } else {
            chunks
        };
    let ack_frames = unit.messages + c.cnps;
    let events = ((data_frames + ack_frames) as f64 * events_per_frame) as u64;
    let (small_frames, mtu_frames) = if small {
        (data_frames + ack_frames, 0)
    } else {
        (ack_frames, data_frames)
    };
    let kept = |n: u64| (n as f64 * FILTER_KEEP) as u64;
    let mut plan = vec![
        ("sim.queue_ns_per_event_1e2", events),
        ("sim.switch_ns_per_frame", data_frames + ack_frames),
        ("wire.encode_ns_per_frame_64", small_frames),
        ("wire.parse_ns_per_frame_64", small_frames),
        ("wire.encode_ns_per_frame_mtu", mtu_frames),
        ("wire.parse_ns_per_frame_mtu", mtu_frames),
        ("wire.segment_ns_per_msg", unit.messages),
        ("proto.requester_ns_per_msg", unit.messages),
        ("proto.responder_ns_per_pkt", data_frames),
        ("proto.retransmit_ns_per_timer", c.retransmissions),
        ("proto.dcqcn_ns_per_cnp", c.cnps),
        // One translation and one command on each side of every frame.
        ("mem.tlb_ns_per_translate", 2 * data_frames),
        ("mem.dma_ns_per_cmd", 2 * data_frames),
        ("mem.host_read_gib_s", chunks),
        ("mem.host_write_gib_s", chunks),
        ("telemetry.trace_emit_disabled_ns", events),
    ];
    match workload {
        Workload::KvServe => plan.extend([
            ("kernels.get_ns_per_op", c.gets),
            ("kernels.put_ns_per_op", c.puts),
            ("kernels.traversal_ns_per_op", c.traversals),
            ("telemetry.histogram_record_ns", unit.messages),
        ]),
        Workload::ShuffleBulk | Workload::ShuffleStorm => {
            plan.push(("kernels.shuffle_gib_s", chunks));
        }
        Workload::IncastWrites => plan.push(("telemetry.histogram_record_ns", unit.messages)),
        Workload::IncastReads => plan.extend([
            ("proto.multi_queue_ns_per_read", unit.messages),
            ("telemetry.histogram_record_ns", unit.messages),
        ]),
        // Half the unit's bytes stream through each chain.
        Workload::ChainStream => plan.extend([
            ("kernels.filter_gib_s", chunks / 2),
            ("kernels.aggregate_gib_s", kept(chunks / 2)),
            ("kernels.hll_gib_s", kept(chunks / 2)),
            ("kernels.crc64_gib_s", (unit.payload_bytes / 2) >> 16),
            ("kernels.shuffle_gib_s", chunks / 2),
        ]),
    }
    plan.retain(|&(_, n)| n > 0);
    plan
}

/// Runs `plan` against `ops`, each entry inside a `layer/<crate>.<op>`
/// span of `rec`.
pub fn replay(rec: &mut Recorder, ops: &mut [Op], plan: &[(&'static str, u64)]) {
    for &(metric, count) in plan {
        let op = ops
            .iter_mut()
            .find(|op| op.metric == metric)
            .expect("plans name catalogued operations");
        rec.span(&format!("layer/{metric}"), |_| black_box(op.run(count)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;
    use crate::workloads::Counts;

    #[test]
    fn every_operation_is_catalogued_and_does_work() {
        let mut ops = ops();
        for op in &mut ops {
            assert!(
                PER_LAYER.iter().any(|m| m.name == op.metric),
                "{} missing from the catalogue",
                op.metric
            );
            black_box(op.run(3));
        }
        // Work grows with the iteration count (black_box is only a hint).
        let icrc = ops
            .iter_mut()
            .find(|o| o.metric == "wire.icrc_gib_s")
            .unwrap();
        let time = |op: &mut Op, n| {
            let t = Instant::now();
            black_box(op.run(n));
            t.elapsed()
        };
        assert!(time(icrc, 400) > time(icrc, 4));
    }

    #[test]
    fn kv_kernels_answer_every_call() {
        let [mut get, mut put, mut traversal] = kv_ops();
        // GET: 64 B value + 8 B version header; PUT: 8 B ack; traversal:
        // the 64 B value. Any in-band error word would shrink these.
        assert_eq!(get.run(10), 10 * 72);
        assert_eq!(put.run(10), 10 * 8);
        assert_eq!(traversal.run(10), 10 * 64);
    }

    #[test]
    fn replay_plans_follow_the_outcome_counts() {
        let unit = UnitOutcome {
            messages: 100,
            payload_bytes: 100 * 8_192,
            counts: Counts {
                retransmissions: 7,
                cnps: 5,
                ..Counts::default()
            },
            ..UnitOutcome::default()
        };
        let plan = replay_plan(Workload::IncastReads, &unit, 10.0);
        let count = |m: &str| plan.iter().find(|(n, _)| *n == m).map(|&(_, c)| c);
        let data = (100u64 * 8_192).div_ceil(1_440) + 7;
        assert_eq!(count("wire.encode_ns_per_frame_mtu"), Some(data));
        assert_eq!(count("wire.encode_ns_per_frame_64"), Some(105));
        assert_eq!(count("sim.queue_ns_per_event_1e2"), Some((data + 105) * 10));
        assert_eq!(count("proto.multi_queue_ns_per_read"), Some(100));
        assert_eq!(count("proto.dcqcn_ns_per_cnp"), Some(5));
        assert_eq!(
            count("kernels.get_ns_per_op"),
            None,
            "zero counts are dropped"
        );
        let mut rec = Recorder::new(0);
        replay(&mut rec, &mut ops(), &plan);
        assert_eq!(rec.spans().len(), plan.len());
        assert!(rec.spans().iter().all(|s| s.name.starts_with("layer/")));
    }
}
