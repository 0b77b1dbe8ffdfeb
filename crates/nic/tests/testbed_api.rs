//! API-level tests of the testbed's host-facing semantics: watches,
//! command pacing, time advancement, and configuration invariants.

use bytes::Bytes;
use strom_kernels::{Kernel, KernelAction, KernelEvent};
use strom_mem::HostMemory;
use strom_nic::{CpuFallback, LinkFaultModel, NicConfig, RpcOpCode, Testbed, WorkRequest};
use strom_telemetry::{DropReason, TraceEvent};
use strom_wire::bth::Qpn;

const QP: u32 = 1;

fn testbed() -> Testbed {
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(QP);
    tb
}

#[test]
fn watch_fires_only_when_fully_covered() {
    let mut tb = testbed();
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    tb.mem(0).write(src, &[7u8; 512]);
    // Watch 512 bytes; deliver two half-writes.
    let watch = tb.add_watch(1, dst, 512);
    let h = tb.post(
        0,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: 256,
        },
    );
    tb.run_until_complete(0, h);
    tb.run_until_idle();
    assert!(
        tb.watch_fired(watch).is_none(),
        "half-covered watch must not fire"
    );
    tb.post(
        0,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst + 256,
            local_vaddr: src,
            len: 256,
        },
    );
    let t = tb.run_until_watch(watch);
    assert!(t > 0);
    tb.run_until_idle();
}

#[test]
fn watch_ignores_writes_outside_its_range() {
    let mut tb = testbed();
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    tb.mem(0).write(src, &[1u8; 4096]);
    let watch = tb.add_watch(1, dst, 64);
    // A large write that does NOT overlap the watched range.
    let h = tb.post(
        0,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst + 1024,
            local_vaddr: src,
            len: 4096,
        },
    );
    tb.run_until_complete(0, h);
    tb.run_until_idle();
    assert!(tb.watch_fired(watch).is_none());
}

#[test]
fn advance_moves_the_clock_without_events() {
    let mut tb = testbed();
    let t0 = tb.now();
    tb.advance(5_000_000); // 5 µs of CPU work.
    assert_eq!(tb.now(), t0 + 5_000_000);
}

#[test]
fn command_pacing_enforces_issue_interval() {
    // Posting N commands back-to-back cannot complete faster than the
    // AVX2-store issue interval allows (§7.1).
    let mut tb = testbed();
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    tb.mem(0).write(src, &[1u8; 64]);
    let interval = tb.config().pcie.cmd_issue_interval;
    let n = 100u64;
    let mut last = 0;
    for _ in 0..n {
        last = tb.post(
            0,
            QP,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 64,
            },
        );
    }
    let t = tb.run_until_complete(0, last);
    assert!(
        t >= (n - 1) * interval,
        "{n} commands in {t} ps beats the issue interval"
    );
    tb.run_until_idle();
}

#[test]
fn completions_report_simulated_times_in_order() {
    let mut tb = testbed();
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    tb.mem(0).write(src, &[2u8; 1024]);
    let h1 = tb.post(
        0,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: 1024,
        },
    );
    let h2 = tb.post(
        0,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: 1024,
        },
    );
    tb.run_until_complete(0, h2);
    tb.run_until_idle();
    let t1 = tb.completed_at(0, h1).unwrap();
    let t2 = tb.completed_at(0, h2).unwrap();
    assert!(t1 < t2, "same-QP writes complete in order");
}

#[test]
fn ten_and_hundred_gig_share_the_protocol() {
    for cfg in [NicConfig::ten_gig(), NicConfig::hundred_gig()] {
        let mut tb = Testbed::new(cfg);
        tb.connect_qp(QP);
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        tb.mem(0).write(src, b"config check");
        let watch = tb.add_watch(1, dst, 12);
        tb.post(
            0,
            QP,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 12,
            },
        );
        tb.run_until_watch(watch);
        assert_eq!(tb.mem(1).read(dst, 12), b"config check");
        tb.run_until_idle();
    }
}

#[test]
#[should_panic(expected = "idle before watch")]
fn waiting_for_an_impossible_watch_panics() {
    let mut tb = testbed();
    tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    let watch = tb.add_watch(1, dst, 64);
    // Nothing was posted: the queue drains immediately.
    tb.run_until_watch(watch);
}

#[test]
fn local_rpc_does_not_touch_the_wire() {
    use strom_kernels::hll_kernel::HllKernel;

    let mut tb = testbed();
    tb.pin(0, 1 << 20);
    let peer_buf = tb.pin(1, 1 << 20);
    tb.deploy_kernel(0, Box::new(HllKernel::new()));
    // A snapshot RPC to the local kernel: its RoceSend goes out over the
    // network to the peer, but the invocation itself does not.
    let frames_before = tb.status(1).frames_rx;
    tb.post_local_rpc(
        0,
        QP,
        RpcOpCode::HLL,
        strom_kernels::hll_kernel::HllParams {
            target_address: peer_buf,
        }
        .encode(),
    );
    // The HLL kernel responds with a snapshot WRITE toward the peer...
    tb.run_until_idle();
    // ...so exactly that one message (plus its ACK back) crossed the wire;
    // the invocation itself added nothing else.
    let frames_after = tb.status(1).frames_rx;
    assert!(frames_after > frames_before);
    assert_eq!(tb.fabric(0).completed(), 1);
}

/// A kernel that answers every invocation with a RoCE send on a QP nobody
/// connected, then finishes.
struct RepliesOnUnconnectedQp;

impl RepliesOnUnconnectedQp {
    const OP: RpcOpCode = RpcOpCode(0x7F);
}

impl Kernel for RepliesOnUnconnectedQp {
    fn rpc_op(&self) -> RpcOpCode {
        Self::OP
    }

    fn name(&self) -> &'static str {
        "replies-on-unconnected-qp"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        if let KernelEvent::Invoke { .. } = event {
            out.push(KernelAction::RoceSend {
                qpn: QP + 8,
                remote_vaddr: 0,
                data: Bytes::from_static(b"reply"),
            });
            out.push(KernelAction::Done);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn a_kernel_send_the_requester_refuses_is_dropped_and_the_kernel_retires() {
    let mut tb = testbed();
    let trace = tb.enable_tracing(1024);
    tb.deploy_kernel(0, Box::new(RepliesOnUnconnectedQp));
    let frames_before = tb.status(1).frames_rx;
    for _ in 0..2 {
        tb.post_local_rpc(0, QP, RepliesOnUnconnectedQp::OP, Bytes::new());
    }
    tb.run_until_idle();
    // Each invocation's `Done` retired the slot, so the second ran too.
    assert_eq!(tb.fabric(0).completed(), 2);
    let refused = TraceEvent::PacketDrop {
        node: 0,
        reason: DropReason::SendRefused,
    };
    let drops = trace
        .records()
        .iter()
        .filter(|r| r.event == refused)
        .count();
    assert_eq!(drops, 2, "each refused send is traced once");
    assert_eq!(tb.status(1).frames_rx, frames_before, "nothing was sent");
}

/// A CPU fallback that answers every RPC with a short WRITE to `target`.
struct AnswersAt {
    target: u64,
}

impl CpuFallback for AnswersAt {
    fn handle(&mut self, _: &mut HostMemory, _: Qpn, _: &Bytes) -> Option<(u64, Bytes, u64)> {
        Some((self.target, Bytes::from_static(b"answer"), 1_000))
    }
}

#[test]
fn a_cpu_fallback_response_the_requester_refuses_is_dropped() {
    const CLIENT: usize = 0;
    const SERVER: usize = 1;
    const OP: RpcOpCode = RpcOpCode(0x7E);
    let mut tb = testbed();
    let trace = tb.enable_tracing(1 << 12);
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let server_buf = tb.pin(SERVER, 1 << 20);
    tb.set_cpu_fallback(SERVER, OP, Box::new(AnswersAt { target: client_buf }));
    // Kill the link toward the client: the server's WRITE is never
    // acknowledged, and its QP goes terminal after `max_retries`.
    tb.set_port_fault_model(CLIENT, LinkFaultModel::bernoulli(1.0));
    let h = tb.post(
        SERVER,
        QP,
        WorkRequest::Write {
            remote_vaddr: client_buf,
            local_vaddr: server_buf,
            len: 64,
        },
    );
    tb.run_until_complete(SERVER, h);
    tb.run_until_idle();
    assert!(tb.qp_errored(SERVER, QP), "the server's QP is terminal");
    // The request still reaches the server; its fallback's answer cannot
    // be posted on the terminal QP.
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: OP,
            params: Bytes::from_static(b"ask"),
        },
    );
    tb.run_until_idle();
    let refused = TraceEvent::PacketDrop {
        node: SERVER as u8,
        reason: DropReason::SendRefused,
    };
    let drops = trace
        .records()
        .iter()
        .filter(|r| r.event == refused)
        .count();
    assert_eq!(drops, 1, "the refused response is traced once");
}

/// A two-node testbed with 8 KiB of `0xAB` staged on node 0 and a pinned
/// destination region on node 1; returns `(tb, src, dst)`.
fn staged() -> (Testbed, u64, u64) {
    let mut tb = testbed();
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    tb.mem(0).write(src, &[0xAB; 8192]);
    (tb, src, dst)
}

/// RDMA-writes `len` staged bytes to `remote_vaddr` on node 1 and drains
/// the simulation.
fn write_and_settle(tb: &mut Testbed, src: u64, remote_vaddr: u64, len: u32) {
    tb.post(
        0,
        QP,
        WorkRequest::Write {
            remote_vaddr,
            local_vaddr: src,
            len,
        },
    );
    tb.run_until_idle();
}

#[test]
fn two_watches_on_one_range_fire_together() {
    let (mut tb, src, dst) = staged();
    let a = tb.add_watch(1, dst, 64);
    let b = tb.add_watch(1, dst, 64);
    write_and_settle(&mut tb, src, dst, 64);
    let fired = tb.watch_fired(a);
    assert!(fired.is_some());
    assert_eq!(fired, tb.watch_fired(b));
}

#[test]
fn watch_counts_only_the_overlap_of_writes_crossing_its_edges() {
    let (mut tb, src, dst) = staged();
    // Watch [256, 512); the writes cover [128, 384) and [384, 640).
    let watch = tb.add_watch(1, dst + 256, 256);
    write_and_settle(&mut tb, src, dst + 128, 256);
    assert!(tb.watch_fired(watch).is_none(), "only 128 B landed inside");
    write_and_settle(&mut tb, src, dst + 384, 256);
    assert!(tb.watch_fired(watch).is_some());
}

#[test]
fn one_write_serves_every_watch_it_covers() {
    let (mut tb, src, dst) = staged();
    let short = tb.add_watch(1, dst, 8);
    let medium = tb.add_watch(1, dst + 64, 100);
    let byte = tb.add_watch(1, dst + 1023, 1);
    // Starts inside the write but extends 276 B past its end.
    let overhanging = tb.add_watch(1, dst + 900, 400);
    // Starts below the write and is longer than any other watch.
    let long = tb.add_watch(1, dst.checked_sub(2048).unwrap(), 2048 + 1024);
    write_and_settle(&mut tb, src, dst, 1024);
    let fired = tb.watch_fired(short);
    assert!(fired.is_some());
    assert_eq!(tb.watch_fired(medium), fired);
    assert_eq!(tb.watch_fired(byte), fired);
    assert!(tb.watch_fired(overhanging).is_none());
    assert!(tb.watch_fired(long).is_none());
    write_and_settle(&mut tb, src, dst + 1024, 276);
    assert!(tb.watch_fired(overhanging).is_some());
    assert!(tb.watch_fired(long).is_none());
}

#[test]
fn writes_adjacent_to_a_watch_do_not_touch_it() {
    let (mut tb, src, dst) = staged();
    let watch = tb.add_watch(1, dst + 256, 64);
    write_and_settle(&mut tb, src, dst, 256); // Ends where the watch starts.
    write_and_settle(&mut tb, src, dst + 320, 64); // Starts where it ends.
    assert!(tb.watch_fired(watch).is_none());
    write_and_settle(&mut tb, src, dst + 256, 64);
    assert!(tb.watch_fired(watch).is_some());
}

#[test]
fn zero_length_watch_never_fires() {
    let (mut tb, src, dst) = staged();
    let watch = tb.add_watch(1, dst + 16, 0);
    write_and_settle(&mut tb, src, dst, 64);
    assert!(tb.watch_fired(watch).is_none());
}

#[test]
fn watch_belongs_to_its_node() {
    let (mut tb, src, dst) = staged();
    // The same numeric address, watched on both nodes; only node 1's
    // memory is written.
    let here = tb.add_watch(1, dst, 64);
    let elsewhere = tb.add_watch(0, dst, 64);
    write_and_settle(&mut tb, src, dst, 64);
    assert!(tb.watch_fired(here).is_some());
    assert!(tb.watch_fired(elsewhere).is_none());
}

#[test]
fn fifty_thousand_watches_each_fire_as_their_own_write_lands() {
    const WATCHES: usize = 50_000;
    const SLOT: u64 = 64;
    let mut tb = testbed();
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, WATCHES as u64 * SLOT);
    tb.mem(0).write(src, &[0xCD; 8]);
    let poll_overhead = tb.config().poll_overhead;
    let slot = |i: usize| dst + i as u64 * SLOT;
    let watches: Vec<_> = (0..WATCHES)
        .map(|i| {
            let watch = tb.add_watch(1, slot(i), 8);
            tb.post(
                0,
                QP,
                WorkRequest::Write {
                    remote_vaddr: slot(i),
                    local_vaddr: src,
                    len: 8,
                },
            );
            watch
        })
        .collect();
    // One QP delivers in order, so the slots fill in order: a watch must
    // read unfired until its slot holds the bytes, and fired at exactly
    // that instant from then on.
    let mut next = 0;
    while tb.step() {
        while next < WATCHES && tb.mem(1).read(slot(next), 8) == [0xCD; 8] {
            assert_eq!(
                tb.watch_fired(watches[next]),
                Some(tb.now() + poll_overhead),
                "watch {next}"
            );
            next += 1;
        }
        if next < WATCHES {
            assert!(tb.watch_fired(watches[next]).is_none(), "watch {next}");
        }
    }
    assert_eq!(next, WATCHES, "every write landed");
}

#[test]
fn completion_count_tracks_completed_handles_through_an_incast() {
    use strom_nic::{ClusterTestbed, SwitchParams};

    const SENDERS: usize = 4;
    let mut tb =
        ClusterTestbed::switched(NicConfig::ten_gig(), SENDERS + 1, SwitchParams::default());
    for s in 0..SENDERS {
        tb.connect_qp_between(0, s + 1, s as u32 + 1);
    }
    let dst = tb.pin(0, 1 << 20);
    let src: Vec<u64> = (0..SENDERS).map(|s| tb.pin(s + 1, 1 << 20)).collect();
    tb.bring_up();
    let before = tb.completion_count();
    let mut handles = Vec::new();
    for round in 0..8u64 {
        for (s, &local_vaddr) in src.iter().enumerate() {
            let h = tb.post(
                s + 1,
                s as u32 + 1,
                WorkRequest::Write {
                    remote_vaddr: dst + (s as u64 * 8 + round) * 4096,
                    local_vaddr,
                    len: 4096,
                },
            );
            handles.push((s + 1, h));
        }
    }
    let completed = |tb: &ClusterTestbed| {
        handles
            .iter()
            .filter(|&&(node, h)| tb.completed_at(node, h).is_some())
            .count() as u64
    };
    assert_eq!(completed(&tb), 0);
    while tb.step() {
        assert_eq!(tb.completion_count() - before, completed(&tb));
    }
    assert_eq!(tb.completion_count() - before, handles.len() as u64);
    // A handle answers only for the node that posted it, and handles that
    // were never issued (0, or past the last one) answer for nobody.
    let (node, h) = handles[0];
    assert!(tb.completion_status(node, h).is_some());
    let other = node % SENDERS + 1;
    assert_eq!(tb.completed_at(other, h), None);
    assert_eq!(tb.completion_status(other, h), None);
    let last = handles.iter().map(|&(_, h)| h).max().unwrap();
    for unknown in [0, last + 1, u64::MAX] {
        assert_eq!(tb.completed_at(node, unknown), None);
        assert_eq!(tb.completion_status(node, unknown), None);
    }
}
