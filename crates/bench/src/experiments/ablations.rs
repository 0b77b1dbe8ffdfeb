//! Ablations of StRoM design choices — not figures from the paper, but
//! quantitative support for three design decisions the paper makes:
//!
//! - **Descriptor Bypass** (§4.3): stream DMA with and without the
//!   bypass's low per-command cost — without it, PCIe command overhead
//!   caps 100 G throughput far below line rate.
//! - **Datapath width** (§7): width is what buys the 100 G latency drop,
//!   via the ICRC store-and-forward term (176 vs 22 words per MTU), at a
//!   resource cost the model quantifies.
//! - **Retransmission timeout** (§4.1): too-small timeouts cause spurious
//!   go-back-N storms, too-large ones stretch loss recovery.

use strom_nic::{LinkFaultModel, NicConfig, Testbed, WorkRequest};
use strom_resources::{DesignConfig, Device, ResourceModel};
use strom_sim::report::{Figure, Series};
use strom_sim::stats::goodput_gbps;
use strom_sim::time::MICROS;
use strom_sim::Clock;

use super::Scale;

/// Descriptor Bypass on/off: 100 G write throughput at 4 KB payloads.
pub fn bypass(scale: Scale) -> Figure {
    let run = |bypass_on: bool| -> Vec<f64> {
        let mut out = Vec::new();
        for &size in &[1024u32, 4096, 16_384, 65_536] {
            let mut cfg = NicConfig::hundred_gig();
            if !bypass_on {
                // Every stream command pays the full descriptor cost.
                cfg.pcie.bypass_overhead = cfg.pcie.cmd_overhead;
            }
            let mut tb = Testbed::new(cfg);
            tb.connect_qp(1);
            let src = tb.pin(0, 1 << 21);
            let dst = tb.pin(1, 1 << 21);
            tb.mem(0).write(src, &vec![5u8; size as usize]);
            let count = scale.messages().min((64 << 20) / size as usize).max(16);
            let t0 = tb.now();
            let mut last = 0;
            for _ in 0..count {
                last = tb.post(
                    0,
                    1,
                    WorkRequest::Write {
                        remote_vaddr: dst,
                        local_vaddr: src,
                        len: size,
                    },
                );
            }
            let t1 = tb.run_until_complete(0, last);
            out.push(goodput_gbps(u64::from(size) * count as u64, t0, t1));
        }
        out
    };
    Figure::new(
        "Ablation: DMA Descriptor Bypass at 100G (write throughput)",
        "payload",
        vec!["1KB".into(), "4KB".into(), "16KB".into(), "64KB".into()],
        "Gbit/s",
    )
    .push_series(Series::new("with bypass (StRoM, §4.3)", run(true)))
    .push_series(Series::new("without bypass", run(false)))
}

/// Datapath width sweep: 64 B write latency and the resource price.
pub fn width(_scale: Scale) -> Figure {
    let widths = [8u64, 16, 32, 64];
    let mut latency = Vec::new();
    let mut luts = Vec::new();
    let mut brams = Vec::new();
    for &w in &widths {
        let mut cfg = NicConfig::hundred_gig();
        cfg.datapath_bytes = w;
        // Keep the 100 G clock so only the width varies.
        cfg.clock = Clock::from_mhz(322.0);
        let mut tb = Testbed::new(cfg);
        tb.connect_qp(1);
        let src = tb.pin(0, 1 << 21);
        let dst = tb.pin(1, 1 << 21);
        tb.mem(0).write(src, &[1u8; 1024]);
        let watch = tb.add_watch(1, dst, 1024);
        let t0 = tb.now();
        tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 1024,
            },
        );
        let t1 = tb.run_until_watch(watch);
        latency.push((t1 - t0) as f64 / MICROS as f64);
        tb.run_until_idle();

        let usage = ResourceModel::new().estimate(
            &DesignConfig {
                datapath_bytes: w,
                num_qps: 500,
                tlb_entries: 16_384,
            },
            Device::xcvu9p(),
        );
        luts.push(usage.luts as f64 / 1000.0);
        brams.push(usage.bram36 as f64);
    }
    Figure::new(
        "Ablation: datapath width at 322 MHz (1KB write, one-way)",
        "width",
        widths.iter().map(|w| format!("{w}B")).collect(),
        "us | K LUTs | BRAMs",
    )
    .push_series(Series::new("latency [us]", latency))
    .push_series(Series::new("logic [K LUTs]", luts))
    .push_series(Series::new("on-chip memory [BRAMs]", brams))
}

/// Retransmission timeout sensitivity at 5 % loss.
pub fn timeout(_scale: Scale) -> Figure {
    let timeouts_us = [20u64, 50, 100, 400, 1600];
    let mut time_ms = Vec::new();
    let mut retx = Vec::new();
    let mut totals = super::FaultTotals::default();
    for &t_us in &timeouts_us {
        let mut cfg = NicConfig::ten_gig();
        cfg.retransmit_timeout = t_us * MICROS;
        let mut tb = Testbed::new(cfg);
        tb.connect_qp(1);
        tb.set_fault_model(LinkFaultModel::bernoulli(0.05));
        let src = tb.pin(0, 2 << 20);
        let dst = tb.pin(1, 2 << 20);
        tb.mem(0).write(src, &vec![3u8; 1 << 20]);
        let t0 = tb.now();
        // 16 × 64 KB writes.
        let mut handles = Vec::new();
        for i in 0..16u64 {
            handles.push(tb.post(
                0,
                1,
                WorkRequest::Write {
                    remote_vaddr: dst + i * (64 << 10),
                    local_vaddr: src + (i % 16) * (64 << 10),
                    len: 64 << 10,
                },
            ));
        }
        for h in handles {
            tb.run_until_complete(0, h);
        }
        tb.run_until_idle();
        time_ms.push((tb.now() - t0) as f64 / 1e9);
        retx.push(tb.retransmissions(0) as f64);
        totals.absorb(&tb);
    }
    Figure::new(
        "Ablation: retransmission timeout at 5% loss (1 MB in 64KB writes)",
        "timeout",
        timeouts_us.iter().map(|t| format!("{t}us")).collect(),
        "ms | packets",
    )
    .push_series(Series::new("completion time [ms]", time_ms))
    .push_series(Series::new("retransmitted packets", retx))
    .push_note(totals.note())
}
