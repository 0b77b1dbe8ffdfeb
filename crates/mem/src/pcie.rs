//! PCIe timing model.
//!
//! Calibration comes from the paper:
//!
//! - A small read over PCIe "takes around 1.5 µs" round trip (§6.2,
//!   footnote 7) — versus ~80 ns for a CPU DRAM access.
//! - The 10 G board (Alpha Data, Gen3 x8) has a PCIe-to-network bandwidth
//!   ratio of "around 6:1", the VCU118 (Gen3 x16) "close to 1:1" (§7).
//! - Random access (the shuffle kernel's 128 B partition flushes) "reduces
//!   the effective PCIe bandwidth sufficiently such that it can no longer
//!   keep up with the network bandwidth" at 100 G, while sustaining line
//!   rate at 10 G (§7) — captured by a per-command overhead.
//! - At 100 G the message rate is "limited by the rate at which the
//!   application can issue these AVX2 stores and at which the I/O
//!   subsystem can serve them to the NIC over PCIe" (§7.1) — captured by
//!   the command-issue interval.

use strom_sim::time::{TimeDelta, NANOS};
use strom_sim::Bandwidth;

/// Timing constants of one PCIe attachment.
#[derive(Debug, Clone, Copy)]
pub struct PcieModel {
    /// Fixed round-trip latency of a read request before data streams
    /// back (non-posted completion).
    pub read_rtt_base: TimeDelta,
    /// One-way latency of a posted write before it is visible to a CPU
    /// poller.
    pub write_post_latency: TimeDelta,
    /// Sustained data bandwidth of the link.
    pub bandwidth: Bandwidth,
    /// Fixed cost per DMA command (descriptor processing, TLP overhead);
    /// dominates for small random accesses (e.g. the shuffle kernel's
    /// 128 B partition flushes, §7).
    pub cmd_overhead: TimeDelta,
    /// Per-command cost for *stream-oriented* transfers using the DMA
    /// engine's Descriptor Bypass (§4.3: "we enable the Descriptor Bypass
    /// on the DMA IP core which benefits especially stream-oriented
    /// operations that can operate at a high bandwidth while incurring
    /// minimal latency") — sequential TX fetches and RX stores.
    pub bypass_overhead: TimeDelta,
    /// Latency of a host MMIO doorbell write reaching the Controller.
    pub mmio_latency: TimeDelta,
    /// Minimum spacing between successive host command issues (one AVX2
    /// store each, §7.1).
    pub cmd_issue_interval: TimeDelta,
}

impl PcieModel {
    /// PCIe Gen3 x8 — the Alpha Data 7V3 board of the 10 G prototype.
    ///
    /// ~6.6 GB/s effective ≈ 53 Gbit/s: the paper's "around 6:1" ratio to
    /// the 10 G network.
    pub fn gen3_x8() -> Self {
        PcieModel {
            read_rtt_base: 1450 * NANOS,
            write_post_latency: 400 * NANOS,
            bandwidth: Bandwidth::gbyte_per_sec(6.6),
            cmd_overhead: 80 * NANOS,
            bypass_overhead: 25 * NANOS,
            mmio_latency: 300 * NANOS,
            // An older host CPU: ~70 ns between command stores — far above
            // what 10 G needs, so the NIC pipeline remains the limit.
            cmd_issue_interval: 70 * NANOS,
        }
    }

    /// PCIe Gen3 x16 — the VCU118 board of the 100 G version.
    ///
    /// ~13 GB/s ≈ 104 Gbit/s: the paper's "close to 1:1" ratio to the
    /// 100 G network.
    pub fn gen3_x16() -> Self {
        PcieModel {
            read_rtt_base: 1100 * NANOS,
            write_post_latency: 350 * NANOS,
            bandwidth: Bandwidth::gbyte_per_sec(13.0),
            cmd_overhead: 80 * NANOS,
            bypass_overhead: 20 * NANOS,
            mmio_latency: 250 * NANOS,
            // ~26 ns/AVX2-store ≈ 38 M msg/s — the Fig 12c ceiling.
            cmd_issue_interval: 26 * NANOS,
        }
    }

    /// Time from issuing a DMA *read* command until the last byte has
    /// arrived on the card.
    pub fn read_time(&self, len: u32) -> TimeDelta {
        self.read_rtt_base + self.cmd_overhead + self.bandwidth.transfer_time_ps(u64::from(len))
    }

    /// Time from issuing a DMA *write* command until the data is visible
    /// in host memory (posted write + serialization).
    pub fn write_time(&self, len: u32) -> TimeDelta {
        self.write_post_latency
            + self.cmd_overhead
            + self.bandwidth.transfer_time_ps(u64::from(len))
    }

    /// The link-occupancy cost of a command: what back-to-back commands
    /// serialize on (overhead + transfer), excluding the one-time latency.
    pub fn occupancy(&self, len: u32) -> TimeDelta {
        self.cmd_overhead + self.bandwidth.transfer_time_ps(u64::from(len))
    }
}

#[cfg(test)]
mod tests {
    use strom_sim::time::MICROS;

    use super::*;

    #[test]
    fn small_read_is_about_1_5_us() {
        // The paper's headline PCIe constant (§6.2): a pointer-chase step.
        let t = PcieModel::gen3_x8().read_time(64);
        let us = t as f64 / MICROS as f64;
        assert!((1.4..1.65).contains(&us), "read RTT = {us} us");
    }

    #[test]
    fn write_is_cheaper_than_read() {
        let m = PcieModel::gen3_x8();
        assert!(m.write_time(64) < m.read_time(64));
    }

    #[test]
    fn x16_has_roughly_double_bandwidth() {
        let x8 = PcieModel::gen3_x8().bandwidth.as_gbit_per_sec();
        let x16 = PcieModel::gen3_x16().bandwidth.as_gbit_per_sec();
        assert!((1.8..2.2).contains(&(x16 / x8)));
    }

    #[test]
    fn bandwidth_ratios_match_the_paper() {
        // ~6:1 at 10 G, ~1:1 at 100 G (§7).
        let r10 = PcieModel::gen3_x8().bandwidth.as_gbit_per_sec() / 10.0;
        let r100 = PcieModel::gen3_x16().bandwidth.as_gbit_per_sec() / 100.0;
        assert!((5.0..6.5).contains(&r10), "10G ratio = {r10}");
        assert!((0.9..1.2).contains(&r100), "100G ratio = {r100}");
    }

    #[test]
    fn random_128b_writes_sustain_10g_but_not_100g() {
        // The shuffle kernel flushes 128 B partition buffers (§6.4):
        // sequential occupancy must beat 10 Gbit/s arrival on x8 but fall
        // short of 100 Gbit/s arrival on x16.
        let occ8 = PcieModel::gen3_x8().occupancy(128);
        let arrival_10g = Bandwidth::gbit_per_sec(10.0).transfer_time_ps(128);
        assert!(occ8 <= arrival_10g, "{occ8} vs {arrival_10g}");
        let occ16 = PcieModel::gen3_x16().occupancy(128);
        let arrival_100g = Bandwidth::gbit_per_sec(100.0).transfer_time_ps(128);
        assert!(occ16 > arrival_100g, "{occ16} vs {arrival_100g}");
    }

    #[test]
    fn issue_interval_caps_message_rate_near_40m() {
        let m = PcieModel::gen3_x16();
        let per_sec = 1e12 / m.cmd_issue_interval as f64;
        assert!((30e6..45e6).contains(&per_sec), "rate = {per_sec}");
    }

    #[test]
    fn large_transfers_are_bandwidth_bound() {
        let m = PcieModel::gen3_x8();
        let t1 = m.read_time(1 << 20);
        let t2 = m.read_time(2 << 20);
        // Doubling the size roughly doubles the transfer part.
        let transfer1 = t1 - m.read_rtt_base - m.cmd_overhead;
        let transfer2 = t2 - m.read_rtt_base - m.cmd_overhead;
        assert!((1.99..2.01).contains(&(transfer2 as f64 / transfer1 as f64)));
    }
}
