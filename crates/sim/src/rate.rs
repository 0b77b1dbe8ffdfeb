//! Bandwidth and serialization models for links and buses.
//!
//! A 10 G Ethernet port, a 100 G CMAC, and a PCIe Gen3 link all share the
//! same first-order model: bytes are serialized at a fixed rate onto a
//! shared medium, so a transmission occupies the medium for
//! `bytes / bandwidth` and back-to-back transmissions queue behind each
//! other. [`LinkSerializer`] captures exactly that "busy until" behaviour.

use crate::time::{Time, TimeDelta};

/// A data rate, stored as bits per second.
///
/// # Examples
///
/// ```
/// use strom_sim::Bandwidth;
/// let tenge = Bandwidth::gbit_per_sec(10.0);
/// // 1250 bytes at 10 Gbit/s take exactly 1 us.
/// assert_eq!(tenge.transfer_time_ps(1250), 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    bits_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from Gbit/s.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive.
    pub fn gbit_per_sec(gbps: f64) -> Self {
        assert!(gbps > 0.0, "bandwidth must be positive");
        Self {
            bits_per_sec: gbps * 1e9,
        }
    }

    /// Creates a bandwidth from bit/s: `8 ×` [`Self::bytes_per_sec`].
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not strictly positive.
    pub fn bit_per_sec(bps: f64) -> Self {
        assert!(bps > 0.0, "bandwidth must be positive");
        Self { bits_per_sec: bps }
    }

    /// Creates a bandwidth from GB/s (gigabytes per second).
    pub fn gbyte_per_sec(gbps: f64) -> Self {
        Self::gbit_per_sec(gbps * 8.0)
    }

    /// The rate in Gbit/s.
    pub fn as_gbit_per_sec(&self) -> f64 {
        self.bits_per_sec / 1e9
    }

    /// The time to serialize `bytes` at this rate, in picoseconds
    /// (rounded up so a transfer never takes zero time).
    pub fn transfer_time_ps(&self, bytes: u64) -> TimeDelta {
        if bytes == 0 {
            return 0;
        }
        let ps = (bytes as f64 * 8.0) / self.bits_per_sec * 1e12;
        ceil_ps(ps).max(1)
    }

    /// The sustained rate in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bits_per_sec / 8.0
    }
}

/// `ps.ceil() as TimeDelta` for a non-negative `ps`, without the libm
/// call: truncate, then add one if anything was cut off. Exact below
/// 2^53, and at or above it every `f64` is already an integer, so the
/// truncation loses nothing; it saturates where the cast does.
#[inline]
fn ceil_ps(ps: f64) -> TimeDelta {
    let t = ps as TimeDelta;
    if (t as f64) < ps {
        t.saturating_add(1)
    } else {
        t
    }
}

/// Serializes transmissions onto a shared medium, queueing behind earlier
/// ones — the core of the link, PCIe, and memory-bus models.
///
/// `admit` returns the interval `[start, end)` during which the given
/// transmission occupies the medium when submitted at `now`: it starts at
/// `max(now, busy_until)` and holds the medium for the serialization time.
#[derive(Debug, Clone)]
pub struct LinkSerializer {
    bandwidth: Bandwidth,
    busy_until: Time,
    /// Total bytes admitted, for utilization reports.
    bytes_total: u64,
}

impl LinkSerializer {
    /// Creates an idle serializer with the given bandwidth.
    pub fn new(bandwidth: Bandwidth) -> Self {
        Self {
            bandwidth,
            busy_until: 0,
            bytes_total: 0,
        }
    }

    /// The configured bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The time until which the medium is currently occupied.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Total bytes admitted so far.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Admits a transmission of `bytes` submitted at `now`; returns
    /// `(start, end)` of its occupancy of the medium.
    pub fn admit(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        self.admit_with_overhead(now, bytes, 0)
    }

    /// Admits a transmission that also occupies the medium for a fixed
    /// per-command `overhead` (descriptor processing, TLP headers) — the
    /// cost that makes small random DMA commands so much less efficient
    /// than sequential streams.
    pub fn admit_with_overhead(&mut self, now: Time, bytes: u64, overhead: Time) -> (Time, Time) {
        let start = now.max(self.busy_until);
        let end = start + self.bandwidth.transfer_time_ps(bytes) + overhead;
        self.busy_until = end;
        self.bytes_total += bytes;
        (start, end)
    }

    /// Resets occupancy and counters (for reusing a testbed across runs).
    pub fn reset(&mut self) {
        self.busy_until = 0;
        self.bytes_total = 0;
    }
}

/// Spaces transmissions to a *variable* target rate — the transmit-side
/// half of a congestion-control loop.
///
/// Unlike [`LinkSerializer`], whose bandwidth is a fixed property of the
/// medium, a pacer is told the current rate on every call (DCQCN adjusts
/// it between packets). `pace` returns the earliest time the given
/// transmission may start so that consecutive transmissions average the
/// requested rate: each packet reserves `bytes / rate` of pacer time
/// starting at `max(now, next_slot)`.
///
/// A pacer never delays below line rate on its own — callers feed its
/// result into [`LinkSerializer::admit`] as the submission time, so the
/// effective start is the later of the paced slot and the link's own
/// `busy_until`, and timer re-arming based on `busy_until` keeps working
/// unchanged.
#[derive(Debug, Clone, Default)]
pub struct Pacer {
    next_slot: Time,
}

impl Pacer {
    /// Creates an idle pacer (first transmission is never delayed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves pacer time for `bytes` at `rate`; returns the earliest
    /// permitted start of this transmission.
    pub fn pace(&mut self, now: Time, bytes: u64, rate: Bandwidth) -> Time {
        let start = now.max(self.next_slot);
        self.next_slot = start + rate.transfer_time_ps(bytes);
        start
    }

    /// The earliest time the next transmission may start (the end of the
    /// last reservation) — where to schedule a transmit-queue wakeup.
    pub fn next_ready(&self) -> Time {
        self.next_slot
    }

    /// Resets the pacer to idle.
    pub fn reset(&mut self) {
        self.next_slot = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MICROS;

    #[test]
    fn ten_gig_serialization_times() {
        let bw = Bandwidth::gbit_per_sec(10.0);
        assert_eq!(bw.transfer_time_ps(1250), MICROS);
        // 64 B at 10 Gbit/s = 51.2 ns.
        assert_eq!(bw.transfer_time_ps(64), 51_200);
        assert_eq!(bw.transfer_time_ps(0), 0);
    }

    #[test]
    fn gbyte_constructor_matches_gbit() {
        let a = Bandwidth::gbyte_per_sec(1.0);
        let b = Bandwidth::gbit_per_sec(8.0);
        assert_eq!(a.transfer_time_ps(1000), b.transfer_time_ps(1000));
    }

    #[test]
    fn tiny_transfers_take_at_least_one_ps() {
        let bw = Bandwidth::gbit_per_sec(100.0);
        assert!(bw.transfer_time_ps(1) >= 1);
    }

    #[test]
    fn serializer_queues_back_to_back() {
        let mut link = LinkSerializer::new(Bandwidth::gbit_per_sec(10.0));
        let (s1, e1) = link.admit(0, 1250);
        assert_eq!((s1, e1), (0, MICROS));
        // Submitted while busy: starts when the first ends.
        let (s2, e2) = link.admit(100, 1250);
        assert_eq!((s2, e2), (MICROS, 2 * MICROS));
        // Submitted after idle: starts immediately.
        let (s3, _) = link.admit(5 * MICROS, 1250);
        assert_eq!(s3, 5 * MICROS);
        assert_eq!(link.bytes_total(), 3750);
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut link = LinkSerializer::new(Bandwidth::gbit_per_sec(10.0));
        link.admit(0, 10_000);
        link.reset();
        assert_eq!(link.busy_until(), 0);
        assert_eq!(link.bytes_total(), 0);
    }

    /// The transfer time as it was computed with the libm `ceil`.
    fn transfer_time_libm(bw: Bandwidth, bytes: u64) -> TimeDelta {
        if bytes == 0 {
            return 0;
        }
        let ps = (bytes as f64 * 8.0) / bw.bits_per_sec * 1e12;
        (ps.ceil() as TimeDelta).max(1)
    }

    #[test]
    fn inline_ceil_is_bit_identical_to_libm_at_every_configured_rate() {
        // The kernel stream rates of the 10 G (8 B at 156.25 MHz) and
        // 100 G (64 B at 322 MHz) datapaths, built as the NIC builds them
        // for a kernel of `cycles` cycles per word.
        let stream = |bytes: f64, mhz: f64, cycles: u64| {
            Bandwidth::gbyte_per_sec(bytes * mhz * 1e6 / cycles as f64 / 1e9)
        };
        let mut rates = vec![
            // NIC links and switch ports.
            Bandwidth::gbit_per_sec(10.0),
            Bandwidth::gbit_per_sec(100.0),
            // PCIe Gen3 x8 and x16.
            Bandwidth::gbyte_per_sec(6.6),
            Bandwidth::gbyte_per_sec(13.0),
        ];
        for cycles in 1..=8 {
            rates.push(stream(8.0, 156.25, cycles));
            rates.push(stream(64.0, 322.0, cycles));
        }
        for bw in rates {
            for bytes in 0..=65_536 {
                assert_eq!(
                    bw.transfer_time_ps(bytes),
                    transfer_time_libm(bw, bytes),
                    "{bw:?}, {bytes} B"
                );
            }
        }
        // Near 2^53, where the f64 spacing reaches one.
        let edge = (1u64 << 53) as f64;
        for ps in [
            edge - 1.5,
            edge - 1.0,
            edge - 0.5,
            edge,
            edge + 2.0,
            0.0,
            0.5,
            1.0,
        ] {
            assert_eq!(ceil_ps(ps), ps.ceil() as TimeDelta, "{ps}");
        }
        let mut x = edge;
        for _ in 0..64 {
            x = f64::from_bits(x.to_bits() - 1);
            assert_eq!(ceil_ps(x), x.ceil() as TimeDelta, "{x}");
        }
    }

    #[test]
    fn pacer_spaces_packets_to_the_requested_rate() {
        let mut p = Pacer::new();
        let half = Bandwidth::gbit_per_sec(5.0);
        // 1250 B at 5 Gbit/s reserve 2 us of pacer time each.
        assert_eq!(p.pace(0, 1250, half), 0);
        assert_eq!(p.pace(0, 1250, half), 2 * MICROS);
        assert_eq!(p.pace(0, 1250, half), 4 * MICROS);
        // An idle gap larger than the reservation is not credited back.
        assert_eq!(p.pace(100 * MICROS, 1250, half), 100 * MICROS);
    }

    #[test]
    fn pacer_tracks_rate_changes_immediately() {
        let mut p = Pacer::new();
        assert_eq!(p.pace(0, 1250, Bandwidth::gbit_per_sec(10.0)), 0);
        // Rate halves: the next packet is spaced at the new rate from the
        // previous reservation's end.
        assert_eq!(p.pace(0, 1250, Bandwidth::gbit_per_sec(5.0)), MICROS);
        assert_eq!(p.pace(0, 1250, Bandwidth::gbit_per_sec(5.0)), 3 * MICROS);
    }

    #[test]
    fn utilization_approaches_line_rate() {
        // Admitting 1 MiB in MTU-sized chunks back-to-back must finish in
        // almost exactly size/bandwidth.
        let mut link = LinkSerializer::new(Bandwidth::gbit_per_sec(10.0));
        let total: u64 = 1 << 20;
        let mut sent = 0;
        let mut end = 0;
        while sent < total {
            let chunk = 1500.min(total - sent);
            let (_, e) = link.admit(0, chunk);
            end = e;
            sent += chunk;
        }
        let ideal = Bandwidth::gbit_per_sec(10.0).transfer_time_ps(total);
        assert!(end >= ideal);
        assert!(end < ideal + 1000, "rounding should cost <1ns total");
    }
}
