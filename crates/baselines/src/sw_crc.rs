//! The "READ+SW" baseline: RDMA READ plus software CRC64 on the client.
//!
//! §6.3/Fig 9: the client reads the object with a one-sided READ and
//! verifies the Pilaf-style inline checksum on its own CPU. "With
//! increasing object size, the CRC64 calculation in software introduces up
//! to 40 % overhead" — CRC64 "is inherently sequential" and has no SIMD or
//! dedicated instruction (footnote 8). On an inconsistent read the client
//! must re-read over the *network* (Fig 10), which is what makes StRoM's
//! PCIe-side retry so much cheaper.
//!
//! "Inherently sequential" is the model of the *simulated* client CPU:
//! [`SwCrcModel`] charges 0.8 ns per byte whatever the host does. The
//! host-side [`crc64`] that checks the bytes folds with PCLMULQDQ
//! (`strom_wire::clmul`); that only shortens the simulator's wall time.

use strom_kernels::consistency::verify_object;
use strom_kernels::crc64::crc64;
use strom_nic::Testbed;
use strom_sim::time::{Time, TimeDelta};

use crate::onesided::OneSidedClient;

/// CPU cost model for software CRC64.
#[derive(Debug, Clone, Copy)]
pub struct SwCrcModel {
    /// Sequential CRC64 cost per byte, in picoseconds (≈0.8 ns/B ≈
    /// 1.25 GB/s table-driven, matching the paper's ≤40 % overhead at
    /// 4 KB).
    pub per_byte_ps: TimeDelta,
}

impl Default for SwCrcModel {
    fn default() -> Self {
        Self::new()
    }
}

impl SwCrcModel {
    /// The calibrated model.
    pub fn new() -> Self {
        SwCrcModel { per_byte_ps: 800 }
    }

    /// CPU time to checksum `len` bytes.
    pub fn crc_time(&self, len: usize) -> TimeDelta {
        self.per_byte_ps * len as u64
    }

    /// Reads a CRC-stamped object and verifies it in software, re-reading
    /// over the network until the check passes (the FaRM/Pilaf optimistic
    /// pattern). The checksum is *really computed* on the fetched bytes;
    /// CPU time is charged to the simulated clock.
    ///
    /// Returns `(object_bytes, completion_time, attempts)`.
    pub fn verified_read(
        &self,
        tb: &mut Testbed,
        client: &mut OneSidedClient,
        object_addr: u64,
        object_len: u32,
        max_attempts: u32,
    ) -> (Vec<u8>, Time, u32) {
        let mut attempts = 0;
        loop {
            let (object, _) = client.read_blocking(tb, object_addr, object_len);
            attempts += 1;
            // Charge the sequential software checksum pass.
            tb.advance(self.crc_time(object.len()));
            let stored = u64::from_le_bytes(object[..8].try_into().expect("sized"));
            if crc64(&object[8..]) == stored {
                debug_assert!(verify_object(&object));
                return (object, tb.now(), attempts);
            }
            if attempts >= max_attempts {
                return (Vec::new(), tb.now(), attempts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_kernels::layouts::{build_object_store, value_pattern};
    use strom_nic::NicConfig;
    use strom_sim::time::MICROS;

    fn setup() -> (Testbed, OneSidedClient, u64) {
        let mut tb = Testbed::new(NicConfig::ten_gig());
        tb.connect_qp(1);
        let scratch = tb.pin(0, 1 << 20);
        let server = tb.pin(1, 1 << 20);
        (tb, OneSidedClient::new(0, 1, scratch, 1 << 20), server)
    }

    #[test]
    fn clean_object_verifies_in_one_attempt() {
        let (mut tb, mut client, server) = setup();
        let store = build_object_store(tb.mem(1), server, 1, 512);
        let model = SwCrcModel::new();
        let t0 = tb.now();
        let (obj, t1, attempts) = model.verified_read(
            &mut tb,
            &mut client,
            store.object_addrs[0],
            store.object_size(),
            8,
        );
        assert_eq!(attempts, 1);
        assert_eq!(&obj[8..], value_pattern(1, 512));
        assert!(t1 > t0);
        tb.run_until_idle();
    }

    #[test]
    fn crc_overhead_is_at_most_40_percent_at_4k() {
        // Fig 9's calibration target: READ+SW ≤ ~1.4 × READ at 4 KB.
        let (mut tb, mut client, server) = setup();
        let store = build_object_store(tb.mem(1), server, 1, 4096 - 8);
        let addr = store.object_addrs[0];
        let size = store.object_size();
        // Plain READ.
        let t0 = tb.now();
        let (_, t1) = client.read_blocking(&mut tb, addr, size);
        let plain = t1 - t0;
        // READ + SW check.
        let model = SwCrcModel::new();
        let t2 = tb.now();
        let (_, t3, _) = model.verified_read(&mut tb, &mut client, addr, size, 8);
        let checked = t3 - t2;
        let overhead = checked as f64 / plain as f64 - 1.0;
        assert!(
            (0.15..0.45).contains(&overhead),
            "SW CRC overhead = {:.1}% (plain {} µs)",
            overhead * 100.0,
            plain as f64 / MICROS as f64
        );
        tb.run_until_idle();
    }

    #[test]
    fn corrupt_object_forces_network_retries() {
        let (mut tb, mut client, server) = setup();
        let store = build_object_store(tb.mem(1), server, 1, 128);
        let addr = store.object_addrs[0];
        // Corrupt the stored object permanently.
        let mut b = tb.mem(1).read(addr + 30, 1);
        b[0] ^= 0xff;
        tb.mem(1).write(addr + 30, &b);
        let model = SwCrcModel::new();
        let (obj, _, attempts) =
            model.verified_read(&mut tb, &mut client, addr, store.object_size(), 3);
        assert!(obj.is_empty());
        assert_eq!(attempts, 3, "every attempt re-reads over the network");
        tb.run_until_idle();
    }

    #[test]
    fn crc_time_scales_linearly() {
        let m = SwCrcModel::new();
        assert_eq!(m.crc_time(4096), 4096 * 800);
        assert_eq!(m.crc_time(0), 0);
    }
}
