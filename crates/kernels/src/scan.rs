//! A substring scan kernel: pattern counting over RDMA byte streams.
//!
//! Grep-style predicate push-down is the classic Smart-SSD/Ibex \[55\]
//! workload; on StRoM it becomes a bump-in-the-wire over the receive
//! stream. The kernel counts occurrences of a fixed byte pattern
//! (1 ..= 32 B) in the RPC WRITE payload and returns a 16 B summary
//! `(bytes_scanned, matches)` — the data stays on its way to host memory,
//! the answer is a fixed-size record.
//!
//! The hot loop is [`substring_count`]: a 32-lane first-byte comparison
//! ([`crate::simd::U8x32::eq_bitmask`]) whittles each block down to
//! candidate offsets, and only those are verified with a full compare —
//! the SIMD analogue of the FPGA's parallel shift-register matchers.
//! Differential-tested against the naive nested loop
//! ([`substring_count_reference`]) at every alignment.

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent};
use crate::simd::{bytes_equal, U8x32};
use crate::simd_dispatch;

/// Longest supported pattern in bytes.
pub const MAX_PATTERN: usize = 32;

simd_dispatch! {
    /// Counts (possibly overlapping) occurrences of `pattern` in
    /// `haystack`. Vectorized first-byte scan + candidate verification;
    /// reference: [`substring_count_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is empty or longer than [`MAX_PATTERN`].
    pub fn substring_count(haystack: &[u8], pattern: &[u8]) -> u64 {
        assert!(
            !pattern.is_empty() && pattern.len() <= MAX_PATTERN,
            "pattern must be 1..=32 bytes"
        );
        if haystack.len() < pattern.len() {
            return 0;
        }
        let first = U8x32::splat(pattern[0]);
        let last_start = haystack.len() - pattern.len();
        let mut count = 0u64;
        let mut base = 0usize;
        // Whole 32-byte windows of candidate *start* positions.
        while base + 32 <= last_start + 1 {
            let block = U8x32::load(&haystack[base..base + 32]);
            let mut mask = block.eq_bitmask(first);
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let s = base + i;
                if bytes_equal(&haystack[s..s + pattern.len()], pattern) {
                    count += 1;
                }
            }
            base += 32;
        }
        // Scalar tail of start positions.
        for s in base..=last_start {
            if haystack[s] == pattern[0]
                && bytes_equal(&haystack[s..s + pattern.len()], pattern)
            {
                count += 1;
            }
        }
        count
    }
}

/// Naive nested-loop reference for [`substring_count`].
///
/// # Panics
///
/// Panics if `pattern` is empty or longer than [`MAX_PATTERN`].
pub fn substring_count_reference(haystack: &[u8], pattern: &[u8]) -> u64 {
    assert!(
        !pattern.is_empty() && pattern.len() <= MAX_PATTERN,
        "pattern must be 1..=32 bytes"
    );
    if haystack.len() < pattern.len() {
        return 0;
    }
    let mut count = 0u64;
    for s in 0..=haystack.len() - pattern.len() {
        if haystack[s..s + pattern.len()] == *pattern {
            count += 1;
        }
    }
    count
}

/// Parameters of the substring scan kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanParams {
    /// Requester-side address the 16 B summary is written to.
    pub target_address: u64,
    /// The pattern (1 ..= 32 bytes).
    pub pattern: Vec<u8>,
}

/// Encoded parameter length in bytes.
pub const SCAN_PARAMS_LEN: usize = 48;

impl ScanParams {
    /// Encodes into the RPC Params payload.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty or longer than [`MAX_PATTERN`].
    pub fn encode(&self) -> Bytes {
        assert!(
            !self.pattern.is_empty() && self.pattern.len() <= MAX_PATTERN,
            "pattern must be 1..=32 bytes"
        );
        let mut out = [0u8; SCAN_PARAMS_LEN];
        out[0..8].copy_from_slice(&self.target_address.to_le_bytes());
        out[8] = self.pattern.len() as u8;
        out[16..16 + self.pattern.len()].copy_from_slice(&self.pattern);
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<ScanParams> {
        if buf.len() < SCAN_PARAMS_LEN {
            return None;
        }
        let len = buf[8] as usize;
        if len == 0 || len > MAX_PATTERN {
            return None;
        }
        Some(ScanParams {
            target_address: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            pattern: buf[16..16 + len].to_vec(),
        })
    }
}

#[derive(Debug, Default)]
enum State {
    #[default]
    Unconfigured,
    Active {
        qpn: Qpn,
        params: ScanParams,
    },
}

/// The substring scan kernel FSM.
#[derive(Debug, Default)]
pub struct SubstringScanKernel {
    state: State,
    /// The trailing `pattern_len - 1` bytes of the stream so far, so
    /// matches spanning packet boundaries are found exactly once (a match
    /// fits entirely in the carry only if it were shorter than the
    /// pattern — impossible).
    carry: Vec<u8>,
    /// Payload bytes observed in the current invocation.
    bytes_scanned: u64,
    /// Matches counted so far.
    matches: u64,
}

impl SubstringScanKernel {
    /// Creates an unconfigured kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(bytes_scanned, matches)` counters (Controller status view).
    pub fn counters(&self) -> (u64, u64) {
        (self.bytes_scanned, self.matches)
    }

    /// Encodes the 16 B summary `(bytes_scanned, matches)`.
    pub fn encode_summary(bytes_scanned: u64, matches: u64) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&bytes_scanned.to_le_bytes());
        out[8..16].copy_from_slice(&matches.to_le_bytes());
        out
    }

    /// Decodes a summary into `(bytes_scanned, matches)`.
    pub fn decode_summary(buf: &[u8]) -> Option<(u64, u64)> {
        if buf.len() < 16 {
            return None;
        }
        Some((
            u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
        ))
    }

    fn ingest(&mut self, pattern: &[u8], data: &[u8]) {
        self.bytes_scanned += data.len() as u64;
        let mut window = std::mem::take(&mut self.carry);
        window.extend_from_slice(data);
        // Consecutive windows overlap in exactly the carry (pattern_len-1
        // bytes) — too short to contain a whole match, so counting every
        // match in each window counts each stream match exactly once.
        if window.len() >= pattern.len() {
            self.matches += substring_count(&window, pattern);
            let keep = pattern.len() - 1;
            let from = window.len() - keep.min(window.len());
            self.carry = window[from..].to_vec();
        } else {
            self.carry = window;
        }
    }
}

impl Kernel for SubstringScanKernel {
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::SCAN
    }

    fn name(&self) -> &'static str {
        "scan"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => {
                self.carry.clear();
                self.bytes_scanned = 0;
                self.matches = 0;
                // Malformed params drop the configuration; either way the
                // invocation completes and frees the slot.
                self.state = match ScanParams::decode(&params) {
                    Some(p) => State::Active { qpn, params: p },
                    None => State::Unconfigured,
                };
                out.push(KernelAction::Done);
            }
            KernelEvent::RoceData { data, last, .. } => {
                let State::Active { qpn, params } = &self.state else {
                    return;
                };
                let (qpn, target) = (*qpn, params.target_address);
                let pattern = params.pattern.clone();
                self.ingest(&pattern, &data);
                if last {
                    out.extend([
                        KernelAction::RoceSend {
                            qpn,
                            remote_vaddr: target,
                            data: Bytes::copy_from_slice(&Self::encode_summary(
                                self.bytes_scanned,
                                self.matches,
                            )),
                        },
                        KernelAction::Done,
                    ]);
                }
            }
            KernelEvent::DmaData { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testing::{check_malformed_invoke, sevens, DONE};

    fn lcg_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Tiny alphabet → plenty of matches and near-misses.
                b'a' + ((s >> 33) % 4) as u8
            })
            .collect()
    }

    #[test]
    fn count_matches_reference_at_every_alignment() {
        let hay = lcg_bytes(1000, 42);
        for plen in [1usize, 2, 3, 5, 8, 31, 32] {
            let pattern = &hay[17..17 + plen];
            for off in 0..4 {
                for len in [0usize, 1, plen - 1, plen, 100, 999 - off] {
                    let sub = &hay[off..off + len.min(hay.len() - off)];
                    assert_eq!(
                        substring_count(sub, pattern),
                        substring_count_reference(sub, pattern),
                        "plen={plen} off={off} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlapping_matches_count_each_position() {
        assert_eq!(substring_count(b"aaaa", b"aa"), 3);
        assert_eq!(substring_count_reference(b"aaaa", b"aa"), 3);
    }

    #[test]
    fn params_round_trip() {
        let p = ScanParams {
            target_address: 0xfeed,
            pattern: b"needle".to_vec(),
        };
        assert_eq!(ScanParams::decode(&p.encode()), Some(p));
        assert!(ScanParams::decode(&[0u8; 16]).is_none());
        let mut zero = [0u8; SCAN_PARAMS_LEN];
        zero[8] = 0; // pattern_len = 0
        assert!(ScanParams::decode(&zero).is_none());
    }

    #[test]
    fn kernel_counts_across_packet_boundaries() {
        let hay = lcg_bytes(5000, 7);
        let pattern = b"abab".to_vec();
        let expect = substring_count_reference(&hay, &pattern);
        assert!(expect > 0, "test data must contain matches");
        for chunk_size in [1usize, 3, 7, 32, 1440] {
            let mut k = SubstringScanKernel::new();
            k.on_event(KernelEvent::Invoke {
                qpn: 1,
                params: ScanParams {
                    target_address: 0x5000,
                    pattern: pattern.clone(),
                }
                .encode(),
            });
            let mut fed = 0;
            let mut summary = None;
            for chunk in hay.chunks(chunk_size) {
                fed += chunk.len();
                for a in k.on_event(KernelEvent::RoceData {
                    qpn: 1,
                    data: Bytes::copy_from_slice(chunk),
                    last: fed == hay.len(),
                }) {
                    if let KernelAction::RoceSend { data, .. } = a {
                        summary = SubstringScanKernel::decode_summary(&data);
                    }
                }
            }
            assert_eq!(
                summary,
                Some((hay.len() as u64, expect)),
                "chunk_size = {chunk_size}"
            );
        }
    }

    #[test]
    fn malformed_invoke_drops_the_configuration() {
        let mut k = SubstringScanKernel::new();
        k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: ScanParams {
                target_address: 0x5000,
                pattern: vec![7],
            }
            .encode(),
        });
        check_malformed_invoke(&mut k, Bytes::from_static(&[0]), DONE, sevens(), &[]);
    }

    #[test]
    fn data_before_configuration_is_ignored() {
        let mut k = SubstringScanKernel::new();
        assert!(k
            .on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::from_static(b"zzz"),
                last: true,
            })
            .is_empty());
    }
}
