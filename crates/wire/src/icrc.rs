//! The invariant CRC (ICRC) trailer of RoCE packets.
//!
//! Every RoCE packet carries a 4-byte CRC-32 over the fields that are
//! invariant end-to-end. Its presence matters for timing: the transmitter
//! must see the whole packet before it can append the ICRC, and the
//! receiver must see the whole packet before it can validate it, forcing
//! **store-and-forward** at both ends (§7.1: a full MTU is 176 words at
//! 8 B versus 22 words at 64 B, which is why the 100 G datapath cuts
//! latency by more than the clock ratio alone).
//!
//! We compute a real CRC-32 (the IB polynomial `0x04C11DB7`, reflected
//! form `0xEDB88320`) over the packet bytes. We do not reproduce the IB
//! rule that masks variant header fields to `0xff` before hashing — the
//! simulated link never rewrites TTL/DSCP, so the distinction is
//! unobservable here (noted in DESIGN.md §8).
//!
//! The hot path is **slice-by-16**: sixteen 256-entry tables let the loop
//! consume sixteen input bytes per step instead of one, the same
//! table-composition trick production CRC libraries use. The FPGA computes
//! the ICRC over a full datapath word per cycle; slicing is the software
//! move in the same direction, and on the simulator it takes the two
//! per-frame CRC passes (TX append + RX check) off the critical path. The
//! original byte-at-a-time loop is kept as [`icrc_reference`] — the
//! differential property tests in `tests/prop.rs` compare against it.

/// Length of the ICRC trailer.
pub const ICRC_LEN: usize = 4;

/// The sixteen slice-by-16 lookup tables for the reflected polynomial
/// `0xEDB88320`. `t[0]` is the classic byte-at-a-time table; `t[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes, so
/// sixteen single-byte steps fuse into one sixteen-way XOR.
fn tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 16]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    })
}

/// Computes the ICRC over `data` (slice-by-16 fast path).
pub fn icrc(data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = 0xffff_ffffu32;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes(c[0..4].try_into().expect("sized"));
        crc = t[15][(lo & 0xff) as usize]
            ^ t[14][((lo >> 8) & 0xff) as usize]
            ^ t[13][((lo >> 16) & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// The original byte-at-a-time ICRC — the reference implementation the
/// slice-by-16 fast path is differential-tested (and benchmarked) against.
pub fn icrc_reference(data: &[u8]) -> u32 {
    let t = &tables()[0];
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Appends the ICRC of everything currently in `buf` to `buf`.
pub fn append_icrc(buf: &mut Vec<u8>) {
    let crc = icrc(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Splits `buf` into `(body, ok)` where `ok` says whether the trailing
/// ICRC matches the body.
pub fn check_icrc(buf: &[u8]) -> Option<(&[u8], bool)> {
    if buf.len() < ICRC_LEN {
        return None;
    }
    let (body, trailer) = buf.split_at(buf.len() - ICRC_LEN);
    let got = u32::from_le_bytes(trailer.try_into().expect("sized slice"));
    Some((body, got == icrc(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic CRC-32 check value.
        assert_eq!(icrc(b"123456789"), 0xCBF4_3926);
        assert_eq!(icrc_reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(icrc(b""), 0);
        assert_eq!(icrc_reference(b""), 0);
    }

    #[test]
    fn sliced_matches_reference_across_lengths() {
        // Every length through a few chunk boundaries, with nonuniform data.
        let data: Vec<u8> = (0..100u32)
            .map(|i| (i.wrapping_mul(37) % 251) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                icrc(&data[..len]),
                icrc_reference(&data[..len]),
                "len = {len}"
            );
        }
    }

    #[test]
    fn append_then_check_round_trips() {
        let mut buf = b"the packet body".to_vec();
        append_icrc(&mut buf);
        let (body, ok) = check_icrc(&buf).unwrap();
        assert!(ok);
        assert_eq!(body, b"the packet body");
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = b"the packet body".to_vec();
        append_icrc(&mut buf);
        buf[3] ^= 0x10;
        let (_, ok) = check_icrc(&buf).unwrap();
        assert!(!ok);
    }

    #[test]
    fn trailer_corruption_is_detected() {
        let mut buf = b"x".to_vec();
        append_icrc(&mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let (_, ok) = check_icrc(&buf).unwrap();
        assert!(!ok);
    }

    #[test]
    fn short_buffer_has_no_icrc() {
        assert!(check_icrc(&[1, 2, 3]).is_none());
    }
}
