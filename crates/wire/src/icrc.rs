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
//! The hot path is a **carry-less-multiply fold** ([`crate::clmul`]): on
//! an x86-64 host with PCLMULQDQ, inputs of at least
//! [`FOLD_MIN_LEN`](crate::clmul::FOLD_MIN_LEN) bytes are folded 64 bytes
//! per step into a 16-byte residue, which one slice-by-16 step and the
//! tail finish. The FPGA computes the ICRC over a full datapath word
//! per cycle; the fold is the software move in the same direction, and on
//! the simulator it takes the two per-frame CRC passes (TX append + RX
//! check) off the critical path. **Slice-by-16** — sixteen 256-entry
//! tables consuming sixteen input bytes per step — is the portable path,
//! the short-input path and the residue finish; the byte-at-a-time loop
//! takes the last block's tail. The original
//! byte-at-a-time loop is kept as [`icrc_reference`]; the differential
//! tests here and in `tests/prop.rs` compare both paths against it.

use crate::clmul::Fold;

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

/// One slice-by-16 step: advances `crc` over a 16-byte block.
#[inline(always)]
fn step16(t: &[[u32; 256]; 16], crc: u32, c: &[u8; 16]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    t[15][(lo & 0xff) as usize]
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
        ^ t[0][c[15] as usize]
}

/// The table path: slice-by-16 over whole blocks, then the byte loop
/// over the tail. Advances the raw (un-inverted) register `crc` over
/// `data`.
fn update_table(t: &[[u32; 256]; 16], mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<16>();
    for c in blocks {
        crc = step16(t, crc, c);
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// The fold constants of the IB polynomial.
const FOLD: Fold<false> = Fold::reflected32(0x04C1_1DB7);

/// The CRC-32 register before the first byte.
const INIT: u32 = 0xffff_ffff;

/// Computes the ICRC over `data`: the carry-less-multiply fold where it
/// applies, its residue and the tail through the table path.
pub fn icrc(data: &[u8]) -> u32 {
    match FOLD.fold(u64::from(INIT), data) {
        Some((residue, tail)) => {
            let t = tables();
            !update_table(t, update_table(t, 0, &residue), tail)
        }
        None => icrc_table(data),
    }
}

/// The ICRC on the table path alone — what [`icrc`] computes for short
/// inputs and on hosts without PCLMULQDQ.
fn icrc_table(data: &[u8]) -> u32 {
    !update_table(tables(), INIT, data)
}

/// The original byte-at-a-time ICRC — the reference implementation the
/// fold and the slice-by-16 path are differential-tested against.
pub fn icrc_reference(data: &[u8]) -> u32 {
    let t = &tables()[0];
    let mut crc = INIT;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
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
    use crate::DEFAULT_MTU;
    use strom_sim::SimRng;

    /// Appends the ICRC of everything currently in `buf` to `buf`.
    fn append_icrc(buf: &mut Vec<u8>) {
        let crc = icrc(buf);
        buf.extend_from_slice(&crc.to_le_bytes());
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        SimRng::seed(seed).fill_bytes(&mut data);
        data
    }

    #[test]
    fn crc32_known_vector() {
        // The classic CRC-32 check value.
        assert_eq!(icrc(b"123456789"), 0xCBF4_3926);
        assert_eq!(icrc_table(b"123456789"), 0xCBF4_3926);
        assert_eq!(icrc_reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(icrc(b""), 0);
        assert_eq!(icrc_reference(b""), 0);
    }

    #[test]
    fn both_paths_match_reference_at_every_length() {
        // Every length from empty through four MTUs: every tail length
        // mod 16 and mod 64, with and without a four-lane loop. The table
        // path is called directly, so it stays covered on a host whose
        // `icrc` takes the fold.
        let data = seeded_bytes(0x1c2c, 4 * DEFAULT_MTU);
        for len in 0..=data.len() {
            let want = icrc_reference(&data[..len]);
            assert_eq!(icrc(&data[..len]), want, "dispatched, len = {len}");
            assert_eq!(icrc_table(&data[..len]), want, "table, len = {len}");
        }
    }

    #[test]
    fn both_paths_match_reference_at_seeded_windows() {
        // Unaligned starts: the fold's loads must not care where in the
        // buffer a block begins.
        let data = seeded_bytes(0x0ff5e7, 16 * 1024);
        let mut rng = SimRng::seed(18);
        for _ in 0..500 {
            let off = rng.below(data.len() as u64) as usize;
            let len = rng.below((data.len() - off) as u64 + 1) as usize;
            let window = &data[off..off + len];
            let want = icrc_reference(window);
            assert_eq!(icrc(window), want, "dispatched, off = {off}, len = {len}");
            assert_eq!(icrc_table(window), want, "table, off = {off}, len = {len}");
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
