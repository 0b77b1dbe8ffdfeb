//! CRC64 (ECMA-182), the checksum of the consistency kernel.
//!
//! §6.3 offloads a CRC64 data-consistency check to the NIC. The paper
//! notes (footnote 8) that CRC64 "is inherently sequential" with no SIMD
//! or CPU instruction support — which is why the software baseline pays up
//! to 40 % overhead while the FPGA pipeline hides it. This is a real,
//! table-driven implementation used by both the kernel and the software
//! baseline.
//!
//! Footnote 8 describes the *simulated* CPU, and the model keeps it: the
//! software baseline is charged `SwCrcModel::per_byte_ps` per byte whatever
//! the host does. The *host* hashes megabytes per experiment, so here the
//! hot path is the **carry-less-multiply fold** of [`strom_wire::clmul`]:
//! on an x86-64 host with PCLMULQDQ, an [`Crc64::update`] of at least
//! [`FOLD_MIN_LEN`](strom_wire::clmul::FOLD_MIN_LEN) bytes is folded 64
//! bytes per step into a 16-byte residue, which one slice-by-16 step and
//! the byte loop finish. **Slice-by-16** — sixteen composed 256-entry
//! tables consuming sixteen input bytes per step — is the portable path,
//! the short-input path and the residue finish. The byte-at-a-time loop is
//! kept as [`crc64_reference`] for the differential tests. The fold only
//! speeds the host; no simulated time depends on it.

use strom_wire::clmul::Fold;

/// The ECMA-182 polynomial in normal (MSB-first) form.
pub const POLY_ECMA_182: u64 = 0x42F0_E1EB_A9EA_3693;

/// Slice-by-16 tables for the MSB-first polynomial. `t[0]` is the
/// classic byte table; `t[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes.
fn tables() -> &'static [[u64; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u64; 256]; 16]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u64; 256]; 16]);
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = (i as u64) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 {
                    (crc << 1) ^ POLY_ECMA_182
                } else {
                    crc << 1
                };
            }
            *entry = crc;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            }
        }
        t
    })
}

/// One slice-by-16 step: folds a 16-byte block into `crc`.
#[inline(always)]
fn step16(t: &[[u64; 256]; 16], crc: u64, c: &[u8; 16]) -> u64 {
    let x = crc ^ u64::from_be_bytes(c[0..8].try_into().expect("sized"));
    t[15][(x >> 56) as usize]
        ^ t[14][((x >> 48) & 0xff) as usize]
        ^ t[13][((x >> 40) & 0xff) as usize]
        ^ t[12][((x >> 32) & 0xff) as usize]
        ^ t[11][((x >> 24) & 0xff) as usize]
        ^ t[10][((x >> 16) & 0xff) as usize]
        ^ t[9][((x >> 8) & 0xff) as usize]
        ^ t[8][(x & 0xff) as usize]
        ^ t[7][c[8] as usize]
        ^ t[6][c[9] as usize]
        ^ t[5][c[10] as usize]
        ^ t[4][c[11] as usize]
        ^ t[3][c[12] as usize]
        ^ t[2][c[13] as usize]
        ^ t[1][c[14] as usize]
        ^ t[0][c[15] as usize]
}

/// The table path: slice-by-16 over whole blocks, then the byte loop.
fn update_table(t: &[[u64; 256]; 16], mut crc: u64, data: &[u8]) -> u64 {
    let (blocks, tail) = data.as_chunks::<16>();
    for c in blocks {
        crc = step16(t, crc, c);
    }
    for &b in tail {
        crc = (crc << 8) ^ t[0][(((crc >> 56) ^ u64::from(b)) & 0xff) as usize];
    }
    crc
}

/// The fold constants of the ECMA-182 polynomial.
const FOLD: Fold<true> = Fold::msb_first64(POLY_ECMA_182);

/// Streaming CRC64 state.
///
/// `update` may be called with arbitrary split points; the digest is
/// identical to hashing the concatenation in one call (neither the fold
/// nor the sliced loop keeps partial-block state — each call ends on the
/// byte loop, which commutes with any chunking).
///
/// # Examples
///
/// ```
/// use strom_kernels::crc64::Crc64;
/// let mut a = Crc64::new();
/// a.update(b"hello ");
/// a.update(b"world");
/// assert_eq!(a.finish(), strom_kernels::crc64::crc64(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// Starts a new computation.
    pub fn new() -> Self {
        Self { state: 0 }
    }

    /// Feeds more bytes: the carry-less-multiply fold where it applies,
    /// its residue and the tail through the table path.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        self.state = match FOLD.fold(self.state, data) {
            Some((residue, tail)) => update_table(t, update_table(t, 0, &residue), tail),
            None => update_table(t, self.state, data),
        };
    }

    /// Returns the checksum.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot CRC64 over `data`.
pub fn crc64(data: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(data);
    c.finish()
}

/// The original byte-at-a-time CRC64 — the reference implementation the
/// fold and the slice-by-16 path are differential-tested against.
pub fn crc64_reference(data: &[u8]) -> u64 {
    let t = &tables()[0];
    let mut crc = 0u64;
    for &b in data {
        crc = (crc << 8) ^ t[(((crc >> 56) ^ u64::from(b)) & 0xff) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_sim::SimRng;
    use strom_wire::clmul::xn_mod_p;

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        SimRng::seed(seed).fill_bytes(&mut data);
        data
    }

    /// CRC64 on the table path alone — what `update` does for short
    /// inputs and on hosts without PCLMULQDQ.
    fn crc64_table(data: &[u8]) -> u64 {
        update_table(tables(), 0, data)
    }

    #[test]
    fn known_check_value() {
        // ECMA-182 (non-reflected, init 0, no xorout) check value for
        // "123456789".
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347);
        assert_eq!(crc64_reference(b"123456789"), 0x6C40_DF5F_0B49_7347);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc64(b""), 0);
        assert_eq!(crc64_reference(b""), 0);
    }

    #[test]
    fn ecma_182_constants_equal_the_published_values() {
        // x^n mod P at n = 576, 512 (64-byte stride) and 192, 128 (16-byte
        // stride): the fold constants published for the MSB-first ECMA-182
        // polynomial.
        let k = |n| xn_mod_p(n, POLY_ECMA_182, 64);
        assert_eq!(k(576), 0xddf4_b698_1205_b83f);
        assert_eq!(k(512), 0x5f68_43ca_540d_f020);
        assert_eq!(k(192), 0x4eb9_38a7_d257_740e);
        assert_eq!(k(128), 0x05f5_c3c7_eb52_fab6);
    }

    #[test]
    fn both_paths_match_reference_at_every_length() {
        // Every length from empty through four MTUs: every tail length
        // mod 16 and mod 64, with and without a four-lane loop. The table
        // path is called directly, so it stays covered on a host whose
        // `update` takes the fold.
        let data = seeded_bytes(0xc64, 4 * 1500);
        for len in 0..=data.len() {
            let want = crc64_reference(&data[..len]);
            assert_eq!(crc64(&data[..len]), want, "dispatched, len = {len}");
            assert_eq!(crc64_table(&data[..len]), want, "table, len = {len}");
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
            let want = crc64_reference(window);
            assert_eq!(crc64(window), want, "dispatched, off = {off}, len = {len}");
            assert_eq!(crc64_table(window), want, "table, off = {off}, len = {len}");
        }
    }

    #[test]
    fn three_way_splits_inside_a_block_match_one_shot() {
        // The second and third `update` start from a non-zero register at
        // an offset that is not a multiple of 64: the register must enter
        // the fold through the first 8 bytes of whatever comes next.
        let data = seeded_bytes(0x3a7, 8 * 1024);
        let want = crc64_reference(&data);
        let mut rng = SimRng::seed(64);
        for _ in 0..500 {
            let a = rng.below(data.len() as u64 + 1) as usize;
            let b = rng.range(a as u64, data.len() as u64 + 1) as usize;
            let mut c = Crc64::new();
            c.update(&data[..a]);
            c.update(&data[a..b]);
            c.update(&data[b..]);
            assert_eq!(c.finish(), want, "splits at {a}, {b}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut c = Crc64::new();
        for chunk in data.chunks(777) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc64(&data));
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let mut data = vec![0xa5u8; 512];
        let base = crc64(&data);
        for i in [0usize, 100, 511] {
            data[i] ^= 0x01;
            assert_ne!(crc64(&data), base, "flip at {i} undetected");
            data[i] ^= 0x01;
        }
    }

    #[test]
    fn different_lengths_of_zeros_differ() {
        // CRC64 with init 0 maps all-zero inputs of any length to 0 —
        // a known property of non-inverted CRCs. The consistency kernel's
        // object layout therefore stores the CRC alongside a length, and
        // the experiments use non-zero payloads. Document the property.
        assert_eq!(crc64(&[0u8; 8]), 0);
        assert_eq!(crc64(&[0u8; 64]), 0);
        assert_ne!(crc64(&[1u8; 8]), crc64(&[1u8; 16]));
    }
}
