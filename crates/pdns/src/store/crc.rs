//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over byte slices.
//!
//! The durability layer checksums every persisted artifact — run-file
//! sections, manifests, stream checkpoints — and the build environment
//! vendors no checksum crate, so the reflected table-driven algorithm
//! lives here. CRC-32 detects all single-bit and double-bit errors and
//! any burst up to 32 bits, which covers the torn-write and bit-rot cases
//! the recovery tests inject.
//!
//! The kernel is *slicing-by-16*: sixteen 256-entry tables, where table
//! `k` advances a byte's remainder through `k` further zero bytes, fold a
//! whole 16-byte block into the running CRC with sixteen independent
//! lookups instead of sixteen dependent ones. Table 0 is the classic
//! byte-at-a-time table and finishes the tail; the polynomial, initial
//! value and final complement are unchanged, so every checksum is the
//! one the byte loop computed.
//!
//! [`crc32_combine`] is the identity the run images rest on:
//! `crc(A ‖ B) = crc(A) · x^(8·|B|) ⊕ crc(B)` in `GF(2)[x]` modulo the
//! polynomial, so the CRC of a concatenation follows from the CRCs of
//! its parts and the length of the second, whatever the split.

/// The reflected CRC-32 polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xedb8_8320;

/// Bytes folded per step of the main loop (one table per byte).
const SLICES: usize = 16;

/// The slicing tables, computed at compile time: `TABLES[0]` is the
/// byte-indexed remainder table, and `TABLES[k][i]` is `TABLES[k - 1][i]`
/// pushed through one more zero byte.
const TABLES: [[u32; 256]; SLICES] = {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC-32 of `bytes` (initial value all-ones, final complement — the
/// standard zlib convention, so `crc32(b"123456789") == 0xcbf43926`).
// lint:certify(no-panic)
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut rest = bytes;
    while let Some((block, tail)) = rest.split_first_chunk::<SLICES>() {
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *block;
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        // The first four bytes carry the running remainder; the byte at
        // block offset `j` still has `15 - j` bytes to travel.
        crc = (crc_slice(t15, b0 ^ c0) ^ crc_slice(t14, b1 ^ c1))
            ^ (crc_slice(t13, b2 ^ c2) ^ crc_slice(t12, b3 ^ c3))
            ^ (crc_slice(t11, b4) ^ crc_slice(t10, b5))
            ^ (crc_slice(t9, b6) ^ crc_slice(t8, b7))
            ^ (crc_slice(t7, b8) ^ crc_slice(t6, b9))
            ^ (crc_slice(t5, b10) ^ crc_slice(t4, b11))
            ^ (crc_slice(t3, b12) ^ crc_slice(t2, b13))
            ^ (crc_slice(t1, b14) ^ crc_slice(t0, b15));
        rest = tail;
    }
    for &b in rest {
        let [c0, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ crc_slice(t0, b ^ c0);
    }
    !crc
}

/// The CRC-32 of `A ‖ B` from `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = |B|`: `crc_a` is carried past `B`'s bytes by one GF(2)
/// product, then `crc_b` is added. The initial value and the final
/// complement cancel, so the result equals `crc32` of the concatenation
/// for every split, empty parts included.
// lint:certify(no-panic)
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x8n(len_b), crc_a) ^ crc_b
}

/// `a · b` modulo the polynomial, both in the reflected representation
/// (bit 31 is `x⁰`).
// lint:certify(no-panic)
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k)` modulo the polynomial: the squares that raise
/// `x` to any power by its binary digits.
const X2N: [u32; 64] = {
    let mut table = [0u32; 64];
    let mut p = 1u32 << 30; // x¹
    let mut k = 0;
    while k < 64 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
};

/// `x^(8·n)` modulo the polynomial: the factor that carries a remainder
/// past `n` zero bytes.
// lint:certify(no-panic)
fn x8n(mut n: u64) -> u32 {
    // 8·n is n shifted up by three, so digit `k` of `n` picks
    // `x^(2^(k+3))`.
    let mut power = 1u32 << 31; // x⁰
    for &square in X2N.iter().skip(3) {
        if n == 0 {
            break;
        }
        if n & 1 != 0 {
            power = multmodp(square, power);
        }
        n >>= 1;
    }
    power
}

/// One table lookup. The index is a `u8` into a 256-entry table, so it is
/// in range by type; the compiler drops the bounds check for the same
/// reason.
#[inline(always)]
fn crc_slice(table: &[u32; 256], byte: u8) -> u32 {
    // lint:allow(no-panic): a `u8` index into a 256-entry table is in range by type
    table[usize::from(byte)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the slicing kernel replaced, kept as the
    /// reference it is checked against.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let data = b"disposable domains are dns noise".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    /// Every block/tail split a short input can take, at every alignment.
    #[test]
    fn short_inputs_match_the_bytewise_loop_at_every_offset() {
        let data: Vec<u8> =
            (0..96u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..16 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }

    /// Deterministic filler bytes for the combine tests.
    fn filler(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn combine_of_empty_parts_is_the_other_part() {
        let crc = crc32(b"dns noise");
        assert_eq!(crc32_combine(crc, crc32(b""), 0), crc);
        assert_eq!(crc32_combine(crc32(b""), crc, 9), crc);
        assert_eq!(crc32_combine(0, 0, 0), 0);
    }

    proptest! {
        /// Split points anywhere, including either part empty, and parts
        /// of every block alignment.
        #[test]
        fn combine_matches_the_bytewise_loop_at_any_split(
            len in 0usize..8 * 1024,
            cut in 0usize..=8 * 1024,
            seed in any::<u64>(),
        ) {
            let data = filler(len, seed);
            let (a, b) = data.split_at(cut.min(len));
            prop_assert_eq!(crc32_combine(bytewise(a), bytewise(b), b.len() as u64), bytewise(&data));
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), crc32(&data));
        }

        #[test]
        fn random_bytes_match_the_bytewise_loop(
            data in proptest::collection::vec(any::<u8>(), 4096 + 16..4096 + 17),
            start in 0usize..16,
            len in 0usize..=4096,
        ) {
            let slice = &data[start..start + len];
            prop_assert_eq!(crc32(slice), bytewise(slice));
        }
    }
}
