//! AES-128 block cipher (FIPS-197), implemented from scratch.
//!
//! This is the *functional* counterpart of the hardware engine modelled in
//! [`engine`](crate::EngineSpec): `seal-gpusim` uses the engine's
//! latency/throughput numbers, while `emalloc`-tagged regions in `seal-core`
//! and the CTR/direct memory-encryption modes use this cipher for real
//! byte-level encryption.
//!
//! Three encryption bodies compute the same function:
//!
//! * **AES-NI** (`aesenc`/`aesenclast`, eight blocks interleaved) behind
//!   [`Aes128::encrypt_blocks`], selected once per process by CPUID on
//!   `x86_64` hosts that report `aes`. Constant-time: the hardware rounds
//!   do no key- or data-dependent memory access.
//! * **T-tables** ([`Aes128::encrypt_block`]), the portable fallback that
//!   `encrypt_blocks` loops over when AES-NI is absent. *Not*
//!   constant-time: its table lookups are indexed by key-dependent state,
//!   so cache timing can leak the key. Do not use it outside simulation.
//! * **Byte-wise reference rounds**
//!   ([`Aes128::encrypt_block_reference`]), the textbook transcription the
//!   two fast bodies are differentially tested against.
//!
//! Decryption runs the byte-wise inverse rounds; their S-box lookups are
//! not constant-time either. CTR mode never needs them.

use crate::Key128;

/// AES block size in bytes.
pub const BLOCK_BYTES: usize = 16;

const NUM_ROUNDS: usize = 10;

/// Forward S-box.
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box.
#[rustfmt::skip]
const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by `x` in GF(2^8) with the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2^8) multiplication.
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Key-independent T-tables fusing SubBytes + ShiftRows + MixColumns into
/// four 1 KiB lookup tables (the classic software AES optimisation). Built
/// once per process.
fn t_tables() -> &'static [[u32; 256]; 4] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut te0 = [0u32; 256];
        for (x, t) in te0.iter_mut().enumerate() {
            let sx = SBOX[x];
            let x2 = xtime(sx);
            let x3 = x2 ^ sx;
            *t = u32::from_be_bytes([x2, sx, sx, x3]);
        }
        let mut out = [[0u32; 256]; 4];
        for x in 0..256 {
            out[0][x] = te0[x];
            out[1][x] = te0[x].rotate_right(8);
            out[2][x] = te0[x].rotate_right(16);
            out[3][x] = te0[x].rotate_right(24);
        }
        out
    })
}

/// Whether the host offers AES-NI, asked of CPUID once and cached.
#[cfg(target_arch = "x86_64")]
fn has_aes_ni() -> bool {
    use std::sync::OnceLock;
    static AES_NI: OnceLock<bool> = OnceLock::new();
    *AES_NI.get_or_init(|| std::arch::is_x86_feature_detected!("aes"))
}

#[cfg(not(target_arch = "x86_64"))]
fn has_aes_ni() -> bool {
    false
}

/// An expanded AES-128 key schedule ready to encrypt/decrypt 16-byte blocks.
///
/// Single blocks go through the T-table formulation (≈10× faster than the
/// byte-wise rounds, which remain available as
/// [`encrypt_block_reference`](Aes128::encrypt_block_reference) and are
/// differentially tested against it). Runs of blocks go through
/// [`encrypt_blocks`](Aes128::encrypt_blocks), which uses AES-NI where the
/// host has it. Decryption uses the straightforward inverse rounds.
///
/// ```
/// use seal_crypto::{Aes128, Key128};
///
/// let aes = Aes128::new(&Key128::new([0; 16]));
/// let block = [0u8; 16];
/// let ct = aes.encrypt_block(&block);
/// assert_eq!(aes.decrypt_block(&ct), block);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; NUM_ROUNDS + 1],
    round_key_words: [[u32; 4]; NUM_ROUNDS + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Aes128(<key schedule redacted>)")
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: &Key128) -> Self {
        let mut w = [[0u8; 4]; 4 * (NUM_ROUNDS + 1)];
        for (i, chunk) in key.as_bytes().chunks(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NUM_ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..(c + 1) * 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        let mut round_key_words = [[0u32; 4]; NUM_ROUNDS + 1];
        for (r, words) in round_key_words.iter_mut().enumerate() {
            for (c, word) in words.iter_mut().enumerate() {
                *word = u32::from_be_bytes(w[r * 4 + c]);
            }
        }
        Aes128 {
            round_keys,
            round_key_words,
        }
    }

    /// Encrypts one 16-byte block (T-table fast path).
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let te = t_tables();
        let rk = &self.round_key_words;
        let mut w = [0u32; 4];
        for i in 0..4 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]) ^ rk[0][i];
        }
        for round_key in rk.iter().take(NUM_ROUNDS).skip(1) {
            let mut t = [0u32; 4];
            for i in 0..4 {
                t[i] = te[0][(w[i] >> 24) as usize]
                    ^ te[1][((w[(i + 1) % 4] >> 16) & 0xff) as usize]
                    ^ te[2][((w[(i + 2) % 4] >> 8) & 0xff) as usize]
                    ^ te[3][(w[(i + 3) % 4] & 0xff) as usize]
                    ^ round_key[i];
            }
            w = t;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let mut out = [0u8; 16];
        for i in 0..4 {
            let word = u32::from_be_bytes([
                SBOX[(w[i] >> 24) as usize],
                SBOX[((w[(i + 1) % 4] >> 16) & 0xff) as usize],
                SBOX[((w[(i + 2) % 4] >> 8) & 0xff) as usize],
                SBOX[(w[(i + 3) % 4] & 0xff) as usize],
            ]) ^ rk[NUM_ROUNDS][i];
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Name of the body [`encrypt_blocks`](Self::encrypt_blocks) runs on
    /// this host: `"AES-NI"` or `"T-table"`.
    pub fn backend_name() -> &'static str {
        if has_aes_ni() {
            "AES-NI"
        } else {
            "T-table"
        }
    }

    /// Encrypts every block of `blocks` in place.
    ///
    /// Runs AES-NI with eight blocks in flight when CPUID reports `aes`
    /// (probed once per process) and the T-table rounds otherwise; both
    /// give exactly [`encrypt_block`](Self::encrypt_block)'s output.
    ///
    /// ```
    /// use seal_crypto::{Aes128, Key128};
    ///
    /// let aes = Aes128::new(&Key128::from_seed(4));
    /// let mut blocks = [[1u8; 16], [2u8; 16], [3u8; 16]];
    /// let want = blocks.map(|b| aes.encrypt_block(&b));
    /// aes.encrypt_blocks(&mut blocks);
    /// assert_eq!(blocks, want);
    /// ```
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if has_aes_ni() {
            // SAFETY: `has_aes_ni` is the cached CPUID probe for `aes`;
            // it returned true, so the `target_feature(aes)` body only
            // issues instructions this host implements.
            unsafe { encrypt_blocks_aesni(&self.round_keys, blocks) };
            return;
        }
        self.encrypt_blocks_ttable(blocks);
    }

    /// The portable body of [`encrypt_blocks`](Self::encrypt_blocks).
    fn encrypt_blocks_ttable(&self, blocks: &mut [[u8; 16]]) {
        for block in blocks {
            *block = self.encrypt_block(block);
        }
    }

    /// Encrypts one block with the textbook byte-wise rounds — the
    /// reference the fast path is differentially tested against.
    pub fn encrypt_block_reference(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut s = *block;
        add_round_key(&mut s, &self.round_keys[0]);
        for r in 1..NUM_ROUNDS {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.round_keys[r]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[NUM_ROUNDS]);
        s
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut s = *block;
        add_round_key(&mut s, &self.round_keys[NUM_ROUNDS]);
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        for r in (1..NUM_ROUNDS).rev() {
            add_round_key(&mut s, &self.round_keys[r]);
            inv_mix_columns(&mut s);
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
        }
        add_round_key(&mut s, &self.round_keys[0]);
        s
    }
}

/// Blocks kept in flight by the AES-NI body: `aesenc` has a latency of
/// several cycles but issues every cycle, so independent blocks fill the
/// pipeline.
#[cfg(target_arch = "x86_64")]
const AESNI_LANES: usize = 8;

/// AES-NI body of [`Aes128::encrypt_blocks`]: [`AESNI_LANES`] blocks per
/// round-key sweep, then the remainder one at a time.
///
/// AES-NI keeps the state in FIPS-197 byte order, so the byte round keys
/// load as they are.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes")]
fn encrypt_blocks_aesni(round_keys: &[[u8; 16]; NUM_ROUNDS + 1], blocks: &mut [[u8; 16]]) {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setzero_si128,
        _mm_storeu_si128, _mm_xor_si128,
    };
    let load = |b: &[u8; 16]| {
        // SAFETY: `b` is a `[u8; 16]`, exactly the 16 bytes one
        // unaligned `loadu` reads.
        unsafe { _mm_loadu_si128(b.as_ptr().cast::<__m128i>()) }
    };
    let store = |b: &mut [u8; 16], v: __m128i| {
        // SAFETY: `b` is a `[u8; 16]`, exactly the 16 bytes one
        // unaligned `storeu` writes.
        unsafe { _mm_storeu_si128(b.as_mut_ptr().cast::<__m128i>(), v) }
    };
    let mut rk = [_mm_setzero_si128(); NUM_ROUNDS + 1];
    for (k, bytes) in rk.iter_mut().zip(round_keys) {
        *k = load(bytes);
    }
    let [first, middle @ .., last] = rk;
    let mut wide = blocks.chunks_exact_mut(AESNI_LANES);
    for lanes in &mut wide {
        let mut s = [_mm_setzero_si128(); AESNI_LANES];
        for (v, b) in s.iter_mut().zip(lanes.iter()) {
            *v = _mm_xor_si128(load(b), first);
        }
        for k in middle {
            for v in &mut s {
                *v = _mm_aesenc_si128(*v, k);
            }
        }
        for (b, v) in lanes.iter_mut().zip(s) {
            store(b, _mm_aesenclast_si128(v, last));
        }
    }
    for b in wide.into_remainder() {
        let mut v = _mm_xor_si128(load(b), first);
        for k in middle {
            v = _mm_aesenc_si128(v, k);
        }
        store(b, _mm_aesenclast_si128(v, last));
    }
}

// State layout: byte i of the buffer is state row (i % 4), column (i / 4),
// matching FIPS-197's column-major convention.

#[inline]
fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for (a, b) in s.iter_mut().zip(rk) {
        *a ^= b;
    }
}

#[inline]
fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

#[inline]
fn shift_rows(s: &mut [u8; 16]) {
    // Row r (bytes r, r+4, r+8, r+12) rotates left by r.
    for r in 1..4 {
        let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
        for c in 0..4 {
            s[r + 4 * c] = row[(c + r) % 4];
        }
    }
}

#[inline]
fn inv_shift_rows(s: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
        for c in 0..4 {
            s[r + 4 * c] = row[(c + 4 - r) % 4];
        }
    }
}

#[inline]
fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        s[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        s[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        s[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[inline]
fn inv_mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
        s[4 * c + 1] =
            gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
        s[4 * c + 2] =
            gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
        s[4 * c + 3] =
            gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// FIPS-197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = Key128::new(hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap());
        let aes = Aes128::new(&key);
        let pt: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        let ct = aes.encrypt_block(&pt);
        assert_eq!(ct.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    /// FIPS-197 Appendix C.1 known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key = Key128::new(hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap());
        let aes = Aes128::new(&key);
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let ct = aes.encrypt_block(&pt);
        assert_eq!(ct.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn t_table_path_matches_reference_rounds() {
        use seal_tensor::rng::{Rng, SeedableRng};
        let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(2026);
        for key_seed in 0..8u64 {
            let aes = Aes128::new(&Key128::from_seed(key_seed));
            for _ in 0..64 {
                let mut block = [0u8; 16];
                rng.fill(&mut block);
                assert_eq!(
                    aes.encrypt_block(&block),
                    aes.encrypt_block_reference(&block),
                    "differential failure for key {key_seed}"
                );
            }
        }
    }

    /// The AES-NI body, the T-table loop and the byte-wise reference agree
    /// on random keys, for batches covering the 8-wide body, its
    /// remainder and both together.
    #[test]
    fn batch_bodies_match_reference_rounds() {
        use seal_tensor::rng::{Rng, SeedableRng};
        let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(0xAE5);
        for _ in 0..16 {
            let aes = Aes128::new(&Key128::from_seed(rng.gen()));
            for len in [0usize, 1, 7, 8, 9, 16, 17] {
                let mut input = vec![[0u8; 16]; len];
                for b in &mut input {
                    rng.fill(b);
                }
                let want: Vec<[u8; 16]> = input
                    .iter()
                    .map(|b| aes.encrypt_block_reference(b))
                    .collect();

                let mut ttable = input.clone();
                aes.encrypt_blocks_ttable(&mut ttable);
                assert_eq!(ttable, want, "T-table, len {len}");

                let mut dispatched = input.clone();
                aes.encrypt_blocks(&mut dispatched);
                assert_eq!(dispatched, want, "encrypt_blocks, len {len}");

                #[cfg(target_arch = "x86_64")]
                if has_aes_ni() {
                    let mut ni = input.clone();
                    // SAFETY: guarded by the cached CPUID probe `has_aes_ni`.
                    unsafe { encrypt_blocks_aesni(&aes.round_keys, &mut ni) };
                    assert_eq!(ni, want, "AES-NI, len {len}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_random_blocks() {
        use seal_tensor::rng::{Rng, SeedableRng};
        let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(99);
        let aes = Aes128::new(&Key128::from_seed(5));
        for _ in 0..64 {
            let mut block = [0u8; 16];
            rng.fill(&mut block);
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let a = Aes128::new(&Key128::from_seed(1));
        let b = Aes128::new(&Key128::from_seed(2));
        let block = [0x5Au8; 16];
        assert_ne!(a.encrypt_block(&block), b.encrypt_block(&block));
    }

    #[test]
    fn gmul_against_known_products() {
        // 0x57 * 0x83 = 0xc1 (FIPS-197 Sec. 4.2 example).
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        // Multiplication by 1 is identity.
        for b in [0u8, 1, 0x53, 0xff] {
            assert_eq!(gmul(b, 1), b);
        }
    }

    #[test]
    fn shift_rows_inverts() {
        let mut s: [u8; 16] = core::array::from_fn(|i| i as u8);
        let orig = s;
        shift_rows(&mut s);
        assert_ne!(s, orig);
        inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn mix_columns_inverts() {
        let mut s: [u8; 16] = core::array::from_fn(|i| (i * 17) as u8);
        let orig = s;
        mix_columns(&mut s);
        inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn debug_never_prints_round_keys() {
        let aes = Aes128::new(&Key128::new([0xEE; 16]));
        assert!(!format!("{aes:?}").contains("EE"));
    }
}
