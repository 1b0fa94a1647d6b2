//! Counter-mode memory encryption.
//!
//! Counter mode (Yan et al., ISCA'06) hides the AES latency by encrypting a
//! *counter* — not the data — into a one-time pad while the data is still in
//! flight from DRAM; the pad is then XORed with the data. The cost is a
//! per-line counter that must itself be fetched from memory on a counter
//! cache miss, which is exactly the extra traffic the paper's `Counter`
//! scheme pays in Figure 1.
//!
//! The pad seed is `(address, counter)`, so re-encrypting a line after a
//! write bumps its counter to keep the pad single-use.
//!
//! Pads are built a tile of [`TILE_BLOCKS`] seeds at a time and encrypted
//! with one [`Aes128::encrypt_blocks`] call, the software analogue of a
//! pipelined engine with many blocks in flight.

use std::collections::HashMap;

use crate::mac::{first_bad_block, tag_buffer};
use crate::{Aes128, CryptoError, TaggedCiphertext, BLOCK_BYTES};

/// Blocks encrypted per [`Aes128::encrypt_blocks`] call by the batched
/// CTR and MAC paths: 1 KiB of seeds on the stack.
pub(crate) const TILE_BLOCKS: usize = 64;

/// `dst ^= src` over `src`'s length (at most one block), 16 bytes at a
/// time when `src` is a whole block.
#[inline]
pub(crate) fn xor_in(dst: &mut [u8; BLOCK_BYTES], src: &[u8]) {
    match <&[u8; BLOCK_BYTES]>::try_from(src) {
        Ok(s) => *dst = (u128::from_ne_bytes(*dst) ^ u128::from_ne_bytes(*s)).to_ne_bytes(),
        Err(_) => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
        }
    }
}

/// Counter-mode cipher with per-line write counters.
///
/// A line holds at most [`MAX_LINE_BLOCKS`](Self::MAX_LINE_BLOCKS) blocks
/// (16 MiB): block `i` of a line at write counter `c` uses pad seed
/// `c·2^20 + i`, so block `2^20` would reuse the pad of block 0 at counter
/// `c + 1`. Encrypt longer buffers as several lines at distinct addresses.
///
/// ```
/// use seal_crypto::{Aes128, CtrCipher, Key128};
///
/// let c = CtrCipher::new(Aes128::new(&Key128::from_seed(3)), 0);
/// let data = vec![7u8; 64];
/// let ct = c.encrypt(0x40, &data);
/// assert_eq!(c.decrypt(0x40, &ct), data);
/// ```
#[derive(Debug, Clone)]
pub struct CtrCipher {
    aes: Aes128,
    /// Global nonce mixed into every pad (distinguishes key epochs).
    nonce: u64,
    /// Per-line write counters, keyed by line address.
    counters: HashMap<u64, u64>,
}

impl CtrCipher {
    /// Most blocks one line may hold before its pads collide with the
    /// next counter epoch's (see the type docs).
    pub const MAX_LINE_BLOCKS: usize = 1 << 20;
    /// [`MAX_LINE_BLOCKS`](Self::MAX_LINE_BLOCKS) in bytes: 16 MiB.
    pub const MAX_LINE_BYTES: usize = Self::MAX_LINE_BLOCKS * BLOCK_BYTES;

    /// Creates a counter-mode cipher with the given epoch nonce.
    pub fn new(aes: Aes128, nonce: u64) -> Self {
        CtrCipher {
            aes,
            nonce,
            counters: HashMap::new(),
        }
    }

    /// Current write counter for `addr` (0 if never written).
    pub fn counter(&self, addr: u64) -> u64 {
        self.counters.get(&addr).copied().unwrap_or(0)
    }

    /// Encrypts `data` at `addr` using the line's current counter.
    ///
    /// The pad is `AES_k(nonce ‖ addr ‖ ctr ‖ block_idx)` truncated to the
    /// data length, so buffers need not be block-aligned.
    pub fn encrypt(&self, addr: u64, data: &[u8]) -> Vec<u8> {
        self.xor_pad(addr, self.counter(addr), data)
    }

    /// Decrypts `data` at `addr` (CTR decryption = encryption).
    pub fn decrypt(&self, addr: u64, data: &[u8]) -> Vec<u8> {
        self.xor_pad(addr, self.counter(addr), data)
    }

    /// Records a write-back of the line at `addr`, bumping its counter so
    /// the next pad differs. Returns the new counter value.
    pub fn bump_counter(&mut self, addr: u64) -> u64 {
        let c = self.counters.entry(addr).or_insert(0);
        *c += 1;
        *c
    }

    /// Overwrites the write counter for `addr`.
    ///
    /// Legitimate uses are counter re-fetch after a detected corruption
    /// and fault-injection harnesses modelling a tampered counter block;
    /// a desynchronised counter makes [`decrypt_verified`]
    /// (Self::decrypt_verified) fail rather than decrypt to garbage.
    pub fn set_counter(&mut self, addr: u64, value: u64) {
        if value == 0 {
            self.counters.remove(&addr);
        } else {
            self.counters.insert(addr, value);
        }
    }

    /// Encrypts `data` at `addr` and computes per-block MAC tags bound to
    /// the address and current counter (see the crate's `mac` module for
    /// the construction).
    pub fn encrypt_tagged(&self, addr: u64, data: &[u8]) -> TaggedCiphertext {
        let bytes = self.xor_pad(addr, self.counter(addr), data);
        let tags = tag_buffer(&self.aes, addr, self.counter(addr), &bytes);
        TaggedCiphertext { bytes, tags }
    }

    /// Verifies every block tag of `ct`, then decrypts.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] naming the first failing block
    /// when the ciphertext or tags were tampered with, or when the line's
    /// counter no longer matches the one the tags were computed under —
    /// a tampered counter never decrypts silently.
    pub fn decrypt_verified(&self, addr: u64, ct: &TaggedCiphertext) -> Result<Vec<u8>, CryptoError> {
        if let Some(block) = first_bad_block(&self.aes, addr, self.counter(addr), &ct.bytes, &ct.tags)
        {
            return Err(CryptoError::TagMismatch { addr, block });
        }
        Ok(self.xor_pad(addr, self.counter(addr), &ct.bytes))
    }

    /// XORs `data` with the line's pad, one tile of seeds per batched
    /// AES call. Lines longer than [`MAX_LINE_BLOCKS`](Self::MAX_LINE_BLOCKS)
    /// wrap into the next counter's seeds (see the type docs).
    fn xor_pad(&self, addr: u64, ctr: u64, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let line = u128::from(self.nonce ^ addr);
        let mut seed = ctr.wrapping_mul(Self::MAX_LINE_BLOCKS as u64);
        let mut pads = [[0u8; BLOCK_BYTES]; TILE_BLOCKS];
        for src in data.chunks(TILE_BLOCKS * BLOCK_BYTES) {
            let pads = &mut pads[..src.len().div_ceil(BLOCK_BYTES)];
            for pad in pads.iter_mut() {
                *pad = (line | u128::from(seed) << 64).to_le_bytes();
                seed = seed.wrapping_add(1);
            }
            self.aes.encrypt_blocks(pads);
            for (pad, s) in pads.iter_mut().zip(src.chunks(BLOCK_BYTES)) {
                xor_in(pad, s);
            }
            out.extend_from_slice(&pads.as_flattened()[..src.len()]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key128;

    fn cipher() -> CtrCipher {
        CtrCipher::new(Aes128::new(&Key128::from_seed(11)), 0xFEED)
    }

    #[test]
    fn roundtrip_various_lengths() {
        let c = cipher();
        for len in [0usize, 1, 15, 16, 17, 64, 100] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = c.encrypt(0x100, &data);
            assert_eq!(c.decrypt(0x100, &ct), data, "len {len}");
        }
    }

    #[test]
    fn pad_depends_on_address() {
        let c = cipher();
        let data = vec![0u8; 32];
        assert_ne!(c.encrypt(0x100, &data), c.encrypt(0x140, &data));
    }

    #[test]
    fn bump_counter_changes_pad() {
        let mut c = cipher();
        let data = vec![0u8; 32];
        let before = c.encrypt(0x200, &data);
        assert_eq!(c.bump_counter(0x200), 1);
        let after = c.encrypt(0x200, &data);
        assert_ne!(before, after);
        // And decryption still works with the bumped counter.
        assert_eq!(c.decrypt(0x200, &after), data);
    }

    #[test]
    fn nonce_separates_key_epochs() {
        let a = CtrCipher::new(Aes128::new(&Key128::from_seed(11)), 1);
        let b = CtrCipher::new(Aes128::new(&Key128::from_seed(11)), 2);
        let data = vec![9u8; 16];
        assert_ne!(a.encrypt(0, &data), b.encrypt(0, &data));
    }

    #[test]
    fn tagged_roundtrip_and_tamper_detection() {
        let c = cipher();
        let data: Vec<u8> = (0..50).map(|i| i as u8).collect();
        let mut tc = c.encrypt_tagged(0x400, &data);
        assert_eq!(c.decrypt_verified(0x400, &tc).unwrap(), data);
        // Ciphertext flip → TagMismatch naming the flipped block.
        let block = tc.flip_ciphertext_bit(37 * 8 + 2).unwrap();
        match c.decrypt_verified(0x400, &tc) {
            Err(CryptoError::TagMismatch { addr, block: b }) => {
                assert_eq!(addr, 0x400);
                assert_eq!(b, block);
            }
            other => panic!("expected TagMismatch, got {other:?}"),
        }
        // Tag flip → also detected.
        let mut tc = c.encrypt_tagged(0x400, &data);
        assert!(tc.flip_tag_bit(1, 9));
        assert!(matches!(
            c.decrypt_verified(0x400, &tc),
            Err(CryptoError::TagMismatch { block: 1, .. })
        ));
    }

    #[test]
    fn desynced_counter_never_decrypts_silently() {
        let mut c = cipher();
        c.set_counter(0x500, 6);
        let data = vec![0xC3u8; 32];
        let tc = c.encrypt_tagged(0x500, &data);
        // A tampered / rolled-back counter block desynchronises the pad;
        // verification must catch it instead of returning garbage.
        c.set_counter(0x500, 5);
        assert!(matches!(
            c.decrypt_verified(0x500, &tc),
            Err(CryptoError::TagMismatch { .. })
        ));
        // Restoring the true counter (the recovery re-fetch) heals it.
        c.set_counter(0x500, 6);
        assert_eq!(c.decrypt_verified(0x500, &tc).unwrap(), data);
        // set_counter(_, 0) is equivalent to "never written".
        c.set_counter(0x500, 0);
        assert_eq!(c.counter(0x500), 0);
    }

    /// The batched pad equals the one-block-at-a-time construction
    /// `AES_k(nonce ^ addr ‖ ctr·2^20 + i)` across tile boundaries.
    #[test]
    fn batched_pad_matches_per_block_seeds() {
        let mut c = cipher();
        c.set_counter(0x600, 5);
        let tile = TILE_BLOCKS * BLOCK_BYTES;
        for len in [
            0usize,
            1,
            15,
            16,
            17,
            tile - 1,
            tile,
            tile + 1,
            2 * tile + 33,
        ] {
            let pad = c.encrypt(0x600, &vec![0u8; len]);
            let want: Vec<u8> = (0..len.div_ceil(BLOCK_BYTES) as u64)
                .flat_map(|i| {
                    let seed = u128::from(0xFEED_u64 ^ 0x600) | u128::from((5 << 20) + i) << 64;
                    c.aes.encrypt_block(&seed.to_le_bytes())
                })
                .take(len)
                .collect();
            assert_eq!(pad, want, "len {len}");
        }
    }

    /// Pins the line limit: a maximal line's pads never repeat across
    /// counters 0..3, and one block more would reuse the next counter's
    /// first pad.
    #[test]
    fn max_line_pads_stay_unique_across_counters() {
        let mut c = cipher();
        let addr = 0x80_0000;
        let line = vec![0u8; CtrCipher::MAX_LINE_BYTES];
        let edge = 4 * BLOCK_BYTES;
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let mut first_pads = Vec::new();
        for ctr in 0..4 {
            c.set_counter(addr, ctr);
            let pad = c.encrypt(addr, &line);
            // The only seeds adjacent counters could share sit at the
            // line's two ends.
            let (head, rest) = pad.split_at(edge);
            let tail = &rest[rest.len() - edge..];
            first_pads.push(head[..BLOCK_BYTES].to_vec());
            seen.extend(
                head.chunks(BLOCK_BYTES)
                    .chain(tail.chunks(BLOCK_BYTES))
                    .map(<[u8]>::to_vec),
            );
        }
        let mut unique = seen.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), seen.len(), "pad reused across counters");

        c.set_counter(addr, 0);
        let long = c.encrypt(addr, &vec![0u8; CtrCipher::MAX_LINE_BYTES + BLOCK_BYTES]);
        assert_eq!(&long[CtrCipher::MAX_LINE_BYTES..], &first_pads[1][..]);
    }

    #[test]
    fn ciphertext_is_not_plaintext() {
        let c = cipher();
        let data = vec![0x55u8; 64];
        assert_ne!(c.encrypt(0x300, &data), data);
    }
}
