//! Direct memory encryption.
//!
//! "Direct encryption" in the paper (after Yan et al., ISCA'06) encrypts each
//! cache line in place with the block cipher as it crosses the memory bus:
//! the data itself goes through the AES pipeline, so decryption latency sits
//! on the critical read path, but no additional metadata traffic is needed.
//!
//! To keep equal plaintext lines from producing equal ciphertext lines we
//! whiten each block with its address before encryption (an XEX-style tweak),
//! which is what commercial direct-encryption engines (e.g. Intel MKTME's
//! XTS) do as well.

use crate::ctr::{xor_in, TILE_BLOCKS};
use crate::mac::{first_bad_block, tag_buffer};
use crate::{Aes128, CryptoError, TaggedCiphertext, BLOCK_BYTES};

/// Direct (in-place block) memory encryption of cache lines.
///
/// ```
/// use seal_crypto::{Aes128, DirectCipher, Key128};
///
/// # fn main() -> Result<(), seal_crypto::CryptoError> {
/// let cipher = DirectCipher::new(Aes128::new(&Key128::from_seed(1)));
/// let line = vec![0u8; 64];
/// let ct = cipher.encrypt(0x8000, &line)?;
/// assert_ne!(ct, line);
/// assert_eq!(cipher.decrypt(0x8000, &ct)?, line);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DirectCipher {
    aes: Aes128,
}

impl DirectCipher {
    /// Creates a direct cipher over an expanded AES key.
    pub fn new(aes: Aes128) -> Self {
        DirectCipher { aes }
    }

    /// Encrypts `data` (a whole number of 16-byte blocks) located at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnalignedBuffer`] if `data.len()` is not a
    /// multiple of [`BLOCK_BYTES`].
    pub fn encrypt(&self, addr: u64, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        check_aligned(data)?;
        Ok(self.encrypt_whitened(addr, data))
    }

    /// Decrypts `data` previously produced by [`encrypt`](Self::encrypt) at
    /// the same address.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnalignedBuffer`] if `data.len()` is not a
    /// multiple of [`BLOCK_BYTES`].
    pub fn decrypt(&self, addr: u64, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        check_aligned(data)?;
        let mut out = Vec::with_capacity(data.len());
        for (i, chunk) in data.chunks(BLOCK_BYTES).enumerate() {
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(chunk);
            block = self.aes.decrypt_block(&block);
            xor(&mut block, &tweak_for(addr, i));
            out.extend_from_slice(&block);
        }
        Ok(out)
    }

    /// Encrypts `data` at `addr` and computes per-block MAC tags.
    ///
    /// Direct mode has no write counters, so tags bind address and block
    /// index only (counter fixed at 0 in the MAC header).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnalignedBuffer`] if `data.len()` is not a
    /// multiple of [`BLOCK_BYTES`].
    pub fn encrypt_tagged(&self, addr: u64, data: &[u8]) -> Result<TaggedCiphertext, CryptoError> {
        let bytes = self.encrypt(addr, data)?;
        let tags = tag_buffer(&self.aes, addr, 0, &bytes);
        Ok(TaggedCiphertext { bytes, tags })
    }

    /// Verifies every block tag of `ct`, then decrypts.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] naming the first failing block
    /// on tampered ciphertext or tags, and [`CryptoError::UnalignedBuffer`]
    /// for a malformed length.
    pub fn decrypt_verified(&self, addr: u64, ct: &TaggedCiphertext) -> Result<Vec<u8>, CryptoError> {
        if let Some(block) = first_bad_block(&self.aes, addr, 0, &ct.bytes, &ct.tags) {
            return Err(CryptoError::TagMismatch { addr, block });
        }
        self.decrypt(addr, &ct.bytes)
    }

    /// Encrypts block-aligned `data`: whitens a tile of blocks with their
    /// tweaks, then encrypts the tile with one batched AES call.
    fn encrypt_whitened(&self, addr: u64, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut tile = [[0u8; BLOCK_BYTES]; TILE_BLOCKS];
        let mut idx = 0usize;
        for src in data.chunks(TILE_BLOCKS * BLOCK_BYTES) {
            let blocks = &mut tile[..src.len().div_ceil(BLOCK_BYTES)];
            for (block, chunk) in blocks.iter_mut().zip(src.chunks(BLOCK_BYTES)) {
                *block = tweak_for(addr, idx);
                xor_in(block, chunk);
                idx += 1;
            }
            self.aes.encrypt_blocks(blocks);
            out.extend_from_slice(blocks.as_flattened());
        }
        out
    }
}

fn check_aligned(data: &[u8]) -> Result<(), CryptoError> {
    if data.len().is_multiple_of(BLOCK_BYTES) {
        Ok(())
    } else {
        Err(CryptoError::UnalignedBuffer {
            len: data.len(),
            block: BLOCK_BYTES,
        })
    }
}

fn tweak_for(addr: u64, block_idx: usize) -> [u8; BLOCK_BYTES] {
    let mut t = [0u8; BLOCK_BYTES];
    t[..8].copy_from_slice(&addr.to_le_bytes());
    t[8..].copy_from_slice(&(block_idx as u64).to_le_bytes());
    t
}

fn xor(block: &mut [u8; BLOCK_BYTES], tweak: &[u8; BLOCK_BYTES]) {
    for (b, t) in block.iter_mut().zip(tweak) {
        *b ^= t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key128;

    fn cipher() -> DirectCipher {
        DirectCipher::new(Aes128::new(&Key128::from_seed(7)))
    }

    #[test]
    fn roundtrip_cache_line() {
        let c = cipher();
        let line: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let ct = c.encrypt(0x1_0000, &line).unwrap();
        assert_eq!(c.decrypt(0x1_0000, &ct).unwrap(), line);
    }

    #[test]
    fn unaligned_buffer_rejected() {
        let err = cipher().encrypt(0, &[0u8; 15]).unwrap_err();
        assert!(matches!(err, CryptoError::UnalignedBuffer { .. }));
    }

    #[test]
    fn equal_lines_at_different_addresses_differ() {
        let c = cipher();
        let line = vec![0u8; 64];
        let a = c.encrypt(0x1000, &line).unwrap();
        let b = c.encrypt(0x2000, &line).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn equal_blocks_within_a_line_differ() {
        let c = cipher();
        let line = vec![0xAAu8; 64];
        let ct = c.encrypt(0x3000, &line).unwrap();
        assert_ne!(ct[0..16], ct[16..32]);
    }

    #[test]
    fn wrong_address_fails_to_decrypt() {
        let c = cipher();
        let line = vec![1u8; 32];
        let ct = c.encrypt(0x1000, &line).unwrap();
        assert_ne!(c.decrypt(0x1040, &ct).unwrap(), line);
    }

    #[test]
    fn tagged_roundtrip_and_tamper_detection() {
        let c = cipher();
        let line: Vec<u8> = (0..64).map(|i| (255 - i) as u8).collect();
        let mut tc = c.encrypt_tagged(0x9000, &line).unwrap();
        assert_eq!(c.decrypt_verified(0x9000, &tc).unwrap(), line);
        let block = tc.flip_ciphertext_bit(300).unwrap();
        assert!(matches!(
            c.decrypt_verified(0x9000, &tc),
            Err(CryptoError::TagMismatch { addr: 0x9000, block: b }) if b == block
        ));
        // Relocated ciphertext (replay at another address) is rejected.
        let tc = c.encrypt_tagged(0x9000, &line).unwrap();
        assert!(matches!(
            c.decrypt_verified(0xA000, &tc),
            Err(CryptoError::TagMismatch { .. })
        ));
        assert!(c.encrypt_tagged(0, &[0u8; 15]).is_err());
    }

    #[test]
    fn empty_buffer_is_fine() {
        assert!(cipher().encrypt(0, &[]).unwrap().is_empty());
    }
}
