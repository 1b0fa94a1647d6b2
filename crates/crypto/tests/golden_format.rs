//! Golden-format pins for the functional ciphers.
//!
//! Round-trip tests cannot see a change of the on-bus format: a cipher
//! that encrypts and decrypts with a different pad layout, tag header or
//! backend still round-trips. These tests hash the exact ciphertext and
//! tag bytes for fixed inputs and compare them with values recorded from
//! the T-table implementation, so any drift in the CTR pad seeds, the
//! MAC construction, the direct-mode tweak or the AES backend fails here
//! loudly.

use seal_crypto::{Aes128, CtrCipher, DirectCipher, Key128, TaggedCiphertext};

/// 64-bit FNV-1a.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the ciphertext bytes followed by every tag.
fn digest(ct: &TaggedCiphertext) -> u64 {
    ct.tags
        .iter()
        .fold(fnv1a(0xcbf2_9ce4_8422_2325, &ct.bytes), |h, t| fnv1a(h, t))
}

/// Deterministic plaintext: the low bytes of a 64-bit LCG stream.
fn plaintext(len: usize) -> Vec<u8> {
    let mut s = 0x5EA1_u64;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            s.to_le_bytes()[7]
        })
        .collect()
}

const ADDR: u64 = 0x0004_2000;

#[test]
fn ctr_encrypt_tagged_format_is_pinned() {
    let mut c = CtrCipher::new(
        Aes128::new(&Key128::from_seed(0x5EA1)),
        0xDEC0_DE00_1234_5678,
    );
    c.set_counter(ADDR, 3);
    // Recorded from the T-table implementation; never regenerate these to
    // make a change pass.
    let pinned: [(usize, u64); 7] = [
        (0, 0xcbf2_9ce4_8422_2325),
        (1, 0xcb05_312f_780a_cb7d),
        (15, 0x72ba_8be4_4835_464c),
        (16, 0x02d2_cdd1_da46_4caf),
        (17, 0xd6c8_bb1e_2048_9029),
        (4095, 0x660e_8b6a_2bc4_95cb),
        (4096, 0xae29_ed2a_a61b_fc20),
    ];
    let got: Vec<(usize, u64)> = pinned
        .iter()
        .map(|&(len, _)| {
            let data = plaintext(len);
            let ct = c.encrypt_tagged(ADDR, &data);
            assert_eq!(
                c.decrypt_verified(ADDR, &ct).ok(),
                Some(data),
                "length {len}"
            );
            (len, digest(&ct))
        })
        .collect();
    assert_eq!(got, pinned, "CTR ciphertext+tags drifted (length, FNV-1a)");
}

#[test]
fn direct_encrypt_tagged_format_is_pinned() {
    let c = DirectCipher::new(Aes128::new(&Key128::from_seed(0xD1EC)));
    let data = plaintext(128);
    let ct = c
        .encrypt_tagged(ADDR, &data)
        .expect("128 bytes is block-aligned");
    assert_eq!(
        digest(&ct),
        0xeacc_33a1_c73c_96c6,
        "direct ciphertext+tags drifted"
    );
    assert_eq!(c.decrypt_verified(ADDR, &ct).ok(), Some(data));
}
