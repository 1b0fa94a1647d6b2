//! Micro-benchmarks for the functional crypto substrate: block-cipher
//! throughput (one block and a batched run), CTR-mode line encryption,
//! sealing a 4 KiB page (tagged encrypt + verified decrypt) and
//! direct-mode cache-line encryption — the software counterparts of
//! Table I's rows.

use seal_bench::timing::bench_bytes;
use seal_crypto::{Aes128, CtrCipher, DirectCipher, Key128};

fn main() {
    println!("aes backend: {}", Aes128::backend_name());
    let aes = Aes128::new(&Key128::from_seed(1));
    let block = [0x5Au8; 16];
    bench_bytes("aes128/encrypt_block", 16, || aes.encrypt_block(&block));
    bench_bytes("aes128/decrypt_block", 16, || aes.decrypt_block(&block));
    let mut run = [[0x5Au8; 16]; 64];
    bench_bytes("aes128/encrypt_blocks_x64", 64 * 16, || {
        aes.encrypt_blocks(&mut run);
        run[0][0]
    });

    let ctr = CtrCipher::new(Aes128::new(&Key128::from_seed(2)), 1);
    let direct = DirectCipher::new(Aes128::new(&Key128::from_seed(3)));
    let line = vec![0xA5u8; 128];
    bench_bytes("cache_line_128B/ctr_encrypt", 128, || {
        ctr.encrypt(0x1000, &line)
    });
    bench_bytes("cache_line_128B/direct_encrypt", 128, || {
        direct.encrypt(0x1000, &line).unwrap()
    });
    let page = vec![0x3Cu8; 4096];
    bench_bytes(
        "page_4KiB/ctr_encrypt_tagged+decrypt_verified",
        4096,
        || {
            let ct = ctr.encrypt_tagged(0x2000, &page);
            ctr.decrypt_verified(0x2000, &ct).unwrap()
        },
    );
}
