//! `seal_vgg16`: sealing the full-size VGG-16 weights at SE ratio 0.5.
//!
//! Set-up builds the model from the seed, plans it with
//! `EncryptionPlan::from_model` and gathers every critical kernel row
//! (all weights coupled to one input channel) into a byte stream. Each
//! request seals one 4 KiB page of that stream: `CtrCipher::
//! encrypt_tagged`, then `decrypt_verified`, which must give the chunk
//! back bit for bit. Every 64th request also flips one ciphertext bit and
//! demands that verification rejects it. One thread serves the requests
//! in arrival order: the AES engine as a FIFO queue.

use std::time::Instant;

use seal_core::{EncryptionPlan, SePolicy};
use seal_crypto::{Aes128, CtrCipher, Key128};
use seal_nn::models::{vgg16, VggConfig};
use seal_nn::Sequential;
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;

use crate::common::{median, run_inline, Load, Report, Rng};
use crate::trace::Tracer;
use crate::Args;

/// Pages per second offered in the open-loop phases, fixed from the
/// closed-loop rate measured when the benchmark was defined (5–7 k pages
/// per second on the recording host).
pub const LOAD: Load = Load {
    low_rps: 1000.0,
    high_rps: 2000.0,
    group: 400,
    sat_window: 1,
    rounds: 10,
};

/// Bytes sealed per request: one 4 KiB page of critical rows.
pub const CHUNK: usize = 4 * 1024;
/// Every this many requests, one tampered copy must fail verification.
const TAMPER_EVERY: usize = 64;
const SETUP_REPS: usize = 5;
const SE_RATIO: f64 = 0.5;

/// The critical-row byte stream of one sealed model, cut into chunks.
pub struct Sealing {
    pub chunks: Vec<Vec<u8>>,
    pub cipher: CtrCipher,
}

/// Builds the full-size model whose weights are this run's input.
fn build_model(seed: u64) -> Sequential {
    vgg16(&mut StdRng::seed_from_u64(seed), &VggConfig::full()).expect("full VGG-16 builds")
}

/// Gathers the plan's critical rows of every kernel matrix, as
/// little-endian `f32` bytes, and cuts the stream into [`CHUNK`]s. Row
/// `i` of a `[out, in, …]` weight is every `[o, i, …]` slice.
fn gather(model: &mut Sequential, plan: &EncryptionPlan) -> Vec<Vec<u8>> {
    let mut stream = Vec::new();
    for (layer, (name, param)) in plan.layers().iter().zip(model.kernel_weights_mut()) {
        assert_eq!(
            layer.name, name,
            "plan and model list kernel matrices in one order"
        );
        let dims = param.value.shape().dims().to_vec();
        let (outs, ins) = (dims[0], dims[1]);
        let inner: usize = dims[2..].iter().product();
        let w = param.value.as_slice();
        for &row in &layer.encrypted_rows {
            for o in 0..outs {
                let at = (o * ins + row) * inner;
                for v in &w[at..at + inner] {
                    stream.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
    stream.chunks(CHUNK).map(<[u8]>::to_vec).collect()
}

fn setup(seed: u64) -> Sealing {
    let mut model = build_model(seed);
    let plan = EncryptionPlan::from_model(&model, SePolicy::paper_default().with_ratio(SE_RATIO))
        .expect("VGG-16 has kernel matrices to plan");
    let chunks = gather(&mut model, &plan);
    let cipher = CtrCipher::new(Aes128::new(&Key128::from_seed(seed)), seed.rotate_left(17));
    Sealing { chunks, cipher }
}

/// Outcome of sealing one chunk.
#[derive(Debug, PartialEq, Eq)]
pub enum Sealed {
    Ok,
    /// The verified decryption differed from the plaintext.
    Mismatch,
    /// Verification rejected an untampered ciphertext.
    Rejected,
    /// A ciphertext with a flipped bit passed verification.
    TamperAccepted,
}

/// Seals chunk `i` at its stream address; with `tamper_bit`, also flips
/// that bit of a copy and requires verification to reject it.
pub fn seal_chunk(
    cipher: &CtrCipher,
    chunks: &[Vec<u8>],
    i: usize,
    tamper_bit: Option<u64>,
) -> Sealed {
    let k = i % chunks.len();
    let (addr, chunk) = ((k * CHUNK) as u64, &chunks[k]);
    let ct = cipher.encrypt_tagged(addr, chunk);
    match cipher.decrypt_verified(addr, &ct) {
        Ok(pt) if pt == *chunk => {}
        Ok(_) => return Sealed::Mismatch,
        Err(_) => return Sealed::Rejected,
    }
    if let Some(bit) = tamper_bit {
        let mut bad = ct;
        bad.flip_ciphertext_bit(bit);
        if cipher.decrypt_verified(addr, &bad).is_ok() {
            return Sealed::TamperAccepted;
        }
    }
    Sealed::Ok
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut sealing = None;
    for _ in 0..SETUP_REPS {
        drop(sealing.take());
        let t = Instant::now();
        sealing = Some(setup(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Sealing { chunks, cipher } = sealing.expect("at least one set-up");
    report.set("setup_s", median(setups));
    let mib: f64 = chunks.iter().map(|c| c.len() as f64).sum::<f64>() / (1 << 20) as f64;
    eprintln!(
        "perfbench: {} chunks, {mib:.1} MiB of critical rows",
        chunks.len()
    );

    let mut tamper_rng = Rng::new(args.seed, 7);
    let mut failures = Vec::new();
    let run = run_inline(args.seed, args.seconds, &LOAD, &mut report, |i| {
        let tamper = (i % TAMPER_EVERY == 0).then(|| tamper_rng.next_u64());
        match seal_chunk(&cipher, &chunks, i, tamper) {
            Sealed::Ok => Some(1.0),
            other => {
                failures.push(format!("page {i}: {other:?}"));
                None
            }
        }
    });
    for why in &failures {
        report.fail_check(why);
    }
    let sat_rps = median(
        run.sat
            .cleanest()
            .0
            .into_iter()
            .flatten()
            .copied()
            .collect(),
    );
    report.set_phases(&run.low, &run.high, sat_rps, LOAD.group);
    eprintln!(
        "perfbench: sat sealed {:.1} MiB/s",
        sat_rps * CHUNK as f64 / (1 << 20) as f64
    );

    if args.trace {
        let mut late = run.late_ns;
        late.sort_unstable();
        crate::set_lateness(&mut report, &late);
        trace_layers(args, &mut report, &chunks, &cipher);
    }
    report
}

/// The traced replay: plan the model again, then seal one full pass of
/// the chunk stream with a span around each crypto call.
fn trace_layers(args: &Args, report: &mut Report, chunks: &[Vec<u8>], cipher: &CtrCipher) {
    let model = build_model(args.seed);
    let replay = |t: &mut Tracer| {
        let _ = t.span("core.plan_from_model", 0, |_| {
            EncryptionPlan::from_model(&model, SePolicy::paper_default().with_ratio(SE_RATIO))
        });
        for (k, chunk) in chunks.iter().enumerate() {
            let addr = (k * CHUNK) as u64;
            t.span("seal.chunk", k as u64, |t| {
                let ct = t.span("crypto.ctr.encrypt_tagged", k as u64, |_| {
                    cipher.encrypt_tagged(addr, chunk)
                });
                let _ = t.span("crypto.ctr.decrypt_verified", k as u64, |_| {
                    cipher.decrypt_verified(addr, &ct)
                });
            });
        }
    };
    let tracer = crate::replay_with_overhead(report, 1, replay);
    let st = tracer.self_times();
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let kib: f64 = chunks.iter().map(|c| c.len() as f64).sum::<f64>() / 1024.0;
    let (enc, dec) = (
        get("crypto.ctr.encrypt_tagged"),
        get("crypto.ctr.decrypt_verified"),
    );
    report.set(
        "crypto.ctr.encrypt_tagged_ns_per_kib",
        enc.self_ns as f64 / kib,
    );
    report.set(
        "crypto.ctr.decrypt_verified_ns_per_kib",
        dec.self_ns as f64 / kib,
    );
    let secs = (enc.self_ns + dec.self_ns) as f64 / 1e9;
    report.set("crypto.seal_mib_per_s", kib / 1024.0 / secs);
    report.set(
        "core.plan_from_model_ns",
        get("core.plan_from_model").mean_ns(),
    );
    crate::write_spans(args, &tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (CtrCipher, Vec<Vec<u8>>) {
        let cipher = CtrCipher::new(Aes128::new(&Key128::from_seed(5)), 9);
        let chunks = vec![(0..CHUNK).map(|i| (i * 7) as u8).collect(), vec![3u8; 100]];
        (cipher, chunks)
    }

    #[test]
    fn chunks_round_trip_and_a_flipped_bit_is_caught() {
        let (cipher, chunks) = small();
        for i in 0..4 {
            assert_eq!(
                seal_chunk(&cipher, &chunks, i, Some(12345 + i as u64)),
                Sealed::Ok
            );
        }
    }

    #[test]
    fn a_cipher_that_accepts_tampering_fails_the_check() {
        // Negative control: with a different key on the verifying side the
        // round trip must be rejected, and the check reports it.
        let (cipher, chunks) = small();
        let other = CtrCipher::new(Aes128::new(&Key128::from_seed(6)), 9);
        let ct = cipher.encrypt_tagged(0, &chunks[0]);
        assert!(other.decrypt_verified(0, &ct).is_err());
        // A zero-length chunk cannot carry a flip, so "tampered" data
        // verifies: the tamper check must flag that as accepted.
        let empty = vec![Vec::new()];
        assert_eq!(
            seal_chunk(&cipher, &empty, 0, Some(1)),
            Sealed::TamperAccepted
        );
    }

    #[test]
    fn gather_takes_every_weight_of_each_critical_row() {
        let mut model = vgg16(&mut StdRng::seed_from_u64(1), &VggConfig::reduced()).unwrap();
        let plan = EncryptionPlan::from_model(&model, SePolicy::paper_default()).unwrap();
        let chunks = gather(&mut model, &plan);
        let bytes: usize = chunks.iter().map(Vec::len).sum();
        let mut want = 0usize;
        for (layer, (_, p)) in plan.layers().iter().zip(model.kernel_weights_mut()) {
            want += layer.encrypted_rows.len() * p.value.len() / layer.rows * 4;
        }
        assert_eq!(bytes, want);
        assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() == CHUNK));
    }
}
