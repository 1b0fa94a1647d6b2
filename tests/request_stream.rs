//! Differential test of the lazy request stream against the materialised
//! reference trace.
//!
//! `Workload::request_stream` must yield exactly the requests of
//! `Workload::trace`, in the same order, with each request's line index
//! beside it, and must know the request total before the first request.
//! Covered: every layer of the Fig. 8 sweep under each scheme, the Fig. 1
//! matmul (the `Tiled` pattern), and seeded random workloads built to hit
//! the walks' edges.

use seal::core::workload::{matmul_workload, network_workloads, DEFAULT_BATCH};
use seal::core::{EncryptionPlan, Scheme, SePolicy};
use seal::gpusim::{Region, Workload};
use seal::nn::models::{resnet18_topology, resnet34_topology, vgg16_topology};
use seal::tensor::rng::rngs::StdRng;
use seal::tensor::rng::{Rng, SeedableRng};

/// Asserts stream == trace request for request at `line`-byte lines;
/// returns the request count.
fn assert_stream_matches(wl: &Workload, line: u64, what: &str) -> usize {
    let trace = wl.trace(line);
    let stream = wl.request_stream(line);
    assert_eq!(stream.len(), trace.len(), "{what}: counted total");
    let mut n = 0;
    for (i, (got, want)) in stream.zip(&trace).enumerate() {
        let (line_idx, req) = got;
        assert_eq!(req, *want, "{what}: request {i}");
        assert_eq!(
            line_idx,
            want.addr / line,
            "{what}: line index of request {i}"
        );
        n += 1;
    }
    assert_eq!(n, trace.len(), "{what}: stream length");
    n
}

#[test]
fn stream_matches_trace_on_every_fig8_layer() {
    let nets = [
        ("vgg16", vgg16_topology()),
        ("resnet18", resnet18_topology()),
        ("resnet34", resnet34_topology()),
    ];
    for (name, topo) in nets {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        for scheme in [Scheme::Baseline, Scheme::SealCounter, Scheme::Counter] {
            let layers = network_workloads(&topo, &plan, scheme, DEFAULT_BATCH).unwrap();
            assert!(!layers.is_empty());
            for (l, wl) in layers.iter().enumerate() {
                assert_stream_matches(wl, 128, &format!("{name} {scheme:?} layer {l}"));
            }
        }
    }
}

#[test]
fn stream_matches_trace_on_the_fig1_matmul() {
    for n in [64, 200, 512] {
        for encrypted in [false, true] {
            let wl = matmul_workload(n, encrypted).unwrap();
            let count = assert_stream_matches(&wl, 128, &format!("matmul{n}"));
            assert!(count > 0);
        }
    }
}

/// A random pattern drawn to hit the walks' edges: fractional passes and
/// reads, zero-byte regions and rows, unaligned bases and tiles narrower
/// than a line.
fn arb_region(rng: &mut StdRng, i: usize) -> Region {
    let base = rng.gen_range(0u64..1 << 30);
    let bytes = if rng.gen_range(0u32..5) == 0 {
        0
    } else {
        rng.gen_range(1u64..6000)
    };
    let frac = |rng: &mut StdRng| rng.gen_range(0u64..15) as f64 / 4.0 + rng.gen_range(0.0..0.01);
    let r = if rng.gen_range(0u32..2) == 0 {
        Region::read(format!("r{i}"), base, bytes)
    } else {
        Region::write(format!("w{i}"), base, bytes)
    };
    let r = r.encrypted(rng.gen_range(0u32..2) == 0);
    match rng.gen_range(0u32..3) {
        0 => r.passes(frac(rng)),
        1 => {
            let rows = rng.gen_range(0u64..24);
            let row_bytes = rng.gen_range(0u64..1500);
            let tile_rows = rng.gen_range(0u64..7);
            let tile_cols = rng.gen_range(0u64..700);
            r.tiled(rows, row_bytes, tile_rows, tile_cols, frac(rng))
        }
        _ => r.tiled_reuse(rng.gen_range(0u64..1200), frac(rng)),
    }
}

#[test]
fn stream_matches_trace_on_random_workloads() {
    let mut total = 0;
    for case in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(0x57EA_0000 + case);
        let regions = rng.gen_range(1usize..7);
        let mut b = Workload::builder("random");
        for i in 0..regions {
            b = b.region(arb_region(&mut rng, i));
        }
        let wl = b.build().unwrap();
        for line in [128, 96, 32] {
            total += assert_stream_matches(&wl, line, &format!("case {case} line {line}"));
        }
    }
    assert!(
        total > 100_000,
        "random cases too small to exercise the walks: {total}"
    );
}

#[test]
fn empty_workload_streams_nothing() {
    let wl = Workload::builder("empty")
        .region(Region::read("zero", 0x1234, 0))
        .region(Region::read("no passes", 0, 4096).passes(0.0))
        .region(Region::read("no rows", 0, 4096).tiled(0, 512, 2, 128, 2.0))
        .region(Region::read("no reads", 0, 4096).tiled_reuse(512, 0.0))
        .build()
        .unwrap();
    assert_eq!(assert_stream_matches(&wl, 128, "empty"), 0);
}
