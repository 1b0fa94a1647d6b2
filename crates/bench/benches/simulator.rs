//! Benchmark of the GPU memory-system simulator itself: how fast the
//! harness replays request streams (requests simulated per second), per
//! encryption mode.
//!
//! Two shapes: a two-region stream, and a VGG-16 conv layer at the paper's
//! SE ratio whose ten regions (encrypted and plain halves of ifmap,
//! im2col write, tile-reused im2col read, tile-reused weights and ofmap)
//! exercise the pacing merge and, under Counter, the counter-cache path.

use seal_bench::timing::bench_elems;
use seal_core::traffic::network_traffic;
use seal_core::workload::{layer_workload, DEFAULT_BATCH};
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::{EncryptionMode, GpuConfig, Region, Simulator, Workload};
use seal_nn::models::vgg16_topology;

/// The first VGG-16 layer whose SEAL-C workload carries all ten regions
/// and at most `max_requests` requests.
fn conv_layer(max_requests: usize) -> Workload {
    let topo = vgg16_topology();
    let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
    let splits = network_traffic(&topo, &plan, Scheme::SealCounter).unwrap();
    topo.layers()
        .iter()
        .zip(&splits)
        .map(|(l, s)| layer_workload(l, s, DEFAULT_BATCH).unwrap())
        .find(|wl| wl.regions().len() == 10 && wl.request_stream(128).len() <= max_requests)
        .expect("VGG-16 has a ten-region conv layer")
}

fn main() {
    let stream = Workload::builder("bench")
        .region(Region::read("r", 0, 4 << 20).encrypted(true))
        .region(Region::write("w", 1 << 33, 1 << 20).encrypted(true))
        .instructions(50_000_000)
        .build()
        .unwrap();
    let requests = stream.request_stream(128).len() as u64;
    for mode in [
        EncryptionMode::None,
        EncryptionMode::Direct,
        EncryptionMode::Counter,
    ] {
        let sim = Simulator::new(GpuConfig::gtx480(), mode).unwrap();
        bench_elems(&format!("simulator/{mode}"), requests, || {
            sim.run(&stream).unwrap()
        });
    }

    let conv = conv_layer(400_000);
    let requests = conv.request_stream(128).len() as u64;
    for mode in [EncryptionMode::None, EncryptionMode::Counter] {
        let sim = Simulator::new(GpuConfig::gtx480(), mode).unwrap();
        bench_elems(
            &format!("simulator/conv_{}/{mode}", conv.name()),
            requests,
            || sim.run(&conv).unwrap(),
        );
    }
}
