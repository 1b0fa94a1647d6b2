//! Bounded-memory contract of `Simulator::run`.
//!
//! This binary installs a counting global allocator and asserts that the
//! bytes one simulation allocates do not depend on the trace length: the
//! request stream holds one cursor per region, never the trace itself, so
//! a 64 MiB workload costs the same heap as a 1 MiB one of the same shape.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use seal_gpusim::{EncryptionMode, GpuConfig, Region, Simulator, Workload};

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A conv-layer-shaped workload of `bytes` per region: a streamed input,
/// a tile-reused weight panel, a tiled matrix walk and a written output.
fn workload(bytes: u64) -> Workload {
    let rows = bytes / 4096;
    Workload::builder("bounded")
        .region(Region::read("ifmap", 0, bytes).encrypted(true))
        .region(
            Region::read("weights", 1 << 33, bytes)
                .encrypted(true)
                .tiled_reuse(64 << 10, 2.5),
        )
        .region(Region::read("matrix", 2 << 33, bytes).tiled(rows, 4096, 40, 256, 1.5))
        .region(Region::write("ofmap", 3 << 33, bytes).encrypted(true))
        .instructions(1_000_000)
        .build()
        .unwrap()
}

/// Heap bytes allocated by one `run`, and the requests it simulated.
fn run_bytes(sim: &Simulator, wl: &Workload) -> (usize, u64) {
    let before = BYTES.load(Ordering::SeqCst);
    let report = sim.run(wl).unwrap();
    let after = BYTES.load(Ordering::SeqCst);
    (after - before, report.requests)
}

#[test]
fn run_allocates_the_same_bytes_for_any_trace_length() {
    let small = workload(1 << 20);
    let large = workload(64 << 20);
    for mode in [
        EncryptionMode::None,
        EncryptionMode::Direct,
        EncryptionMode::Counter,
    ] {
        let sim = Simulator::new(GpuConfig::gtx480(), mode).unwrap();
        // Warm-up: leaves any one-time lazy initialisation out of the count.
        run_bytes(&sim, &small);
        let (small_bytes, small_requests) = run_bytes(&sim, &small);
        let (large_bytes, large_requests) = run_bytes(&sim, &large);
        assert!(
            large_requests > 60 * small_requests,
            "{large_requests} vs {small_requests}"
        );
        assert_eq!(
            small_bytes, large_bytes,
            "{mode}: 1 MiB run allocated {small_bytes} B, 64 MiB run {large_bytes} B"
        );
        // A materialised trace alone would be 16 B per request.
        assert!(large_bytes < 1 << 20, "{mode}: {large_bytes} B");
    }
}
