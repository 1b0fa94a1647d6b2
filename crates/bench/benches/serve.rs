//! Micro-benchmarks for the serving runtime's per-request hot path: queue
//! admission + batch assembly, and pricing one batch through the three
//! virtual encryption lanes.

use std::time::Duration;

use seal_bench::timing::bench;
use seal_nn::models::vgg16_topology;
use seal_serve::{CostModel, FairQueue, ServerConfig};

fn main() {
    // The in-process server's queue: one lane, quantum = max_batch.
    let queue: FairQueue<u64> = FairQueue::one_lane(1024, 8);
    let mut i = 0u64;
    bench("serve/queue_push_pop", || {
        i = i.wrapping_add(1);
        let _ = queue.try_push(0, i);
        queue.pop_batch(8, Duration::ZERO)
    });

    let topo = vgg16_topology();
    let mut cost = CostModel::new(&topo, &ServerConfig::smoke()).unwrap();
    bench("serve/cost_batch_vgg16_b8", || cost.cost_batch(8));
}
