//! `sim_fig8`: the paper's Fig. 8 sweep on the in-tree GPU simulator.
//!
//! VGG-16, ResNet-18 and ResNet-34 × {Baseline, SEAL-C, Counter}, each
//! layer one request: `Simulator::run` on the layer workload that
//! `seal_core::workload::network_workloads` builds. One thread serves the
//! requests in arrival order, so the open-loop phases are a FIFO queue in
//! front of pure `gpusim` + `core::workload` host time. Every request's
//! cycle count must equal the recorded reference bit for bit.

use std::time::Instant;

use seal_core::workload::{network_workloads, DEFAULT_BATCH};
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::{GpuConfig, Simulator, Workload};
use seal_nn::models::{resnet18_topology, resnet34_topology, vgg16_topology};
use seal_nn::NetworkTopology;

use crate::common::{median, run_inline, Load, Report, Rng};
use crate::trace::Tracer;
use crate::Args;

/// Layer simulations per second offered in the open-loop phases, fixed
/// from the closed-loop rate measured when the benchmark was defined
/// (100–130 layer simulations per second on the recording host). Layers
/// cost 40 µs to 28 ms, so the rates stay under a fifth of that to keep
/// queueing behind the largest ones rare. Groups of 50 support p75.
pub const LOAD: Load = Load {
    low_rps: 10.0,
    high_rps: 20.0,
    group: 50,
    sat_window: 1,
    rounds: 5,
};

const NETS: [&str; 3] = ["vgg16", "resnet18", "resnet34"];
const SCHEMES: [(Scheme, &str); 3] = [
    (Scheme::Baseline, "baseline"),
    (Scheme::SealCounter, "seal_c"),
    (Scheme::Counter, "counter"),
];
const SETUP_REPS: usize = 25;

/// Recorded cycles per (network, scheme, layer), as `f64` bit patterns.
const REFERENCE: &str = include_str!("../fig8_reference.txt");

fn topology(net: &str) -> NetworkTopology {
    match net {
        "vgg16" => vgg16_topology(),
        "resnet18" => resnet18_topology(),
        _ => resnet34_topology(),
    }
}

/// One network × scheme cell of the sweep.
struct Cell {
    scheme: usize,
    layers: Vec<Workload>,
}

/// Everything the sweep needs, built once in set-up.
struct Sweep {
    sims: Vec<Simulator>,
    cells: Vec<Cell>,
    /// Request order: every layer of every cell once, in a fixed
    /// shuffle, so any run of consecutive requests is a sample of the
    /// whole sweep.
    jobs: Vec<(usize, usize)>,
}

fn build_sweep() -> Sweep {
    let config = GpuConfig::gtx480();
    let policy = SePolicy::paper_default();
    let sims = SCHEMES
        .iter()
        .map(|(s, _)| Simulator::new(config.clone(), s.mode()).expect("gtx480 config is valid"))
        .collect();
    let mut cells = Vec::new();
    for name in NETS {
        let topo = topology(name);
        let plan = EncryptionPlan::from_topology(&topo, policy).expect("zoo topologies plan");
        for (scheme, (s, _)) in SCHEMES.iter().enumerate() {
            let layers = network_workloads(&topo, &plan, *s, DEFAULT_BATCH)
                .expect("plan matches its own topology");
            cells.push(Cell { scheme, layers });
        }
    }
    let mut jobs: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| (0..c.layers.len()).map(move |l| (ci, l)))
        .collect();
    // Fisher–Yates with a fixed stream: the order is part of the workload,
    // the same for every seed.
    let mut rng = Rng::new(0x5EA1, 0);
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    Sweep { sims, cells, jobs }
}

/// Reference cycles indexed like `Sweep::cells[..].layers[..]`.
fn parse_reference(text: &str) -> Result<Vec<Vec<u64>>, String> {
    let mut out = vec![Vec::new(); NETS.len() * SCHEMES.len()];
    for (i, line) in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .enumerate()
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("reference line {}: {line:?}", i + 1);
        if f.len() != 4 {
            return Err(bad());
        }
        let net = NETS.iter().position(|n| *n == f[0]).ok_or_else(bad)?;
        let scheme = SCHEMES
            .iter()
            .position(|(_, n)| *n == f[1])
            .ok_or_else(bad)?;
        let layer: usize = f[2].parse().map_err(|_| bad())?;
        let bits = u64::from_str_radix(f[3].trim_start_matches("0x"), 16).map_err(|_| bad())?;
        let cell = &mut out[net * SCHEMES.len() + scheme];
        if layer != cell.len() {
            return Err(bad());
        }
        cell.push(bits);
    }
    Ok(out)
}

/// Per network, total reference cycles must order Baseline < SEAL-C <
/// Counter (the paper's Fig. 8 ranking).
fn check_ordering(reference: &[Vec<u64>]) -> Result<(), String> {
    for (net, name) in NETS.iter().enumerate() {
        let total = |scheme: usize| -> f64 {
            reference[net * SCHEMES.len() + scheme]
                .iter()
                .map(|&b| f64::from_bits(b))
                .sum()
        };
        let (b, c, k) = (total(0), total(1), total(2));
        if !(b < c && c < k) {
            return Err(format!(
                "{name}: cycles Baseline {b} SEAL-C {c} Counter {k} out of order"
            ));
        }
    }
    Ok(())
}

/// Simulates request `i` of the sweep. Returns the simulated memory
/// requests when its cycles match the reference, `None` otherwise.
fn serve_job(sweep: &Sweep, reference: &[Vec<u64>], i: usize) -> Option<u64> {
    let (ci, l) = sweep.jobs[i % sweep.jobs.len()];
    let cell = &sweep.cells[ci];
    let r = sweep.sims[cell.scheme].run(&cell.layers[l]).ok()?;
    (reference[ci].get(l) == Some(&r.cycles.to_bits())).then_some(r.requests)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let reference = match parse_reference(REFERENCE) {
        Ok(r) => r,
        Err(e) => {
            report.fail_check(&e);
            return report;
        }
    };
    if let Err(e) = check_ordering(&reference) {
        report.fail_check(&e);
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut sweep = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = build_sweep();
        setups.push(t.elapsed().as_secs_f64());
        sweep = Some(s);
    }
    let sweep = sweep.expect("at least one set-up");
    report.set("setup_s", median(setups));
    let shape_ok = sweep.cells.len() == reference.len()
        && sweep
            .cells
            .iter()
            .zip(&reference)
            .all(|(c, r)| c.layers.len() == r.len());
    if !shape_ok {
        report.fail_check("sweep layer counts differ from the reference");
        return report;
    }

    // Saturation counts simulated memory requests per host second, which
    // weighs each layer by its size instead of counting layers.
    let run = run_inline(args.seed, args.seconds, &LOAD, &mut report, |i| {
        serve_job(&sweep, &reference, i).map(|requests| requests as f64)
    });
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
    if report.failed > 0 {
        report.fail_check(&format!(
            "{} layer simulations differ from the reference",
            report.failed
        ));
    }

    if args.trace {
        let mut late = run.late_ns;
        late.sort_unstable();
        crate::set_lateness(&mut report, &late);
        trace_layers(args, &mut report);
    }
    report
}

/// The traced replay: one full sweep, planning included, with a span
/// around every call into `core` and `gpusim`.
fn replay(t: &mut Tracer, requests: &mut [u64; 3]) -> Vec<[f64; 3]> {
    let config = GpuConfig::gtx480();
    let mut cycles = vec![[0.0; 3]; NETS.len()];
    *requests = [0; 3];
    for (net, name) in NETS.iter().enumerate() {
        let topo = topology(name);
        let plan = t.span("core.plan_from_topology", net as u64, |_| {
            EncryptionPlan::from_topology(&topo, SePolicy::paper_default())
        });
        let Ok(plan) = plan else { continue };
        for (si, (scheme, label)) in SCHEMES.iter().enumerate() {
            let request = (net * SCHEMES.len() + si) as u64;
            let sim = Simulator::new(config.clone(), scheme.mode()).expect("valid config");
            let span = match *label {
                "baseline" => "gpusim.run.baseline",
                "seal_c" => "gpusim.run.seal_c",
                _ => "gpusim.run.counter",
            };
            t.span("sim.cell", request, |t| {
                let layers = t.span("core.network_workloads", request, |_| {
                    network_workloads(&topo, &plan, *scheme, DEFAULT_BATCH)
                });
                for wl in layers.iter().flatten() {
                    if let Ok(r) = t.span(span, request, |_| sim.run(wl)) {
                        cycles[net][si] += r.cycles;
                        requests[si] += r.requests;
                    }
                }
            });
        }
    }
    cycles
}

fn trace_layers(args: &Args, report: &mut Report) {
    let mut requests = [0u64; 3];
    let mut cycles = Vec::new();
    let tracer = crate::replay_with_overhead(report, 1, |t| cycles = replay(t, &mut requests));
    let st = tracer.self_times();
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let mut run_ns = 0u64;
    for (si, (_, label)) in SCHEMES.iter().enumerate() {
        let s = get(&format!("gpusim.run.{label}"));
        run_ns += s.self_ns;
        let name = match si {
            0 => "gpusim.ns_per_req.baseline",
            1 => "gpusim.ns_per_req.seal_c",
            _ => "gpusim.ns_per_req.counter",
        };
        report.set(name, s.self_ns as f64 / requests[si].max(1) as f64);
    }
    let total: u64 = requests.iter().sum();
    report.set("gpusim.requests", total as f64);
    report.set(
        "gpusim.mreq_per_s",
        total as f64 / (run_ns as f64 / 1e9) / 1e6,
    );
    let slowdown =
        |si: usize| cycles.iter().map(|c| c[si] / c[0]).sum::<f64>() / cycles.len().max(1) as f64;
    report.set("gpusim.slowdown.seal_c", slowdown(1));
    report.set("gpusim.slowdown.counter", slowdown(2));
    report.set(
        "core.network_workloads_ns",
        get("core.network_workloads").mean_ns(),
    );
    report.set(
        "core.plan_from_topology_ns",
        get("core.plan_from_topology").mean_ns(),
    );
    crate::write_spans(args, &tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_parses_and_orders_the_schemes() {
        let r = parse_reference(REFERENCE).unwrap();
        assert_eq!(r.len(), 9);
        assert_eq!(r[0].len(), 21, "VGG-16 has 21 simulated layers");
        check_ordering(&r).unwrap();
    }

    #[test]
    fn a_perturbed_reference_fails_both_checks() {
        let sweep = build_sweep();
        let mut r = parse_reference(REFERENCE).unwrap();
        assert!(serve_job(&sweep, &r, 0).is_some());
        let (ci, l) = sweep.jobs[0];
        r[ci][l] ^= 1; // one ulp off
        assert!(
            serve_job(&sweep, &r, 0).is_none(),
            "a one-ulp difference must fail"
        );
        // Swap VGG-16's Baseline and Counter cells: ordering must fail.
        r.swap(0, 2);
        assert!(check_ordering(&r).is_err());
    }

    #[test]
    fn jobs_cover_every_layer_once() {
        let sweep = build_sweep();
        let layers: usize = sweep.cells.iter().map(|c| c.layers.len()).sum();
        assert_eq!(sweep.jobs.len(), layers);
        let mut seen = sweep.jobs.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), layers);
    }

    /// Rewrites `fig8_reference.txt` from the current simulator:
    /// `cargo test --release -- --ignored record_fig8_reference`.
    #[test]
    #[ignore]
    fn record_fig8_reference() {
        let sweep = build_sweep();
        let mut text = String::from(
            "# Fig. 8 sweep cycles per layer: network scheme layer f64-bits (GTX 480, batch 4)\n",
        );
        for (ci, cell) in sweep.cells.iter().enumerate() {
            for (l, wl) in cell.layers.iter().enumerate() {
                let r = sweep.sims[cell.scheme].run(wl).unwrap();
                text.push_str(&format!(
                    "{} {} {l} {:#018x}\n",
                    NETS[ci / SCHEMES.len()],
                    SCHEMES[cell.scheme].1,
                    r.cycles.to_bits()
                ));
            }
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fig8_reference.txt");
        std::fs::write(path, text).unwrap();
    }
}
