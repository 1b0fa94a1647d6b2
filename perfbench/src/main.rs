//! The repository benchmark: one command per workload run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload, then replays its request stream through each layer's public
//! calls with spans and reports the per-layer metrics. The last line of
//! standard output is one JSON object; progress and per-phase detail go
//! to standard error. See `README.md` for the workloads and metrics.

mod common;
mod inproc;
mod seal;
mod sim;
mod tcp;
mod trace;

use common::Report;

/// Workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["tcp_mlp8", "inproc_vgg16", "sim_fig8", "seal_vgg16"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("low.p50_us", "us"),
    ("low.tail_us", "us"),
    ("high.p50_us", "us"),
    ("high.tail_us", "us"),
    ("sat.rps", "1/s"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer that a workload
/// never calls reports 0 there.
const PER_LAYER: [(&str, &str); 44] = [
    ("serve.cost.cost_batch_ns.b8", "ns"),
    ("nn.plan.classify_ns.b1", "ns"),
    ("nn.plan.classify_ns.b8", "ns"),
    ("serve.model.sample_ns", "ns"),
    ("serve.model.concat_ns", "ns"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_gap_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.fair.try_push_ns", "ns"),
    ("serve.fair.pop_batch_ns", "ns"),
    ("serve.tenant.rejected_queue_full", "count"),
    ("serve.tenant.shed", "count"),
    ("serve.tenant.breaker_rejected", "count"),
    ("net.frame.encode_ns", "ns"),
    ("net.frame.decode_ns", "ns"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.pipeline_rejects", "count"),
    ("gpusim.ns_per_req.baseline", "ns"),
    ("gpusim.ns_per_req.seal_c", "ns"),
    ("gpusim.ns_per_req.counter", "ns"),
    ("gpusim.requests", "count"),
    ("gpusim.mreq_per_s", "Mreq/s"),
    ("gpusim.slowdown.seal_c", "x_modelled"),
    ("gpusim.slowdown.counter", "x_modelled"),
    ("core.network_workloads_ns", "ns"),
    ("core.plan_from_topology_ns", "ns"),
    ("core.plan_from_model_ns", "ns"),
    ("crypto.ctr.encrypt_tagged_ns_per_kib", "ns/KiB"),
    ("crypto.ctr.decrypt_verified_ns_per_kib", "ns/KiB"),
    ("crypto.seal_mib_per_s", "MiB/s"),
    ("cost.counter_hit_rate.seal_c", "ratio_modelled"),
    ("cost.counter_hit_rate.counter", "ratio_modelled"),
    ("cost.slowdown.seal_c", "x_modelled"),
    ("cost.slowdown.counter", "x_modelled"),
    ("gen.late_tail_us", "us"),
    ("gen.late_max_us", "us"),
    ("gen.cpu_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.replay_untraced_ms", "ms"),
    ("trace.replay_traced_ms", "ms"),
    ("host.steal_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(report: &Report, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        !report.incorrect,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    let steal = common::StealMeter::start();
    let mut report = match args.workload.as_str() {
        "tcp_mlp8" => tcp::run(&args),
        "inproc_vgg16" => inproc::run(&args),
        "sim_fig8" => sim::run(&args),
        _ => seal::run(&args),
    };
    report.set("peak_rss_mb", common::peak_rss_mb());
    let steal = steal.pct();
    eprintln!("perfbench: host steal {steal:.2}% of CPU time during the run");
    report.set("host.steal_pct", steal);
    let ok = report.attempted.saturating_sub(report.failed);
    report.set("ok_ratio", ok as f64 / report.attempted.max(1) as f64);
    if report.attempted == 0 {
        report.fail_check("no request was attempted");
    }
    if !args.trace {
        for (name, _) in END_TO_END {
            if !report.metrics.contains_key(name) {
                report.fail_check(&format!("metric {name} was not measured"));
            }
        }
    }
    eprintln!(
        "perfbench: {} seed {} done in {:.1}s: attempted {} failed {}",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64(),
        report.attempted,
        report.failed
    );
    println!("{}", result_json(&report, args.trace));
    if report.incorrect {
        std::process::exit(1);
    }
}

/// Runs `replay` once to warm caches, then untraced and traced,
/// alternating `rounds` times each, and records the median replay
/// durations, span count and tracing overhead. Returns the spans of the
/// last traced round.
pub fn replay_with_overhead(
    report: &mut Report,
    rounds: usize,
    mut replay: impl FnMut(&mut trace::Tracer),
) -> trace::Tracer {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut last = trace::Tracer::new(true);
    replay(&mut trace::Tracer::new(false));
    for _ in 0..rounds {
        let mut t = trace::Tracer::new(false);
        let start = std::time::Instant::now();
        replay(&mut t);
        off.push(start.elapsed().as_secs_f64());
        let mut t = trace::Tracer::new(true);
        let start = std::time::Instant::now();
        replay(&mut t);
        on.push(start.elapsed().as_secs_f64());
        last = t;
    }
    let (off, on) = (common::median(off), common::median(on));
    report.set("trace.replay_untraced_ms", off * 1e3);
    report.set("trace.replay_traced_ms", on * 1e3);
    report.set("trace.overhead_pct", (on - off) / off * 100.0);
    report.set("trace.spans", last.spans().len() as f64);
    last
}

/// Writes the spans of a traced run to `perfbench/out/`, reporting (not
/// failing on) I/O errors.
pub fn write_spans(args: &Args, tracer: &trace::Tracer) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// Generator lateness (how long after its due time a request left),
/// from ascending nanosecond samples.
pub fn set_lateness(report: &mut Report, sorted_ns: &[u64]) {
    if let Some((level, tail)) = common::supported_tail(sorted_ns) {
        eprintln!(
            "perfbench: generator lateness p{level} {:.1}us",
            tail as f64 / 1e3
        );
        report.set("gen.late_tail_us", tail as f64 / 1e3);
    }
    if let Some(&max) = sorted_ns.last() {
        report.set("gen.late_max_us", max as f64 / 1e3);
    }
}

/// The modelled cost-lane rows (serve's virtual encryption lanes).
pub fn set_scheme_costs(report: &mut Report, schemes: &[seal_serve::SchemeSummary]) {
    for row in schemes {
        let (hit, slow) = match row.scheme {
            seal_core::Scheme::SealCounter => {
                ("cost.counter_hit_rate.seal_c", "cost.slowdown.seal_c")
            }
            seal_core::Scheme::Counter => {
                ("cost.counter_hit_rate.counter", "cost.slowdown.counter")
            }
            _ => continue,
        };
        report.set(hit, row.counter_hit_rate);
        report.set(slow, row.slowdown_vs_baseline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "sim_fig8",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_fig8", 3, 12, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(
            args(&["--workload", "sim_fig8"]).is_err(),
            "seed is required"
        );
        assert!(args(&["--workload", "sim_fig8", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 5,
            failed: 1,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        let line = result_json(&r, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
