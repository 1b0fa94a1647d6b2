//! `inproc_vgg16`: the in-process `Server` serving reduced VGG-16 to one
//! tenant. The network front end and the fair queue are bypassed, so the
//! time goes to the compiled plan's kernels, the batch path and the cost
//! model, plus the 500 µs batching linger at low load.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use seal_serve::{CostModel, ResponseHandle, ServedModel, Server, ServerConfig};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::Tensor;

use crate::common::{
    arrival_schedule, median, nearest_rank, sleep_until, stream, thread_cpu_s, LatSlices, Load,
    Phases, RateWindows, Report, Rng, StealMeter,
};
use crate::trace::Tracer;
use crate::Args;

/// Requests per second offered in the open-loop phases, fixed from the
/// closed-loop rate measured when the benchmark was defined (4.6–5.6 k
/// requests per second on the recording host). Groups of 400 support p95.
pub const LOAD: Load = Load {
    low_rps: 800.0,
    high_rps: 1600.0,
    group: 400,
    sat_window: 64,
    rounds: 10,
};

const SETUP_REPS: usize = 5;
/// Every this many replies, the prediction is checked against the model.
const CHECK_EVERY: usize = 16;
/// Requests of the low phase replayed through the layers when traced.
const REPLAY_REQUESTS: usize = 512;
const WAIT: Duration = Duration::from_secs(10);

fn config() -> ServerConfig {
    // The smoke preset's queue bound (64) would refuse open-loop bursts,
    // so it is raised and no request is rejected. Its two workers already
    // fill a two-core host; kernel threads on top would oversubscribe it,
    // so each worker runs its kernels on its own thread.
    ServerConfig {
        queue_capacity: 1024,
        kernel_threads: 1,
        ..ServerConfig::smoke()
    }
}

/// The seed-derived user behind request `i` of a phase; a user's input
/// tensor is a pure function of its id.
fn users(seed: u64, stream: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| rng.next_u64()).collect()
}

fn input_of(server: &Server, user: u64) -> Tensor {
    server.sample_input(&mut StdRng::seed_from_u64(user))
}

/// Starts the server and warms every worker's plan: bursts of two full
/// batches per worker, each waited for.
fn start_warm() -> Server {
    let server = Server::start(config()).expect("smoke config starts");
    let burst = 2 * config().max_batch * config().workers;
    for round in 0..4u64 {
        let handles: Vec<ResponseHandle> = (0..burst as u64)
            .map(|u| {
                server
                    .submit(input_of(&server, round << 32 | u))
                    .expect("warm-up admitted")
            })
            .collect();
        for h in handles {
            h.wait_timeout(WAIT).expect("warm-up served");
        }
    }
    server
}

/// What one open-loop phase observed.
#[derive(Default)]
struct Observed {
    /// Latency of every reply in due order, per slice.
    lat: LatSlices,
    late_ns: Vec<u64>,
    /// `(batch_size, queue_wait, service)` of every reply.
    replies: Vec<(usize, Duration, Duration)>,
    /// `(user, prediction)` of every [`CHECK_EVERY`]th reply.
    checked: Vec<(u64, usize)>,
    cpu_s: f64,
}

impl Observed {
    /// Appends a later slice of the same phase.
    fn absorb(&mut self, slice: Observed) {
        self.lat.extend(slice.lat);
        self.late_ns.extend(slice.late_ns);
        self.replies.extend(slice.replies);
        self.checked.extend(slice.checked);
        self.cpu_s += slice.cpu_s;
    }
}

struct InFlight {
    index: usize,
    due: Instant,
    submitted: Instant,
    handle: ResponseHandle,
}

fn open_loop(
    server: &Server,
    args: &Args,
    stream: u64,
    rate: f64,
    span: Duration,
    report: &mut Report,
) -> Observed {
    let schedule = arrival_schedule(args.seed, stream, rate, span);
    let ids = users(args.seed, stream, schedule.len());
    let mut seen = Observed::default();
    let mut lat = vec![Duration::MAX; schedule.len()];
    let steal = StealMeter::start();
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now() + Duration::from_millis(1);
    let (late, refused, gen_cpu) = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let tx = tx;
            let (mut late, mut refused) = (Vec::with_capacity(schedule.len()), 0u64);
            for (index, offset) in schedule.iter().enumerate() {
                let input = input_of(server, ids[index]);
                let due = start + *offset;
                sleep_until(due);
                let submitted = Instant::now();
                late.push((submitted - due).as_nanos() as u64);
                match server.submit(input) {
                    Ok(handle) => {
                        let _ = tx.send(InFlight {
                            index,
                            due,
                            submitted,
                            handle,
                        });
                    }
                    Err(e) => {
                        refused += 1;
                        eprintln!("perfbench: request {index} refused: {e}");
                    }
                }
            }
            (late, refused, thread_cpu_s())
        });
        let cpu0 = thread_cpu_s();
        for req in rx {
            match req.handle.wait_timeout(WAIT) {
                Ok(r) => {
                    let latency = (req.submitted - req.due) + r.latency;
                    lat[req.index] = latency;
                    seen.replies
                        .push((r.batch_size, r.queue_wait, r.latency - r.queue_wait));
                    if req.index % CHECK_EVERY == 0 {
                        seen.checked.push((ids[req.index], r.prediction));
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    eprintln!("perfbench: request {} failed: {e}", req.index);
                }
            }
        }
        seen.cpu_s += thread_cpu_s() - cpu0;
        generator.join().expect("generator thread")
    });
    report.attempted += schedule.len() as u64;
    report.failed += refused;
    // Refused or failed requests keep `Duration::MAX`: they miss any limit.
    seen.lat.push(steal.pct(), lat);
    seen.late_ns = late;
    seen.cpu_s += gen_cpu;
    seen
}

/// Closed loop: keeps `window` requests outstanding for `span`; returns
/// completions per second in each window and the `(batch, queue_wait,
/// service)` replies.
/// Handles are waited in submission order; a reply is stamped when its
/// wait returns.
fn closed_loop(
    server: &Server,
    args: &Args,
    round: u64,
    span: Duration,
    report: &mut Report,
) -> (Vec<f64>, Vec<(usize, Duration, Duration)>) {
    let mut rng = Rng::new(args.seed, stream(3, round));
    let mut outstanding = VecDeque::with_capacity(LOAD.sat_window);
    let mut replies = Vec::new();
    let mut sat = RateWindows::new(span);
    let mut submit = |outstanding: &mut VecDeque<ResponseHandle>, report: &mut Report| {
        report.attempted += 1;
        match server.submit(input_of(server, rng.next_u64())) {
            Ok(h) => outstanding.push_back(h),
            Err(_) => report.failed += 1,
        }
    };
    while sat.open() {
        while outstanding.len() < LOAD.sat_window {
            submit(&mut outstanding, report);
        }
        if let Some(h) = outstanding.pop_front() {
            match h.wait_timeout(WAIT) {
                Ok(r) => {
                    sat.record(1.0);
                    replies.push((r.batch_size, r.queue_wait, r.latency - r.queue_wait));
                }
                Err(_) => report.failed += 1,
            }
        }
    }
    let rps = sat.rates();
    for h in outstanding {
        if h.wait_timeout(WAIT).is_err() {
            report.failed += 1;
        }
    }
    (rps, replies)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            let _ = Server::shutdown(old);
        }
        let t = Instant::now();
        server = Some(start_warm());
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    report.set("setup_s", median(setups));

    let phases = Phases::split(args.seconds, LOAD.rounds);
    let (mut low, mut high) = (Observed::default(), Observed::default());
    let (mut sat, mut sat_replies) = (Vec::new(), Vec::new());
    for round in 0..LOAD.rounds {
        low.absorb(open_loop(
            &server,
            args,
            stream(1, round),
            LOAD.low_rps,
            phases.low,
            &mut report,
        ));
        high.absorb(open_loop(
            &server,
            args,
            stream(2, round),
            LOAD.high_rps,
            phases.high,
            &mut report,
        ));
        let (rates, replies) = closed_loop(&server, args, round, phases.sat, &mut report);
        sat.extend(rates);
        sat_replies.extend(replies);
    }
    report.set_phases(&low.lat, &high.lat, median(sat), LOAD.group);

    // Correctness: sampled predictions against the same weights run
    // directly, outside the server.
    let reference = ServedModel::load(&config().model, config().seed).expect("zoo model");
    for &(user, pred) in low.checked.iter().chain(&high.checked) {
        let want = crate::tcp::reference_prediction(&reference, user);
        if want != Some(pred) {
            report.fail_check(&format!("user {user}: served {pred}, reference {want:?}"));
        }
    }
    eprintln!(
        "perfbench: {} sampled predictions checked",
        low.checked.len() + high.checked.len()
    );

    let stats = server.shutdown().expect("shutdown");
    if !stats.worker_errors.is_empty() {
        report.fail_check(&format!("worker errors: {:?}", stats.worker_errors));
    }

    if args.trace {
        let us = |d: Duration| d.as_nanos() as u64;
        let mut waits: Vec<u64> = low.replies.iter().map(|r| us(r.1)).collect();
        let mut service: Vec<u64> = low.replies.iter().map(|r| us(r.2)).collect();
        waits.sort_unstable();
        service.sort_unstable();
        if !waits.is_empty() {
            report.set(
                "serve.queue_wait_p50_us",
                nearest_rank(&waits, 50.0) as f64 / 1e3,
            );
            report.set(
                "serve.service_p50_us",
                nearest_rank(&service, 50.0) as f64 / 1e3,
            );
        }
        report.set("serve.batch_size_mean", stats.batches.mean());
        crate::set_scheme_costs(&mut report, &stats.schemes);
        let mut late = [low.late_ns.as_slice(), high.late_ns.as_slice()].concat();
        late.sort_unstable();
        crate::set_lateness(&mut report, &late);
        report.set("gen.cpu_s", low.cpu_s + high.cpu_s);
        let mut full: Vec<u64> = sat_replies
            .iter()
            .chain(&high.replies)
            .filter(|r| r.0 == 8)
            .map(|r| us(r.2))
            .collect();
        full.sort_unstable();
        let ids = users(args.seed, stream(1, 0), REPLAY_REQUESTS);
        let replayed_b8 = trace_layers(args, &mut report, &ids);
        if !full.is_empty() {
            let measured = nearest_rank(&full, 50.0) as f64 / 1e3;
            eprintln!(
                "perfbench: full-batch service p50 {measured:.1}us over {} replies; replayed layers {:.1}us",
                full.len(),
                replayed_b8 / 1e3
            );
            report.set("serve.service_gap_us", measured - replayed_b8 / 1e3);
        }
    }
    report
}

/// The traced replay: the low phase's first requests in batches of 8
/// through sample → concat → compiled-plan classify → cost model, then
/// single-request classifies. Returns the replayed per-batch time of the
/// calls a worker makes for a full batch (concat + classify + cost), ns.
fn trace_layers(args: &Args, report: &mut Report, ids: &[u64]) -> f64 {
    let config = config();
    let model = ServedModel::load(&config.model, config.seed).expect("zoo model");
    let mut plan = model
        .compile_plan(config.max_batch, false)
        .expect("plan compiles");
    let mut cost = CostModel::new(model.topology(), &config).expect("cost model");
    let mut replay = |t: &mut Tracer| {
        for (b, batch) in ids.chunks(config.max_batch).enumerate() {
            t.span("replay.batch", b as u64, |t| {
                let inputs: Vec<Tensor> = batch
                    .iter()
                    .map(|&u| {
                        t.span("serve.model.sample", u, |_| {
                            model.sample(&mut StdRng::seed_from_u64(u))
                        })
                    })
                    .collect();
                let refs: Vec<&Tensor> = inputs.iter().collect();
                let x = t.span("serve.model.concat", b as u64, |_| {
                    model.concat_batch(&refs)
                });
                if let Ok(x) = x {
                    let _ = t.span("nn.plan.classify.b8", b as u64, |_| plan.classify(&x));
                    t.span("serve.cost.cost_batch.b8", b as u64, |_| {
                        cost.cost_batch(batch.len())
                    });
                }
            });
        }
        for &u in ids.iter().take(64) {
            let x = model.sample(&mut StdRng::seed_from_u64(u));
            let _ = t.span("nn.plan.classify.b1", u, |_| plan.classify(&x));
        }
    };
    let tracer = crate::replay_with_overhead(report, 5, &mut replay);
    let st = tracer.self_times();
    let get = |name: &str| st.get(name).copied().unwrap_or_default().mean_ns();
    report.set("serve.model.sample_ns", get("serve.model.sample"));
    report.set("serve.model.concat_ns", get("serve.model.concat"));
    report.set("nn.plan.classify_ns.b8", get("nn.plan.classify.b8"));
    report.set("nn.plan.classify_ns.b1", get("nn.plan.classify.b1"));
    report.set(
        "serve.cost.cost_batch_ns.b8",
        get("serve.cost.cost_batch.b8"),
    );
    crate::write_spans(args, &tracer);
    get("serve.model.concat") + get("nn.plan.classify.b8") + get("serve.cost.cost_batch.b8")
}
