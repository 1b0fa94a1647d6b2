//! `tcp_mlp8`: the `NetServer` TCP front end with eight skew-weighted
//! `mlp` tenants, driven over one loopback connection.
//!
//! The model costs about 11 µs per batch of 8, so the time goes to the
//! reactor and frames, deficit-round-robin admission, the per-tenant locks
//! and the responder. The client is one writer thread that sleeps to each
//! due time and writes every request already due in one call, and one
//! reader thread that stamps each reply as it arrives.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use seal_net::{Frame, FrameDecoder, FrameKind};
use seal_serve::{FairQueue, NetServer, NetServerConfig, ServedModel, TenantRegistry};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::Tensor;

use crate::common::{
    arrival_schedule, median, sleep_until, stream, thread_cpu_s, LatSlices, Load, Phases,
    RateWindows, Report, Rng, StealMeter,
};
use crate::trace::Tracer;
use crate::Args;

/// Requests per second offered in the open-loop phases, fixed from the
/// closed-loop rate measured when the benchmark was defined (120–210 k
/// requests per second on the recording host). Groups of 1000 support p99.
pub const LOAD: Load = Load {
    low_rps: 10_000.0,
    high_rps: 30_000.0,
    group: 1000,
    sat_window: 64,
    rounds: 10,
};

const TENANTS: u32 = 8;
const SETUP_REPS: usize = 7;
/// Every this many replies, the prediction is checked against the model.
const CHECK_EVERY: usize = 16;
/// Requests of the low phase replayed through the layers when traced.
const REPLAY_REQUESTS: usize = 8192;
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn config() -> NetServerConfig {
    let mut c = NetServerConfig::smoke(TENANTS);
    // Lanes and the pipelining cap sized so that no open-loop burst on a
    // loaded host is refused: the benchmark measures serving, not shedding.
    c.base.queue_capacity = TENANTS as usize * 512;
    c.max_pipeline = 4096;
    c
}

/// One request of the generated stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    pub tenant: u32,
    pub user: u64,
}

/// `n` requests: tenants drawn in proportion to their weights (tenant
/// `t` has weight `t + 1`), users uniformly from the seed.
pub fn requests(seed: u64, stream: u64, n: usize) -> Vec<Req> {
    let total: u64 = (1..=u64::from(TENANTS)).sum();
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| {
            let mut pick = rng.next_u64() % total;
            let mut tenant = 0u32;
            while pick > u64::from(tenant) {
                pick -= u64::from(tenant) + 1;
                tenant += 1;
            }
            Req {
                tenant,
                user: rng.next_u64(),
            }
        })
        .collect()
}

fn encode(req: Req, seq: u64) -> Vec<u8> {
    Frame::request(req.tenant, seq, req.user.to_le_bytes().to_vec()).encode()
}

/// A reply checked against the request it answers.
enum Reply {
    /// `(prediction)` of a response that echoed the right user.
    Ok(u32),
    Bad(String),
}

fn check_reply(frame: &Frame, req: Req) -> Reply {
    match frame.kind {
        FrameKind::Response if frame.payload.len() == 12 => {
            let pred = u32::from_le_bytes(frame.payload[0..4].try_into().expect("4 bytes"));
            let echoed = u64::from_le_bytes(frame.payload[4..12].try_into().expect("8 bytes"));
            if echoed != req.user || frame.tenant != req.tenant {
                Reply::Bad(format!(
                    "reply for user {echoed} tenant {} to {req:?}",
                    frame.tenant
                ))
            } else {
                Reply::Ok(pred)
            }
        }
        FrameKind::Reject => Reply::Bad(format!(
            "rejected: code {:?}",
            seal_serve::netserve::parse_reject(&frame.payload)
        )),
        other => Reply::Bad(format!(
            "unexpected {other:?} frame, {} bytes",
            frame.payload.len()
        )),
    }
}

/// The class `model` predicts for `user`'s input, computed directly: the
/// server derives a user's input from its id the same way.
pub fn reference_prediction(model: &ServedModel, user: u64) -> Option<usize> {
    let x = model.sample(&mut StdRng::seed_from_u64(user));
    match model.classify(&x).ok()?.as_slice() {
        [p] => Some(*p),
        _ => None,
    }
}

/// A connected client and the sequence number of its next request.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_seq: u64,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("loopback connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        Client {
            stream,
            decoder: FrameDecoder::new(),
            next_seq: 0,
        }
    }

    /// Reads until at least one more frame is decoded into `out`; `None`
    /// on EOF, timeout or a malformed stream.
    fn read_frames(&mut self, buf: &mut [u8], out: &mut Vec<Frame>) -> Option<()> {
        let before = out.len();
        loop {
            while let Some(f) = self.decoder.next_frame().ok()? {
                out.push(f);
            }
            if out.len() > before {
                return Some(());
            }
            match self.stream.read(buf) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.decoder.push(&buf[..n]),
            }
        }
    }
}

/// Starts the server, connects, and warms every worker's per-tenant
/// plan with bursts of a full batch per tenant.
fn start_warm() -> (NetServer, Client) {
    let server = NetServer::start(config()).expect("net smoke config starts");
    let mut client = Client::connect(server.port());
    let mut buf = vec![0u8; 64 * 1024];
    for round in 0..8u64 {
        let mut wire = Vec::new();
        for t in 0..TENANTS {
            for u in 0..8u64 {
                wire.extend(encode(
                    Req {
                        tenant: t,
                        user: round << 32 | u,
                    },
                    client.next_seq,
                ));
                client.next_seq += 1;
            }
        }
        client.stream.write_all(&wire).expect("warm-up write");
        let mut frames = Vec::new();
        while frames.len() < (TENANTS * 8) as usize {
            client
                .read_frames(&mut buf, &mut frames)
                .expect("warm-up replies");
        }
    }
    (server, client)
}

/// What one open-loop phase observed.
#[derive(Default)]
struct Observed {
    /// Latency of every reply in due order, per slice.
    lat: LatSlices,
    late_ns: Vec<u64>,
    /// `(tenant, user, prediction)` of every [`CHECK_EVERY`]th reply.
    checked: Vec<(u32, u64, u32)>,
    cpu_s: f64,
}

impl Observed {
    /// Appends a later slice of the same phase.
    fn absorb(&mut self, slice: Observed) {
        self.lat.extend(slice.lat);
        self.late_ns.extend(slice.late_ns);
        self.checked.extend(slice.checked);
        self.cpu_s += slice.cpu_s;
    }
}

fn open_loop(
    client: &mut Client,
    args: &Args,
    stream: u64,
    rate: f64,
    span: Duration,
    report: &mut Report,
) -> Observed {
    let schedule = arrival_schedule(args.seed, stream, rate, span);
    let n = schedule.len();
    let reqs = requests(args.seed, stream, n);
    let base = client.next_seq;
    client.next_seq += n as u64;
    // Every frame encoded up front, so the writer only slices and writes.
    let mut wire = Vec::with_capacity(n * 28);
    let mut offsets = Vec::with_capacity(n + 1);
    for (i, r) in reqs.iter().enumerate() {
        offsets.push(wire.len());
        wire.extend(encode(*r, base + i as u64));
    }
    offsets.push(wire.len());

    let mut writer = client.stream.try_clone().expect("clone socket");
    let start = Instant::now() + Duration::from_millis(1);
    // Unanswered or rejected requests keep `Duration::MAX`: they miss any
    // latency limit.
    let mut seen = Observed::default();
    let mut lat = vec![Duration::MAX; n];
    let steal = StealMeter::start();
    let mut answered = vec![false; n];
    let (late, write_cpu) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let mut late = Vec::with_capacity(n);
            let mut i = 0;
            while i < n {
                sleep_until(start + schedule[i]);
                let now = Instant::now();
                let first = i;
                while i < n && start + schedule[i] <= now {
                    late.push((now - (start + schedule[i])).as_nanos() as u64);
                    i += 1;
                }
                if writer.write_all(&wire[offsets[first]..offsets[i]]).is_err() {
                    break;
                }
            }
            (late, thread_cpu_s())
        });
        let cpu0 = thread_cpu_s();
        let mut buf = vec![0u8; 256 * 1024];
        let mut frames = Vec::new();
        let mut got = 0usize;
        while got < n {
            frames.clear();
            if client.read_frames(&mut buf, &mut frames).is_none() {
                break;
            }
            let now = Instant::now();
            for f in &frames {
                let Some(i) = f
                    .seq
                    .checked_sub(base)
                    .map(|i| i as usize)
                    .filter(|&i| i < n)
                else {
                    report.fail_check(&format!("reply with unknown seq {}", f.seq));
                    continue;
                };
                if std::mem::replace(&mut answered[i], true) {
                    report.fail_check(&format!("seq {} answered twice", f.seq));
                    continue;
                }
                got += 1;
                match check_reply(f, reqs[i]) {
                    Reply::Ok(pred) => {
                        lat[i] = now - (start + schedule[i]);
                        if i % CHECK_EVERY == 0 {
                            seen.checked.push((reqs[i].tenant, reqs[i].user, pred));
                        }
                    }
                    Reply::Bad(why) => {
                        report.failed += 1;
                        eprintln!("perfbench: request {i}: {why}");
                    }
                }
            }
        }
        seen.cpu_s = thread_cpu_s() - cpu0;
        w.join().expect("writer thread")
    });
    report.attempted += n as u64;
    report.failed += answered.iter().filter(|a| !**a).count() as u64;
    seen.lat.push(steal.pct(), lat);
    seen.late_ns = late;
    seen.cpu_s += write_cpu;
    seen
}

/// Closed loop: `window` requests outstanding; each reply sends the next
/// one until `span` ends. Returns completions per second in each window.
fn closed_loop(
    client: &mut Client,
    args: &Args,
    round: u64,
    span: Duration,
    report: &mut Report,
) -> Vec<f64> {
    let pool = requests(args.seed, stream(3, round), 4096);
    let mut sent = HashMap::new();
    let mut wire = Vec::new();
    let send = |client: &mut Client, sent: &mut HashMap<u64, Req>, wire: &mut Vec<u8>, k: usize| {
        let req = pool[k % pool.len()];
        sent.insert(client.next_seq, req);
        wire.extend(encode(req, client.next_seq));
        client.next_seq += 1;
    };
    for k in 0..LOAD.sat_window {
        send(client, &mut sent, &mut wire, k);
    }
    let mut sat = RateWindows::new(span);
    client.stream.write_all(&wire).expect("sat write");
    let mut k = LOAD.sat_window;
    let mut buf = vec![0u8; 256 * 1024];
    let mut frames = Vec::new();
    while !sent.is_empty() {
        frames.clear();
        if client.read_frames(&mut buf, &mut frames).is_none() {
            break;
        }
        let open = sat.open();
        wire.clear();
        for f in &frames {
            report.attempted += 1;
            match sent.remove(&f.seq).map(|r| check_reply(f, r)) {
                Some(Reply::Ok(_)) => sat.record(1.0),
                Some(Reply::Bad(why)) => {
                    report.failed += 1;
                    eprintln!("perfbench: sat: {why}");
                }
                None => report.fail_check(&format!("sat reply with unknown seq {}", f.seq)),
            }
            if open {
                send(client, &mut sent, &mut wire, k);
                k += 1;
            }
        }
        if !wire.is_empty() && client.stream.write_all(&wire).is_err() {
            break;
        }
    }
    report.attempted += sent.len() as u64;
    report.failed += sent.len() as u64;
    sat.rates()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, client)) = live.take() {
            drop::<Client>(client);
            let _ = NetServer::shutdown(old);
        }
        let t = Instant::now();
        live = Some(start_warm());
        setups.push(t.elapsed().as_secs_f64());
    }
    let (server, mut client) = live.expect("at least one set-up");
    report.set("setup_s", median(setups));

    let phases = Phases::split(args.seconds, LOAD.rounds);
    let (mut low, mut high, mut sat) = (Observed::default(), Observed::default(), Vec::new());
    for round in 0..LOAD.rounds {
        low.absorb(open_loop(
            &mut client,
            args,
            stream(1, round),
            LOAD.low_rps,
            phases.low,
            &mut report,
        ));
        high.absorb(open_loop(
            &mut client,
            args,
            stream(2, round),
            LOAD.high_rps,
            phases.high,
            &mut report,
        ));
        sat.extend(closed_loop(
            &mut client,
            args,
            round,
            phases.sat,
            &mut report,
        ));
    }
    report.set_phases(&low.lat, &high.lat, median(sat), LOAD.group);

    // Correctness: sampled replies against the tenant's own model run
    // directly on the same user's input.
    let registry = server.registry();
    for &(tenant, user, pred) in low.checked.iter().chain(&high.checked) {
        let Some(index) = registry.index_of(tenant) else {
            report.fail_check(&format!("tenant {tenant} is not registered"));
            continue;
        };
        let want = reference_prediction(registry.by_index(index).model(), user);
        if want != Some(pred as usize) {
            report.fail_check(&format!(
                "tenant {tenant} user {user}: served {pred}, reference {want:?}"
            ));
        }
    }
    eprintln!(
        "perfbench: {} sampled predictions checked",
        low.checked.len() + high.checked.len()
    );

    drop(client);
    let stats = server.shutdown().expect("shutdown");
    if !stats.worker_errors.is_empty() {
        report.fail_check(&format!("worker errors: {:?}", stats.worker_errors));
    }

    if args.trace {
        report.set("net.frames_in", stats.reactor.frames_in as f64);
        report.set("net.frames_out", stats.reactor.frames_out as f64);
        report.set(
            "net.pipeline_rejects",
            stats.reactor.pipeline_rejects as f64,
        );
        let (mut queue_full, mut breaker, mut shed) = (0u64, 0u64, 0u64);
        for &(_, _, q, b, s, _) in &stats.tenants {
            (queue_full, breaker, shed) = (queue_full + q, breaker + b, shed + s);
        }
        report.set("serve.tenant.rejected_queue_full", queue_full as f64);
        report.set("serve.tenant.breaker_rejected", breaker as f64);
        report.set("serve.tenant.shed", shed as f64);
        if let Some(row) = stats.schemes.first() {
            report.set(
                "serve.batch_size_mean",
                row.samples as f64 / row.batches.max(1) as f64,
            );
        }
        crate::set_scheme_costs(&mut report, &stats.schemes);
        let mut late = [low.late_ns.as_slice(), high.late_ns.as_slice()].concat();
        late.sort_unstable();
        crate::set_lateness(&mut report, &late);
        report.set("gen.cpu_s", low.cpu_s + high.cpu_s);
        trace_layers(args, &mut report);
    }
    report
}

/// The traced replay: the low phase's first requests through frame
/// encode/decode, DRR admission and batching, then per batch sample →
/// concat → the tenant's compiled plan → its cost lanes → reply encode.
fn trace_layers(args: &Args, report: &mut Report) {
    let config = config();
    let registry = TenantRegistry::build(&config.base, config.master_seed, &config.tenants)
        .expect("registry builds");
    let max_batch = config.base.max_batch;
    let mut plans: Vec<_> = registry
        .all()
        .iter()
        .map(|t| {
            t.model()
                .compile_plan(max_batch, false)
                .expect("plan compiles")
        })
        .collect();
    let reqs = requests(args.seed, stream(1, 0), REPLAY_REQUESTS);
    let per_tenant = config.base.queue_capacity / registry.len();
    let mut replay = |t: &mut Tracer| {
        let queue = FairQueue::new(&registry.weights(), per_tenant, config.quantum);
        let mut decoder = FrameDecoder::new();
        for (g, group) in reqs.chunks(64).enumerate() {
            for (j, r) in group.iter().enumerate() {
                let seq = (g * 64 + j) as u64;
                let bytes = t.span("net.frame.encode", seq, |_| encode(*r, seq));
                let frame = t.span("net.frame.decode", seq, |_| {
                    decoder.push(&bytes);
                    decoder.next_frame()
                });
                let Ok(Some(frame)) = frame else { continue };
                let index = registry.index_of(frame.tenant).expect("registered tenant");
                let _ = t.span("serve.fair.try_push", seq, |_| {
                    queue.try_push(index, (seq, r.user))
                });
            }
            while !queue.is_empty() {
                let Some(batch) = t.span("serve.fair.pop_batch", g as u64, |_| {
                    queue.pop_batch(max_batch, Duration::ZERO)
                }) else {
                    break;
                };
                let tenant = registry.by_index(batch.tenant_index);
                let full = batch.items.len() == max_batch;
                let request = batch.items[0].0;
                t.span("replay.batch", request, |t| {
                    let inputs: Vec<Tensor> = batch
                        .items
                        .iter()
                        .map(|&(seq, user)| {
                            t.span("serve.model.sample", seq, |_| {
                                tenant.model().sample(&mut StdRng::seed_from_u64(user))
                            })
                        })
                        .collect();
                    let refs: Vec<&Tensor> = inputs.iter().collect();
                    let x = t.span("serve.model.concat", request, |_| {
                        tenant.model().concat_batch(&refs)
                    });
                    let plan = &mut plans[batch.tenant_index];
                    let preds = match x {
                        Ok(x) if full => {
                            t.span("nn.plan.classify.b8", request, |_| plan.classify(&x))
                        }
                        Ok(x) => t.span("nn.plan.classify.bn", request, |_| plan.classify(&x)),
                        Err(_) => return,
                    };
                    let mut cost = tenant.cost.lock().expect("cost lock");
                    let name = if full {
                        "serve.cost.cost_batch.b8"
                    } else {
                        "serve.cost.cost_batch.bn"
                    };
                    t.span(name, request, |_| cost.cost_batch(batch.items.len()));
                    drop(cost);
                    for (&(seq, user), pred) in batch.items.iter().zip(preds.unwrap_or_default()) {
                        let mut payload = (pred as u32).to_le_bytes().to_vec();
                        payload.extend_from_slice(&user.to_le_bytes());
                        let _ = t.span("net.frame.encode", seq, |_| {
                            Frame::response(batch.tenant, seq, payload).encode()
                        });
                    }
                });
            }
        }
        for r in reqs.iter().take(64) {
            let index = registry.index_of(r.tenant).expect("registered tenant");
            let x = registry
                .by_index(index)
                .model()
                .sample(&mut StdRng::seed_from_u64(r.user));
            let _ = t.span("nn.plan.classify.b1", r.user, |_| plans[index].classify(&x));
        }
    };
    let tracer = crate::replay_with_overhead(report, 5, &mut replay);
    let st = tracer.self_times();
    let get = |name: &str| st.get(name).copied().unwrap_or_default().mean_ns();
    report.set("net.frame.encode_ns", get("net.frame.encode"));
    report.set("net.frame.decode_ns", get("net.frame.decode"));
    report.set("serve.fair.try_push_ns", get("serve.fair.try_push"));
    report.set("serve.fair.pop_batch_ns", get("serve.fair.pop_batch"));
    report.set("serve.model.sample_ns", get("serve.model.sample"));
    report.set("serve.model.concat_ns", get("serve.model.concat"));
    report.set("nn.plan.classify_ns.b8", get("nn.plan.classify.b8"));
    report.set("nn.plan.classify_ns.b1", get("nn.plan.classify.b1"));
    report.set(
        "serve.cost.cost_batch_ns.b8",
        get("serve.cost.cost_batch.b8"),
    );
    crate::write_spans(args, &tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_follow_their_weights() {
        let reqs = requests(9, 1, 36_000);
        let mut counts = [0usize; TENANTS as usize];
        for r in &reqs {
            counts[r.tenant as usize] += 1;
        }
        for (t, &c) in counts.iter().enumerate() {
            let want = 1000 * (t + 1);
            assert!(
                c.abs_diff(want) < want / 5 + 100,
                "tenant {t}: {c} vs {want}"
            );
        }
        assert_eq!(reqs, requests(9, 1, 36_000));
    }

    #[test]
    fn a_reply_for_another_user_fails_the_check() {
        let req = Req {
            tenant: 3,
            user: 77,
        };
        let reply = |user: u64| {
            let mut payload = 5u32.to_le_bytes().to_vec();
            payload.extend_from_slice(&user.to_le_bytes());
            Frame::response(3, 0, payload)
        };
        assert!(matches!(check_reply(&reply(77), req), Reply::Ok(5)));
        assert!(matches!(check_reply(&reply(78), req), Reply::Bad(_)));
        let reject = Frame::reject(3, 0, vec![1, b'x']);
        assert!(matches!(check_reply(&reject, req), Reply::Bad(_)));
    }

    #[test]
    fn a_wrong_prediction_fails_the_model_check() {
        let registry = TenantRegistry::build(
            &config().base,
            1,
            &[seal_serve::TenantSpec {
                tenant: 0,
                weight: 1,
            }],
        )
        .unwrap();
        let model = registry.by_index(0).model();
        let right = reference_prediction(model, 42).unwrap();
        assert!(right < 10);
        let wrong = (right + 1) % 10;
        assert_ne!(reference_prediction(model, 42), Some(wrong));
    }
}
