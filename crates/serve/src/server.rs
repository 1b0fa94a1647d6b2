//! The serving core — one queue, one batch executor, one plan-only
//! inference path — and the in-process front-end on top of it.
//!
//! ```text
//!  Server::submit (owned Tensor) ──┐
//!  NetServer admission (user id) ──┴─► breaker.admit ─► FairQueue (DRR lanes)
//!                                                          │ pop_batch_with
//!  worker_loop, per single-tenant batch:                   ▼
//!    shed expired ─────────────► Err(DeadlineExceeded)
//!    poisoned (rides alone) ───► Err(WorkerPanicked), then panic
//!    inputs ─► concat ─► compiled plan ─► cost_batch ─► breaker ─► latency
//!           ─► Ok(Response)
//!  Rider::reply ─► mpsc ResponseHandle (in process) | Responder frame (TCP)
//! ```
//!
//! Both transports queue `Request`s on a [`FairQueue`] and run the same
//! `worker_loop`; a transport only decides, through its `Rider`, how a
//! request's input tensor is obtained and where its outcome goes. The
//! in-process [`Server`] is a one-tenant registry on a one-lane queue.
//!
//! Every degradation is a *typed* rejection delivered to the request's
//! rider — a submitted request always learns its fate (success, shed,
//! panic, drain), never hangs. Workers run under `seal-pool`'s panic
//! supervisor: an injected or organic panic is caught, the worker
//! respawned (until its budget quarantines it), and the panic recorded in
//! the final [`ServeStats`].

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use seal_faults::RequestFault;
use seal_nn::CompiledModel;
use seal_pool::{spawn_supervised, SupervisedWorker, SupervisorReport};
use seal_tensor::{Shape, Tensor};

use crate::breaker::BreakerStats;
use crate::cost::{FaultStats, SchemeSummary};
use crate::fair::{FairQueue, PushRefused};
use crate::metrics::{BatchStats, LatencyHistogram, QueueDepthStats};
use crate::tenant::{TenantRegistry, TenantState};
use crate::{locked, ServeError, ServedModel, ServerConfig};

/// The transport half of a queued request: where its input tensor comes
/// from and where its outcome goes.
pub(crate) trait Rider: Debug + Send + Sized + 'static {
    /// What outcomes are delivered through: nothing in process (each
    /// rider owns its channel), the reactor's mailbox over TCP.
    type Sink: Debug + Send + Sync;

    /// The request's `[1, …]` input for `model`.
    fn input(&self, model: &ServedModel) -> Cow<'_, Tensor>;

    /// Delivers the outcome of request `id`; `tenant` is the serving
    /// tenant's wire id.
    fn reply(self, sink: &Self::Sink, tenant: u32, id: u64, outcome: Result<Response, ServeError>);
}

/// One queued request: the bookkeeping both transports share plus the
/// transport's rider.
#[derive(Debug)]
pub(crate) struct Request<R> {
    pub(crate) id: u64,
    enqueued: Instant,
    /// Absolute shed deadline; `None` = serve no matter how late. An
    /// injected deadline-bust request is born with `deadline == enqueued`,
    /// i.e. already expired.
    deadline: Option<Instant>,
    /// Chaos fault riding on this request, if any.
    fault: Option<RequestFault>,
    pub(crate) rider: R,
}

impl<R> Request<R> {
    /// A request enqueued now, shed once it has waited `request_deadline`
    /// (`ZERO` disables shedding) — or at once if `fault` is a deadline
    /// bust.
    pub(crate) fn new(
        id: u64,
        rider: R,
        fault: Option<RequestFault>,
        request_deadline: Duration,
    ) -> Self {
        let enqueued = Instant::now();
        let deadline = if fault == Some(RequestFault::DeadlineBust) {
            Some(enqueued)
        } else if request_deadline > Duration::ZERO {
            Some(enqueued + request_deadline)
        } else {
            None
        };
        Request {
            id,
            enqueued,
            deadline,
            fault,
            rider,
        }
    }

    fn poisoned(&self) -> bool {
        self.fault == Some(RequestFault::WorkerPanic)
    }
}

/// Everything the workers of one server share.
#[derive(Debug)]
pub(crate) struct Core<R: Rider> {
    pub(crate) registry: Arc<TenantRegistry>,
    pub(crate) queue: Arc<FairQueue<Request<R>>>,
    pub(crate) sink: R::Sink,
    errors: Mutex<Vec<ServeError>>,
    panicked: AtomicU64,
    max_batch: usize,
    batch_deadline: Duration,
    slow_delay: Duration,
}

impl<R: Rider> Core<R> {
    pub(crate) fn new(
        registry: Arc<TenantRegistry>,
        queue: Arc<FairQueue<Request<R>>>,
        sink: R::Sink,
        config: &ServerConfig,
    ) -> Self {
        Core {
            registry,
            queue,
            sink,
            errors: Mutex::new(Vec::new()),
            panicked: AtomicU64::new(0),
            max_batch: config.max_batch,
            batch_deadline: config.batch_deadline,
            slow_delay: config.chaos_slow_delay,
        }
    }

    /// Spawns `config.workers` supervised [`worker_loop`]s named
    /// `{name}-{i}`.
    pub(crate) fn spawn_workers(
        self: &Arc<Self>,
        name: &str,
        config: &ServerConfig,
    ) -> Result<Vec<SupervisedWorker>, ServeError> {
        (0..config.workers)
            .map(|i| {
                let core = Arc::clone(self);
                spawn_supervised(
                    format!("{name}-{i}"),
                    config.worker_respawn_budget,
                    move || worker_loop(&core),
                )
                .map_err(|e| ServeError::WorkerSpawn {
                    worker: i,
                    source: e,
                })
            })
            .collect()
    }

    /// Drains the worker errors recorded so far.
    pub(crate) fn take_errors(&self) -> Vec<ServeError> {
        std::mem::take(&mut *locked(&self.errors))
    }

    /// Answers every request still queued with a typed
    /// [`ServeError::DrainedAtShutdown`], counted in its tenant's
    /// `rejected_drain`; returns how many there were. Nothing queued is
    /// ever silently dropped.
    pub(crate) fn reject_queued(&self) -> u64 {
        let mut rejected = 0;
        for batch in self.queue.drain_remaining() {
            let tenant = self.registry.by_index(batch.tenant_index);
            for request in batch.items {
                rejected += 1;
                tenant.rejected_drain.fetch_add(1, Ordering::Relaxed);
                let (id, rider) = (request.id, request.rider);
                let drained = Err(ServeError::DrainedAtShutdown { request_id: id });
                rider.reply(&self.sink, batch.tenant, id, drained);
            }
        }
        rejected
    }
}

/// Joins every worker, merging their supervision reports.
pub(crate) fn join_workers(workers: Vec<SupervisedWorker>) -> SupervisorReport {
    let mut supervision = SupervisorReport::default();
    for w in workers {
        let report = w.join();
        supervision.panics += report.panics;
        supervision.respawns += report.respawns;
        supervision.quarantined |= report.quarantined;
        if report.last_panic.is_some() {
            supervision.last_panic = report.last_panic;
        }
    }
    supervision
}

/// The one batch executor: pop a single-tenant batch, shed the expired,
/// honour planned faults, classify the rest through the tenant's compiled
/// plan, price the batch on the tenant's cost lanes, answer every rider.
/// Runs until the queue is closed and drained.
pub(crate) fn worker_loop<R: Rider>(core: &Core<R>) {
    let (max_batch, deadline) = (core.max_batch, core.batch_deadline);
    // One plan per tenant this worker serves, owned by the worker so its
    // packed weights and arena stay warm on one core; rebuilt after a
    // supervised respawn.
    let mut plans: HashMap<usize, CompiledModel> = HashMap::new();
    let poisoned = Request::poisoned;
    while let Some(batch) = core.queue.pop_batch_with(max_batch, deadline, poisoned) {
        let tenant: &TenantState = core.registry.by_index(batch.tenant_index);
        let reply = |request: Request<R>, outcome| {
            let id = request.id;
            request.rider.reply(&core.sink, batch.tenant, id, outcome);
        };
        let picked_up = Instant::now();
        // Load shedding: an expired request gets a typed rejection and the
        // breaker hears about it; it never holds up the healthy remainder.
        let mut live = Vec::with_capacity(batch.items.len());
        for request in batch.items {
            match request.deadline {
                Some(dl) if picked_up >= dl => {
                    tenant.shed.fetch_add(1, Ordering::Relaxed);
                    locked(&tenant.breaker).on_shed();
                    let shed = ServeError::DeadlineExceeded {
                        request_id: request.id,
                        waited: picked_up.duration_since(request.enqueued),
                        deadline: dl.duration_since(request.enqueued),
                    };
                    reply(request, Err(shed));
                }
                _ => live.push(request),
            }
        }
        let Some(first) = live.first() else { continue };
        // Poisoned requests arrive as singleton batches (queue barrier).
        // The rider is told *before* the panic unwinds, so it can never
        // hang on a dead worker; the supervisor respawns this loop.
        if first.poisoned() {
            let request = live.swap_remove(0);
            let request_id = request.id;
            core.panicked.fetch_add(1, Ordering::Relaxed);
            reply(request, Err(ServeError::WorkerPanicked { request_id }));
            // This panic IS the injected fault — the supervisor's
            // catch/respawn path is the code under test.
            // seal-lint: allow(panic, panic-freedom)
            panic!("injected panic serving request {request_id}");
        }
        // An injected slow request inflates its whole batch's service time.
        if core.slow_delay > Duration::ZERO
            && live.iter().any(|r| r.fault == Some(RequestFault::Slow))
        {
            std::thread::sleep(core.slow_delay);
        }
        let batch_size = live.len();
        let inputs: Vec<Cow<'_, Tensor>> =
            live.iter().map(|r| r.rider.input(tenant.model())).collect();
        let refs: Vec<&Tensor> = inputs.iter().map(|t| t.as_ref()).collect();
        let outcome = tenant.model().concat_batch(&refs).and_then(|t| {
            let plan = match plans.entry(batch.tenant_index) {
                Entry::Occupied(slot) => slot.into_mut(),
                Entry::Vacant(slot) => slot.insert(tenant.plan()?),
            };
            Ok(plan.classify(&t)?)
        });
        drop(refs);
        drop(inputs);
        let predictions = match outcome {
            Ok(predictions) => predictions,
            Err(e) => {
                // The batch dies, typed; the worker lives on.
                for request in live {
                    let request_id = request.id;
                    reply(request, Err(ServeError::WorkerLost { request_id }));
                }
                locked(&core.errors).push(e);
                continue;
            }
        };
        locked(&tenant.cost).cost_batch(batch_size);
        locked(&tenant.batches).observe(batch_size);
        locked(&tenant.breaker).on_success();
        let done = Instant::now();
        let mut latency = locked(&tenant.latency);
        for request in &live {
            latency.record(done.duration_since(request.enqueued).as_micros() as u64);
        }
        drop(latency);
        let completed = batch_size as u64;
        tenant.completed.fetch_add(completed, Ordering::Relaxed);
        for (request, prediction) in live.into_iter().zip(predictions) {
            let response = Response {
                id: request.id,
                prediction,
                batch_size,
                queue_wait: picked_up.duration_since(request.enqueued),
                latency: done.duration_since(request.enqueued),
            };
            reply(request, Ok(response));
        }
    }
}

/// The in-process rider: an owned input tensor and the channel its
/// [`ResponseHandle`] waits on.
#[derive(Debug)]
struct Local {
    input: Tensor,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

impl Rider for Local {
    type Sink = ();

    fn input(&self, _model: &ServedModel) -> Cow<'_, Tensor> {
        Cow::Borrowed(&self.input)
    }

    fn reply(self, _: &(), _tenant: u32, _id: u64, outcome: Result<Response, ServeError>) {
        // A dropped handle is fine — the server-side stats already
        // recorded the request.
        let _ = self.tx.send(outcome);
    }
}

/// The answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Id assigned at submission.
    pub id: u64,
    /// Predicted class index.
    pub prediction: usize,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Total latency from submission to prediction.
    pub latency: Duration,
}

/// Client-side handle to an in-flight request.
#[derive(Debug)]
pub struct ResponseHandle {
    id: u64,
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl ResponseHandle {
    /// The request id this handle waits on.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// The request's typed fate: [`ServeError::DeadlineExceeded`] if shed,
    /// [`ServeError::WorkerPanicked`] if its worker hit a planned panic,
    /// [`ServeError::DrainedAtShutdown`] if shutdown drained it, or
    /// [`ServeError::WorkerLost`] if its batch failed or the worker died
    /// without answering.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx
            .recv()
            .map_err(|_| ServeError::WorkerLost { request_id: self.id })?
    }

    /// [`wait`](Self::wait) bounded by `timeout`: converts a would-be hang
    /// into a typed [`ServeError::ResponseTimeout`]. The chaos harness
    /// waits this way so "server never hangs" is a checkable property.
    ///
    /// # Errors
    ///
    /// Everything [`wait`](Self::wait) returns, plus
    /// [`ServeError::ResponseTimeout`] when `timeout` elapses first.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::ResponseTimeout {
                request_id: self.id,
                waited: timeout,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(ServeError::WorkerLost { request_id: self.id })
            }
        }
    }
}

/// Final runtime statistics returned by [`Server::shutdown`].
#[derive(Debug)]
pub struct ServeStats {
    /// Server-side per-request latency (all completed requests).
    pub latency: LatencyHistogram,
    /// Batch-size statistics across all workers.
    pub batches: BatchStats,
    /// Queue depth observed at each submission.
    pub queue_depth: QueueDepthStats,
    /// Per-scheme virtual cost accounting for the realized batch stream.
    pub schemes: Vec<SchemeSummary>,
    /// Typed model/worker errors encountered while serving (empty on a
    /// clean run).
    pub worker_errors: Vec<ServeError>,
    /// Requests shed past their deadline (each got a typed
    /// [`ServeError::DeadlineExceeded`]).
    pub shed: u64,
    /// Requests rejected by an injected worker panic (each got a typed
    /// [`ServeError::WorkerPanicked`] *before* the panic unwound).
    pub panicked: u64,
    /// Requests still queued when the last worker exited, drained with a
    /// typed [`ServeError::DrainedAtShutdown`] instead of being dropped.
    pub drained: u64,
    /// Panic/respawn/quarantine history aggregated across all supervised
    /// workers.
    pub supervision: SupervisorReport,
    /// Circuit-breaker trip/rejection/probe counters.
    pub breaker: BreakerStats,
    /// Injected-fault and recovery accounting from the cost model's chaos
    /// schedule (`None` when the server ran without fault injection).
    pub faults: Option<FaultStats>,
}

/// A running in-process inference server: the serving core over a
/// one-tenant registry and a one-lane queue.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Core<Local>>,
    workers: Vec<SupervisedWorker>,
    next_id: AtomicU64,
    config: ServerConfig,
}

impl Server {
    /// Validates `config`, loads the model, compiles its inference plan,
    /// builds the per-scheme cost lanes and spawns the supervised worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Propagates configuration, model-zoo, plan-compilation and
    /// cost-model failures; [`ServeError::WorkerSpawn`] if a worker thread
    /// cannot start.
    pub fn start(config: ServerConfig) -> Result<Self, ServeError> {
        config.validate()?;
        if config.kernel_threads > 0 {
            // Best-effort: the kernel pool is process-global and
            // first-configuration-wins; a later server (or an earlier
            // SEAL_THREADS resolution) keeping its setting is fine
            // because outputs are thread-count independent.
            let _ = seal_pool::configure(config.kernel_threads);
        }
        let registry = Arc::new(TenantRegistry::single(&config)?);
        let queue = Arc::new(FairQueue::one_lane(config.queue_capacity, config.max_batch));
        let shared = Arc::new(Core::new(registry, queue, (), &config));
        let workers = shared.spawn_workers("seal-serve-worker", &config)?;
        Ok(Server {
            shared,
            workers,
            next_id: AtomicU64::new(0),
            config,
        })
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    fn tenant(&self) -> &TenantState {
        self.shared.registry.by_index(0)
    }

    /// Per-sample input shape requests must match.
    pub fn input_shape(&self) -> &Shape {
        self.tenant().model().input_shape()
    }

    /// Draws a deterministic random request input for this model.
    pub fn sample_input(&self, rng: &mut seal_tensor::rng::rngs::StdRng) -> Tensor {
        self.tenant().model().sample(rng)
    }

    /// Submits one sample for classification.
    ///
    /// Never blocks: if the bounded queue is at capacity the request is
    /// refused with [`ServeError::QueueFull`] — that is the backpressure
    /// contract callers build retry/drop policies on.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] for a wrongly-shaped input,
    /// [`ServeError::CircuitOpen`] while the breaker refuses admission,
    /// [`ServeError::QueueFull`] under backpressure and
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, input: Tensor) -> Result<ResponseHandle, ServeError> {
        self.submit_with_fault(input, None)
    }

    /// [`submit`](Self::submit) with a planned chaos fault riding on the
    /// request: `WorkerPanic` poisons the serving worker, `Slow` inflates
    /// its batch's service time, `DeadlineBust` makes the request born
    /// expired so it is guaranteed to be shed.
    pub fn submit_with_fault(
        &self,
        input: Tensor,
        fault: Option<RequestFault>,
    ) -> Result<ResponseHandle, ServeError> {
        if input.shape() != self.input_shape() {
            return Err(ServeError::ShapeMismatch {
                got: input.shape().to_string(),
                want: self.input_shape().to_string(),
            });
        }
        locked(&self.tenant().breaker)
            .admit()
            .map_err(|shed_streak| ServeError::CircuitOpen { shed_streak })?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let request = Request::new(id, Local { input, tx }, fault, self.config.request_deadline);
        let queue = &self.shared.queue;
        queue.try_push(0, request).map_err(|(_, why)| match why {
            PushRefused::Full => ServeError::QueueFull {
                capacity: queue.per_tenant_capacity(),
            },
            PushRefused::Closed => ServeError::ShuttingDown,
        })?;
        Ok(ResponseHandle { id, rx })
    }

    /// Requests served so far plus those still queued or in flight.
    pub fn submitted(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Stops accepting work, lets the workers drain the queue, joins every
    /// supervisor and returns the collected statistics — including a drain
    /// report for any request no worker was left to serve.
    ///
    /// # Errors
    ///
    /// This method itself does not fail; model errors and worker panics
    /// encountered while serving are reported in
    /// [`ServeStats::worker_errors`] and [`ServeStats::supervision`].
    pub fn shutdown(self) -> Result<ServeStats, ServeError> {
        let queue = &self.shared.queue;
        queue.close();
        let supervision = join_workers(self.workers);
        // Workers drain the closed queue before exiting, so leftovers only
        // exist when every worker quarantined.
        let drained = self.shared.reject_queued();
        let tenant = self.shared.registry.by_index(0);
        let cost = locked(&tenant.cost);
        let (schemes, faults) = (cost.summaries(), cost.fault_stats());
        drop(cost);
        Ok(ServeStats {
            latency: locked(&tenant.latency).clone(),
            batches: *locked(&tenant.batches),
            queue_depth: queue.depth_stats(),
            schemes,
            worker_errors: self.shared.take_errors(),
            shed: tenant.shed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            drained,
            supervision,
            breaker: locked(&tenant.breaker).stats(),
            faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn mlp_config() -> ServerConfig {
        ServerConfig {
            model: "mlp".into(),
            workers: 2,
            max_batch: 4,
            batch_deadline: Duration::from_micros(200),
            queue_capacity: 32,
            ..ServerConfig::smoke()
        }
    }

    #[test]
    fn submit_answer_shutdown_roundtrip() {
        let server = Server::start(mlp_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let handles: Vec<ResponseHandle> = (0..10)
            .map(|_| server.submit(server.sample_input(&mut rng)).unwrap())
            .collect();
        for h in handles {
            let r = h.wait().unwrap();
            assert!(r.prediction < 10);
            assert!(r.queue_wait <= r.latency);
            assert!(r.batch_size >= 1);
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.latency.len(), 10);
        assert_eq!(stats.batches.samples, 10);
        assert!(stats.worker_errors.is_empty());
        assert_eq!((stats.shed, stats.panicked, stats.drained), (0, 0, 0));
        assert_eq!(stats.supervision, SupervisorReport::default());
        assert!(stats.faults.is_none(), "no chaos schedule was armed");
    }

    #[test]
    fn served_predictions_match_the_reference_classifier() {
        // Serving plans are compiled without fusion, so a served
        // prediction must equal `ServedModel::classify` (`forward_infer`)
        // on the same weights and input, on every zoo model. Requests go
        // one at a time so both sides see the same batch of one.
        for model in crate::ZOO {
            let config = ServerConfig {
                model: model.into(),
                ..mlp_config()
            };
            let reference = ServedModel::load(model, config.seed).unwrap();
            let server = Server::start(config).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..6 {
                let input = server.sample_input(&mut rng);
                let want = reference.classify(&input).unwrap();
                let served = server.submit(input).unwrap().wait().unwrap();
                assert_eq!(vec![served.prediction], want, "{model}");
            }
            let stats = server.shutdown().unwrap();
            assert!(
                stats.worker_errors.is_empty(),
                "{model}: serve errors: {:?}",
                stats.worker_errors
            );
        }
    }

    #[test]
    fn wrong_shape_is_rejected_at_submission() {
        let server = Server::start(mlp_config()).unwrap();
        let bad = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        match server.submit(bad) {
            Err(ServeError::ShapeMismatch { got, want }) => {
                assert_ne!(got, want);
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let mut config = mlp_config();
        config.workers = 1;
        let server = Server::start(config).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let handles: Vec<ResponseHandle> = (0..8)
            .map(|_| server.submit(server.sample_input(&mut rng)).unwrap())
            .collect();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.batches.samples, 8, "shutdown must drain the queue");
        assert_eq!(stats.drained, 0, "a live worker served everything");
        for h in handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let server = Server::start(mlp_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let probe = server.sample_input(&mut rng);
        server.shared.queue.close();
        assert!(matches!(
            server.submit(probe),
            Err(ServeError::ShuttingDown)
        ));
        server.shutdown().unwrap();
    }

    #[test]
    fn deadline_bust_is_shed_with_a_typed_rejection() {
        let server = Server::start(mlp_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let h = server
            .submit_with_fault(
                server.sample_input(&mut rng),
                Some(RequestFault::DeadlineBust),
            )
            .unwrap();
        match h.wait() {
            Err(ServeError::DeadlineExceeded { deadline, .. }) => {
                assert_eq!(deadline, Duration::ZERO, "born expired");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A healthy request behind the shed one is still served.
        let ok = server.submit(server.sample_input(&mut rng)).unwrap();
        ok.wait().unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.batches.samples, 1, "shed requests are never costed");
    }

    #[test]
    fn breaker_trips_sheds_then_recovers_via_probe() {
        let mut config = mlp_config();
        config.breaker_trip_threshold = 1;
        config.breaker_probe_interval = 1;
        let server = Server::start(config).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // One shed trips the threshold-1 breaker...
        let h = server
            .submit_with_fault(
                server.sample_input(&mut rng),
                Some(RequestFault::DeadlineBust),
            )
            .unwrap();
        assert!(matches!(h.wait(), Err(ServeError::DeadlineExceeded { .. })));
        // ...so the next submission is refused at admission...
        match server.submit(server.sample_input(&mut rng)) {
            Err(ServeError::CircuitOpen { shed_streak }) => assert_eq!(shed_streak, 1),
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        // ...which half-opens it (probe_interval 1): the probe is admitted
        // and its success closes the breaker again.
        let probe = server.submit(server.sample_input(&mut rng)).unwrap();
        probe.wait().unwrap();
        let after = server.submit(server.sample_input(&mut rng)).unwrap();
        after.wait().unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.breaker.trips, 1);
        assert_eq!(stats.breaker.rejections, 1);
        assert_eq!(stats.breaker.probes, 1);
    }

    #[test]
    fn injected_panic_rejects_its_request_and_respawns_the_worker() {
        let mut config = mlp_config();
        config.workers = 1;
        let server = Server::start(config).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let poisoned = server
            .submit_with_fault(
                server.sample_input(&mut rng),
                Some(RequestFault::WorkerPanic),
            )
            .unwrap();
        let pid = poisoned.id();
        match poisoned.wait() {
            Err(ServeError::WorkerPanicked { request_id }) => assert_eq!(request_id, pid),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The respawned worker keeps serving.
        let ok = server.submit(server.sample_input(&mut rng)).unwrap();
        ok.wait().unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.supervision.panics, 1);
        assert_eq!(stats.supervision.respawns, 1);
        assert!(!stats.supervision.quarantined);
    }

    #[test]
    fn quarantined_pool_drains_leftovers_with_typed_rejections() {
        let mut config = mlp_config();
        config.workers = 1;
        config.worker_respawn_budget = 0; // first panic quarantines
        let server = Server::start(config).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let poisoned = server
            .submit_with_fault(
                server.sample_input(&mut rng),
                Some(RequestFault::WorkerPanic),
            )
            .unwrap();
        assert!(matches!(
            poisoned.wait(),
            Err(ServeError::WorkerPanicked { .. })
        ));
        // With the only worker quarantined, these can never be served —
        // shutdown must drain them with a typed rejection, not drop them.
        let orphans: Vec<ResponseHandle> = (0..5)
            .map(|_| server.submit(server.sample_input(&mut rng)).unwrap())
            .collect();
        let stats = server.shutdown().unwrap();
        assert!(stats.supervision.quarantined);
        assert_eq!(stats.drained, 5);
        for h in orphans {
            let id = h.id();
            match h.wait() {
                Err(ServeError::DrainedAtShutdown { request_id }) => assert_eq!(request_id, id),
                other => panic!("expected DrainedAtShutdown, got {other:?}"),
            }
        }
    }
}
