//! The server proper: acceptor, connection handlers, worker pool,
//! supervisor, degradation ladder, drain.
//!
//! Thread layout:
//!
//! ```text
//! acceptor ──spawns──▶ handler (one per connection, keep-alive loop)
//!                         │ parse + build + lint, then the tier ladder:
//!                         │   full  ──▶ queue.try_push ──▶ 429 when full
//!                         │   replay ─▶ cached recording, no queue
//!                         │   static ─▶ interval only, no simulation
//!                         ▼
//!                     BoundedQueue ◀──pop── worker × N ──▶ Engine::run
//!                         ▲                      │
//!                         │                  supervisor (heartbeats,
//!                         │                  respawn, orphan requeue)
//!                         └── reply slot ◀──────┘
//! ```
//!
//! Every full prediction goes through the one shared [`Engine`], so the
//! memo cache, journal, and metrics registry see the server's whole
//! lifetime. The handler builds each job's program once
//! ([`Engine::prepare`]) before the lint gate; every later step — tiers,
//! admission, the worker's run, the reported bounds — reuses it.
//!
//! **Overload behaviour** is tiered rather than binary. Above a
//! high-watermark queue depth `/v1/predict` stops queueing and degrades:
//! first to a cached step-recording replay (bit-identical totals, no
//! queue wait), then to the queue-free static `[lo, hi]` estimate. Every
//! response names its `tier`. Requests carrying a `deadline_ms` are
//! admitted only if the calibrated cost model says they can finish in
//! time; provably-late requests shed the newest deadline-less queue
//! entries first (the victims get static-tier answers), then degrade or
//! are refused with a *computed* `Retry-After`.
//!
//! **Worker supervision**: each worker publishes a heartbeat; a
//! supervisor thread respawns panicked workers (re-enqueueing the job
//! they held, once) and backfills stalled ones, so the pool never
//! shrinks permanently. `serve_worker_restarts_total` counts its
//! interventions.
//!
//! **Chaos**: an optional [`predsim_faults::ChaosPlan`] injects worker
//! panics/stalls, accept-loop hiccups and connection drops as pure
//! hashes of (seed, site) — deterministic, like every fault in this
//! workspace.
//!
//! Drain is cooperative and loses nothing that was admitted: the
//! acceptor stops accepting, the read half of every open connection is
//! shut down (a handler blocked in a read sees EOF and exits; a handler
//! waiting for a worker reply still owns a working write half), handlers
//! are joined, then the queue is closed and workers finish whatever was
//! queued before the supervisor stands down.

use crate::admission::CostModel;
use crate::api;
use crate::http::{HttpReader, Request, RequestError, Response};
use crate::queue::{BoundedQueue, PushError};
use predsim_engine::{Engine, EngineConfig, EngineObs, JobOutcome, JobResult, JobSpec, Journal};
use predsim_faults::ChaosPlan;
use predsim_obs::{default_ns_buckets, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Prediction worker threads.
    pub workers: usize,
    /// Admission-queue capacity; beyond it requests get `429`.
    pub queue_cap: usize,
    /// Socket read/write timeout — bounds both a slow request and an
    /// idle keep-alive connection.
    pub request_timeout: Duration,
    /// Largest request body accepted (bytes); beyond it, `413`.
    pub max_body: usize,
    /// Engine configuration (workers each run jobs inline, so its `jobs`
    /// is forced to 1).
    pub engine: EngineConfig,
    /// Append every finished job to this checkpoint journal.
    pub journal: Option<std::path::PathBuf>,
    /// Queue depth at which `/v1/predict` degrades to recording replay.
    /// `None` derives `max(1, queue_cap / 2)`.
    pub replay_at: Option<usize>,
    /// Queue depth at which `/v1/predict` degrades to the static-bounds
    /// estimate. `None` derives `max(replay_at, 3 * queue_cap / 4)`.
    pub static_at: Option<usize>,
    /// How long a busy worker may go without a heartbeat before the
    /// supervisor backfills it with a fresh thread.
    pub stall_timeout: Duration,
    /// Deterministic infrastructure-fault injection (`--chaos`).
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 32,
            request_timeout: Duration::from_secs(30),
            max_body: 1 << 20,
            engine: EngineConfig::default(),
            journal: None,
            replay_at: None,
            static_at: None,
            stall_timeout: Duration::from_secs(30),
            chaos: None,
        }
    }
}

/// What one admitted queue entry asks a worker to do. `Clone` so the
/// worker can park an orphan copy for the supervisor before running.
#[derive(Clone)]
enum Work {
    /// Run one prepared prediction job through the engine. Boxed so the
    /// enum stays pointer-sized regardless of how `JobSpec` grows.
    Predict(Box<JobSpec>),
    /// Measure a source on the emulator and fit a LogGP preset to it
    /// (`POST /v1/calibrate`). Boxed: a calibration carries its whole
    /// measured configuration and is rare next to predictions.
    Calibrate(Box<api::CalibrateRequest>),
    /// Sweep a task DAG across processor counts (`POST /v1/speedup`).
    /// Boxed for the same reason as calibrations.
    Speedup(Box<api::SpeedupRequest>),
}

/// One admitted unit of work: what to do, the slot its handler is
/// waiting on, and the admission metadata the cost model and the
/// shedding policy act on.
struct Job {
    work: Work,
    reply: Arc<ReplySlot>,
    slot: usize,
    /// Estimated wall cost at admission (subtracted when popped).
    est_ns: u64,
    /// Static ceiling the estimate came from (0 when none).
    hi_ps: u64,
    /// Answer-by instant, for requests that carried `deadline_ms`.
    deadline: Option<Instant>,
    /// May a deadline admission evict this entry? (Single deadline-less
    /// predicts only — batches and calibrations are never shed.)
    sheddable: bool,
    /// Already re-enqueued once by the supervisor; a second worker death
    /// answers `crashed` instead of looping forever.
    requeued: bool,
}

impl Job {
    /// The copy a worker parks for the supervisor before running.
    fn orphan_copy(&self) -> Job {
        Job {
            work: self.work.clone(),
            reply: Arc::clone(&self.reply),
            slot: self.slot,
            est_ns: self.est_ns,
            hi_ps: self.hi_ps,
            deadline: self.deadline,
            sheddable: self.sheddable,
            requeued: self.requeued,
        }
    }
}

/// What one calibration produced: the fit report plus what happened to
/// a requested preset registration (`None` when none was asked for);
/// the outer `Err` is a calibration that failed outright (or panicked —
/// workers catch it).
type CalibrationOutcome =
    Result<(predsim_calib::FitReport, Option<Result<String, String>>), String>;

/// What a worker hands back for one unit of work.
enum Reply {
    /// A finished prediction and how many wall-ns the worker spent on it
    /// (the cost model's calibration sample).
    Predict(JobResult, u64),
    Calibrate(Box<CalibrationOutcome>),
    /// A finished speedup sweep (or why it failed).
    Speedup(Box<Result<predsim_dag::SweepReport, String>>),
    /// The job was shed after admission (deadline eviction, or expired
    /// before a worker reached it); the handler answers at a degraded
    /// tier.
    Shed,
}

/// Where a worker leaves results for the waiting handler. One slot per
/// request: a batch of `n` jobs shares a slot expecting `n` results.
struct ReplySlot {
    results: Mutex<Vec<Option<Reply>>>,
    done: Condvar,
}

impl ReplySlot {
    fn new(n: usize) -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            results: Mutex::new((0..n).map(|_| None).collect()),
            done: Condvar::new(),
        })
    }

    fn fill(&self, slot: usize, result: Reply) {
        let mut results = self.results.lock().expect("reply slot poisoned");
        results[slot] = Some(result);
        drop(results);
        self.done.notify_all();
    }

    /// Wait until every slot is filled. Unbounded: every admitted job is
    /// guaranteed a result (the engine turns panics into `crashed`
    /// outcomes, calibrations run under `catch_unwind`, dead workers'
    /// jobs are re-enqueued or answered by the supervisor, and drain
    /// never abandons the queue).
    fn wait(&self) -> Vec<Reply> {
        let mut results = self.results.lock().expect("reply slot poisoned");
        loop {
            if results.iter().all(Option::is_some) {
                return results.iter_mut().map(|r| r.take().unwrap()).collect();
            }
            results = self.done.wait(results).expect("reply slot poisoned");
        }
    }
}

/// The serve-layer metrics, on the same registry the engine publishes to.
struct ServeMetrics {
    registry: Arc<Registry>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    wall: Arc<Histogram>,
    restarts: Arc<Counter>,
}

impl ServeMetrics {
    fn new(registry: Arc<Registry>) -> ServeMetrics {
        let queue_depth = registry.gauge(
            "serve_queue_depth",
            "prediction jobs waiting in the admission queue",
        );
        let in_flight = registry.gauge(
            "serve_jobs_in_flight",
            "prediction jobs currently executing on a worker",
        );
        let wall = registry.histogram(
            "serve_request_wall_ns",
            "wall time from request parsed to response written, ns",
            &default_ns_buckets(),
        );
        let restarts = registry.counter(
            "serve_worker_restarts_total",
            "worker threads respawned or backfilled by the supervisor",
        );
        ServeMetrics {
            registry,
            queue_depth,
            in_flight,
            wall,
            restarts,
        }
    }

    /// Count one finished request, by status code and endpoint.
    fn record(&self, endpoint: &'static str, status: u16, wall: Duration) {
        self.registry
            .counter_with(
                "serve_requests_total",
                &[("code", &status.to_string())],
                "HTTP responses sent, by status code",
            )
            .inc();
        self.registry
            .counter_with(
                "serve_endpoint_requests_total",
                &[("endpoint", endpoint)],
                "HTTP responses sent, by endpoint",
            )
            .inc();
        self.wall
            .observe(wall.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Count one `/v1/predict` answer by serving tier.
    fn tier(&self, tier: api::Tier) {
        self.registry
            .counter_with(
                "serve_tier_total",
                &[("tier", tier.as_str())],
                "predict answers by serving tier",
            )
            .inc();
    }

    /// Count one shed decision, by reason.
    fn shed(&self, reason: &str) {
        self.registry
            .counter_with(
                "serve_sheds_total",
                &[("reason", reason)],
                "requests shed or downgraded by admission control",
            )
            .inc();
    }

    /// Count one injected chaos event, by kind.
    fn chaos(&self, kind: &str) {
        self.registry
            .counter_with(
                "serve_chaos_injections_total",
                &[("kind", kind)],
                "deterministic chaos events injected",
            )
            .inc();
    }
}

/// Per-worker supervision state. The worker beats; the supervisor reads.
struct WorkerState {
    /// Milliseconds since server start at the last heartbeat.
    beat_ms: AtomicU64,
    /// Currently holding a job.
    busy: AtomicBool,
    /// The supervisor backfilled this worker after a stall; it should
    /// exit at the next loop turn instead of popping more work.
    superseded: AtomicBool,
    /// Copy of the job being run, for requeue if this thread dies.
    orphan: Mutex<Option<Job>>,
}

impl WorkerState {
    fn new() -> Arc<WorkerState> {
        Arc::new(WorkerState {
            beat_ms: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            superseded: AtomicBool::new(false),
            orphan: Mutex::new(None),
        })
    }

    fn beat(&self, shared: &Shared) {
        self.beat_ms.store(
            shared.started.elapsed().as_millis() as u64,
            Ordering::SeqCst,
        );
    }
}

/// A cached step recording for the replay tier: the program it was made
/// from plus the recording itself.
type ReplayEntry = (
    Arc<predsim_core::Program>,
    Arc<predsim_core::ProgramRecording>,
);

/// Most recordings the replay tier keeps warm.
const REPLAY_CACHE_CAP: usize = 32;

struct Shared {
    engine: Engine,
    queue: BoundedQueue<Job>,
    metrics: ServeMetrics,
    cost: CostModel,
    journal: Option<Journal>,
    draining: AtomicBool,
    supervisor_stop: AtomicBool,
    executing: AtomicUsize,
    /// Read halves of open connections, for shutdown on drain.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    workers: usize,
    request_timeout: Duration,
    max_body: usize,
    replay_at: usize,
    static_at: usize,
    stall_timeout: Duration,
    chaos: Option<ChaosPlan>,
    /// Chaos site counters: each decision consumes the next site, so a
    /// run is reproducible from (spec, seed) + request order alone.
    chaos_pop_site: AtomicU64,
    chaos_conn_site: AtomicU64,
    chaos_accept_site: AtomicU64,
    replays: Mutex<HashMap<String, ReplayEntry>>,
    started: Instant,
}

impl Shared {
    /// True once a drain has been requested.
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn sync_gauges(&self) {
        self.metrics.queue_depth.set(self.queue.depth() as u64);
        self.metrics
            .in_flight
            .set(self.executing.load(Ordering::SeqCst) as u64);
    }

    /// A ready-to-send 429 with the computed `Retry-After`: the cost
    /// model's estimate of when the backlog in front of the client will
    /// have cleared (whole seconds, floor 1).
    fn too_busy(&self, message: &str) -> Response {
        let retry = self
            .cost
            .retry_after_secs(self.executing.load(Ordering::SeqCst), self.workers);
        Response::json(429, api::error_body(message)).with_header("Retry-After", &retry.to_string())
    }
}

/// Decrement `executing` even if the worker panics on the way out.
struct ExecGuard<'a>(&'a Shared);

impl<'a> ExecGuard<'a> {
    fn new(shared: &'a Shared) -> ExecGuard<'a> {
        shared.executing.fetch_add(1, Ordering::SeqCst);
        shared.sync_gauges();
        ExecGuard(shared)
    }
}

impl Drop for ExecGuard<'_> {
    fn drop(&mut self) {
        self.0.executing.fetch_sub(1, Ordering::SeqCst);
        self.0.sync_gauges();
    }
}

/// What [`ServerHandle::drain`] hands back once everything has stopped.
pub struct DrainReport {
    /// Final metrics snapshot, taken after the last worker exited — the
    /// counters cover every request the server ever answered.
    pub metrics: MetricsSnapshot,
}

/// A running server. Dropping the handle leaks the threads; call
/// [`ServerHandle::drain`] for an orderly stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    registry: Arc<Registry>,
    acceptor: std::thread::JoinHandle<()>,
    supervisor: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry the server and its engine publish to.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// True once a drain has been requested — by [`ServerHandle::drain`]
    /// or by a client's `POST /admin/drain`.
    pub fn drain_requested(&self) -> bool {
        self.shared.draining()
    }

    /// Block until a drain is requested (the CLI parks here).
    pub fn wait_for_drain_request(&self) {
        while !self.drain_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stop gracefully: refuse new connections, let in-flight requests
    /// (including everything already admitted to the queue) finish, stop
    /// the workers and their supervisor, and return the final metrics.
    pub fn drain(self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake handlers blocked reading an idle keep-alive connection:
        // closing the read half turns their pending read into EOF while
        // leaving the write half alive for in-flight responses.
        for (_, stream) in self.shared.conns.lock().expect("conns poisoned").iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // The acceptor notices the flag, stops accepting, and joins every
        // handler thread (each finishes its current request first).
        self.acceptor.join().expect("acceptor panicked");
        // No handler is left to enqueue; close the queue so workers run
        // whatever was admitted. The supervisor keeps respawning dead
        // workers until the queue is truly drained, then stands down.
        self.shared.queue.close();
        self.shared.supervisor_stop.store(true, Ordering::SeqCst);
        self.supervisor.join().expect("supervisor panicked");
        self.shared.sync_gauges();
        DrainReport {
            // Engine::metrics_snapshot also publishes the final cache
            // gauges and flushes any trace sink.
            metrics: self.shared.engine.metrics_snapshot(),
        }
    }
}

/// The server. Start with [`Server::start`]; interact through the
/// returned [`ServerHandle`].
pub struct Server;

impl Server {
    /// Bind, spawn the worker pool and the acceptor, and return.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        Server::start_with_registry(config, Arc::new(Registry::new()))
    }

    /// As [`Server::start`], but publishing to a caller-owned registry.
    pub fn start_with_registry(
        config: ServeConfig,
        registry: Arc<Registry>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let journal = match &config.journal {
            Some(path) => Some(Journal::create(path)?),
            None => None,
        };
        let engine = Engine::with_obs(
            config.engine.with_jobs(1),
            EngineObs::with_registry(Arc::clone(&registry)),
        );
        let workers = config.workers.max(1);
        let queue_cap = config.queue_cap.max(1);
        let replay_at = config.replay_at.unwrap_or((queue_cap / 2).max(1));
        let static_at = config
            .static_at
            .unwrap_or(replay_at.max(queue_cap * 3 / 4))
            .max(1);
        let shared = Arc::new(Shared {
            engine,
            queue: BoundedQueue::new(queue_cap),
            metrics: ServeMetrics::new(Arc::clone(&registry)),
            cost: CostModel::new(),
            journal,
            draining: AtomicBool::new(false),
            supervisor_stop: AtomicBool::new(false),
            executing: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            workers,
            request_timeout: config.request_timeout,
            max_body: config.max_body,
            replay_at,
            static_at,
            stall_timeout: config.stall_timeout,
            chaos: config.chaos.filter(|p| !p.spec().is_none()),
            chaos_pop_site: AtomicU64::new(0),
            chaos_conn_site: AtomicU64::new(0),
            chaos_accept_site: AtomicU64::new(0),
            replays: Mutex::new(HashMap::new()),
            started: Instant::now(),
        });

        let pool: Vec<_> = (0..workers).map(|i| spawn_worker(&shared, i)).collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared, pool, workers))
                .expect("spawning supervisor")
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || acceptor_loop(listener, &shared))
                .expect("spawning acceptor")
        };
        Ok(ServerHandle {
            addr,
            shared,
            registry,
            acceptor,
            supervisor,
        })
    }
}

fn spawn_worker(
    shared: &Arc<Shared>,
    id: usize,
) -> (std::thread::JoinHandle<()>, Arc<WorkerState>) {
    let state = WorkerState::new();
    state.beat(shared);
    let handle = {
        let shared = Arc::clone(shared);
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name(format!("serve-worker-{id}"))
            .spawn(move || worker_loop(&shared, &state))
            .expect("spawning worker")
    };
    (handle, state)
}

fn worker_loop(shared: &Shared, state: &WorkerState) {
    loop {
        if state.superseded.load(Ordering::SeqCst) {
            return;
        }
        let Some(job) = shared.queue.pop() else {
            return;
        };
        state.beat(shared);
        state.busy.store(true, Ordering::SeqCst);
        shared.cost.on_leave_queue(job.est_ns);
        let guard = ExecGuard::new(shared);
        // Park an orphan copy first, so a death anywhere past this point
        // leaves the supervisor everything it needs to keep the
        // admitted ⇒ answered invariant.
        *state.orphan.lock().expect("orphan poisoned") = Some(job.orphan_copy());
        if let Some(plan) = &shared.chaos {
            let site = shared.chaos_pop_site.fetch_add(1, Ordering::SeqCst);
            if plan.worker_panic(site) {
                shared.metrics.chaos("panic");
                panic!("chaos: injected worker panic at site {site}");
            }
            if let Some(ms) = plan.worker_stall(site) {
                shared.metrics.chaos("stall");
                // Heartbeat deliberately frozen: this is what the
                // supervisor's stall detector looks for.
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        let reply = match (&job.deadline, &job.work) {
            // The deadline passed while the job sat in the queue: the
            // handler answers at a degraded tier instead of burning a
            // worker on an answer the client already gave up on.
            (Some(dl), Work::Predict(_)) if Instant::now() >= *dl => {
                shared.metrics.shed("expired");
                Reply::Shed
            }
            (_, Work::Predict(_)) => {
                let Work::Predict(spec) = job.work else {
                    unreachable!()
                };
                let exec_started = Instant::now();
                // jobs=1 runs inline on this thread; the engine's per-job
                // catch_unwind turns job panics into `crashed` results,
                // so the reply slot is always filled.
                let mut results = shared.engine.run(std::slice::from_ref(&*spec));
                let result = results.pop().expect("engine returns one result per spec");
                if let Some(journal) = &shared.journal {
                    journal.record(&result);
                }
                let exec_ns = exec_started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                Reply::Predict(result, exec_ns)
            }
            (_, Work::Calibrate(_)) => {
                let Work::Calibrate(request) = job.work else {
                    unreachable!()
                };
                Reply::Calibrate(Box::new(run_calibration(shared, &request)))
            }
            (_, Work::Speedup(_)) => {
                let Work::Speedup(request) = job.work else {
                    unreachable!()
                };
                Reply::Speedup(Box::new(run_speedup(&request)))
            }
        };
        job.reply.fill(job.slot, reply);
        *state.orphan.lock().expect("orphan poisoned") = None;
        drop(guard);
        state.busy.store(false, Ordering::SeqCst);
        state.beat(shared);
    }
}

/// The supervisor: respawn dead workers (re-enqueueing the orphaned job
/// once), backfill stalled ones, and during drain keep the pool alive
/// until the queue is truly empty.
fn supervisor_loop(
    shared: &Arc<Shared>,
    mut pool: Vec<(std::thread::JoinHandle<()>, Arc<WorkerState>)>,
    mut next_id: usize,
) {
    loop {
        let stopping = shared.supervisor_stop.load(Ordering::SeqCst);
        let mut i = 0;
        while i < pool.len() {
            if pool[i].0.is_finished() {
                let (handle, state) = pool.remove(i);
                let panicked = handle.join().is_err();
                if panicked {
                    shared.metrics.restarts.inc();
                    let orphan = state.orphan.lock().expect("orphan poisoned").take();
                    if let Some(mut job) = orphan {
                        if job.requeued {
                            // Second death on the same job: stop retrying
                            // and answer it, so the handler never hangs.
                            fill_crashed(job);
                        } else {
                            job.requeued = true;
                            shared.cost.on_admit(job.est_ns);
                            shared.queue.requeue_front(job);
                            shared.sync_gauges();
                        }
                    }
                    // Respawn at full strength — even during drain the
                    // queue may still hold admitted (or just requeued)
                    // work that must run.
                    if !shared.queue.is_drained() {
                        pool.push(spawn_worker(shared, next_id));
                        next_id += 1;
                    }
                }
                // A clean exit is a drained worker: not respawned.
            } else {
                let state = &pool[i].1;
                if state.busy.load(Ordering::SeqCst) && !state.superseded.load(Ordering::SeqCst) {
                    let beat = state.beat_ms.load(Ordering::SeqCst);
                    let now = shared.started.elapsed().as_millis() as u64;
                    if now.saturating_sub(beat) > shared.stall_timeout.as_millis() as u64 {
                        // Stalled (or just very slow): backfill with a
                        // fresh thread so throughput recovers; the
                        // stalled worker finishes its job (its reply is
                        // still valid) and exits at its next loop turn.
                        state.superseded.store(true, Ordering::SeqCst);
                        shared.metrics.restarts.inc();
                        pool.push(spawn_worker(shared, next_id));
                        next_id += 1;
                    }
                }
                i += 1;
            }
        }
        if stopping && pool.is_empty() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Answer a job whose worker died twice: the handler gets the same
/// `crashed` shape an engine-caught panic produces, so admitted work is
/// always answered.
fn fill_crashed(job: Job) {
    let reply = match &job.work {
        Work::Predict(spec) => Reply::Predict(
            JobResult {
                index: 0,
                label: spec.label.clone(),
                outcome: JobOutcome::Crashed {
                    message: "worker thread died while running this job \
                              (re-enqueued once, then died again)"
                        .into(),
                    attempts: 2,
                },
            },
            0,
        ),
        Work::Calibrate(_) => Reply::Calibrate(Box::new(Err(
            "worker thread died twice while calibrating".into(),
        ))),
        Work::Speedup(_) => Reply::Speedup(Box::new(Err(
            "worker thread died twice while sweeping".into(),
        ))),
    };
    job.reply.fill(job.slot, reply);
}

/// Execute one calibration on a worker: emulate the source, fit a
/// preset on the shared engine (reusing its memo cache), publish the
/// `calib_*` metrics, and register the preset when asked to. Panics
/// anywhere inside become an `Err`, not a dead worker.
fn run_calibration(shared: &Shared, request: &api::CalibrateRequest) -> CalibrationOutcome {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let set = predsim_calib::measure(
            &request.program,
            &request.loads,
            &request.source,
            &request.machine,
            &request.measure,
        );
        predsim_calib::calibrate(&request.program, &set, &shared.engine, &request.fit)
    }));
    let report = match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(e),
        Err(_) => return Err("calibration panicked".into()),
    };
    predsim_calib::export_metrics(&shared.metrics.registry, &report);
    let registered = request.register.as_ref().map(|name| {
        if !report.converged {
            return Err("fit did not converge; preset not registered".to_string());
        }
        loggp::registry::register(name, report.params).map(|()| name.clone())
    });
    Ok((report, registered))
}

/// Execute one speedup sweep on a worker. The sweep simulates the DAG
/// once per requested processor count; panics anywhere inside become an
/// `Err`, not a dead worker.
fn run_speedup(request: &api::SpeedupRequest) -> Result<predsim_dag::SweepReport, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        predsim_dag::sweep(
            &request.dag,
            request.scheduler,
            &request.machine,
            &request.spec,
            &request.procs,
        )
    }))
    .unwrap_or_else(|_| Err("speedup sweep panicked".into()))
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some(plan) = &shared.chaos {
                    let site = shared.chaos_accept_site.fetch_add(1, Ordering::SeqCst);
                    if let Some(ms) = plan.accept_hiccup(site) {
                        shared.metrics.chaos("hiccup");
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
                if stream.set_nonblocking(false).is_err()
                    || stream
                        .set_read_timeout(Some(shared.request_timeout))
                        .is_err()
                    || stream
                        .set_write_timeout(Some(shared.request_timeout))
                        .is_err()
                {
                    continue;
                }
                let shared = Arc::clone(shared);
                handlers.push(
                    std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || handle_connection(stream, &shared))
                        .expect("spawning handler"),
                );
                // Reap finished handlers so a long-lived server does not
                // accumulate join handles.
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(listener);
    for handler in handlers {
        handler.join().expect("handler panicked");
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    if let Ok(clone) = stream.try_clone() {
        shared
            .conns
            .lock()
            .expect("conns poisoned")
            .insert(conn_id, clone);
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = HttpReader::new(stream);
    loop {
        let request = match reader.read_request(shared.max_body) {
            Ok(req) => req,
            Err(RequestError::Closed) | Err(RequestError::Timeout) | Err(RequestError::Io(_)) => {
                break;
            }
            Err(RequestError::TooLarge) => {
                let resp = Response::json(413, api::error_body("request too large"));
                let _ = resp.write_to(&mut writer, false);
                shared.metrics.record("other", 413, Duration::ZERO);
                break;
            }
            Err(RequestError::Malformed(why)) => {
                let resp =
                    Response::json(400, api::error_body(&format!("malformed request: {why}")));
                let _ = resp.write_to(&mut writer, false);
                shared.metrics.record("other", 400, Duration::ZERO);
                break;
            }
        };
        if let Some(plan) = &shared.chaos {
            // Mid-request connection drop: the request was read but is
            // severed before admission, so nothing is ever admitted for
            // it — the client sees a reset and retries.
            let site = shared.chaos_conn_site.fetch_add(1, Ordering::SeqCst);
            if plan.conn_drop(site) {
                shared.metrics.chaos("drop-conn");
                let _ = writer.shutdown(Shutdown::Both);
                break;
            }
        }
        let started = Instant::now();
        let keep_alive = request.wants_keep_alive() && !shared.draining();
        let (endpoint, response) = route(&request, shared);
        let status = response.status;
        if response.write_to(&mut writer, keep_alive).is_err() {
            shared.metrics.record(endpoint, status, started.elapsed());
            break;
        }
        shared.metrics.record(endpoint, status, started.elapsed());
        if !keep_alive {
            break;
        }
    }
    shared
        .conns
        .lock()
        .expect("conns poisoned")
        .remove(&conn_id);
}

/// Dispatch one request. Returns the endpoint label used in metrics and
/// the response to send. Handlers answer `Err` with a failure status so
/// that `?` can end them early; both sides are sent alike.
fn route(request: &Request, shared: &Shared) -> (&'static str, Response) {
    let (endpoint, answer) = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/predict") => ("/v1/predict", predict(request, shared)),
        ("POST", "/v1/estimate") => ("/v1/estimate", estimate(request)),
        ("POST", "/v1/batch") => ("/v1/batch", batch(request, shared)),
        ("POST", "/v1/calibrate") => ("/v1/calibrate", calibrate(request, shared)),
        ("POST", "/v1/speedup") => ("/v1/speedup", speedup(request, shared)),
        ("POST", "/admin/drain") => ("/admin/drain", Ok(drain_request(shared))),
        ("GET", "/healthz") => ("/healthz", Ok(healthz(shared))),
        ("GET", "/metrics") => (
            "/metrics",
            Ok(Response::text(200, snapshot(shared).to_prometheus())),
        ),
        ("GET", "/metrics.json") => (
            "/metrics.json",
            Ok(Response::json(200, snapshot(shared).to_json())),
        ),
        (
            _,
            "/v1/predict" | "/v1/estimate" | "/v1/batch" | "/v1/calibrate" | "/v1/speedup"
            | "/admin/drain" | "/healthz" | "/metrics" | "/metrics.json",
        ) => (
            "other",
            Err(Response::json(405, api::error_body("method not allowed"))),
        ),
        _ => (
            "other",
            Err(Response::json(404, api::error_body("not found"))),
        ),
    };
    (endpoint, answer.unwrap_or_else(|refusal| refusal))
}

/// The opening every POST handler shares: `503` while `draining` (callers
/// that queue pass the server's flag; `/v1/estimate` never queues, so it
/// passes `false` and answers throughout a drain), `400` for a body that
/// is not UTF-8, then `parse`'s verdict on the body.
fn parse_body<T>(
    request: &Request,
    draining: bool,
    parse: impl FnOnce(&str) -> Result<T, api::ApiError>,
) -> Result<T, Response> {
    if draining {
        return Err(Response::json(503, api::error_body("server is draining")));
    }
    let body = request
        .body_str()
        .map_err(|_| Response::json(400, api::error_body("body is not valid UTF-8")))?;
    Ok(parse(body)?)
}

/// The `500` for a worker reply of the wrong kind (a bug, never expected).
fn wrong_reply() -> Response {
    Response::json(500, api::error_body("worker returned the wrong reply kind"))
}

/// A metrics snapshot with the serve gauges freshly synced. Goes through
/// [`Engine::metrics_snapshot`] so the engine's cache gauges are fresh
/// too.
fn snapshot(shared: &Shared) -> MetricsSnapshot {
    shared.sync_gauges();
    shared.engine.metrics_snapshot()
}

fn healthz(shared: &Shared) -> Response {
    use predsim_lint::json::Value;
    let draining = shared.draining();
    let body = Value::Object(vec![
        (
            "status".into(),
            Value::Str(if draining { "draining" } else { "ok" }.into()),
        ),
        (
            "queue_depth".into(),
            Value::Int(shared.queue.depth() as i64),
        ),
        (
            "in_flight".into(),
            Value::Int(shared.executing.load(Ordering::SeqCst) as i64),
        ),
        ("workers".into(), Value::Int(shared.workers as i64)),
        (
            "worker_restarts".into(),
            Value::Int(shared.metrics.restarts.get() as i64),
        ),
    ]);
    Response::json(200, body.to_compact())
}

fn drain_request(shared: &Shared) -> Response {
    shared.draining.store(true, Ordering::SeqCst);
    Response::json(200, "{\"draining\":true}")
}

/// One unit of work plus its admission metadata, ready to enqueue.
struct Admit {
    work: Work,
    est_ns: u64,
    hi_ps: u64,
    deadline: Option<Instant>,
    sheddable: bool,
}

impl Admit {
    fn plain(work: Work, est_ns: u64) -> Admit {
        Admit {
            work,
            est_ns,
            hi_ps: 0,
            deadline: None,
            sheddable: false,
        }
    }
}

/// Admit work (all-or-nothing), wait for the results. `Err` is the
/// ready-to-send backpressure or shutdown response.
fn admit_and_run(shared: &Shared, admits: Vec<Admit>) -> Result<Vec<Reply>, Response> {
    let reply = ReplySlot::new(admits.len());
    let total_est: u64 = admits.iter().map(|a| a.est_ns).sum();
    let batch: Vec<Job> = admits
        .into_iter()
        .enumerate()
        .map(|(slot, a)| Job {
            work: a.work,
            reply: Arc::clone(&reply),
            slot,
            est_ns: a.est_ns,
            hi_ps: a.hi_ps,
            deadline: a.deadline,
            sheddable: a.sheddable,
            requeued: false,
        })
        .collect();
    match shared.queue.try_push_all(batch) {
        Ok(()) => {
            shared.cost.on_admit(total_est);
            shared.sync_gauges();
            Ok(reply.wait())
        }
        Err((_, PushError::Full)) => {
            shared.metrics.shed("queue-full");
            Err(shared.too_busy("admission queue is full; retry later"))
        }
        Err((_, PushError::Closed)) => {
            Err(Response::json(503, api::error_body("server is draining")))
        }
    }
}

/// Serve one predict from the replay tier if possible: a cached step
/// recording (or one recorded right here, once, off the queue) replayed
/// under the request's options. `ProgramRecording::predict` verifies
/// every step and transparently resimulates mismatches, so the totals
/// are bit-identical to a full simulation — only the `tier` field tells
/// the client it skipped the queue.
fn try_replay(shared: &Shared, name: &str, spec: &JobSpec) -> Option<Response> {
    let o = &spec.opts;
    let p = o.cfg.params;
    let key = format!(
        "{name}|{},{},{},{},{}|{:?}|{:?}|{:?}|{:?}|{}",
        p.latency.as_ps(),
        p.overhead.as_ps(),
        p.gap.as_ps(),
        p.gap_per_byte.as_ps(),
        p.procs,
        o.algo,
        o.sync,
        o.overlap,
        o.cfg.gap_rule,
        o.cfg.seed,
    );
    let cached = shared
        .replays
        .lock()
        .expect("replay cache poisoned")
        .get(&key)
        .cloned();
    let (program, recording) = match cached {
        Some(entry) => entry,
        None => {
            // One full simulation on this handler thread, amortized over
            // every later hit. Holds no lock while simulating.
            let (_, recording, program) = predsim_engine::record_job(spec)?;
            let entry = (program, Arc::new(recording));
            let mut cache = shared.replays.lock().expect("replay cache poisoned");
            if cache.len() >= REPLAY_CACHE_CAP {
                cache.clear();
            }
            cache.insert(key, entry.clone());
            entry
        }
    };
    let (prediction, _stats) = recording.predict(&program, o);
    let result = JobResult {
        index: 0,
        label: spec.label.clone(),
        outcome: JobOutcome::Done {
            prediction,
            attempts: 1,
        },
    };
    let bounds = predsim_engine::static_bounds(spec);
    shared.metrics.tier(api::Tier::Replay);
    Some(Response::json(
        200,
        api::render_predict(&result, bounds.as_ref(), api::Tier::Replay),
    ))
}

fn predict(request: &Request, shared: &Shared) -> Result<Response, Response> {
    let req = parse_body(request, shared.draining(), api::parse_predict)?;
    // The program is built once, here: the lint gate, the degraded tiers,
    // deadline admission, the worker and the post-run bounds all share it.
    let gate = (req.name, shared.engine.prepare(req.spec));
    api::check_jobs(std::slice::from_ref(&gate))?;
    let (name, spec) = gate;
    // Jobs the static analyzer can bracket are the ones the degraded
    // tiers can serve; faulted or infeasible jobs only have the full
    // path.
    let degradable = spec.faults.is_none() && spec.source.validate().is_ok();

    // The tier ladder: past the high watermarks, answer without queueing.
    let depth = shared.queue.depth();
    if depth >= shared.static_at {
        if degradable {
            if let Some(b) = predsim_engine::static_bounds(&spec) {
                shared.metrics.tier(api::Tier::Static);
                return Ok(Response::json(
                    200,
                    api::render_predict_static(&spec.label, &b),
                ));
            }
        }
    } else if depth >= shared.replay_at && degradable && name != "trace" {
        if let Some(resp) = try_replay(shared, &name, &spec) {
            return Ok(resp);
        }
    }

    // Deadline-aware admission for the full tier.
    let mut bounds: Option<predsim_lint::ProgramBounds> = None;
    let mut est_ns = shared.cost.est_job_ns(0);
    let mut hi_ps = 0;
    let mut deadline = None;
    if let Some(ms) = req.deadline_ms {
        if degradable {
            bounds = predsim_engine::static_bounds(&spec);
        }
        hi_ps = bounds.as_ref().map_or(0, |b| b.hi.as_ps());
        est_ns = shared.cost.est_job_ns(hi_ps);
        let budget_ns = ms.saturating_mul(1_000_000);
        let late = || {
            shared
                .cost
                .drain_estimate_ns(shared.executing.load(Ordering::SeqCst), shared.workers)
                .saturating_add(est_ns)
                > budget_ns
        };
        if late() {
            // Shed the newest deadline-less work first: each victim's
            // handler answers at the static tier, freeing queue time for
            // the deadline in front of us.
            while late() {
                match shared.queue.shed_newest_where(|j| j.sheddable) {
                    Some(victim) => {
                        shared.cost.on_leave_queue(victim.est_ns);
                        shared.metrics.shed("deadline-victim");
                        victim.reply.fill(victim.slot, Reply::Shed);
                    }
                    None => break,
                }
            }
            shared.sync_gauges();
        }
        if late() {
            // Provably late even after shedding: degrade now (the static
            // answer is instant) or refuse with the computed horizon.
            if let Some(b) = &bounds {
                shared.metrics.tier(api::Tier::Static);
                return Ok(Response::json(
                    200,
                    api::render_predict_static(&spec.label, b),
                ));
            }
            shared.metrics.shed("deadline-reject");
            return Err(shared.too_busy("deadline cannot be met; retry later"));
        }
        deadline = Some(Instant::now() + Duration::from_millis(ms));
    }

    let for_bounds = spec.clone();
    let admit = Admit {
        work: Work::Predict(Box::new(spec)),
        est_ns,
        hi_ps,
        deadline,
        sheddable: deadline.is_none(),
    };
    match admit_and_run(shared, vec![admit])?.pop() {
        Some(Reply::Predict(result, exec_ns)) => {
            // The static interval is computed on the request thread after
            // the simulation returns (unless the deadline path already
            // needed it): it never delays the enqueue, and shed requests
            // never pay for it.
            let bounds = bounds.or_else(|| predsim_engine::static_bounds(&for_bounds));
            if exec_ns > 0 {
                shared
                    .cost
                    .observe(exec_ns, bounds.as_ref().map_or(0, |b| b.hi.as_ps()));
            }
            shared.metrics.tier(api::Tier::Full);
            Ok(Response::json(
                200,
                api::render_predict(&result, bounds.as_ref(), api::Tier::Full),
            ))
        }
        Some(Reply::Shed) => {
            // Admitted, then evicted by a deadline admission or expired in
            // the queue: still answered, at the static tier when the
            // analyzer can bracket the job.
            match bounds.or_else(|| predsim_engine::static_bounds(&for_bounds)) {
                Some(b) => {
                    shared.metrics.tier(api::Tier::Static);
                    Ok(Response::json(
                        200,
                        api::render_predict_static(&for_bounds.label, &b),
                    ))
                }
                None => Err(shared.too_busy("shed under overload; retry later")),
            }
        }
        _ => Err(wrong_reply()),
    }
}

/// `POST /v1/estimate`: the static cost interval for a job, no
/// simulation and no queueing — the analyzer runs right here on the
/// request thread in time proportional to the program text, so the
/// endpoint answers even while the workers are saturated or draining. The
/// body is rendered from the same [`predsim_engine::static_bounds_or_reason`]
/// and bounds field as `predsim check --bounds --json`'s sources.
fn estimate(request: &Request) -> Result<Response, Response> {
    let req = parse_body(request, false, api::parse_predict)?;
    let bounds = predsim_engine::static_bounds_or_reason(&req.spec);
    Ok(Response::json(
        200,
        api::render_estimate(&req.name, bounds.as_ref().map_err(|why| *why)),
    ))
}

fn calibrate(request: &Request, shared: &Shared) -> Result<Response, Response> {
    let parsed = parse_body(request, shared.draining(), api::parse_calibrate)?;
    // The same pre-run gate as /v1/predict: a source the engine would
    // refuse to run is refused here, with the same 422 document.
    api::check_program(
        &parsed.source,
        Arc::clone(&parsed.program),
        parsed.fit.initial,
    )?;
    let est = shared.cost.est_job_ns(0);
    let work = Admit::plain(Work::Calibrate(Box::new(parsed)), est);
    match admit_and_run(shared, vec![work])?.pop() {
        Some(Reply::Calibrate(outcome)) => match *outcome {
            Ok((report, registered)) => Ok(Response::json(
                200,
                api::render_calibrate(&report, registered.as_ref()),
            )),
            Err(why) => Err(Response::json(422, api::error_body(&why))),
        },
        _ => Err(wrong_reply()),
    }
}

fn speedup(request: &Request, shared: &Shared) -> Result<Response, Response> {
    let parsed = parse_body(request, shared.draining(), api::parse_speedup)?;
    // The same pre-run gate as /v1/predict, applied to the schedule the
    // sweep will simulate at its largest processor count: a lowered
    // program the engine would refuse to run is refused here, with the
    // same 422 document.
    let placement = parsed.scheduler.place(&parsed.dag, &parsed.spec);
    let lowered = predsim_dag::lower(&parsed.dag, &placement, &parsed.spec);
    api::check_program(
        &format!("dag:{}", parsed.dag.name()),
        Arc::new(lowered.program),
        parsed.spec.base,
    )?;
    let est = shared.cost.est_job_ns(0);
    let work = Admit::plain(Work::Speedup(Box::new(parsed)), est);
    match admit_and_run(shared, vec![work])?.pop() {
        Some(Reply::Speedup(outcome)) => match *outcome {
            Ok(report) => Ok(Response::json(200, api::render_speedup(&report))),
            Err(why) => Err(Response::json(422, api::error_body(&why))),
        },
        _ => Err(wrong_reply()),
    }
}

fn batch(request: &Request, shared: &Shared) -> Result<Response, Response> {
    let jobs = parse_body(request, shared.draining(), api::parse_batch)?;
    // As for /v1/predict: one build per job, shared by gate and worker.
    let jobs: Vec<(String, JobSpec)> = jobs
        .into_iter()
        .map(|(name, spec)| (name, shared.engine.prepare(spec)))
        .collect();
    api::check_jobs(&jobs)?;
    let est = shared.cost.est_job_ns(0);
    let work = jobs
        .into_iter()
        .map(|(_, spec)| Admit::plain(Work::Predict(Box::new(spec)), est))
        .collect();
    let mut results = Vec::new();
    for reply in admit_and_run(shared, work)? {
        let Reply::Predict(result, exec_ns) = reply else {
            return Err(wrong_reply());
        };
        if exec_ns > 0 {
            shared.cost.observe(exec_ns, 0);
        }
        results.push(result);
    }
    Ok(Response::json(200, api::render_batch(&results)))
}
