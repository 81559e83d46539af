//! The shard pool: a fixed set of OS worker threads, each owning the
//! tenants routed to it, fed through per-worker MPSC queues.
//!
//! Ownership model (see `DESIGN.md` §12/§15): a tenant lives on exactly one
//! worker thread at a time — the worker's queue serializes every op against
//! it, so a tenant's firing log is as deterministic as a single-process
//! library run. Tenants on *different* workers share no mutable state (the
//! residual interning arena and compiled-program cache are process-wide but
//! internally synchronized and bounded), so workers never contend beyond
//! the global metrics registry.
//!
//! One request path: every request enters through [`Runtime::submit`] (a
//! connection's decoded frame, answered on its [`SharedWriter`]) or
//! [`Runtime::request`] (an in-process caller, answered on a channel).
//! Tenant-free requests are answered on the spot; every tenant-scoped
//! request, creates included, travels to the owning worker as one
//! [`Job::Request`], and one worker function (`WorkerState::service`)
//! turns it into a [`Response`]. The answer leaves through `Reply::send`,
//! the only place that renders errors, counts the request under its kind
//! and settles a create's route reservation.
//!
//! Jobs travel inside [`Envelope`]s: the envelope carries a per-tenant
//! pending guard so the router always knows whether a tenant has queued or
//! in-flight work. That is what makes *re-pinning* safe: an idle tenant
//! (pending count zero, observed under the route lock) can be moved from
//! the hottest worker to the coldest with an `Expect`/`Extract`/`Install`
//! handshake that preserves the per-tenant FIFO (§15 argues the ordering).
//! Per-worker queue-depth and busy EWMAs ([`WorkerLoad`]) feed the
//! rebalance planner and the `tdb_server_worker_*` gauges.
//!
//! Commits coalesce in one of two modes: a fixed window
//! (`--coalesce-window`, the E18 behavior) or — the default — an *adaptive*
//! window sized per tenant from the observed group-apply latency and
//! discounted by the batch-safety certificate (`CascadeRequired` → no
//! window, `Stratified` → discounted by the observed fence-hit rate). An
//! adaptive window only opens while the worker queue is non-empty, so a
//! lone serial client never pays window latency.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdb_analysis::LintLevel;
use tdb_core::manager::{CascadeMode, ManagerConfig};
use tdb_core::rules::FiringRecord;
use tdb_core::storage::LogicalOp;
use tdb_core::{ApplyOutcome, BatchCertificate, SyncPolicy, VtFiringEvent, VtPhase};
use tdb_obs::global;
use tdb_storage::codec::encode_snapshot;
use tdb_storage::CheckpointPolicy;

use crate::client::unexpected;
use crate::conn::{DEFAULT_OUTBUF_HARD, DEFAULT_OUTBUF_SOFT};
use crate::metrics::{publish_tenant_gauges, publish_vt_watermark, request_timer, ServerMetrics};
use crate::tenant::Tenant;
use crate::wire::{
    encode_response, write_frame, ErrorCode, MetricsFormat, Request, Response, PROTOCOL_VERSION,
};
use crate::{Result, ServerError};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads in the shard pool.
    pub workers: usize,
    /// Root directory for durable tenants (one subdirectory each). `None`
    /// makes `CreateTenant { durable: true }` a typed error.
    pub data_dir: Option<PathBuf>,
    /// Registration-time lint level applied to every tenant's manager.
    pub lint: LintLevel,
    /// Checkpoint/sync policy for durable tenants. The default syncs on
    /// every append: an acked commit survives `SIGKILL`.
    pub checkpoint: CheckpointPolicy,
    /// Fixed group-commit window in microseconds. When non-zero it
    /// overrides the adaptive coalescer: a worker that dequeues a commit
    /// keeps draining *consecutive commits for the same tenant* from its
    /// queue for up to this long and applies them as one batch — one WAL
    /// record, one fsync, one evaluation slice. `0` (the default) defers
    /// to `adaptive_coalesce`.
    pub coalesce_window_us: u64,
    /// Size each tenant's coalescing window from its observed group-apply
    /// latency and arrival pattern, ceiling-ed by the batch-safety
    /// certificate. Only consulted while `coalesce_window_us == 0`.
    pub adaptive_coalesce: bool,
    /// Move idle tenants off the hottest worker when load skews.
    pub rebalance: bool,
    /// Outbound queue backpressure thresholds per connection: past `soft`
    /// a stall episode is counted, past `hard` the connection is killed
    /// instead of buffering without bound.
    pub outbuf_soft_limit: usize,
    pub outbuf_hard_limit: usize,
    /// Default disorder bound Δ for valid-time tenants created without an
    /// explicit one (`CreateVtTenant { max_delay: 0 }`): out-of-order
    /// `CommitAt` ingests may arrive up to Δ ticks after their valid time,
    /// and the watermark `W = now − Δ` trails the clock by the same bound.
    pub max_delay: i64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7171".into(),
            workers: 4,
            data_dir: None,
            lint: LintLevel::Warn,
            checkpoint: CheckpointPolicy {
                sync: SyncPolicy::Always,
                ..CheckpointPolicy::default()
            },
            coalesce_window_us: 0,
            adaptive_coalesce: true,
            rebalance: true,
            outbuf_soft_limit: DEFAULT_OUTBUF_SOFT,
            outbuf_hard_limit: DEFAULT_OUTBUF_HARD,
            max_delay: 32,
        }
    }
}

impl ServerConfig {
    fn manager_config(&self) -> ManagerConfig {
        ManagerConfig {
            lint: self.lint,
            // Tenants run the eager cascade mode: group commits (and the
            // coalescer) stay byte-identical to the per-op schedule for
            // every batch-safety certificate class — fences are inserted
            // only where the certificate says the fused slice could
            // diverge.
            cascade: CascadeMode::Eager,
            ..ManagerConfig::default()
        }
    }
}

/// What a connection's outbound half can do beyond `Write`: report that
/// the connection is already known dead, so workers can prune subscribers
/// without waiting for a push to fail. In-memory sinks keep the default.
pub trait FrameSink: Write + Send {
    fn is_dead(&self) -> bool {
        false
    }
}

/// A connection's outbound half, shared between the connection layer and
/// the workers answering its requests and pushing subscription frames at
/// it. The mutex is the per-connection write serialization point.
pub type SharedWriter = Arc<Mutex<dyn FrameSink>>;

// ---- adaptive coalescing ----------------------------------------------------

/// Widest window the adaptive coalescer will ever open.
const ADAPTIVE_MAX_WINDOW_US: u64 = 5_000;
/// First-commit bootstrap window (no latency observation yet).
const ADAPTIVE_BOOTSTRAP_US: u64 = 100;

/// Per-tenant observations driving the adaptive commit coalescer. Lives on
/// the owning worker (no locks) and migrates with the tenant.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdaptiveState {
    /// EWMA of ns one group apply takes — dominated by the WAL fsync for
    /// durable tenants, by the evaluation slice for volatile ones.
    apply_ns: u64,
    /// `batch_fence_drains()` value at the last observation.
    fences_at: u64,
    /// EWMA of fence drains per 1000 ops (the stratified discount).
    fence_permille: u64,
}

impl AdaptiveState {
    fn observe(&mut self, ops: u64, dt_ns: u64, fences_total: u64) {
        self.apply_ns = if self.apply_ns == 0 {
            dt_ns
        } else {
            (self.apply_ns * 3 + dt_ns) / 4
        };
        let delta = fences_total.saturating_sub(self.fences_at);
        self.fences_at = fences_total;
        if ops > 0 {
            let inst = delta
                .saturating_mul(1000)
                .checked_div(ops)
                .unwrap_or(0)
                .min(1000);
            self.fence_permille = (self.fence_permille * 3 + inst) / 4;
        }
    }

    /// The window this tenant's commits should coalesce over:
    /// `discount(certificate) × clamp(apply_ewma)`. Waiting about one
    /// group-apply time collects everything that would otherwise queue
    /// behind the fsync anyway, so the window buys batching without adding
    /// latency beyond what the slowest-path op already costs.
    fn window_us(&self, cert: &BatchCertificate) -> u64 {
        let discount_permille = match cert {
            BatchCertificate::CascadeRequired => return 0,
            BatchCertificate::Exact => 1000,
            // A stratified tenant loses fusion at every fence; discount
            // the window by the observed fence-hit rate.
            BatchCertificate::Stratified { .. } => 1000 - self.fence_permille.min(1000),
        };
        let base = if self.apply_ns == 0 {
            ADAPTIVE_BOOTSTRAP_US
        } else {
            (self.apply_ns / 1000).clamp(ADAPTIVE_BOOTSTRAP_US / 2, ADAPTIVE_MAX_WINDOW_US)
        };
        base * discount_permille / 1000
    }
}

// ---- load tracking ----------------------------------------------------------

/// One worker's load signals, shared lock-free between the worker, the
/// router, and the rebalance planner.
#[derive(Debug, Default)]
pub struct WorkerLoad {
    /// Envelopes enqueued and not yet dequeued.
    depth: AtomicI64,
    /// EWMA of the worker's busy fraction over ~100 ms buckets, ‰.
    busy_permille: AtomicU64,
}

impl WorkerLoad {
    pub fn queue_depth(&self) -> i64 {
        self.depth.load(Ordering::Acquire)
    }

    pub fn busy_permille(&self) -> u64 {
        self.busy_permille.load(Ordering::Relaxed)
    }
}

/// Busy/idle accumulator a worker folds into its [`WorkerLoad`] EWMA.
#[derive(Debug, Default)]
struct BusyMeter {
    busy: Duration,
    idle: Duration,
}

impl BusyMeter {
    fn flush_if_due(&mut self, load: &WorkerLoad) {
        if self.busy + self.idle >= Duration::from_millis(100) {
            self.flush(load);
        }
    }

    fn flush(&mut self, load: &WorkerLoad) {
        let total = self.busy + self.idle;
        if total.is_zero() {
            return;
        }
        let inst = (self.busy.as_nanos() * 1000 / total.as_nanos()) as u64;
        let old = load.busy_permille.load(Ordering::Relaxed);
        load.busy_permille
            .store((old * 3 + inst) / 4, Ordering::Relaxed);
        self.busy = Duration::ZERO;
        self.idle = Duration::ZERO;
    }
}

// ---- requests and jobs ------------------------------------------------------

/// Where a request's answer goes.
enum ReplyTo {
    /// A connection's outbound half; a subscription also keeps it for
    /// pushed frames.
    Wire(SharedWriter),
    /// An in-process caller blocked in [`Runtime::request`].
    Channel(Sender<Response>),
}

/// Everything needed to answer one request, from whichever thread
/// finishes it. [`Reply::send`] is the single point where a result leaves
/// the runtime.
struct Reply {
    id: u64,
    kind: &'static str,
    t0: Option<Instant>,
    to: ReplyTo,
    /// The route entry a create reserved: removed if the create fails,
    /// counted on the tenant gauge once it succeeds.
    reserved: Option<String>,
}

impl Reply {
    fn new(id: u64, req: &Request, to: ReplyTo) -> Reply {
        Reply {
            id,
            kind: request_kind(req),
            t0: request_timer(),
            to,
            reserved: None,
        }
    }

    /// Renders `r` (errors through [`error_response`]) and delivers it.
    fn send(self, metrics: &ServerMetrics, route: &RouteTable, r: Result<Response>) {
        self.deliver(metrics, route, r.unwrap_or_else(error_response));
    }

    /// Delivers a rendered response: settles a create's reservation,
    /// counts the request under its kind, and writes the frame (or wakes
    /// the blocked caller).
    fn deliver(self, metrics: &ServerMetrics, route: &RouteTable, resp: Response) {
        let ok = !matches!(resp, Response::Error { .. });
        if let Some(name) = self.reserved {
            if ok {
                metrics.tenants.add(1);
            } else {
                route
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&name);
            }
        }
        metrics.observe_request(self.kind, self.t0, ok);
        match self.to {
            ReplyTo::Wire(writer) => {
                send_response(&writer, self.id, &resp);
            }
            ReplyTo::Channel(tx) => {
                let _ = tx.send(resp);
            }
        }
    }
}

/// One unit of work for a shard worker.
enum Job {
    /// A tenant-scoped request, creates included (a valid-time create
    /// carries its already-resolved Δ). The worker services it and
    /// answers through `reply`.
    Request { req: Request, reply: Reply },
    /// Migration, step 1 (to the destination worker): buffer every job for
    /// `tenant` until its shard arrives via `Install`.
    Expect { tenant: String },
    /// Migration, step 2 (to the source worker): remove the tenant and
    /// ship it to `dest`.
    Extract {
        tenant: String,
        dest: Sender<Envelope>,
        dest_load: Arc<WorkerLoad>,
        /// The route's in-flight-migration latch; cleared once `Install`
        /// lands (or here, if the handoff cannot be shipped).
        migrating: Arc<AtomicBool>,
    },
    /// Migration, step 3 (back on the destination): install the shard and
    /// drain the jobs buffered since `Expect`.
    Install { transfer: Box<TenantTransfer> },
    /// Periodic housekeeping: drop subscribers whose connection is
    /// already known dead (killed outbound queues), so a tenant that
    /// stops firing doesn't pin dead buffers or inflate the gauge.
    Sweep,
}

/// Everything that moves with a tenant during re-pinning.
pub(crate) struct TenantTransfer {
    name: String,
    /// `None` only if the source worker no longer had the shard (a bug
    /// upstream); the destination then answers `NoSuchTenant` naturally.
    tenant: Option<Tenant>,
    subscribers: Vec<(u64, SharedWriter)>,
    adaptive: Option<AdaptiveState>,
    migrating: Arc<AtomicBool>,
}

impl Job {
    /// The tenant whose per-tenant order this job participates in — used
    /// to buffer jobs during migration. Control jobs and creates (whose
    /// route was fixed at reservation time) return `None`.
    fn tenant(&self) -> Option<&str> {
        match self {
            Job::Request { req, .. } => request_tenant(req),
            Job::Expect { .. } | Job::Extract { .. } | Job::Install { .. } | Job::Sweep => None,
        }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Job::Request { reply, .. } => reply.kind,
            Job::Expect { .. } => "Expect",
            Job::Extract { .. } => "Extract",
            Job::Install { .. } => "Install",
            Job::Sweep => "Sweep",
        };
        write!(f, "Job::{kind}")
    }
}

/// Decrements a tenant's pending count when dropped — the router's "no
/// queued or in-flight work" signal that gates re-pinning.
struct PendingGuard(Arc<AtomicU64>);

impl PendingGuard {
    fn acquire(pending: &Arc<AtomicU64>) -> PendingGuard {
        pending.fetch_add(1, Ordering::AcqRel);
        PendingGuard(Arc::clone(pending))
    }
}

impl Drop for PendingGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What actually travels a worker queue: the job plus its tenant's pending
/// guard (held until the worker finishes the job).
struct Envelope {
    job: Job,
    _guard: Option<PendingGuard>,
}

// ---- routing ----------------------------------------------------------------

/// Where a tenant lives, plus the signals the rebalance planner needs.
#[derive(Debug)]
struct TenantRoute {
    worker: usize,
    /// Queued + in-flight jobs for this tenant (see [`PendingGuard`]).
    pending: Arc<AtomicU64>,
    /// `ms` (since runtime start) of the last job submitted.
    last_active: AtomicU64,
    /// Set by [`Runtime::repin`] when a migration starts and cleared only
    /// once the destination worker processes `Install`. The pending count
    /// cannot gate this window: `Expect`/`Extract`/`Install` are control
    /// jobs without guards, so without the latch a second re-pin accepted
    /// mid-handoff would make the second `Extract` find no shard and
    /// strand the tenant wherever the first `Install` put it.
    migrating: Arc<AtomicBool>,
}

/// The routing table, shared with workers so a failed create can roll back
/// its reserved entry where it is answered.
type RouteTable = Arc<Mutex<HashMap<String, TenantRoute>>>;

/// Don't re-pin again within this long of the last move.
const REBALANCE_COOLDOWN: Duration = Duration::from_millis(500);
/// Busy thresholds (‰) for the hottest/coldest worker pair.
const REBALANCE_HOT_PERMILLE: u64 = 600;
const REBALANCE_COLD_PERMILLE: u64 = 200;

/// The shard pool. Cheap to share (`Arc` it); [`Runtime::shutdown`]
/// consumes the last owner, drains the queues, checkpoints durable tenants
/// and joins the workers.
#[derive(Debug)]
pub struct Runtime {
    cfg: ServerConfig,
    queues: Vec<Sender<Envelope>>,
    workers: Vec<JoinHandle<()>>,
    /// tenant name → route. Entries are reserved before the Create job
    /// runs (and rolled back on failure) so two racing creates of one
    /// name serialize here, not on the worker.
    route: RouteTable,
    next_worker: AtomicUsize,
    loads: Vec<Arc<WorkerLoad>>,
    epoch: Instant,
    last_repin: Mutex<Option<Instant>>,
    pub metrics: ServerMetrics,
}

impl Runtime {
    /// Spawns the pool and reopens any durable tenants found under
    /// `data_dir` (each subdirectory is one tenant, recovered via
    /// checkpoint + WAL replay before the server accepts connections).
    pub fn start(cfg: ServerConfig) -> Result<Runtime> {
        let workers = cfg.workers.max(1);
        let route: RouteTable = Arc::new(Mutex::new(HashMap::new()));
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut loads = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = channel::<Envelope>();
            let load = Arc::new(WorkerLoad::default());
            let wcfg = cfg.clone();
            let wload = Arc::clone(&load);
            let wroute = Arc::clone(&route);
            let handle = std::thread::Builder::new()
                .name(format!("tdb-shard-{i}"))
                .spawn(move || worker_loop(rx, wcfg, wload, wroute))
                .map_err(|e| ServerError::Storage(format!("spawning worker: {e}")))?;
            queues.push(tx);
            handles.push(handle);
            loads.push(load);
        }
        let rt = Runtime {
            cfg,
            queues,
            workers: handles,
            route,
            next_worker: AtomicUsize::new(0),
            loads,
            epoch: Instant::now(),
            last_repin: Mutex::new(None),
            metrics: ServerMetrics::resolve(),
        };
        rt.reopen_existing()?;
        Ok(rt)
    }

    /// Recovers every tenant directory under `data_dir`.
    fn reopen_existing(&self) -> Result<()> {
        let Some(root) = self.cfg.data_dir.clone() else {
            return Ok(());
        };
        if !root.exists() {
            std::fs::create_dir_all(&root)
                .map_err(|e| ServerError::Storage(format!("{}: {e}", root.display())))?;
            return Ok(());
        }
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .map_err(|e| ServerError::Storage(format!("{}: {e}", root.display())))?
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .collect();
        names.sort();
        for name in names {
            self.create_tenant(&name, true)?;
        }
        Ok(())
    }

    /// The configuration the pool was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Validates the name and reserves a route entry for a new tenant.
    /// The reservation makes two racing creates of one name serialize on
    /// the route lock, not on a worker; the caller must roll the entry
    /// back if the worker-side create fails.
    fn reserve_route(&self, name: &str, durable: bool) -> Result<(usize, PendingGuard)> {
        validate_tenant_name(name)?;
        if durable && self.cfg.data_dir.is_none() {
            return Err(ServerError::Remote {
                code: ErrorCode::Storage,
                message: "server started without --data-dir; durable tenants unavailable".into(),
            });
        }
        // The routing table has no multi-step invariants (single
        // insert/remove per holder), so a poisoned lock — a panic on
        // some other connection thread — leaves it fully usable.
        let mut route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
        if route.contains_key(name) {
            return Err(ServerError::Remote {
                code: ErrorCode::TenantExists,
                message: format!("tenant `{name}` already exists"),
            });
        }
        let w = self.next_worker.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        let pending = Arc::new(AtomicU64::new(0));
        let guard = PendingGuard::acquire(&pending);
        route.insert(
            name.to_string(),
            TenantRoute {
                worker: w,
                pending,
                last_active: AtomicU64::new(self.now_ms()),
                migrating: Arc::new(AtomicBool::new(false)),
            },
        );
        Ok((w, guard))
    }
    /// Creates a tenant (or reopens a durable one — creation is idempotent
    /// against a directory left by a previous incarnation, which is how
    /// restart recovery works; a *live* duplicate name is a typed error).
    pub fn create_tenant(&self, name: &str, durable: bool) -> Result<()> {
        let req = Request::CreateTenant {
            name: name.into(),
            durable,
        };
        match self.request(req)? {
            Response::TenantCreated => Ok(()),
            other => Err(unexpected("TenantCreated", &other)),
        }
    }

    /// Creates a valid-time tenant: `CommitAt` ingests instead of in-order
    /// commits, watermark `W = now − Δ`. `max_delay <= 0` takes the
    /// server-wide default (`--max-delay`).
    pub fn create_vt_tenant(&self, name: &str, durable: bool, max_delay: i64) -> Result<()> {
        let req = Request::CreateVtTenant {
            name: name.into(),
            durable,
            max_delay,
        };
        match self.request(req)? {
            Response::TenantCreated => Ok(()),
            other => Err(unexpected("TenantCreated", &other)),
        }
    }

    fn resolve_max_delay(&self, max_delay: i64) -> i64 {
        if max_delay <= 0 {
            self.cfg.max_delay
        } else {
            max_delay
        }
    }

    /// Live tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .route
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Queues `job` on `worker`; hands the job back if the queue is closed.
    fn enqueue(&self, worker: usize, job: Job, guard: Option<PendingGuard>) -> Option<Job> {
        self.loads[worker].depth.fetch_add(1, Ordering::AcqRel);
        let sent = self.queues[worker].send(Envelope { job, _guard: guard });
        sent.err().map(|e| {
            self.loads[worker].depth.fetch_sub(1, Ordering::AcqRel);
            e.0.job
        })
    }

    /// The worker owning `tenant`, plus a pending guard that keeps the
    /// tenant from being re-pinned until the job is done.
    fn lookup(&self, tenant: &str) -> Result<(usize, PendingGuard)> {
        let route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
        match route.get(tenant) {
            Some(r) => {
                r.last_active.store(self.now_ms(), Ordering::Relaxed);
                Ok((r.worker, PendingGuard::acquire(&r.pending)))
            }
            None => Err(ServerError::Remote {
                code: ErrorCode::NoSuchTenant,
                message: format!("no tenant `{tenant}`"),
            }),
        }
    }

    pub fn register_rules(&self, tenant: &str, source: &str) -> Result<(Vec<String>, Vec<String>)> {
        let req = Request::RegisterRule {
            tenant: tenant.into(),
            source: source.into(),
        };
        match self.request(req)? {
            Response::RulesRegistered {
                registered,
                findings,
            } => Ok((registered, findings)),
            other => Err(unexpected("RulesRegistered", &other)),
        }
    }

    #[allow(clippy::type_complexity)]
    pub fn commit(
        &self,
        tenant: &str,
        ops: Vec<LogicalOp>,
    ) -> Result<(Vec<std::result::Result<(), String>>, Vec<FiringRecord>)> {
        let req = Request::Commit {
            tenant: tenant.into(),
            ops,
        };
        match self.request(req)? {
            Response::Committed { outcomes, firings } => Ok((outcomes, firings)),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Streaming ingest on a valid-time tenant: applies `ops` at the
    /// explicit valid time `valid`, with the tenant clock advanced to
    /// `arrival` first. Returns the post-ingest watermark and the
    /// phase-tagged stream events (tentative announcements, confirmations,
    /// retractions) the ingest produced.
    pub fn commit_at(
        &self,
        tenant: &str,
        arrival: tdb_relation::Timestamp,
        valid: tdb_relation::Timestamp,
        ops: Vec<tdb_engine::WriteOp>,
    ) -> Result<(tdb_relation::Timestamp, Vec<VtFiringEvent>)> {
        let req = Request::CommitAt {
            tenant: tenant.into(),
            arrival,
            valid,
            ops,
        };
        match self.request(req)? {
            Response::VtCommitted { watermark, events } => Ok((watermark, events)),
            other => Err(unexpected("VtCommitted", &other)),
        }
    }

    /// Serves `req` in-process and waits for the answer. An error response
    /// comes back as [`ServerError::Remote`], as it does from
    /// [`crate::Client::request`].
    pub fn request(&self, req: Request) -> Result<Response> {
        let (tx, rx) = channel();
        let reply = Reply::new(0, &req, ReplyTo::Channel(tx));
        self.dispatch(req, reply);
        match rx.recv() {
            Ok(Response::Error { code, message }) => Err(ServerError::Remote { code, message }),
            Ok(resp) => Ok(resp),
            Err(_) => Err(internal("worker dropped the request")),
        }
    }

    /// Serves one decoded wire request from the connection behind
    /// `writer`, which receives the response. The connection layer never
    /// blocks on the shard pool: tenant-scoped requests are answered by
    /// the owning worker.
    pub fn submit(&self, id: u64, req: Request, writer: &SharedWriter) {
        let reply = Reply::new(id, &req, ReplyTo::Wire(Arc::clone(writer)));
        self.dispatch(req, reply);
    }

    /// Answers tenant-free requests on the spot and sends everything else
    /// to its worker.
    fn dispatch(&self, req: Request, mut reply: Reply) {
        let r = match req {
            Request::Hello { version } => hello(version),
            Request::ListTenants => Ok(Response::Tenants {
                names: self.tenants(),
            }),
            Request::Metrics { format } => Ok(metrics_text(format)),
            Request::Shutdown => Ok(Response::ShuttingDown),
            req => match self.place(req, &mut reply) {
                Ok((worker, guard, req)) => {
                    let job = Job::Request { req, reply };
                    if let Some(Job::Request { reply, .. }) = self.enqueue(worker, job, Some(guard))
                    {
                        let closed = Err(internal("worker queue closed"));
                        reply.send(&self.metrics, &self.route, closed);
                    }
                    return;
                }
                Err(e) => Err(e),
            },
        };
        reply.send(&self.metrics, &self.route, r);
    }

    /// Picks the worker for a tenant-scoped request and takes its pending
    /// guard. A create reserves its route entry here — so two racing
    /// creates of one name serialize on the route lock, not on a worker —
    /// and marks `reply` to settle the reservation; a valid-time create
    /// gets its Δ resolved.
    fn place(&self, req: Request, reply: &mut Reply) -> Result<(usize, PendingGuard, Request)> {
        let req = match req {
            Request::CreateVtTenant {
                name,
                durable,
                max_delay,
            } => Request::CreateVtTenant {
                name,
                durable,
                max_delay: self.resolve_max_delay(max_delay),
            },
            other => other,
        };
        let (worker, guard) = match &req {
            Request::CreateTenant { name, durable }
            | Request::CreateVtTenant { name, durable, .. } => {
                let placed = self.reserve_route(name, *durable)?;
                reply.reserved = Some(name.clone());
                placed
            }
            other => match request_tenant(other) {
                Some(tenant) => self.lookup(tenant)?,
                None => return Err(internal("request is not worker-routable")),
            },
        };
        Ok((worker, guard, req))
    }

    /// Per-worker load signals (planner, gauges, tests).
    pub fn worker_loads(&self) -> &[Arc<WorkerLoad>] {
        &self.loads
    }

    /// Publishes the `tdb_server_worker_*` gauges.
    pub fn publish_worker_gauges(&self) {
        let r = global();
        for (i, load) in self.loads.iter().enumerate() {
            let label = i.to_string();
            let labels: &[(&str, &str)] = &[("worker", &label)];
            r.gauge_with("tdb_server_worker_queue_depth", labels)
                .set(load.queue_depth());
            r.gauge_with("tdb_server_worker_busy_permille", labels)
                .set(i64::try_from(load.busy_permille()).unwrap_or(i64::MAX));
        }
    }

    /// Asks every worker to drop subscribers whose connection is already
    /// known dead. Without this, a dead subscriber of a tenant that stops
    /// firing would be detected only by a failed push — pinning its
    /// killed outbound buffer and inflating the subscriptions gauge
    /// indefinitely. Called from the connection layer's planner tick.
    pub fn sweep_subscribers(&self) {
        for w in 0..self.queues.len() {
            self.enqueue(w, Job::Sweep, None);
        }
    }

    /// Moves `tenant` to worker `to` at a safe boundary. Refuses (typed
    /// error) while the tenant has queued or in-flight work — the caller
    /// retries on a later tick. See `DESIGN.md` §15 for why the
    /// `Expect`/`Extract`/`Install` handshake preserves per-tenant order.
    pub fn repin(&self, tenant: &str, to: usize) -> Result<()> {
        if to >= self.queues.len() {
            return Err(internal("no such worker"));
        }
        let mut route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(r) = route.get_mut(tenant) else {
            return Err(ServerError::Remote {
                code: ErrorCode::NoSuchTenant,
                message: format!("no tenant `{tenant}`"),
            });
        };
        if r.worker == to {
            return Ok(());
        }
        if r.pending.load(Ordering::Acquire) != 0 {
            return Err(internal(
                "tenant has queued or in-flight work; re-pin refused",
            ));
        }
        // The pending count only covers guarded (tenant-scoped) jobs; the
        // previous move's Expect/Extract/Install control jobs may still be
        // queued — a saturated source worker can hold Extract past any
        // wall-clock cooldown. Accepting a second move in that window
        // would make its Extract find no shard (TenantTransfer { tenant:
        // None }) and strand the data on the first move's destination
        // while the route points elsewhere. The latch closes that window:
        // set here, cleared by the destination worker once Install lands.
        if r.migrating.swap(true, Ordering::AcqRel) {
            return Err(internal("tenant migration in flight; re-pin refused"));
        }
        let from = r.worker;
        let migrating = Arc::clone(&r.migrating);
        // Order matters, and the route lock is held across all three
        // steps: `Expect` reaches the destination queue before the route
        // flips, so every job submitted after the flip queues behind it
        // and gets buffered until `Install` delivers the shard. The source
        // queue holds no job for this tenant (pending == 0), so `Extract`
        // is its next and last touch there.
        let sent = self
            .enqueue(
                to,
                Job::Expect {
                    tenant: tenant.to_string(),
                },
                None,
            )
            .or_else(|| {
                self.enqueue(
                    from,
                    Job::Extract {
                        tenant: tenant.to_string(),
                        dest: self.queues[to].clone(),
                        dest_load: Arc::clone(&self.loads[to]),
                        migrating: Arc::clone(&migrating),
                    },
                    None,
                )
            });
        if sent.is_some() {
            // Queues only close at shutdown; release the latch so the
            // error is not sticky.
            migrating.store(false, Ordering::Release);
            return Err(internal("worker queue closed"));
        }
        r.worker = to;
        self.metrics.repins.inc();
        Ok(())
    }

    /// One planner tick: if the busiest worker is saturated and the
    /// calmest one is idle, move the longest-idle tenant (no queued or
    /// in-flight work) from hot to cold. Called periodically by the
    /// connection layer; cheap when balanced.
    pub fn maybe_rebalance(&self) {
        if !self.cfg.rebalance || self.queues.len() < 2 {
            return;
        }
        {
            let last = self
                .last_repin
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(t) = *last {
                if t.elapsed() < REBALANCE_COOLDOWN {
                    return;
                }
            }
        }
        let busy: Vec<u64> = self.loads.iter().map(|l| l.busy_permille()).collect();
        let (mut hot, mut cold) = (0usize, 0usize);
        for i in 1..busy.len() {
            if busy[i] > busy[hot] {
                hot = i;
            }
            if busy[i] < busy[cold] {
                cold = i;
            }
        }
        if hot == cold || busy[hot] < REBALANCE_HOT_PERMILLE || busy[cold] > REBALANCE_COLD_PERMILLE
        {
            return;
        }
        let victim = {
            let route = self.route.lock().unwrap_or_else(PoisonError::into_inner);
            let on_hot = route.values().filter(|r| r.worker == hot).count();
            if on_hot < 2 {
                // Moving the only tenant just relocates the hotspot.
                return;
            }
            route
                .iter()
                .filter(|(_, r)| {
                    r.worker == hot
                        && r.pending.load(Ordering::Acquire) == 0
                        && !r.migrating.load(Ordering::Acquire)
                })
                .min_by(|(an, ar), (bn, br)| {
                    ar.last_active
                        .load(Ordering::Relaxed)
                        .cmp(&br.last_active.load(Ordering::Relaxed))
                        .then_with(|| an.cmp(bn))
                })
                .map(|(name, _)| name.clone())
        };
        let Some(victim) = victim else { return };
        if self.repin(&victim, cold).is_ok() {
            *self
                .last_repin
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
        }
    }

    /// Drains every queue, checkpoints durable tenants, joins the workers.
    pub fn shutdown(self) {
        drop(self.queues);
        for h in self.workers {
            let _ = h.join();
        }
    }
}
fn internal(msg: &str) -> ServerError {
    ServerError::Remote {
        code: ErrorCode::Internal,
        message: msg.into(),
    }
}

fn hello(version: u32) -> Result<Response> {
    if version == PROTOCOL_VERSION {
        Ok(Response::HelloOk {
            version: PROTOCOL_VERSION,
        })
    } else {
        Err(ServerError::Remote {
            code: ErrorCode::Protocol,
            message: format!(
                "protocol version {version} not supported (server speaks {PROTOCOL_VERSION})"
            ),
        })
    }
}

fn metrics_text(format: MetricsFormat) -> Response {
    let snap = global().snapshot();
    let text = match format {
        MetricsFormat::Prometheus => snap.render_prometheus(),
        MetricsFormat::Json => snap.to_json(),
    };
    Response::MetricsText { text }
}

/// Tenant names become directory names; keep them path-safe.
fn validate_tenant_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(ServerError::Remote {
            code: ErrorCode::Protocol,
            message: format!("invalid tenant name `{name}`: use 1-64 chars of [A-Za-z0-9_-]"),
        })
    }
}

/// The tenant a wire request addresses, if any.
fn request_tenant(req: &Request) -> Option<&str> {
    match req {
        Request::RegisterRule { tenant, .. }
        | Request::Commit { tenant, .. }
        | Request::CommitAt { tenant, .. }
        | Request::CommitBatch { tenant, .. }
        | Request::Query { tenant, .. }
        | Request::Snapshot { tenant }
        | Request::Firings { tenant, .. }
        | Request::SubscribeFirings { tenant }
        | Request::TenantStats { tenant } => Some(tenant),
        _ => None,
    }
}

/// The per-kind label a request is observed under.
fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::CreateTenant { .. } => "create_tenant",
        Request::CreateVtTenant { .. } => "create_vt_tenant",
        Request::ListTenants => "list_tenants",
        Request::RegisterRule { .. } => "register_rule",
        Request::Commit { .. } => "commit",
        Request::CommitAt { .. } => "commit_at",
        Request::CommitBatch { .. } => "commit_batch",
        Request::Query { .. } => "query",
        Request::Snapshot { .. } => "snapshot",
        Request::Firings { .. } => "firings",
        Request::SubscribeFirings { .. } => "subscribe",
        Request::TenantStats { .. } => "tenant_stats",
        Request::Metrics { .. } => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// Maps a [`ServerError`] onto the wire's error vocabulary.
fn error_response(e: ServerError) -> Response {
    let (code, message) = match e {
        ServerError::Remote { code, message } => (code, message),
        ServerError::Protocol(p) => (ErrorCode::Protocol, p.to_string()),
        ServerError::Core(c) => {
            let code = match &c {
                tdb_core::CoreError::LintDenied { .. } => ErrorCode::Lint,
                tdb_core::CoreError::Storage(_) => ErrorCode::Storage,
                _ => ErrorCode::Internal,
            };
            (code, c.to_string())
        }
        ServerError::Storage(m) => (ErrorCode::Storage, m),
        ServerError::Invalid(m) => (ErrorCode::Protocol, m),
    };
    Response::Error { code, message }
}

/// Writes one response frame under the connection's writer lock.
pub(crate) fn send_response(writer: &SharedWriter, id: u64, resp: &Response) -> bool {
    let payload = encode_response(id, resp);
    let mut w = match writer.lock() {
        Ok(w) => w,
        Err(_) => return false,
    };
    write_frame(&mut *w, &payload).is_ok() && w.flush().is_ok()
}

// ---- worker -----------------------------------------------------------------

struct WorkerState {
    cfg: ServerConfig,
    tenants: HashMap<String, Tenant>,
    /// Per-tenant firing subscribers: (subscription request id, writer).
    subscribers: HashMap<String, Vec<(u64, SharedWriter)>>,
    /// Per-tenant adaptive-coalescing observations.
    adaptive: HashMap<String, AdaptiveState>,
    /// Tenants migrating *to* this worker: jobs buffered until `Install`.
    expected: HashMap<String, Vec<Envelope>>,
    load: Arc<WorkerLoad>,
    /// Shared routing table — only touched to roll back a create's
    /// reservation when the create fails.
    route: RouteTable,
    metrics: ServerMetrics,
}

fn worker_loop(
    rx: Receiver<Envelope>,
    cfg: ServerConfig,
    load: Arc<WorkerLoad>,
    route: RouteTable,
) {
    let fixed_us = cfg.coalesce_window_us;
    let adaptive = fixed_us == 0 && cfg.adaptive_coalesce;
    let mut st = WorkerState::new(cfg, Arc::clone(&load), route);
    // When coalescing, a non-matching envelope dequeued while a group was
    // open carries over to the next iteration instead of being dropped.
    let mut carry: Option<Envelope> = None;
    let mut meter = BusyMeter::default();
    loop {
        let env = match carry.take() {
            Some(e) => e,
            None => {
                let t_wait = Instant::now();
                // A bounded wait keeps the busy EWMA fresh even while the
                // worker sits idle (the planner must see it as cold).
                match rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(e) => {
                        load.depth.fetch_sub(1, Ordering::AcqRel);
                        meter.idle += t_wait.elapsed();
                        e
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        meter.idle += t_wait.elapsed();
                        meter.flush(&load);
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        // Jobs for a tenant whose shard has not arrived yet wait in the
        // buffer; `Install` drains them in arrival order.
        if let Some(t) = env.job.tenant() {
            if let Some(buf) = st.expected.get_mut(t) {
                buf.push(env);
                continue;
            }
        }
        let t_busy = Instant::now();
        let Envelope { job, _guard } = env;
        match job {
            Job::Request {
                req: Request::Commit { tenant, ops },
                reply,
            } => {
                let window = st.commit_window_us(&tenant, fixed_us, adaptive);
                if window > 0 {
                    carry = st.coalesced_commit(&rx, window, tenant, ops, reply);
                } else {
                    st.serve(Request::Commit { tenant, ops }, reply);
                }
            }
            other => st.handle(other),
        }
        meter.busy += t_busy.elapsed();
        meter.flush_if_due(&load);
    }
    // Queue closed: graceful shutdown. Checkpoint durable tenants so the
    // next start recovers from a fresh snapshot instead of a long replay
    // (valid-time tenants just fsync — their log is their state).
    for tenant in st.tenants.values_mut() {
        if tenant.durable_dir().is_some() {
            let _ = tenant.checkpoint_now();
        }
    }
}

impl WorkerState {
    fn new(cfg: ServerConfig, load: Arc<WorkerLoad>, route: RouteTable) -> WorkerState {
        WorkerState {
            cfg,
            tenants: HashMap::new(),
            subscribers: HashMap::new(),
            adaptive: HashMap::new(),
            expected: HashMap::new(),
            load,
            route,
            metrics: ServerMetrics::resolve(),
        }
    }

    fn tenant_mut(&mut self, name: &str) -> Result<&mut Tenant> {
        self.tenants
            .get_mut(name)
            .ok_or_else(|| ServerError::Remote {
                code: ErrorCode::NoSuchTenant,
                message: format!("no tenant `{name}`"),
            })
    }

    /// How long this commit should linger collecting followers: a fixed
    /// window if configured, else the tenant's adaptive window — but only
    /// while other work is queued (an empty queue means a window is pure
    /// added latency for a serial client).
    fn commit_window_us(&mut self, tenant: &str, fixed_us: u64, adaptive: bool) -> u64 {
        if fixed_us > 0 {
            return fixed_us;
        }
        if !adaptive || self.load.queue_depth() <= 0 {
            return 0;
        }
        let Some(t) = self.tenants.get(tenant) else {
            return 0;
        };
        let cert = t.batch_certificate();
        self.adaptive
            .get(tenant)
            .cloned()
            .unwrap_or_default()
            .window_us(&cert)
    }

    fn handle(&mut self, job: Job) {
        match job {
            Job::Request { req, reply } => self.serve(req, reply),
            Job::Expect { tenant } => {
                self.expected.entry(tenant).or_default();
            }
            Job::Extract {
                tenant,
                dest,
                dest_load,
                migrating,
            } => {
                let transfer = TenantTransfer {
                    name: tenant.clone(),
                    tenant: self.tenants.remove(&tenant),
                    subscribers: self.subscribers.remove(&tenant).unwrap_or_default(),
                    adaptive: self.adaptive.remove(&tenant),
                    migrating,
                };
                dest_load.depth.fetch_add(1, Ordering::AcqRel);
                if let Err(e) = dest.send(Envelope {
                    job: Job::Install {
                        transfer: Box::new(transfer),
                    },
                    _guard: None,
                }) {
                    dest_load.depth.fetch_sub(1, Ordering::AcqRel);
                    // Destination gone (shutdown): the move will never
                    // complete, so don't leave the latch stuck.
                    if let Envelope {
                        job: Job::Install { transfer },
                        ..
                    } = e.0
                    {
                        transfer.migrating.store(false, Ordering::Release);
                    }
                }
            }
            Job::Install { transfer } => {
                let TenantTransfer {
                    name,
                    tenant,
                    subscribers,
                    adaptive,
                    migrating,
                } = *transfer;
                if let Some(t) = tenant {
                    self.tenants.insert(name.clone(), t);
                }
                if !subscribers.is_empty() {
                    self.subscribers.insert(name.clone(), subscribers);
                }
                if let Some(a) = adaptive {
                    self.adaptive.insert(name.clone(), a);
                }
                if let Some(buffered) = self.expected.remove(&name) {
                    for env in buffered {
                        let Envelope { job, _guard } = env;
                        // Buffered jobs replay in arrival order; no
                        // coalescing inside the drain (it is short).
                        self.handle(job);
                    }
                }
                // The shard (and its buffered backlog) now lives here;
                // only now may the router accept the tenant's next move.
                migrating.store(false, Ordering::Release);
            }
            Job::Sweep => self.sweep_dead_subscribers(),
        }
    }

    /// Drops subscribers whose connection reports itself dead (killed
    /// outbound queues), freeing their buffers and keeping the
    /// subscriptions gauge honest even for tenants that never fire again.
    fn sweep_dead_subscribers(&mut self) {
        let metrics = self.metrics.clone();
        self.subscribers.retain(|_, subs| {
            subs.retain(|(_, writer)| {
                let dead = match writer.lock() {
                    Ok(w) => w.is_dead(),
                    Err(_) => true,
                };
                if dead {
                    metrics.subscriptions.add(-1);
                }
                !dead
            });
            !subs.is_empty()
        });
    }

    fn serve(&mut self, req: Request, reply: Reply) {
        let r = self.service(req, &reply);
        reply.send(&self.metrics, &self.route, r);
    }

    /// Turns one tenant-scoped request into its response — the only place
    /// that does, whichever way the request arrived.
    fn service(&mut self, req: Request, reply: &Reply) -> Result<Response> {
        match req {
            Request::CreateTenant { name, durable } => self
                .create(&name, durable, None)
                .map(|()| Response::TenantCreated),
            Request::CreateVtTenant {
                name,
                durable,
                max_delay,
            } => self
                .create(&name, durable, Some(max_delay))
                .map(|()| Response::TenantCreated),
            Request::RegisterRule { tenant, source } => self
                .tenant_mut(&tenant)?
                .register_rules(&source)
                .map(|(registered, findings)| Response::RulesRegistered {
                    registered,
                    findings,
                }),
            Request::Commit { tenant, ops } => self.commit(&tenant, &ops, false),
            Request::CommitBatch { tenant, ops } => self.commit(&tenant, &ops, true),
            Request::CommitAt {
                tenant,
                arrival,
                valid,
                ops,
            } => self.commit_at(&tenant, arrival, valid, ops),
            Request::Query {
                tenant,
                text,
                params,
            } => self
                .tenant_mut(&tenant)?
                .query(&text, &params)
                .map(|relation| Response::Rows { relation }),
            Request::Snapshot { tenant } => self.snapshot(&tenant),
            Request::Firings { tenant, from } => {
                let records = self
                    .tenant_mut(&tenant)?
                    .firings_from(usize::try_from(from).unwrap_or(usize::MAX));
                Ok(Response::FiringsList { from, records })
            }
            Request::SubscribeFirings { tenant } => self.subscribe(tenant, reply),
            Request::TenantStats { tenant } => self.stats(&tenant),
            other => Err(internal(&format!(
                "request `{}` is not worker-routable",
                request_kind(&other)
            ))),
        }
    }

    /// Registers the requesting connection for `tenant`'s pushed frames,
    /// under the subscription's request id.
    fn subscribe(&mut self, tenant: String, reply: &Reply) -> Result<Response> {
        let ReplyTo::Wire(writer) = &reply.to else {
            return Err(ServerError::Remote {
                code: ErrorCode::Unsupported,
                message: "firing subscriptions stream to a connection".into(),
            });
        };
        self.tenant_mut(&tenant)?;
        self.subscribers
            .entry(tenant)
            .or_default()
            .push((reply.id, Arc::clone(writer)));
        self.metrics.subscriptions.add(1);
        Ok(Response::Subscribed)
    }

    fn snapshot(&mut self, tenant: &str) -> Result<Response> {
        let t = self.tenant_mut(tenant)?;
        if t.is_vt() {
            return Err(ServerError::Remote {
                code: ErrorCode::Unsupported,
                message: format!(
                    "tenant `{tenant}` is a valid-time tenant; its log is its snapshot"
                ),
            });
        }
        let snap = t.shard().adb().snapshot().map_err(ServerError::Core)?;
        Ok(Response::SnapshotData {
            bytes: encode_snapshot(&snap),
        })
    }

    fn stats(&mut self, tenant: &str) -> Result<Response> {
        let t = self.tenant_mut(tenant)?;
        let (s, wal_bytes) = (t.stats(), t.wal_bytes());
        publish_tenant_gauges(tenant, &s, wal_bytes);
        if let Some(wm) = t.watermark() {
            publish_vt_watermark(tenant, wm);
        }
        Ok(Response::Stats {
            states: s.states as u64,
            rules: s.rules as u64,
            firings: s.firings as u64,
            retained: s.retained as u64,
            now: s.now,
            wal_bytes,
            batch_safety: s.batch_safety.gauge_value(),
        })
    }

    fn create(&mut self, name: &str, durable: bool, vt: Option<i64>) -> Result<()> {
        let mcfg = self.cfg.manager_config();
        let tenant = match (durable, vt) {
            (true, vt) => {
                let root = self
                    .cfg
                    .data_dir
                    .clone()
                    .ok_or_else(|| internal("durable create routed without data_dir"))?;
                let dir = root.join(name);
                match vt {
                    // `Tenant::durable` dispatches on the on-disk `vt.meta`
                    // marker itself, so startup recovery reopens valid-time
                    // tenants without knowing their kind in advance.
                    None => Tenant::durable(name, &dir, mcfg, self.cfg.checkpoint)?,
                    Some(delta) => Tenant::durable_vt(name, &dir, delta, self.cfg.checkpoint.sync)?,
                }
            }
            (false, None) => Tenant::volatile(name, mcfg),
            (false, Some(delta)) => Tenant::volatile_vt(name, delta),
        };
        self.tenants.insert(name.to_string(), tenant);
        Ok(())
    }

    /// Folds one group apply's duration and fence count into the tenant's
    /// adaptive state.
    fn observe_apply(&mut self, tenant: &str, ops: usize, dt: Duration) {
        let fences = self
            .tenants
            .get(tenant)
            .map(|t| t.batch_fence_drains())
            .unwrap_or(0);
        let dt_ns = u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX);
        self.adaptive
            .entry(tenant.to_string())
            .or_default()
            .observe(ops as u64, dt_ns, fences);
    }

    /// Applies a `Commit` op by op, or a `CommitBatch` as one group commit
    /// (one WAL record, one fsync, one evaluation slice).
    fn commit(&mut self, tenant: &str, ops: &[LogicalOp], batch: bool) -> Result<Response> {
        let t0 = Instant::now();
        let t = self.tenant_mut(tenant)?;
        let outs = if batch {
            t.apply_batch(ops)?
        } else {
            ops.iter().map(|op| t.apply(op)).collect::<Result<_>>()?
        };
        let dt = t0.elapsed();
        let (outcomes, firings) = split_outcomes(outs);
        self.applied(tenant, ops.len(), dt, &firings, &[]);
        Ok(Response::Committed { outcomes, firings })
    }

    /// The streaming ingest path: clock to the arrival instant, ingest at
    /// the explicit valid time, stream the phase-tagged events to
    /// subscribers, and answer with watermark + events.
    fn commit_at(
        &mut self,
        tenant: &str,
        arrival: tdb_relation::Timestamp,
        valid: tdb_relation::Timestamp,
        ops: Vec<tdb_engine::WriteOp>,
    ) -> Result<Response> {
        let t0 = Instant::now();
        let (watermark, events) = self.tenant_mut(tenant)?.commit_at(arrival, valid, ops)?;
        self.applied(tenant, 1, t0.elapsed(), &[], &events);
        Ok(Response::VtCommitted { watermark, events })
    }

    /// What every successful apply does next: tenant gauges, the
    /// valid-time watermark, the adaptive-coalescing observation of the
    /// apply's duration `dt`, and the subscriber push. On a valid-time tenant the subscriber stream is the
    /// phase-tagged event stream (`events` plus whatever generic commits
    /// buffered); its confirmed records answer the request but are not
    /// re-pushed as plain `Firing` frames.
    fn applied(
        &mut self,
        tenant: &str,
        ops: usize,
        dt: Duration,
        firings: &[FiringRecord],
        events: &[VtFiringEvent],
    ) {
        let Some(t) = self.tenants.get_mut(tenant) else {
            return;
        };
        publish_tenant_gauges(tenant, &t.stats(), t.wal_bytes());
        if let Some(wm) = t.watermark() {
            publish_vt_watermark(tenant, wm);
        }
        let is_vt = t.is_vt();
        let buffered = t.drain_vt_events();
        self.observe_apply(tenant, ops, dt);
        if !is_vt {
            let frames = firings
                .iter()
                .map(|f| Response::Firing { record: f.clone() });
            self.push(tenant, frames);
            return;
        }
        let events = events.iter().chain(&buffered);
        for e in events.clone() {
            match e.phase {
                VtPhase::Tentative => self.metrics.vt_tentative.inc(),
                VtPhase::Confirmed => self.metrics.vt_confirmed.inc(),
                VtPhase::Retracted => self.metrics.vt_retractions.inc(),
            }
        }
        self.push(
            tenant,
            events.map(|e| Response::VtFiring { event: e.clone() }),
        );
    }

    /// Time-window coalescer: starting from one dequeued commit, keeps
    /// draining *consecutive commits for the same tenant* from the worker
    /// queue for up to `window_us`, applies them as one group commit, and
    /// answers each original request with its own slice of the outcomes and
    /// firings. The first non-matching envelope closes the group and is
    /// returned to the worker loop as carry-over.
    ///
    /// The coalescer consults the tenant's batch-safety certificate first:
    /// a `CascadeRequired` rule set gains nothing from a wider evaluation
    /// slice (the eager cascade mode re-enters dispatch after every
    /// state-producing op anyway), so the window is skipped and the commit
    /// applies immediately instead of buying only fsync amortization with
    /// added latency. `Exact` and `Stratified` tenants coalesce normally.
    fn coalesced_commit(
        &mut self,
        rx: &Receiver<Envelope>,
        window_us: u64,
        tenant: String,
        ops: Vec<LogicalOp>,
        reply: Reply,
    ) -> Option<Envelope> {
        let mut all_ops = ops;
        let mut group: Vec<(usize, Reply)> = vec![(all_ops.len(), reply)];
        // Members' pending guards stay alive until their replies are sent,
        // so the router keeps seeing the tenant as busy.
        let mut guards: Vec<Option<PendingGuard>> = Vec::new();
        let mut carry = None;
        let coalescable = !matches!(
            self.tenants.get(&tenant).map(|t| t.batch_certificate()),
            Some(BatchCertificate::CascadeRequired)
        );
        // A cascade-required group closes at once: no window to wait out.
        let window_us = if coalescable { window_us } else { 0 };
        let deadline = Instant::now() + Duration::from_micros(window_us);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let Ok(env) = rx.recv_timeout(left) else {
                break;
            };
            self.load.depth.fetch_sub(1, Ordering::AcqRel);
            if let Some(t) = env.job.tenant() {
                if let Some(buf) = self.expected.get_mut(t) {
                    buf.push(env);
                    continue;
                }
            }
            let Envelope { job, _guard } = env;
            match job {
                Job::Request {
                    req: Request::Commit { tenant: t2, ops },
                    reply,
                } if t2 == tenant => {
                    group.push((ops.len(), reply));
                    all_ops.extend(ops);
                    guards.push(_guard);
                }
                other => {
                    carry = Some(Envelope { job: other, _guard });
                    break;
                }
            }
        }
        let t0 = Instant::now();
        let r = self
            .tenant_mut(&tenant)
            .and_then(|t| t.apply_batch(&all_ops));
        self.reply_group(&tenant, all_ops.len(), t0.elapsed(), group, r);
        drop(guards);
        carry
    }

    /// Answers every member of a coalesced group. On success each member
    /// gets its own slice of the outcomes and firings (answered before the
    /// post-apply step, so gauges and pushes never delay a member's ack); a
    /// failure fails the whole group, rendered once and sent to every
    /// member as the same frame a single commit would get.
    fn reply_group(
        &mut self,
        tenant: &str,
        ops: usize,
        dt: Duration,
        group: Vec<(usize, Reply)>,
        r: Result<Vec<ApplyOutcome>>,
    ) {
        match r {
            Ok(outs) => {
                let mut outs = outs.into_iter();
                let mut all_firings = Vec::new();
                for (n, reply) in group {
                    let (outcomes, firings) = split_outcomes(outs.by_ref().take(n));
                    all_firings.extend_from_slice(&firings);
                    let resp = Response::Committed { outcomes, firings };
                    reply.deliver(&self.metrics, &self.route, resp);
                }
                self.applied(tenant, ops, dt, &all_firings, &[]);
            }
            Err(e) => {
                let frame = error_response(e);
                for (_, reply) in group {
                    reply.deliver(&self.metrics, &self.route, frame.clone());
                }
            }
        }
    }

    /// Streams `frames` to every subscriber of `tenant`, each under its own
    /// subscription id, dropping subscribers whose connection is gone.
    fn push(&mut self, tenant: &str, frames: impl Iterator<Item = Response>) {
        let Some(subs) = self.subscribers.get_mut(tenant) else {
            return;
        };
        let frames: Vec<Response> = frames.collect();
        if frames.is_empty() {
            return;
        }
        let metrics = &self.metrics;
        subs.retain(|(id, writer)| {
            let mut w = match writer.lock() {
                Ok(w) => w,
                Err(_) => {
                    metrics.subscriptions.add(-1);
                    return false;
                }
            };
            for frame in &frames {
                if write_frame(&mut *w, &encode_response(*id, frame)).is_err() {
                    metrics.subscriptions.add(-1);
                    return false;
                }
                metrics.firings_streamed.inc();
            }
            let _ = w.flush();
            true
        });
    }
}

/// Splits per-op apply outcomes into the wire's outcome list and the
/// firings they produced, in op order.
#[allow(clippy::type_complexity)]
fn split_outcomes(
    outs: impl IntoIterator<Item = ApplyOutcome>,
) -> (Vec<std::result::Result<(), String>>, Vec<FiringRecord>) {
    let mut outcomes = Vec::new();
    let mut firings = Vec::new();
    for out in outs {
        outcomes.push(out.result);
        firings.extend(out.firings);
    }
    (outcomes, firings)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_engine::WriteOp;
    use tdb_relation::{QueryDef, Relation, Value};

    /// An in-memory connection: keeps every byte written to it.
    #[derive(Debug, Clone, Default)]
    struct VecWriter(Arc<Mutex<Vec<u8>>>);

    impl Write for VecWriter {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl FrameSink for VecWriter {}

    impl VecWriter {
        fn shared(&self) -> SharedWriter {
            Arc::new(Mutex::new(self.clone()))
        }

        /// Every frame written so far, decoded as (request id, response).
        fn frames(&self) -> Vec<(u64, Response)> {
            let bytes = self.0.lock().unwrap().clone();
            let mut rd: &[u8] = &bytes;
            let mut out = Vec::new();
            while let Ok(payload) = crate::wire::read_frame(&mut rd) {
                out.push(crate::wire::decode_response(&payload).unwrap());
            }
            out
        }
    }

    fn seed(rt: &Runtime, tenant: &str) {
        rt.create_tenant(tenant, false).unwrap();
        let (outcomes, _) = rt
            .commit(
                tenant,
                vec![
                    LogicalOp::SetItem {
                        name: "n".into(),
                        value: Value::Int(0),
                    },
                    LogicalOp::DefineQuery {
                        name: "n".into(),
                        def: QueryDef::new(0, tdb_relation::parse_query("item n").unwrap()),
                    },
                ],
            )
            .unwrap();
        assert!(outcomes.iter().all(|o| o.is_ok()));
    }

    fn bump(v: i64) -> Vec<LogicalOp> {
        vec![
            LogicalOp::AdvanceClock { delta: 1 },
            LogicalOp::Update {
                ops: vec![WriteOp::SetItem {
                    item: "n".into(),
                    value: Value::Int(v),
                }],
            },
        ]
    }

    fn query_n(rt: &Runtime, tenant: &str) -> Relation {
        let req = Request::Query {
            tenant: tenant.into(),
            text: "item n".into(),
            params: vec![],
        };
        match rt.request(req).unwrap() {
            Response::Rows { relation } => relation,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn firings(rt: &Runtime, tenant: &str) -> Vec<FiringRecord> {
        let req = Request::Firings {
            tenant: tenant.into(),
            from: 0,
        };
        match rt.request(req).unwrap() {
            Response::FiringsList { records, .. } => records,
            other => panic!("expected firings, got {other:?}"),
        }
    }

    /// (rules, wal bytes, batch-safety gauge) from `TenantStats`. Also a
    /// rendezvous: the tenant's worker has finished every earlier job.
    fn stats(rt: &Runtime, tenant: &str) -> (u64, u64, i64) {
        let req = Request::TenantStats {
            tenant: tenant.into(),
        };
        match rt.request(req).unwrap() {
            Response::Stats {
                rules,
                wal_bytes,
                batch_safety,
                ..
            } => (rules, wal_bytes, batch_safety),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// Subscribes `sink` to `tenant`'s pushed frames under request `id`.
    fn subscribe(rt: &Runtime, tenant: &str, id: u64, sink: SharedWriter) {
        let req = Request::SubscribeFirings {
            tenant: tenant.into(),
        };
        rt.submit(id, req, &sink);
        stats(rt, tenant);
    }

    #[test]
    fn tenants_route_and_serialize_independently() {
        let rt = Runtime::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        for name in ["a", "b", "c"] {
            seed(&rt, name);
            rt.register_rules(name, "rule watch { when n() >= 5; then notify; }")
                .unwrap();
        }
        assert_eq!(rt.tenants(), vec!["a", "b", "c"]);
        assert!(matches!(
            rt.create_tenant("a", false).unwrap_err(),
            ServerError::Remote {
                code: ErrorCode::TenantExists,
                ..
            }
        ));

        let (_, firings_a) = rt.commit("a", bump(7)).unwrap();
        assert_eq!(firings_a.len(), 1);
        let (_, firings_b) = rt.commit("b", bump(3)).unwrap();
        assert!(firings_b.is_empty(), "tenant b must not see a's state");
        assert_eq!(query_n(&rt, "a"), Relation::scalar(Value::Int(7)));
        assert_eq!(firings(&rt, "a").len(), 1);
        assert_eq!(firings(&rt, "b").len(), 0);
        let (rules, wal, _) = stats(&rt, "a");
        assert_eq!(rules, 1);
        assert_eq!(wal, 0);
        rt.shutdown();
    }

    /// With a coalescing window configured, a `CascadeRequired` tenant
    /// skips the window (no coalescing gain) but commits stay exact: the
    /// eager cascade mode re-enters dispatch mid-batch, so a self-writing
    /// rule fires at the state that satisfied it, not at batch end.
    #[test]
    fn coalescer_consults_certificate_and_stays_exact() {
        let rt = Runtime::start(ServerConfig {
            workers: 1,
            coalesce_window_us: 500,
            ..ServerConfig::default()
        })
        .unwrap();
        seed(&rt, "t");
        let (_, findings) = rt
            .register_rules("t", "rule bump { when n() = 1; then set n := 2; }")
            .unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.contains("batch-safety: cascade-required")),
            "register reports the certificate: {findings:?}"
        );
        let (outcomes, firings) = rt.commit("t", bump(1)).unwrap();
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].rule, "bump");
        assert_eq!(
            query_n(&rt, "t"),
            Relation::scalar(Value::Int(2)),
            "the fired action's write applied"
        );
        assert_eq!(stats(&rt, "t").2, -1);
        rt.shutdown();
    }

    #[test]
    fn subscriptions_receive_pushed_firing_frames() {
        let rt = Runtime::start(ServerConfig::default()).unwrap();
        seed(&rt, "t");
        rt.register_rules("t", "rule watch { when n() >= 5; then notify; }")
            .unwrap();
        let sink = VecWriter::default();
        subscribe(&rt, "t", 99, sink.shared());
        rt.commit("t", bump(9)).unwrap();
        let frames = sink.frames();
        assert_eq!(frames.len(), 2, "{frames:?}");
        assert_eq!(frames[0], (99, Response::Subscribed));
        match &frames[1] {
            (99, Response::Firing { record }) => assert_eq!(record.rule, "watch"),
            other => panic!("expected firing frame, got {other:?}"),
        }
        rt.shutdown();
    }

    /// Re-pinning a tenant across workers preserves results, firing order,
    /// and live subscriptions (the shard, its subscribers and its adaptive
    /// state all move together).
    #[test]
    fn repin_preserves_order_and_subscriptions() {
        let rt = Runtime::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        seed(&rt, "mv");
        rt.register_rules("mv", "rule watch { when n() >= 5; then notify; }")
            .unwrap();
        // Firings are edge-triggered, so each commit drops n below the
        // threshold and then crosses it again: exactly one firing each.
        let toggle = |v: i64| {
            vec![
                LogicalOp::AdvanceClock { delta: 1 },
                LogicalOp::Update {
                    ops: vec![WriteOp::SetItem {
                        item: "n".into(),
                        value: Value::Int(-1),
                    }],
                },
                LogicalOp::Update {
                    ops: vec![WriteOp::SetItem {
                        item: "n".into(),
                        value: Value::Int(v),
                    }],
                },
            ]
        };
        let sink = VecWriter::default();
        subscribe(&rt, "mv", 7, sink.shared());

        // A reply races the worker's pending-guard drop by a few µs, so an
        // immediate re-pin can be (correctly) refused; the planner would
        // just retry next tick. Spin like the planner does.
        let repin = |tenant: &str, to: usize| {
            for _ in 0..1000 {
                match rt.repin(tenant, to) {
                    Ok(()) => return,
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            panic!("re-pin of `{tenant}` to worker {to} never became safe");
        };

        let before = rt.metrics.repins.get();
        // Bounce the tenant between both workers, committing in between:
        // every commit must land on exactly one owner, in order.
        for (i, dst) in [(1usize, 1usize), (2, 0), (3, 1), (4, 0)] {
            repin("mv", dst);
            let (outcomes, firings) = rt.commit("mv", toggle(i as i64 * 10)).unwrap();
            assert!(outcomes.iter().all(|o| o.is_ok()), "after repin to {dst}");
            assert_eq!(firings.len(), 1);
        }
        assert_eq!(rt.metrics.repins.get(), before + 4);
        assert_eq!(query_n(&rt, "mv"), Relation::scalar(Value::Int(40)));
        let all = firings(&rt, "mv");
        assert_eq!(all.len(), 4, "one firing per post-repin commit");
        let times: Vec<_> = all.iter().map(|f| f.time).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "per-tenant firing order survived moves");

        // The subscriber moved with the shard: after the subscription's
        // answer, 4 pushed frames, in order.
        let mut frames = sink.frames().into_iter();
        assert_eq!(frames.next(), Some((7, Response::Subscribed)));
        let pushed: Vec<FiringRecord> = frames
            .map(|(id, resp)| {
                assert_eq!(id, 7);
                match resp {
                    Response::Firing { record } => record,
                    other => panic!("expected firing, got {other:?}"),
                }
            })
            .collect();
        assert_eq!(pushed, all, "pushed stream matches the firing log");

        // Busy tenants refuse to move: simulate in-flight work.
        {
            let route = rt.route.lock().unwrap();
            route
                .get("mv")
                .unwrap()
                .pending
                .fetch_add(1, Ordering::SeqCst);
        }
        assert!(rt.repin("mv", 1).is_err());
        {
            let route = rt.route.lock().unwrap();
            route
                .get("mv")
                .unwrap()
                .pending
                .fetch_sub(1, Ordering::SeqCst);
        }

        // A migration already in flight also refuses: Expect/Extract/
        // Install carry no pending guard, so the latch is the only gate
        // against a second overlapping move stranding the shard.
        {
            let route = rt.route.lock().unwrap();
            route
                .get("mv")
                .unwrap()
                .migrating
                .store(true, Ordering::SeqCst);
        }
        assert!(rt.repin("mv", 1).is_err());
        {
            let route = rt.route.lock().unwrap();
            route
                .get("mv")
                .unwrap()
                .migrating
                .store(false, Ordering::SeqCst);
        }
        // Cleared latch: moves work again (Install released it after each
        // bounce above, or no successful repin could have followed).
        repin("mv", 1);
        rt.shutdown();
    }

    /// A subscriber whose connection is already dead is pruned by the
    /// periodic sweep, not only by the next failed firing push — so a
    /// tenant that stops firing doesn't pin dead writers or inflate the
    /// subscriptions gauge indefinitely.
    #[test]
    fn sweep_prunes_dead_subscribers_without_a_firing() {
        let rt = Runtime::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        seed(&rt, "swp");
        #[derive(Debug)]
        struct DeadWriter;
        impl Write for DeadWriter {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl FrameSink for DeadWriter {
            fn is_dead(&self) -> bool {
                true
            }
        }
        subscribe(&rt, "swp", 1, Arc::new(Mutex::new(DeadWriter)));
        let before = rt.metrics.subscriptions.get();
        rt.sweep_subscribers();
        // Rendezvous behind the sweep job so it has definitely run.
        stats(&rt, "swp");
        assert_eq!(rt.metrics.subscriptions.get(), before - 1);
        rt.shutdown();
    }

    /// The adaptive window follows the certificate: cascade-required
    /// tenants never open one, stratified tenants discount by fence rate,
    /// exact tenants track the observed apply latency.
    #[test]
    fn adaptive_window_respects_certificate_and_latency() {
        let mut a = AdaptiveState::default();
        assert_eq!(
            a.window_us(&BatchCertificate::Exact),
            ADAPTIVE_BOOTSTRAP_US,
            "bootstrap before any observation"
        );
        assert_eq!(a.window_us(&BatchCertificate::CascadeRequired), 0);

        // Observe ~2ms applies with no fences: window tracks latency.
        for _ in 0..8 {
            a.observe(10, 2_000_000, 0);
        }
        let w = a.window_us(&BatchCertificate::Exact);
        assert!((1_000..=3_000).contains(&w), "window {w}µs tracks ~2ms");

        // Every op fences: a stratified tenant's window collapses.
        let mut fences = 0;
        for _ in 0..8 {
            fences += 10;
            a.observe(10, 2_000_000, fences);
        }
        let w = a.window_us(&BatchCertificate::Stratified { strata: 2 });
        assert!(
            w < 300,
            "fence-saturated stratified window should collapse, got {w}µs"
        );
        // Latency is capped so a pathological fsync can't freeze a worker.
        let mut b = AdaptiveState::default();
        b.observe(1, u64::MAX / 2, 0);
        assert!(b.window_us(&BatchCertificate::Exact) <= ADAPTIVE_MAX_WINDOW_US);
    }

    /// `submit` answers tenant-free requests on the spot and routes
    /// tenant-scoped ones to workers that answer on the same connection.
    #[test]
    fn rt_smoke_for_net_jobs() {
        let rt = Runtime::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        seed(&rt, "net");
        let sink = VecWriter::default();
        let writer = sink.shared();
        rt.submit(1, Request::ListTenants, &writer);
        assert!(
            matches!(sink.frames().as_slice(), [(1, Response::Tenants { .. })]),
            "answered without a worker"
        );
        let commit = Request::Commit {
            tenant: "net".into(),
            ops: bump(5),
        };
        rt.submit(2, commit, &writer);
        // Rendezvous behind it to make sure the worker answered.
        stats(&rt, "net");
        let frames = sink.frames();
        assert_eq!(frames.len(), 2);
        assert!(
            matches!(frames[1], (2, Response::Committed { .. })),
            "{frames:?}"
        );
        rt.shutdown();
    }

    /// A valid-time create is counted under its own kind whichever way it
    /// arrives: in-process or from a connection.
    #[test]
    fn vt_create_counts_as_create_vt_tenant() {
        let rt = Runtime::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let counter = global().counter_with("tdb_server_requests", &[("kind", "create_vt_tenant")]);
        let before = counter.get();
        rt.create_vt_tenant("vt-kind-a", false, 0).unwrap();
        let sink = VecWriter::default();
        let create = Request::CreateVtTenant {
            name: "vt-kind-b".into(),
            durable: false,
            max_delay: 4,
        };
        rt.submit(1, create, &sink.shared());
        stats(&rt, "vt-kind-b");
        assert_eq!(sink.frames(), vec![(1, Response::TenantCreated)]);
        assert_eq!(counter.get(), before + 2);
        rt.shutdown();
    }

    /// A failed group commit answers every member with the frame a single
    /// failed commit gets: a WAL/fsync failure stays a `Storage` error.
    #[test]
    fn group_failure_keeps_the_error_code() {
        let route: RouteTable = Arc::new(Mutex::new(HashMap::new()));
        let mut st = WorkerState::new(
            ServerConfig::default(),
            Arc::new(WorkerLoad::default()),
            Arc::clone(&route),
        );
        let fsync = || ServerError::Core(tdb_core::CoreError::Storage("fsync: EIO".into()));
        let commit = Request::Commit {
            tenant: "g".into(),
            ops: bump(1),
        };
        let single = VecWriter::default();
        Reply::new(9, &commit, ReplyTo::Wire(single.shared())).send(
            &st.metrics,
            &route,
            Err(fsync()),
        );
        let mut frames = single.frames();
        assert_eq!(frames.len(), 1, "one frame for the single commit");
        let (id, expected) = frames.remove(0);
        assert_eq!(id, 9);
        assert!(
            matches!(
                expected,
                Response::Error {
                    code: ErrorCode::Storage,
                    ..
                }
            ),
            "{expected:?}"
        );

        let members: Vec<VecWriter> = (0..3).map(|_| VecWriter::default()).collect();
        let group = members
            .iter()
            .enumerate()
            .map(|(i, m)| (2, Reply::new(i as u64, &commit, ReplyTo::Wire(m.shared()))))
            .collect();
        st.reply_group("g", 6, Duration::ZERO, group, Err(fsync()));
        for (i, m) in members.iter().enumerate() {
            assert_eq!(m.frames(), vec![(i as u64, expected.clone())]);
        }
    }

    /// A coalesced commit on a valid-time tenant publishes the watermark
    /// gauge exactly as an uncoalesced one does.
    #[test]
    fn coalesced_vt_commit_publishes_the_watermark() {
        let watermark = |window_us: u64, tenant: &str| {
            let rt = Runtime::start(ServerConfig {
                workers: 1,
                coalesce_window_us: window_us,
                ..ServerConfig::default()
            })
            .unwrap();
            rt.create_vt_tenant(tenant, false, 2).unwrap();
            let ops = vec![
                LogicalOp::SetItem {
                    name: "n".into(),
                    value: Value::Int(3),
                },
                LogicalOp::AdvanceClock { delta: 9 },
            ];
            let (outcomes, _) = rt.commit(tenant, ops).unwrap();
            assert!(outcomes.iter().all(|o| o.is_ok()), "{outcomes:?}");
            rt.shutdown();
            global()
                .gauge_with("tdb_server_vt_watermark", &[("tenant", tenant)])
                .get()
        };
        let uncoalesced = watermark(0, "vt-wm-plain");
        assert!(uncoalesced > 0, "the clock moved: {uncoalesced}");
        assert_eq!(watermark(500, "vt-wm-coalesced"), uncoalesced);
    }
}
