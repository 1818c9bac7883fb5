//! The cloud: gluing front end, load balancer, scheduler, workers,
//! instances and storage into one discrete-event model.
//!
//! [`CloudSim`] is the public entry point: deploy [`FunctionSpec`]s, submit
//! requests, advance simulated time, and drain [`Completion`]s and
//! [`TransferSample`]s. Internally a [`Cloud`] implements
//! [`simkit::engine::Model`] over [`CloudEvent`]s; each event corresponds
//! to a hand-off point of the invocation lifecycle in the paper's Fig 1.

use std::collections::{BTreeMap, HashMap};

use simkit::calqueue::CalQueueStats;
use simkit::dist::Dist;
use simkit::engine::{Model, Scheduler, SeqBlock, Simulation};
use simkit::metrics::Metrics;
use simkit::queue::FifoQueue;
use simkit::rng::Rng;
use simkit::time::SimTime;
use simkit::trace::{RingCollector, SpanRecord, TraceSink, Tracer};

pub use crate::arena::RequestSlabStats;
use crate::arena::{ColdReq, HotReq, RequestArena, XferInfo};
use crate::billing::{ResourceUsage, UsageTracker};
use crate::config::{ProviderConfig, ScalePolicy};
use crate::dag::DagPlan;
use crate::events::CloudEvent;
use crate::instance::Instance;
use crate::loadbalancer::DispatchServer;
use crate::loadindex::LoadIndex;
use crate::request::{ColdBreakdown, Completion, RequestOrigin, TransferSample};
use crate::scheduler::{desired_spawns, periodic_step, CapacitySnapshot, SpawnGovernor};
use crate::spec::FunctionSpec;
use crate::storage::{ImageStore, PayloadStore};
use crate::types::{
    bytes_to_mb, DeploymentMethod, FunctionId, InstanceId, RequestId, TransferMode,
};

/// Component tags carried by emitted [`SpanRecord`]s: one per stage of the
/// invocation lifecycle in the paper's Fig 1, plus [`span_tag::REQUEST`]
/// for whole-request root spans.
///
/// `stellar-core`'s `Component` enum aligns 1:1 with the lifecycle tags;
/// a test in that crate keeps the two in sync.
pub mod span_tag {
    /// Whole-request root span (trace root for external requests; child of
    /// the producer's chain span for internal ones).
    pub const REQUEST: &str = "request";
    /// Client ↔ datacenter network propagation (outbound and return legs
    /// are separate spans under the same tag).
    pub const PROPAGATION: &str = "propagation";
    /// Front-end fleet processing.
    pub const FRONTEND: &str = "frontend";
    /// Load-balancer routing decision.
    pub const ROUTING: &str = "routing";
    /// Waiting for the dispatch server.
    pub const DISPATCH_WAIT: &str = "dispatch_wait";
    /// Inline payload travelling with the request.
    pub const INLINE_TRANSFER: &str = "inline_transfer";
    /// Waiting in the scheduler queue (or for a cold boot).
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Worker steering to the chosen instance.
    pub const STEER: &str = "steer";
    /// In-instance request handling overhead.
    pub const HANDLING: &str = "handling";
    /// Consumer-side payload retrieval from storage.
    pub const PAYLOAD_GET: &str = "payload_get";
    /// Handler execution.
    pub const EXECUTION: &str = "execution";
    /// Producer-side wait for a chained invocation round trip.
    pub const CHAIN: &str = "chain";
    /// Response-path overhead back through the front end.
    pub const RESPONSE: &str = "response";
}

/// Counter and gauge names maintained in the cloud's [`Metrics`] registry.
pub mod metric {
    /// External requests submitted.
    pub const REQUESTS_SUBMITTED: &str = "requests_submitted";
    /// External requests completed.
    pub const REQUESTS_COMPLETED: &str = "requests_completed";
    /// Instance boots started.
    pub const INSTANCES_SPAWNED: &str = "instances_spawned";
    /// Requests whose instance served them as its first use.
    pub const COLD_STARTS: &str = "cold_starts";
    /// Requests served by an already-used instance.
    pub const WARM_STARTS: &str = "warm_starts";
    /// Image fetches answered from a warm cache.
    pub const IMAGE_CACHE_HITS: &str = "image_cache_hits";
    /// Image fetches that missed the cache.
    pub const IMAGE_CACHE_MISSES: &str = "image_cache_misses";
    /// Boots that failed at completion and were retried.
    pub const BOOT_FAILURE_RETRIES: &str = "boot_failure_retries";
    /// Requests cancelled by the client (tail-tolerance policies).
    pub const REQUESTS_CANCELLED: &str = "requests_cancelled";
    /// Internal chain invocations issued.
    pub const CHAIN_INVOCATIONS: &str = "chain_invocations";
    /// Gauge: requests waiting (shared + committed queues), keyed by
    /// function index. Sampled on telemetry ticks.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Gauge: idle + busy instances, keyed by function index.
    pub const INSTANCES_LIVE: &str = "instances_live";
    /// Gauge: booting instances, keyed by function index.
    pub const INSTANCES_BOOTING: &str = "instances_booting";
    /// Request-slab slots allocated fresh (never recycled).
    pub const REQUEST_SLOTS_ALLOCATED: &str = "request_slots_allocated";
    /// Request creations served by recycling a freed slot.
    pub const REQUEST_SLOTS_REUSED: &str = "request_slots_reused";
    /// Peak simultaneously-live requests (slab high-water mark).
    pub const REQUEST_SLOTS_HIGH_WATER: &str = "request_slots_high_water";
    /// Calendar-queue full rebuilds (resize + re-bucket passes).
    pub const CALQUEUE_REBUILDS: &str = "calqueue_rebuilds";
    /// Calendar-queue empty-day hunts that fell back to a full scan.
    pub const CALQUEUE_HUNT_FALLBACKS: &str = "calqueue_hunt_fallbacks";
    /// Calendar-queue rebuilds triggered by bucket overcrowding.
    pub const CALQUEUE_OVERCROWD_REBUILDS: &str = "calqueue_overcrowd_rebuilds";
    /// Fault events injected into requests (transient + crash + shed).
    pub const FAULTS_INJECTED: &str = "faults_injected";
    /// Requests rejected at the front end with a transient error.
    pub const FAULTS_TRANSIENT_ERRORS: &str = "faults_transient_errors";
    /// Executions killed mid-flight by an injected instance crash.
    pub const FAULTS_CRASHES: &str = "faults_crashes";
    /// Requests refused by admission control (queue-depth shedding).
    pub const FAULTS_SHED: &str = "faults_shed";
    /// Idle instances reaped by purge-storm events.
    pub const FAULTS_PURGED_INSTANCES: &str = "faults_purged_instances";
    /// Internal invocations issued by the DAG engine (fan-out children
    /// plus fired joins; compiled linear segments count as
    /// [`CHAIN_INVOCATIONS`]).
    pub const DAG_INVOCATIONS: &str = "dag_invocations";
    /// Join barriers fired.
    pub const JOINS_FIRED: &str = "joins_fired";
    /// Branch arrivals that reached a k-of-n join after it fired.
    pub const JOIN_STRAGGLERS: &str = "join_stragglers";

    /// Per-event-class dispatch counts from a profiled run, one counter
    /// per [`crate::events::CloudEvent`] variant, in `CLASS_NAMES` order.
    /// Recorded by [`super::CloudSim::record_profile_metrics`]; absent
    /// unless profiling was enabled.
    pub const PROFILE_COUNT: [&str; 13] = [
        "profile_count_frontend_arrive",
        "profile_count_routing_done",
        "profile_count_enqueued",
        "profile_count_boot_complete",
        "profile_count_compute_done",
        "profile_count_exec_done",
        "profile_count_completed",
        "profile_count_cancel",
        "profile_count_reap_check",
        "profile_count_scale_tick",
        "profile_count_telemetry_tick",
        "profile_count_fault_storm",
        "profile_count_join_arrive",
    ];
    /// Per-event-class wall-clock cost in nanoseconds (pop + dispatch +
    /// handler), parallel to [`PROFILE_COUNT`].
    pub const PROFILE_NS: [&str; 13] = [
        "profile_ns_frontend_arrive",
        "profile_ns_routing_done",
        "profile_ns_enqueued",
        "profile_ns_boot_complete",
        "profile_ns_compute_done",
        "profile_ns_exec_done",
        "profile_ns_completed",
        "profile_ns_cancel",
        "profile_ns_reap_check",
        "profile_ns_scale_tick",
        "profile_ns_telemetry_tick",
        "profile_ns_fault_storm",
        "profile_ns_join_arrive",
    ];
    /// Total wall-clock nanoseconds of the profiled event loop; the
    /// denominator of the cost table's coverage figure.
    pub const PROFILE_LOOP_NS: &str = "profile_loop_ns";
}

/// Errors returned by [`CloudSim::deploy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The spec failed validation.
    InvalidSpec(String),
    /// The chain references a function that was not deployed.
    UnknownChainTarget(FunctionId),
    /// An inline chained payload exceeds the provider's inline cap.
    InlinePayloadTooLarge {
        /// Requested payload, bytes.
        requested: u64,
        /// Provider limit, bytes.
        limit: u64,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::InvalidSpec(msg) => write!(f, "invalid function spec: {msg}"),
            DeployError::UnknownChainTarget(id) => {
                write!(f, "chain references unknown function {id}")
            }
            DeployError::InlinePayloadTooLarge { requested, limit } => write!(
                f,
                "inline payload of {requested} bytes exceeds provider limit of {limit} bytes"
            ),
        }
    }
}

impl std::error::Error for DeployError {}

/// Aggregate counters for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloudStats {
    /// External requests submitted.
    pub submitted: u64,
    /// Internal (chain) requests issued.
    pub internal: u64,
    /// External completions recorded.
    pub completed: u64,
    /// Instance spawns started.
    pub spawns: u64,
    /// Instances reaped by keep-alive expiry.
    pub reaps: u64,
    /// Requests that missed the idle-instance lookup (dedicated spawn).
    pub lb_misses: u64,
    /// Requests that found a warm idle instance at enqueue time.
    pub warm_hits: u64,
    /// Boots that failed at completion and were retried.
    pub boot_failures: u64,
}

/// Wasted-work accounting for client-cancelled requests: what the cloud
/// spent on attempts whose results were never used (the extra-load cost
/// of hedging and retry policies).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CancelStats {
    /// Requests cancelled (external plus cascaded chain hops).
    pub cancelled: u64,
    /// Cancels that landed before the request ever reached an instance
    /// (no instance time wasted, only pipeline overhead).
    pub cancelled_unstarted: u64,
    /// Instance busy-time consumed by cancelled requests, ms. Partial
    /// when the cancel aborted an execution midway — the instance is
    /// freed at the cancel boundary, so only the elapsed share counts.
    pub wasted_busy_ms: f64,
}

/// One telemetry sample of a function's fleet state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSample {
    /// Sample timestamp.
    pub at: SimTime,
    /// The sampled function.
    pub function: FunctionId,
    /// Idle instances.
    pub idle: u32,
    /// Busy instances.
    pub busy: u32,
    /// Booting instances.
    pub booting: u32,
    /// Requests waiting (shared + committed queues).
    pub queued: u32,
}

#[derive(Debug)]
struct TimelineRecorder {
    interval: SimTime,
    samples: Vec<TimelineSample>,
}

/// Per-function runtime state.
#[derive(Debug)]
struct FunctionState {
    spec: FunctionSpec,
    instances: Vec<Instance>,
    /// Pending requests awaiting an instance (shared pull queue; used by
    /// pull-style policies such as `Periodic`).
    queue: FifoQueue<RequestId>,
    /// Per-instance committed queues (used by committed-assignment
    /// policies: `PerRequest`, `TargetConcurrency`). Parallel to
    /// `instances`.
    committed: Vec<std::collections::VecDeque<RequestId>>,
    /// Total requests sitting in committed queues.
    committed_total: u32,
    /// Indices into `instances` believed idle (validated on pop).
    idle_stack: Vec<u32>,
    /// Least-loaded index over per-instance loads, parallel to
    /// `instances`: leaf `idx` caches `load(idx)` for a live instance and
    /// is pinned at `u32::MAX` once it dies. Dead slots stay in
    /// `instances` forever — indices are stable ids — so committed
    /// assignment must not scan every slot per request; the index answers
    /// "least loaded, lowest index" in O(1) and absorbs each load change
    /// in O(log n). Its root is the `min` over packed `load << 32 | idx`
    /// keys, which orders exactly like `(load, idx)` tuples, so the pick
    /// is the same as a linear scan's (`loadindex::scan_min`).
    loads: LoadIndex,
    n_idle: u32,
    n_busy: u32,
    n_booting: u32,
    scale_tick_armed: bool,
    /// Commit cap under the provider's scale policy, frozen at deploy —
    /// policy, spec and warm-path shares never change afterwards, and
    /// recomputing it (two analytic `Dist` medians) on every request
    /// showed up in the event-cost profile.
    commit_cap: Option<usize>,
    /// Image size in decimal MB (base + extra file).
    image_mb: f64,
    /// Lifetime/busy-time resource accounting.
    usage: UsageTracker,
    /// `(dag index, node index)` when this function was deployed as a
    /// DAG node; `None` for plain deployments. Gates every DAG arm in
    /// the hot path, so non-DAG runs stay byte-identical.
    dag_node: Option<(u32, u32)>,
}

impl FunctionState {
    fn snapshot(&self) -> CapacitySnapshot {
        CapacitySnapshot {
            queued: self.queue.len() as u32 + self.committed_total,
            busy: self.n_busy,
            idle: self.n_idle,
            booting: self.n_booting,
        }
    }

    fn total_instances(&self) -> u32 {
        self.n_idle + self.n_busy + self.n_booting
    }

    /// Outstanding load committed to instance `idx`: queued commitments
    /// plus the request it is executing. Ground truth for the debug-only
    /// load-cache lockstep check; release builds read the cache alone.
    #[cfg(debug_assertions)]
    fn load(&self, idx: usize) -> usize {
        self.committed[idx].len() + usize::from(self.instances[idx].is_busy())
    }

    /// Debug-only lockstep check: every cached load matches a fresh
    /// recomputation (dead slots excepted — their ground truth is gone).
    #[cfg(debug_assertions)]
    fn check_loads(&self) {
        for (idx, &cached) in self.loads.loads().iter().enumerate() {
            if cached != u32::MAX {
                debug_assert_eq!(cached as usize, self.load(idx), "load cache desync at {idx}");
            }
        }
    }
}

/// Requests-per-instance cap for committed-assignment policies given the
/// function's expected per-request service time; `None` selects the shared
/// pull queue.
fn commit_cap(policy: &ScalePolicy, service_estimate_ms: f64) -> Option<usize> {
    match policy {
        ScalePolicy::PerRequest => Some(1),
        ScalePolicy::TargetConcurrency { target } => Some((*target).ceil().max(1.0) as usize),
        ScalePolicy::Periodic { .. } => None,
        // Obs 7 extension: queue while the expected wait (load × service)
        // stays below the expected cold-start delay, else spawn.
        ScalePolicy::CostAware { cold_estimate_ms } => {
            let cap = (cold_estimate_ms / service_estimate_ms.max(1e-3)).floor();
            Some(cap.clamp(1.0, 10_000.0) as usize)
        }
    }
}

/// Handles to a deployed workflow (see [`CloudSim::deploy_dag`]).
#[derive(Debug, Clone)]
pub struct DagDeployment {
    /// The workflow's entry function: submit external requests here.
    pub root: FunctionId,
    /// One function per plan node, indexed like [`DagPlan::nodes`].
    pub functions: Vec<FunctionId>,
}

/// Straggler-amplification statistics of one join node, computed over
/// every barrier firing of the run (see [`CloudSim::dag_join_stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStats {
    /// The join function.
    pub function: FunctionId,
    /// Barriers fired (one per workflow invocation that reached the join).
    pub fired: u64,
    /// Arrivals that reached a k-of-n barrier after it fired.
    pub stragglers: u64,
    /// Branch arrivals observed.
    pub branch_samples: u64,
    /// p99 of individual branch latencies (branch issue to barrier
    /// arrival), ms.
    pub branch_p99_ms: f64,
    /// p99 of barrier-fire latencies (earliest counted branch issue to
    /// the k-th arrival), ms — governed by the max over branches.
    pub join_p99_ms: f64,
    /// `join_p99_ms / branch_p99_ms`: the tail-at-scale amplification a
    /// fan-out/fan-in stage adds over a single branch.
    pub amplification: f64,
}

/// Per-node conservation counters for DAG-engine-spawned requests
/// (fan-out children and fired joins; compiled linear hops are accounted
/// by the legacy chain path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagNodeCounters {
    /// Requests the DAG engine spawned for this node.
    pub spawned: u64,
    /// Spawned requests that completed.
    pub completed: u64,
    /// Spawned requests retired by a cancellation cascade.
    pub cancelled: u64,
}

/// One resolved out-edge of a deployed DAG node.
#[derive(Debug, Clone)]
struct RuntimeEdge {
    /// Target function.
    target: FunctionId,
    mode: TransferMode,
    /// Payload-size distribution, bytes.
    payload: Dist,
    /// `Some((k, n))` when the target is a fan-in barrier needing `k` of
    /// `n` arrivals; `None` spawns a direct child request.
    join: Option<(u32, u32)>,
}

/// Runtime view of one deployed DAG node: just the out-edges the fork
/// handler walks (linear-compiled edges are lowered into `spec.chain`
/// and excluded here).
#[derive(Debug, Clone)]
struct RuntimeNode {
    out: Vec<RuntimeEdge>,
}

/// A deployed workflow's runtime edge table.
#[derive(Debug, Clone)]
struct InstalledDag {
    nodes: Vec<RuntimeNode>,
}

/// One branch arrival recorded at a join barrier before it fires.
#[derive(Debug, Clone, Copy)]
struct JoinArrival {
    /// The producer request now blocked on the barrier.
    parent: RequestId,
    mode: TransferMode,
    payload_bytes: u64,
    send_start: SimTime,
    parent_tag: u64,
}

/// Barrier state of one (workflow, join-function) pair.
#[derive(Debug)]
struct JoinBarrier {
    /// Arrivals required to fire.
    needed: u32,
    /// Total inbound edges (all arrivals ever expected).
    total: u32,
    /// Arrivals seen so far (counted and stragglers).
    arrived: u32,
    /// Whether the barrier has fired; set exactly once.
    fired: bool,
    /// Earliest issue time over counted arrivals' producers (join-latency
    /// numerator base).
    min_issue: SimTime,
    /// Counted arrivals, in arrival order; drained into [`JoinMeta`] at
    /// fire time.
    arrivals: Vec<JoinArrival>,
}

/// Side table of a fired join request: who to resume at its completion
/// and the per-edge transfer records to emit at assignment.
#[derive(Debug)]
struct JoinMeta {
    /// Producers blocked on the join round trip, in arrival order.
    parents: Vec<RequestId>,
    /// The counted arrivals (per-edge transfer accounting).
    edges: Vec<JoinArrival>,
}

/// Payload metadata for an in-flight [`CloudEvent::JoinArrive`], keyed by
/// `(producer packed id, join function index)` — the event itself stays
/// a two-id `Copy`.
#[derive(Debug, Clone, Copy)]
struct PendingArrival {
    mode: TransferMode,
    payload_bytes: u64,
    send_start: SimTime,
    /// Barrier parameters of the target (k, n).
    needed: u32,
    total: u32,
}

/// Latency accumulator of one join function.
#[derive(Debug, Default)]
struct JoinAccum {
    /// Per-branch latencies: producer issue to barrier arrival, ms.
    branch_ms: Vec<f64>,
    /// Per-firing latencies: earliest counted issue to fire, ms.
    join_ms: Vec<f64>,
    stragglers: u64,
    fired: u64,
}

/// The cloud model (see module docs). Use through [`CloudSim`].
#[derive(Debug)]
pub struct Cloud {
    cfg: ProviderConfig,
    functions: Vec<FunctionState>,
    /// Generational hot/cold slab of per-request state: slots are recycled
    /// once a request completes, so long streaming runs carry O(active
    /// requests) bookkeeping instead of one entry per submission ever made.
    /// Per-event-hot fields and lifecycle-boundary fields live in separate
    /// parallel arrays (see [`crate::arena`]).
    requests: RequestArena,
    /// Sticky assignment: instance -> request it was spawned for.
    sticky: HashMap<InstanceId, RequestId>,
    /// Cold-start stage attribution per instance.
    cold_breakdowns: HashMap<InstanceId, ColdBreakdown>,
    dispatch: DispatchServer,
    governor: SpawnGovernor,
    image_store: ImageStore,
    payload_store: PayloadStore,
    rng_net: Rng,
    /// Detached network-RNG stream serving an open submission window (see
    /// [`CloudSim::open_submission_window`]): while set, `submit` draws
    /// propagation delays from here so interleaving submissions with
    /// event processing replays the exact draw order of an up-front
    /// submission pass.
    submission_rng: Option<Rng>,
    rng_path: Rng,
    rng_exec: Rng,
    rng_cold: Rng,
    rng_lb: Rng,
    completions: Vec<Completion>,
    transfers: Vec<TransferSample>,
    timeline: Option<TimelineRecorder>,
    stats: CloudStats,
    cancel_stats: CancelStats,
    /// Span tracing; `None` (the default) costs one discriminant check per
    /// emission site.
    trace: Option<Tracer>,
    /// Always-on counters plus tick-sampled gauges.
    metrics: Metrics,
    /// Dedicated fault-injection stream. Forked unconditionally (forking
    /// hashes the label without advancing the parent, so faults-off runs
    /// stay byte-identical); only consulted when a plan is installed.
    rng_faults: Rng,
    /// Compiled fault schedule; `None` (the default) gates every fault
    /// arm before any draw or event, preserving byte-identity.
    fault_plan: Option<faults::FaultPlan>,
    /// Injection and degradation counters (all zero without a plan).
    fault_stats: faults::FaultStats,
    /// Deployed workflow edge tables; indexed by `FunctionState::dag_node`.
    dags: Vec<InstalledDag>,
    /// Dedicated DAG stream (per-edge payload draws). Forked
    /// unconditionally — forking hashes the label without advancing the
    /// parent — and only consulted by deployed workflows, so DAG-free
    /// runs stay byte-identical.
    rng_dag: Rng,
    /// Join barriers keyed by `(workflow root packed id, join function
    /// index)`. BTreeMap: iteration/removal order must be deterministic —
    /// it feeds slot-reuse order, which feeds trace digests.
    join_barriers: BTreeMap<(u64, u32), JoinBarrier>,
    /// Fired-join side tables keyed by the join request's packed id.
    join_meta: BTreeMap<u64, JoinMeta>,
    /// DAG children spawned by each producer (packed id), for the
    /// cancellation cascade. Cleared when the producer's obligations
    /// resolve.
    dag_children: BTreeMap<u64, Vec<RequestId>>,
    /// In-flight `JoinArrive` payload metadata, keyed by `(producer
    /// packed id, join function index)`.
    pending_arrivals: BTreeMap<(u64, u32), PendingArrival>,
    /// Per-join-function latency accumulators, keyed by function index.
    join_accums: BTreeMap<u32, JoinAccum>,
    /// Per-node conservation counters, keyed by function index.
    dag_counters: BTreeMap<u32, DagNodeCounters>,
    /// Internal (chain hop, fan-out child, join) completions, recorded
    /// only when `record_internal` is set — the main `completions`
    /// stream drives client expected-count logic and must stay
    /// external-only.
    internal_completions: Vec<Completion>,
    /// Whether to record internal completions (per-stage breakdowns).
    record_internal: bool,
    /// Whether to also copy external completions into
    /// `internal_completions`, for stage reports whose client discards
    /// its samples.
    record_roots: bool,
}

impl Cloud {
    fn new(cfg: ProviderConfig, seed: u64) -> Cloud {
        cfg.validate().expect("invalid provider config");
        let root = Rng::seed_from(seed);
        Cloud {
            dispatch: DispatchServer::new(cfg.dispatch.clone()),
            governor: SpawnGovernor::new(&cfg.scaling),
            image_store: ImageStore::new(cfg.image_store.clone(), root.fork("image-store")),
            payload_store: PayloadStore::new(cfg.payload_store.clone(), root.fork("payload-store")),
            rng_net: root.fork("network"),
            submission_rng: None,
            rng_path: root.fork("warm-path"),
            rng_exec: root.fork("exec"),
            rng_cold: root.fork("cold-start"),
            rng_lb: root.fork("load-balancer"),
            rng_faults: root.fork("faults"),
            fault_plan: None,
            fault_stats: faults::FaultStats::default(),
            dags: Vec::new(),
            rng_dag: root.fork("dag"),
            join_barriers: BTreeMap::new(),
            join_meta: BTreeMap::new(),
            dag_children: BTreeMap::new(),
            pending_arrivals: BTreeMap::new(),
            join_accums: BTreeMap::new(),
            dag_counters: BTreeMap::new(),
            internal_completions: Vec::new(),
            record_internal: false,
            record_roots: false,
            cfg,
            functions: Vec::new(),
            requests: RequestArena::default(),
            sticky: HashMap::new(),
            cold_breakdowns: HashMap::new(),
            completions: Vec::new(),
            transfers: Vec::new(),
            timeline: None,
            stats: CloudStats::default(),
            cancel_stats: CancelStats::default(),
            trace: None,
            metrics: Metrics::new(),
        }
    }

    fn fstate(&self, fid: FunctionId) -> &FunctionState {
        &self.functions[fid.index()]
    }

    fn fstate_mut(&mut self, fid: FunctionId) -> &mut FunctionState {
        &mut self.functions[fid.index()]
    }

    /// The commit cap for `fid` under the configured policy (frozen at
    /// deploy; see [`FunctionState::commit_cap`]).
    fn committed_cap(&self, fid: FunctionId) -> Option<usize> {
        self.fstate(fid).commit_cap
    }

    fn create_request(
        &mut self,
        function: FunctionId,
        origin: RequestOrigin,
        tag: u64,
        issued_at: SimTime,
        xfer_in: Option<XferInfo>,
    ) -> RequestId {
        let root_span = self.trace.as_mut().map(Tracer::alloc_id);
        self.requests.create(function, issued_at, ColdReq::new(origin, tag, xfer_in, root_span))
    }

    fn hot(&self, rid: RequestId) -> &HotReq {
        self.requests.hot(rid)
    }

    fn hot_mut(&mut self, rid: RequestId) -> &mut HotReq {
        self.requests.hot_mut(rid)
    }

    fn cold(&self, rid: RequestId) -> &ColdReq {
        self.requests.cold(rid)
    }

    fn cold_mut(&mut self, rid: RequestId) -> &mut ColdReq {
        self.requests.cold_mut(rid)
    }

    /// Whether `rid` still refers to a live request (its slot occupied
    /// and its generation current). A cancel racing a completion makes
    /// stale ids an expected input, not a bug.
    fn is_live(&self, rid: RequestId) -> bool {
        self.requests.is_live(rid)
    }

    /// The external root of `rid`'s workflow: the propagated ancestor for
    /// spawned requests, the request itself for external roots. Keys the
    /// join barriers so concurrent invocations of one DAG never share
    /// state.
    fn wf_root_of(&self, rid: RequestId) -> RequestId {
        self.cold(rid).wf_root.unwrap_or(rid)
    }

    /// Emits one component span under `rid`'s root span. No-op when
    /// tracing is off or the request predates it. Emission draws no
    /// randomness and schedules no events, so enabling a trace cannot
    /// perturb simulation results.
    fn emit_span(&mut self, rid: RequestId, component: &'static str, start: SimTime, end: SimTime) {
        if self.trace.is_none() {
            return;
        }
        let Some(parent) = self.cold(rid).root_span else { return };
        let tracer = self.trace.as_mut().expect("checked above");
        let span_id = tracer.alloc_id();
        tracer.emit(SpanRecord {
            span_id,
            parent: Some(parent),
            request: rid.packed(),
            component,
            start,
            end,
        });
    }

    /// Emits `rid`'s root span, covering issue to completion. `parent` is
    /// `None` for external requests and the producer's chain span for
    /// internal ones.
    fn emit_root_span(&mut self, rid: RequestId, end: SimTime, parent: Option<u64>) {
        if self.trace.is_none() {
            return;
        }
        let Some(span_id) = self.cold(rid).root_span else { return };
        let start = self.hot(rid).issued_at;
        let tracer = self.trace.as_mut().expect("checked above");
        tracer.emit(SpanRecord {
            span_id,
            parent,
            request: rid.packed(),
            component: span_tag::REQUEST,
            start,
            end,
        });
    }

    /// Retires a cancelled request's slot, then walks every reference
    /// that can never be reached again: a chain hop's producer (once the
    /// producer's `ComputeDone` has fired, the hop is the only remaining
    /// reference — its `ExecDone` is scheduled by the hop's completion,
    /// which a cancelled hop never performs), and, for a fired join, the
    /// branch producers blocked on its round trip. An iterative worklist
    /// rather than recursion: a deep chain cancelled mid-flight would
    /// otherwise nest one stack frame per hop.
    fn free_cancelled(&mut self, rid: RequestId) {
        let mut work = vec![rid];
        while let Some(r) = work.pop() {
            // A slot can be queued for freeing through two paths (e.g. a
            // producer referenced by two cancelled children); the first
            // free bumps the generation so later visits are no-ops.
            if !self.is_live(r) {
                continue;
            }
            let (hot, cold) = self.requests.free(r);
            if hot.dag_spawn() {
                self.dag_counters.entry(hot.function.0).or_default().cancelled += 1;
            }
            self.dag_children.remove(&r.packed());
            if let Some(meta) = self.join_meta.remove(&r.packed()) {
                for parent in meta.parents {
                    if self.is_live(parent) && self.hot(parent).cancelled() {
                        work.push(parent);
                    }
                }
            }
            if let RequestOrigin::Internal { parent } = cold.origin {
                if self.is_live(parent) && self.hot(parent).cancelled() {
                    work.push(parent);
                }
            }
        }
    }

    /// Executes a client cancellation. The request may legitimately be
    /// gone (completed in the same event batch) or already cancelled —
    /// both are no-ops. Otherwise the whole in-flight workflow below it
    /// is collected (chain hops and DAG children alike) and cancelled
    /// deepest-first — iteratively, so an N-deep chain costs O(N) heap
    /// instead of N stack frames — and any join barriers keyed under the
    /// request are torn down, freeing branch producers that were blocked
    /// on them. Each cancelled request is marked; if it is executing,
    /// its instance is freed *now* and the elapsed busy time booked as
    /// waste; if it is queued or mid-pipeline, the slot is retired by
    /// whichever handler or queue pop touches it next.
    fn on_cancel(&mut self, now: SimTime, rid: RequestId, sched: &mut Scheduler<CloudEvent>) {
        if !self.is_live(rid) || self.hot(rid).cancelled() {
            return;
        }
        // Preorder collection of the spawn tree...
        let mut order = vec![rid];
        let mut i = 0;
        while i < order.len() {
            let r = order[i];
            i += 1;
            if let Some(child) = self.cold(r).chain_child {
                if self.is_live(child) {
                    order.push(child);
                }
            }
            if let Some(kids) = self.dag_children.get(&r.packed()) {
                for &kid in kids {
                    if self.is_live(kid) {
                        order.push(kid);
                    }
                }
            }
        }
        // ...processed reversed (deepest-first), matching the recursive
        // cascade's event-scheduling order exactly: each cancel may free
        // an instance and pull queued work, so the order is part of the
        // deterministic event sequence.
        for j in (0..order.len()).rev() {
            self.cancel_one(now, order[j], sched);
        }
        // Tear down any barriers of the workflow rooted here: producers
        // recorded as arrivals have no pending lifecycle event of their
        // own (they were waiting for the barrier to fire), so they are
        // freed now or never.
        let root_key = rid.packed();
        let barrier_keys: Vec<(u64, u32)> = self
            .join_barriers
            .range((root_key, 0)..=(root_key, u32::MAX))
            .map(|(key, _)| *key)
            .collect();
        for key in barrier_keys {
            let barrier = self.join_barriers.remove(&key).expect("key just listed");
            for arrival in barrier.arrivals {
                if self.is_live(arrival.parent) && self.hot(arrival.parent).cancelled() {
                    self.free_cancelled(arrival.parent);
                }
            }
        }
    }

    /// Marks and unwinds one request of a cancellation cascade (the body
    /// the recursive `on_cancel` used to run per hop).
    fn cancel_one(&mut self, now: SimTime, rid: RequestId, sched: &mut Scheduler<CloudEvent>) {
        if !self.is_live(rid) || self.hot(rid).cancelled() {
            return;
        }
        self.hot_mut(rid).set_cancelled();
        self.cancel_stats.cancelled += 1;
        self.metrics.inc(metric::REQUESTS_CANCELLED);
        if self.fault_plan.is_some() && self.cold(rid).origin.is_external() {
            self.fault_stats.cancelled += 1;
        }

        let (fid, instance, assigned_at, busy_ms) = {
            let hot = self.hot(rid);
            let b = &self.cold(rid).breakdown;
            (
                hot.function,
                hot.instance,
                hot.assigned_at,
                b.steer_ms + b.handling_ms + b.payload_get_ms + b.exec_ms + b.chain_ms,
            )
        };
        let Some(iid) = instance else {
            // Never reached an instance: queued, sticky-waiting or still
            // in the pre-queue pipeline. No instance time to waste; the
            // slot is freed lazily.
            self.cancel_stats.cancelled_unstarted += 1;
            return;
        };
        let busy_on_this = {
            let inst = &self.fstate(fid).instances[iid.idx as usize];
            matches!(inst.state(), crate::instance::InstanceState::Busy { request } if request == rid)
        };
        if busy_on_this {
            // Abort mid-flight: the instance is freed at this event
            // boundary and only the elapsed share of its busy time is
            // wasted.
            let started = assigned_at.expect("busy request without an assignment time");
            self.cancel_stats.wasted_busy_ms += (now - started).as_millis();
            {
                let state = self.fstate_mut(fid);
                state.instances[iid.idx as usize].release(rid, now);
                state.usage.on_release(iid.idx as usize, now);
                state.n_busy -= 1;
                state.n_idle += 1;
                state.loads.sub(iid.idx as usize, 1);
                state.idle_stack.push(iid.idx);
            }
            // The freed instance can take new work immediately.
            if self.committed_cap(fid).is_some() {
                if !self.serve_committed(now, iid, sched) {
                    self.maybe_schedule_reap(now, iid, sched);
                }
            } else {
                self.serve_queue(now, fid, sched);
                self.maybe_schedule_reap(now, iid, sched);
            }
            // The slot itself is retired by the request's still-pending
            // lifecycle event (`ComputeDone`/`ExecDone`) or, for a chain
            // producer, by its cancelled hop.
        } else {
            // Execution already finished; the response in flight will be
            // dropped at `Completed`, so the full busy span was wasted.
            self.cancel_stats.wasted_busy_ms += busy_ms;
        }
    }

    // ---- fault injection --------------------------------------------------

    /// Resolves an external request with a provider-style error: the
    /// rejection travels straight back to the client (skipping the
    /// response-path overhead an instance would add), with the return
    /// propagation drawn from the dedicated fault stream so the baseline
    /// network stream is untouched.
    fn fail_request(
        &mut self,
        now: SimTime,
        rid: RequestId,
        code: u16,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        debug_assert!(self.cold(rid).origin.is_external(), "faults only hit external requests");
        let prop_back_ms = self.cfg.network.prop_delay_ms.sample(&mut self.rng_faults);
        let cold = self.cold_mut(rid);
        cold.error = Some(code);
        cold.breakdown.prop_back_ms = prop_back_ms;
        sched.schedule_in(now, SimTime::from_millis(prop_back_ms), CloudEvent::Completed(rid));
    }

    /// Kills `iid` while it executes `rid`: the busy time is booked as
    /// waste, commitments queued behind the dead instance are
    /// redistributed (the failed-boot idiom), and the client receives a
    /// 500.
    fn crash_instance(
        &mut self,
        now: SimTime,
        rid: RequestId,
        iid: InstanceId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        let fid = iid.function();
        let started = self.hot(rid).assigned_at.expect("crashed request was never assigned");
        self.fault_stats.injected += 1;
        self.fault_stats.crashes += 1;
        self.fault_stats.wasted_busy_ms += (now - started).as_millis();
        self.metrics.inc(metric::FAULTS_INJECTED);
        self.metrics.inc(metric::FAULTS_CRASHES);
        {
            let state = self.fstate_mut(fid);
            state.instances[iid.idx as usize].crash(rid);
            state.loads.unlive(iid.idx as usize);
            // Bank the busy span, then the lifetime: the instance is gone.
            state.usage.on_release(iid.idx as usize, now);
            state.usage.on_reap(iid.idx as usize, now);
            state.n_busy -= 1;
        }
        if self.committed_cap(fid).is_some() {
            let orphaned = std::mem::take(&mut self.fstate_mut(fid).committed[iid.idx as usize]);
            self.fstate_mut(fid).committed_total -= orphaned.len() as u32;
            for orphan in orphaned {
                if self.hot(orphan).cancelled() {
                    self.free_cancelled(orphan);
                } else {
                    let cap = self.committed_cap(fid).expect("checked above");
                    self.enqueue_committed(now, orphan, fid, cap, sched);
                }
            }
        }
        self.fail_request(now, rid, 500, sched);
    }

    /// Purge-storm tick: reap every idle instance in the fleet, then
    /// reschedule with an exponential gap — only while other work is
    /// pending, so runs still drain to idle (telemetry-tick idiom).
    fn on_fault_storm(&mut self, now: SimTime, sched: &mut Scheduler<CloudEvent>) {
        let Some(plan) = self.fault_plan.take() else { return };
        let Some(storm) = plan.storm else {
            self.fault_plan = Some(plan);
            return;
        };
        self.fault_stats.storms += 1;
        for f in 0..self.functions.len() {
            let state = &mut self.functions[f];
            for idx in 0..state.instances.len() {
                let epoch = state.instances[idx].epoch();
                if state.instances[idx].try_reap(epoch) {
                    state.loads.unlive(idx);
                    state.usage.on_reap(idx, now);
                    state.n_idle -= 1;
                    self.stats.reaps += 1;
                    self.fault_stats.purged_instances += 1;
                    self.metrics.inc(metric::FAULTS_PURGED_INSTANCES);
                }
            }
        }
        if !sched.is_empty() {
            let gap_ms = -storm.mean_gap_ms * self.rng_faults.next_f64_open().ln();
            sched.schedule_in(now, SimTime::from_millis(gap_ms), CloudEvent::FaultStorm);
        }
        self.fault_plan = Some(plan);
    }

    // ---- event handlers ---------------------------------------------------

    fn on_frontend_arrive(
        &mut self,
        now: SimTime,
        rid: RequestId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        if self.hot(rid).cancelled() {
            self.free_cancelled(rid);
            return;
        }
        // Transient provider errors (throttle / 5xx) reject external
        // requests at the front door. One roll per source, in spec order,
        // first hit wins; every draw comes from the fault stream.
        if let Some(plan) = self.fault_plan.take() {
            let mut hit = None;
            if self.cold(rid).origin.is_external() {
                for t in &plan.transients {
                    if self.rng_faults.bernoulli(t.p) {
                        hit = Some(t.code);
                        break;
                    }
                }
            }
            self.fault_plan = Some(plan);
            if let Some(code) = hit {
                self.fault_stats.injected += 1;
                self.fault_stats.transient_errors += 1;
                self.metrics.inc(metric::FAULTS_INJECTED);
                self.metrics.inc(metric::FAULTS_TRANSIENT_ERRORS);
                self.fail_request(now, rid, code, sched);
                return;
            }
        }
        let overhead = self.cfg.warm_path.overhead_ms.sample(&mut self.rng_path);
        let shares = self.cfg.warm_path.shares;
        let frontend_ms = overhead * shares.frontend;
        let routing_ms = overhead * shares.routing;

        // Inline payload travels with the request into the datacenter.
        let xfer = self.cold(rid).xfer_in;
        let inline_ms = match xfer {
            Some(x) if x.mode == TransferMode::Inline => {
                let bw = self.cfg.network.inline_bandwidth_mbps.sample(&mut self.rng_net).max(0.01);
                bytes_to_mb(x.payload_bytes) / bw * 1000.0
            }
            _ => 0.0,
        };

        let cold = self.cold_mut(rid);
        cold.warm_overhead_ms = overhead;
        cold.breakdown.frontend_ms = frontend_ms;
        cold.breakdown.routing_ms = routing_ms;
        cold.breakdown.inline_transfer_ms = inline_ms;
        let delay = SimTime::from_millis(frontend_ms + routing_ms + inline_ms);
        if self.trace.is_some() {
            // Cumulative boundaries telescope, so the spans tile
            // [now, now + delay] exactly despite nanosecond rounding.
            let s1 = now + SimTime::from_millis(frontend_ms);
            let s2 = now + SimTime::from_millis(frontend_ms + routing_ms);
            let s3 = now + delay;
            self.emit_span(rid, span_tag::FRONTEND, now, s1);
            self.emit_span(rid, span_tag::ROUTING, s1, s2);
            if inline_ms > 0.0 {
                self.emit_span(rid, span_tag::INLINE_TRANSFER, s2, s3);
            }
        }
        sched.schedule_in(now, delay, CloudEvent::RoutingDone(rid));
    }

    fn on_routing_done(&mut self, now: SimTime, rid: RequestId, sched: &mut Scheduler<CloudEvent>) {
        if self.hot(rid).cancelled() {
            self.free_cancelled(rid);
            return;
        }
        let outcome = self.dispatch.dispatch(now, &mut self.rng_lb);
        self.cold_mut(rid).breakdown.dispatch_wait_ms = (outcome.ready_at - now).as_millis();
        self.emit_span(rid, span_tag::DISPATCH_WAIT, now, outcome.ready_at);
        sched.schedule_at(outcome.ready_at, CloudEvent::Enqueued(rid));
    }

    fn on_enqueued(&mut self, now: SimTime, rid: RequestId, sched: &mut Scheduler<CloudEvent>) {
        if self.hot(rid).cancelled() {
            self.free_cancelled(rid);
            return;
        }
        let fid = self.hot(rid).function;

        // Admission control (graceful degradation): an external request
        // arriving at a queue already `shed_limit` deep is refused with an
        // explicit 503 instead of deepening the backlog. Draws no
        // randomness; the terminal bucket is counted once, at completion.
        if let Some(limit) = self.fault_plan.as_ref().and_then(|plan| plan.shed_limit) {
            let depth = {
                let state = self.fstate(fid);
                state.queue.len() as u32 + state.committed_total
            };
            if depth >= limit && self.cold(rid).origin.is_external() {
                self.fault_stats.injected += 1;
                self.metrics.inc(metric::FAULTS_INJECTED);
                self.metrics.inc(metric::FAULTS_SHED);
                self.hot_mut(rid).set_shed();
                self.fail_request(now, rid, 503, sched);
                return;
            }
        }
        self.hot_mut(rid).wait_started = Some(now);

        // LB lookup miss: a dedicated spawn for this request. Misses are a
        // concurrency artefact (racing idle-instance lookups), so they
        // require live instances to race over AND other work in flight
        // (§VI-D1 burst tails) — and capacity to spawn into.
        let concurrent = {
            let state = self.fstate(fid);
            (state.n_busy > 0 || state.n_idle > 0)
                && (state.n_busy > 0 || state.committed_total > 0 || !state.queue.is_empty())
        };
        if concurrent
            && self.fstate(fid).total_instances() < self.cfg.limits.max_instances_per_function
            && self.dispatch.rolls_miss(&mut self.rng_lb)
        {
            self.stats.lb_misses += 1;
            let iid = self.spawn_instance(now, fid, sched);
            self.sticky.insert(iid, rid);
            return;
        }

        match self.committed_cap(fid) {
            Some(cap) => self.enqueue_committed(now, rid, fid, cap, sched),
            None => {
                if self.fstate(fid).n_idle > 0 {
                    self.stats.warm_hits += 1;
                }
                self.fstate_mut(fid).queue.push(now, rid);
                self.serve_queue(now, fid, sched);
                self.scale(now, fid, sched);
            }
        }
    }

    /// Committed assignment (AWS / Google style): pick the least-loaded
    /// live instance; spawn a fresh one if every instance is at the cap
    /// and headroom remains. The request then belongs to that instance.
    fn enqueue_committed(
        &mut self,
        now: SimTime,
        rid: RequestId,
        fid: FunctionId,
        cap: usize,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        // The index root is the least `(load, idx)` over live instances;
        // debug builds check it against ground truth and the linear scan.
        let best = self.fstate(fid).loads.min();
        #[cfg(debug_assertions)]
        {
            let state = self.fstate(fid);
            state.check_loads();
            debug_assert_eq!(
                best,
                crate::loadindex::scan_min(state.loads.loads()),
                "load index disagrees with the linear scan"
            );
        }
        let headroom =
            self.fstate(fid).total_instances() < self.cfg.limits.max_instances_per_function;
        let target_idx = match best {
            Some((load, idx)) if (load as usize) < cap => {
                if self.fstate(fid).instances[idx].is_idle() {
                    self.stats.warm_hits += 1;
                }
                idx
            }
            _ if headroom => {
                let iid = self.spawn_instance(now, fid, sched);
                iid.idx as usize
            }
            Some((_, idx)) => idx, // at the cap but no headroom: overcommit
            None => unreachable!("no instances and no headroom"),
        };
        let state = self.fstate_mut(fid);
        let iid = state.instances[target_idx].id();
        if state.instances[target_idx].is_idle() && state.committed[target_idx].is_empty() {
            self.assign(now, rid, iid, sched);
        } else {
            state.committed[target_idx].push_back(rid);
            state.committed_total += 1;
            state.loads.add(target_idx, 1);
        }
    }

    /// Hands the next committed request (if any) to a just-freed instance.
    /// Returns whether an assignment happened.
    fn serve_committed(
        &mut self,
        now: SimTime,
        iid: InstanceId,
        sched: &mut Scheduler<CloudEvent>,
    ) -> bool {
        let fid = iid.function();
        loop {
            let next = {
                let state = self.fstate_mut(fid);
                let queue = &mut state.committed[iid.idx as usize];
                match queue.pop_front() {
                    Some(rid) => {
                        state.committed_total -= 1;
                        state.loads.sub(iid.idx as usize, 1);
                        Some(rid)
                    }
                    None => None,
                }
            };
            match next {
                // A commitment cancelled while queued: retire it and
                // offer the instance to the next one.
                Some(rid) if self.hot(rid).cancelled() => self.free_cancelled(rid),
                Some(rid) => {
                    self.assign(now, rid, iid, sched);
                    return true;
                }
                None => return false,
            }
        }
    }

    /// Assigns queued requests to idle instances while both exist.
    fn serve_queue(&mut self, now: SimTime, fid: FunctionId, sched: &mut Scheduler<CloudEvent>) {
        loop {
            let next = {
                let state = self.fstate_mut(fid);
                if state.queue.is_empty() {
                    None
                } else {
                    // Pop a valid idle instance (stack may hold stale
                    // entries from state changes since the push).
                    let mut found = None;
                    while let Some(idx) = state.idle_stack.pop() {
                        if state.instances[idx as usize].is_idle() {
                            found = Some(idx);
                            break;
                        }
                    }
                    found.map(|idx| {
                        let rid = state.queue.pop(now).expect("non-empty queue").item;
                        (rid, InstanceId { function: fid, idx })
                    })
                }
            };
            match next {
                // A queued request cancelled before being served: retire
                // it and return the instance for the next entry.
                Some((rid, iid)) if self.hot(rid).cancelled() => {
                    self.free_cancelled(rid);
                    self.fstate_mut(fid).idle_stack.push(iid.idx);
                }
                Some((rid, iid)) => self.assign(now, rid, iid, sched),
                None => break,
            }
        }
    }

    /// Applies the provider's scale-out policy after a queue change.
    fn scale(&mut self, now: SimTime, fid: FunctionId, sched: &mut Scheduler<CloudEvent>) {
        let snap = self.fstate(fid).snapshot();
        let policy = self.cfg.scaling.policy;
        let headroom = self
            .cfg
            .limits
            .max_instances_per_function
            .saturating_sub(self.fstate(fid).total_instances());
        let want = desired_spawns(&policy, snap).min(headroom);
        for _ in 0..want {
            self.spawn_instance(now, fid, sched);
        }
        // Arm the periodic scale controller if needed.
        if let ScalePolicy::Periodic { interval_ms, .. } = policy {
            let state = self.fstate_mut(fid);
            if !state.scale_tick_armed && !state.queue.is_empty() {
                state.scale_tick_armed = true;
                sched.schedule_in(
                    now,
                    SimTime::from_millis(interval_ms),
                    CloudEvent::ScaleTick(fid),
                );
            }
        }
    }

    fn on_scale_tick(&mut self, now: SimTime, fid: FunctionId, sched: &mut Scheduler<CloudEvent>) {
        let policy = self.cfg.scaling.policy;
        let snap = self.fstate(fid).snapshot();
        let headroom = self
            .cfg
            .limits
            .max_instances_per_function
            .saturating_sub(self.fstate(fid).total_instances());
        let add = periodic_step(&policy, snap).min(headroom);
        for _ in 0..add {
            self.spawn_instance(now, fid, sched);
        }
        let backlog = !self.fstate(fid).queue.is_empty();
        let state = self.fstate_mut(fid);
        if !backlog {
            state.scale_tick_armed = false;
        } else if let ScalePolicy::Periodic { interval_ms, .. } = policy {
            sched.schedule_in(now, SimTime::from_millis(interval_ms), CloudEvent::ScaleTick(fid));
        }
    }

    /// Starts one instance boot, returning its id.
    fn spawn_instance(
        &mut self,
        now: SimTime,
        fid: FunctionId,
        sched: &mut Scheduler<CloudEvent>,
    ) -> InstanceId {
        self.stats.spawns += 1;
        self.metrics.inc(metric::INSTANCES_SPAWNED);
        let decision_ms = self.cfg.scaling.decision_ms.sample(&mut self.rng_cold);
        let reserved = self.governor.reserve(now);
        let spawn_wait_ms = (reserved - now).as_millis();
        let fetch_at = reserved + SimTime::from_millis(decision_ms);

        let (image_mb, runtime, deployment) = {
            let state = self.fstate(fid);
            (state.image_mb, state.spec.runtime, state.spec.deployment)
        };
        let fetch = self.image_store.fetch(fid, image_mb, fetch_at);
        self.metrics.inc(if fetch.cache_warm {
            metric::IMAGE_CACHE_HITS
        } else {
            metric::IMAGE_CACHE_MISSES
        });
        let sandbox_ms = self.cfg.cold_start.sandbox_boot_ms.sample(&mut self.rng_cold);
        let boot_core_ms = if self.cfg.cold_start.fetch_overlaps_boot {
            sandbox_ms.max(fetch.latency_ms)
        } else {
            sandbox_ms + fetch.latency_ms
        };

        // Borrow the runtime model in place (it holds heap-backed `Dist`s,
        // so cloning it per spawn was measurable allocation churn); the
        // `self.cfg.runtimes` path is disjoint from `self.rng_cold`.
        let runtime_model = self.cfg.runtimes.model(runtime);
        let mut chunk_ms = 0.0;
        if deployment == DeploymentMethod::Container {
            if let Some(chunks) = &runtime_model.container_chunks {
                let count = self.rng_cold.range_u64(chunks.count_lo as u64, chunks.count_hi as u64);
                for _ in 0..count {
                    chunk_ms += chunks.chunk_latency_ms.sample(&mut self.rng_cold);
                }
            }
        }
        let runtime_init_ms = runtime_model.init_ms.sample(&mut self.rng_cold);
        let handler_init_ms = self.cfg.cold_start.handler_init_ms.sample(&mut self.rng_cold);

        let total_ms = spawn_wait_ms
            + decision_ms
            + boot_core_ms
            + chunk_ms
            + runtime_init_ms
            + handler_init_ms;
        let mut ready_at = now + SimTime::from_millis(total_ms);
        // Capacity outage: a boot finishing inside an outage window is
        // held (not failed) until the window closes. Pure clamp, no draws.
        if let Some(plan) = &self.fault_plan {
            if let Some(release_ms) = plan.outage_release_ms((ready_at - SimTime::ZERO).as_millis())
            {
                self.fault_stats.outage_deferrals += 1;
                ready_at = SimTime::from_millis(release_ms);
            }
        }

        let state = self.fstate_mut(fid);
        let iid = InstanceId { function: fid, idx: state.instances.len() as u32 };
        state.instances.push(Instance::boot(iid, now, ready_at));
        state.loads.push(0);
        state.committed.push(std::collections::VecDeque::new());
        state.usage.on_spawn();
        state.n_booting += 1;
        self.cold_breakdowns.insert(
            iid,
            ColdBreakdown {
                decision_ms,
                spawn_wait_ms,
                sandbox_ms,
                image_fetch_ms: fetch.latency_ms,
                chunk_fetch_ms: chunk_ms,
                runtime_init_ms,
                handler_init_ms,
                total_ms,
            },
        );
        sched.schedule_at(ready_at, CloudEvent::BootComplete(iid));
        iid
    }

    fn on_boot_complete(
        &mut self,
        now: SimTime,
        iid: InstanceId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        self.governor.spawn_started();
        let fid = iid.function();

        // Failure injection: the boot may fail at completion and be
        // retried on a fresh instance, carrying its commitments along.
        let p_fail = self.cfg.cold_start.boot_failure_prob;
        if p_fail > 0.0 && self.rng_cold.bernoulli(p_fail) {
            self.stats.boot_failures += 1;
            self.metrics.inc(metric::BOOT_FAILURE_RETRIES);
            {
                let state = self.fstate_mut(fid);
                state.instances[iid.idx as usize].fail_boot();
                state.loads.unlive(iid.idx as usize);
                state.n_booting -= 1;
            }
            let replacement = self.spawn_instance(now, fid, sched);
            if let Some(rid) = self.sticky.remove(&iid) {
                self.sticky.insert(replacement, rid);
            }
            let orphaned = std::mem::take(&mut self.fstate_mut(fid).committed[iid.idx as usize]);
            let state = self.fstate_mut(fid);
            state.loads.add(replacement.idx as usize, orphaned.len() as u32);
            state.committed[replacement.idx as usize].extend(orphaned);
            return;
        }

        {
            let state = self.fstate_mut(fid);
            state.instances[iid.idx as usize].boot_complete(now);
            state.usage.on_boot_complete(iid.idx as usize, now);
            state.n_booting -= 1;
            state.n_idle += 1;
            state.idle_stack.push(iid.idx);
        }
        if let Some(rid) = self.sticky.remove(&iid) {
            if self.hot(rid).cancelled() {
                // The request this instance was spawned for is gone:
                // retire it and let the instance serve the general pool.
                self.free_cancelled(rid);
            } else {
                // Serve the request this instance was spawned for. The
                // stale idle-stack entry is filtered out when popped
                // later.
                self.assign(now, rid, iid, sched);
                return;
            }
        }
        if self.committed_cap(fid).is_some() {
            if !self.serve_committed(now, iid, sched) {
                self.maybe_schedule_reap(now, iid, sched);
            }
            return;
        }
        self.serve_queue(now, fid, sched);
        self.maybe_schedule_reap(now, iid, sched);
    }

    /// Common assignment: instance goes busy, request timing recorded,
    /// compute scheduled.
    fn assign(
        &mut self,
        now: SimTime,
        rid: RequestId,
        iid: InstanceId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        let fid = iid.function();
        let first_use = {
            let state = self.fstate_mut(fid);
            let inst = &mut state.instances[iid.idx as usize];
            let first_use = inst.served() == 0;
            inst.assign(rid);
            state.usage.on_assign(iid.idx as usize, now);
            state.n_idle -= 1;
            state.n_busy += 1;
            state.loads.add(iid.idx as usize, 1);
            first_use
        };
        self.metrics.inc(if first_use { metric::COLD_STARTS } else { metric::WARM_STARTS });

        let shares = self.cfg.warm_path.shares;
        let memory_mb = self.functions[fid.index()].spec.memory_mb;
        let throttle = (self.cfg.limits.full_speed_memory_mb as f64 / memory_mb as f64).max(1.0);
        // Sample through a direct field borrow: `exec_ms` is a heap-backed
        // `Dist`, and this runs once per request, so the previous
        // per-request clone dominated the dispatch path's allocations.
        let exec_ms =
            self.functions[fid.index()].spec.exec_ms.sample(&mut self.rng_exec) * throttle;

        // Consumer-side payload retrieval for storage transfers (step ⑧).
        let xfer = self.cold(rid).xfer_in;
        let payload_get_ms = match xfer {
            Some(x) if x.mode == TransferMode::Storage => {
                self.payload_store.get_ms(x.payload_bytes)
            }
            _ => 0.0,
        };

        let cold_breakdown = first_use.then(|| self.cold_breakdowns.get(&iid).copied()).flatten();
        let wait_started = {
            let hot = self.hot_mut(rid);
            hot.instance = Some(iid);
            hot.assigned_at = Some(now);
            if first_use {
                hot.set_cold_start();
            }
            hot.wait_started
        };
        let cold = self.cold_mut(rid);
        let steer_ms = cold.warm_overhead_ms * shares.steer;
        let handling_ms = cold.warm_overhead_ms * shares.handling;
        cold.breakdown.steer_ms = steer_ms;
        cold.breakdown.handling_ms = handling_ms;
        cold.breakdown.payload_get_ms = payload_get_ms;
        cold.breakdown.exec_ms = exec_ms;
        if let Some(started) = wait_started {
            cold.breakdown.queue_wait_ms = (now - started).as_millis();
        }
        cold.breakdown.cold = cold_breakdown;

        // Record the transfer sample at the instant the payload is in the
        // consumer's hands (paper §V methodology). A fired join records
        // one sample per counted inbound edge instead of its aggregate
        // `xfer_in` (which only drives the cost model above).
        if let Some(meta) = self.join_meta.get(&rid.packed()) {
            let received = now + SimTime::from_millis(steer_ms + handling_ms + payload_get_ms);
            for edge in &meta.edges {
                self.transfers.push(TransferSample {
                    parent: edge.parent,
                    parent_tag: edge.parent_tag,
                    mode: edge.mode,
                    payload_bytes: edge.payload_bytes,
                    send_start: edge.send_start,
                    received,
                });
            }
        } else if let Some(x) = xfer {
            let received = now + SimTime::from_millis(steer_ms + handling_ms + payload_get_ms);
            self.transfers.push(TransferSample {
                parent: x.parent,
                parent_tag: x.parent_tag,
                mode: x.mode,
                payload_bytes: x.payload_bytes,
                send_start: x.send_start,
                received,
            });
        }

        if self.trace.is_some() {
            if let Some(started) = self.hot(rid).wait_started {
                self.emit_span(rid, span_tag::QUEUE_WAIT, started, now);
            }
            let t1 = now + SimTime::from_millis(steer_ms);
            let t2 = now + SimTime::from_millis(steer_ms + handling_ms);
            let t3 = now + SimTime::from_millis(steer_ms + handling_ms + payload_get_ms);
            let t4 = now + SimTime::from_millis(steer_ms + handling_ms + payload_get_ms + exec_ms);
            self.emit_span(rid, span_tag::STEER, now, t1);
            self.emit_span(rid, span_tag::HANDLING, t1, t2);
            if payload_get_ms > 0.0 {
                self.emit_span(rid, span_tag::PAYLOAD_GET, t2, t3);
            }
            self.emit_span(rid, span_tag::EXECUTION, t3, t4);
        }

        let compute_at =
            now + SimTime::from_millis(steer_ms + handling_ms + payload_get_ms + exec_ms);
        sched.schedule_at(compute_at, CloudEvent::ComputeDone(rid, iid));
    }

    fn on_compute_done(
        &mut self,
        now: SimTime,
        rid: RequestId,
        iid: InstanceId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        if self.hot(rid).cancelled() {
            // Cancelled mid-execution: the cancel already freed the
            // instance; this stale event retires the slot. No chain hop
            // is spawned for a dead request.
            self.free_cancelled(rid);
            return;
        }
        let fid = self.hot(rid).function;
        let chain = self.fstate(fid).spec.chain;
        // Whether this function forks DAG out-edges after execution.
        // `dag_node` is `None` for every plain deployment, so DAG-free
        // runs take the exact legacy control flow.
        let dag_forks = chain.is_none()
            && self.fstate(fid).dag_node.is_some_and(|(dag, node)| {
                !self.dags[dag as usize].nodes[node as usize].out.is_empty()
            });
        // Mid-execution instance crash: the instance dies at the end of
        // user compute, the finished work is wasted, and the client gets
        // a 500. Injected only into chainless external executions —
        // crashing a producer mid-chain (or mid-fork) would orphan its
        // hops.
        if chain.is_none() && !dag_forks {
            if let Some(plan) = self.fault_plan.take() {
                let roll = plan.crash_p > 0.0
                    && self.cold(rid).origin.is_external()
                    && self.rng_faults.bernoulli(plan.crash_p);
                self.fault_plan = Some(plan);
                if roll {
                    self.crash_instance(now, rid, iid, sched);
                    return;
                }
            }
        }
        match chain {
            Some(chain) => {
                // Producer side of a chain hop (step ⑨): PUT (for storage
                // transfers), then invoke the consumer and wait for it.
                let chain_span = self.trace.as_mut().map(Tracer::alloc_id);
                let cold = self.cold_mut(rid);
                cold.chain_started = Some(now);
                cold.chain_span = chain_span;
                let tag = cold.tag;
                self.metrics.inc(metric::CHAIN_INVOCATIONS);
                let child_issue_at = match chain.mode {
                    TransferMode::Inline => now,
                    TransferMode::Storage => {
                        let put_ms = self.payload_store.put_ms(chain.payload_bytes);
                        now + SimTime::from_millis(put_ms)
                    }
                };
                let child = self.create_request(
                    chain.next,
                    RequestOrigin::Internal { parent: rid },
                    tag,
                    child_issue_at,
                    Some(XferInfo {
                        mode: chain.mode,
                        payload_bytes: chain.payload_bytes,
                        send_start: now,
                        parent: rid,
                        parent_tag: tag,
                    }),
                );
                self.stats.internal += 1;
                // Propagate the workflow root through compiled linear
                // segments so a downstream fork or join arrival keys the
                // right barrier. Pure bookkeeping: no draws, no events,
                // so legacy chain runs stay byte-identical.
                let root = self.wf_root_of(rid);
                self.cold_mut(child).wf_root = Some(root);
                self.cold_mut(rid).chain_child = Some(child);
                sched.schedule_at(child_issue_at, CloudEvent::FrontendArrive(child));
                // The producer instance stays busy until the child returns.
            }
            None if dag_forks => {
                let (dag, node) = self.fstate(fid).dag_node.expect("dag_forks checked");
                self.dag_fork(now, rid, dag, node, sched);
            }
            None => {
                sched.schedule_at(now, CloudEvent::ExecDone(rid, iid));
            }
        }
    }

    /// Producer side of a DAG fan-out (the multi-successor analogue of
    /// the chain arm above): one obligation per out-edge — a direct child
    /// request for plain successors, a [`CloudEvent::JoinArrive`] for
    /// fan-in successors — with the producer's instance held busy until
    /// every obligation resolves.
    fn dag_fork(
        &mut self,
        now: SimTime,
        rid: RequestId,
        dag: u32,
        node: u32,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        // Take the edge table out of `self` so edge payloads can be
        // sampled while spawning (the fault-plan take/restore idiom).
        let dags = std::mem::take(&mut self.dags);
        let edges = &dags[dag as usize].nodes[node as usize].out;
        let chain_span = self.trace.as_mut().map(Tracer::alloc_id);
        let tag = {
            let cold = self.cold_mut(rid);
            cold.chain_started = Some(now);
            cold.chain_span = chain_span;
            cold.dag_pending = edges.len() as u32;
            cold.tag
        };
        let root = self.wf_root_of(rid);
        let inline_cap = self.cfg.network.max_inline_payload;
        for edge in edges {
            let mut payload_bytes = edge.payload.sample(&mut self.rng_dag).round().max(1.0) as u64;
            if edge.mode == TransferMode::Inline {
                payload_bytes = payload_bytes.min(inline_cap);
            }
            let issue_at = match edge.mode {
                TransferMode::Inline => now,
                TransferMode::Storage => {
                    let put_ms = self.payload_store.put_ms(payload_bytes);
                    now + SimTime::from_millis(put_ms)
                }
            };
            self.metrics.inc(metric::DAG_INVOCATIONS);
            match edge.join {
                None => {
                    let child = self.create_request(
                        edge.target,
                        RequestOrigin::Internal { parent: rid },
                        tag,
                        issue_at,
                        Some(XferInfo {
                            mode: edge.mode,
                            payload_bytes,
                            send_start: now,
                            parent: rid,
                            parent_tag: tag,
                        }),
                    );
                    self.stats.internal += 1;
                    self.dag_counters.entry(edge.target.0).or_default().spawned += 1;
                    {
                        let hot = self.hot_mut(child);
                        hot.set_dag_spawn();
                    }
                    self.cold_mut(child).wf_root = Some(root);
                    self.dag_children.entry(rid.packed()).or_default().push(child);
                    sched.schedule_at(issue_at, CloudEvent::FrontendArrive(child));
                }
                Some((needed, total)) => {
                    self.pending_arrivals.insert(
                        (rid.packed(), edge.target.0),
                        PendingArrival {
                            mode: edge.mode,
                            payload_bytes,
                            send_start: now,
                            needed,
                            total,
                        },
                    );
                    sched.schedule_at(issue_at, CloudEvent::JoinArrive(rid, edge.target));
                }
            }
        }
        self.dags = dags;
    }

    /// A branch reaches a join barrier. Counted arrivals accumulate until
    /// the k-th fires the barrier, spawning the join request; later
    /// arrivals are stragglers whose producers resume immediately.
    fn on_join_arrive(
        &mut self,
        now: SimTime,
        parent: RequestId,
        jfid: FunctionId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        let Some(pending) = self.pending_arrivals.remove(&(parent.packed(), jfid.0)) else {
            // The producer's slot was already torn down (its workflow was
            // cancelled and freed before this event fired).
            return;
        };
        if !self.is_live(parent) {
            return;
        }
        if self.hot(parent).cancelled() {
            self.free_cancelled(parent);
            return;
        }
        let root = self.wf_root_of(parent);
        let issued_at = self.hot(parent).issued_at;
        let parent_tag = self.cold(parent).tag;
        let branch_ms = (now - issued_at).as_millis();
        self.join_accums.entry(jfid.0).or_default().branch_ms.push(branch_ms);

        let key = (root.packed(), jfid.0);
        let barrier = self.join_barriers.entry(key).or_insert(JoinBarrier {
            needed: pending.needed,
            total: pending.total,
            arrived: 0,
            fired: false,
            min_issue: issued_at,
            arrivals: Vec::new(),
        });
        barrier.arrived += 1;
        if barrier.fired {
            // Straggler: the barrier fired without this branch; its
            // producer's obligation resolves right here instead of at the
            // join round trip.
            let done = barrier.arrived == barrier.total;
            if done {
                self.join_barriers.remove(&key);
            }
            let accum = self.join_accums.entry(jfid.0).or_default();
            accum.stragglers += 1;
            self.metrics.inc(metric::JOIN_STRAGGLERS);
            self.resolve_dag_obligation(now, parent, sched);
            return;
        }
        barrier.min_issue = barrier.min_issue.min(issued_at);
        barrier.arrivals.push(JoinArrival {
            parent,
            mode: pending.mode,
            payload_bytes: pending.payload_bytes,
            send_start: pending.send_start,
            parent_tag,
        });
        if barrier.arrived < barrier.needed {
            return;
        }
        // Fire: exactly once per (workflow, join) — the `fired` flag
        // turns every later arrival into a straggler.
        debug_assert!(!barrier.fired, "join barrier fired twice");
        barrier.fired = true;
        let min_issue = barrier.min_issue;
        let arrivals = std::mem::take(&mut barrier.arrivals);
        if barrier.arrived == barrier.total {
            self.join_barriers.remove(&key);
        }
        {
            let accum = self.join_accums.entry(jfid.0).or_default();
            accum.join_ms.push((now - min_issue).as_millis());
            accum.fired += 1;
        }
        self.metrics.inc(metric::JOINS_FIRED);

        // The join request aggregates its inbound payloads: storage mode
        // if any edge used storage, total bytes across counted edges. The
        // aggregate drives the consumer-side cost model; per-edge
        // transfer samples are recorded at assignment from the meta
        // table.
        let firing = arrivals.last().expect("barrier fired with no arrivals").parent;
        let agg_mode = if arrivals.iter().any(|a| a.mode == TransferMode::Storage) {
            TransferMode::Storage
        } else {
            TransferMode::Inline
        };
        let agg_bytes = arrivals.iter().map(|a| a.payload_bytes).sum();
        let send_start = arrivals.iter().map(|a| a.send_start).min().expect("non-empty");
        let tag = self.cold(firing).tag;
        let jrid = self.create_request(
            jfid,
            RequestOrigin::Internal { parent: firing },
            tag,
            now,
            Some(XferInfo {
                mode: agg_mode,
                payload_bytes: agg_bytes,
                send_start,
                parent: firing,
                parent_tag: tag,
            }),
        );
        self.stats.internal += 1;
        self.dag_counters.entry(jfid.0).or_default().spawned += 1;
        self.hot_mut(jrid).set_dag_spawn();
        self.cold_mut(jrid).wf_root = Some(root);
        self.dag_children.entry(firing.packed()).or_default().push(jrid);
        self.join_meta.insert(
            jrid.packed(),
            JoinMeta { parents: arrivals.iter().map(|a| a.parent).collect(), edges: arrivals },
        );
        sched.schedule_at(now, CloudEvent::FrontendArrive(jrid));
    }

    /// Resolves one DAG obligation of `parent`; when the last one drains
    /// the producer's chain wait ends and its instance moves on to the
    /// response path (the fan-out analogue of the chain resume in
    /// `on_completed`).
    fn resolve_dag_obligation(
        &mut self,
        now: SimTime,
        parent: RequestId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        let remaining = {
            let cold = self.cold_mut(parent);
            debug_assert!(cold.dag_pending > 0, "resolving with no pending obligations");
            cold.dag_pending -= 1;
            cold.dag_pending
        };
        if remaining > 0 {
            return;
        }
        let chain_started = self.cold(parent).chain_started.expect("fork without a start time");
        self.cold_mut(parent).breakdown.chain_ms = (now - chain_started).as_millis();
        self.dag_children.remove(&parent.packed());
        if let Some(chain_id) = self.cold(parent).chain_span {
            let producer_root = self.cold(parent).root_span;
            if let Some(tracer) = self.trace.as_mut() {
                tracer.emit(SpanRecord {
                    span_id: chain_id,
                    parent: producer_root,
                    request: parent.packed(),
                    component: span_tag::CHAIN,
                    start: chain_started,
                    end: now,
                });
            }
        }
        let pinst = self.hot(parent).instance.expect("forking producer without instance");
        sched.schedule_at(now, CloudEvent::ExecDone(parent, pinst));
    }

    fn on_exec_done(
        &mut self,
        now: SimTime,
        rid: RequestId,
        iid: InstanceId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        if self.hot(rid).cancelled() {
            // Cancelled between compute finishing and the response
            // leaving: the cancel already released the instance.
            self.free_cancelled(rid);
            return;
        }
        let fid = iid.function();
        {
            let state = self.fstate_mut(fid);
            state.instances[iid.idx as usize].release(rid, now);
            state.usage.on_release(iid.idx as usize, now);
            state.n_busy -= 1;
            state.n_idle += 1;
            state.loads.sub(iid.idx as usize, 1);
            state.idle_stack.push(iid.idx);
        }

        let is_external = self.cold(rid).origin.is_external();
        let response_ms = self.cold(rid).warm_overhead_ms * self.cfg.warm_path.shares.response;
        let mut prop_back_ms = if is_external {
            self.cfg.network.prop_delay_ms.sample(&mut self.rng_net)
        } else {
            0.0
        };
        // Network brownout: inflate the return propagation when the
        // response is sampled inside an inflation window. Pure multiplier
        // on the baseline draw — no extra randomness consumed.
        if let Some(plan) = &self.fault_plan {
            prop_back_ms *= plan.inflation_factor((now - SimTime::ZERO).as_millis());
        }
        {
            let breakdown = &mut self.cold_mut(rid).breakdown;
            breakdown.response_ms = response_ms;
            breakdown.prop_back_ms = prop_back_ms;
        }
        if self.trace.is_some() {
            let r1 = now + SimTime::from_millis(response_ms);
            let r2 = now + SimTime::from_millis(response_ms + prop_back_ms);
            self.emit_span(rid, span_tag::RESPONSE, now, r1);
            if is_external {
                self.emit_span(rid, span_tag::PROPAGATION, r1, r2);
            }
        }
        sched.schedule_in(
            now,
            SimTime::from_millis(response_ms + prop_back_ms),
            CloudEvent::Completed(rid),
        );

        // The instance is free: serve more work or schedule a reap.
        if self.committed_cap(fid).is_some() {
            if !self.serve_committed(now, iid, sched) {
                self.maybe_schedule_reap(now, iid, sched);
            }
        } else {
            self.serve_queue(now, fid, sched);
            self.maybe_schedule_reap(now, iid, sched);
        }
    }

    fn on_completed(&mut self, now: SimTime, rid: RequestId, sched: &mut Scheduler<CloudEvent>) {
        if self.hot(rid).cancelled() {
            // A response for a cancelled request arrives dead: no
            // completion is recorded (the wasted work was booked at
            // cancel time) and the slot is retired.
            self.free_cancelled(rid);
            return;
        }
        {
            let hot = self.hot_mut(rid);
            assert!(!hot.done(), "request {rid} completed twice");
            hot.set_done();
        }
        let origin = self.cold(rid).origin;
        match origin {
            RequestOrigin::External => {
                self.stats.completed += 1;
                self.metrics.inc(metric::REQUESTS_COMPLETED);
                self.emit_root_span(rid, now, None);
                // The request is finished: copy both halves of its state
                // out and recycle the slot.
                let (hot, cold) = self.requests.free(rid);
                // Terminal-bucket accounting, once per request: a
                // submitted request is exactly one of shed / failed /
                // completed (cancels are booked at cancel time).
                if self.fault_plan.is_some() {
                    if hot.shed() {
                        self.fault_stats.shed += 1;
                    } else if cold.error.is_some() {
                        self.fault_stats.failed += 1;
                    } else {
                        self.fault_stats.completed += 1;
                    }
                }
                let completion = Completion {
                    id: rid,
                    function: hot.function,
                    tag: cold.tag,
                    origin,
                    issued_at: hot.issued_at,
                    completed_at: now,
                    cold: hot.cold_start(),
                    breakdown: cold.breakdown,
                    error: cold.error,
                };
                if self.record_roots {
                    self.internal_completions.push(completion.clone());
                }
                self.completions.push(completion);
            }
            RequestOrigin::Internal { parent } => {
                if let Some(meta) = self.join_meta.remove(&rid.packed()) {
                    // A fired join's round trip is over: resume every
                    // branch producer that was counted into the barrier.
                    let chain_span = self.cold(parent).chain_span;
                    self.emit_root_span(rid, now, chain_span);
                    self.record_internal_completion(rid, now);
                    self.dag_counters.entry(self.hot(rid).function.0).or_default().completed += 1;
                    self.requests.free(rid);
                    for p in meta.parents {
                        self.resolve_dag_obligation(now, p, sched);
                    }
                } else if self.cold(parent).chain_child == Some(rid) {
                    // Resume the producer: its chain round-trip is over.
                    let pinst = self.hot(parent).instance.expect("parent without instance");
                    let chain_started =
                        self.cold(parent).chain_started.expect("parent without chain start");
                    {
                        let pcold = self.cold_mut(parent);
                        pcold.breakdown.chain_ms = (now - chain_started).as_millis();
                        pcold.chain_child = None;
                    }
                    let chain_span = self.cold(parent).chain_span;
                    if let Some(chain_id) = chain_span {
                        let producer_root = self.cold(parent).root_span;
                        if let Some(tracer) = self.trace.as_mut() {
                            tracer.emit(SpanRecord {
                                span_id: chain_id,
                                parent: producer_root,
                                request: parent.packed(),
                                component: span_tag::CHAIN,
                                start: chain_started,
                                end: now,
                            });
                        }
                    }
                    self.emit_root_span(rid, now, chain_span);
                    self.record_internal_completion(rid, now);
                    self.requests.free(rid);
                    sched.schedule_at(now, CloudEvent::ExecDone(parent, pinst));
                } else {
                    // A direct DAG fan-out child: one obligation of its
                    // forking producer resolves.
                    let chain_span = self.cold(parent).chain_span;
                    self.emit_root_span(rid, now, chain_span);
                    self.record_internal_completion(rid, now);
                    self.dag_counters.entry(self.hot(rid).function.0).or_default().completed += 1;
                    self.requests.free(rid);
                    self.resolve_dag_obligation(now, parent, sched);
                }
            }
        }
    }

    /// Records an internal completion when per-stage recording is on.
    /// Call before freeing the slot; recording draws no randomness and
    /// schedules no events, so enabling it cannot perturb results.
    fn record_internal_completion(&mut self, rid: RequestId, now: SimTime) {
        if !self.record_internal {
            return;
        }
        let hot = *self.hot(rid);
        let cold = *self.cold(rid);
        self.internal_completions.push(Completion {
            id: rid,
            function: hot.function,
            tag: cold.tag,
            origin: cold.origin,
            issued_at: hot.issued_at,
            completed_at: now,
            cold: hot.cold_start(),
            breakdown: cold.breakdown,
            error: cold.error,
        });
    }

    fn maybe_schedule_reap(
        &mut self,
        now: SimTime,
        iid: InstanceId,
        sched: &mut Scheduler<CloudEvent>,
    ) {
        let inst = &self.fstate(iid.function()).instances[iid.idx as usize];
        if inst.is_idle() {
            let epoch = inst.epoch();
            let timeout = self.cfg.keepalive.idle_timeout_ms.sample(&mut self.rng_cold);
            sched.schedule_in(
                now,
                SimTime::from_millis(timeout),
                CloudEvent::ReapCheck(iid, epoch),
            );
        }
    }

    fn on_reap_check(&mut self, now: SimTime, iid: InstanceId, epoch: u64) {
        let state = self.fstate_mut(iid.function());
        if state.instances[iid.idx as usize].try_reap(epoch) {
            state.loads.unlive(iid.idx as usize);
            state.usage.on_reap(iid.idx as usize, now);
            state.n_idle -= 1;
            self.stats.reaps += 1;
        }
    }
}

impl Cloud {
    fn on_telemetry_tick(&mut self, now: SimTime, sched: &mut Scheduler<CloudEvent>) {
        let Some(recorder) = &mut self.timeline else { return };
        for (i, state) in self.functions.iter().enumerate() {
            let queued = state.queue.len() as u32 + state.committed_total;
            recorder.samples.push(TimelineSample {
                at: now,
                function: FunctionId(i as u32),
                idle: state.n_idle,
                busy: state.n_busy,
                booting: state.n_booting,
                queued,
            });
            self.metrics.gauge(now, metric::QUEUE_DEPTH, i as u64, f64::from(queued));
            self.metrics.gauge(
                now,
                metric::INSTANCES_LIVE,
                i as u64,
                f64::from(state.n_idle + state.n_busy),
            );
            self.metrics.gauge(
                now,
                metric::INSTANCES_BOOTING,
                i as u64,
                f64::from(state.n_booting),
            );
        }
        // Keep ticking only while other work is pending, so runs that
        // drain to idle still terminate.
        if !sched.is_empty() {
            let interval = recorder.interval;
            sched.schedule_in(now, interval, CloudEvent::TelemetryTick);
        }
    }
}

/// Exact p99 by sorting: the straggler accumulators hold every sample, so
/// no sketch is needed (and the exactness keeps the bench pins stable).
fn exact_p99(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    let idx = ((sorted.len() as f64) * 0.99).ceil() as usize;
    sorted[idx.saturating_sub(1).min(sorted.len() - 1)]
}

impl Model for Cloud {
    type Event = CloudEvent;

    fn handle(&mut self, now: SimTime, event: CloudEvent, sched: &mut Scheduler<CloudEvent>) {
        match event {
            CloudEvent::FrontendArrive(rid) => self.on_frontend_arrive(now, rid, sched),
            CloudEvent::RoutingDone(rid) => self.on_routing_done(now, rid, sched),
            CloudEvent::Enqueued(rid) => self.on_enqueued(now, rid, sched),
            CloudEvent::BootComplete(iid) => self.on_boot_complete(now, iid, sched),
            CloudEvent::ComputeDone(rid, iid) => self.on_compute_done(now, rid, iid, sched),
            CloudEvent::ExecDone(rid, iid) => self.on_exec_done(now, rid, iid, sched),
            CloudEvent::Completed(rid) => self.on_completed(now, rid, sched),
            CloudEvent::Cancel(rid) => self.on_cancel(now, rid, sched),
            CloudEvent::ReapCheck(iid, epoch) => self.on_reap_check(now, iid, epoch),
            CloudEvent::ScaleTick(fid) => self.on_scale_tick(now, fid, sched),
            CloudEvent::TelemetryTick => self.on_telemetry_tick(now, sched),
            CloudEvent::FaultStorm => self.on_fault_storm(now, sched),
            CloudEvent::JoinArrive(rid, fid) => self.on_join_arrive(now, rid, fid, sched),
        }
    }
}

/// A running serverless cloud: the public façade over [`Cloud`] plus its
/// event queue.
///
/// # Examples
///
/// ```
/// use faas_sim::cloud::CloudSim;
/// use faas_sim::spec::FunctionSpec;
/// use faas_sim::testutil::test_provider;
/// use simkit::time::SimTime;
///
/// let mut cloud = CloudSim::new(test_provider(), 42);
/// let f = cloud.deploy(FunctionSpec::builder("hello").build()).unwrap();
/// cloud.submit(f, 0, SimTime::ZERO);
/// cloud.run_until(SimTime::from_secs(10.0));
/// let done = cloud.drain_completions();
/// assert_eq!(done.len(), 1);
/// assert!(done[0].cold, "first request must cold start");
/// ```
#[derive(Debug)]
pub struct CloudSim {
    sim: Simulation<Cloud>,
    /// Reserved sequence numbers for the open submission window (if any):
    /// arrival events scheduled through `submit` consume these so
    /// interleaved submission reproduces an up-front pass's tie-breaking.
    seq_block: Option<SeqBlock>,
}

impl CloudSim {
    /// Creates a cloud for `cfg` with a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: ProviderConfig, seed: u64) -> CloudSim {
        CloudSim { sim: Simulation::new(Cloud::new(cfg, seed)), seq_block: None }
    }

    /// Creates a cloud with an explicit event-queue backend. Results are
    /// bit-identical across backends (see [`simkit::engine::QueueKind`]);
    /// the calendar queue (the default) wins on large pending-event
    /// counts, the binary heap is kept as a comparison baseline.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn with_queue(
        cfg: ProviderConfig,
        seed: u64,
        queue: simkit::engine::QueueKind,
    ) -> CloudSim {
        CloudSim { sim: Simulation::with_queue(Cloud::new(cfg, seed), queue), seq_block: None }
    }

    /// Deploys a function; returns its id for [`CloudSim::submit`] and
    /// chain references.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] for invalid specs, dangling chain targets or
    /// over-limit inline payloads.
    pub fn deploy(&mut self, spec: FunctionSpec) -> Result<FunctionId, DeployError> {
        spec.validate().map_err(DeployError::InvalidSpec)?;
        let cloud = self.sim.model_mut();
        if let Some(chain) = &spec.chain {
            if chain.next.index() >= cloud.functions.len() {
                return Err(DeployError::UnknownChainTarget(chain.next));
            }
            if chain.mode == TransferMode::Inline
                && chain.payload_bytes > cloud.cfg.network.max_inline_payload
            {
                return Err(DeployError::InlinePayloadTooLarge {
                    requested: chain.payload_bytes,
                    limit: cloud.cfg.network.max_inline_payload,
                });
            }
        }
        let image_mb = cloud.cfg.runtimes.model(spec.runtime).base_image_mb + spec.extra_image_mb;
        let fid = FunctionId(cloud.functions.len() as u32);
        // Expected per-request service time: median execution plus the
        // in-instance shares of the warm overhead. Feeds load-dependent
        // commit caps (`CostAware`); everything it reads is fixed for the
        // function's lifetime, so the cap is computed once here.
        let service_estimate_ms = spec.exec_ms.median_exact().unwrap_or(0.0)
            + cloud.cfg.warm_path.overhead_ms.median_exact().unwrap_or(10.0)
                * (cloud.cfg.warm_path.shares.steer + cloud.cfg.warm_path.shares.handling);
        let function_commit_cap = commit_cap(&cloud.cfg.scaling.policy, service_estimate_ms);
        // Room for a handful of instances up front; a function that
        // scales out further grows its bookkeeping geometrically. Fleets
        // deploy thousands of functions, most of which never run more
        // than a few instances, so reserving a scale-out burst's worth
        // for every function would dominate their memory footprint.
        let cap = cloud.cfg.limits.max_instances_per_function.min(4) as usize;
        cloud.functions.push(FunctionState {
            spec,
            instances: Vec::with_capacity(cap),
            queue: FifoQueue::new(),
            committed: Vec::with_capacity(cap),
            committed_total: 0,
            idle_stack: Vec::with_capacity(cap),
            loads: LoadIndex::default(),
            n_idle: 0,
            n_busy: 0,
            n_booting: 0,
            scale_tick_armed: false,
            commit_cap: function_commit_cap,
            image_mb,
            usage: UsageTracker::default(),
            dag_node: None,
        });
        Ok(fid)
    }

    /// Deploys a compiled workflow: one function per plan node (named
    /// `{workflow}/{node}`), wired for fan-out/fan-in execution.
    ///
    /// Linear segments — a single out-edge into an in-degree-1 node with
    /// a constant payload — are lowered onto the legacy `ChainSpec` hot
    /// path, so a fully linear plan runs byte-identical to the same
    /// functions deployed with [`crate::spec::FunctionSpecBuilder::chain`].
    /// All other
    /// edges are installed in the DAG runtime table: the producer forks
    /// one obligation per edge at compute-done and stays busy until every
    /// obligation resolves (downstream completion, or the k-th arrival
    /// firing a join barrier).
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::InlinePayloadTooLarge`] when a constant
    /// inline edge payload exceeds the provider cap (sampled payloads are
    /// clamped to the cap at fork time instead), or any error from the
    /// per-node [`CloudSim::deploy`] calls.
    pub fn deploy_dag(&mut self, plan: &DagPlan) -> Result<DagDeployment, DeployError> {
        // Check every constant inline payload up front so a failed deploy
        // never leaves a partially-installed workflow behind.
        let limit = self.sim.model().cfg.network.max_inline_payload;
        for node in &plan.nodes {
            for e in &node.out {
                if e.mode == TransferMode::Inline {
                    if let Some(bytes) = e.constant_payload() {
                        if bytes > limit {
                            return Err(DeployError::InlinePayloadTooLarge {
                                requested: bytes,
                                limit,
                            });
                        }
                    }
                }
            }
        }
        // A node's only out-edge compiles onto the legacy chain path when
        // the target cannot be a barrier and the payload needs no draw.
        let chain_target = |i: usize| -> Option<usize> {
            let node = &plan.nodes[i];
            if node.out.len() != 1 {
                return None;
            }
            let e = &node.out[0];
            if plan.nodes[e.to].in_degree != 1 {
                return None;
            }
            e.constant_payload().map(|_| e.to)
        };
        // Deploy in reverse topological order so every chain target
        // already exists when its producer's spec is validated.
        let mut fids: Vec<FunctionId> = vec![FunctionId(u32::MAX); plan.nodes.len()];
        for &i in plan.topo.iter().rev() {
            let node = &plan.nodes[i];
            let mut builder = FunctionSpec::builder(format!("{}/{}", plan.name, node.name))
                .runtime(node.runtime)
                .deployment(node.deployment)
                .memory_mb(node.memory_mb)
                .extra_image_mb(node.extra_image_mb)
                .exec_ms(node.exec_ms.clone());
            if let Some(to) = chain_target(i) {
                let e = &node.out[0];
                let bytes = e.constant_payload().expect("chain_target checked constant");
                builder = builder.chain(fids[to], e.mode, bytes);
            }
            fids[i] = self.deploy(builder.build())?;
        }
        let nodes = plan
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let out = if chain_target(i).is_some() {
                    Vec::new()
                } else {
                    node.out
                        .iter()
                        .map(|e| {
                            let tgt = &plan.nodes[e.to];
                            RuntimeEdge {
                                target: fids[e.to],
                                mode: e.mode,
                                payload: e.payload.clone(),
                                join: tgt.is_join().then_some((tgt.join_k, tgt.in_degree)),
                            }
                        })
                        .collect()
                };
                RuntimeNode { out }
            })
            .collect();
        let cloud = self.sim.model_mut();
        let dag_idx = cloud.dags.len() as u32;
        cloud.dags.push(InstalledDag { nodes });
        for (i, &fid) in fids.iter().enumerate() {
            cloud.functions[fid.index()].dag_node = Some((dag_idx, i as u32));
        }
        Ok(DagDeployment { root: fids[plan.root], functions: fids })
    }

    /// Straggler-amplification statistics per join function, over every
    /// barrier firing so far. Empty when no workflow with a join ran.
    pub fn dag_join_stats(&self) -> Vec<JoinStats> {
        let cloud = self.sim.model();
        cloud
            .join_accums
            .iter()
            .map(|(&fid, acc)| {
                let branch_p99_ms = exact_p99(&acc.branch_ms);
                let join_p99_ms = exact_p99(&acc.join_ms);
                JoinStats {
                    function: FunctionId(fid),
                    fired: acc.fired,
                    stragglers: acc.stragglers,
                    branch_samples: acc.branch_ms.len() as u64,
                    branch_p99_ms,
                    join_p99_ms,
                    amplification: if branch_p99_ms > 0.0 {
                        join_p99_ms / branch_p99_ms
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }

    /// Per-function conservation counters for DAG-engine-spawned requests
    /// (fan-out children and fired joins). Every spawned request must end
    /// up completed or cancelled by the time the run drains.
    pub fn dag_node_counters(&self) -> Vec<(FunctionId, DagNodeCounters)> {
        self.sim.model().dag_counters.iter().map(|(&f, &c)| (FunctionId(f), c)).collect()
    }

    /// Enables recording of *internal* completions (chain hops, fan-out
    /// children, fired joins) for per-stage reporting. Off by default:
    /// the main completion stream stays external-only either way, and
    /// recording draws no randomness, so toggling this cannot change
    /// simulation results.
    pub fn record_internal_completions(&mut self, on: bool) {
        self.sim.model_mut().record_internal = on;
    }

    /// Enables copying *external* completions into the internal-completion
    /// buffer too, so per-stage reports can read the root stage when the
    /// client streams its samples into sketches instead of retaining
    /// them. Off by default; observational like internal recording.
    pub fn record_root_completions(&mut self, on: bool) {
        self.sim.model_mut().record_roots = on;
    }

    /// Drains internal completions recorded since the last drain (see
    /// [`CloudSim::record_internal_completions`] and
    /// [`CloudSim::record_root_completions`]).
    pub fn drain_internal_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.sim.model_mut().internal_completions)
    }

    /// Whether every DAG side table has drained — true at idle for any
    /// run in which all workflows finished or were cancelled. Leak check
    /// for the invariant tests.
    pub fn dag_tables_empty(&self) -> bool {
        let cloud = self.sim.model();
        cloud.join_barriers.is_empty()
            && cloud.join_meta.is_empty()
            && cloud.dag_children.is_empty()
            && cloud.pending_arrivals.is_empty()
    }

    /// Submits an external invocation of `function` issued at `at`,
    /// tagged with a caller-chosen `tag`. Returns the request id.
    ///
    /// # Panics
    ///
    /// Panics if `function` was not deployed or `at` is in the simulated
    /// past.
    pub fn submit(&mut self, function: FunctionId, tag: u64, at: SimTime) -> RequestId {
        assert!(
            function.index() < self.sim.model().functions.len(),
            "submit to unknown function {function}"
        );
        let cloud = self.sim.model_mut();
        cloud.stats.submitted += 1;
        cloud.metrics.inc(metric::REQUESTS_SUBMITTED);
        if cloud.fault_plan.is_some() {
            cloud.fault_stats.submitted += 1;
        }
        let mut prop_ms = match &mut cloud.submission_rng {
            Some(rng) => cloud.cfg.network.prop_delay_ms.sample(rng),
            None => cloud.cfg.network.prop_delay_ms.sample(&mut cloud.rng_net),
        };
        if let Some(plan) = &cloud.fault_plan {
            prop_ms *= plan.inflation_factor((at - SimTime::ZERO).as_millis());
        }
        let rid = cloud.create_request(function, RequestOrigin::External, tag, at, None);
        cloud.cold_mut(rid).breakdown.prop_out_ms = prop_ms;
        cloud.emit_span(rid, span_tag::PROPAGATION, at, at + SimTime::from_millis(prop_ms));
        let arrive_at = at + SimTime::from_millis(prop_ms);
        match self.seq_block.as_mut() {
            Some(block) => {
                self.sim.schedule_at_with_seq(
                    arrive_at,
                    block.take(),
                    CloudEvent::FrontendArrive(rid),
                );
            }
            None => self.sim.schedule_at(arrive_at, CloudEvent::FrontendArrive(rid)),
        }
        rid
    }

    /// Opens a *submission window* for `expected` upcoming external
    /// submissions that will be interleaved with event processing (the
    /// streaming workload driver's shape).
    ///
    /// Two sources of divergence from an up-front submission pass are
    /// neutralized so an interleaved run stays bit-identical to it:
    ///
    /// 1. **RNG order** — `submit` draws a propagation delay from
    ///    `rng_net`. Up-front submission performs all those draws before
    ///    any event handler touches the stream; interleaved submission
    ///    would mingle them with the handlers' draws. The window clones
    ///    the stream for submissions and fast-forwards the live one past
    ///    the `expected` draws.
    /// 2. **Tie-breaking** — events scheduled at equal timestamps pop in
    ///    schedule order (sequence numbers). The window reserves a block
    ///    of `expected` sequence numbers up front; each `submit` consumes
    ///    the next one, stamping arrivals exactly as an up-front pass
    ///    would have.
    ///
    /// Submitting more than `expected` requests while the window is open
    /// panics; submitting fewer is fine (finite arrival schedules), the
    /// leftover draws and sequence numbers are simply abandoned at
    /// [`CloudSim::close_submission_window`].
    ///
    /// # Panics
    ///
    /// Panics if a window is already open.
    pub fn open_submission_window(&mut self, expected: usize) {
        let cloud = self.sim.model_mut();
        assert!(cloud.submission_rng.is_none(), "submission window already open");
        let window = cloud.rng_net.clone();
        for _ in 0..expected {
            let _ = cloud.cfg.network.prop_delay_ms.sample(&mut cloud.rng_net);
        }
        cloud.submission_rng = Some(window);
        self.seq_block = Some(self.sim.reserve_seq_block(expected as u64));
    }

    /// Closes the submission window opened by
    /// [`CloudSim::open_submission_window`]; `submit` reverts to drawing
    /// from the live network stream. Idempotent.
    pub fn close_submission_window(&mut self) {
        self.sim.model_mut().submission_rng = None;
        self.seq_block = None;
    }

    /// Advances the simulation until `horizon` (inclusive).
    pub fn run_until(&mut self, horizon: SimTime) {
        self.sim.run_until(horizon);
    }

    /// Runs the simulation until no events remain.
    ///
    /// Note: keep-alive reap checks count as events, so this runs past the
    /// last idle timeout.
    pub fn run_to_idle(&mut self) {
        self.sim.run();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Removes and returns finished external completions.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.sim.model_mut().completions)
    }

    /// Moves finished external completions into `out`, preserving order.
    /// Unlike [`CloudSim::drain_completions`] this allocates nothing: the
    /// caller's buffer is reused across rounds (its capacity survives a
    /// `clear`), which is what the workload driver's drain loop wants.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.sim.model_mut().completions);
    }

    /// Removes and returns recorded cross-function transfer samples.
    pub fn drain_transfers(&mut self) -> Vec<TransferSample> {
        std::mem::take(&mut self.sim.model_mut().transfers)
    }

    /// Moves recorded transfer samples into `out`, preserving order; the
    /// allocation-free counterpart of [`CloudSim::drain_transfers`].
    pub fn drain_transfers_into(&mut self, out: &mut Vec<TransferSample>) {
        out.append(&mut self.sim.model_mut().transfers);
    }

    /// Pre-sizes hot-path buffers for a workload of `expected` external
    /// requests: the request table, the completion buffer, and the event
    /// heap (every pending external arrival occupies a heap slot until it
    /// is dispatched, so a submitted-up-front workload peaks near
    /// `expected` pending events).
    pub fn reserve_requests(&mut self, expected: usize) {
        self.reserve_submissions(expected);
        self.sim.model_mut().completions.reserve(expected);
    }

    /// Announces `expected` upcoming submissions to the event queue
    /// *without* pre-sizing the request slab or completion buffer — the
    /// sizing hint streaming drivers want. Besides reserving capacity,
    /// the hint lets the adaptive backend promote to the calendar queue
    /// once, up front, instead of re-discovering the backlog at the
    /// promotion threshold mid-run.
    pub fn reserve_event_hint(&mut self, expected: usize) {
        self.sim.reserve_events(expected + expected / 4);
    }

    /// Like [`CloudSim::reserve_requests`] but without pre-sizing the
    /// completion buffer — for streaming drivers that drain completions in
    /// bounded slices, where the buffer never holds more than one slice's
    /// worth and reserving `expected` would itself be the O(n) allocation
    /// the driver is avoiding.
    pub fn reserve_submissions(&mut self, expected: usize) {
        let cloud = self.sim.model_mut();
        cloud.requests.reserve(expected);
        self.sim.reserve_events(expected + expected / 4);
    }

    /// Requests cancellation of an in-flight external request. The
    /// cancel takes effect at the next event boundary of the current
    /// simulated time: an executing attempt frees its instance there, a
    /// queued one is dropped when an instance would have picked it up,
    /// and an in-flight chain hop is cancelled along with its producer.
    /// Cancelled requests never yield a [`Completion`]; the instance
    /// time they consumed is booked in [`CloudSim::cancel_stats`].
    /// Cancelling an already-completed (or already-cancelled) request is
    /// a no-op, so callers may race cancels against completions freely.
    pub fn cancel(&mut self, rid: RequestId) {
        let now = self.sim.now();
        self.sim.schedule_at(now, CloudEvent::Cancel(rid));
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CloudStats {
        self.sim.model().stats
    }

    /// Wasted-work accounting for cancelled requests (see
    /// [`CloudSim::cancel`]).
    pub fn cancel_stats(&self) -> CancelStats {
        self.sim.model().cancel_stats
    }

    /// Installs a compiled fault schedule. Inert plans (compiled from
    /// [`faults::FaultSpec::none`] or an all-zero composition) are
    /// silently skipped, so a faults-off run stays byte-identical to a
    /// build without this call. Call before submitting work; the plan
    /// applies for the rest of the run.
    pub fn install_faults(&mut self, plan: faults::FaultPlan) {
        if plan.is_inert() {
            return;
        }
        let first_storm = {
            let cloud = self.sim.model_mut();
            let at = plan.storm.map(|s| {
                let gap_ms = -s.mean_gap_ms * cloud.rng_faults.next_f64_open().ln();
                SimTime::from_millis(s.start_ms + gap_ms)
            });
            cloud.fault_plan = Some(plan);
            at
        };
        if let Some(at) = first_storm {
            self.sim.schedule_at(at, CloudEvent::FaultStorm);
        }
    }

    /// Fault-injection and degradation counters (all zero when no fault
    /// plan is installed).
    pub fn fault_stats(&self) -> faults::FaultStats {
        self.sim.model().fault_stats
    }

    /// Whether a (non-inert) fault plan is installed.
    pub fn faults_installed(&self) -> bool {
        self.sim.model().fault_plan.is_some()
    }

    /// Number of live (idle + busy) instances of `function`.
    pub fn live_instances(&self, function: FunctionId) -> u32 {
        let state = &self.sim.model().functions[function.index()];
        state.n_idle + state.n_busy
    }

    /// Enables periodic fleet telemetry: every `interval` the simulator
    /// records one [`TimelineSample`] per deployed function (instances by
    /// state, queued requests). Sampling stops automatically when the
    /// event queue drains.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_timeline(&mut self, interval: SimTime) {
        assert!(!interval.is_zero(), "telemetry interval must be positive");
        let start = self.sim.now() + interval;
        self.sim.model_mut().timeline = Some(TimelineRecorder { interval, samples: Vec::new() });
        self.sim.schedule_at(start, CloudEvent::TelemetryTick);
    }

    /// Telemetry samples recorded so far (empty unless
    /// [`CloudSim::enable_timeline`] was called).
    pub fn timeline(&self) -> &[TimelineSample] {
        self.sim.model().timeline.as_ref().map_or(&[], |recorder| recorder.samples.as_slice())
    }

    /// Resource usage of `function`'s fleet, accounted up to the current
    /// simulated time (Obs 7's cost axis: active-instance seconds and
    /// billed busy time).
    pub fn resource_usage(&self, function: FunctionId) -> ResourceUsage {
        self.sim.model().functions[function.index()].usage.snapshot(self.sim.now())
    }

    /// Image-store statistics (cache hit counters etc.).
    pub fn image_store_stats(&self) -> crate::storage::ImageStoreStats {
        self.sim.model().image_store.stats()
    }

    /// Enables span tracing into a bounded in-memory ring holding the
    /// newest `capacity` spans (see [`RingCollector`]). Call before
    /// submitting work: requests created earlier have no root span and
    /// are not traced.
    ///
    /// Tracing draws no randomness and schedules no events, so enabling
    /// it does not change simulation results.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.set_trace_sink(Box::new(RingCollector::with_capacity(capacity)));
    }

    /// Directs emitted spans into a custom [`TraceSink`].
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sim.model_mut().trace = Some(Tracer::new(sink));
    }

    /// Removes and returns spans buffered by the trace sink. Empty when
    /// tracing is off or the sink forwards spans elsewhere.
    pub fn drain_spans(&mut self) -> Vec<SpanRecord> {
        self.sim.model_mut().trace.as_mut().map_or_else(Vec::new, Tracer::drain)
    }

    /// The metrics registry: always-on lifecycle counters (see [`metric`])
    /// plus gauges sampled on telemetry ticks when
    /// [`CloudSim::enable_timeline`] is active.
    pub fn metrics(&self) -> &Metrics {
        &self.sim.model().metrics
    }

    /// Occupancy counters of the request slab. `high_water` bounds the
    /// peak simultaneously-live request count — for a streaming driver
    /// this should stay O(slice + active requests) no matter how many
    /// invocations the run submits in total.
    pub fn request_slab_stats(&self) -> RequestSlabStats {
        self.sim.model().requests.stats()
    }

    /// Self-correction counters of the calendar event queue, or `None`
    /// when the cloud runs on the binary-heap backend.
    pub fn queue_stats(&self) -> Option<CalQueueStats> {
        self.sim.queue_stats()
    }

    /// How many times the adaptive event queue promoted its heap to the
    /// calendar backend (0 on fixed backends; at most 1 per run).
    pub fn promotions(&self) -> u64 {
        self.sim.promotions()
    }

    /// Enables per-event cost profiling: every subsequent event dispatch
    /// is timed and bucketed by [`CloudEvent`] class. Profiling observes
    /// wall-clock time only — it draws no randomness and schedules no
    /// events, so a profiled run is bit-identical to an unprofiled one.
    /// Idempotent.
    pub fn enable_event_profiling(&mut self) {
        self.sim.enable_event_profiling();
    }

    /// The cost profile accumulated so far, or `None` when
    /// [`CloudSim::enable_event_profiling`] was never called.
    pub fn event_profile(&self) -> Option<&simkit::profile::EventProfile> {
        self.sim.event_profile()
    }

    /// Folds the per-event cost profile into the metrics registry under
    /// the [`metric::PROFILE_COUNT`] / [`metric::PROFILE_NS`] /
    /// [`metric::PROFILE_LOOP_NS`] names. No-op when profiling is off.
    /// Call once, after the run finishes: the profile holds lifetime
    /// totals, so calling this repeatedly double-counts.
    pub fn record_profile_metrics(&mut self) {
        let Some(profile) = self.sim.event_profile() else { return };
        debug_assert_eq!(profile.names.len(), metric::PROFILE_NS.len());
        let count = profile.count.clone();
        let ns = profile.ns.clone();
        let loop_ns = profile.loop_ns;
        let metrics = &mut self.sim.model_mut().metrics;
        for i in 0..metric::PROFILE_NS.len() {
            metrics.add(metric::PROFILE_COUNT[i], count[i]);
            metrics.add(metric::PROFILE_NS[i], ns[i]);
        }
        metrics.add(metric::PROFILE_LOOP_NS, loop_ns);
    }

    /// Folds the request-slab counters and (when on the calendar backend)
    /// the event-queue self-correction counters into the metrics
    /// registry under the `metric::REQUEST_SLOTS_*` / `metric::CALQUEUE_*`
    /// names. Call once, after the run finishes: the counters are
    /// lifetime totals, so calling this repeatedly double-counts.
    pub fn record_queue_metrics(&mut self) {
        let slab = self.sim.model().requests.stats();
        let queue = self.sim.queue_stats();
        let metrics = &mut self.sim.model_mut().metrics;
        metrics.add(metric::REQUEST_SLOTS_ALLOCATED, slab.slots_allocated);
        metrics.add(metric::REQUEST_SLOTS_REUSED, slab.slots_reused);
        metrics.add(metric::REQUEST_SLOTS_HIGH_WATER, slab.high_water);
        if let Some(stats) = queue {
            metrics.add(metric::CALQUEUE_REBUILDS, stats.rebuilds);
            metrics.add(metric::CALQUEUE_HUNT_FALLBACKS, stats.hunt_fallbacks);
            metrics.add(metric::CALQUEUE_OVERCROWD_REBUILDS, stats.overcrowd_rebuilds);
        }
    }

    /// The provider configuration this cloud runs.
    pub fn config(&self) -> &ProviderConfig {
        &self.sim.model().cfg
    }
}

#[cfg(test)]
mod tests {
    use simkit::profile::EventClass;

    use super::metric;
    use crate::events::CloudEvent;

    /// The profiler metric arrays must stay parallel to
    /// `CloudEvent::CLASS_NAMES`: `record_profile_metrics` folds profile
    /// slot `i` into `PROFILE_*[i]`, so a reorder would silently
    /// misattribute costs.
    #[test]
    fn profile_metric_names_match_event_classes() {
        assert_eq!(metric::PROFILE_NS.len(), CloudEvent::CLASS_NAMES.len());
        assert_eq!(metric::PROFILE_COUNT.len(), CloudEvent::CLASS_NAMES.len());
        for (i, class) in CloudEvent::CLASS_NAMES.iter().enumerate() {
            assert_eq!(metric::PROFILE_NS[i], format!("profile_ns_{class}"));
            assert_eq!(metric::PROFILE_COUNT[i], format!("profile_count_{class}"));
        }
    }

    use simkit::dist::Dist;
    use simkit::time::SimTime;

    use super::CloudSim;
    use crate::dag::{DagNodeSpec, DagSpec, JoinSpec};
    use crate::spec::FunctionSpec;
    use crate::testutil::test_provider;
    use crate::types::TransferMode;

    /// Runs `sim` forward in 50 ms steps until at least `depth` request
    /// slots are simultaneously live (root plus internal hops), so a
    /// cancel lands mid-flight at a known cascade depth.
    fn run_until_depth(sim: &mut CloudSim, depth: u64) {
        let mut t = 0.0;
        while sim.request_slab_stats().live < depth {
            t += 50.0;
            assert!(t < 60_000.0, "never reached {depth} simultaneously live requests");
            sim.run_until(SimTime::from_millis(t));
        }
    }

    /// Regression for the cancellation cascade: a ≥3-deep chain cancelled
    /// mid-flight must free every hop, not just the first `chain_child`.
    #[test]
    fn deep_chain_cancel_mid_flight_frees_all_hops() {
        let mut sim = CloudSim::new(test_provider(), 7);
        // Deploy tail-first so each producer can reference its successor.
        let d = sim.deploy(FunctionSpec::builder("d").exec_constant_ms(400.0).build()).unwrap();
        let c = sim
            .deploy(
                FunctionSpec::builder("c")
                    .exec_constant_ms(5.0)
                    .chain(d, TransferMode::Inline, 1024)
                    .build(),
            )
            .unwrap();
        let b = sim
            .deploy(
                FunctionSpec::builder("b")
                    .exec_constant_ms(5.0)
                    .chain(c, TransferMode::Inline, 1024)
                    .build(),
            )
            .unwrap();
        let a = sim
            .deploy(
                FunctionSpec::builder("a")
                    .exec_constant_ms(5.0)
                    .chain(b, TransferMode::Inline, 1024)
                    .build(),
            )
            .unwrap();
        let rid = sim.submit(a, 0, SimTime::ZERO);
        // Chain depth 3: a blocked on b blocked on c blocked on d.
        run_until_depth(&mut sim, 4);
        sim.cancel(rid);
        sim.run_to_idle();
        assert_eq!(sim.request_slab_stats().live, 0, "cancel cascade leaked request slots");
        assert_eq!(sim.cancel_stats().cancelled, 4, "root plus all three hops must cancel");
        assert!(sim.drain_completions().is_empty(), "cancelled chain must not complete");
    }

    fn diamond() -> DagSpec {
        DagSpec::new("diamond")
            .node(DagNodeSpec::new("split").exec_ms(Dist::constant(5.0)))
            .node(DagNodeSpec::new("left").exec_ms(Dist::constant(10.0)))
            .node(DagNodeSpec::new("right").exec_ms(Dist::constant(30.0)))
            .node(DagNodeSpec::new("merge").exec_ms(Dist::constant(5.0)))
            .edge("split", "left", TransferMode::Inline, Dist::constant(2048.0))
            .edge("split", "right", TransferMode::Inline, Dist::constant(2048.0))
            .edge("left", "merge", TransferMode::Inline, Dist::constant(1024.0))
            .edge("right", "merge", TransferMode::Inline, Dist::constant(1024.0))
    }

    /// End-to-end fan-out/fan-in: one submission to the diamond's root
    /// yields one external completion, one barrier firing, clean tables
    /// and balanced conservation counters.
    #[test]
    fn fan_out_join_completes_and_drains() {
        let mut sim = CloudSim::new(test_provider(), 11);
        let plan = diamond().compile().unwrap();
        let dep = sim.deploy_dag(&plan).unwrap();
        sim.record_internal_completions(true);
        sim.submit(dep.root, 0, SimTime::ZERO);
        sim.run_to_idle();

        let done = sim.drain_completions();
        assert_eq!(done.len(), 1, "exactly one external completion");
        assert!(done[0].is_ok());
        assert!(done[0].breakdown.chain_ms > 0.0, "fork round trip must be attributed");

        // left, right, and the fired merge ran as internal requests.
        let internal = sim.drain_internal_completions();
        assert_eq!(internal.len(), 3);
        assert_eq!(sim.stats().internal, 3);

        let joins = sim.dag_join_stats();
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].function, dep.functions[3]);
        assert_eq!(joins[0].fired, 1);
        assert_eq!(joins[0].stragglers, 0);
        assert_eq!(joins[0].branch_samples, 2);
        assert!(joins[0].join_p99_ms >= joins[0].branch_p99_ms);

        for (_, counters) in sim.dag_node_counters() {
            assert_eq!(counters.spawned, counters.completed + counters.cancelled);
            assert_eq!(counters.cancelled, 0);
        }
        assert!(sim.dag_tables_empty(), "DAG side tables must drain at idle");
        assert_eq!(sim.request_slab_stats().live, 0);
    }

    /// A k-of-n quorum join fires at the k-th arrival and counts the
    /// remaining branches as stragglers; their producers still resolve.
    #[test]
    fn k_of_n_join_counts_stragglers() {
        let spec = DagSpec::new("quorum")
            .node(DagNodeSpec::new("scatter").exec_ms(Dist::constant(5.0)))
            .node(DagNodeSpec::new("w1").exec_ms(Dist::constant(10.0)))
            .node(DagNodeSpec::new("w2").exec_ms(Dist::constant(20.0)))
            .node(DagNodeSpec::new("w3").exec_ms(Dist::constant(500.0)))
            .node(
                DagNodeSpec::new("gather")
                    .exec_ms(Dist::constant(5.0))
                    .join(JoinSpec::KOfN { k: 2 }),
            )
            .edge("scatter", "w1", TransferMode::Inline, Dist::constant(1024.0))
            .edge("scatter", "w2", TransferMode::Inline, Dist::constant(1024.0))
            .edge("scatter", "w3", TransferMode::Inline, Dist::constant(1024.0))
            .edge("w1", "gather", TransferMode::Inline, Dist::constant(512.0))
            .edge("w2", "gather", TransferMode::Inline, Dist::constant(512.0))
            .edge("w3", "gather", TransferMode::Inline, Dist::constant(512.0));
        let mut sim = CloudSim::new(test_provider(), 13);
        let dep = sim.deploy_dag(&spec.compile().unwrap()).unwrap();
        sim.submit(dep.root, 0, SimTime::ZERO);
        sim.run_to_idle();

        let done = sim.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].is_ok());
        let joins = sim.dag_join_stats();
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].fired, 1, "quorum barrier fires exactly once");
        assert_eq!(joins[0].stragglers, 1, "the slow branch arrives after the fire");
        assert_eq!(joins[0].branch_samples, 3);
        assert!(sim.dag_tables_empty());
        assert_eq!(sim.request_slab_stats().live, 0);
    }

    /// Cancelling a workflow root mid-flight retires every branch, join
    /// barrier and pending arrival — nothing leaks, counters balance.
    #[test]
    fn dag_cancel_cascades_through_branches_and_barriers() {
        let spec = DagSpec::new("wide")
            .node(DagNodeSpec::new("fork").exec_ms(Dist::constant(5.0)))
            .node(DagNodeSpec::new("s1").exec_ms(Dist::constant(2_000.0)))
            .node(DagNodeSpec::new("s2").exec_ms(Dist::constant(2_000.0)))
            .node(DagNodeSpec::new("s3").exec_ms(Dist::constant(2_000.0)))
            .node(DagNodeSpec::new("join").exec_ms(Dist::constant(5.0)))
            .edge("fork", "s1", TransferMode::Inline, Dist::constant(1024.0))
            .edge("fork", "s2", TransferMode::Inline, Dist::constant(1024.0))
            .edge("fork", "s3", TransferMode::Inline, Dist::constant(1024.0))
            .edge("s1", "join", TransferMode::Inline, Dist::constant(512.0))
            .edge("s2", "join", TransferMode::Inline, Dist::constant(512.0))
            .edge("s3", "join", TransferMode::Inline, Dist::constant(512.0));
        let mut sim = CloudSim::new(test_provider(), 17);
        let dep = sim.deploy_dag(&spec.compile().unwrap()).unwrap();
        let rid = sim.submit(dep.root, 0, SimTime::ZERO);
        // Root plus three executing branches in flight.
        run_until_depth(&mut sim, 4);
        sim.cancel(rid);
        sim.run_to_idle();

        assert_eq!(sim.request_slab_stats().live, 0, "cancel leaked request slots");
        assert!(sim.dag_tables_empty(), "cancel leaked barrier or arrival state");
        assert!(sim.drain_completions().is_empty());
        for (_, counters) in sim.dag_node_counters() {
            assert_eq!(counters.spawned, counters.completed + counters.cancelled);
        }
        assert_eq!(sim.cancel_stats().cancelled, 4, "root and all three branches cancel");
    }

    /// A fully linear plan compiles every hop onto the legacy chain path:
    /// no DAG spawns, no barriers, identical hop accounting.
    #[test]
    fn linear_plan_lowers_to_legacy_chain() {
        use crate::dag::DagPlan;
        let plan = DagPlan::linear("line", 3, TransferMode::Inline, 1024, Dist::constant(5.0));
        let mut sim = CloudSim::new(test_provider(), 19);
        let dep = sim.deploy_dag(&plan).unwrap();
        sim.submit(dep.root, 0, SimTime::ZERO);
        sim.run_to_idle();
        let done = sim.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].is_ok());
        assert_eq!(sim.stats().internal, 2, "two chain hops");
        assert!(sim.dag_node_counters().is_empty(), "no DAG-engine spawns on a pure chain");
        assert!(sim.dag_join_stats().is_empty());
        assert!(sim.dag_tables_empty());
    }
}
