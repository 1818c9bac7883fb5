//! The cloud: gluing front end, load balancer, scheduler, workers,
//! instances and storage into one discrete-event model.
//!
//! [`CloudSim`] is the public entry point: deploy [`FunctionSpec`]s, submit
//! requests, advance simulated time, and drain [`Completion`]s and
//! [`TransferSample`]s. Internally a [`Cloud`] implements
//! [`simkit::engine::Model`] over [`CloudEvent`]s; each event corresponds
//! to a hand-off point of the invocation lifecycle in the paper's Fig 1.
//!
//! `Cloud` composes components that each own their state and its
//! invariant: an [`InstancePool`] per function, the [`FaultInjector`],
//! the [`WorkflowTable`] and [`Telemetry`]. Its handlers — the `pipeline`
//! (request path), `fleet` (instance lifecycle) and `flow` (workflows,
//! cancellation) submodules — keep the event sequencing, since the order
//! of draws across components is part of every pinned result.

use simkit::calqueue::CalQueueStats;
use simkit::engine::{Model, Scheduler, Simulation};
use simkit::metrics::Metrics;
use simkit::rng::Rng;
use simkit::soa::EventKey;
use simkit::time::SimTime;
use simkit::trace::{RingCollector, SpanRecord, TraceSink};

pub use crate::arena::RequestSlabStats;
use crate::arena::{ColdReq, HotReq, RequestArena, XferInfo};
use crate::billing::ResourceUsage;
use crate::config::{ProviderConfig, ScalePolicy};
use crate::dag::DagPlan;
use crate::events::CloudEvent;
use crate::injector::FaultInjector;
use crate::loadbalancer::DispatchServer;
use crate::pool::InstancePool;
use crate::request::{Completion, RequestOrigin, TransferSample};
use crate::scheduler::SpawnGovernor;
use crate::spec::FunctionSpec;
use crate::storage::{ImageStore, PayloadStore};
use crate::telemetry::Telemetry;
pub use crate::telemetry::{metric, span_tag, TimelineSample};
use crate::types::{FunctionId, RequestId, TransferMode};
pub use crate::workflow::{DagDeployment, DagNodeCounters, JoinStats, StageLatency};
use crate::workflow::{RuntimeEdge, WorkflowTable};

mod fleet;
mod flow;
mod pipeline;

/// The event queue handlers schedule into.
type Sched = Scheduler<CloudEvent>;

/// Errors returned by [`CloudSim::deploy`] and [`CloudSim::deploy_dag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The spec failed validation.
    InvalidSpec(String),
    /// A constant inline edge payload exceeds the provider's inline cap.
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
    /// Internal requests issued (chain hops, fan-out children, fired
    /// joins).
    pub internal: u64,
    /// External completions recorded.
    pub completed: u64,
    /// Instance spawns started.
    pub spawns: u64,
    /// Instances reaped by keep-alive expiry or a purge storm.
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

/// Per-function runtime state.
#[derive(Debug)]
struct FunctionState {
    spec: FunctionSpec,
    pool: InstancePool,
    scale_tick_armed: bool,
    /// Commit cap under the provider's scale policy, frozen at deploy:
    /// recomputing it per request showed up in the event-cost profile.
    commit_cap: Option<usize>,
    /// Image size in decimal MB (base + extra file).
    image_mb: f64,
    /// Out-edges forked at compute-done, in plan order; empty for a plain
    /// function.
    out: Vec<RuntimeEdge>,
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

/// The labelled forks of the run seed that the handlers draw from
/// directly: each feeds several components (`net`, `cold`, `lb`) or one
/// request-path handler (`path`, `exec`). `submission` feeds
/// [`CloudSim::submit`] alone, so an external request's propagation delay
/// depends only on how many were submitted before it, never on what the
/// handlers drew in between.
#[derive(Debug)]
struct Streams {
    net: Rng,
    submission: Rng,
    path: Rng,
    exec: Rng,
    cold: Rng,
    lb: Rng,
}

/// Fig 1's storage: function images and cross-function payloads.
#[derive(Debug)]
struct Storage {
    images: ImageStore,
    payloads: PayloadStore,
}

/// What the cloud reports back: the typed counters, and the completions
/// and transfer samples waiting to be drained.
#[derive(Debug, Default)]
struct Ledger {
    stats: CloudStats,
    cancel: CancelStats,
    completions: Vec<Completion>,
    transfers: Vec<TransferSample>,
}

/// What keeps periodic ticks alive (see [`Cloud::run_active`]).
#[derive(Debug, Default)]
struct Liveness {
    /// Latest keep-alive deadline ever drawn.
    last_deadline: Option<EventKey>,
    /// Periodic ticks (telemetry, purge storms) in the event queue, which
    /// do not count as work.
    ticks_queued: usize,
}

/// The cloud model (see module docs). Use through [`CloudSim`].
#[derive(Debug)]
pub struct Cloud {
    cfg: ProviderConfig,
    functions: Vec<FunctionState>,
    /// Per-request state in recycled slots, so streaming runs carry
    /// O(active requests) bookkeeping (see [`crate::arena`]).
    requests: RequestArena,
    streams: Streams,
    dispatch: DispatchServer,
    governor: SpawnGovernor,
    storage: Storage,
    ledger: Ledger,
    telemetry: Telemetry,
    faults: FaultInjector,
    workflows: WorkflowTable,
    liveness: Liveness,
}

impl Cloud {
    fn new(cfg: ProviderConfig, seed: u64) -> Cloud {
        cfg.validate().expect("invalid provider config");
        let root = Rng::seed_from(seed);
        Cloud {
            dispatch: DispatchServer::new(cfg.dispatch.clone()),
            governor: SpawnGovernor::new(&cfg.scaling),
            storage: Storage {
                images: ImageStore::new(cfg.image_store.clone(), root.fork("image-store")),
                payloads: PayloadStore::new(cfg.payload_store.clone(), root.fork("payload-store")),
            },
            streams: Streams {
                net: root.fork("network"),
                submission: root.fork("submission"),
                path: root.fork("warm-path"),
                exec: root.fork("exec"),
                cold: root.fork("cold-start"),
                lb: root.fork("load-balancer"),
            },
            faults: FaultInjector::new(root.fork("faults")),
            workflows: WorkflowTable::new(root.fork("dag")),
            liveness: Liveness::default(),
            cfg,
            functions: Vec::new(),
            requests: RequestArena::default(),
            ledger: Ledger::default(),
            telemetry: Telemetry::default(),
        }
    }

    fn fstate(&self, fid: FunctionId) -> &FunctionState {
        &self.functions[fid.index()]
    }

    fn fstate_mut(&mut self, fid: FunctionId) -> &mut FunctionState {
        &mut self.functions[fid.index()]
    }

    fn pool(&self, fid: FunctionId) -> &InstancePool {
        &self.functions[fid.index()].pool
    }

    fn pool_mut(&mut self, fid: FunctionId) -> &mut InstancePool {
        &mut self.functions[fid.index()].pool
    }

    fn create_request(
        &mut self,
        function: FunctionId,
        origin: RequestOrigin,
        tag: u64,
        issued_at: SimTime,
        xfer_in: Option<XferInfo>,
    ) -> RequestId {
        let root_span = self.telemetry.alloc_span();
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

    /// Whether `rid` still names a live request: a cancel racing a
    /// completion makes stale ids an expected input, not a bug.
    fn is_live(&self, rid: RequestId) -> bool {
        self.requests.is_live(rid)
    }

    /// The external root of `rid`'s workflow (itself for a root), which
    /// keys its join barriers apart from other invocations of the DAG.
    fn wf_root_of(&self, rid: RequestId) -> RequestId {
        self.cold(rid).wf_root.unwrap_or(rid)
    }

    /// Emits one component span under `rid`'s root span (see
    /// [`Telemetry::emit`]).
    fn emit_span(&mut self, rid: RequestId, component: &'static str, start: SimTime, end: SimTime) {
        if self.telemetry.tracing() {
            let root = self.cold(rid).root_span;
            self.telemetry.emit(None, root, rid, component, (start, end));
        }
    }

    /// Emits `rid`'s root span, from issue to `end`, under `parent` (the
    /// producer's chain span of an internal request).
    fn emit_root_span(&mut self, rid: RequestId, end: SimTime, parent: Option<u64>) {
        if !self.telemetry.tracing() {
            return;
        }
        if let Some(span_id) = self.cold(rid).root_span {
            let start = self.hot(rid).issued_at;
            self.telemetry.emit(Some(span_id), parent, rid, span_tag::REQUEST, (start, end));
        }
    }

    /// Whether the run still has work after the event being dispatched: a
    /// pending event other than a periodic tick, or a keep-alive deadline
    /// ahead (queued or not). Periodic ticks reschedule only while this
    /// holds, so a storm and a telemetry tick never keep each other alive.
    fn run_active(&self, now: SimTime, sched: &Sched) -> bool {
        let current = EventKey { at: now, seq: sched.current_seq() };
        sched.len() > self.liveness.ticks_queued
            || self.liveness.last_deadline.is_some_and(|deadline| deadline > current)
    }
}

impl Model for Cloud {
    type Event = CloudEvent;

    fn handle(&mut self, now: SimTime, event: CloudEvent, sched: &mut Sched) {
        match event {
            // A cancelled request is retired by the next event that
            // touches it: the cancel already released its instance and
            // booked its waste, so a stale request-path event forks,
            // draws and records nothing.
            CloudEvent::FrontendArrive(rid)
            | CloudEvent::RoutingDone(rid)
            | CloudEvent::Enqueued(rid)
            | CloudEvent::ComputeDone(rid, _)
            | CloudEvent::ExecDone(rid, _)
            | CloudEvent::Completed(rid)
                if self.hot(rid).cancelled() =>
            {
                self.free_cancelled(rid)
            }
            CloudEvent::FrontendArrive(rid) => self.on_frontend_arrive(now, rid, sched),
            CloudEvent::RoutingDone(rid) => self.on_routing_done(now, rid, sched),
            CloudEvent::Enqueued(rid) => self.on_enqueued(now, rid, sched),
            CloudEvent::BootComplete(iid) => self.on_boot_complete(now, iid, sched),
            CloudEvent::ComputeDone(rid, iid) => self.on_compute_done(now, rid, iid, sched),
            CloudEvent::ExecDone(rid, iid) => self.on_exec_done(now, rid, iid, sched),
            CloudEvent::Completed(rid) => self.on_completed(now, rid, sched),
            CloudEvent::Cancel(rid) => self.on_cancel(now, rid, sched),
            CloudEvent::ReapCheck(iid, seq) => self.on_reap_check(now, iid, seq, sched),
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
}

impl CloudSim {
    /// Creates a cloud for `cfg` with a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: ProviderConfig, seed: u64) -> CloudSim {
        CloudSim { sim: Simulation::new(Cloud::new(cfg, seed)) }
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
        CloudSim { sim: Simulation::with_queue(Cloud::new(cfg, seed), queue) }
    }

    /// Deploys one function with no out-edges; returns its id for
    /// [`CloudSim::submit`]. Edges come from [`CloudSim::deploy_dag`].
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::InvalidSpec`] for an invalid spec.
    pub fn deploy(&mut self, spec: FunctionSpec) -> Result<FunctionId, DeployError> {
        spec.validate().map_err(DeployError::InvalidSpec)?;
        let cloud = self.sim.model_mut();
        let image_mb = cloud.cfg.runtimes.model(spec.runtime).base_image_mb + spec.extra_image_mb;
        let fid = FunctionId(cloud.functions.len() as u32);
        // Expected per-request service time (median execution plus the
        // in-instance warm-overhead shares) feeds `CostAware` commit caps.
        let service_estimate_ms = spec.exec_ms.median_exact().unwrap_or(0.0)
            + cloud.cfg.warm_path.overhead_ms.median_exact().unwrap_or(10.0)
                * (cloud.cfg.warm_path.shares.steer + cloud.cfg.warm_path.shares.handling);
        let function_commit_cap = commit_cap(&cloud.cfg.scaling.policy, service_estimate_ms);
        // Room for a handful of instances: fleets deploy thousands of
        // functions, most of which never run more than a few.
        let cap = cloud.cfg.limits.max_instances_per_function.min(4) as usize;
        cloud.functions.push(FunctionState {
            spec,
            pool: InstancePool::with_capacity(cap),
            scale_tick_armed: false,
            commit_cap: function_commit_cap,
            image_mb,
            out: Vec::new(),
        });
        Ok(fid)
    }

    /// Deploys a compiled workflow: one function per plan node (named
    /// `{workflow}/{node}`), each carrying its plan out-edges and a fresh
    /// node record (see [`CloudSim::stage_stats`]). A producer forks one
    /// obligation per edge at compute-done and stays busy until every
    /// obligation resolves (downstream completion, or the k-th arrival
    /// firing a join barrier). This is the only way to wire an edge: a
    /// chain is a linear plan with constant payloads.
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
        let edges = plan.nodes.iter().flat_map(|node| &node.out);
        let inline = edges.filter(|e| e.mode == TransferMode::Inline);
        if let Some(requested) = inline.filter_map(|e| e.constant_payload()).find(|&b| b > limit) {
            return Err(DeployError::InlinePayloadTooLarge { requested, limit });
        }
        // Deploy in reverse topological order (consumers first), which
        // fixes the function ids a workflow's nodes receive.
        let mut fids: Vec<FunctionId> = vec![FunctionId(u32::MAX); plan.nodes.len()];
        for &i in plan.topo.iter().rev() {
            let node = &plan.nodes[i];
            let spec = FunctionSpec::builder(format!("{}/{}", plan.name, node.name))
                .runtime(node.runtime)
                .deployment(node.deployment)
                .memory_mb(node.memory_mb)
                .extra_image_mb(node.extra_image_mb)
                .exec_ms(node.exec_ms.clone())
                .build();
            fids[i] = self.deploy(spec)?;
        }
        let cloud = self.sim.model_mut();
        for (node, &fid) in plan.nodes.iter().zip(&fids) {
            cloud.workflows.add_node(fid, node.is_join());
            cloud.functions[fid.index()].out = node
                .out
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
                .collect();
        }
        Ok(DagDeployment { root: fids[plan.root], functions: fids })
    }

    /// Stage-latency statistics of workflow node `function` over every
    /// successful completion so far, a client policy's losing root
    /// attempts included. `None` outside a workflow.
    pub fn stage_stats(&self, function: FunctionId) -> Option<StageLatency> {
        self.sim.model().workflows.stage_stats(function)
    }

    /// Straggler-amplification statistics of join node `function`, over
    /// every barrier firing so far. `None` unless `function` is a join.
    pub fn join_stats(&self, function: FunctionId) -> Option<JoinStats> {
        self.sim.model().workflows.join_stats(function)
    }

    /// [`CloudSim::join_stats`] of every deployed join node, in function
    /// order. Empty when no workflow with a join was deployed.
    pub fn dag_join_stats(&self) -> Vec<JoinStats> {
        self.sim.model().workflows.all_join_stats()
    }

    /// Conservation counters of every workflow node, in function order:
    /// every spawned request ends up completed or cancelled.
    pub fn dag_node_counters(&self) -> Vec<(FunctionId, DagNodeCounters)> {
        self.sim.model().workflows.node_counters()
    }

    /// Whether every DAG side table has drained (a leak check: true at
    /// idle once all workflows finished or were cancelled).
    pub fn dag_tables_empty(&self) -> bool {
        self.sim.model().workflows.is_empty()
    }

    /// Submits an external invocation of `function` issued at `at`,
    /// tagged with a caller-chosen `tag`. Returns the request id.
    ///
    /// The propagation delay to the front end comes from the cloud's own
    /// `submission` stream, which nothing else draws from: the k-th
    /// submission draws the same delay however submissions interleave
    /// with event processing, so a driver may submit up front, a slice
    /// ahead or just in time, and a client policy that never acts replays
    /// the run without one. The arrival event takes the next sequence
    /// number like any other event.
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
        cloud.ledger.stats.submitted += 1;
        cloud.faults.submitted();
        let prop_ms = cloud.cfg.network.prop_delay_ms.sample(&mut cloud.streams.submission)
            * cloud.faults.inflation(at);
        let rid = cloud.create_request(function, RequestOrigin::External, tag, at, None);
        cloud.cold_mut(rid).breakdown.prop_out_ms = prop_ms;
        let arrive_at = at + SimTime::from_millis(prop_ms);
        cloud.emit_span(rid, span_tag::PROPAGATION, at, arrive_at);
        self.sim.schedule_at(arrive_at, CloudEvent::FrontendArrive(rid));
        rid
    }

    /// Advances the simulation until `horizon` (inclusive).
    pub fn run_until(&mut self, horizon: SimTime) {
        self.sim.run_until(horizon);
    }

    /// [`CloudSim::run_until`] that stops right after the first event
    /// that leaves an external completion to drain, with the clock at
    /// that event's time. A closed-loop client calls this so each user's
    /// next request follows its own response, not the next time slice.
    pub fn run_until_completion(&mut self, horizon: SimTime) {
        self.sim.run_until_or(horizon, |cloud| !cloud.ledger.completions.is_empty());
    }

    /// Runs the simulation until no events remain, then advances the
    /// clock to the latest keep-alive deadline ever drawn if that is
    /// later: the run ends past the last idle timeout, whether or not a
    /// check for it was queued.
    pub fn run_to_idle(&mut self) {
        self.sim.run();
        if let Some(deadline) = self.sim.model().liveness.last_deadline {
            self.sim.run_until(deadline.at);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Removes and returns finished external completions.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.sim.model_mut().ledger.completions)
    }

    /// Moves finished external completions into `out`, preserving order;
    /// allocation-free, so a drain loop can reuse its buffer.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.sim.model_mut().ledger.completions);
    }

    /// Removes and returns recorded cross-function transfer samples.
    pub fn drain_transfers(&mut self) -> Vec<TransferSample> {
        std::mem::take(&mut self.sim.model_mut().ledger.transfers)
    }

    /// Moves recorded transfer samples into `out`, preserving order; the
    /// allocation-free counterpart of [`CloudSim::drain_transfers`].
    pub fn drain_transfers_into(&mut self, out: &mut Vec<TransferSample>) {
        out.append(&mut self.sim.model_mut().ledger.transfers);
    }

    /// Pre-sizes the request table, the completion buffer and the event
    /// queue for `expected` external requests submitted up front.
    pub fn reserve_requests(&mut self, expected: usize) {
        let cloud = self.sim.model_mut();
        cloud.requests.reserve(expected);
        cloud.ledger.completions.reserve(expected);
        self.reserve_event_hint(expected);
    }

    /// Announces `expected` upcoming submissions to the event queue only:
    /// the hint for drivers that submit and drain in slices. It also lets
    /// the adaptive backend promote to the calendar queue once, up front.
    pub fn reserve_event_hint(&mut self, expected: usize) {
        self.sim.reserve_events(expected + expected / 4);
    }

    /// Cancels an in-flight external request and its workflow at the next
    /// event boundary: an executing attempt frees its instance there, a
    /// queued one is dropped when an instance would pick it up. It never
    /// yields a [`Completion`]; its instance time is booked in
    /// [`CloudSim::cancel_stats`]. Cancelling a finished request is a no-op.
    pub fn cancel(&mut self, rid: RequestId) {
        let now = self.sim.now();
        self.sim.schedule_at(now, CloudEvent::Cancel(rid));
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CloudStats {
        self.sim.model().ledger.stats
    }

    /// Wasted-work accounting for cancelled requests (see
    /// [`CloudSim::cancel`]).
    pub fn cancel_stats(&self) -> CancelStats {
        self.sim.model().ledger.cancel
    }

    /// Installs a compiled fault schedule for the rest of the run; call it
    /// before submitting work. Inert plans are skipped, so a faults-off
    /// run stays byte-identical to one without this call.
    pub fn install_faults(&mut self, plan: faults::FaultPlan) {
        let cloud = self.sim.model_mut();
        if let Some(first_storm) = cloud.faults.install(plan) {
            cloud.liveness.ticks_queued += 1;
            self.sim.schedule_at(first_storm, CloudEvent::FaultStorm);
        }
    }

    /// Fault-injection and degradation counters (all zero when no fault
    /// plan is installed).
    pub fn fault_stats(&self) -> faults::FaultStats {
        self.sim.model().faults.stats()
    }

    /// Whether a (non-inert) fault plan is installed.
    pub fn faults_installed(&self) -> bool {
        self.sim.model().faults.installed()
    }

    /// Number of live (idle + busy) instances of `function`.
    pub fn live_instances(&self, function: FunctionId) -> u32 {
        let snap = self.sim.model().pool(function).snapshot();
        snap.idle + snap.busy
    }

    /// Enables periodic fleet telemetry: every `interval` the simulator
    /// records one [`TimelineSample`] per deployed function (instances by
    /// state, queued requests). Sampling stops automatically when the run
    /// goes idle: no event pending and no keep-alive deadline ahead.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_timeline(&mut self, interval: SimTime) {
        assert!(!interval.is_zero(), "telemetry interval must be positive");
        let start = self.sim.now() + interval;
        let cloud = self.sim.model_mut();
        cloud.telemetry.enable_timeline(interval);
        cloud.liveness.ticks_queued += 1;
        self.sim.schedule_at(start, CloudEvent::TelemetryTick);
    }

    /// Telemetry samples recorded so far (empty unless
    /// [`CloudSim::enable_timeline`] was called).
    pub fn timeline(&self) -> &[TimelineSample] {
        self.sim.model().telemetry.timeline()
    }

    /// Resource usage of `function`'s fleet, accounted up to the current
    /// simulated time (Obs 7's cost axis: active-instance seconds and
    /// billed busy time).
    pub fn resource_usage(&self, function: FunctionId) -> ResourceUsage {
        self.sim.model().pool(function).usage(self.sim.now())
    }

    /// Image-store statistics (cache hit counters etc.).
    pub fn image_store_stats(&self) -> crate::storage::ImageStoreStats {
        self.sim.model().storage.images.stats()
    }

    /// Enables span tracing into a ring of the newest `capacity` spans
    /// (see [`RingCollector`]). Call before submitting work: earlier
    /// requests are not traced. Tracing never changes results.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.set_trace_sink(Box::new(RingCollector::with_capacity(capacity)));
    }

    /// Directs emitted spans into a custom [`TraceSink`].
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sim.model_mut().telemetry.set_sink(sink);
    }

    /// Removes and returns spans buffered by the trace sink. Empty when
    /// tracing is off or the sink forwards spans elsewhere.
    pub fn drain_spans(&mut self) -> Vec<SpanRecord> {
        self.sim.model_mut().telemetry.drain_spans()
    }

    /// A snapshot of the metrics registry: always-on lifecycle counters
    /// (see [`metric`]) plus gauges sampled on telemetry ticks when
    /// [`CloudSim::enable_timeline`] is active. Each derived counter is
    /// read from the typed counter that owns its fact.
    pub fn metrics(&self) -> Metrics {
        let cloud = self.sim.model();
        let stats = cloud.ledger.stats;
        let images = cloud.storage.images.stats();
        let faults = cloud.faults.stats();
        let (joins_fired, join_stragglers) = cloud.workflows.join_totals();
        let mut metrics = cloud.telemetry.registry().clone();
        for (name, value) in [
            (metric::REQUESTS_SUBMITTED, stats.submitted),
            (metric::REQUESTS_COMPLETED, stats.completed),
            (metric::INSTANCES_SPAWNED, stats.spawns),
            (metric::BOOT_FAILURE_RETRIES, stats.boot_failures),
            (metric::REQUESTS_CANCELLED, cloud.ledger.cancel.cancelled),
            (metric::IMAGE_CACHE_HITS, images.warm_hits),
            (metric::IMAGE_CACHE_MISSES, images.fetches - images.warm_hits),
            (metric::FAULTS_INJECTED, faults.injected),
            (metric::FAULTS_TRANSIENT_ERRORS, faults.transient_errors),
            (metric::FAULTS_CRASHES, faults.crashes),
            (metric::FAULTS_SHED, cloud.faults.shed_decisions()),
            (metric::FAULTS_PURGED_INSTANCES, faults.purged_instances),
            (metric::JOINS_FIRED, joins_fired),
            (metric::JOIN_STRAGGLERS, join_stragglers),
        ] {
            // A registry counter exists once it counted something.
            if value > 0 {
                metrics.add(name, value);
            }
        }
        metrics
    }

    /// Occupancy counters of the request slab; `high_water` bounds the
    /// peak simultaneously-live request count.
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

    /// Enables per-event cost profiling, bucketed by [`CloudEvent`]
    /// class. It observes wall-clock time only, so a profiled run is
    /// bit-identical to an unprofiled one. Idempotent.
    pub fn enable_event_profiling(&mut self) {
        self.sim.enable_event_profiling();
    }

    /// The cost profile accumulated so far, or `None` when
    /// [`CloudSim::enable_event_profiling`] was never called.
    pub fn event_profile(&self) -> Option<&simkit::profile::EventProfile> {
        self.sim.event_profile()
    }

    /// Folds the per-event cost profile into the registry under the
    /// `metric::PROFILE_*` names; no-op when profiling is off. Call once,
    /// after the run: repeated calls double-count.
    pub fn record_profile_metrics(&mut self) {
        let Some(profile) = self.sim.event_profile() else { return };
        debug_assert_eq!(profile.names.len(), metric::PROFILE_NS.len());
        let count = profile.count.clone();
        let ns = profile.ns.clone();
        let loop_ns = profile.loop_ns;
        let telemetry = &mut self.sim.model_mut().telemetry;
        for i in 0..metric::PROFILE_NS.len() {
            telemetry.add(metric::PROFILE_COUNT[i], count[i]);
            telemetry.add(metric::PROFILE_NS[i], ns[i]);
        }
        telemetry.add(metric::PROFILE_LOOP_NS, loop_ns);
    }

    /// Folds the request-slab and calendar-queue counters into the
    /// registry under the `metric::REQUEST_SLOTS_*` / `metric::CALQUEUE_*`
    /// names. Call once, after the run: repeated calls double-count.
    pub fn record_queue_metrics(&mut self) {
        let slab = self.sim.model().requests.stats();
        let queue = self.sim.queue_stats();
        let telemetry = &mut self.sim.model_mut().telemetry;
        telemetry.add(metric::REQUEST_SLOTS_ALLOCATED, slab.slots_allocated);
        telemetry.add(metric::REQUEST_SLOTS_REUSED, slab.slots_reused);
        telemetry.add(metric::REQUEST_SLOTS_HIGH_WATER, slab.high_water);
        if let Some(stats) = queue {
            telemetry.add(metric::CALQUEUE_REBUILDS, stats.rebuilds);
            telemetry.add(metric::CALQUEUE_HUNT_FALLBACKS, stats.hunt_fallbacks);
            telemetry.add(metric::CALQUEUE_OVERCROWD_REBUILDS, stats.overcrowd_rebuilds);
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

    use super::{CloudSim, DagNodeCounters};
    use crate::dag::{DagNodeSpec, DagSpec, JoinSpec};
    use crate::testutil::{line_spec, test_provider};
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
    /// mid-flight must free every hop, not just the first child.
    #[test]
    fn deep_chain_cancel_mid_flight_frees_all_hops() {
        let mut sim = CloudSim::new(test_provider(), 7);
        let edges = [(TransferMode::Inline, 1024); 3];
        let spec = line_spec(&[5.0, 5.0, 5.0, 400.0], &edges);
        let dep = sim.deploy_dag(&spec.compile().unwrap()).unwrap();
        let rid = sim.submit(dep.root, 0, SimTime::ZERO);
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
    /// yields one external completion, one stage sample per node, one
    /// barrier firing, clean tables and balanced conservation counters.
    #[test]
    fn fan_out_join_completes_and_drains() {
        let mut sim = CloudSim::new(test_provider(), 11);
        let plan = diamond().compile().unwrap();
        let dep = sim.deploy_dag(&plan).unwrap();
        sim.submit(dep.root, 0, SimTime::ZERO);
        sim.run_to_idle();

        let done = sim.drain_completions();
        assert_eq!(done.len(), 1, "exactly one external completion");
        assert!(done[0].is_ok());
        assert!(done[0].breakdown.chain_ms > 0.0, "fork round trip must be attributed");

        // left, right, and the fired merge ran as internal requests.
        assert_eq!(sim.stats().internal, 3);
        for &fid in &dep.functions {
            let stage = sim.stage_stats(fid).expect("every workflow node has a record");
            assert_eq!(stage.count, 1);
            assert_eq!(stage.median_ms, stage.p99_ms);
        }
        let root = sim.stage_stats(dep.root).unwrap();
        let chain_ms = done[0].breakdown.chain_ms;
        assert_eq!(root.median_ms, done[0].breakdown.total_ms() - chain_ms);

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

    /// A linear plan's hops run on the fork path like any other edge:
    /// each hop is spawned and completed through its node's counters —
    /// the root, submitted externally, is never spawned — with no
    /// barriers and nothing left behind.
    #[test]
    fn linear_plan_hops_spawn_and_complete_per_node() {
        let mut sim = CloudSim::new(test_provider(), 19);
        let spec = line_spec(&[5.0, 5.0, 5.0], &[(TransferMode::Inline, 1024); 2]);
        let dep = sim.deploy_dag(&spec.compile().unwrap()).unwrap();
        sim.submit(dep.root, 0, SimTime::ZERO);
        sim.run_to_idle();
        let done = sim.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].is_ok());
        assert_eq!(sim.stats().internal, 2, "two hops");
        let counters = sim.dag_node_counters();
        assert_eq!(counters.len(), 3, "one entry per workflow node");
        let hop = DagNodeCounters { spawned: 1, completed: 1, cancelled: 0 };
        for (node, &fid) in dep.functions.iter().enumerate() {
            let expected = if node == 0 { DagNodeCounters::default() } else { hop };
            assert!(counters.contains(&(fid, expected)), "hop{node}: {counters:?}");
        }
        assert!(sim.dag_join_stats().is_empty());
        assert!(sim.dag_tables_empty());
    }
}
