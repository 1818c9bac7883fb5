//! The workflow table: runtime coordination and statistics of deployed
//! DAG workflows.
//!
//! [`WorkflowTable`] owns every side table the fork path needs — join
//! barriers, fired-join metadata, each producer's spawned children and
//! the payloads of in-flight join arrivals — plus the per-node stage and
//! join records, and the stream that samples edge payloads. The cloud's
//! handlers keep the event sequencing and ask the table what a fork, an
//! arrival, a completion or a cancellation changes.

use std::collections::BTreeMap;

use simkit::dist::Dist;
use simkit::rng::Rng;
use simkit::time::SimTime;

use crate::arena::XferInfo;
use crate::request::Breakdown;
use crate::types::{FunctionId, RequestId, TransferMode};

/// Handles to a deployed workflow (see [`CloudSim::deploy_dag`](crate::cloud::CloudSim::deploy_dag)).
#[derive(Debug, Clone)]
pub struct DagDeployment {
    /// The workflow's entry function: submit external requests here.
    pub root: FunctionId,
    /// One function per plan node, indexed like [`DagPlan::nodes`](crate::dag::DagPlan::nodes).
    pub functions: Vec<FunctionId>,
}

/// Stage-latency statistics of one workflow node, over every successful
/// completion so far (see [`CloudSim::stage_stats`](crate::cloud::CloudSim::stage_stats)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageLatency {
    /// Successful completions: every invocation of an internal node, and
    /// every error-free attempt of the root.
    pub count: u64,
    /// Median stage latency, ms. A stage's latency excludes its
    /// downstream round trip (`total − chain`), so stages don't
    /// double-count their subtrees.
    pub median_ms: f64,
    /// 99th-percentile stage latency, ms.
    pub p99_ms: f64,
}

/// Straggler-amplification statistics of one join node, computed over
/// every barrier firing of the run (see [`CloudSim::join_stats`](crate::cloud::CloudSim::join_stats)).
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

/// Per-node conservation counters for requests spawned by the fork
/// path: chain hops, fan-out children and fired joins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagNodeCounters {
    /// Requests spawned for this function.
    pub spawned: u64,
    /// Spawned requests that completed.
    pub completed: u64,
    /// Spawned requests retired by a cancellation cascade.
    pub cancelled: u64,
}

/// One resolved out-edge of a deployed function.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeEdge {
    /// Target function.
    pub(crate) target: FunctionId,
    pub(crate) mode: TransferMode,
    /// Payload-size distribution, bytes.
    pub(crate) payload: Dist,
    /// `Some((k, n))` when the target is a fan-in barrier needing `k` of
    /// `n` arrivals; `None` spawns a direct child request.
    pub(crate) join: Option<(u32, u32)>,
}

/// Barrier state of one (workflow, join-function) pair.
#[derive(Debug)]
struct JoinBarrier {
    /// Arrivals required to fire, and all arrivals ever expected.
    needed: u32,
    total: u32,
    /// Arrivals seen so far (counted and stragglers).
    arrived: u32,
    /// Whether the barrier has fired; set exactly once.
    fired: bool,
    /// Earliest issue time over counted arrivals' producers.
    min_issue: SimTime,
    /// Counted arrivals' transfers, in arrival order.
    arrivals: Vec<XferInfo>,
}

/// Latency accumulator of one join node.
#[derive(Debug, Default)]
struct JoinAccum {
    /// Per-branch latencies: producer issue to barrier arrival, ms.
    branch_ms: Vec<f64>,
    /// Per-firing latencies: earliest counted issue to fire, ms.
    join_ms: Vec<f64>,
    stragglers: u64,
    fired: u64,
}

/// Everything the cloud records about one workflow node, created by
/// [`CloudSim::deploy_dag`](crate::cloud::CloudSim::deploy_dag).
/// Recording draws no randomness and schedules no events.
#[derive(Debug, Default)]
struct NodeRecord {
    counters: DagNodeCounters,
    /// Stage latency (`total − chain`) of every successful completion, ms.
    stage_ms: Vec<f64>,
    /// Barrier accounting; `Some` exactly for join nodes.
    join: Option<JoinAccum>,
}

/// Exact nearest-rank quantiles `qs` of `samples` (0 when empty), from
/// one sort: the node records hold every sample, so no sketch is needed
/// (and the exactness keeps the pins stable).
fn nearest_ranks<const N: usize>(samples: &[f64], qs: [f64; N]) -> [f64; N] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    qs.map(|q| {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    })
}

/// What a branch arrival did at its join barrier.
#[derive(Debug)]
pub(crate) enum Arrival {
    /// Counted; the barrier waits for more.
    Waiting,
    /// The barrier had already fired: the producer resumes now.
    Straggler,
    /// This arrival fired the barrier: spawn the join request over the
    /// counted arrivals' transfers, in arrival order.
    Fired(Vec<XferInfo>),
}

/// The inbound transfer of a fired join: storage mode if any counted edge
/// used storage, the total bytes over counted edges and the earliest send,
/// from the firing (last counted) producer. It drives the consumer-side
/// cost model; each edge still records its own transfer sample.
pub(crate) fn join_inbound(arrivals: &[XferInfo]) -> XferInfo {
    let storage = arrivals.iter().any(|a| a.mode == TransferMode::Storage);
    XferInfo {
        mode: if storage { TransferMode::Storage } else { TransferMode::Inline },
        payload_bytes: arrivals.iter().map(|a| a.payload_bytes).sum(),
        send_start: arrivals.iter().map(|a| a.send_start).min().expect("fired with no arrivals"),
        ..*arrivals.last().expect("fired with no arrivals")
    }
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct WorkflowTable {
    /// Node records keyed by function index.
    nodes: BTreeMap<u32, NodeRecord>,
    /// Join barriers keyed by `(workflow root packed id, join function
    /// index)`. BTreeMaps throughout: iteration and removal order must be
    /// deterministic — it feeds slot-reuse order, which feeds trace
    /// digests.
    barriers: BTreeMap<(u64, u32), JoinBarrier>,
    /// Counted inbound transfers of each fired join request (packed id):
    /// per-edge samples at assignment, producers to resume at completion.
    joins: BTreeMap<u64, Vec<XferInfo>>,
    /// DAG children spawned by each producer (packed id), for the
    /// cancellation cascade; cleared when its obligations resolve.
    children: BTreeMap<u64, Vec<RequestId>>,
    /// Transfers and barrier parameters `(k, n)` of in-flight join
    /// arrivals, keyed by `(producer packed id, join function index)` so
    /// the event itself stays a two-id `Copy`.
    pending: BTreeMap<(u64, u32), (XferInfo, (u32, u32))>,
    /// Edge-payload stream. Forked unconditionally — forking hashes the
    /// label without advancing the parent — and drawn only by sampled
    /// payloads: a constant payload (every chain hop) draws nothing.
    rng: Rng,
}

impl WorkflowTable {
    pub(crate) fn new(rng: Rng) -> WorkflowTable {
        WorkflowTable {
            nodes: BTreeMap::new(),
            barriers: BTreeMap::new(),
            joins: BTreeMap::new(),
            children: BTreeMap::new(),
            pending: BTreeMap::new(),
            rng,
        }
    }

    pub(crate) fn add_node(&mut self, fid: FunctionId, is_join: bool) {
        let join = is_join.then(JoinAccum::default);
        self.nodes.insert(fid.0, NodeRecord { join, ..NodeRecord::default() });
    }

    /// Only workflow nodes have edges, so every internal request and join
    /// arrival targets one.
    fn node_mut(&mut self, fid: FunctionId) -> &mut NodeRecord {
        self.nodes.get_mut(&fid.0).expect("not a workflow node")
    }

    /// Samples the payload of one fork along `edge`, bytes; inline
    /// payloads are clamped to `inline_cap`.
    pub(crate) fn payload_bytes(&mut self, edge: &RuntimeEdge, inline_cap: u64) -> u64 {
        let bytes = edge.payload.sample(&mut self.rng).round().max(1.0) as u64;
        if edge.mode == TransferMode::Inline {
            bytes.min(inline_cap)
        } else {
            bytes
        }
    }

    /// Records `child`, an internal request of node `fid`, as spawned by
    /// `producer`.
    pub(crate) fn adopt(&mut self, producer: RequestId, child: RequestId, fid: FunctionId) {
        self.node_mut(fid).counters.spawned += 1;
        self.children.entry(producer.packed()).or_default().push(child);
    }

    /// The children `producer` spawned and has not yet resolved.
    pub(crate) fn children(&self, producer: RequestId) -> &[RequestId] {
        self.children.get(&producer.packed()).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn drop_children(&mut self, producer: RequestId) {
        self.children.remove(&producer.packed());
    }

    /// Parks transfer `xfer` bound for join `jfid`, which fires at `k`
    /// of `n` arrivals, until the arrival event.
    pub(crate) fn send(&mut self, jfid: FunctionId, xfer: XferInfo, k_of_n: (u32, u32)) {
        self.pending.insert((xfer.parent.packed(), jfid.0), (xfer, k_of_n));
    }

    /// Takes the transfer `producer` parked for join `jfid`; `None` when
    /// its workflow was torn down in flight.
    pub(crate) fn take_pending(
        &mut self,
        producer: RequestId,
        jfid: FunctionId,
    ) -> Option<(XferInfo, (u32, u32))> {
        self.pending.remove(&(producer.packed(), jfid.0))
    }

    /// Transfer `xfer` of a branch of the workflow rooted at `root`,
    /// issued at `issued_at`, reaches join `jfid` at `now`. Counted
    /// arrivals accumulate until the k-th fires the barrier — exactly once
    /// per (workflow, join) — and later arrivals are stragglers.
    pub(crate) fn arrive(
        &mut self,
        now: SimTime,
        root: RequestId,
        jfid: FunctionId,
        (xfer, (needed, total)): (XferInfo, (u32, u32)),
        issued_at: SimTime,
    ) -> Arrival {
        let accum = self.nodes.get_mut(&jfid.0).and_then(|n| n.join.as_mut()).expect("not a join");
        accum.branch_ms.push((now - issued_at).as_millis());
        let key = (root.packed(), jfid.0);
        let barrier = self.barriers.entry(key).or_insert(JoinBarrier {
            needed,
            total,
            arrived: 0,
            fired: false,
            min_issue: issued_at,
            arrivals: Vec::new(),
        });
        barrier.arrived += 1;
        let done = barrier.arrived == barrier.total;
        if barrier.fired {
            if done {
                self.barriers.remove(&key);
            }
            accum.stragglers += 1;
            return Arrival::Straggler;
        }
        barrier.min_issue = barrier.min_issue.min(issued_at);
        barrier.arrivals.push(xfer);
        if barrier.arrived < barrier.needed {
            return Arrival::Waiting;
        }
        barrier.fired = true;
        let min_issue = barrier.min_issue;
        let arrivals = std::mem::take(&mut barrier.arrivals);
        if done {
            self.barriers.remove(&key);
        }
        accum.join_ms.push((now - min_issue).as_millis());
        accum.fired += 1;
        Arrival::Fired(arrivals)
    }

    /// Binds fired join request `jrid` to its counted arrivals.
    pub(crate) fn bind_join(&mut self, jrid: RequestId, arrivals: Vec<XferInfo>) {
        self.joins.insert(jrid.packed(), arrivals);
    }

    /// The counted inbound transfers of `rid` when it is a fired join.
    pub(crate) fn join_edges(&self, rid: RequestId) -> Option<&[XferInfo]> {
        self.joins.get(&rid.packed()).map(Vec::as_slice)
    }

    /// Unbinds `rid` when it is a fired join, returning the producers
    /// blocked on it in arrival order.
    pub(crate) fn take_join(&mut self, rid: RequestId) -> Vec<RequestId> {
        let arrivals = self.joins.remove(&rid.packed()).unwrap_or_default();
        arrivals.iter().map(|a| a.parent).collect()
    }

    /// Tears down every barrier of the workflow rooted at `root`,
    /// returning the producers recorded as arrivals, in key then arrival
    /// order.
    pub(crate) fn drop_barriers(&mut self, root: RequestId) -> Vec<RequestId> {
        let key = root.packed();
        let keys: Vec<(u64, u32)> =
            self.barriers.range((key, 0)..=(key, u32::MAX)).map(|(k, _)| *k).collect();
        let barriers = keys.iter().map(|k| self.barriers.remove(k).expect("key just listed"));
        barriers.flat_map(|b| b.arrivals).map(|a| a.parent).collect()
    }

    pub(crate) fn record_cancelled(&mut self, fid: FunctionId) {
        self.node_mut(fid).counters.cancelled += 1;
    }

    /// Books an internal completion (never an error) of node `fid`.
    pub(crate) fn record_completed(&mut self, fid: FunctionId, breakdown: &Breakdown) {
        let node = self.node_mut(fid);
        node.counters.completed += 1;
        node.stage_ms.push(breakdown.total_ms() - breakdown.chain_ms);
    }

    /// Books an error-free external completion of `fid` if it is a node.
    pub(crate) fn record_root(&mut self, fid: FunctionId, breakdown: &Breakdown) {
        if let Some(node) = self.nodes.get_mut(&fid.0) {
            node.stage_ms.push(breakdown.total_ms() - breakdown.chain_ms);
        }
    }

    pub(crate) fn stage_stats(&self, fid: FunctionId) -> Option<StageLatency> {
        let stage_ms = &self.nodes.get(&fid.0)?.stage_ms;
        let [median_ms, p99_ms] = nearest_ranks(stage_ms, [0.5, 0.99]);
        Some(StageLatency { count: stage_ms.len() as u64, median_ms, p99_ms })
    }

    pub(crate) fn join_stats(&self, fid: FunctionId) -> Option<JoinStats> {
        let acc = self.nodes.get(&fid.0)?.join.as_ref()?;
        let [branch_p99_ms] = nearest_ranks(&acc.branch_ms, [0.99]);
        let [join_p99_ms] = nearest_ranks(&acc.join_ms, [0.99]);
        Some(JoinStats {
            function: fid,
            fired: acc.fired,
            stragglers: acc.stragglers,
            branch_samples: acc.branch_ms.len() as u64,
            branch_p99_ms,
            join_p99_ms,
            amplification: if branch_p99_ms > 0.0 { join_p99_ms / branch_p99_ms } else { 0.0 },
        })
    }

    pub(crate) fn all_join_stats(&self) -> Vec<JoinStats> {
        self.nodes.keys().filter_map(|&f| self.join_stats(FunctionId(f))).collect()
    }

    pub(crate) fn node_counters(&self) -> Vec<(FunctionId, DagNodeCounters)> {
        self.nodes.iter().map(|(&f, node)| (FunctionId(f), node.counters)).collect()
    }

    /// Barrier firings and stragglers summed over every join node.
    pub(crate) fn join_totals(&self) -> (u64, u64) {
        let joins = self.nodes.values().filter_map(|node| node.join.as_ref());
        joins.fold((0, 0), |(fired, late), acc| (fired + acc.fired, late + acc.stragglers))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.barriers.is_empty()
            && self.joins.is_empty()
            && self.children.is_empty()
            && self.pending.is_empty()
    }
}
