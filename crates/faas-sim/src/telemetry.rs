//! Telemetry: span tracing, the fleet timeline and the metrics registry.
//!
//! [`Telemetry`] owns every observer of a cloud run. Recording draws no
//! randomness and schedules no events, so enabling an observer never
//! changes simulated results.

use simkit::metrics::Metrics;
use simkit::time::SimTime;
use simkit::trace::{SpanRecord, TraceSink, Tracer};

use crate::scheduler::CapacitySnapshot;
use crate::types::{FunctionId, RequestId};

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

/// Counter and gauge names of the cloud's metrics registry (see
/// [`crate::cloud::CloudSim::metrics`]). A *derived* counter is not booked
/// in the registry: its value is read from the typed counter that owns
/// the fact, so the two can never disagree.
pub mod metric {
    /// External requests submitted; derived from `CloudStats::submitted`.
    pub const REQUESTS_SUBMITTED: &str = "requests_submitted";
    /// External requests completed; derived from `CloudStats::completed`.
    pub const REQUESTS_COMPLETED: &str = "requests_completed";
    /// Instance boots started; derived from `CloudStats::spawns`.
    pub const INSTANCES_SPAWNED: &str = "instances_spawned";
    /// Requests whose instance served them as its first use.
    pub const COLD_STARTS: &str = "cold_starts";
    /// Requests served by an already-used instance.
    pub const WARM_STARTS: &str = "warm_starts";
    /// Image fetches answered from a warm cache; derived from `ImageStoreStats::warm_hits`.
    pub const IMAGE_CACHE_HITS: &str = "image_cache_hits";
    /// Image fetches that missed the cache.
    /// Derived from `ImageStoreStats::fetches` minus `warm_hits`.
    pub const IMAGE_CACHE_MISSES: &str = "image_cache_misses";
    /// Boots that failed at completion and were retried; derived from `CloudStats::boot_failures`.
    pub const BOOT_FAILURE_RETRIES: &str = "boot_failure_retries";
    /// Requests cancelled by the client (tail-tolerance policies).
    /// Derived from `CancelStats::cancelled`.
    pub const REQUESTS_CANCELLED: &str = "requests_cancelled";
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
    /// Derived from `FaultStats::injected`.
    pub const FAULTS_INJECTED: &str = "faults_injected";
    /// Requests rejected at the front end with a transient error.
    /// Derived from `FaultStats::transient_errors`.
    pub const FAULTS_TRANSIENT_ERRORS: &str = "faults_transient_errors";
    /// Executions killed mid-flight by an injected instance crash.
    /// Derived from `FaultStats::crashes`.
    pub const FAULTS_CRASHES: &str = "faults_crashes";
    /// Requests refused by admission control (queue-depth shedding),
    /// counted at the shed decision. `FaultStats::shed` is a different
    /// fact: it counts the terminal bucket at completion, so a shed
    /// request cancelled before its rejection lands is counted here only.
    pub const FAULTS_SHED: &str = "faults_shed";
    /// Idle instances reaped by purge-storm events; derived from `FaultStats::purged_instances`.
    pub const FAULTS_PURGED_INSTANCES: &str = "faults_purged_instances";
    /// Out-edges forked by producers: chain hops, fan-out children and
    /// join-barrier arrivals.
    pub const DAG_INVOCATIONS: &str = "dag_invocations";
    /// Join barriers fired; derived from the join records' firings.
    pub const JOINS_FIRED: &str = "joins_fired";
    /// Branch arrivals that reached a k-of-n join after it fired.
    /// Derived from the join records' stragglers.
    pub const JOIN_STRAGGLERS: &str = "join_stragglers";

    /// Names one profile counter per [`crate::events::CloudEvent`]
    /// variant, in `CLASS_NAMES` order.
    macro_rules! per_class {
        ($($class:literal),*) => {
            /// Per-event-class dispatch counts from a profiled run.
            /// Recorded by
            /// [`CloudSim::record_profile_metrics`](crate::cloud::CloudSim::record_profile_metrics);
            /// absent unless profiling was enabled.
            pub const PROFILE_COUNT: [&str; 13] = [$(concat!("profile_count_", $class)),*];
            /// Per-event-class wall-clock cost in nanoseconds (pop +
            /// dispatch + handler), parallel to [`PROFILE_COUNT`].
            pub const PROFILE_NS: [&str; 13] = [$(concat!("profile_ns_", $class)),*];
        };
    }
    crate::events::event_classes!(per_class);
    /// Total wall-clock nanoseconds of the profiled event loop; the
    /// denominator of the cost table's coverage figure.
    pub const PROFILE_LOOP_NS: &str = "profile_loop_ns";
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

/// The cloud's observers (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Telemetry {
    /// Span tracing; `None` (the default) costs one discriminant check
    /// per emission site.
    trace: Option<Tracer>,
    /// Sampling interval and samples, once the timeline is enabled.
    timeline: Option<(SimTime, Vec<TimelineSample>)>,
    /// Counters that no typed counter repeats, plus tick-sampled gauges.
    metrics: Metrics,
}

impl Telemetry {
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    pub(crate) fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(Tracer::new(sink));
    }

    pub(crate) fn drain_spans(&mut self) -> Vec<SpanRecord> {
        self.trace.as_mut().map_or_else(Vec::new, Tracer::drain)
    }

    /// A fresh span id; `None` while tracing is off.
    pub(crate) fn alloc_span(&mut self) -> Option<u64> {
        self.trace.as_mut().map(Tracer::alloc_id)
    }

    /// Emits a span of `request` under `parent`: span `id` when given (a
    /// root or chain span, allocated when its request or fork began), a
    /// fresh one otherwise. A fresh span needs a parent, so requests
    /// created before tracing started emit nothing.
    pub(crate) fn emit(
        &mut self,
        id: Option<u64>,
        parent: Option<u64>,
        request: RequestId,
        component: &'static str,
        (start, end): (SimTime, SimTime),
    ) {
        let Some(tracer) = &mut self.trace else { return };
        let Some(span_id) = id.or_else(|| parent.map(|_| tracer.alloc_id())) else { return };
        let request = request.packed();
        tracer.emit(SpanRecord { span_id, parent, request, component, start, end });
    }

    pub(crate) fn add(&mut self, name: &'static str, n: u64) {
        self.metrics.add(name, n);
    }

    pub(crate) fn registry(&self) -> &Metrics {
        &self.metrics
    }

    pub(crate) fn enable_timeline(&mut self, interval: SimTime) {
        self.timeline = Some((interval, Vec::new()));
    }

    pub(crate) fn timeline_interval(&self) -> Option<SimTime> {
        self.timeline.as_ref().map(|(interval, _)| *interval)
    }

    pub(crate) fn timeline(&self) -> &[TimelineSample] {
        self.timeline.as_ref().map_or(&[], |(_, samples)| samples.as_slice())
    }

    /// Records one fleet sample of `function`: a timeline entry and the
    /// queue-depth, live and booting gauges.
    pub(crate) fn sample(&mut self, at: SimTime, function: FunctionId, snap: CapacitySnapshot) {
        let Some((_, samples)) = &mut self.timeline else { return };
        let CapacitySnapshot { queued, busy, idle, booting } = snap;
        samples.push(TimelineSample { at, function, idle, busy, booting, queued });
        let key = u64::from(function.0);
        self.metrics.gauge(at, metric::QUEUE_DEPTH, key, f64::from(queued));
        self.metrics.gauge(at, metric::INSTANCES_LIVE, key, f64::from(idle + busy));
        self.metrics.gauge(at, metric::INSTANCES_BOOTING, key, f64::from(booting));
    }
}
