//! Events dispatched inside the cloud simulation.

use simkit::profile::EventClass;

use crate::types::{FunctionId, InstanceId, RequestId};

/// The event alphabet of the serverless cloud simulation.
///
/// Each variant corresponds to a hand-off point in the invocation
/// lifecycle of the paper's Fig 1.
///
/// `CloudEvent` is deliberately `Copy` and small: every variant carries
/// only plain ids, so moving payloads through the SoA event queues is a
/// trivial memcpy. The size assertion below keeps it that way — a variant
/// that needs more state should carry a slab id, not the state itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudEvent {
    /// The request reached the front-end fleet (step ①).
    FrontendArrive(RequestId),
    /// Front-end + routing processing finished; enter burst dispatch
    /// (step ②).
    RoutingDone(RequestId),
    /// The request cleared dispatch and is ready to be queued/served
    /// (step ③).
    Enqueued(RequestId),
    /// An instance finished booting (step ⑤ done).
    BootComplete(InstanceId),
    /// User compute of the request finished on the instance; chain hops
    /// happen next (steps ⑧–⑨).
    ComputeDone(RequestId, InstanceId),
    /// The request's work on the instance is fully done (including chain);
    /// the response leaves the instance.
    ExecDone(RequestId, InstanceId),
    /// The response reached the requester.
    Completed(RequestId),
    /// Client-side cancellation of an in-flight request (tail-tolerance
    /// policies): the request is dropped at this event boundary, freeing
    /// its instance if it was executing.
    Cancel(RequestId),
    /// The instance's keep-alive timer, carrying the sequence number of
    /// the deadline it was queued for. Each instance tracks one timer; a
    /// superseded one is ignored when it fires (see [`crate::instance`]).
    ReapCheck(InstanceId, u64),
    /// Periodic scale-controller tick for a function (Azure-style).
    ScaleTick(FunctionId),
    /// Telemetry sampling tick (enabled via `CloudSim::enable_timeline`).
    TelemetryTick,
    /// Keepalive-purge storm tick (fault injection): reaps every idle
    /// instance, then reschedules itself while the run is still active
    /// (work pending or a keep-alive deadline ahead).
    FaultStorm,
    /// A DAG branch produced by the request reaches the join barrier of
    /// the given fan-in function (delayed by the storage PUT for storage
    /// transfers). The k-th arrival fires the barrier.
    JoinArrive(RequestId, FunctionId),
}

// Queue payload moves must stay memcpy-trivial: two 8-byte ids plus the
// discriminant. See also the runtime regression test below.
const _: () = assert!(std::mem::size_of::<CloudEvent>() <= 24);

/// Invokes macro `$then` with the event-class names in variant order: the
/// one list behind `CLASS_NAMES` and the per-class profile metric names.
macro_rules! event_classes {
    ($then:ident) => {
        $then! {
            "frontend_arrive", "routing_done", "enqueued", "boot_complete", "compute_done",
            "exec_done", "completed", "cancel", "reap_check", "scale_tick", "telemetry_tick",
            "fault_storm", "join_arrive"
        }
    };
}
pub(crate) use event_classes;

macro_rules! array {
    ($($name:literal),*) => { [$($name),*] };
}

impl EventClass for CloudEvent {
    const CLASS_NAMES: &'static [&'static str] = &event_classes!(array);

    fn class(&self) -> usize {
        match self {
            CloudEvent::FrontendArrive(_) => 0,
            CloudEvent::RoutingDone(_) => 1,
            CloudEvent::Enqueued(_) => 2,
            CloudEvent::BootComplete(_) => 3,
            CloudEvent::ComputeDone(_, _) => 4,
            CloudEvent::ExecDone(_, _) => 5,
            CloudEvent::Completed(_) => 6,
            CloudEvent::Cancel(_) => 7,
            CloudEvent::ReapCheck(_, _) => 8,
            CloudEvent::ScaleTick(_) => 9,
            CloudEvent::TelemetryTick => 10,
            CloudEvent::FaultStorm => 11,
            CloudEvent::JoinArrive(_, _) => 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Future variants must not fatten the event past 24 bytes — every
    /// byte here is multiplied by heap sift traffic at 10^6 pending.
    #[test]
    fn cloud_event_stays_small() {
        assert!(
            std::mem::size_of::<CloudEvent>() <= 24,
            "CloudEvent grew to {} bytes",
            std::mem::size_of::<CloudEvent>()
        );
    }

    /// Every class index is in range and names are distinct — a new
    /// variant must extend CLASS_NAMES in enum order.
    #[test]
    fn event_classes_are_dense_and_named() {
        use crate::types::{FunctionId, InstanceId, RequestId};
        let rid = RequestId::new(0, 0);
        let iid = InstanceId { function: FunctionId::from_raw_for_tests(0), idx: 0 };
        let fid = FunctionId::from_raw_for_tests(0);
        let all = [
            CloudEvent::FrontendArrive(rid),
            CloudEvent::RoutingDone(rid),
            CloudEvent::Enqueued(rid),
            CloudEvent::BootComplete(iid),
            CloudEvent::ComputeDone(rid, iid),
            CloudEvent::ExecDone(rid, iid),
            CloudEvent::Completed(rid),
            CloudEvent::Cancel(rid),
            CloudEvent::ReapCheck(iid, 0),
            CloudEvent::ScaleTick(fid),
            CloudEvent::TelemetryTick,
            CloudEvent::FaultStorm,
            CloudEvent::JoinArrive(rid, fid),
        ];
        assert_eq!(all.len(), CloudEvent::CLASS_NAMES.len());
        for (i, ev) in all.iter().enumerate() {
            assert_eq!(ev.class(), i, "{ev:?} out of enum order");
        }
        let mut names: Vec<&str> = CloudEvent::CLASS_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CloudEvent::CLASS_NAMES.len(), "duplicate class name");
    }
}
