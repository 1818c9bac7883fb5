//! Hot/cold split storage for per-request state.
//!
//! Every lifecycle event starts by touching a handful of request fields:
//! the cancelled/done flags, the function and instance binding, and the
//! pending timestamps. The rest of the state — the thirteen-component
//! [`Breakdown`], chain bookkeeping, span ids — is consulted only at
//! lifecycle boundaries (assignment, chain hand-off, completion).
//! [`RequestArena`] therefore keeps two parallel slabs indexed by the same
//! slot: a packed [`HotReq`] array the per-event checks stream through,
//! and a [`ColdReq`] side array whose cache lines are pulled in only when
//! a boundary actually needs them.
//!
//! Slots are generational: freeing a slot bumps its generation so a
//! retired [`RequestId`] can never alias the slot's next occupant. The
//! hot entry carries the generation (it is read on every access anyway);
//! liveness is a flag bit, not an `Option`, so the hot array stays
//! densely packed `Copy` data with no drop glue.

use simkit::time::SimTime;

use crate::request::{Breakdown, RequestOrigin, TransferSample};
use crate::types::{FunctionId, InstanceId, RequestId, TransferMode};

/// Lifecycle flag bits of a [`HotReq`].
pub(crate) mod flags {
    /// Slot is occupied by a live request.
    pub const LIVE: u8 = 1 << 0;
    /// Client cancelled the request; handlers retire it on next touch.
    pub const CANCELLED: u8 = 1 << 1;
    /// Completion already recorded (double-completion guard).
    pub const DONE: u8 = 1 << 2;
    /// The request waited on a cold start.
    pub const COLD: u8 = 1 << 3;
    /// Admission control shed the request.
    pub const SHED: u8 = 1 << 4;
}

/// Per-event-hot request state: everything the frequent handler prologues
/// (cancelled checks, instance lookups, wait accounting) read or write.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotReq {
    /// Slot generation stamped into ids handed out for this slot.
    pub generation: u32,
    /// The invoked function.
    pub function: FunctionId,
    /// Lifecycle flag bits (see [`flags`]).
    pub flags: u8,
    /// Instance currently bound to the request.
    pub instance: Option<InstanceId>,
    /// When the request entered the pending queue / triggered its spawn.
    pub wait_started: Option<SimTime>,
    /// When the client issued the request.
    pub issued_at: SimTime,
}

// One hot entry per cache line: the per-event prologue touches exactly one
// line per request. Growing past 64 bytes silently halves that density.
const _: () = assert!(std::mem::size_of::<HotReq>() <= 64);

impl HotReq {
    pub fn live(&self) -> bool {
        self.flags & flags::LIVE != 0
    }

    pub fn cancelled(&self) -> bool {
        self.flags & flags::CANCELLED != 0
    }

    pub fn set_cancelled(&mut self) {
        self.flags |= flags::CANCELLED;
    }

    pub fn done(&self) -> bool {
        self.flags & flags::DONE != 0
    }

    pub fn set_done(&mut self) {
        self.flags |= flags::DONE;
    }

    /// Whether the request waited on a cold start.
    pub fn cold_start(&self) -> bool {
        self.flags & flags::COLD != 0
    }

    pub fn set_cold_start(&mut self) {
        self.flags |= flags::COLD;
    }

    pub fn shed(&self) -> bool {
        self.flags & flags::SHED != 0
    }

    pub fn set_shed(&mut self) {
        self.flags |= flags::SHED;
    }
}

/// Cross-function data transfer info attached to a consumer request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XferInfo {
    pub mode: TransferMode,
    pub payload_bytes: u64,
    pub send_start: SimTime,
    pub parent: RequestId,
    pub parent_tag: u64,
}

impl XferInfo {
    /// The transfer sample of this payload, in the consumer's hands at
    /// `received`.
    pub fn received_at(self, received: SimTime) -> TransferSample {
        let XferInfo { mode, payload_bytes, send_start, parent, parent_tag } = self;
        TransferSample { parent, parent_tag, mode, payload_bytes, send_start, received }
    }
}

/// Lifecycle-boundary request state: touched at creation, assignment,
/// chain hand-offs and completion, never by the per-event prologues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColdReq {
    pub origin: RequestOrigin,
    /// User-assigned tag (round number, burst position, …).
    pub tag: u64,
    pub breakdown: Breakdown,
    /// Warm-path overhead draw, apportioned across components by share.
    pub warm_overhead_ms: f64,
    /// Incoming transfer to account at execution start (consumer side).
    pub xfer_in: Option<XferInfo>,
    /// Outgoing chain call start (producer side), set at `ComputeDone`.
    pub chain_started: Option<SimTime>,
    /// Root span id (allocated at creation when tracing is on).
    pub root_span: Option<u64>,
    /// Chain span id, pre-allocated at `ComputeDone` so it precedes the
    /// child's root span in allocation order.
    pub chain_span: Option<u64>,
    /// Provider-style error injected into this request (fault plan),
    /// carried into its [`crate::request::Completion`].
    pub error: Option<u16>,
    /// Unresolved obligations (direct children and join arrivals) this
    /// request forked at `ComputeDone` — one for a chain producer, one
    /// per out-edge for a fan-out; the instance is released once the
    /// count drains to zero.
    pub dag_pending: u32,
    /// The external root of the workflow this request belongs to; `None`
    /// for external requests themselves (a root's workflow key is its own
    /// id) and for requests outside any workflow. Keys the join barriers.
    pub wf_root: Option<RequestId>,
}

impl ColdReq {
    /// A fresh cold entry for a just-created request.
    pub fn new(
        origin: RequestOrigin,
        tag: u64,
        xfer_in: Option<XferInfo>,
        root_span: Option<u64>,
    ) -> ColdReq {
        ColdReq {
            origin,
            tag,
            breakdown: Breakdown::default(),
            warm_overhead_ms: 0.0,
            xfer_in,
            chain_started: None,
            root_span,
            chain_span: None,
            error: None,
            dag_pending: 0,
            wf_root: None,
        }
    }
}

/// Occupancy counters of the request slab (see
/// [`crate::cloud::CloudSim::request_slab_stats`]).
///
/// `live` and `high_water` track simultaneously-occupied slots, so a
/// streaming run over millions of invocations should report a
/// `high_water` bounded by the submission slice, not the total request
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestSlabStats {
    /// Slots allocated fresh (slab growth).
    pub slots_allocated: u64,
    /// Request creations served by recycling a freed slot.
    pub slots_reused: u64,
    /// Currently occupied slots.
    pub live: u64,
    /// Peak simultaneously occupied slots.
    pub high_water: u64,
}

/// Generational hot/cold request slab (see module docs).
#[derive(Debug, Default)]
pub(crate) struct RequestArena {
    /// Per-event-hot entries; `hot[i]` pairs with `cold[i]`.
    hot: Vec<HotReq>,
    /// Lifecycle-boundary entries, parallel to `hot`.
    cold: Vec<ColdReq>,
    /// Freed slot indices awaiting reuse (LIFO keeps hot slots hot).
    free: Vec<u32>,
    stats: RequestSlabStats,
}

impl RequestArena {
    /// Creates a request, recycling a freed slot when one is available.
    pub fn create(&mut self, function: FunctionId, issued_at: SimTime, cold: ColdReq) -> RequestId {
        let id = match self.free.pop() {
            Some(slot) => {
                self.stats.slots_reused += 1;
                let hot = &mut self.hot[slot as usize];
                debug_assert!(!hot.live(), "free list pointed at a live slot");
                let generation = hot.generation;
                *hot = HotReq {
                    generation,
                    function,
                    flags: flags::LIVE,
                    instance: None,
                    wait_started: None,
                    issued_at,
                };
                self.cold[slot as usize] = cold;
                RequestId::new(slot, generation)
            }
            None => {
                let slot = self.hot.len() as u32;
                self.stats.slots_allocated += 1;
                self.hot.push(HotReq {
                    generation: 0,
                    function,
                    flags: flags::LIVE,
                    instance: None,
                    wait_started: None,
                    issued_at,
                });
                self.cold.push(cold);
                RequestId::new(slot, 0)
            }
        };
        self.stats.live += 1;
        self.stats.high_water = self.stats.high_water.max(self.stats.live);
        id
    }

    pub fn hot(&self, rid: RequestId) -> &HotReq {
        let hot = &self.hot[rid.index()];
        debug_assert_eq!(hot.generation, rid.generation(), "stale request id {rid}");
        assert!(hot.live(), "request slot is empty");
        hot
    }

    pub fn hot_mut(&mut self, rid: RequestId) -> &mut HotReq {
        let hot = &mut self.hot[rid.index()];
        debug_assert_eq!(hot.generation, rid.generation(), "stale request id {rid}");
        assert!(hot.live(), "request slot is empty");
        hot
    }

    pub fn cold(&self, rid: RequestId) -> &ColdReq {
        let hot = &self.hot[rid.index()];
        debug_assert_eq!(hot.generation, rid.generation(), "stale request id {rid}");
        assert!(hot.live(), "request slot is empty");
        &self.cold[rid.index()]
    }

    pub fn cold_mut(&mut self, rid: RequestId) -> &mut ColdReq {
        let hot = &self.hot[rid.index()];
        debug_assert_eq!(hot.generation, rid.generation(), "stale request id {rid}");
        assert!(hot.live(), "request slot is empty");
        &mut self.cold[rid.index()]
    }

    /// Whether `rid` still refers to a live request (its slot occupied
    /// and its generation current). A cancel racing a completion makes
    /// stale ids an expected input, not a bug.
    pub fn is_live(&self, rid: RequestId) -> bool {
        self.hot
            .get(rid.index())
            .is_some_and(|hot| hot.generation == rid.generation() && hot.live())
    }

    /// Retires a finished request: copies out both halves of its state,
    /// bumps the slot generation (so the retired id can never alias the
    /// next occupant) and returns the slot to the free list.
    pub fn free(&mut self, rid: RequestId) -> (HotReq, ColdReq) {
        let hot = &mut self.hot[rid.index()];
        debug_assert_eq!(hot.generation, rid.generation(), "freeing stale request id {rid}");
        assert!(hot.live(), "freeing an empty request slot");
        let taken = *hot;
        hot.flags = 0;
        hot.generation = hot.generation.wrapping_add(1);
        self.free.push(rid.index() as u32);
        self.stats.live -= 1;
        (taken, self.cold[rid.index()])
    }

    /// Pre-sizes both slabs for `additional` more live requests.
    pub fn reserve(&mut self, additional: usize) {
        self.hot.reserve(additional);
        self.cold.reserve(additional);
    }

    /// Occupancy counters.
    pub fn stats(&self) -> RequestSlabStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::types::FunctionId;

    fn fid() -> FunctionId {
        FunctionId::from_raw_for_tests(0)
    }

    fn admit(arena: &mut RequestArena, tag: u64) -> RequestId {
        let cold = ColdReq::new(RequestOrigin::External, tag, None, None);
        arena.create(fid(), SimTime::from_nanos(tag), cold)
    }

    #[test]
    fn create_free_recycles_slots_with_bumped_generation() {
        let mut arena = RequestArena::default();
        let a = admit(&mut arena, 1);
        assert_eq!(a.generation(), 0);
        assert!(arena.is_live(a));
        let (hot, cold) = arena.free(a);
        assert!(hot.live(), "returned copy reflects pre-free state");
        assert_eq!(cold.tag, 1);
        assert!(!arena.is_live(a), "freed id is stale");

        let b = admit(&mut arena, 2);
        assert_eq!(b.index(), a.index(), "slot recycled");
        assert_eq!(b.generation(), 1, "generation bumped");
        assert!(arena.is_live(b));
        assert!(!arena.is_live(a), "old id never aliases the new occupant");
        let stats = arena.stats();
        assert_eq!(stats.slots_allocated, 1);
        assert_eq!(stats.slots_reused, 1);
        assert_eq!(stats.live, 1);
        assert_eq!(stats.high_water, 1);
    }

    // Debug builds trip the generation debug_assert ("stale request id"),
    // release builds the liveness assert ("request slot is empty") — either
    // way a freed id must not hand out state.
    #[test]
    #[should_panic]
    fn hot_access_to_freed_slot_panics() {
        let mut arena = RequestArena::default();
        let a = admit(&mut arena, 0);
        arena.free(a);
        let _ = arena.hot(a);
    }

    /// Interpreted op stream for the lockstep property: admit new
    /// requests, mutate live ones through both halves, and free them in
    /// arbitrary order.
    #[derive(Debug, Clone)]
    enum Op {
        Admit,
        /// Cancel the k-th live request (mod live count).
        Cancel(usize),
        /// Complete (free) the k-th live request.
        Complete(usize),
        /// Inject a fault error into the k-th live request.
        Fault(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Admit twice: biasing toward growth keeps the live set populated
        // so cancels/completes/faults mostly hit occupied slots.
        prop_oneof![
            Just(Op::Admit),
            Just(Op::Admit),
            (0usize..64).prop_map(Op::Cancel),
            (0usize..64).prop_map(Op::Complete),
            (0usize..64).prop_map(Op::Fault),
        ]
    }

    proptest! {
        /// Random admit/cancel/complete/fault interleavings keep the hot
        /// arena and cold side-array in lockstep: same length, liveness
        /// agrees with a model set, generations bump on free, retired ids
        /// stay stale, and the stats counters obey conservation laws.
        #[test]
        fn hot_and_cold_stay_in_lockstep(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut arena = RequestArena::default();
            let mut live: Vec<RequestId> = Vec::new();
            let mut retired: Vec<RequestId> = Vec::new();
            let mut created = 0u64;
            let mut tag = 0u64;

            for op in ops {
                match op {
                    Op::Admit => {
                        let rid = admit(&mut arena, tag);
                        prop_assert_eq!(arena.cold(rid).tag, tag);
                        prop_assert!(arena.hot(rid).live());
                        prop_assert!(!arena.hot(rid).cancelled());
                        live.push(rid);
                        created += 1;
                        tag += 1;
                    }
                    Op::Cancel(k) if !live.is_empty() => {
                        let rid = live[k % live.len()];
                        arena.hot_mut(rid).set_cancelled();
                        prop_assert!(arena.hot(rid).cancelled());
                        prop_assert!(arena.is_live(rid), "cancel does not free");
                    }
                    Op::Fault(k) if !live.is_empty() => {
                        let rid = live[k % live.len()];
                        arena.cold_mut(rid).error = Some(503);
                        prop_assert_eq!(arena.cold(rid).error, Some(503));
                    }
                    Op::Complete(k) if !live.is_empty() => {
                        let rid = live.swap_remove(k % live.len());
                        let expected_tag = arena.cold(rid).tag;
                        let gen_before = arena.hot(rid).generation;
                        let (hot, cold) = arena.free(rid);
                        prop_assert_eq!(hot.generation, rid.generation());
                        prop_assert_eq!(cold.tag, expected_tag, "cold half desynced from slot");
                        prop_assert!(!arena.is_live(rid));
                        prop_assert_eq!(
                            arena.hot[rid.index()].generation,
                            gen_before.wrapping_add(1),
                            "generation must bump on free"
                        );
                        retired.push(rid);
                    }
                    _ => {} // mutation of an empty arena: no-op
                }

                // Lockstep and conservation invariants after every op.
                prop_assert_eq!(arena.hot.len(), arena.cold.len());
                let stats = arena.stats();
                prop_assert_eq!(stats.live, live.len() as u64);
                prop_assert_eq!(stats.slots_allocated, arena.hot.len() as u64);
                prop_assert_eq!(stats.slots_allocated + stats.slots_reused, created);
                prop_assert!(stats.high_water >= stats.live);
                prop_assert_eq!(arena.free.len() as u64, stats.slots_allocated - stats.live);
                let occupied = arena.hot.iter().filter(|h| h.live()).count() as u64;
                prop_assert_eq!(occupied, stats.live, "flag liveness disagrees with counter");
                for rid in &live {
                    prop_assert!(arena.is_live(*rid));
                }
                for rid in &retired {
                    prop_assert!(!arena.is_live(*rid), "retired id resurrected");
                }
                // Free-list validity: every entry points at a dead slot,
                // no duplicates.
                let mut seen = std::collections::HashSet::new();
                for &slot in &arena.free {
                    prop_assert!(!arena.hot[slot as usize].live(), "free list points at live slot");
                    prop_assert!(seen.insert(slot), "duplicate free-list entry");
                }
            }
        }
    }
}
