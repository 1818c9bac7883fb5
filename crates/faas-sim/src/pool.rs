//! The instance pool of one function.
//!
//! A pool holds every instance the function ever spawned (an instance's
//! index is its id, so dead slots stay), the requests waiting for them,
//! and what is derived from the instance states: the idle, busy and
//! booting counts, the idle stack, the least-loaded index and the usage
//! integrals. Each lifecycle transition — spawn, boot-complete,
//! fail-boot, assign, release, reap, purge and crash — is one method
//! that moves all of that state together. The pool draws no randomness
//! and schedules no events: the cloud's handlers decide when a
//! transition happens.

use std::collections::VecDeque;

use simkit::queue::FifoQueue;
use simkit::soa::EventKey;
use simkit::time::SimTime;

use crate::billing::ResourceUsage;
use crate::instance::{Instance, InstanceState, KeepAliveFire};
use crate::loadindex::LoadIndex;
use crate::request::ColdBreakdown;
use crate::scheduler::CapacitySnapshot;
use crate::types::{FunctionId, InstanceId, RequestId};

/// One instance and the requests bound to it.
#[derive(Debug)]
struct Slot {
    instance: Instance,
    /// Commitments queued behind the instance (committed-assignment
    /// policies: `PerRequest`, `TargetConcurrency`, `CostAware`).
    committed: VecDeque<RequestId>,
    /// The request this instance was spawned for after a load-balancer
    /// miss, assigned when the boot completes. It counts in the
    /// instance's load, so a committed policy does not queue another
    /// request behind a booting instance that already has one waiting.
    sticky: Option<RequestId>,
    /// Cold-start attribution of the boot, handed to the first request
    /// the instance serves.
    cold: Option<ColdBreakdown>,
}

/// See the module docs.
#[derive(Debug, Default)]
pub(crate) struct InstancePool {
    slots: Vec<Slot>,
    /// Shared pull queue (pull-style policies such as `Periodic`).
    queue: FifoQueue<RequestId>,
    /// Requests in all committed queues.
    committed_total: u32,
    /// Slots believed idle (validated on pop).
    idle_stack: Vec<u32>,
    /// Slot loads (commitments, the pinned request and the request in
    /// service), dead slots pinned out: answers "least loaded, lowest
    /// index" without scanning the dead slots that are never removed.
    loads: LoadIndex,
    idle: u32,
    busy: u32,
    booting: u32,
    /// Usage banked by closed spans; open spans count at snapshot time.
    usage: ResourceUsage,
}

impl InstancePool {
    /// An empty pool with room for `cap` instances.
    pub(crate) fn with_capacity(cap: usize) -> InstancePool {
        let (slots, idle_stack) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        InstancePool { slots, idle_stack, ..InstancePool::default() }
    }

    /// Instance counts by state plus the queued depth.
    pub(crate) fn snapshot(&self) -> CapacitySnapshot {
        CapacitySnapshot {
            queued: self.queued(),
            busy: self.busy,
            idle: self.idle,
            booting: self.booting,
        }
    }

    /// Requests waiting for an instance: the shared queue plus every
    /// committed queue.
    pub(crate) fn queued(&self) -> u32 {
        self.queue.len() as u32 + self.committed_total
    }

    /// Boots still allowed under a per-function instance cap of `max`.
    pub(crate) fn headroom(&self, max: u32) -> u32 {
        max.saturating_sub(self.idle + self.busy + self.booting)
    }

    pub(crate) fn is_idle(&self, idx: u32) -> bool {
        self.slots[idx as usize].instance.is_idle()
    }

    /// Idle with nothing committed behind it: a request can start now.
    pub(crate) fn is_free(&self, idx: u32) -> bool {
        let slot = &self.slots[idx as usize];
        slot.instance.is_idle() && slot.committed.is_empty()
    }

    /// When instance `idx` started serving `rid`; `None` unless it is.
    pub(crate) fn busy_since(&self, idx: u32, rid: RequestId) -> Option<SimTime> {
        let instance = &self.slots[idx as usize].instance;
        let serving = matches!(instance.state(), InstanceState::Busy { request } if request == rid);
        instance.busy_since().filter(|_| serving)
    }

    /// Starts booting a new instance that is ready at `ready_at`.
    pub(crate) fn spawn(
        &mut self,
        function: FunctionId,
        now: SimTime,
        ready_at: SimTime,
        cold: ColdBreakdown,
    ) -> InstanceId {
        let iid = InstanceId { function, idx: self.slots.len() as u32 };
        self.slots.push(Slot {
            instance: Instance::boot(iid, now, ready_at),
            committed: VecDeque::new(),
            sticky: None,
            cold: Some(cold),
        });
        self.loads.push(0);
        self.usage.spawns += 1;
        self.booting += 1;
        iid
    }

    /// Binds `rid` to booting instance `idx`, spawned for it.
    pub(crate) fn pin(&mut self, idx: u32, rid: RequestId) {
        self.slots[idx as usize].sticky = Some(rid);
        self.loads.add(idx as usize, 1);
    }

    /// `Booting → Idle`. Returns the request the instance was spawned
    /// for, if any.
    pub(crate) fn boot_complete(&mut self, idx: u32, now: SimTime) -> Option<RequestId> {
        let slot = &mut self.slots[idx as usize];
        slot.instance.boot_complete(now);
        self.booting -= 1;
        self.idle += 1;
        self.idle_stack.push(idx);
        let sticky = slot.sticky.take();
        if sticky.is_some() {
            self.loads.sub(idx as usize, 1);
        }
        sticky
    }

    /// `Booting → Dead`. The pinned request and the commitments move to
    /// `replacement`, the boot spawned in its place.
    pub(crate) fn fail_boot(&mut self, idx: u32, replacement: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.instance.fail_boot();
        let sticky = slot.sticky.take();
        let orphaned = std::mem::take(&mut slot.committed);
        self.loads.unlive(idx as usize);
        self.booting -= 1;
        let moved = orphaned.len() as u32 + u32::from(sticky.is_some());
        self.loads.add(replacement as usize, moved);
        let heir = &mut self.slots[replacement as usize];
        heir.sticky = sticky;
        heir.committed.extend(orphaned);
    }

    /// `Idle → Busy` on `rid`. Returns the boot's cold-start attribution
    /// when this is the instance's first request, `None` when it is warm.
    pub(crate) fn assign(
        &mut self,
        idx: u32,
        rid: RequestId,
        now: SimTime,
    ) -> Option<ColdBreakdown> {
        let slot = &mut self.slots[idx as usize];
        slot.instance.assign(rid, now);
        self.usage.requests += 1;
        self.idle -= 1;
        self.busy += 1;
        self.loads.add(idx as usize, 1);
        slot.cold.take()
    }

    /// `Busy → Idle` once `rid` is done.
    pub(crate) fn release(&mut self, idx: u32, rid: RequestId, now: SimTime) {
        let busy = self.slots[idx as usize].instance.release(rid, now);
        self.usage.busy_seconds += busy.as_secs();
        self.busy -= 1;
        self.idle += 1;
        self.loads.sub(idx as usize, 1);
        self.idle_stack.push(idx);
    }

    /// Instance `idx`'s keep-alive timer `seq` fired: `Idle → Dead` when
    /// it carries the current idle epoch's deadline.
    pub(crate) fn reap(&mut self, idx: u32, seq: u64, now: SimTime) -> KeepAliveFire {
        let fire = self.slots[idx as usize].instance.fire_keepalive(seq, now);
        if let KeepAliveFire::Reaped(lifetime) = fire {
            self.loads.unlive(idx as usize);
            self.usage.instance_seconds += lifetime.as_secs();
            self.idle -= 1;
        }
        fire
    }

    /// Kills every idle instance; returns how many died.
    pub(crate) fn purge(&mut self, now: SimTime) -> u64 {
        let mut purged = 0;
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if let Some(lifetime) = slot.instance.purge(now) {
                self.loads.unlive(idx);
                self.usage.instance_seconds += lifetime.as_secs();
                self.idle -= 1;
                purged += 1;
            }
        }
        purged
    }

    /// `Busy → Dead` in the middle of `rid`. Returns the commitments
    /// orphaned behind the dead instance.
    pub(crate) fn crash(&mut self, idx: u32, rid: RequestId, now: SimTime) -> VecDeque<RequestId> {
        let slot = &mut self.slots[idx as usize];
        let (busy, lifetime) = slot.instance.crash(rid, now);
        self.usage.busy_seconds += busy.as_secs();
        self.usage.instance_seconds += lifetime.as_secs();
        self.busy -= 1;
        self.loads.unlive(idx as usize);
        let orphaned = std::mem::take(&mut slot.committed);
        self.committed_total -= orphaned.len() as u32;
        orphaned
    }

    /// Queues `rid` behind instance `idx`.
    pub(crate) fn commit(&mut self, idx: u32, rid: RequestId) {
        self.slots[idx as usize].committed.push_back(rid);
        self.committed_total += 1;
        self.loads.add(idx as usize, 1);
    }

    /// Takes the next request committed to instance `idx`.
    pub(crate) fn next_commitment(&mut self, idx: u32) -> Option<RequestId> {
        let rid = self.slots[idx as usize].committed.pop_front()?;
        self.committed_total -= 1;
        self.loads.sub(idx as usize, 1);
        Some(rid)
    }

    /// The least-loaded live instance as `(load, idx)`, ties broken to
    /// the lowest index. Debug builds check the index against a recount
    /// of every live slot's load and against the linear scan.
    pub(crate) fn least_loaded(&self) -> Option<(u32, u32)> {
        let best = self.loads.min();
        #[cfg(debug_assertions)]
        {
            for (idx, &cached) in self.loads.loads().iter().enumerate() {
                if cached != u32::MAX {
                    debug_assert_eq!(cached, self.load(idx), "load cache desync at {idx}");
                }
            }
            let scan = crate::loadindex::scan_min(self.loads.loads());
            debug_assert_eq!(best, scan, "load index disagrees with the linear scan");
        }
        best.map(|(load, idx)| (load, idx as u32))
    }

    /// Ground-truth load of slot `idx`: commitments, the pinned request
    /// and the request in service.
    #[cfg(any(test, debug_assertions))]
    fn load(&self, idx: usize) -> u32 {
        let slot = &self.slots[idx];
        slot.committed.len() as u32
            + u32::from(slot.sticky.is_some())
            + u32::from(slot.instance.is_busy())
    }

    /// Appends `rid` to the shared queue.
    pub(crate) fn enqueue(&mut self, now: SimTime, rid: RequestId) {
        self.queue.push(now, rid);
    }

    /// Pairs the head of the shared queue with an idle instance, popping
    /// both; `None` while either is missing.
    pub(crate) fn next_pair(&mut self, now: SimTime) -> Option<(RequestId, u32)> {
        if self.queue.is_empty() {
            return None;
        }
        // The stack may hold stale entries from state changes since the
        // push; skip them.
        while let Some(idx) = self.idle_stack.pop() {
            if self.is_idle(idx) {
                return Some((self.queue.pop(now).expect("non-empty queue").item, idx));
            }
        }
        None
    }

    /// Hands idle instance `idx` back after its paired request turned
    /// out to be cancelled.
    pub(crate) fn return_idle(&mut self, idx: u32) {
        self.idle_stack.push(idx);
    }

    /// Records a keep-alive deadline for idle instance `idx`; returns the
    /// timer to queue, if any (see [`Instance::arm_keepalive`]).
    pub(crate) fn arm_keepalive(&mut self, idx: u32, key: EventKey) -> Option<EventKey> {
        self.slots[idx as usize].instance.arm_keepalive(key)
    }

    /// Usage with the spans still open accounted up to `now`.
    pub(crate) fn usage(&self, now: SimTime) -> ResourceUsage {
        let mut usage = self.usage;
        for slot in &self.slots {
            if let Some(since) = slot.instance.alive_since() {
                usage.instance_seconds += now.saturating_sub(since).as_secs();
            }
            if let Some(since) = slot.instance.busy_since() {
                usage.busy_seconds += now.saturating_sub(since).as_secs();
            }
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const S: fn(f64) -> SimTime = SimTime::from_secs;
    const F: FunctionId = FunctionId(0);

    fn rid(n: u64) -> RequestId {
        RequestId(n)
    }

    fn spawn(pool: &mut InstancePool, now: SimTime) -> u32 {
        pool.spawn(F, now, now, ColdBreakdown::default()).idx
    }

    /// Fires a keep-alive deadline for idle instance `idx` at `now`.
    fn reap_now(pool: &mut InstancePool, idx: u32, seq: u64, now: SimTime) -> KeepAliveFire {
        let timer = pool.arm_keepalive(idx, EventKey { at: now, seq });
        pool.reap(idx, timer.expect("no timer pending").seq, now)
    }

    #[test]
    fn lifetime_and_busy_integrals() {
        let mut pool = InstancePool::with_capacity(1);
        let i = spawn(&mut pool, S(0.0));
        pool.boot_complete(i, S(1.0));
        pool.assign(i, rid(1), S(2.0));
        pool.release(i, rid(1), S(3.5));
        assert_eq!(reap_now(&mut pool, i, 1, S(10.0)), KeepAliveFire::Reaped(S(9.0)));
        let u = pool.usage(S(20.0));
        assert!((u.instance_seconds - 9.0).abs() < 1e-9);
        assert!((u.busy_seconds - 1.5).abs() < 1e-9);
        assert_eq!(u.spawns, 1);
        assert_eq!(u.requests, 1);
        assert!((u.utilization() - 1.5 / 9.0).abs() < 1e-9);
        assert!((u.busy_ms_per_request() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn usage_accounts_live_instances() {
        let mut pool = InstancePool::with_capacity(1);
        let i = spawn(&mut pool, S(0.0));
        pool.boot_complete(i, S(0.0));
        pool.assign(i, rid(1), S(1.0));
        // Still alive and busy at snapshot time.
        let u = pool.usage(S(4.0));
        assert!((u.instance_seconds - 4.0).abs() < 1e-9);
        assert!((u.busy_seconds - 3.0).abs() < 1e-9);
        // The snapshot is non-destructive.
        let again = pool.usage(S(5.0));
        assert!((again.instance_seconds - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_usage_is_zero() {
        let u = InstancePool::with_capacity(0).usage(S(5.0));
        assert_eq!(u, ResourceUsage::default());
        assert_eq!(u.utilization(), 0.0);
        assert_eq!(u.busy_ms_per_request(), 0.0);
    }

    #[test]
    fn multiple_instances_accumulate() {
        let mut pool = InstancePool::with_capacity(3);
        for _ in 0..3 {
            let i = spawn(&mut pool, S(0.0));
            pool.boot_complete(i, S(0.0));
        }
        reap_now(&mut pool, 0, 1, S(2.0));
        reap_now(&mut pool, 1, 2, S(3.0));
        let u = pool.usage(S(5.0));
        // 2 + 3 + 5 (third still alive) = 10.
        assert!((u.instance_seconds - 10.0).abs() < 1e-9);
        assert_eq!(u.spawns, 3);
    }

    /// One pool transition; `k` picks an instance modulo the slot count,
    /// and a transition whose precondition fails is skipped.
    #[derive(Debug, Clone)]
    enum Op {
        Spawn,
        Boot(usize),
        FailBoot(usize),
        Pin(usize),
        Assign(usize),
        Commit(usize),
        Release(usize),
        Reap(usize),
        Purge,
        Crash(usize),
        Enqueue,
        ServeQueue,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Transitions that need a live instance weighted up, so sequences
        // reach busy and committed states often.
        let k = || 0usize..64;
        prop_oneof![
            Just(Op::Spawn),
            Just(Op::Spawn),
            k().prop_map(Op::Boot),
            k().prop_map(Op::Boot),
            k().prop_map(Op::FailBoot),
            k().prop_map(Op::Pin),
            k().prop_map(Op::Assign),
            k().prop_map(Op::Assign),
            k().prop_map(Op::Commit),
            k().prop_map(Op::Release),
            k().prop_map(Op::Release),
            k().prop_map(Op::Reap),
            Just(Op::Purge),
            k().prop_map(Op::Crash),
            Just(Op::Enqueue),
            Just(Op::ServeQueue),
        ]
    }

    /// Usage banked so far by the test's own bookkeeping: the span each
    /// transition closes, read from the instance's timestamps before the
    /// transition runs.
    #[derive(Default)]
    struct Banked {
        alive_s: f64,
        busy_s: f64,
        requests: u64,
    }

    impl Banked {
        fn close_alive(&mut self, inst: &Instance, now: SimTime) {
            self.alive_s += (now - inst.alive_since().expect("alive")).as_secs();
        }

        fn close_busy(&mut self, inst: &Instance, now: SimTime) {
            self.busy_s += (now - inst.busy_since().expect("busy")).as_secs();
        }
    }

    fn check(pool: &InstancePool, banked: &Banked, now: SimTime) -> Result<(), TestCaseError> {
        let insts = || pool.slots.iter().map(|slot| &slot.instance);
        let snap = pool.snapshot();
        prop_assert_eq!(snap.idle as usize, insts().filter(|i| i.is_idle()).count());
        prop_assert_eq!(snap.busy as usize, insts().filter(|i| i.is_busy()).count());
        prop_assert_eq!(snap.booting as usize, insts().filter(|i| i.is_booting()).count());
        let committed: usize = pool.slots.iter().map(|slot| slot.committed.len()).sum();
        prop_assert_eq!(pool.committed_total as usize, committed);
        prop_assert_eq!(snap.queued as usize, pool.queue.len() + committed);
        for (idx, slot) in pool.slots.iter().enumerate() {
            let cached = pool.loads.loads()[idx];
            if slot.instance.is_dead() {
                prop_assert_eq!(cached, u32::MAX, "dead slot {} still in the index", idx);
            } else {
                prop_assert_eq!(cached, pool.load(idx), "load of slot {}", idx);
            }
        }
        prop_assert_eq!(
            pool.least_loaded().map(|(load, idx)| (load, idx as usize)),
            crate::loadindex::scan_min(pool.loads.loads())
        );
        // Reference integrals: the closed spans the test banked plus the
        // open spans read from the instances' timestamps.
        let mut alive_s = banked.alive_s;
        let mut busy_s = banked.busy_s;
        for inst in insts() {
            alive_s += inst.alive_since().map_or(0.0, |since| (now - since).as_secs());
            busy_s += inst.busy_since().map_or(0.0, |since| (now - since).as_secs());
        }
        let usage = pool.usage(now);
        prop_assert!((usage.instance_seconds - alive_s).abs() < 1e-9);
        prop_assert!((usage.busy_seconds - busy_s).abs() < 1e-9);
        prop_assert_eq!(usage.spawns, pool.slots.len() as u64);
        prop_assert_eq!(usage.requests, banked.requests);
        Ok(())
    }

    proptest! {
        /// Random transition sequences keep the counts, the load index and
        /// the usage integrals in step with the instance states.
        #[test]
        fn transitions_keep_the_pool_consistent(
            ops in proptest::collection::vec((op_strategy(), 1u32..500), 1..200),
        ) {
            let mut pool = InstancePool::with_capacity(4);
            let mut banked = Banked::default();
            let mut now = S(0.0);
            let mut next_rid = 0;
            let mut fresh = || {
                next_rid += 1;
                rid(next_rid)
            };
            for (seq, (op, gap_ms)) in ops.into_iter().enumerate() {
                now += SimTime::from_millis(f64::from(gap_ms));
                let n = pool.slots.len();
                let pick = |k: usize| (k % n.max(1)) as u32;
                let inst = |pool: &InstancePool, k: usize| {
                    (n > 0).then(|| pool.slots[pick(k) as usize].instance.clone())
                };
                match op {
                    Op::Spawn => {
                        spawn(&mut pool, now);
                    }
                    Op::Boot(k) if inst(&pool, k).is_some_and(|i| i.is_booting()) => {
                        pool.boot_complete(pick(k), now);
                    }
                    Op::FailBoot(k) if inst(&pool, k).is_some_and(|i| i.is_booting()) => {
                        let replacement = spawn(&mut pool, now);
                        pool.fail_boot(pick(k), replacement);
                    }
                    Op::Pin(k)
                        if inst(&pool, k).is_some_and(|i| i.is_booting())
                            && pool.slots[pick(k) as usize].sticky.is_none() =>
                    {
                        pool.pin(pick(k), fresh());
                    }
                    Op::Assign(k) if inst(&pool, k).is_some_and(|i| i.is_idle()) => {
                        pool.assign(pick(k), fresh(), now);
                        banked.requests += 1;
                    }
                    Op::Commit(k) if inst(&pool, k).is_some_and(|i| !i.is_dead()) => {
                        pool.commit(pick(k), fresh());
                    }
                    Op::Release(k) if inst(&pool, k).is_some_and(|i| i.is_busy()) => {
                        let i = inst(&pool, k).expect("checked");
                        let InstanceState::Busy { request } = i.state() else { unreachable!() };
                        banked.close_busy(&i, now);
                        pool.release(pick(k), request, now);
                        if let Some(next) = pool.next_commitment(pick(k)) {
                            pool.assign(pick(k), next, now);
                            banked.requests += 1;
                        }
                    }
                    Op::Reap(k) if inst(&pool, k).is_some_and(|i| i.is_idle()) => {
                        let i = inst(&pool, k).expect("checked");
                        banked.close_alive(&i, now);
                        let fire = reap_now(&mut pool, pick(k), seq as u64, now);
                        prop_assert!(matches!(fire, KeepAliveFire::Reaped(_)));
                    }
                    Op::Purge => {
                        let idle: Vec<Instance> = pool
                            .slots
                            .iter()
                            .map(|slot| slot.instance.clone())
                            .filter(Instance::is_idle)
                            .collect();
                        for i in &idle {
                            banked.close_alive(i, now);
                        }
                        prop_assert_eq!(pool.purge(now), idle.len() as u64);
                    }
                    Op::Crash(k) if inst(&pool, k).is_some_and(|i| i.is_busy()) => {
                        let i = inst(&pool, k).expect("checked");
                        let InstanceState::Busy { request } = i.state() else { unreachable!() };
                        banked.close_busy(&i, now);
                        banked.close_alive(&i, now);
                        let committed = pool.slots[pick(k) as usize].committed.clone();
                        prop_assert_eq!(pool.crash(pick(k), request, now), committed);
                    }
                    Op::Enqueue => pool.enqueue(now, fresh()),
                    Op::ServeQueue => {
                        while let Some((rid, idx)) = pool.next_pair(now) {
                            pool.assign(idx, rid, now);
                            banked.requests += 1;
                        }
                    }
                    _ => {} // precondition failed: no transition
                }
                check(&pool, &banked, now)?;
            }
        }
    }
}
