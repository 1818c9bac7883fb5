//! Function instance lifecycle state machine.
//!
//! Instances move `Booting → Idle ⇄ Busy → Dead`, with keep-alive reaping
//! from `Idle`. Each state change bumps an epoch counter. An instance also
//! carries the start of its lifetime and of its busy span: a transition
//! that ends a span returns its length, which the pool banks as resource
//! usage.
//!
//! Every idle epoch draws a keep-alive deadline: the `(time, seq)` key at
//! which its reap check fires. An instance keeps **one** timer in the
//! event queue, never one per idle transition. A new deadline is queued
//! only when it beats the tracked timer. When the timer fires, it reaps
//! the instance if this is the deadline of the epoch the instance is
//! still idle in. If the instance idled again since, the timer re-arms at
//! that epoch's deadline, at its exact key. If the instance is busy or
//! dead, the timer drops. So every reap pops at the same `(time, seq)` key
//! as the earliest check of its epoch would have, while the queue holds
//! O(live instances) keep-alive events.

use simkit::soa::EventKey;
use simkit::time::SimTime;

use crate::types::{InstanceId, RequestId};

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Boot in progress; ready at the contained time.
    Booting {
        /// When the boot completes.
        ready_at: SimTime,
    },
    /// Online and waiting for work since the contained time.
    Idle {
        /// When the instance last became idle.
        since: SimTime,
    },
    /// Executing the contained request.
    Busy {
        /// The request being served.
        request: RequestId,
    },
    /// Reaped; never used again.
    Dead,
}

/// What a firing keep-alive timer does (see [`Instance::fire_keepalive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepAliveFire {
    /// The instance was idle past its deadline and is now dead; carries
    /// the lifetime this closes.
    Reaped(SimTime),
    /// The instance idled again since the timer was queued: queue the
    /// timer again at the contained deadline.
    Rearm(EventKey),
    /// Superseded timer, or an instance that is busy or dead.
    Ignored,
}

/// One function instance.
#[derive(Debug, Clone)]
pub struct Instance {
    id: InstanceId,
    state: InstanceState,
    epoch: u64,
    /// Keep-alive deadline of the latest idle epoch, with that epoch.
    deadline: Option<(EventKey, u64)>,
    /// Key of the one keep-alive timer this instance tracks in the event
    /// queue. Never later than `deadline` while that epoch lasts.
    timer: Option<EventKey>,
    /// Boot completion, while the instance is alive (idle or busy).
    alive_since: Option<SimTime>,
    /// Start of the request being served, while busy.
    busy_since: Option<SimTime>,
}

impl Instance {
    /// Creates an instance in the `Booting` state.
    pub fn boot(id: InstanceId, now: SimTime, ready_at: SimTime) -> Instance {
        assert!(ready_at >= now, "boot completes before it starts");
        Instance {
            id,
            state: InstanceState::Booting { ready_at },
            epoch: 0,
            deadline: None,
            timer: None,
            alive_since: None,
            busy_since: None,
        }
    }

    /// Instance identifier.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// Current state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// Epoch counter; bumps on every transition out of `Idle`/into `Idle`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Boot completion time while alive; `None` while booting or dead.
    pub fn alive_since(&self) -> Option<SimTime> {
        self.alive_since
    }

    /// Start of the current busy span; `None` unless busy.
    pub fn busy_since(&self) -> Option<SimTime> {
        self.busy_since
    }

    /// Whether the instance can accept a request right now.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, InstanceState::Idle { .. })
    }

    /// Whether the instance is booting.
    pub fn is_booting(&self) -> bool {
        matches!(self.state, InstanceState::Booting { .. })
    }

    /// Whether the instance is executing a request.
    pub fn is_busy(&self) -> bool {
        matches!(self.state, InstanceState::Busy { .. })
    }

    /// Whether the instance has been reaped.
    pub fn is_dead(&self) -> bool {
        matches!(self.state, InstanceState::Dead)
    }

    /// Boot finished: `Booting → Idle`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not booting.
    pub fn boot_complete(&mut self, now: SimTime) {
        assert!(self.is_booting(), "boot_complete on {:?}", self.state);
        self.state = InstanceState::Idle { since: now };
        self.epoch += 1;
        self.alive_since = Some(now);
    }

    /// Work assigned at `now`: `Idle → Busy`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not idle.
    pub fn assign(&mut self, request: RequestId, now: SimTime) {
        assert!(self.is_idle(), "assign on {:?}", self.state);
        self.state = InstanceState::Busy { request };
        self.epoch += 1;
        self.busy_since = Some(now);
    }

    /// Work finished: `Busy → Idle`. Returns the busy span this closes.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not busy with `request`.
    pub fn release(&mut self, request: RequestId, now: SimTime) -> SimTime {
        match self.state {
            InstanceState::Busy { request: current } if current == request => {
                self.state = InstanceState::Idle { since: now };
                self.epoch += 1;
                self.end_busy(now)
            }
            _ => panic!("release({request}) on {:?}", self.state),
        }
    }

    /// Boot failure: `Booting → Dead` (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if the instance is not booting.
    pub fn fail_boot(&mut self) {
        assert!(self.is_booting(), "fail_boot on {:?}", self.state);
        self.state = InstanceState::Dead;
        self.epoch += 1;
    }

    /// Mid-execution crash: `Busy → Dead` (fault injection). The request
    /// being served dies with the instance; its result is lost. Returns
    /// the busy span and the lifetime this closes.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not busy with `request`.
    pub fn crash(&mut self, request: RequestId, now: SimTime) -> (SimTime, SimTime) {
        match self.state {
            InstanceState::Busy { request: current } if current == request => {
                let busy = self.end_busy(now);
                (busy, self.die(now))
            }
            _ => panic!("crash({request}) on {:?}", self.state),
        }
    }

    /// Purge (fault injection): `Idle → Dead` whatever the keep-alive
    /// deadline. Returns the lifetime this closes, `None` (and no state
    /// change) unless the instance was idle.
    pub fn purge(&mut self, now: SimTime) -> Option<SimTime> {
        self.is_idle().then(|| self.die(now))
    }

    fn end_busy(&mut self, now: SimTime) -> SimTime {
        now - self.busy_since.take().expect("a busy instance records its start")
    }

    /// `→ Dead` for a live instance, returning the lifetime this closes.
    fn die(&mut self, now: SimTime) -> SimTime {
        self.state = InstanceState::Dead;
        self.epoch += 1;
        now - self.alive_since.take().expect("a live instance records its boot")
    }

    /// Records `key` as the keep-alive deadline of the current idle epoch.
    /// An epoch that already has one keeps the earlier key, the check that
    /// fires first. Returns the key at which to queue a new timer: `Some`
    /// only when no timer is tracked or the tracked one fires later.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not idle.
    pub fn arm_keepalive(&mut self, key: EventKey) -> Option<EventKey> {
        assert!(self.is_idle(), "arm_keepalive on {:?}", self.state);
        let deadline = match self.deadline {
            Some((earlier, epoch)) if epoch == self.epoch => earlier.min(key),
            _ => key,
        };
        self.deadline = Some((deadline, self.epoch));
        if self.timer.is_some_and(|timer| timer <= deadline) {
            return None;
        }
        self.timer = Some(deadline);
        Some(deadline)
    }

    /// The keep-alive timer with sequence number `seq` fired at `now`. A
    /// deadline is only recorded while idle and every transition bumps the
    /// epoch, so a deadline of the current epoch means the instance is
    /// idle.
    pub fn fire_keepalive(&mut self, seq: u64, now: SimTime) -> KeepAliveFire {
        if self.timer.is_none_or(|timer| timer.seq != seq) {
            return KeepAliveFire::Ignored;
        }
        self.timer = None;
        match self.deadline {
            Some((deadline, epoch)) if epoch == self.epoch => {
                debug_assert!(self.is_idle());
                if deadline.seq == seq {
                    KeepAliveFire::Reaped(self.die(now))
                } else {
                    self.timer = Some(deadline);
                    KeepAliveFire::Rearm(deadline)
                }
            }
            _ => KeepAliveFire::Ignored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FunctionId;

    fn iid() -> InstanceId {
        InstanceId { function: FunctionId(0), idx: 0 }
    }

    fn rid(n: u64) -> RequestId {
        RequestId(n)
    }

    const MS: fn(f64) -> SimTime = SimTime::from_millis;

    #[test]
    fn full_lifecycle() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(100.0));
        assert!(inst.is_booting());
        inst.boot_complete(MS(100.0));
        assert!(inst.is_idle());
        inst.assign(rid(1), MS(120.0));
        assert!(inst.is_busy());
        assert_eq!(inst.release(rid(1), MS(150.0)), MS(30.0), "the busy span it closes");
        assert!(inst.is_idle());
        assert_eq!(inst.alive_since(), Some(MS(100.0)));
    }

    fn key(ms: f64, seq: u64) -> EventKey {
        EventKey { at: MS(ms), seq }
    }

    #[test]
    fn reap_only_when_epoch_matches() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        assert_eq!(inst.arm_keepalive(key(110.0, 1)), Some(key(110.0, 1)));
        inst.assign(rid(1), MS(0.0));
        inst.release(rid(1), MS(20.0));
        // A later deadline waits behind the queued timer.
        assert_eq!(inst.arm_keepalive(key(120.0, 2)), None);
        // The first epoch's timer finds the instance idle in a later epoch
        // and re-arms at that epoch's exact key.
        assert_eq!(inst.fire_keepalive(1, MS(1000.0)), KeepAliveFire::Rearm(key(120.0, 2)));
        assert!(inst.is_idle());
        assert_eq!(inst.fire_keepalive(2, MS(1000.0)), KeepAliveFire::Reaped(MS(990.0)));
        assert!(inst.is_dead());
    }

    #[test]
    fn reap_on_busy_is_ignored() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        assert!(inst.arm_keepalive(key(110.0, 1)).is_some());
        inst.assign(rid(1), MS(0.0));
        assert_eq!(inst.fire_keepalive(1, MS(1000.0)), KeepAliveFire::Ignored);
        assert!(inst.is_busy());
        // The dropped timer is no longer tracked: the next idle epoch
        // queues a fresh one even though its deadline is later.
        inst.release(rid(1), MS(50.0));
        assert_eq!(inst.arm_keepalive(key(150.0, 2)), Some(key(150.0, 2)));
    }

    #[test]
    fn earlier_deadline_supersedes_the_tracked_timer() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        assert!(inst.arm_keepalive(key(900.0, 1)).is_some());
        inst.assign(rid(1), MS(0.0));
        inst.release(rid(1), MS(20.0));
        // A shorter draw in a later epoch beats the queued timer.
        assert_eq!(inst.arm_keepalive(key(400.0, 2)), Some(key(400.0, 2)));
        assert_eq!(inst.fire_keepalive(2, MS(1000.0)), KeepAliveFire::Reaped(MS(990.0)));
        // The superseded timer is ignored when it fires.
        assert_eq!(inst.fire_keepalive(1, MS(1000.0)), KeepAliveFire::Ignored);
    }

    #[test]
    fn one_epoch_keeps_its_earliest_deadline() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        assert!(inst.arm_keepalive(key(700.0, 1)).is_some());
        assert_eq!(inst.arm_keepalive(key(300.0, 2)), Some(key(300.0, 2)));
        assert_eq!(inst.arm_keepalive(key(500.0, 3)), None);
        assert_eq!(inst.fire_keepalive(2, MS(1000.0)), KeepAliveFire::Reaped(MS(990.0)));
    }

    #[test]
    fn purge_kills_only_idle_instances() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        assert!(inst.purge(MS(5.0)).is_none(), "booting instances survive a purge");
        inst.boot_complete(MS(10.0));
        assert!(inst.arm_keepalive(key(110.0, 1)).is_some());
        assert_eq!(inst.purge(MS(60.0)), Some(MS(50.0)));
        assert!(inst.is_dead());
        assert_eq!(inst.fire_keepalive(1, MS(1000.0)), KeepAliveFire::Ignored);
    }

    #[test]
    #[should_panic(expected = "assign")]
    fn assign_while_booting_panics() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.assign(rid(1), MS(0.0));
    }

    #[test]
    #[should_panic(expected = "release")]
    fn release_wrong_request_panics() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        inst.assign(rid(1), MS(0.0));
        inst.release(rid(2), MS(20.0));
    }

    #[test]
    fn crash_kills_busy_instance() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        inst.assign(rid(1), MS(0.0));
        let epoch = inst.epoch();
        inst.crash(rid(1), MS(30.0));
        assert!(inst.is_dead());
        assert!(inst.epoch() > epoch, "crash must invalidate pending reaps");
    }

    #[test]
    #[should_panic(expected = "crash")]
    fn crash_wrong_request_panics() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        inst.boot_complete(MS(10.0));
        inst.assign(rid(1), MS(0.0));
        inst.crash(rid(2), MS(30.0));
    }

    #[test]
    fn epoch_advances_on_transitions() {
        let mut inst = Instance::boot(iid(), MS(0.0), MS(10.0));
        let e0 = inst.epoch();
        inst.boot_complete(MS(10.0));
        let e1 = inst.epoch();
        inst.assign(rid(1), MS(0.0));
        let e2 = inst.epoch();
        assert!(e0 < e1 && e1 < e2);
    }
}
