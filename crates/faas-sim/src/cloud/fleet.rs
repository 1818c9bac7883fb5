//! The instance lifecycle: scale-out, boots, keep-alive reaping, injected
//! crashes and purge storms, and fleet telemetry. Each handler draws
//! what the transition needs, then moves the function's
//! [`InstancePool`](crate::pool::InstancePool) in one call.

use simkit::soa::EventKey;
use simkit::time::SimTime;

use super::{Cloud, Sched};
use crate::config::ScalePolicy;
use crate::events::CloudEvent;
use crate::instance::KeepAliveFire;
use crate::request::ColdBreakdown;
use crate::scheduler::{bootstrap_spawns, periodic_step};
use crate::types::{DeploymentMethod, FunctionId, InstanceId, RequestId};

impl Cloud {
    /// Runs the periodic scale controller after a queue change: the
    /// bootstrap spawn, then the scale tick armed while a backlog exists.
    /// Only the periodic policy queues requests in the shared pull queue
    /// (every other policy has a commit cap and spawns at enqueue), so
    /// it is the only policy that reaches here.
    pub(super) fn scale(&mut self, now: SimTime, fid: FunctionId, sched: &mut Sched) {
        let (interval_ms, _) = self.periodic();
        let pool = self.pool(fid);
        let headroom = pool.headroom(self.cfg.limits.max_instances_per_function);
        let want = bootstrap_spawns(pool.snapshot()).min(headroom);
        for _ in 0..want {
            self.spawn_instance(now, fid, sched);
        }
        let state = self.fstate_mut(fid);
        if !state.scale_tick_armed && state.pool.queued() > 0 {
            state.scale_tick_armed = true;
            sched.schedule_in(now, SimTime::from_millis(interval_ms), CloudEvent::ScaleTick(fid));
        }
    }

    pub(super) fn on_scale_tick(&mut self, now: SimTime, fid: FunctionId, sched: &mut Sched) {
        let (interval_ms, step) = self.periodic();
        let pool = self.pool(fid);
        let headroom = pool.headroom(self.cfg.limits.max_instances_per_function);
        let add = periodic_step(step, pool.snapshot()).min(headroom);
        for _ in 0..add {
            self.spawn_instance(now, fid, sched);
        }
        let state = self.fstate_mut(fid);
        if state.pool.queued() == 0 {
            state.scale_tick_armed = false;
        } else {
            sched.schedule_in(now, SimTime::from_millis(interval_ms), CloudEvent::ScaleTick(fid));
        }
    }

    /// The periodic controller's tick interval (ms) and step.
    fn periodic(&self) -> (f64, u32) {
        match self.cfg.scaling.policy {
            ScalePolicy::Periodic { interval_ms, step } => (interval_ms, step),
            _ => unreachable!("only the periodic policy scales through the shared queue"),
        }
    }

    /// Starts one instance boot, returning its id.
    pub(super) fn spawn_instance(
        &mut self,
        now: SimTime,
        fid: FunctionId,
        sched: &mut Sched,
    ) -> InstanceId {
        self.ledger.stats.spawns += 1;
        let rng = &mut self.streams.cold;
        let decision_ms = self.cfg.scaling.decision_ms.sample(rng);
        let reserved = self.governor.reserve(now);
        let spawn_wait_ms = (reserved - now).as_millis();
        let fetch_at = reserved + SimTime::from_millis(decision_ms);

        let state = &self.functions[fid.index()];
        let fetch = self.storage.images.fetch(fid, state.image_mb, fetch_at);
        let sandbox_ms = self.cfg.cold_start.sandbox_boot_ms.sample(rng);
        let boot_core_ms = if self.cfg.cold_start.fetch_overlaps_boot {
            sandbox_ms.max(fetch.latency_ms)
        } else {
            sandbox_ms + fetch.latency_ms
        };

        // Borrow the runtime model in place: it holds heap-backed `Dist`s,
        // so cloning it per spawn would be measurable allocation churn.
        let runtime_model = self.cfg.runtimes.model(state.spec.runtime);
        let mut chunk_ms = 0.0;
        if state.spec.deployment == DeploymentMethod::Container {
            if let Some(chunks) = &runtime_model.container_chunks {
                let count = rng.range_u64(chunks.count_lo as u64, chunks.count_hi as u64);
                for _ in 0..count {
                    chunk_ms += chunks.chunk_latency_ms.sample(rng);
                }
            }
        }
        let runtime_init_ms = runtime_model.init_ms.sample(rng);
        let handler_init_ms = self.cfg.cold_start.handler_init_ms.sample(rng);

        let total_ms = spawn_wait_ms
            + decision_ms
            + boot_core_ms
            + chunk_ms
            + runtime_init_ms
            + handler_init_ms;
        // Capacity outage: a boot finishing inside an outage window is
        // held (not failed) until the window closes.
        let ready_at = self.faults.outage_clamp(now + SimTime::from_millis(total_ms));
        let cold = ColdBreakdown {
            decision_ms,
            spawn_wait_ms,
            sandbox_ms,
            image_fetch_ms: fetch.latency_ms,
            chunk_fetch_ms: chunk_ms,
            runtime_init_ms,
            handler_init_ms,
            total_ms,
        };
        let iid = self.pool_mut(fid).spawn(fid, now, ready_at, cold);
        sched.schedule_at(ready_at, CloudEvent::BootComplete(iid));
        iid
    }

    pub(super) fn on_boot_complete(&mut self, now: SimTime, iid: InstanceId, sched: &mut Sched) {
        self.governor.spawn_started();
        let fid = iid.function();

        // Failure injection: the boot may fail at completion and be
        // retried on a fresh instance, carrying its commitments along.
        let p_fail = self.cfg.cold_start.boot_failure_prob;
        if p_fail > 0.0 && self.streams.cold.bernoulli(p_fail) {
            self.ledger.stats.boot_failures += 1;
            let replacement = self.spawn_instance(now, fid, sched);
            self.pool_mut(fid).fail_boot(iid.idx, replacement.idx);
            return;
        }

        if let Some(rid) = self.pool_mut(fid).boot_complete(iid.idx, now) {
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
        self.serve_or_keep_alive(now, iid, sched);
    }

    /// Offers an instance that just went idle new work — its own
    /// commitments under a committed-assignment policy, the shared queue
    /// otherwise — and arms its keep-alive if it stays idle.
    pub(super) fn serve_or_keep_alive(&mut self, now: SimTime, iid: InstanceId, sched: &mut Sched) {
        let fid = iid.function();
        if self.fstate(fid).commit_cap.is_some() {
            if !self.serve_committed(now, iid, sched) {
                self.maybe_schedule_reap(now, iid, sched);
            }
        } else {
            self.serve_queue(now, fid, sched);
            self.maybe_schedule_reap(now, iid, sched);
        }
    }

    /// Draws the keep-alive deadline of an instance that just went idle.
    /// The deadline takes a sequence number as if its own check were
    /// queued, but a check is queued only when the instance's tracked
    /// timer would fire later (see [`crate::instance`]).
    fn maybe_schedule_reap(&mut self, now: SimTime, iid: InstanceId, sched: &mut Sched) {
        if !self.pool(iid.function()).is_idle(iid.idx) {
            return;
        }
        let timeout = self.cfg.keepalive.idle_timeout_ms.sample(&mut self.streams.cold);
        let deadline = EventKey { at: now + SimTime::from_millis(timeout), seq: sched.take_seq() };
        self.liveness.last_deadline = self.liveness.last_deadline.max(Some(deadline));
        if let Some(timer) = self.pool_mut(iid.function()).arm_keepalive(iid.idx, deadline) {
            sched.schedule_at_with_seq(timer.at, timer.seq, CloudEvent::ReapCheck(iid, timer.seq));
        }
    }

    pub(super) fn on_reap_check(
        &mut self,
        now: SimTime,
        iid: InstanceId,
        seq: u64,
        sched: &mut Sched,
    ) {
        match self.pool_mut(iid.function()).reap(iid.idx, seq, now) {
            KeepAliveFire::Reaped(_) => self.ledger.stats.reaps += 1,
            KeepAliveFire::Rearm(timer) => {
                sched.schedule_at_with_seq(
                    timer.at,
                    timer.seq,
                    CloudEvent::ReapCheck(iid, timer.seq),
                );
            }
            KeepAliveFire::Ignored => {}
        }
    }

    /// Kills `iid` while it executes `rid` (the crash is already booked):
    /// commitments queued behind the dead instance are redistributed (the
    /// failed-boot idiom), and the client receives a 500.
    pub(super) fn crash_instance(
        &mut self,
        now: SimTime,
        rid: RequestId,
        iid: InstanceId,
        sched: &mut Sched,
    ) {
        let fid = iid.function();
        let orphaned = self.pool_mut(fid).crash(iid.idx, rid, now);
        for orphan in orphaned {
            if self.hot(orphan).cancelled() {
                self.free_cancelled(orphan);
            } else {
                let cap = self.fstate(fid).commit_cap.expect("commitments need a commit cap");
                self.enqueue_committed(now, orphan, fid, cap, sched);
            }
        }
        self.fail_request(now, rid, 500, sched);
    }

    /// Purge-storm tick: reap every idle instance in the fleet, then
    /// reschedule with an exponential gap — only while the run is active
    /// (see [`Cloud::run_active`]), so runs still drain to idle.
    pub(super) fn on_fault_storm(&mut self, now: SimTime, sched: &mut Sched) {
        self.liveness.ticks_queued -= 1;
        let purged: u64 = self.functions.iter_mut().map(|state| state.pool.purge(now)).sum();
        self.ledger.stats.reaps += purged;
        self.faults.storm(purged);
        if self.run_active(now, sched) {
            let gap_ms = self.faults.storm_gap_ms();
            sched.schedule_in(now, SimTime::from_millis(gap_ms), CloudEvent::FaultStorm);
            self.liveness.ticks_queued += 1;
        }
    }

    pub(super) fn on_telemetry_tick(&mut self, now: SimTime, sched: &mut Sched) {
        self.liveness.ticks_queued -= 1;
        let Some(interval) = self.telemetry.timeline_interval() else { return };
        for (i, state) in self.functions.iter().enumerate() {
            self.telemetry.sample(now, FunctionId(i as u32), state.pool.snapshot());
        }
        // Keep ticking only while the run is active, so runs that drain
        // to idle still terminate.
        if self.run_active(now, sched) {
            sched.schedule_in(now, interval, CloudEvent::TelemetryTick);
            self.liveness.ticks_queued += 1;
        }
    }
}
