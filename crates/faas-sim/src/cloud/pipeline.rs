//! The request path: front end to completion, one handler per hand-off
//! of the paper's Fig 1.

use simkit::time::SimTime;

use super::{metric, span_tag, Cloud, Sched};
use crate::events::CloudEvent;
use crate::request::{Completion, RequestOrigin};
use crate::types::{bytes_to_mb, FunctionId, InstanceId, RequestId, TransferMode};

impl Cloud {
    pub(super) fn on_frontend_arrive(&mut self, now: SimTime, rid: RequestId, sched: &mut Sched) {
        // Transient provider errors (throttle / 5xx) reject external
        // requests at the front door.
        if self.cold(rid).origin.is_external() {
            if let Some(code) = self.faults.transient() {
                self.fail_request(now, rid, code, sched);
                return;
            }
        }
        let overhead = self.cfg.warm_path.overhead_ms.sample(&mut self.streams.path);
        let shares = self.cfg.warm_path.shares;
        let frontend_ms = overhead * shares.frontend;
        let routing_ms = overhead * shares.routing;

        // Inline payload travels with the request into the datacenter.
        let xfer = self.cold(rid).xfer_in;
        let inline_ms = match xfer {
            Some(x) if x.mode == TransferMode::Inline => {
                let bw =
                    self.cfg.network.inline_bandwidth_mbps.sample(&mut self.streams.net).max(0.01);
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
        if self.telemetry.tracing() {
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

    pub(super) fn on_routing_done(&mut self, now: SimTime, rid: RequestId, sched: &mut Sched) {
        let outcome = self.dispatch.dispatch(now, &mut self.streams.lb);
        self.cold_mut(rid).breakdown.dispatch_wait_ms = (outcome.ready_at - now).as_millis();
        self.emit_span(rid, span_tag::DISPATCH_WAIT, now, outcome.ready_at);
        sched.schedule_at(outcome.ready_at, CloudEvent::Enqueued(rid));
    }

    pub(super) fn on_enqueued(&mut self, now: SimTime, rid: RequestId, sched: &mut Sched) {
        let fid = self.hot(rid).function;
        let snap = self.pool(fid).snapshot();

        // Admission control: an external request arriving at a queue
        // already `shed_limit` deep is refused with an explicit 503
        // instead of deepening the backlog.
        if self.cold(rid).origin.is_external() && self.faults.sheds(snap.queued) {
            self.hot_mut(rid).set_shed();
            self.fail_request(now, rid, 503, sched);
            return;
        }
        self.hot_mut(rid).wait_started = Some(now);

        // LB lookup miss: a dedicated spawn for this request. Misses are a
        // concurrency artefact (racing idle-instance lookups), so they
        // require live instances to race over AND other work in flight
        // (§VI-D1 burst tails) — and capacity to spawn into.
        let concurrent = snap.busy > 0 || (snap.idle > 0 && snap.queued > 0);
        if concurrent
            && self.pool(fid).headroom(self.cfg.limits.max_instances_per_function) > 0
            && self.dispatch.rolls_miss(&mut self.streams.lb)
        {
            self.ledger.stats.lb_misses += 1;
            let iid = self.spawn_instance(now, fid, sched);
            self.pool_mut(fid).pin(iid.idx, rid);
            return;
        }

        match self.fstate(fid).commit_cap {
            Some(cap) => self.enqueue_committed(now, rid, fid, cap, sched),
            None => {
                if snap.idle > 0 {
                    self.ledger.stats.warm_hits += 1;
                }
                self.pool_mut(fid).enqueue(now, rid);
                self.serve_queue(now, fid, sched);
                self.scale(now, fid, sched);
            }
        }
    }

    /// Committed assignment (AWS / Google style): pick the least-loaded
    /// live instance; spawn a fresh one if every instance is at the cap
    /// and headroom remains. The request then belongs to that instance.
    pub(super) fn enqueue_committed(
        &mut self,
        now: SimTime,
        rid: RequestId,
        fid: FunctionId,
        cap: usize,
        sched: &mut Sched,
    ) {
        let pool = &self.functions[fid.index()].pool;
        let headroom = pool.headroom(self.cfg.limits.max_instances_per_function) > 0;
        let idx = match pool.least_loaded() {
            Some((load, idx)) if (load as usize) < cap => {
                if pool.is_idle(idx) {
                    self.ledger.stats.warm_hits += 1;
                }
                idx
            }
            _ if headroom => self.spawn_instance(now, fid, sched).idx,
            Some((_, idx)) => idx, // at the cap but no headroom: overcommit
            None => unreachable!("no instances and no headroom"),
        };
        if self.pool(fid).is_free(idx) {
            self.assign(now, rid, InstanceId { function: fid, idx }, sched);
        } else {
            self.pool_mut(fid).commit(idx, rid);
        }
    }

    /// Hands the next committed request (if any) to a just-freed instance.
    /// Returns whether an assignment happened.
    pub(super) fn serve_committed(
        &mut self,
        now: SimTime,
        iid: InstanceId,
        sched: &mut Sched,
    ) -> bool {
        while let Some(rid) = self.pool_mut(iid.function()).next_commitment(iid.idx) {
            // A commitment cancelled while queued: retire it and offer
            // the instance to the next one.
            if self.hot(rid).cancelled() {
                self.free_cancelled(rid);
            } else {
                self.assign(now, rid, iid, sched);
                return true;
            }
        }
        false
    }

    /// Assigns queued requests to idle instances while both exist.
    pub(super) fn serve_queue(&mut self, now: SimTime, fid: FunctionId, sched: &mut Sched) {
        while let Some((rid, idx)) = self.pool_mut(fid).next_pair(now) {
            // A queued request cancelled before being served: retire it
            // and return the instance for the next entry.
            if self.hot(rid).cancelled() {
                self.free_cancelled(rid);
                self.pool_mut(fid).return_idle(idx);
            } else {
                self.assign(now, rid, InstanceId { function: fid, idx }, sched);
            }
        }
    }

    /// Common assignment: instance goes busy, request timing recorded,
    /// compute scheduled.
    pub(super) fn assign(
        &mut self,
        now: SimTime,
        rid: RequestId,
        iid: InstanceId,
        sched: &mut Sched,
    ) {
        let fid = iid.function();
        let cold_breakdown = self.pool_mut(fid).assign(iid.idx, rid, now);
        let first_use = cold_breakdown.is_some();
        self.telemetry.add(if first_use { metric::COLD_STARTS } else { metric::WARM_STARTS }, 1);

        let shares = self.cfg.warm_path.shares;
        let spec = &self.functions[fid.index()].spec;
        let throttle =
            (self.cfg.limits.full_speed_memory_mb as f64 / spec.memory_mb as f64).max(1.0);
        // Sample through a field borrow: cloning the heap-backed `Dist`
        // per request would dominate the dispatch path's allocations.
        let exec_ms = spec.exec_ms.sample(&mut self.streams.exec) * throttle;

        // Consumer-side payload retrieval for storage transfers (step ⑧).
        let xfer = self.cold(rid).xfer_in;
        let payload_get_ms = match xfer {
            Some(x) if x.mode == TransferMode::Storage => {
                self.storage.payloads.get_ms(x.payload_bytes)
            }
            _ => 0.0,
        };

        let wait_started = {
            let hot = self.hot_mut(rid);
            hot.instance = Some(iid);
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

        // Record transfer samples when the payload is in the consumer's
        // hands (paper §V): a fired join records one per counted edge, not
        // its aggregate `xfer_in`, which only drives the cost model.
        let received = now + SimTime::from_millis(steer_ms + handling_ms + payload_get_ms);
        let edges = self.workflows.join_edges(rid).unwrap_or(xfer.as_slice());
        self.ledger.transfers.extend(edges.iter().map(|x| x.received_at(received)));

        if self.telemetry.tracing() {
            if let Some(started) = wait_started {
                self.emit_span(rid, span_tag::QUEUE_WAIT, started, now);
            }
            let t1 = now + SimTime::from_millis(steer_ms);
            let t2 = now + SimTime::from_millis(steer_ms + handling_ms);
            let t4 = now + SimTime::from_millis(steer_ms + handling_ms + payload_get_ms + exec_ms);
            self.emit_span(rid, span_tag::STEER, now, t1);
            self.emit_span(rid, span_tag::HANDLING, t1, t2);
            if payload_get_ms > 0.0 {
                self.emit_span(rid, span_tag::PAYLOAD_GET, t2, received);
            }
            self.emit_span(rid, span_tag::EXECUTION, received, t4);
        }

        let compute_at =
            now + SimTime::from_millis(steer_ms + handling_ms + payload_get_ms + exec_ms);
        sched.schedule_at(compute_at, CloudEvent::ComputeDone(rid, iid));
    }

    pub(super) fn on_compute_done(
        &mut self,
        now: SimTime,
        rid: RequestId,
        iid: InstanceId,
        sched: &mut Sched,
    ) {
        let fid = self.hot(rid).function;
        if !self.fstate(fid).out.is_empty() {
            self.dag_fork(now, rid, fid, sched);
            return;
        }
        // Mid-execution instance crash: the instance dies at the end of
        // user compute, the finished work is wasted, and the client gets
        // a 500. Injected only into non-forking external executions —
        // crashing a producer mid-fork would orphan its children.
        if self.cold(rid).origin.is_external() {
            let started = self.pool(fid).busy_since(iid.idx, rid).expect("executing elsewhere");
            if self.faults.crash((now - started).as_millis()) {
                self.crash_instance(now, rid, iid, sched);
                return;
            }
        }
        sched.schedule_at(now, CloudEvent::ExecDone(rid, iid));
    }

    pub(super) fn on_exec_done(
        &mut self,
        now: SimTime,
        rid: RequestId,
        iid: InstanceId,
        sched: &mut Sched,
    ) {
        let is_external = self.cold(rid).origin.is_external();
        let response_ms = self.cold(rid).warm_overhead_ms * self.cfg.warm_path.shares.response;
        let mut prop_back_ms = if is_external {
            self.cfg.network.prop_delay_ms.sample(&mut self.streams.net)
        } else {
            0.0
        };
        // Network brownout: a pure multiplier on the baseline draw.
        prop_back_ms *= self.faults.inflation(now);
        {
            let breakdown = &mut self.cold_mut(rid).breakdown;
            breakdown.response_ms = response_ms;
            breakdown.prop_back_ms = prop_back_ms;
        }
        if self.telemetry.tracing() {
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

        // The instance is free: serve more work or arm its keep-alive.
        // Releasing draws nothing, so it may follow the response draws.
        self.pool_mut(iid.function()).release(iid.idx, rid, now);
        self.serve_or_keep_alive(now, iid, sched);
    }

    pub(super) fn on_completed(&mut self, now: SimTime, rid: RequestId, sched: &mut Sched) {
        {
            let hot = self.hot_mut(rid);
            assert!(!hot.done(), "request {rid} completed twice");
            hot.set_done();
        }
        let origin = self.cold(rid).origin;
        match origin {
            RequestOrigin::External => {
                self.ledger.stats.completed += 1;
                self.emit_root_span(rid, now, None);
                let (hot, cold) = self.requests.free(rid);
                // Exactly one terminal bucket per request (cancels were
                // booked at cancel time).
                self.faults.resolved(hot.shed(), cold.error.is_some());
                if cold.error.is_none() {
                    self.workflows.record_root(hot.function, &cold.breakdown);
                }
                self.ledger.completions.push(Completion {
                    id: rid,
                    function: hot.function,
                    tag: cold.tag,
                    origin,
                    issued_at: hot.issued_at,
                    completed_at: now,
                    cold: hot.cold_start(),
                    breakdown: cold.breakdown,
                    error: cold.error,
                });
            }
            RequestOrigin::Internal { parent } => {
                let chain_span = self.cold(parent).chain_span;
                let parents = self.workflows.take_join(rid);
                if !parents.is_empty() {
                    // A fired join's round trip is over: resume every
                    // branch producer that was counted into the barrier.
                    self.emit_root_span(rid, now, chain_span);
                    self.finish_internal(rid);
                    for p in parents {
                        self.resolve_dag_obligation(now, p, sched);
                    }
                } else {
                    // A direct child — a chain hop or a fan-out branch:
                    // one obligation of its producer resolves. Resolving
                    // first puts the producer's `chain` span (emitted when
                    // this was its last obligation) ahead of the child's
                    // root span.
                    self.resolve_dag_obligation(now, parent, sched);
                    self.emit_root_span(rid, now, chain_span);
                    self.finish_internal(rid);
                }
            }
        }
    }

    /// Resolves an external request with a provider-style error: the
    /// rejection travels straight back to the client (skipping the
    /// response-path overhead an instance would add), with the return
    /// propagation drawn from the fault stream.
    pub(super) fn fail_request(
        &mut self,
        now: SimTime,
        rid: RequestId,
        code: u16,
        sched: &mut Sched,
    ) {
        debug_assert!(self.cold(rid).origin.is_external(), "faults only hit external requests");
        let prop_back_ms = self.faults.error_return_ms(&self.cfg.network.prop_delay_ms);
        let cold = self.cold_mut(rid);
        cold.error = Some(code);
        cold.breakdown.prop_back_ms = prop_back_ms;
        sched.schedule_in(now, SimTime::from_millis(prop_back_ms), CloudEvent::Completed(rid));
    }
}
