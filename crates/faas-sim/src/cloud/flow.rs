//! Workflows and cancellation: the fork path, join arrivals, obligation
//! resolution and the cancellation cascade. The side tables they consult
//! live in the [`WorkflowTable`](crate::workflow::WorkflowTable).

use simkit::time::SimTime;

use super::{span_tag, Cloud, Sched};
use crate::arena::XferInfo;
use crate::events::CloudEvent;
use crate::request::RequestOrigin;
use crate::types::{FunctionId, RequestId, TransferMode};
use crate::workflow::{join_inbound, Arrival};

impl Cloud {
    /// Retires a cancelled request's slot, then every cancelled request
    /// only it could still reach: its producer (a cancelled child never
    /// resolves the obligation that would schedule the producer's
    /// `ExecDone`) and, for a fired join, the branch producers blocked on
    /// it. A worklist, so a deep chain costs no stack frame per hop.
    pub(super) fn free_cancelled(&mut self, rid: RequestId) {
        let mut work = vec![rid];
        while let Some(r) = work.pop() {
            // A slot can be queued for freeing through two paths (e.g. a
            // producer referenced by two cancelled children); the first
            // free bumps the generation so later visits are no-ops.
            if !self.is_live(r) {
                continue;
            }
            let (hot, cold) = self.requests.free(r);
            // Every internal request was spawned by the fork path.
            if !cold.origin.is_external() {
                self.workflows.record_cancelled(hot.function);
            }
            self.workflows.drop_children(r);
            for parent in self.workflows.take_join(r) {
                if self.is_live(parent) && self.hot(parent).cancelled() {
                    work.push(parent);
                }
            }
            if let RequestOrigin::Internal { parent } = cold.origin {
                if self.is_live(parent) && self.hot(parent).cancelled() {
                    work.push(parent);
                }
            }
        }
    }

    /// Executes a client cancellation; a request already gone or
    /// cancelled is a no-op. The in-flight workflow below it is cancelled
    /// deepest-first and its join barriers are torn down. An executing
    /// request frees its instance *now*, booking the elapsed busy time as
    /// waste; a queued or mid-pipeline one is retired by whichever handler
    /// or queue pop touches it next.
    pub(super) fn on_cancel(&mut self, now: SimTime, rid: RequestId, sched: &mut Sched) {
        if !self.is_live(rid) || self.hot(rid).cancelled() {
            return;
        }
        // Preorder collection of the spawn tree...
        let mut order = vec![rid];
        let mut i = 0;
        while i < order.len() {
            let r = order[i];
            i += 1;
            for &kid in self.workflows.children(r) {
                if self.requests.is_live(kid) {
                    order.push(kid);
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
        for parent in self.workflows.drop_barriers(rid) {
            if self.is_live(parent) && self.hot(parent).cancelled() {
                self.free_cancelled(parent);
            }
        }
    }

    /// Marks and unwinds one request of a cancellation cascade.
    fn cancel_one(&mut self, now: SimTime, rid: RequestId, sched: &mut Sched) {
        if !self.is_live(rid) || self.hot(rid).cancelled() {
            return;
        }
        self.hot_mut(rid).set_cancelled();
        self.ledger.cancel.cancelled += 1;
        if self.cold(rid).origin.is_external() {
            self.faults.cancelled();
        }

        let (fid, instance) = (self.hot(rid).function, self.hot(rid).instance);
        let b = &self.cold(rid).breakdown;
        let busy_ms = b.steer_ms + b.handling_ms + b.payload_get_ms + b.exec_ms + b.chain_ms;
        let Some(iid) = instance else {
            // Never reached an instance: queued, sticky-waiting or still
            // in the pre-queue pipeline. No instance time to waste; the
            // slot is freed lazily.
            self.ledger.cancel.cancelled_unstarted += 1;
            return;
        };
        if let Some(started) = self.pool(fid).busy_since(iid.idx, rid) {
            // Abort mid-flight: the instance is freed at this event
            // boundary and only the elapsed share of its busy time is
            // wasted.
            self.ledger.cancel.wasted_busy_ms += (now - started).as_millis();
            // The freed instance can take new work immediately.
            self.pool_mut(iid.function()).release(iid.idx, rid, now);
            self.serve_or_keep_alive(now, iid, sched);
            // The slot itself is retired by the request's still-pending
            // lifecycle event (`ComputeDone`/`ExecDone`) or, for a forking
            // producer, by its cancelled children.
        } else {
            // Execution already finished; the response in flight will be
            // dropped at `Completed`, so the full busy span was wasted.
            self.ledger.cancel.wasted_busy_ms += busy_ms;
        }
    }

    /// Producer side of an internal invocation (step ⑨), for a one-edge
    /// chain and a fan-out alike: one obligation per out-edge — a direct
    /// child request for plain successors, a [`CloudEvent::JoinArrive`]
    /// for fan-in successors — each issued after the producer's PUT for
    /// storage transfers, with the producer's instance held busy until
    /// every obligation resolves.
    pub(super) fn dag_fork(
        &mut self,
        now: SimTime,
        rid: RequestId,
        fid: FunctionId,
        sched: &mut Sched,
    ) {
        // Take the edges out of `self` so requests can be created while
        // walking them.
        let edges = std::mem::take(&mut self.fstate_mut(fid).out);
        let chain_span = self.telemetry.alloc_span();
        let tag = {
            let cold = self.cold_mut(rid);
            cold.chain_started = Some(now);
            cold.chain_span = chain_span;
            cold.dag_pending = edges.len() as u32;
            cold.tag
        };
        let root = self.wf_root_of(rid);
        for edge in &edges {
            let payload_bytes =
                self.workflows.payload_bytes(edge, self.cfg.network.max_inline_payload);
            let issue_at = match edge.mode {
                TransferMode::Inline => now,
                TransferMode::Storage => {
                    now + SimTime::from_millis(self.storage.payloads.put_ms(payload_bytes))
                }
            };
            self.telemetry.add(super::metric::DAG_INVOCATIONS, 1);
            let xfer = XferInfo {
                mode: edge.mode,
                payload_bytes,
                send_start: now,
                parent: rid,
                parent_tag: tag,
            };
            if let Some(k_of_n) = edge.join {
                self.workflows.send(edge.target, xfer, k_of_n);
                sched.schedule_at(issue_at, CloudEvent::JoinArrive(rid, edge.target));
            } else {
                let origin = RequestOrigin::Internal { parent: rid };
                let child = self.create_request(edge.target, origin, tag, issue_at, Some(xfer));
                self.spawn_internal(rid, child, edge.target, root);
                sched.schedule_at(issue_at, CloudEvent::FrontendArrive(child));
            }
        }
        self.fstate_mut(fid).out = edges;
    }

    /// Books `child`, spawned by `producer` for node `fid` of the
    /// workflow rooted at `root`.
    fn spawn_internal(
        &mut self,
        producer: RequestId,
        child: RequestId,
        fid: FunctionId,
        root: RequestId,
    ) {
        self.ledger.stats.internal += 1;
        self.workflows.adopt(producer, child, fid);
        self.cold_mut(child).wf_root = Some(root);
    }

    /// A branch reaches a join barrier. Counted arrivals accumulate until
    /// the k-th fires the barrier, spawning the join request; later
    /// arrivals are stragglers whose producers resume immediately.
    pub(super) fn on_join_arrive(
        &mut self,
        now: SimTime,
        parent: RequestId,
        jfid: FunctionId,
        sched: &mut Sched,
    ) {
        let Some(pending) = self.workflows.take_pending(parent, jfid) else {
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
        match self.workflows.arrive(now, root, jfid, pending, issued_at) {
            Arrival::Waiting => {}
            // The barrier fired without this branch: its producer's
            // obligation resolves here instead of at the join round trip.
            Arrival::Straggler => self.resolve_dag_obligation(now, parent, sched),
            Arrival::Fired(arrivals) => {
                let xfer = join_inbound(&arrivals);
                let origin = RequestOrigin::Internal { parent: xfer.parent };
                let jrid = self.create_request(jfid, origin, xfer.parent_tag, now, Some(xfer));
                self.spawn_internal(xfer.parent, jrid, jfid, root);
                self.workflows.bind_join(jrid, arrivals);
                sched.schedule_at(now, CloudEvent::FrontendArrive(jrid));
            }
        }
    }

    /// Resolves one obligation of `parent`; when the last one drains the
    /// producer's chain wait ends — its `chain` span is emitted — and its
    /// instance moves on to the response path.
    pub(super) fn resolve_dag_obligation(
        &mut self,
        now: SimTime,
        parent: RequestId,
        sched: &mut Sched,
    ) {
        let cold = self.cold_mut(parent);
        debug_assert!(cold.dag_pending > 0, "resolving with no pending obligations");
        cold.dag_pending -= 1;
        if cold.dag_pending > 0 {
            return;
        }
        let chain_started = cold.chain_started.expect("fork without a start time");
        cold.breakdown.chain_ms = (now - chain_started).as_millis();
        let (chain_span, producer_root) = (cold.chain_span, cold.root_span);
        self.workflows.drop_children(parent);
        if chain_span.is_some() {
            let span = (chain_started, now);
            self.telemetry.emit(chain_span, producer_root, parent, span_tag::CHAIN, span);
        }
        let pinst = self.hot(parent).instance.expect("forking producer without instance");
        sched.schedule_at(now, CloudEvent::ExecDone(parent, pinst));
    }

    /// Books an internal completion on its node's record, then frees its
    /// slot.
    pub(super) fn finish_internal(&mut self, rid: RequestId) {
        let (hot, cold) = self.requests.free(rid);
        self.workflows.record_completed(hot.function, &cold.breakdown);
    }
}
