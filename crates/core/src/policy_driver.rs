//! Policy-aware client driver: tail-tolerance machines per logical
//! request.
//!
//! When a [`crate::config::RuntimeConfig`] carries a
//! [`policy::PolicySpec`], the client stops being a fire-and-forget
//! submitter: every *logical* request owns a [`policy::Composite`] state
//! machine that may launch duplicate attempts (hedges, tied copies,
//! retries), cancel in-flight attempts, or abandon the request at a
//! deadline. The first successful attempt is the logical request's
//! latency sample; everything else the policy launched is accounted as
//! wasted work in [`policy::PolicyStats`], never in the latency
//! aggregates.
//!
//! # Determinism
//!
//! The driver is strictly serial per cell. The only randomness it adds
//! beyond the arrival process is the jitter stream, a dedicated
//! `fork("policy")` of the cell seed, drawn once per delivered timer
//! wake-up — so a given `(spec, seed)` pair replays bit-identically
//! regardless of queue backend or sweep thread count. Unlike the
//! no-policy drivers it does *not* use the cloud's submission window:
//! the number of physical submissions is data-dependent (a hedge fires
//! or it does not), so the window's draw-count reservation cannot be
//! precomputed. Cross-thread byte-identity still holds because each
//! cell is serial and the sweep merges cells in index order.
//!
//! # Event ordering
//!
//! Each iteration advances the cloud to the *earliest* of: the next
//! pending arrival, the earliest armed policy timer, or a bounded slice.
//! Completions drained at that boundary are processed before timers due
//! at it — a win at `t` beats a hedge or abandon timer at `t`, matching
//! how a real client's response handler races its own timeout wheel.
//! Cancellations issued at `t` take effect at the cloud's next event
//! boundary, so an attempt that has not completed by `t` never produces
//! a completion afterwards.

use std::collections::BinaryHeap;
use std::collections::HashMap;

use faas_sim::cloud::CloudSim;
use faas_sim::request::{Completion, TransferSample};
use faas_sim::types::{FunctionId, RequestId};
use policy::machine::{Action, Actions, PolicyEvent};
use policy::{Composite, PolicyMachine, PolicySpec, PolicyStats};
use simkit::rng::Rng;
use simkit::time::SimTime;
use stats::percentile::RunningQuantile;
use workload::arrival::ArrivalProcess;
use workload::stats::LoadRecorder;

use crate::client::{ClientError, Collector, MeasureSpec, RunResult};
use crate::config::RuntimeConfig;
use crate::deployer::Deployment;

/// Loop shape of a policy-driven run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DriveMode {
    /// Arrivals follow the process schedule regardless of completions.
    Open,
    /// Fixed population of virtual users with think times.
    Closed {
        /// Number of virtual users.
        concurrency: u32,
    },
}

/// One physical attempt of a logical request.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    rid: RequestId,
    done: bool,
    cancelled: bool,
}

/// Per-logical-request state. Pooled and reused via a free list so the
/// steady-state hot path allocates nothing.
struct Slot {
    tag: u64,
    function: FunctionId,
    machine: Composite,
    attempts: Vec<Attempt>,
    outstanding: u32,
    /// Timer-heap entries still pending for this occupancy of the slot.
    /// When this hits zero with no outstanding attempts and no win, the
    /// machine can never act again — the logical request is lost.
    pending_timers: u32,
    won: bool,
    abandoned: bool,
}

/// Winner samples needed before an online quantile threshold activates.
/// Below this the estimate is too noisy to hedge on; machines treat a
/// NaN estimate as "do not fire".
const ESTIMATE_WARMUP: usize = 20;

/// Advance-at-most slice when no timer or arrival is nearer, 1 s.
const SLICE: SimTime = SimTime::from_nanos(1_000_000_000);

/// Consecutive boundaries without progress before declaring a stall.
const STALL_LIMIT: u32 = 3_600;

/// Drives `process` against `deployment` with a tail-tolerance policy
/// attached to every logical request.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_with_policy(
    cloud: &mut CloudSim,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
    process: &mut dyn ArrivalProcess,
    rng: &mut Rng,
    measure: &MeasureSpec,
    spec: &PolicySpec,
    seed: u64,
    mode: DriveMode,
) -> Result<RunResult, ClientError> {
    let start = cloud.now();
    let mut total = u64::from(cfg.warmup_rounds + cfg.measured_rounds());
    if let Some(remaining) = process.remaining() {
        total = total.min(remaining);
    }
    let warmup_tag = u64::from(cfg.warmup_rounds);
    let multi_source = process.sources() > 1;
    let online_q = spec.online_quantile();
    let cancel_base = cloud.cancel_stats();
    cloud.reserve_event_hint(total as usize);

    let mut collector = Collector::new(measure, warmup_tag);
    let mut recorder = LoadRecorder::default();
    // Arrival instants are decided out of time order in closed mode (per
    // completion) and may be clamped forward, so they transit a min-heap
    // and are flushed once the clock passes them.
    let mut record_heap: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
    let mut jitter_rng = Rng::seed_from(seed).fork("policy");
    // The exact quantile of every winner so far, read on each arrival:
    // O(log n) per winner and O(1) per read, 8 B per winner (reserved up
    // front from the known request count).
    let mut estimate = online_q.map(|q| RunningQuantile::with_capacity(q, total as usize));
    let mut stats = PolicyStats::default();

    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut by_tag: HashMap<u64, usize> = HashMap::new();
    // Armed policy timers: (fire instant ns, logical tag). Stale entries
    // (slot already resolved and freed) are skipped on delivery.
    let mut timers: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut actions = Actions::new();

    let mut issued = 0u64;
    let mut resolved = 0u64;
    let mut exhausted = false;
    // Next open-loop arrival, generated one ahead of submission.
    let mut next_arrival: Option<SimTime> = None;
    let mut open_clock = start;
    // Think-turn queue for closed mode: logical resolution instants that
    // still owe a user turn.
    let mut turns: Vec<SimTime> = Vec::new();

    let estimate_ms = |estimate: &Option<RunningQuantile>| -> f64 {
        match estimate {
            Some(e) if e.count() >= ESTIMATE_WARMUP => e.value(),
            _ => f64::NAN,
        }
    };

    // Issues logical request `tag` at `at` (>= cloud.now()): builds or
    // reuses a slot, submits the primary attempt, and runs the machine's
    // Issued event (which may launch tied copies or arm timers).
    macro_rules! issue_logical {
        ($tag:expr, $at:expr, $source:expr) => {{
            let tag: u64 = $tag;
            let at: SimTime = $at;
            let endpoint = &deployment.endpoints[$source % deployment.len()];
            let idx = match free.pop() {
                Some(idx) => {
                    let slot = &mut slots[idx];
                    slot.tag = tag;
                    slot.function = endpoint.function;
                    slot.machine.reset();
                    slot.attempts.clear();
                    slot.outstanding = 0;
                    slot.pending_timers = 0;
                    slot.won = false;
                    slot.abandoned = false;
                    idx
                }
                None => {
                    slots.push(Slot {
                        tag,
                        function: endpoint.function,
                        machine: spec.build(),
                        attempts: Vec::new(),
                        outstanding: 0,
                        pending_timers: 0,
                        won: false,
                        abandoned: false,
                    });
                    slots.len() - 1
                }
            };
            by_tag.insert(tag, idx);
            let rid = cloud.submit(endpoint.function, tag, at);
            let slot = &mut slots[idx];
            slot.attempts.push(Attempt { rid, done: false, cancelled: false });
            slot.outstanding = 1;
            stats.logical += 1;
            record_heap.push(std::cmp::Reverse(at.as_nanos()));
            let est = estimate_ms(&estimate);
            actions.clear();
            slot.machine.on_event(
                PolicyEvent::Issued { now_ms: at.as_millis(), estimate_ms: est },
                &mut actions,
            );
            exec_actions!(idx, at);
        }};
    }

    // Applies the machine's pending `actions` to slot `idx`, with `at`
    // as the current logical instant (attempt launches happen at `at`).
    macro_rules! exec_actions {
        ($idx:expr, $at:expr) => {{
            let idx: usize = $idx;
            let at: SimTime = $at;
            let taken = actions;
            actions = Actions::new();
            for action in &taken {
                match *action {
                    Action::Arm { at_ms } => {
                        let fire = SimTime::from_millis(at_ms).max(at);
                        timers.push(std::cmp::Reverse((fire.as_nanos(), slots[idx].tag)));
                        slots[idx].pending_timers += 1;
                    }
                    Action::Launch => {
                        let slot = &mut slots[idx];
                        let rid = cloud.submit(slot.function, slot.tag, at);
                        slot.attempts.push(Attempt { rid, done: false, cancelled: false });
                        slot.outstanding += 1;
                        stats.extra_launches += 1;
                    }
                    Action::CancelOutstanding => {
                        let slot = &mut slots[idx];
                        for attempt in slot.attempts.iter_mut() {
                            if !attempt.done && !attempt.cancelled {
                                cloud.cancel(attempt.rid);
                                attempt.cancelled = true;
                                slot.outstanding -= 1;
                                stats.cancels += 1;
                            }
                        }
                    }
                    Action::Abandon => {
                        let slot = &mut slots[idx];
                        if !slot.abandoned && !slot.won {
                            slot.abandoned = true;
                            for attempt in slot.attempts.iter_mut() {
                                if !attempt.done && !attempt.cancelled {
                                    cloud.cancel(attempt.rid);
                                    attempt.cancelled = true;
                                    slot.outstanding -= 1;
                                    stats.cancels += 1;
                                }
                            }
                            stats.abandoned += 1;
                            resolved += 1;
                            turns.push(at);
                        }
                    }
                }
            }
            maybe_free!(idx);
        }};
    }

    // Returns a resolved slot with no outstanding attempts to the pool.
    macro_rules! maybe_free {
        ($idx:expr) => {{
            let idx: usize = $idx;
            let slot = &slots[idx];
            if (slot.won || slot.abandoned) && slot.outstanding == 0 {
                by_tag.remove(&slot.tag);
                free.push(idx);
            }
        }};
    }

    // Resolves a logical request whose machine can never act again:
    // every attempt failed (or was cancelled), nothing is outstanding,
    // and no retry/abandon timer remains armed. Without this check a
    // run whose final attempt returns a provider error would stall.
    macro_rules! check_dead_end {
        ($idx:expr, $at:expr) => {{
            let idx: usize = $idx;
            let at: SimTime = $at;
            let slot = &mut slots[idx];
            if !slot.won && !slot.abandoned && slot.outstanding == 0 && slot.pending_timers == 0 {
                slot.abandoned = true;
                stats.failed_logical += 1;
                resolved += 1;
                turns.push(at);
                maybe_free!(idx);
            }
        }};
    }

    // Seed the run.
    match mode {
        DriveMode::Open => {
            let gap = process.next_gap_ms(rng);
            if gap.is_finite() {
                open_clock += SimTime::from_millis(gap);
                next_arrival = Some(open_clock);
            } else {
                exhausted = true;
            }
        }
        DriveMode::Closed { concurrency } => {
            // Thundering herd: all users fire at the start.
            let initial = u64::from(concurrency).min(total);
            for _ in 0..initial {
                let source = issued as usize;
                issue_logical!(issued, start, source);
                issued += 1;
            }
        }
    }

    let mut comp_buf: Vec<Completion> = Vec::new();
    let mut trans_buf: Vec<TransferSample> = Vec::new();
    let mut stall = 0u32;
    loop {
        let more_arrivals = issued < total && !exhausted;
        if resolved >= issued && !more_arrivals {
            break;
        }
        // Advance to the earliest interesting instant: next arrival,
        // earliest timer, or at most one slice.
        let mut next = cloud.now() + SLICE;
        if let (DriveMode::Open, Some(at)) = (mode, next_arrival) {
            if more_arrivals {
                next = next.min(at.max(cloud.now()));
            }
        }
        if let Some(&std::cmp::Reverse((ns, _))) = timers.peek() {
            next = next.min(SimTime::from_nanos(ns).max(cloud.now()));
        }

        // Submit open-loop arrivals due by the boundary.
        if let DriveMode::Open = mode {
            while issued < total && !exhausted {
                let Some(at) = next_arrival else { break };
                if at > next {
                    break;
                }
                let source = if multi_source { process.source() } else { issued as usize };
                issue_logical!(issued, at.max(cloud.now()), source);
                issued += 1;
                let gap = process.next_gap_ms(rng);
                if gap.is_finite() {
                    open_clock += SimTime::from_millis(gap);
                    next_arrival = Some(open_clock);
                } else {
                    exhausted = true;
                    next_arrival = None;
                }
            }
        }

        cloud.run_until(next);
        let now = cloud.now();
        let now_ms = now.as_millis();

        // 1. Completions first: a response at the boundary beats any
        // timer due at it.
        cloud.drain_completions_into(&mut comp_buf);
        cloud.drain_transfers_into(&mut trans_buf);
        let mut progressed = !comp_buf.is_empty();
        for c in comp_buf.drain(..) {
            let Some(&idx) = by_tag.get(&c.tag) else {
                if !c.is_ok() {
                    // A failed attempt of an already-resolved request:
                    // its wasted work is booked cloud-side in
                    // `FaultStats`, nothing to account here.
                    continue;
                }
                // The logical request resolved earlier in this very
                // batch and the cancel aimed at this attempt arrived
                // after it had already completed — a futile cancel, so
                // the attempt is a duplicate success.
                let b = &c.breakdown;
                stats.duplicate_successes += 1;
                stats.wasted_busy_ms +=
                    b.steer_ms + b.handling_ms + b.payload_get_ms + b.exec_ms + b.chain_ms;
                continue;
            };
            let slot = &mut slots[idx];
            let b = &c.breakdown;
            let busy_ms = b.steer_ms + b.handling_ms + b.payload_get_ms + b.exec_ms + b.chain_ms;
            if let Some(attempt) = slot.attempts.iter_mut().find(|a| a.rid == c.id) {
                attempt.done = true;
                if !attempt.cancelled {
                    slot.outstanding -= 1;
                }
            }
            if !c.is_ok() {
                // Provider error: never a win, never a latency sample.
                // The machine may retry (after backoff) or hedge
                // immediately; if it has nothing left, the logical
                // request resolves as failed.
                stats.failures += 1;
                actions.clear();
                slots[idx].machine.on_event(PolicyEvent::Failed { now_ms }, &mut actions);
                exec_actions!(idx, now);
                check_dead_end!(idx, now);
                continue;
            }
            let first = !slot.won;
            if first {
                slot.won = true;
                stats.used_busy_ms += busy_ms;
                if let Some(e) = estimate.as_mut() {
                    e.record(c.latency_ms());
                }
                collector.absorb(c);
                resolved += 1;
                turns.push(now);
            } else {
                stats.duplicate_successes += 1;
                stats.wasted_busy_ms += busy_ms;
            }
            actions.clear();
            slots[idx].machine.on_event(PolicyEvent::Done { now_ms, first }, &mut actions);
            exec_actions!(idx, now);
        }
        for tr in trans_buf.drain(..) {
            collector.absorb_transfer(tr);
        }

        // 2. Timers due at the boundary. Each machine checks its own
        // next-wake time, so spurious deliveries are inert.
        while let Some(&std::cmp::Reverse((ns, tag))) = timers.peek() {
            if SimTime::from_nanos(ns) > now {
                break;
            }
            timers.pop();
            progressed = true;
            let Some(&idx) = by_tag.get(&tag) else { continue };
            slots[idx].pending_timers -= 1;
            let jitter = jitter_rng.next_f64();
            actions.clear();
            slots[idx].machine.on_event(PolicyEvent::Wake { now_ms, jitter }, &mut actions);
            exec_actions!(idx, now);
            check_dead_end!(idx, now);
        }

        // 3. Closed-loop think turns: one gap per *logical* resolution —
        // never per physical attempt, so a winning hedge cannot
        // double-credit think time (the coordinated-omission hazard).
        if let DriveMode::Closed { .. } = mode {
            let pending = std::mem::take(&mut turns);
            for done_at in pending {
                if issued < total && !exhausted {
                    let gap = process.next_gap_ms(rng);
                    if gap.is_finite() {
                        let at = (done_at + SimTime::from_millis(gap)).max(cloud.now());
                        let source = issued as usize;
                        issue_logical!(issued, at, source);
                        issued += 1;
                    } else {
                        exhausted = true;
                    }
                }
            }
        } else {
            turns.clear();
        }

        // Flush arrival records the clock has passed.
        let now_ns = cloud.now().as_nanos();
        while let Some(&std::cmp::Reverse(ns)) = record_heap.peek() {
            if ns > now_ns {
                break;
            }
            record_heap.pop();
            recorder.record(ns as f64 / 1e6);
        }

        if progressed {
            stall = 0;
        } else {
            stall += 1;
            if stall >= STALL_LIMIT {
                break;
            }
        }
    }

    // Settle cancellations issued at the final boundary so wasted-work
    // accounting below sees them.
    cloud.run_until(cloud.now());
    while let Some(std::cmp::Reverse(ns)) = record_heap.pop() {
        recorder.record(ns as f64 / 1e6);
    }
    let cancel_now = cloud.cancel_stats();
    stats.wasted_busy_ms += cancel_now.wasted_busy_ms - cancel_base.wasted_busy_ms;

    if resolved < issued {
        return Err(ClientError::IncompleteRun {
            received: resolved as usize,
            expected: issued as usize,
            completions: Vec::new(),
        });
    }
    let winners = (issued - stats.abandoned - stats.failed_logical) as usize;
    let duration = cloud.now() - start;
    let mut result = collector.finish(winners, duration, Some(recorder.finish()))?;
    result.policy = Some(stats);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use policy::spec::ThresholdSpec;
    use workload::spec::WorkloadSpec;

    use crate::client::{run_workload, run_workload_spec, MeasureSpec};
    use crate::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
    use crate::deployer::{deploy, Deployment};
    use faas_sim::cloud::CloudSim;
    use faas_sim::testutil::test_provider;
    use policy::PolicySpec;

    fn setup(cfg: &RuntimeConfig) -> (CloudSim, Deployment) {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cloud = CloudSim::new(test_provider(), 7);
        let d = deploy(&mut cloud, &static_cfg, cfg).unwrap();
        (cloud, d)
    }

    fn open_spec() -> WorkloadSpec {
        WorkloadSpec::from_json(r#"{"arrival": {"kind": "exponential", "mean_ms": 400.0}}"#)
            .unwrap()
    }

    #[test]
    fn iat_config_with_a_policy_runs_the_policy() {
        let cfg = RuntimeConfig::single(IatSpec::short(), 10)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        let (mut cloud, d) = setup(&cfg);
        let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
        let stats = result.policy.expect("an IAT run with a policy reports policy stats");
        assert_eq!(stats.logical, 10);
    }

    #[test]
    fn hedge_fires_on_every_slow_request_and_loses_to_the_primary() {
        // 300 ms execution means every request exceeds a 200 ms static
        // hedge threshold; the hedge starts 200 ms behind and can never
        // win, so it is cancelled mid-flight every time.
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 40)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        cfg.warmup_rounds = 2;
        cfg.exec_ms = 300.0;
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 3, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 40);
        let stats = result.policy.expect("policy runs report stats");
        assert_eq!(stats.logical, 42);
        assert_eq!(stats.extra_launches, 42, "every request hedged");
        assert!(stats.cancels >= 42, "every hedge was cancelled");
        assert_eq!(stats.abandoned, 0);
        assert!(stats.wasted_busy_ms > 0.0, "cancelled hedges burned instance time");
        assert!(stats.used_busy_ms > stats.wasted_busy_ms, "winners ran to completion");
        // Latency samples come from winners only: ~340 ms, not 540.
        for ms in result.latencies_ms() {
            assert!(ms < 520.0, "hedge must not pollute samples, got {ms}");
        }
    }

    #[test]
    fn fast_requests_never_hedge() {
        // Threshold above even the cold-start latency (~280 ms on the
        // test provider), so no request in the run crosses it.
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 30).with_policy(PolicySpec::Hedge {
            threshold: ThresholdSpec::Static { ms: 500.0 },
            max_hedges: 1,
        });
        cfg.warmup_rounds = 2;
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 5, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 30);
        let stats = result.policy.unwrap();
        assert_eq!(stats.extra_launches, 0, "warm 40 ms requests stay under 200 ms");
        assert_eq!(stats.cancels, 0);
        assert_eq!(stats.duplicate_successes, 0);
        assert_eq!(stats.wasted_busy_ms, 0.0);
    }

    #[test]
    fn deadline_abandons_requests_that_cannot_finish() {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 10)
            .with_policy(PolicySpec::Deadline { deadline_ms: 100.0 });
        cfg.exec_ms = 500.0; // every request takes ~540 ms > 100 ms
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 9, &MeasureSpec::exact())
                .unwrap();
        let stats = result.policy.unwrap();
        assert_eq!(stats.abandoned, 10, "no request can meet the deadline");
        assert_eq!(result.completions.len(), 0, "abandoned requests produce no samples");
        assert_eq!(result.measured_count, 0);
        assert!(stats.wasted_busy_ms > 0.0, "abandoned work is accounted as waste");
    }

    #[test]
    fn tied_requests_duplicate_and_keep_one_sample_per_arrival() {
        let mut cfg =
            RuntimeConfig::single(IatSpec::short(), 25).with_policy(PolicySpec::Tied { copies: 2 });
        cfg.warmup_rounds = 5;
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 13, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 25, "one sample per logical request");
        assert_eq!(result.warmup_completions.len(), 5);
        let stats = result.policy.unwrap();
        assert_eq!(stats.extra_launches, 30, "one tied copy per arrival");
        // Warm tied copies finish within the same slice as the winner:
        // the winner's cancel is issued after the loser already
        // completed, so every loser is a futile cancel plus a duplicate
        // success.
        assert_eq!(stats.cancels, 30, "every loser gets a (possibly futile) cancel");
        assert!(
            stats.duplicate_successes >= 1,
            "same-slice losers complete before their cancel lands: {stats:?}"
        );
        assert!(stats.wasted_busy_ms > 0.0);
    }

    #[test]
    fn closed_loop_thinks_once_per_logical_request() {
        // The coordinated-omission regression: a winning duplicate must
        // not credit an extra think-time gap. One gap is sampled per
        // logical resolution, so offered arrivals equal the requested
        // total even when every request launches two attempts.
        let total = 30u32;
        let mut cfg = RuntimeConfig::single(IatSpec::short(), total)
            .with_policy(PolicySpec::Tied { copies: 2 });
        cfg.warmup_rounds = 0;
        let spec = WorkloadSpec::from_json(
            r#"{"arrival": {"kind": "fixed", "ms": 50.0},
                "mode": {"mode": "closed", "concurrency": 4}}"#,
        )
        .unwrap();
        let (mut cloud, d) = setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &spec, 21, &MeasureSpec::exact()).unwrap();
        assert_eq!(result.completions.len(), total as usize);
        let offered = result.offered.expect("policy runs report offered load");
        assert_eq!(
            offered.arrivals,
            u64::from(total),
            "one arrival per logical request, never per physical attempt"
        );
        let stats = result.policy.unwrap();
        assert_eq!(stats.logical, u64::from(total));
        assert_eq!(stats.extra_launches, u64::from(total), "tied-2 doubles every request");
        assert!(
            stats.duplicate_successes >= 1,
            "warm tied copies race the winner into the same batch: {stats:?}"
        );
    }

    #[test]
    fn policy_run_is_deterministic_and_seed_sensitive() {
        let mut cfg =
            RuntimeConfig::single(IatSpec::short(), 30).with_policy(PolicySpec::Compose {
                parts: vec![
                    PolicySpec::Hedge {
                        threshold: ThresholdSpec::Static { ms: 150.0 },
                        max_hedges: 1,
                    },
                    PolicySpec::Deadline { deadline_ms: 5_000.0 },
                ],
            });
        cfg.warmup_rounds = 3;
        cfg.exec_ms = 120.0;
        let run = |seed: u64| {
            let (mut cloud, d) = setup(&cfg);
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), seed, &MeasureSpec::exact())
                .unwrap()
                .latencies_ms()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn streaming_policy_run_matches_keep_samples_run() {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 60)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        cfg.warmup_rounds = 5;
        cfg.exec_ms = 250.0;
        let (mut cloud_a, d_a) = setup(&cfg);
        let exact =
            run_workload_spec(&mut cloud_a, &d_a, &cfg, &open_spec(), 17, &MeasureSpec::exact())
                .unwrap();
        let (mut cloud_b, d_b) = setup(&cfg);
        let streaming =
            run_workload_spec(&mut cloud_b, &d_b, &cfg, &open_spec(), 17, &MeasureSpec::sketch())
                .unwrap();
        assert_eq!(streaming.measured_count, exact.completions.len() as u64);
        assert_eq!(streaming.policy, exact.policy, "accounting is measure-independent");
        let agg = streaming.latency_agg.clone();
        let lat = exact.latencies_ms();
        assert_eq!(agg.mean(), lat.iter().sum::<f64>() / lat.len() as f64);
        assert_eq!(streaming.duration, exact.duration);
        assert_eq!(cloud_b.request_slab_stats(), cloud_a.request_slab_stats());
    }
}
