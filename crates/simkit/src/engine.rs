//! The discrete-event simulation engine.
//!
//! The engine is a time-ordered priority queue of typed events plus a
//! dispatch loop. A simulation is a [`Model`] (user state + event handler)
//! driven by a [`Simulation`], which owns the event queue via a
//! [`Scheduler`]. The handler receives the scheduler so it can post future
//! events while processing the current one.
//!
//! Events at equal timestamps are delivered in FIFO insertion order (a
//! monotone sequence number breaks ties), which makes simulations fully
//! deterministic.

use crate::calqueue::{CalQueueStats, CalendarQueue};
use crate::profile::{EventClass, EventProfile, Profiler};
use crate::soa::{EventKey, KeyedHeap};
use crate::time::SimTime;

/// Which pending-event queue implementation a [`Scheduler`] uses.
///
/// All backends dispatch events in exactly the same total order —
/// ascending `(time, seq)` — so simulation results are bit-identical
/// across them; the choice is purely a performance trade-off. The
/// calendar queue ([`crate::calqueue`]) is amortized O(1) per operation
/// and wins decisively once the pending-event count is large (e.g. a
/// million-invocation submission schedule), but its wheel bookkeeping
/// carries a constant factor the binary heap does not pay on small
/// pending sets. The adaptive backend (the default) starts on the heap
/// and promotes to the wheel once the pending set crosses
/// [`PROMOTE_PENDING`], so toy runs and fleet-scale schedules both get
/// the cheaper structure without anyone picking by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// `std::collections::BinaryHeap`, O(log n) push/pop.
    BinaryHeap,
    /// Bucketed timer wheel, amortized O(1) push/pop.
    Calendar,
    /// Binary heap that promotes itself to a calendar queue once the
    /// pending set exceeds [`PROMOTE_PENDING`] (the default).
    #[default]
    Adaptive,
}

/// Pending-event count past which the adaptive backend abandons its
/// binary heap for the calendar queue.
///
/// Below this the heap's O(log n) is cheap (log₂ 4096 = 12 comparisons)
/// and free of wheel bookkeeping; above it the calendar queue's
/// amortized O(1) wins (BENCH_3: 1.8× at 10⁶ pending). Promotion is
/// one-way — a drained wheel stays a wheel, because a workload that
/// crossed the threshold once tends to cross it again and re-promoting
/// would thrash the O(n) migration.
pub const PROMOTE_PENDING: usize = 4096;

/// User-provided simulation state and event handler.
pub trait Model {
    /// The event type dispatched by the engine.
    type Event;

    /// Handles one event occurring at simulated time `now`. New events may
    /// be posted through `sched`; they must not be scheduled in the past.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The interchangeable queue implementations behind a [`Scheduler`].
///
/// Both heap variants store events structure-of-arrays ([`KeyedHeap`]):
/// sifting compares and streams only the dense 16-byte [`EventKey`] array,
/// with payloads swapped in lockstep from a parallel allocation.
enum Backend<E> {
    Heap(KeyedHeap<E>),
    Calendar(CalendarQueue<E>),
    /// The adaptive backend's start state: a binary heap that promotes
    /// itself to `Calendar` once pending exceeds [`PROMOTE_PENDING`]
    /// (or a `reserve` announces that many events are coming).
    Adaptive(KeyedHeap<E>),
}

impl<E> Backend<E> {
    /// Inserts an event; returns `true` if this push promoted the
    /// adaptive backend to the calendar queue.
    fn push(&mut self, key: EventKey, event: E) -> bool {
        match self {
            Backend::Heap(h) => {
                h.push(key, event);
                false
            }
            Backend::Calendar(c) => {
                c.schedule(key.at, key.seq, event);
                false
            }
            Backend::Adaptive(h) => {
                h.push(key, event);
                if h.len() > PROMOTE_PENDING {
                    self.promote(0);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Migrates the adaptive heap's contents into a calendar queue.
    ///
    /// Both structures honor the same ascending `(time, seq)` total
    /// order, so migrating mid-run cannot change dispatch order — the
    /// wheel re-derives its bucket width from the migrated events
    /// exactly as if they had been scheduled there all along.
    fn promote(&mut self, expected: usize) {
        if let Backend::Adaptive(heap) = self {
            let mut heap = std::mem::take(heap);
            let mut cal = CalendarQueue::new();
            cal.reserve(expected.max(heap.len()));
            for (key, event) in heap.drain() {
                cal.schedule(key.at, key.seq, event);
            }
            *self = Backend::Calendar(cal);
        }
    }

    fn pop(&mut self) -> Option<(EventKey, E)> {
        match self {
            Backend::Heap(h) | Backend::Adaptive(h) => h.pop(),
            Backend::Calendar(c) => c.pop().map(|(at, seq, event)| (EventKey { at, seq }, event)),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backend::Heap(h) | Backend::Adaptive(h) => h.len(),
            Backend::Calendar(c) => c.len(),
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        match self {
            Backend::Heap(h) | Backend::Adaptive(h) => h.peek_key().map(|k| k.at),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    /// Pre-sizes for `additional` more events; returns `true` if the
    /// reservation promoted the adaptive backend.
    fn reserve(&mut self, additional: usize) -> bool {
        match self {
            Backend::Heap(h) => {
                h.reserve(additional);
                false
            }
            Backend::Calendar(c) => {
                c.reserve(additional);
                false
            }
            Backend::Adaptive(h) => {
                // A reservation announcing a large workload promotes
                // immediately: the calendar gets the capacity hint and
                // sizes its wheel in one rebuild instead of doubling. The
                // hint covers the events already pending plus the
                // announced batch — forwarding only `additional` would
                // undersell the wheel by the current backlog.
                let expected = h.len() + additional;
                if expected > PROMOTE_PENDING {
                    self.promote(expected);
                    true
                } else {
                    h.reserve(additional);
                    false
                }
            }
        }
    }

    fn calendar_stats(&self) -> Option<CalQueueStats> {
        match self {
            Backend::Heap(_) | Backend::Adaptive(_) => None,
            Backend::Calendar(c) => Some(c.stats()),
        }
    }
}

/// The pending-event queue handed to [`Model::handle`].
///
/// # Tie-break / monotonicity contract
///
/// Every scheduled event is stamped with a `u64` sequence number that
/// increases monotonically for the lifetime of the scheduler and is
/// **never reset** — not by [`Simulation::run_until`] returning at a
/// horizon, not by the queue draining empty. Dispatch order is ascending
/// `(time, seq)`, so events sharing a timestamp are delivered in exactly
/// the order they were scheduled (FIFO), even when their `schedule_at`
/// calls are separated by any number of `run_until` horizons. Every queue
/// backend ([`QueueKind`]) honors this total order bit-for-bit, which is
/// what keeps simulations deterministic and backend-independent. The one
/// exception to "stamped when scheduled" is a number taken ahead with
/// [`Scheduler::take_seq`] for an event queued later, such as a timer
/// that may be superseded before it is ever queued.
pub struct Scheduler<E> {
    queue: Backend<E>,
    seq: u64,
    now: SimTime,
    /// Sequence number of the event being dispatched.
    current_seq: u64,
    promotions: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::with_queue(QueueKind::default())
    }
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler::default()
    }

    fn with_queue(kind: QueueKind) -> Self {
        let queue = match kind {
            QueueKind::BinaryHeap => Backend::Heap(KeyedHeap::new()),
            QueueKind::Calendar => Backend::Calendar(CalendarQueue::new()),
            QueueKind::Adaptive => Backend::Adaptive(KeyedHeap::new()),
        };
        Scheduler { queue, seq: 0, now: SimTime::ZERO, current_seq: 0, promotions: 0 }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule in the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        if self.queue.push(EventKey { at, seq }, event) {
            self.promotions += 1;
        }
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_in(&mut self, now: SimTime, delay: SimTime, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// Takes the next sequence number without scheduling anything, for
    /// an event that may be queued later (or never) and must order as if
    /// it had been scheduled now (see [`Scheduler::schedule_at_with_seq`]).
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at `at` under a sequence number taken earlier
    /// with [`Scheduler::take_seq`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past or `seq` was never taken.
    pub fn schedule_at_with_seq(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(at >= self.now, "cannot schedule in the past: {at} < {}", self.now);
        assert!(seq < self.seq, "seq {seq} was not taken");
        if self.queue.push(EventKey { at, seq }, event) {
            self.promotions += 1;
        }
    }

    /// Sequence number of the event being dispatched: with the current
    /// time it forms the `(time, seq)` key every pending event is ordered
    /// after.
    pub fn current_seq(&self) -> u64 {
        self.current_seq
    }

    /// Lifetime self-correction counters of the calendar backend; `None`
    /// on the binary heap and on an adaptive queue that has not promoted
    /// yet (a plain heap has no wheel machinery to observe).
    pub fn queue_stats(&self) -> Option<CalQueueStats> {
        self.queue.calendar_stats()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.len() == 0
    }

    /// Timestamp of the next pending event, if any.
    ///
    /// O(1) on the binary-heap backend but O(pending) on the calendar
    /// queue — use it for occasional inspection, never inside a per-event
    /// loop (the engine's own run loops do not call it).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Reserves capacity for at least `additional` more pending events, so
    /// a workload of known size never reallocates the queue mid-run.
    pub fn reserve(&mut self, additional: usize) {
        if self.queue.reserve(additional) {
            self.promotions += 1;
        }
    }

    /// How many times the adaptive backend has promoted its binary heap
    /// to the calendar queue. Promotion is one-way, so for a healthy
    /// adaptive run this is 0 (stayed small) or 1; a bulk `reserve` that
    /// forwards its hint correctly promotes exactly once, up front.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Pops the earliest entry without advancing the clock.
    fn pop_entry(&mut self) -> Option<(EventKey, E)> {
        self.queue.pop()
    }

    /// Puts back an entry just popped by [`Scheduler::pop_entry`],
    /// preserving its original sequence number (used by `run_until` when
    /// the earliest event lies beyond the horizon).
    fn restore(&mut self, key: EventKey, event: E) {
        if self.queue.push(key, event) {
            self.promotions += 1;
        }
    }
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .finish()
    }
}

/// A running simulation: a [`Model`] plus its event queue and clock.
///
/// # Examples
///
/// See the crate-level documentation for a complete example.
pub struct Simulation<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    processed: u64,
    profiler: Option<Profiler<M::Event>>,
}

impl<M: Model + std::fmt::Debug> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("model", &self.model)
            .field("sched", &self.sched)
            .field("processed", &self.processed)
            .field("profiled", &self.profiler.is_some())
            .finish()
    }
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation around `model` with an empty event queue at
    /// time zero, using the default queue backend ([`QueueKind::Adaptive`]).
    pub fn new(model: M) -> Self {
        Simulation { model, sched: Scheduler::new(), processed: 0, profiler: None }
    }

    /// Creates a simulation with an explicit queue backend. Results are
    /// bit-identical across backends (see [`QueueKind`]); this exists for
    /// performance comparison and as an escape hatch.
    pub fn with_queue(model: M, kind: QueueKind) -> Self {
        Simulation { model, sched: Scheduler::with_queue(kind), processed: 0, profiler: None }
    }

    /// Turns on per-event wall-clock profiling (see [`crate::profile`]).
    ///
    /// Only the `run`/`run_until` dispatch loops are instrumented; when
    /// profiling is off they carry no timestamping. Idempotent — calling
    /// twice keeps the accumulated profile.
    pub fn enable_event_profiling(&mut self)
    where
        M::Event: EventClass,
    {
        if self.profiler.is_none() {
            self.profiler = Some(Profiler::new());
        }
    }

    /// The accumulated event-cost profile, if profiling is enabled.
    pub fn event_profile(&self) -> Option<&EventProfile> {
        self.profiler.as_ref().map(Profiler::profile)
    }

    /// Adaptive-backend promotion count (see [`Scheduler::promotions`]).
    pub fn promotions(&self) -> u64 {
        self.sched.promotions()
    }

    /// Current simulated time (time of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules an event at absolute time `at` (before or during a run).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        self.sched.schedule_at(at, event);
    }

    /// Event-queue self-correction counters (see
    /// [`Scheduler::queue_stats`]).
    pub fn queue_stats(&self) -> Option<CalQueueStats> {
        self.sched.queue_stats()
    }

    /// Pre-sizes the event queue for at least `additional` more pending
    /// events (see [`Scheduler::reserve`]).
    pub fn reserve_events(&mut self, additional: usize) {
        self.sched.reserve(additional);
    }

    /// Dispatches the next event, if any. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop_entry() {
            Some((key, event)) => {
                debug_assert!(key.at >= self.sched.now);
                self.sched.now = key.at;
                self.sched.current_seq = key.seq;
                self.processed += 1;
                self.model.handle(key.at, event, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        if self.profiler.is_some() {
            self.run_profiled(None, |_| false);
            return;
        }
        while self.step() {}
    }

    /// Runs until the queue is empty or the next event is later than
    /// `horizon`. Events exactly at `horizon` are processed, and the clock
    /// always advances to `horizon` so repeated calls compose and state
    /// snapshots taken afterwards see the full elapsed time.
    ///
    /// The loop pops each entry and dispatches it if it is within the
    /// horizon, restoring it (with its original sequence number, so FIFO
    /// order among equal timestamps survives — see [`Scheduler`]) when it
    /// lies beyond. Pop-then-restore rather than peek-then-pop keeps the
    /// loop O(1) per event on the calendar backend, where peeking is as
    /// expensive as a full bucket scan.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.run_until_or(horizon, |_| false);
    }

    /// [`Simulation::run_until`] that also stops right after the first
    /// dispatched event after which `stop(model)` holds. On such a stop
    /// the clock stays at that event's time rather than advancing to
    /// `horizon`, and the remaining events keep their FIFO order for the
    /// next call. `run_until` is this with a never-true condition, which
    /// monomorphizes away.
    pub fn run_until_or(&mut self, horizon: SimTime, mut stop: impl FnMut(&M) -> bool) {
        if self.profiler.is_some() {
            if self.run_profiled(Some(horizon), stop) {
                return;
            }
        } else {
            while let Some((key, event)) = self.sched.pop_entry() {
                if key.at > horizon {
                    self.sched.restore(key, event);
                    break;
                }
                self.sched.now = key.at;
                self.sched.current_seq = key.seq;
                self.processed += 1;
                self.model.handle(key.at, event, &mut self.sched);
                if stop(&self.model) {
                    return;
                }
            }
        }
        if self.sched.now < horizon {
            self.sched.now = horizon;
        }
    }

    /// The instrumented dispatch loop behind `run`/`run_until_or` when
    /// profiling is enabled; returns whether `stop` ended it.
    ///
    /// One wall-clock timestamp is taken per dispatched event; the delta
    /// since the previous timestamp is attributed to that event's class,
    /// so it covers the pop, the classification and the handler. The
    /// per-class sums therefore telescope to the loop's wall time (the
    /// only unattributed work is the final failed pop), which is what
    /// lets the cost table's total stand in for measured wall time.
    fn run_profiled(&mut self, horizon: Option<SimTime>, mut stop: impl FnMut(&M) -> bool) -> bool {
        use std::time::Instant;
        let profiler = self.profiler.as_mut().expect("run_profiled requires a profiler");
        let loop_start = Instant::now();
        let mut last = loop_start;
        let mut stopped = false;
        while let Some((key, event)) = self.sched.pop_entry() {
            if let Some(h) = horizon {
                if key.at > h {
                    self.sched.restore(key, event);
                    break;
                }
            }
            self.sched.now = key.at;
            self.sched.current_seq = key.seq;
            self.processed += 1;
            let class = profiler.class_of(&event);
            self.model.handle(key.at, event, &mut self.sched);
            let t = Instant::now();
            profiler.record(class, (t - last).as_nanos() as u64);
            last = t;
            if stop(&self.model) {
                stopped = true;
                break;
            }
        }
        profiler.record_loop(loop_start.elapsed().as_nanos() as u64);
        stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Mark(u32),
        Chain(u32),
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Mark(id) => self.seen.push((now, id)),
                Ev::Chain(n) => {
                    self.seen.push((now, n));
                    if n > 0 {
                        sched.schedule_in(now, SimTime::from_millis(1.0), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_millis(30.0), Ev::Mark(3));
        sim.schedule_at(SimTime::from_millis(10.0), Ev::Mark(1));
        sim.schedule_at(SimTime::from_millis(20.0), Ev::Mark(2));
        sim.run();
        let ids: Vec<u32> = sim.model().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(30.0));
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut sim = Simulation::new(Recorder::default());
        let t = SimTime::from_millis(5.0);
        for id in 0..20 {
            sim.schedule_at(t, Ev::Mark(id));
        }
        sim.run();
        let ids: Vec<u32> = sim.model().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::ZERO, Ev::Chain(4));
        sim.run();
        assert_eq!(sim.model().seen.len(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(4.0));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::ZERO, Ev::Chain(100));
        sim.run_until(SimTime::from_millis(10.0));
        assert_eq!(sim.model().seen.len(), 11); // t = 0..=10ms
        assert_eq!(sim.now(), SimTime::from_millis(10.0));
        // Remaining events still fire on the next run.
        sim.run();
        assert_eq!(sim.model().seen.len(), 101);
    }

    /// `run_until_or` stops right after the first event satisfying the
    /// condition, leaves the clock at that event rather than the horizon,
    /// and resumes in FIFO order on the next call — on the plain and the
    /// profiled dispatch loop alike.
    #[test]
    fn run_until_or_stops_after_the_first_matching_event() {
        for profiled in [false, true] {
            let mut sim = Simulation::new(Recorder::default());
            if profiled {
                sim.enable_event_profiling();
            }
            let ms = SimTime::from_millis;
            sim.schedule_at(ms(1.0), Ev::Mark(1));
            for id in 2..=4 {
                sim.schedule_at(ms(2.0), Ev::Mark(id));
            }
            sim.schedule_at(ms(5.0), Ev::Mark(5));
            let ids = |sim: &Simulation<Recorder>| -> Vec<u32> {
                sim.model().seen.iter().map(|&(_, id)| id).collect()
            };

            let hit_two = |m: &Recorder| m.seen.last().is_some_and(|&(_, id)| id == 2);
            sim.run_until_or(ms(10.0), hit_two);
            assert_eq!(ids(&sim), vec![1, 2], "profiled {profiled}");
            assert_eq!(sim.now(), ms(2.0), "clock stays at the stopping event");

            sim.run_until_or(ms(10.0), |m| m.seen.len() == 3);
            assert_eq!(ids(&sim), vec![1, 2, 3], "equal-time events resume in FIFO order");
            assert_eq!(sim.now(), ms(2.0));

            sim.run_until_or(ms(10.0), |_| false);
            assert_eq!(ids(&sim), vec![1, 2, 3, 4, 5]);
            assert_eq!(sim.now(), ms(10.0), "no stop: the clock reaches the horizon");
            if profiled {
                assert_eq!(sim.event_profile().unwrap().total_events(), 5);
            }
        }
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim = Simulation::new(Recorder::default());
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(sim.now(), SimTime::from_secs(1.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
                sched.schedule_at(now.saturating_sub(SimTime::from_nanos(1)), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule_at(SimTime::from_millis(1.0), ());
        sim.run();
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut sim = Simulation::new(Recorder::default());
        assert!(!sim.step());
    }

    /// The seq counter is never reset by `run_until` horizon re-entry:
    /// same-timestamp events scheduled before, between, and after horizons
    /// still dispatch in global FIFO order.
    #[test]
    fn seq_stays_monotone_across_run_until_horizons() {
        for kind in [QueueKind::BinaryHeap, QueueKind::Calendar, QueueKind::Adaptive] {
            let mut sim = Simulation::with_queue(Recorder::default(), kind);
            let t = SimTime::from_millis(50.0);
            sim.schedule_at(t, Ev::Mark(0));
            sim.schedule_at(t, Ev::Mark(1));
            // Return at two horizons before t, scheduling more events at t
            // after each; their seqs must continue where the first batch
            // left off.
            sim.run_until(SimTime::from_millis(10.0));
            sim.schedule_at(t, Ev::Mark(2));
            sim.schedule_at(t, Ev::Mark(3));
            sim.run_until(SimTime::from_millis(20.0));
            sim.schedule_at(t, Ev::Mark(4));
            // Events exactly at the horizon dispatch now (0..=4); one more
            // scheduled at `now == t` must still land after them.
            sim.run_until(t);
            sim.schedule_at(t, Ev::Mark(5));
            sim.run();
            let ids: Vec<u32> = sim.model().seen.iter().map(|&(_, id)| id).collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "backend {kind:?}");
        }
    }

    /// Handlers see the sequence number of the event being dispatched,
    /// on every dispatch path (`step`, `run_until`, profiled runs).
    #[test]
    fn current_seq_is_the_dispatched_events_seq() {
        /// An event that carries its own sequence number.
        struct Stamped(u64);
        impl EventClass for Stamped {
            const CLASS_NAMES: &'static [&'static str] = &["any"];
            fn class(&self) -> usize {
                0
            }
        }
        #[derive(Default)]
        struct SeqRecorder(Vec<u64>);
        impl Model for SeqRecorder {
            type Event = Stamped;
            fn handle(&mut self, _: SimTime, event: Stamped, sched: &mut Scheduler<Stamped>) {
                assert_eq!(sched.current_seq(), event.0);
                self.0.push(event.0);
            }
        }
        for profiled in [false, true] {
            let mut sim = Simulation::new(SeqRecorder::default());
            if profiled {
                sim.enable_event_profiling();
            }
            let (a, b, c) = (sim.sched.take_seq(), sim.sched.take_seq(), sim.sched.take_seq());
            // Scheduled out of seq order; dispatch is by (time, seq).
            sim.sched.schedule_at_with_seq(SimTime::from_millis(2.0), a, Stamped(a));
            sim.sched.schedule_at_with_seq(SimTime::from_millis(1.0), c, Stamped(c));
            sim.sched.schedule_at_with_seq(SimTime::from_millis(1.0), b, Stamped(b));
            sim.run_until(SimTime::from_millis(1.0));
            assert!(sim.step());
            assert_eq!(sim.model().0, vec![b, c, a], "profiled {profiled}");
        }
    }

    /// All queue backends produce identical dispatch sequences on a
    /// chained workload driven through interleaved horizons.
    #[test]
    fn backends_dispatch_identically() {
        let run = |kind: QueueKind| {
            let mut sim = Simulation::with_queue(Recorder::default(), kind);
            sim.schedule_at(SimTime::ZERO, Ev::Chain(60));
            sim.schedule_at(SimTime::from_millis(7.0), Ev::Mark(100));
            sim.run_until(SimTime::from_millis(25.0));
            sim.schedule_at(SimTime::from_millis(30.0), Ev::Mark(200));
            sim.run();
            sim.into_model().seen
        };
        let heap = run(QueueKind::BinaryHeap);
        assert_eq!(heap, run(QueueKind::Calendar));
        assert_eq!(heap, run(QueueKind::Adaptive));
    }

    /// The adaptive backend promotes itself to the calendar queue when the
    /// pending set crosses [`PROMOTE_PENDING`], and the migration preserves
    /// the exact `(time, seq)` dispatch order — including FIFO ties — so a
    /// run that straddles the promotion matches a pure-heap run bit for bit.
    #[test]
    fn adaptive_promotes_past_threshold_preserving_order() {
        let n = (PROMOTE_PENDING + 500) as u32;
        let run = |kind: QueueKind| {
            let mut sim = Simulation::with_queue(Recorder::default(), kind);
            for id in 0..n {
                // Deliberate timestamp ties (id / 4) exercise FIFO order
                // across the migration boundary.
                sim.schedule_at(SimTime::from_millis(f64::from(id / 4)), Ev::Mark(id));
            }
            sim.run();
            sim.into_model().seen
        };

        let mut adaptive = Simulation::with_queue(Recorder::default(), QueueKind::Adaptive);
        assert!(adaptive.queue_stats().is_none(), "starts on the heap");
        for id in 0..n {
            adaptive.schedule_at(SimTime::from_millis(f64::from(id / 4)), Ev::Mark(id));
        }
        assert!(adaptive.queue_stats().is_some(), "promoted past PROMOTE_PENDING");
        adaptive.run();
        assert_eq!(adaptive.into_model().seen, run(QueueKind::BinaryHeap));
    }

    /// `reserve_events` announcing a large incoming workload promotes the
    /// adaptive backend immediately, before any event is scheduled.
    #[test]
    fn adaptive_promotes_on_large_reservation() {
        let mut sim = Simulation::with_queue(Recorder::default(), QueueKind::Adaptive);
        assert!(sim.queue_stats().is_none());
        sim.reserve_events(PROMOTE_PENDING / 2);
        assert!(sim.queue_stats().is_none(), "small reservations stay on the heap");
        sim.reserve_events(PROMOTE_PENDING + 1);
        assert!(sim.queue_stats().is_some(), "large reservations promote up front");
        sim.schedule_at(SimTime::from_millis(1.0), Ev::Mark(1));
        sim.run();
        assert_eq!(sim.model().seen, vec![(SimTime::from_millis(1.0), 1)]);
    }

    /// An event queued under a number taken earlier wins FIFO ties
    /// against everything scheduled after the take, on every backend —
    /// the property a keep-alive timer queued only later relies on.
    #[test]
    fn taken_seq_orders_as_if_scheduled_when_taken() {
        for kind in [QueueKind::BinaryHeap, QueueKind::Calendar, QueueKind::Adaptive] {
            let t = SimTime::from_millis(10.0);
            let mut sim = Simulation::with_queue(Recorder::default(), kind);
            let early = sim.sched.take_seq();
            sim.schedule_at(t, Ev::Mark(1));
            sim.sched.schedule_at_with_seq(t, early, Ev::Mark(0));
            sim.run();
            let ids: Vec<u32> = sim.model().seen.iter().map(|&(_, id)| id).collect();
            assert_eq!(ids, vec![0, 1], "backend {kind:?}");
        }
    }

    #[test]
    fn into_model_returns_state() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::ZERO, Ev::Mark(7));
        sim.run();
        let model = sim.into_model();
        assert_eq!(model.seen, vec![(SimTime::ZERO, 7)]);
    }

    /// Promotion is one-way and counted: an adaptive run that crosses the
    /// threshold (by pushes or by one bulk reservation) promotes exactly
    /// once, and the non-adaptive backends never promote.
    #[test]
    fn promotions_counted_exactly_once() {
        let mut by_push = Simulation::with_queue(Recorder::default(), QueueKind::Adaptive);
        for id in 0..(PROMOTE_PENDING + 100) as u32 {
            by_push.schedule_at(SimTime::from_millis(f64::from(id)), Ev::Mark(id));
        }
        assert_eq!(by_push.promotions(), 1);
        by_push.run();
        assert_eq!(by_push.promotions(), 1, "draining never re-promotes");

        let mut by_reserve = Simulation::with_queue(Recorder::default(), QueueKind::Adaptive);
        by_reserve.reserve_events(PROMOTE_PENDING + 1);
        assert_eq!(by_reserve.promotions(), 1);
        by_reserve.reserve_events(PROMOTE_PENDING + 1);
        assert_eq!(by_reserve.promotions(), 1, "an already-promoted queue stays promoted");

        for kind in [QueueKind::BinaryHeap, QueueKind::Calendar] {
            let mut sim = Simulation::with_queue(Recorder::default(), kind);
            sim.reserve_events(PROMOTE_PENDING * 2);
            sim.schedule_at(SimTime::ZERO, Ev::Mark(0));
            sim.run();
            assert_eq!(sim.promotions(), 0, "backend {kind:?}");
        }
    }

    /// A `reserve` on an adaptive queue that already holds events must
    /// forward pending + additional as the wheel-sizing hint: a backlog
    /// just under the threshold plus a small reservation still promotes.
    #[test]
    fn reserve_hint_counts_existing_backlog() {
        let mut sim = Simulation::with_queue(Recorder::default(), QueueKind::Adaptive);
        for id in 0..PROMOTE_PENDING as u32 {
            sim.schedule_at(SimTime::from_millis(f64::from(id)), Ev::Mark(id));
        }
        assert!(sim.queue_stats().is_none(), "exactly at threshold stays on the heap");
        sim.reserve_events(1);
        assert!(sim.queue_stats().is_some(), "backlog + reservation crosses the threshold");
        assert_eq!(sim.promotions(), 1);
    }

    impl crate::profile::EventClass for Ev {
        const CLASS_NAMES: &'static [&'static str] = &["mark", "chain"];

        fn class(&self) -> usize {
            match self {
                Ev::Mark(_) => 0,
                Ev::Chain(_) => 1,
            }
        }
    }

    /// The instrumented loop attributes every dispatched event to its
    /// class and the attributed time telescopes to the loop wall time.
    #[test]
    fn profiler_counts_every_event_and_covers_loop_time() {
        let mut sim = Simulation::new(Recorder::default());
        sim.enable_event_profiling();
        sim.schedule_at(SimTime::ZERO, Ev::Chain(50));
        for id in 0..10 {
            sim.schedule_at(SimTime::from_millis(f64::from(id)), Ev::Mark(id));
        }
        sim.run_until(SimTime::from_millis(5.0));
        sim.run();
        let profile = sim.event_profile().expect("profiling enabled");
        assert_eq!(profile.total_events(), sim.processed());
        assert_eq!(profile.count, [10, 51]);
        assert!(profile.loop_ns > 0);
        assert!(profile.total_ns() <= profile.loop_ns, "attribution cannot exceed wall");
        assert!(profile.coverage() > 0.5, "coverage {} too low", profile.coverage());
    }

    /// Profiled and unprofiled runs dispatch identically — profiling only
    /// observes, never perturbs.
    #[test]
    fn profiled_run_is_bit_identical() {
        let run = |profiled: bool| {
            let mut sim = Simulation::new(Recorder::default());
            if profiled {
                sim.enable_event_profiling();
            }
            sim.schedule_at(SimTime::ZERO, Ev::Chain(40));
            sim.schedule_at(SimTime::from_millis(3.0), Ev::Mark(99));
            sim.run_until(SimTime::from_millis(20.0));
            sim.run();
            sim.into_model().seen
        };
        assert_eq!(run(false), run(true));
    }
}
