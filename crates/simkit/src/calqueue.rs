//! A calendar-queue event scheduler with amortized O(1) operations.
//!
//! The engine's binary-heap backend costs O(log n) per
//! `schedule`/`pop`, which at millions of pending events (a full
//! client-submission schedule, say) turns the event queue itself into the
//! simulation bottleneck. [`CalendarQueue`] is the classic alternative
//! (Brown, CACM 1988): a bucketed timer wheel where each bucket ("day")
//! covers a fixed span of simulated time and one wheel revolution covers
//! `buckets × width` ("a year"). Events within the current revolution go
//! into their day's bucket; events beyond it wait in an *overflow heap*
//! and migrate into the wheel as the current day advances.
//!
//! With the bucket width matched to the observed inter-event spacing each
//! bucket holds O(1) events, so `schedule` is O(1) and `pop` is amortized
//! O(1): a pop scans one small bucket, occasionally advancing over empty
//! days. The queue *lazily resizes* — bucket count tracks the queue
//! length (doubling/halving thresholds) and the width is re-derived from
//! an exponentially weighted average of the gaps between consecutively
//! popped events, so the wheel adapts to whatever event density the
//! workload produces.
//!
//! # Ordering contract
//!
//! `pop` returns events in exactly the engine's dispatch order: ascending
//! `(time, seq)`. Equal-time events therefore come out in insertion (FIFO)
//! order, making the calendar backend a drop-in replacement for the binary
//! heap — every simulation produces bit-identical results on either.
//!
//! # Worst cases
//!
//! Pathological spacing (all events at one instant, or spacing that
//! changes by orders of magnitude without a resize trigger) degrades a pop
//! to O(bucket size) or a bounded hunt over empty days; a direct-search
//! fallback plus a forced rebuild keeps even those cases from going
//! quadratic. Both directions of width mismatch self-correct: a width too
//! *small* shows up as empty-day hunts (miss counter → rebuild), a width
//! too *large* as overcrowded days every pop re-scans (scan-work budget →
//! rebuild, once the pop-gap EWMA disagrees with the width). [`CalendarQueue::peek_time`] is O(buckets) — it is intended
//! for occasional inspection, not per-event polling (the engine's run loop
//! does not use it).

use crate::soa::{EventKey, KeyedHeap};
use crate::time::SimTime;

/// Smallest wheel size; also the initial size.
const MIN_BUCKETS: usize = 16;
/// Largest wheel size (2^18 buckets ≈ 6 MB of bucket headers); beyond
/// this, buckets simply hold more events each.
const MAX_BUCKETS: usize = 1 << 18;
/// Consecutive empty days scanned before `pop` gives up hunting and
/// direct-searches the wheel for the next occupied day.
const HUNT_LIMIT: u64 = 64;
/// How many wheel revolutions ahead of the current day an event may be
/// stored in the wheel before spilling to the overflow heap. Rebuilds size
/// the wheel for the *total* pending count (overflow included), so events
/// spread over several revolutions still average O(1) per bucket — the pop
/// scan already day-filters them — while every event admitted here is
/// spared the two O(log n) heap passes (push, then migrate-pop) that
/// overflow residency costs. A bulk-loaded schedule spanning many seconds
/// is the motivating case: with a single-revolution horizon most of it
/// double-handles through the heap and the wheel's O(1) regime never kicks
/// in.
const FUTURE_REVOLUTIONS: u64 = 8;
/// Direct-search fallbacks tolerated before forcing a rebuild with a
/// fresh width estimate.
const MISS_LIMIT: u32 = 8;

/// One wheel day, stored structure-of-arrays: the pop scan that hunts for
/// the earliest in-day event reads only the dense 16-byte key array;
/// payloads sit in a parallel array touched once per removal.
struct Bucket<E> {
    keys: Vec<EventKey>,
    events: Vec<E>,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Bucket { keys: Vec::new(), events: Vec::new() }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn push(&mut self, key: EventKey, event: E) {
        self.keys.push(key);
        self.events.push(event);
    }

    fn swap_remove(&mut self, i: usize) -> (EventKey, E) {
        (self.keys.swap_remove(i), self.events.swap_remove(i))
    }
}

/// Cumulative self-correction counters of a [`CalendarQueue`].
///
/// Unlike the queue's internal `misses`/`scan_work` fields these are never
/// reset by a rebuild, so they describe the whole lifetime of the queue: a
/// well-matched wheel shows a small, bounded `rebuilds` count (growth
/// doublings plus the occasional correction) however many events pass
/// through — the observable signature of the amortized-O(1) regime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalQueueStats {
    /// Total wheel rebuilds (growth, shrink, and corrective).
    pub rebuilds: u64,
    /// Empty-day hunts that gave up and direct-searched the wheel
    /// (signature of a bucket width that is too small).
    pub hunt_fallbacks: u64,
    /// Rebuilds forced by the scan-work budget (signature of a bucket
    /// width that is too large: overcrowded days re-scanned by every pop).
    pub overcrowd_rebuilds: u64,
}

/// A bucketed timer wheel with an overflow heap; see the module docs.
pub struct CalendarQueue<E> {
    /// The wheel: bucket `b` holds events whose day is ≡ `b` (mod buckets).
    buckets: Vec<Bucket<E>>,
    /// Span of simulated time covered by one bucket, ns. Always a power of
    /// two (= `1 << width_shift`): the width only tunes performance, never
    /// pop order, and rounding it up lets `day_of` — executed for every
    /// key a pop scans — be a shift instead of a 64-bit division.
    width_ns: u64,
    /// `log2(width_ns)`, the hot-path form of the width.
    width_shift: u32,
    /// The day currently being searched; all wheel events normally live in
    /// days `[day, day + buckets)`.
    day: u64,
    /// Events resident in the wheel.
    wheel_len: usize,
    /// Events beyond the current wheel revolution (SoA min-heap).
    overflow: KeyedHeap<E>,
    /// Total pending events (wheel + overflow).
    len: usize,
    /// EWMA of the gap between consecutively popped events, ns (0 until
    /// two pops with a non-zero gap have happened).
    gap_ewma_ns: f64,
    last_pop_ns: u64,
    popped_any: bool,
    /// Direct-search fallbacks since the last rebuild.
    misses: u32,
    /// Bucket entries examined by pops since the last rebuild (or the last
    /// overcrowding check); paired with `pops_since_rebuild` to detect a
    /// width that is too *large* — overcrowded days that every pop
    /// re-scans — which, unlike a too-small width, never produces empty-day
    /// hunts and so would otherwise go unnoticed.
    scan_work: u64,
    /// Successful pops since the last rebuild (or overcrowding check).
    pops_since_rebuild: u64,
    /// Capacity hint from [`CalendarQueue::reserve`]: lets one rebuild jump
    /// straight to the final wheel size instead of doubling repeatedly.
    capacity_hint: usize,
    /// Lifetime self-correction counters (never reset by rebuilds).
    stats: CalQueueStats,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue with a 1 ms initial bucket width (re-derived at the
    /// first resize). The wheel itself is allocated lazily on the first
    /// `schedule`, so constructing a queue that never sees an event — every
    /// sweep cell's scheduler, every short toy run — costs no bucket
    /// allocations at all.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: Vec::new(),
            width_ns: 1 << 20, // ~1 ms: a sane default for a latency simulator
            width_shift: 20,
            day: 0,
            wheel_len: 0,
            overflow: KeyedHeap::new(),
            len: 0,
            gap_ewma_ns: 0.0,
            last_pop_ns: 0,
            popped_any: false,
            misses: 0,
            scan_work: 0,
            pops_since_rebuild: 0,
            capacity_hint: 0,
            stats: CalQueueStats::default(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Lifetime self-correction counters (see [`CalQueueStats`]).
    pub fn stats(&self) -> CalQueueStats {
        self.stats
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records that `additional` more events are coming, so the next
    /// rebuild sizes the wheel for the full workload at once.
    pub fn reserve(&mut self, additional: usize) {
        self.capacity_hint = self.capacity_hint.max(self.len + additional);
        self.overflow.reserve(additional.min(1 << 16));
    }

    /// Allocates the minimum wheel on first use (see [`CalendarQueue::new`]).
    fn ensure_wheel(&mut self) {
        if self.buckets.is_empty() {
            self.buckets = (0..MIN_BUCKETS).map(|_| Bucket::new()).collect();
        }
    }

    fn day_of(&self, at_ns: u64) -> u64 {
        at_ns >> self.width_shift
    }

    /// Installs `width` rounded up to a power of two (capped so the shift
    /// stays valid), keeping `width_ns` and `width_shift` in sync.
    fn set_width(&mut self, width: u64) {
        let w = width.max(1).checked_next_power_of_two().unwrap_or(1 << 63);
        self.width_ns = w;
        self.width_shift = w.trailing_zeros();
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    fn horizon_day(&self) -> u64 {
        self.day.saturating_add(self.buckets.len() as u64 * FUTURE_REVOLUTIONS)
    }

    /// Schedules `event` at `(at, seq)`. `seq` must be the engine's
    /// monotone tie-break counter; the queue imposes no constraint of its
    /// own on `at` (the engine's not-in-the-past check happens upstream).
    pub fn schedule(&mut self, at: SimTime, seq: u64, event: E) {
        self.ensure_wheel();
        let key = EventKey { at, seq };
        if self.len == 0 {
            // Empty queue: re-anchor the wheel on the new event.
            self.day = self.day_of(key.at.as_nanos());
        }
        self.insert(key, event);
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            let target = self.len.max(self.capacity_hint);
            self.rebuild(target);
        }
    }

    /// Inserts without resize checks (shared by `schedule` and `rebuild`).
    fn insert(&mut self, key: EventKey, event: E) {
        let d = self.day_of(key.at.as_nanos());
        self.len += 1;
        if d >= self.horizon_day() {
            self.overflow.push(key, event);
        } else {
            if d < self.day {
                // A push-back below the search day (run_until restoring an
                // event it popped past the horizon): rewind. Wheel events
                // beyond the rewound revolution are caught by the per-day
                // filter and the direct-search fallback in `pop`.
                self.day = d;
            }
            let b = (d & self.mask() as u64) as usize;
            self.buckets[b].push(key, event);
            self.wheel_len += 1;
        }
    }

    /// Removes and returns the earliest `(time, seq, event)`, or `None`
    /// when empty.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            self.jump_to_overflow();
        }
        let mut empty_scanned = 0u64;
        loop {
            let b = (self.day & self.mask() as u64) as usize;
            // The scan touches only the key array; payloads stay cold
            // until the single swap_remove on a hit.
            let mut best: Option<(usize, EventKey)> = None;
            let keys = &self.buckets[b].keys;
            for (i, &k) in keys.iter().enumerate() {
                if self.day_of(k.at.as_nanos()) == self.day && best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
            if let Some((i, _)) = best {
                self.scan_work += self.buckets[b].len() as u64;
                let (key, event) = self.buckets[b].swap_remove(i);
                self.wheel_len -= 1;
                self.len -= 1;
                self.note_pop(key.at.as_nanos());
                self.pops_since_rebuild += 1;
                if self.len < self.buckets.len() / 4
                    && self.buckets.len() > MIN_BUCKETS
                    && (self.capacity_hint > 0 || self.len == 0)
                {
                    // Shrinking is proof the reserve() hint overstated the
                    // *concurrent* pending set (a streaming client submits
                    // its bulk load in slices); drop it so later growth
                    // rebuilds size the wheel to reality, not the hint.
                    // Without a hint the wheel shrinks only once drained:
                    // a sliced pending set rises and falls every slice,
                    // and shrinking at each trough would rebuild twice per
                    // slice. A wheel left too wide for a trough has its
                    // width corrected by the MISS_LIMIT and overcrowding
                    // rebuilds, which also resize it to the live count.
                    self.capacity_hint = 0;
                    self.rebuild(self.len);
                } else {
                    self.check_overcrowding();
                }
                return Some((key.at, key.seq, event));
            }
            // Day empty: advance, letting newly in-range overflow events in.
            self.day += 1;
            empty_scanned += 1;
            self.migrate_overflow();
            if self.wheel_len == 0 {
                debug_assert!(!self.overflow.is_empty(), "len>0 but both stores empty");
                self.jump_to_overflow();
                empty_scanned = 0;
                continue;
            }
            if empty_scanned > HUNT_LIMIT {
                // Sparse wheel: stop hunting day by day and jump straight
                // to the next occupied day — which may live in the
                // overflow heap, not the wheel.
                let wheel_min = self
                    .buckets
                    .iter()
                    .flat_map(|bucket| &bucket.keys)
                    .map(|k| self.day_of(k.at.as_nanos()))
                    .min()
                    .expect("wheel_len > 0 but no slot found");
                let over_min = self.overflow.peek_key().map(|k| self.day_of(k.at.as_nanos()));
                self.day = over_min.map_or(wheel_min, |o| wheel_min.min(o));
                self.migrate_overflow();
                empty_scanned = 0;
                self.misses += 1;
                self.stats.hunt_fallbacks += 1;
                if self.misses >= MISS_LIMIT {
                    // The width is badly matched to the observed spacing;
                    // rebuild with a fresh estimate.
                    self.rebuild(self.len);
                }
            }
        }
    }

    /// Timestamp of the earliest pending event, if any.
    ///
    /// O(buckets + pending) — meant for occasional inspection, not
    /// per-event polling.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = self.buckets.iter().flat_map(|b| &b.keys).map(|k| k.at.as_nanos()).min();
        let over = self.overflow.peek_key().map(|k| k.at.as_nanos());
        match (wheel, over) {
            (Some(a), Some(b)) => Some(SimTime::from_nanos(a.min(b))),
            (Some(a), None) | (None, Some(a)) => Some(SimTime::from_nanos(a)),
            (None, None) => None,
        }
    }

    /// Points the wheel at the earliest overflow event and pulls the newly
    /// in-range overflow events in.
    fn jump_to_overflow(&mut self) {
        if let Some(k) = self.overflow.peek_key() {
            self.day = self.day_of(k.at.as_nanos());
            self.migrate_overflow();
        }
    }

    /// Moves overflow events that now fall inside the wheel revolution.
    fn migrate_overflow(&mut self) {
        let horizon = self.horizon_day();
        while let Some(k) = self.overflow.peek_key() {
            if self.day_of(k.at.as_nanos()) >= horizon {
                break;
            }
            let (key, event) = self.overflow.pop().expect("peeked entry vanished");
            let d = self.day_of(key.at.as_nanos());
            let b = (d & self.mask() as u64) as usize;
            self.buckets[b].push(key, event);
            self.wheel_len += 1;
        }
    }

    /// Forces a rebuild when pops average too much bucket scanning AND the
    /// observed inter-pop spacing says a fresh width would actually spread
    /// the load (simultaneous events, which no width can separate, leave
    /// the EWMA untouched and are deliberately not "fixed" here: repeated
    /// O(len) rebuilds would be strictly worse than the bucket scans).
    fn check_overcrowding(&mut self) {
        const SCAN_BUDGET_PER_POP: u64 = 16;
        if self.scan_work <= SCAN_BUDGET_PER_POP * self.pops_since_rebuild + 64 {
            return;
        }
        self.scan_work = 0;
        self.pops_since_rebuild = 0;
        if self.gap_ewma_ns >= 1.0 {
            let fresh = (self.gap_ewma_ns * 2.0).min(u64::MAX as f64) as u64;
            let mismatched = fresh < self.width_ns / 4 || fresh / 4 > self.width_ns;
            if mismatched {
                self.stats.overcrowd_rebuilds += 1;
                self.rebuild(self.len);
            }
        }
    }

    fn note_pop(&mut self, at_ns: u64) {
        if self.popped_any {
            let gap = at_ns.saturating_sub(self.last_pop_ns);
            // Zero gaps (simultaneous events) carry no spacing signal and
            // would drive the width to nothing; skip them.
            if gap > 0 {
                self.gap_ewma_ns = if self.gap_ewma_ns == 0.0 {
                    gap as f64
                } else {
                    0.875 * self.gap_ewma_ns + 0.125 * gap as f64
                };
            }
        }
        self.last_pop_ns = at_ns;
        self.popped_any = true;
    }

    /// Rebuilds the wheel sized for `target_len` events, re-deriving the
    /// bucket width from the observed inter-pop spacing (or, before any
    /// pops, from the span of the pending events).
    fn rebuild(&mut self, target_len: usize) {
        self.stats.rebuilds += 1;
        let new_n = target_len.max(1).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut keys: Vec<EventKey> = Vec::with_capacity(self.len);
        let mut events: Vec<E> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            keys.append(&mut bucket.keys);
            events.append(&mut bucket.events);
        }
        for (k, e) in self.overflow.drain() {
            keys.push(k);
            events.push(e);
        }

        let width = if self.gap_ewma_ns >= 1.0 {
            // Two bucket-widths per observed gap keeps ~1 event per day
            // with headroom for jitter.
            (self.gap_ewma_ns * 2.0).min(u64::MAX as f64) as u64
        } else if keys.len() > 1 {
            // No pop-gap signal yet: estimate from the pending events
            // themselves. The *median* inter-event gap, not span/len — a
            // single far-future timer (a keep-alive expiry, say) amid a
            // dense bulk load would blow a span-based width up by orders
            // of magnitude, cramming the whole workload into one day.
            let mut times: Vec<u64> = keys.iter().map(|k| k.at.as_nanos()).collect();
            times.sort_unstable();
            let mut gaps: Vec<u64> =
                times.windows(2).map(|w| w[1] - w[0]).filter(|&g| g > 0).collect();
            if gaps.is_empty() {
                self.width_ns
            } else {
                let mid = gaps.len() / 2;
                let (_, median, _) = gaps.select_nth_unstable(mid);
                (*median).saturating_mul(2)
            }
        } else {
            self.width_ns
        };
        self.set_width(width);

        if self.buckets.len() != new_n {
            self.buckets = (0..new_n).map(|_| Bucket::new()).collect();
        }
        self.len = 0;
        self.wheel_len = 0;
        self.misses = 0;
        self.scan_work = 0;
        self.pops_since_rebuild = 0;
        self.day = keys
            .iter()
            .map(|k| self.day_of(k.at.as_nanos()))
            .min()
            .unwrap_or_else(|| self.day_of(self.last_pop_ns));
        for (k, e) in keys.into_iter().zip(events) {
            self.insert(k, e);
        }
    }
}

impl<E> std::fmt::Debug for CalendarQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .field("width_ns", &self.width_ns)
            .field("day", &self.day)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at.as_nanos(), seq));
        }
        out
    }

    #[test]
    fn new_allocates_no_buckets_until_first_schedule() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.buckets.len(), 0, "fresh queue must not allocate the wheel");
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        q.reserve(100);
        assert_eq!(q.buckets.len(), 0, "reserve alone must not allocate the wheel");
        q.schedule(SimTime::from_millis(1.0), 0, 7);
        assert_eq!(q.buckets.len(), MIN_BUCKETS);
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(7));
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(30), 0, 0);
        q.schedule(SimTime::from_nanos(10), 1, 1);
        q.schedule(SimTime::from_nanos(10), 2, 2);
        q.schedule(SimTime::from_nanos(20), 3, 3);
        assert_eq!(drain(&mut q), vec![(10, 1), (10, 2), (20, 3), (30, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn handles_far_future_overflow_events() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(1e6), 0, 0); // far future
        q.schedule(SimTime::from_nanos(5), 1, 1);
        q.schedule(SimTime::from_mins(15), 2, 2); // keep-alive scale
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn interleaved_schedule_and_pop_is_totally_ordered() {
        // A chain-like pattern: every pop schedules a later event.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(0), 0, 0);
        let mut seq = 1u64;
        let mut last = (0u64, 0u64);
        let mut popped = 0;
        while let Some((at, s, _)) = q.pop() {
            assert!((at.as_nanos(), s) >= last, "order violated at pop {popped}");
            last = (at.as_nanos(), s);
            popped += 1;
            if popped < 1000 {
                q.schedule(at + SimTime::from_micros(7.0), seq, 0);
                seq += 1;
            }
        }
        assert_eq!(popped, 1000);
    }

    #[test]
    fn grows_and_shrinks_through_resizes() {
        let mut q = CalendarQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(i * 1_000), i, i as u32);
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "wheel should have grown");
        let order = drain(&mut q);
        assert_eq!(order.len(), 10_000);
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "wheel should shrink when drained");
    }

    #[test]
    fn simultaneous_events_fifo_by_seq() {
        let mut q = CalendarQueue::new();
        for i in 0..100u64 {
            q.schedule(SimTime::from_millis(5.0), i, i as u32);
        }
        let seqs: Vec<u64> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_global_min() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(100.0), 0, 0);
        q.schedule(SimTime::from_millis(2.0), 1, 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2.0)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(100.0)));
    }

    #[test]
    fn push_back_below_search_day_rewinds() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(10.0), 0, 0);
        let (at, seq, ev) = q.pop().expect("event");
        // Restore the popped event (run_until's past-the-horizon path),
        // then add an earlier one; both must come out in order.
        q.schedule(at, seq, ev);
        q.schedule(SimTime::from_secs(1.0), 1, 9);
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn widely_spaced_events_do_not_hang() {
        // Gaps spanning nine orders of magnitude force the hunt fallback.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for exp in 0..12u32 {
            for k in 0..10u64 {
                q.schedule(SimTime::from_nanos(10u64.pow(exp) + k), seq, 0);
                seq += 1;
            }
        }
        let order = drain(&mut q);
        assert_eq!(order.len(), 120);
        assert!(order.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn far_future_timer_does_not_skew_bulk_width() {
        // Regression: a reserve()-hinted bulk load jumps the wheel to its
        // final size in one rebuild, so that rebuild's width estimate must
        // not be poisoned by a lone far-future timer (span/len would give
        // ~15 s here, cramming all 5k events into one day — O(n²) pops).
        let mut q = CalendarQueue::new();
        q.reserve(5_000);
        q.schedule(SimTime::from_secs(600.0), 0, 0); // keep-alive timer
        for i in 0..5_000u64 {
            q.schedule(SimTime::from_millis(i as f64), i + 1, 0);
        }
        assert!(
            q.width_ns <= 20_000_000,
            "width {}ns skewed by the far-future outlier",
            q.width_ns
        );
        let order = drain(&mut q);
        assert_eq!(order.len(), 5_001);
        assert!(order.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn density_shift_recovers_via_overcrowding_rebuild() {
        // Sparse phase (10 s gaps) inflates the EWMA, then a dense burst
        // (1 µs gaps) arrives: the first growth rebuild inherits the huge
        // width, and only the scan-work budget can trigger the corrective
        // rebuilds. Ordering must survive the whole recovery.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for i in 0..8u64 {
            q.schedule(SimTime::from_secs(10.0 * i as f64), seq, 0);
            seq += 1;
        }
        let mut out = Vec::new();
        while let Some((at, s, _)) = q.pop() {
            out.push((at.as_nanos(), s));
        }
        let burst_start = SimTime::from_secs(100.0);
        for i in 0..3_000u64 {
            q.schedule(burst_start + SimTime::from_micros(i as f64), seq, 0);
            seq += 1;
        }
        while let Some((at, s, _)) = q.pop() {
            out.push((at.as_nanos(), s));
        }
        assert_eq!(out.len(), 8 + 3_000);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            q.width_ns < 1_000_000_000,
            "width {}ns never recovered from the sparse phase",
            q.width_ns
        );
    }

    #[test]
    fn stats_survive_rebuilds_and_stay_bounded() {
        // A smooth bulk load triggers only growth/shrink rebuilds: the
        // lifetime counters must accumulate across them (they are not the
        // per-rebuild `misses` fields) and stay logarithmic in n.
        let mut q = CalendarQueue::new();
        for i in 0..50_000u64 {
            q.schedule(SimTime::from_nanos(i * 1_000), i, 0u32);
        }
        let loaded = q.stats();
        assert!(loaded.rebuilds > 0, "bulk load must grow the wheel");
        drain(&mut q);
        let end = q.stats();
        assert!(end.rebuilds >= loaded.rebuilds, "counters must not reset");
        assert!(end.rebuilds < 48, "rebuilds {} not O(log n)", end.rebuilds);
    }

    #[test]
    fn overcrowding_rebuilds_are_counted() {
        // The density-shift scenario: corrective rebuilds triggered by the
        // scan-work budget must show up in `overcrowd_rebuilds`.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for i in 0..8u64 {
            q.schedule(SimTime::from_secs(10.0 * i as f64), seq, 0u32);
            seq += 1;
        }
        while q.pop().is_some() {}
        let burst_start = SimTime::from_secs(100.0);
        for i in 0..3_000u64 {
            q.schedule(burst_start + SimTime::from_micros(i as f64), seq, 0u32);
            seq += 1;
        }
        while q.pop().is_some() {}
        assert!(q.stats().overcrowd_rebuilds > 0, "stats {:?}", q.stats());
    }

    #[test]
    fn sawtooth_pending_set_does_not_rebuild_every_cycle() {
        // A streaming run's pending set: each submission slice bulk-loads
        // a few thousand events past everything already queued, and the
        // slice drains them back to a small floor of long-lived timers.
        // Rebuilding the wheel at every trough and again at every crest
        // would make rebuilds O(slices); they must stay O(log n).
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut next_ns = 0u64;
        let mut last = None;
        for _ in 0..500 {
            while q.len() < 2_000 {
                q.schedule(SimTime::from_nanos(next_ns), seq, 0u32);
                seq += 1;
                next_ns += 1_000 + seq % 7 * 100;
            }
            while q.len() > 50 {
                let (at, s, _) = q.pop().expect("non-empty");
                assert!(Some((at, s)) > last, "order violated at seq {s}");
                last = Some((at, s));
            }
        }
        assert_eq!(drain(&mut q).len(), 50);
        let rebuilds = q.stats().rebuilds;
        assert!(rebuilds < 64, "rebuilds {rebuilds} not O(log n) over 500 slices");
    }

    #[test]
    fn reserve_then_bulk_load_round_trips() {
        let mut q = CalendarQueue::new();
        q.reserve(50_000);
        for i in 0..50_000u64 {
            q.schedule(SimTime::from_micros(i as f64 * 3.0), i, 0);
        }
        assert_eq!(q.len(), 50_000);
        let order = drain(&mut q);
        assert!(order.windows(2).all(|w| w[0] <= w[1]));
    }
}
