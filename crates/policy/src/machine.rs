//! Event-driven tail-tolerance state machines.
//!
//! The contract: the harness owns the clock, the RNG and the requests;
//! a machine owns nothing but its own fixed-size state. Per logical
//! request the harness delivers [`PolicyEvent`]s and executes the
//! [`Action`]s the machine pushes into a caller-provided [`Actions`]
//! buffer — no allocation happens on this path. One machine instance is
//! attached per virtual user and [`reset`](PolicyMachine::reset) between
//! logical requests, so state never leaks across requests.
//!
//! Time is `f64` milliseconds since simulation start, matching the rest
//! of the workbench. Wake-ups are cooperative: a machine that arms a
//! timer via [`Action::Arm`] receives a [`PolicyEvent::Wake`] at (not
//! before) that time, but every machine in a composition sees every
//! wake, so each machine tracks its own `next_wake` and ignores wakes
//! meant for a sibling.

/// Capacity of the [`Actions`] buffer. Sized for the worst legal case:
/// a tied-request machine launching `copies - 1` duplicates at issue
/// plus arms/cancels from every composed sibling.
pub const MAX_ACTIONS: usize = 16;

/// Hard ceiling on physical attempts per logical request (primary
/// included), enforced by [`Composite`] regardless of spec. Keeps a
/// misconfigured policy from amplifying load without bound.
pub const MAX_ATTEMPTS: u32 = 16;

/// Tolerance when comparing the harness clock against an armed wake-up:
/// a wake delivered within `EPS_MS` of (or after) its target counts as
/// due. Guards against float drift when thresholds are re-derived from
/// sums of event times.
const EPS_MS: f64 = 1e-9;

/// Lifecycle event delivered by the harness to a policy machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyEvent {
    /// The logical request's primary attempt was submitted at `now_ms`.
    /// `estimate_ms` is the latency quantile this run's hedge policies
    /// are configured to track: the exact type-7 quantile of every
    /// winning attempt's latency so far (NaN until enough winners have
    /// been observed). The client drive loop keeps it in a
    /// `stats::percentile::RunningQuantile` — O(log n) per winner, O(1)
    /// per read, 8 B of memory per winner.
    Issued { now_ms: f64, estimate_ms: f64 },
    /// A previously armed wake-up fired. Delivered to *every* machine
    /// in a composition; each one checks the time against its own
    /// armed wake and ignores strangers. `jitter` is a fresh uniform
    /// draw in `[0, 1)` from the harness's dedicated policy RNG stream.
    Wake { now_ms: f64, jitter: f64 },
    /// A physical attempt of this logical request completed. `first`
    /// is true exactly once per logical request — for the attempt
    /// whose result the client keeps (the winner).
    Done { now_ms: f64, first: bool },
    /// A physical attempt resolved with a provider-style error (throttle,
    /// crash, shed) — it can never win. Machines may react by retrying
    /// (with backoff) or hedging immediately; a failure never settles the
    /// logical request.
    Failed { now_ms: f64 },
}

impl PolicyEvent {
    /// The event's timestamp in milliseconds.
    pub fn now_ms(&self) -> f64 {
        match *self {
            PolicyEvent::Issued { now_ms, .. }
            | PolicyEvent::Wake { now_ms, .. }
            | PolicyEvent::Done { now_ms, .. }
            | PolicyEvent::Failed { now_ms } => now_ms,
        }
    }
}

/// Instruction emitted by a machine for the harness to execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Deliver a [`PolicyEvent::Wake`] at `at_ms` (or the next event
    /// boundary after it).
    Arm { at_ms: f64 },
    /// Launch one duplicate attempt of the logical request.
    Launch,
    /// Cancel every physical attempt that has not yet completed.
    CancelOutstanding,
    /// Deadline semantics: cancel everything outstanding and give the
    /// logical request up without a result. After an abandon no machine
    /// in the composition may launch again.
    Abandon,
}

/// Fixed-capacity action buffer; the harness allocates one and reuses
/// it for every event delivery.
#[derive(Debug, Clone)]
pub struct Actions {
    buf: [Action; MAX_ACTIONS],
    len: usize,
}

impl Actions {
    pub fn new() -> Self {
        Actions { buf: [Action::Launch; MAX_ACTIONS], len: 0 }
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends an action. Overflow beyond [`MAX_ACTIONS`] drops the
    /// action — specs are validated so a legal policy can never get
    /// there, and dropping beats panicking mid-measurement.
    pub fn push(&mut self, action: Action) {
        debug_assert!(self.len < MAX_ACTIONS, "Actions buffer overflow");
        if self.len < MAX_ACTIONS {
            self.buf[self.len] = action;
            self.len += 1;
        }
    }

    pub fn as_slice(&self) -> &[Action] {
        &self.buf[..self.len]
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for Actions {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> IntoIterator for &'a Actions {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Event in → actions out, fixed-size state, no allocation.
pub trait PolicyMachine {
    /// Delivers one lifecycle event; the machine pushes any actions
    /// into `out` (which the caller has already cleared or wants
    /// appended to — machines only push).
    fn on_event(&mut self, ev: PolicyEvent, out: &mut Actions);

    /// Returns the machine to its pristine state so it can serve the
    /// next logical request of the same virtual user.
    fn reset(&mut self);
}

/// How a hedge machine derives its fire threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// Fixed threshold in milliseconds.
    StaticMs(f64),
    /// Track the run's own online estimate of this latency quantile
    /// (delivered per request via [`PolicyEvent::Issued::estimate_ms`]).
    /// Until the estimate warms up the machine does not hedge.
    Quantile(f64),
}

/// Hedge-after-quantile: if the primary attempt has not completed
/// within the threshold, launch a duplicate; repeat up to `max_hedges`
/// times, then wait for whichever attempt wins. First completion
/// cancels the rest.
#[derive(Debug, Clone)]
pub struct Hedge {
    threshold: Threshold,
    max_hedges: u32,
    // State.
    threshold_ms: f64,
    next_wake: f64,
    fired: u32,
    settled: bool,
}

impl Hedge {
    pub fn new(threshold: Threshold, max_hedges: u32) -> Self {
        Hedge {
            threshold,
            max_hedges,
            threshold_ms: f64::NAN,
            next_wake: f64::NAN,
            fired: 0,
            settled: false,
        }
    }

    /// The quantile this machine tracks online, if any.
    pub fn online_quantile(&self) -> Option<f64> {
        match self.threshold {
            Threshold::Quantile(q) => Some(q),
            Threshold::StaticMs(_) => None,
        }
    }

    fn due(&self, now_ms: f64) -> bool {
        self.next_wake.is_finite() && now_ms + EPS_MS >= self.next_wake
    }
}

impl PolicyMachine for Hedge {
    fn on_event(&mut self, ev: PolicyEvent, out: &mut Actions) {
        match ev {
            PolicyEvent::Issued { now_ms, estimate_ms } => {
                let thr = match self.threshold {
                    Threshold::StaticMs(ms) => ms,
                    Threshold::Quantile(_) => estimate_ms,
                };
                // A NaN estimate has not warmed up yet:
                // run this request unhedged rather than guessing.
                if thr.is_finite() && thr > 0.0 && self.max_hedges > 0 {
                    self.threshold_ms = thr;
                    self.next_wake = now_ms + thr;
                    out.push(Action::Arm { at_ms: self.next_wake });
                }
            }
            PolicyEvent::Wake { now_ms, .. } => {
                if self.settled || !self.due(now_ms) {
                    return;
                }
                self.fired += 1;
                out.push(Action::Launch);
                if self.fired < self.max_hedges {
                    self.next_wake = now_ms + self.threshold_ms;
                    out.push(Action::Arm { at_ms: self.next_wake });
                } else {
                    self.next_wake = f64::NAN;
                }
            }
            PolicyEvent::Done { first, .. } => {
                if first {
                    self.settled = true;
                    self.next_wake = f64::NAN;
                    out.push(Action::CancelOutstanding);
                }
            }
            PolicyEvent::Failed { now_ms } => {
                // An attempt errored: it can never win, so fire the next
                // hedge immediately instead of waiting out the threshold.
                if self.settled || !self.threshold_ms.is_finite() || self.fired >= self.max_hedges {
                    return;
                }
                self.fired += 1;
                out.push(Action::Launch);
                if self.fired < self.max_hedges {
                    self.next_wake = now_ms + self.threshold_ms;
                    out.push(Action::Arm { at_ms: self.next_wake });
                } else {
                    self.next_wake = f64::NAN;
                }
            }
        }
    }

    fn reset(&mut self) {
        self.threshold_ms = f64::NAN;
        self.next_wake = f64::NAN;
        self.fired = 0;
        self.settled = false;
    }
}

/// Retry with exponential backoff and bounded jitter: if an attempt has
/// not completed within `timeout_ms`, cancel it and relaunch after
/// `base_ms * factor^k * (1 + jitter * jitter_frac)` where `jitter` is
/// the wake's uniform draw. With `factor >= 1 + jitter_frac` (enforced
/// by spec validation) the realized backoff sequence is monotone
/// non-decreasing for every jitter realization.
#[derive(Debug, Clone)]
pub struct Retry {
    timeout_ms: f64,
    base_ms: f64,
    factor: f64,
    jitter_frac: f64,
    max_retries: u32,
    // State.
    awaiting_backoff: bool,
    retries: u32,
    next_wake: f64,
    settled: bool,
}

impl Retry {
    pub fn new(
        timeout_ms: f64,
        base_ms: f64,
        factor: f64,
        jitter_frac: f64,
        max_retries: u32,
    ) -> Self {
        Retry {
            timeout_ms,
            base_ms,
            factor,
            jitter_frac,
            max_retries,
            awaiting_backoff: false,
            retries: 0,
            next_wake: f64::NAN,
            settled: false,
        }
    }

    /// The realized backoff before retry `k` (0-based) under jitter
    /// draw `jitter` in `[0, 1)`. Pure, for property tests.
    pub fn backoff_ms(&self, k: u32, jitter: f64) -> f64 {
        self.base_ms * self.factor.powi(k as i32) * (1.0 + jitter * self.jitter_frac)
    }

    fn due(&self, now_ms: f64) -> bool {
        self.next_wake.is_finite() && now_ms + EPS_MS >= self.next_wake
    }
}

impl PolicyMachine for Retry {
    fn on_event(&mut self, ev: PolicyEvent, out: &mut Actions) {
        match ev {
            PolicyEvent::Issued { now_ms, .. } => {
                self.next_wake = now_ms + self.timeout_ms;
                out.push(Action::Arm { at_ms: self.next_wake });
            }
            PolicyEvent::Wake { now_ms, jitter } => {
                if self.settled || !self.due(now_ms) {
                    return;
                }
                if self.awaiting_backoff {
                    // Backoff elapsed: launch the retry and arm its
                    // timeout.
                    self.awaiting_backoff = false;
                    out.push(Action::Launch);
                    self.next_wake = now_ms + self.timeout_ms;
                    out.push(Action::Arm { at_ms: self.next_wake });
                } else if self.retries < self.max_retries {
                    // Attempt timed out: abort it, back off, relaunch.
                    out.push(Action::CancelOutstanding);
                    let backoff = self.backoff_ms(self.retries, jitter);
                    self.retries += 1;
                    self.awaiting_backoff = true;
                    self.next_wake = now_ms + backoff;
                    out.push(Action::Arm { at_ms: self.next_wake });
                } else {
                    // Out of retries: let the last attempt ride (a
                    // composed deadline can still abandon it).
                    self.next_wake = f64::NAN;
                }
            }
            PolicyEvent::Done { first, .. } => {
                if first {
                    self.settled = true;
                    self.next_wake = f64::NAN;
                    out.push(Action::CancelOutstanding);
                }
            }
            PolicyEvent::Failed { now_ms } => {
                // The attempt resolved on its own (nothing to cancel):
                // back off and relaunch, jitter-free so failure paths
                // stay deterministic without consuming a wake's draw.
                if self.settled || self.awaiting_backoff {
                    return;
                }
                if self.retries < self.max_retries {
                    let backoff = self.backoff_ms(self.retries, 0.0);
                    self.retries += 1;
                    self.awaiting_backoff = true;
                    self.next_wake = now_ms + backoff;
                    out.push(Action::Arm { at_ms: self.next_wake });
                } else {
                    self.next_wake = f64::NAN;
                }
            }
        }
    }

    fn reset(&mut self) {
        self.awaiting_backoff = false;
        self.retries = 0;
        self.next_wake = f64::NAN;
        self.settled = false;
    }
}

/// Deadline cancellation: abandon the logical request if nothing has
/// completed within `deadline_ms` of issue.
#[derive(Debug, Clone)]
pub struct Deadline {
    deadline_ms: f64,
    // State.
    next_wake: f64,
    settled: bool,
}

impl Deadline {
    pub fn new(deadline_ms: f64) -> Self {
        Deadline { deadline_ms, next_wake: f64::NAN, settled: false }
    }

    fn due(&self, now_ms: f64) -> bool {
        self.next_wake.is_finite() && now_ms + EPS_MS >= self.next_wake
    }
}

impl PolicyMachine for Deadline {
    fn on_event(&mut self, ev: PolicyEvent, out: &mut Actions) {
        match ev {
            PolicyEvent::Issued { now_ms, .. } => {
                self.next_wake = now_ms + self.deadline_ms;
                out.push(Action::Arm { at_ms: self.next_wake });
            }
            PolicyEvent::Wake { now_ms, .. } => {
                if self.settled || !self.due(now_ms) {
                    return;
                }
                self.settled = true;
                self.next_wake = f64::NAN;
                out.push(Action::Abandon);
            }
            PolicyEvent::Done { first, .. } => {
                if first {
                    self.settled = true;
                    self.next_wake = f64::NAN;
                }
            }
            // Failures don't move a deadline: the clock keeps running
            // until something completes or the deadline abandons.
            PolicyEvent::Failed { .. } => {}
        }
    }

    fn reset(&mut self) {
        self.next_wake = f64::NAN;
        self.settled = false;
    }
}

/// Tied requests: launch `copies` attempts up front, keep the first
/// completion, cancel the losers.
#[derive(Debug, Clone)]
pub struct Tied {
    copies: u32,
    settled: bool,
}

impl Tied {
    pub fn new(copies: u32) -> Self {
        Tied { copies, settled: false }
    }
}

impl PolicyMachine for Tied {
    fn on_event(&mut self, ev: PolicyEvent, out: &mut Actions) {
        match ev {
            PolicyEvent::Issued { .. } => {
                for _ in 1..self.copies {
                    out.push(Action::Launch);
                }
            }
            PolicyEvent::Wake { .. } => {}
            PolicyEvent::Done { first, .. } => {
                if first && !self.settled {
                    self.settled = true;
                    out.push(Action::CancelOutstanding);
                }
            }
            // Tied copies are launched up front; a failed copy just
            // leaves the race to its siblings.
            PolicyEvent::Failed { .. } => {}
        }
    }

    fn reset(&mut self) {
        self.settled = false;
    }
}

/// One concrete machine, enum-dispatched so compositions need no boxing.
#[derive(Debug, Clone)]
pub enum Machine {
    Hedge(Hedge),
    Retry(Retry),
    Deadline(Deadline),
    Tied(Tied),
}

impl PolicyMachine for Machine {
    fn on_event(&mut self, ev: PolicyEvent, out: &mut Actions) {
        match self {
            Machine::Hedge(m) => m.on_event(ev, out),
            Machine::Retry(m) => m.on_event(ev, out),
            Machine::Deadline(m) => m.on_event(ev, out),
            Machine::Tied(m) => m.on_event(ev, out),
        }
    }

    fn reset(&mut self) {
        match self {
            Machine::Hedge(m) => m.reset(),
            Machine::Retry(m) => m.reset(),
            Machine::Deadline(m) => m.reset(),
            Machine::Tied(m) => m.reset(),
        }
    }
}

/// A composition of machines sharing one logical request. Events fan
/// out to every part in order; actions are concatenated with two global
/// guards the parts themselves cannot enforce:
///
/// * once any part abandons, no further `Launch` is forwarded — a
///   deadline-cancelled request is dead, a hedge or retry may not
///   resurrect it (this run or any later event);
/// * total physical attempts (primary included) never exceed the
///   composition's cap.
///
/// The `parts` vector is allocated once at build time; event delivery
/// itself is allocation-free.
#[derive(Debug, Clone)]
pub struct Composite {
    parts: Vec<Machine>,
    cap: u32,
    launched: u32,
    abandoned: bool,
    scratch: Actions,
}

impl Composite {
    /// `cap` is the maximum physical attempts per logical request,
    /// primary included; it is clamped to [`MAX_ATTEMPTS`].
    pub fn new(parts: Vec<Machine>, cap: u32) -> Self {
        Composite {
            parts,
            cap: cap.clamp(1, MAX_ATTEMPTS),
            launched: 0,
            abandoned: false,
            scratch: Actions::new(),
        }
    }

    /// Maximum physical attempts per logical request.
    pub fn attempt_cap(&self) -> u32 {
        self.cap
    }

    /// The quantile the composition's hedge tracks online, if any
    /// (first online-hedge part wins; validation rejects mixes).
    pub fn online_quantile(&self) -> Option<f64> {
        self.parts.iter().find_map(|p| match p {
            Machine::Hedge(h) => h.online_quantile(),
            _ => None,
        })
    }
}

impl PolicyMachine for Composite {
    fn on_event(&mut self, ev: PolicyEvent, out: &mut Actions) {
        if let PolicyEvent::Issued { .. } = ev {
            // The harness launches the primary itself; account for it.
            self.launched = 1;
            self.abandoned = false;
        }
        let Composite { parts, cap, launched, abandoned, scratch } = self;
        for part in parts.iter_mut() {
            scratch.clear();
            part.on_event(ev, scratch);
            for &action in scratch.as_slice() {
                match action {
                    Action::Launch => {
                        if !*abandoned && *launched < *cap {
                            *launched += 1;
                            out.push(Action::Launch);
                        }
                    }
                    Action::Abandon => {
                        *abandoned = true;
                        out.push(Action::Abandon);
                    }
                    other => out.push(other),
                }
            }
        }
    }

    fn reset(&mut self) {
        for part in &mut self.parts {
            part.reset();
        }
        self.launched = 0;
        self.abandoned = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issued(now: f64, est: f64) -> PolicyEvent {
        PolicyEvent::Issued { now_ms: now, estimate_ms: est }
    }

    fn wake(now: f64) -> PolicyEvent {
        PolicyEvent::Wake { now_ms: now, jitter: 0.5 }
    }

    fn deliver(m: &mut impl PolicyMachine, ev: PolicyEvent) -> Vec<Action> {
        let mut out = Actions::new();
        m.on_event(ev, &mut out);
        out.as_slice().to_vec()
    }

    #[test]
    fn hedge_fires_at_threshold_and_cancels_on_win() {
        let mut h = Hedge::new(Threshold::StaticMs(100.0), 1);
        let a = deliver(&mut h, issued(0.0, f64::NAN));
        assert_eq!(a, vec![Action::Arm { at_ms: 100.0 }]);
        // Early wake (a sibling's): ignored.
        assert!(deliver(&mut h, wake(50.0)).is_empty());
        let a = deliver(&mut h, wake(100.0));
        assert_eq!(a, vec![Action::Launch]);
        // max_hedges reached: a later wake does nothing.
        assert!(deliver(&mut h, wake(200.0)).is_empty());
        let a = deliver(&mut h, PolicyEvent::Done { now_ms: 210.0, first: true });
        assert_eq!(a, vec![Action::CancelOutstanding]);
    }

    #[test]
    fn hedge_with_nan_estimate_stays_quiet() {
        let mut h = Hedge::new(Threshold::Quantile(0.95), 1);
        assert!(deliver(&mut h, issued(0.0, f64::NAN)).is_empty());
        assert!(deliver(&mut h, wake(1_000.0)).is_empty());
    }

    #[test]
    fn hedge_quantile_threshold_uses_estimate() {
        let mut h = Hedge::new(Threshold::Quantile(0.95), 2);
        let a = deliver(&mut h, issued(10.0, 40.0));
        assert_eq!(a, vec![Action::Arm { at_ms: 50.0 }]);
        let a = deliver(&mut h, wake(50.0));
        assert_eq!(a, vec![Action::Launch, Action::Arm { at_ms: 90.0 }]);
        let a = deliver(&mut h, wake(90.0));
        assert_eq!(a, vec![Action::Launch]);
    }

    #[test]
    fn retry_times_out_backs_off_and_relaunches() {
        let mut r = Retry::new(100.0, 10.0, 2.0, 0.0, 2);
        let a = deliver(&mut r, issued(0.0, f64::NAN));
        assert_eq!(a, vec![Action::Arm { at_ms: 100.0 }]);
        // Timeout: cancel, back off 10ms.
        let a = deliver(&mut r, wake(100.0));
        assert_eq!(a, vec![Action::CancelOutstanding, Action::Arm { at_ms: 110.0 }]);
        // Backoff elapsed: relaunch, arm next timeout.
        let a = deliver(&mut r, wake(110.0));
        assert_eq!(a, vec![Action::Launch, Action::Arm { at_ms: 210.0 }]);
        // Second timeout: backoff doubles.
        let a = deliver(&mut r, wake(210.0));
        assert_eq!(a, vec![Action::CancelOutstanding, Action::Arm { at_ms: 230.0 }]);
        let a = deliver(&mut r, wake(230.0));
        assert_eq!(a, vec![Action::Launch, Action::Arm { at_ms: 330.0 }]);
        // Retries exhausted: final timeout goes quiet.
        assert!(deliver(&mut r, wake(330.0)).is_empty());
    }

    #[test]
    fn retry_win_disarms() {
        let mut r = Retry::new(100.0, 10.0, 2.0, 0.5, 3);
        deliver(&mut r, issued(0.0, f64::NAN));
        let a = deliver(&mut r, PolicyEvent::Done { now_ms: 40.0, first: true });
        assert_eq!(a, vec![Action::CancelOutstanding]);
        assert!(deliver(&mut r, wake(100.0)).is_empty());
    }

    #[test]
    fn deadline_abandons_once() {
        let mut d = Deadline::new(500.0);
        let a = deliver(&mut d, issued(0.0, f64::NAN));
        assert_eq!(a, vec![Action::Arm { at_ms: 500.0 }]);
        let a = deliver(&mut d, wake(500.0));
        assert_eq!(a, vec![Action::Abandon]);
        assert!(deliver(&mut d, wake(600.0)).is_empty());
    }

    #[test]
    fn deadline_win_beats_deadline() {
        let mut d = Deadline::new(500.0);
        deliver(&mut d, issued(0.0, f64::NAN));
        deliver(&mut d, PolicyEvent::Done { now_ms: 100.0, first: true });
        assert!(deliver(&mut d, wake(500.0)).is_empty());
    }

    #[test]
    fn tied_launches_copies_then_cancels_losers() {
        let mut t = Tied::new(3);
        let a = deliver(&mut t, issued(0.0, f64::NAN));
        assert_eq!(a, vec![Action::Launch, Action::Launch]);
        let a = deliver(&mut t, PolicyEvent::Done { now_ms: 10.0, first: true });
        assert_eq!(a, vec![Action::CancelOutstanding]);
        assert!(deliver(&mut t, PolicyEvent::Done { now_ms: 12.0, first: false }).is_empty());
    }

    #[test]
    fn composite_suppresses_launch_after_abandon() {
        // Deadline before hedge in part order, deadline fires first.
        let mut c = Composite::new(
            vec![
                Machine::Deadline(Deadline::new(100.0)),
                Machine::Hedge(Hedge::new(Threshold::StaticMs(100.0), 1)),
            ],
            4,
        );
        deliver(&mut c, issued(0.0, f64::NAN));
        let a = deliver(&mut c, wake(100.0));
        // Abandon emitted, the hedge's simultaneous launch suppressed.
        assert_eq!(a, vec![Action::Abandon]);
    }

    #[test]
    fn composite_enforces_attempt_cap() {
        let mut c = Composite::new(vec![Machine::Tied(Tied::new(10))], 3);
        let a = deliver(&mut c, issued(0.0, f64::NAN));
        // Primary + 2 duplicates = cap 3; remaining 7 launches dropped.
        assert_eq!(a, vec![Action::Launch, Action::Launch]);
    }

    #[test]
    fn retry_backs_off_after_failure_without_cancelling() {
        let mut r = Retry::new(100.0, 10.0, 2.0, 0.0, 2);
        deliver(&mut r, issued(0.0, f64::NAN));
        // The attempt errored at 20ms: no cancel (it already resolved),
        // just a jitter-free backoff arm.
        let a = deliver(&mut r, PolicyEvent::Failed { now_ms: 20.0 });
        assert_eq!(a, vec![Action::Arm { at_ms: 30.0 }]);
        // Backoff elapsed: relaunch and arm the next timeout.
        let a = deliver(&mut r, wake(30.0));
        assert_eq!(a, vec![Action::Launch, Action::Arm { at_ms: 130.0 }]);
        // Second failure doubles the backoff.
        let a = deliver(&mut r, PolicyEvent::Failed { now_ms: 140.0 });
        assert_eq!(a, vec![Action::Arm { at_ms: 160.0 }]);
        deliver(&mut r, wake(160.0));
        // Retries exhausted: further failures go quiet.
        assert!(deliver(&mut r, PolicyEvent::Failed { now_ms: 300.0 }).is_empty());
    }

    #[test]
    fn retry_ignores_failure_while_backing_off_or_settled() {
        let mut r = Retry::new(100.0, 10.0, 2.0, 0.0, 3);
        deliver(&mut r, issued(0.0, f64::NAN));
        deliver(&mut r, PolicyEvent::Failed { now_ms: 20.0 });
        // A second stale failure mid-backoff must not double-book.
        assert!(deliver(&mut r, PolicyEvent::Failed { now_ms: 25.0 }).is_empty());
        deliver(&mut r, wake(30.0));
        deliver(&mut r, PolicyEvent::Done { now_ms: 50.0, first: true });
        assert!(deliver(&mut r, PolicyEvent::Failed { now_ms: 60.0 }).is_empty());
    }

    #[test]
    fn hedge_fires_immediately_on_failure() {
        let mut h = Hedge::new(Threshold::StaticMs(100.0), 2);
        deliver(&mut h, issued(0.0, f64::NAN));
        let a = deliver(&mut h, PolicyEvent::Failed { now_ms: 20.0 });
        assert_eq!(a, vec![Action::Launch, Action::Arm { at_ms: 120.0 }]);
        let a = deliver(&mut h, PolicyEvent::Failed { now_ms: 30.0 });
        assert_eq!(a, vec![Action::Launch], "last hedge: no re-arm");
        assert!(deliver(&mut h, PolicyEvent::Failed { now_ms: 40.0 }).is_empty());
    }

    #[test]
    fn unarmed_hedge_and_passive_machines_ignore_failures() {
        // NaN estimate: the hedge never armed, so failures stay quiet.
        let mut h = Hedge::new(Threshold::Quantile(0.95), 1);
        deliver(&mut h, issued(0.0, f64::NAN));
        assert!(deliver(&mut h, PolicyEvent::Failed { now_ms: 10.0 }).is_empty());
        let mut d = Deadline::new(500.0);
        deliver(&mut d, issued(0.0, f64::NAN));
        assert!(deliver(&mut d, PolicyEvent::Failed { now_ms: 10.0 }).is_empty());
        let mut t = Tied::new(3);
        deliver(&mut t, issued(0.0, f64::NAN));
        assert!(deliver(&mut t, PolicyEvent::Failed { now_ms: 10.0 }).is_empty());
    }

    #[test]
    fn composite_caps_failure_driven_launches() {
        let mut c =
            Composite::new(vec![Machine::Hedge(Hedge::new(Threshold::StaticMs(50.0), 10))], 2);
        deliver(&mut c, issued(0.0, f64::NAN));
        let a = deliver(&mut c, PolicyEvent::Failed { now_ms: 10.0 });
        assert_eq!(a[0], Action::Launch);
        // Cap of 2 attempts already reached (primary + hedge): further
        // failure-driven launches are suppressed.
        let a = deliver(&mut c, PolicyEvent::Failed { now_ms: 20.0 });
        assert!(!a.contains(&Action::Launch), "{a:?}");
    }

    #[test]
    fn composite_reset_reuses_cleanly() {
        let mut c =
            Composite::new(vec![Machine::Hedge(Hedge::new(Threshold::StaticMs(50.0), 1))], 2);
        deliver(&mut c, issued(0.0, f64::NAN));
        assert_eq!(deliver(&mut c, wake(50.0)), vec![Action::Launch]);
        deliver(&mut c, PolicyEvent::Done { now_ms: 60.0, first: true });
        c.reset();
        let a = deliver(&mut c, issued(1_000.0, f64::NAN));
        assert_eq!(a, vec![Action::Arm { at_ms: 1_050.0 }]);
        assert_eq!(deliver(&mut c, wake(1_050.0)), vec![Action::Launch]);
    }
}
