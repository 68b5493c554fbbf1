//! Observable, cancellable check sessions.
//!
//! [`ModelChecker::run`] is a fire-and-forget API: it blocks until the whole
//! search finishes and only then hands back a [`CheckReport`]. A
//! [`CheckSession`] drives the *same* engines (sequential and parallel DFS,
//! every storage mode, every strategy and reduction) but
//!
//! * streams typed [`CheckEvent`]s to a [`CheckObserver`] while the search
//!   runs — `Started`, periodic `Progress`, `ViolationFound` the moment a
//!   worker records a violation, and a final `Finished` carrying the report;
//! * honours a shareable [`CancelToken`] plus an optional deadline
//!   ([`CheckSession::with_deadline`] / [`CheckSession::with_time_budget`]),
//!   checked in the sequential loop and in every parallel worker; and
//! * records how the search ended as a [`Outcome`] on the report —
//!   [`Outcome::Completed`] or [`Outcome::Interrupted`] with the reason —
//!   so a search stopped early is never mistaken for an exhausted one.
//!
//! `run()` remains a thin wrapper: it opens a session with a no-op observer,
//! no token and no deadline, so its results are bit-identical to the
//! pre-session engine (pinned by the cross-crate `session_api` tests).
//!
//! ```
//! use nice_mc::{CheckEvent, ModelChecker, CheckerConfig, Outcome};
//! use nice_mc::testutil;
//!
//! let checker = ModelChecker::new(testutil::hub_ping_scenario(1), CheckerConfig::default());
//! let mut transitions_seen = 0u64;
//! let report = checker
//!     .session()
//!     .with_progress_every(100)
//!     .run_with(&mut |event: &CheckEvent| {
//!         if let CheckEvent::Progress { transitions, .. } = event {
//!             transitions_seen = *transitions;
//!         }
//!     });
//! assert_eq!(report.outcome, Outcome::Completed);
//! ```

use crate::checker::{CheckReport, ModelChecker, Violation};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A shareable cancellation flag for a running check.
///
/// Clones observe the same flag, so a token handed to another thread (or
/// held inside a [`CheckObserver`]) can stop a search from the outside:
/// every engine — the sequential loop and each parallel worker — polls the
/// token and winds down with [`Outcome::Interrupted`] once it fires.
/// Cancelling is idempotent and purely monotonic: a token cannot be re-armed.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token: every search holding a clone stops at its next poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// Why a search stopped before exhausting its space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// A [`CancelToken`] fired.
    Cancelled,
    /// The session's deadline or time budget expired.
    DeadlineExceeded,
}

/// How a check ended.
///
/// Orthogonal to `SearchStats::truncated`: a *completed* search may still
/// have been cut by the configured transition/depth budgets (`truncated`),
/// while an *interrupted* one was stopped from the outside — by
/// cancellation or a deadline — with whatever partial statistics it had.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// The search ran to its natural end (possibly budget-truncated).
    #[default]
    Completed,
    /// The search was stopped early by a cancel token or deadline.
    Interrupted(InterruptReason),
}

impl Outcome {
    /// True if the search was stopped by a token or deadline.
    pub fn interrupted(&self) -> bool {
        matches!(self, Outcome::Interrupted(_))
    }

    /// A stable, machine-readable label; `truncated` distinguishes the two
    /// completed flavours (exhausted vs budget-cut).
    pub fn label(&self, truncated: bool) -> &'static str {
        match self {
            Outcome::Completed if truncated => "budget-truncated",
            Outcome::Completed => "exhausted",
            Outcome::Interrupted(InterruptReason::Cancelled) => "interrupted-by-cancel",
            Outcome::Interrupted(InterruptReason::DeadlineExceeded) => "interrupted-by-deadline",
        }
    }
}

// ---------------------------------------------------------------------------
// Events and observers
// ---------------------------------------------------------------------------

/// A typed event emitted by a running check session.
#[derive(Debug, Clone)]
pub enum CheckEvent {
    /// The search is about to start.
    Started {
        /// The scenario name.
        scenario: String,
        /// Number of search worker threads.
        workers: usize,
        /// The search strategy's paper name (e.g. "PKT-SEQ").
        strategy: &'static str,
        /// The partial-order reduction's label (e.g. "none", "por").
        reduction: &'static str,
    },
    /// Periodic progress, emitted roughly every
    /// [`CheckSession::with_progress_every`] transitions.
    Progress {
        /// Unique states seen so far.
        states: u64,
        /// Transitions executed so far.
        transitions: u64,
        /// Unique states per second since the search started.
        rate: f64,
        /// Depth of the path that triggered this report.
        depth: usize,
        /// Resident bytes of the explored fingerprint set at this point
        /// (after any disk spilling; see
        /// [`ExploredStore::bytes`](crate::explored::ExploredStore::bytes)).
        explored_bytes: u64,
    },
    /// A property violation was just recorded (with its reproducing trace).
    ViolationFound(Violation),
    /// The search ended; carries the final report.
    Finished(CheckReport),
}

/// Receives [`CheckEvent`]s from a running session.
///
/// Observers must be [`Send`] because the parallel engine's workers emit
/// events from their own threads (serialised through an internal lock, so
/// `on_event` never runs concurrently with itself). Any
/// `FnMut(&CheckEvent) + Send` closure is an observer.
pub trait CheckObserver: Send {
    /// Called for every event, in emission order.
    fn on_event(&mut self, event: &CheckEvent);
}

impl<F: FnMut(&CheckEvent) + Send> CheckObserver for F {
    fn on_event(&mut self, event: &CheckEvent) {
        self(event)
    }
}

/// An observer that ignores every event — what [`ModelChecker::run`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl CheckObserver for NoopObserver {
    fn on_event(&mut self, _event: &CheckEvent) {}
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// Default cadence (in transitions) of [`CheckEvent::Progress`] emissions.
pub const DEFAULT_PROGRESS_EVERY: u64 = 8192;

/// An observable, cancellable handle on one check, created by
/// [`ModelChecker::session`]. Configure it builder-style, then call
/// [`CheckSession::run`] (no observer) or [`CheckSession::run_with`].
pub struct CheckSession<'c> {
    checker: &'c ModelChecker,
    cancel: CancelToken,
    deadline: Option<Instant>,
    progress_every: u64,
}

impl ModelChecker {
    /// Opens a check session over this checker's scenario and configuration.
    /// The default session has a fresh token, no deadline, and emits
    /// progress every [`DEFAULT_PROGRESS_EVERY`] transitions.
    pub fn session(&self) -> CheckSession<'_> {
        CheckSession {
            checker: self,
            cancel: CancelToken::new(),
            deadline: None,
            progress_every: DEFAULT_PROGRESS_EVERY,
        }
    }
}

impl<'c> CheckSession<'c> {
    /// Stops the search (with [`Outcome::Interrupted`]) once `deadline`
    /// passes (builder style).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stops the search once `budget` wall-clock time has elapsed from now
    /// (builder style). A zero budget interrupts the search on its very
    /// first poll, before any meaningful work.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Sets how many transitions elapse between [`CheckEvent::Progress`]
    /// emissions (builder style). `0` disables progress events.
    pub fn with_progress_every(mut self, transitions: u64) -> Self {
        self.progress_every = transitions;
        self
    }

    /// A clone of the session's cancel token, for handing to other threads
    /// before the (blocking) run starts.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs the search with no observer. Exactly equivalent to
    /// [`ModelChecker::run`] when no token/deadline is configured.
    pub fn run(self) -> CheckReport {
        self.run_with(&mut NoopObserver)
    }

    /// Runs the search, streaming [`CheckEvent`]s to `observer`, and returns
    /// the final report (also delivered as [`CheckEvent::Finished`]).
    pub fn run_with(self, observer: &mut dyn CheckObserver) -> CheckReport {
        let config = self.checker.config();
        let ctrl = SessionCtrl::new(self.cancel, self.deadline, self.progress_every, observer);
        ctrl.emit(CheckEvent::Started {
            scenario: self.checker.scenario().name.clone(),
            workers: config.workers,
            strategy: config.strategy.name(),
            reduction: config.reduction.name(),
        });
        let mut report = self.checker.run_with_ctrl(&ctrl);
        if let Some(reason) = ctrl.interrupt_reason() {
            report.outcome = Outcome::Interrupted(reason);
        }
        ctrl.emit(CheckEvent::Finished(report.clone()));
        report
    }
}

// ---------------------------------------------------------------------------
// Engine-side control plumbing
// ---------------------------------------------------------------------------

const INTERRUPT_NONE: u8 = 0;
const INTERRUPT_CANCELLED: u8 = 1;
const INTERRUPT_DEADLINE: u8 = 2;

/// The session state the engines poll and emit through. Shared by reference
/// with every parallel worker; all its hooks are no-ops (beyond one relaxed
/// atomic load) for the default `run()` session, which keeps the wrapper
/// bit-identical and costs the hot loop nothing measurable.
pub(crate) struct SessionCtrl<'o> {
    cancel: CancelToken,
    deadline: Option<Instant>,
    progress_every: u64,
    /// Next transition count at which to emit a `Progress` event.
    next_progress: AtomicU64,
    /// First interrupt reason observed (`INTERRUPT_*`); first writer wins.
    interrupted: AtomicU8,
    start: Instant,
    observer: Mutex<&'o mut dyn CheckObserver>,
}

impl<'o> SessionCtrl<'o> {
    pub(crate) fn new(
        cancel: CancelToken,
        deadline: Option<Instant>,
        progress_every: u64,
        observer: &'o mut dyn CheckObserver,
    ) -> Self {
        SessionCtrl {
            cancel,
            deadline,
            progress_every,
            next_progress: AtomicU64::new(progress_every.max(1)),
            interrupted: AtomicU8::new(INTERRUPT_NONE),
            start: Instant::now(),
            observer: Mutex::new(observer),
        }
    }

    /// Delivers one event to the observer, serialised across workers.
    pub(crate) fn emit(&self, event: CheckEvent) {
        self.observer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .on_event(&event);
    }

    /// Emits [`CheckEvent::ViolationFound`] for a just-recorded violation.
    pub(crate) fn notify_violation(&self, violation: &Violation) {
        self.emit(CheckEvent::ViolationFound(violation.clone()));
    }

    /// Polls the cancel token and deadline. Returns the interrupt reason the
    /// search should stop with, sticky across calls (the first reason
    /// observed by any worker wins). Engines call this once per expanded
    /// node: one relaxed atomic load when idle, plus a clock read only when
    /// a deadline is armed.
    pub(crate) fn check_interrupt(&self) -> Option<InterruptReason> {
        match self.interrupted.load(Ordering::Relaxed) {
            INTERRUPT_CANCELLED => return Some(InterruptReason::Cancelled),
            INTERRUPT_DEADLINE => return Some(InterruptReason::DeadlineExceeded),
            _ => {}
        }
        let code = if self.cancel.is_cancelled() {
            INTERRUPT_CANCELLED
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            INTERRUPT_DEADLINE
        } else {
            return None;
        };
        let _ = self.interrupted.compare_exchange(
            INTERRUPT_NONE,
            code,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.interrupt_reason()
    }

    /// The sticky interrupt reason, if any poll has fired.
    pub(crate) fn interrupt_reason(&self) -> Option<InterruptReason> {
        match self.interrupted.load(Ordering::Relaxed) {
            INTERRUPT_CANCELLED => Some(InterruptReason::Cancelled),
            INTERRUPT_DEADLINE => Some(InterruptReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Emits a `Progress` event if `transitions` crossed the next cadence
    /// mark. Exactly one caller wins each mark, so the parallel engine never
    /// emits duplicates.
    pub(crate) fn maybe_progress(
        &self,
        transitions: u64,
        states: u64,
        depth: usize,
        explored_bytes: u64,
    ) {
        if self.progress_every == 0 {
            return;
        }
        let next = self.next_progress.load(Ordering::Relaxed);
        if transitions < next {
            return;
        }
        if self
            .next_progress
            .compare_exchange(
                next,
                transitions + self.progress_every,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
            self.emit(CheckEvent::Progress {
                states,
                transitions,
                rate: states as f64 / elapsed,
                depth,
                explored_bytes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CheckerConfig;
    use crate::testutil;

    /// Collects every event for assertions.
    #[derive(Default)]
    struct Recorder {
        started: usize,
        progress: usize,
        violations: usize,
        finished: usize,
    }

    impl CheckObserver for Recorder {
        fn on_event(&mut self, event: &CheckEvent) {
            match event {
                CheckEvent::Started { .. } => self.started += 1,
                CheckEvent::Progress { .. } => self.progress += 1,
                CheckEvent::ViolationFound(_) => self.violations += 1,
                CheckEvent::Finished(_) => self.finished += 1,
            }
        }
    }

    #[test]
    fn cancel_token_is_shared_through_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn session_streams_lifecycle_events() {
        let checker = ModelChecker::new(testutil::hub_ping_scenario(1), CheckerConfig::default());
        let mut recorder = Recorder::default();
        let report = checker
            .session()
            .with_progress_every(10)
            .run_with(&mut recorder);
        assert_eq!(recorder.started, 1);
        assert_eq!(recorder.finished, 1);
        assert!(recorder.progress >= 1, "10-transition cadence must fire");
        assert_eq!(recorder.violations, 0);
        assert_eq!(report.outcome, Outcome::Completed);
    }

    #[test]
    fn violations_are_streamed_as_they_are_found() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let mut recorder = Recorder::default();
        let report = checker.session().run_with(&mut recorder);
        assert!(!report.passed());
        assert_eq!(recorder.violations, report.violations.len());
    }

    #[test]
    fn observer_closures_work_and_can_cancel() {
        let checker = ModelChecker::new(testutil::hub_ping_scenario(2), CheckerConfig::default());
        let session = checker.session().with_progress_every(5);
        let token = session.cancel_token();
        let report = session.run_with(&mut move |event: &CheckEvent| {
            if matches!(event, CheckEvent::Progress { .. }) {
                token.cancel();
            }
        });
        assert_eq!(
            report.outcome,
            Outcome::Interrupted(InterruptReason::Cancelled)
        );
        assert!(report.stats.transitions > 0, "partial stats are reported");
    }

    #[test]
    fn zero_time_budget_interrupts_immediately() {
        for workers in [1, 4] {
            let checker = ModelChecker::new(
                testutil::hub_ping_scenario(2),
                CheckerConfig::default().with_workers(workers),
            );
            let report = checker.session().with_time_budget(Duration::ZERO).run();
            assert_eq!(
                report.outcome,
                Outcome::Interrupted(InterruptReason::DeadlineExceeded),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(Outcome::Completed.label(false), "exhausted");
        assert_eq!(Outcome::Completed.label(true), "budget-truncated");
        assert_eq!(
            Outcome::Interrupted(InterruptReason::Cancelled).label(false),
            "interrupted-by-cancel"
        );
        assert_eq!(
            Outcome::Interrupted(InterruptReason::DeadlineExceeded).label(true),
            "interrupted-by-deadline"
        );
        assert!(!Outcome::Completed.interrupted());
        assert!(Outcome::Interrupted(InterruptReason::Cancelled).interrupted());
    }
}
