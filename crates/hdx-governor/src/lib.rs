//! # hdx-governor
//!
//! Run governor: deadlines, budgets, and cooperative cancellation for the
//! mining pipeline.
//!
//! The itemset lattice explored by the miners is exponential in the worst
//! case; a slightly-too-low `min_support` turns an interactive query into an
//! unbounded one. This crate provides the substrate that makes every run
//! *boundable* and every overrun *degrade, not die*:
//!
//! * [`RunBudget`] — declarative per-run limits (wall-clock deadline, mined
//!   itemsets, candidate bitset bytes, discretization tree nodes);
//! * [`CancelToken`] — a cheap shared flag for caller-initiated cancellation
//!   (one relaxed atomic load to test);
//! * [`Governor`] — the runtime object threaded through the miners and the
//!   discretizer: it polls the deadline and token every
//!   [`POLL_INTERVAL`] checks, charges work against the budget, and latches
//!   the first limit that trips;
//! * [`Termination`] — how a stage ended ([`Complete`](Termination::Complete)
//!   or one of the degraded-but-usable outcomes);
//! * [`RunCounters`] — a snapshot of the work charged, reported alongside
//!   results.
//!
//! The design is *cooperative*: hot loops call [`Governor::keep_going`] (or
//! one of the `record_*` methods) and stop emitting when it returns `false`.
//! Everything emitted before the trip is exact — an itemset's accumulator is
//! completed before the itemset is charged — so a truncated result is always
//! a valid subset of the unbounded result.
//!
//! Under the `hdx-fail` feature the [`failpoint`] module adds a
//! dependency-free fault-injection registry with named trigger points
//! (armable from tests to panic, stall, or return errors on the Nth hit).
//!
//! ```
//! use hdx_governor::{Governor, RunBudget, Termination};
//!
//! let governor = Governor::new(RunBudget::default().with_max_itemsets(2));
//! assert!(governor.record_itemsets(1)); // 1/2 — keep going
//! assert!(governor.record_itemsets(1)); // 2/2 — still within budget
//! assert!(!governor.record_itemsets(1)); // would exceed — trip
//! assert_eq!(governor.termination(), Termination::BudgetExhausted);
//! assert_eq!(governor.counters().itemsets, 2);
//! ```

use crate::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use crate::sync::Arc;
use std::time::{Duration, Instant};

/// The concurrency primitives behind the governor, swapped for the
/// `hdx-loom` modeled twins under `--cfg hdx_loom` so the models in
/// `tests/loom_models.rs` drive the *real* governor code through every
/// interleaving (see DESIGN.md §13 and `cargo xtask sanitize`).
#[cfg(not(hdx_loom))]
pub(crate) mod sync {
    pub(crate) use std::sync::{atomic, Arc};
}
/// `hdx-loom` twin of the `sync` facade (active under `--cfg hdx_loom`).
#[cfg(hdx_loom)]
pub(crate) mod sync {
    pub(crate) use hdx_loom::sync::{atomic, Arc};
}

/// Dependency-free fault injection: named fail points armed from tests
/// (compiled only under the `hdx-fail` feature).
#[cfg(feature = "hdx-fail")]
pub mod failpoint;

/// Marks a named fail-point trigger site (see [`failpoint`]).
///
/// Expands to nothing unless the *calling* crate enables its own `hdx-fail`
/// feature (which must forward to `hdx-governor/hdx-fail`). Two forms:
///
/// * `fail_point!("name")` — an armed [`failpoint::FailAction::Error`]
///   panics with its message (alongside `Panic`/`Stall`, which behave as
///   documented on [`failpoint::hit`]);
/// * `fail_point!("name", |msg| MyError::from(msg))` — an armed `Error`
///   makes the enclosing function `return Err(...)` instead.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        #[cfg(feature = "hdx-fail")]
        {
            if let Some(msg) = $crate::failpoint::hit($name) {
                panic!("fail point `{}` fired: {}", $name, msg);
            }
        }
    };
    ($name:expr, $to_err:expr) => {
        #[cfg(feature = "hdx-fail")]
        {
            if let Some(msg) = $crate::failpoint::hit($name) {
                return Err(($to_err)(msg));
            }
        }
    };
}

/// How often (in [`Governor::keep_going`] calls) the deadline and the cancel
/// token are actually polled. Between polls the cost of a check is a single
/// relaxed atomic load, so governed hot loops stay hot.
pub const POLL_INTERVAL: u64 = 1024;

/// Declarative limits for one pipeline run. `None` everywhere (the default)
/// means unbounded.
///
/// Budgets are *cooperative*: each limit is enforced at the matching
/// `record_*` / `keep_going` call sites, so a run may overshoot by at most
/// one poll interval's worth of work before it notices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Wall-clock deadline for the run, measured from [`Governor`] creation.
    pub deadline: Option<Duration>,
    /// Maximum number of frequent itemsets to mine.
    pub max_itemsets: Option<u64>,
    /// Maximum bytes of candidate covers (bitsets) the miners may allocate.
    pub max_candidate_bytes: Option<u64>,
    /// Maximum nodes across all discretization trees.
    pub max_tree_nodes: Option<u64>,
}

impl RunBudget {
    /// An explicitly unbounded budget (same as `Default`).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Returns `true` when no limit is set.
    pub fn is_unbounded(&self) -> bool {
        *self == Self::default()
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the mined-itemset cap.
    #[must_use]
    pub fn with_max_itemsets(mut self, max: u64) -> Self {
        self.max_itemsets = Some(max);
        self
    }

    /// Sets the candidate-bytes cap.
    #[must_use]
    pub fn with_max_candidate_bytes(mut self, max: u64) -> Self {
        self.max_candidate_bytes = Some(max);
        self
    }

    /// Sets the discretization tree-node cap.
    #[must_use]
    pub fn with_max_tree_nodes(mut self, max: u64) -> Self {
        self.max_tree_nodes = Some(max);
        self
    }

    /// Derives a per-job budget from a per-tenant budget when the tenant is
    /// running `shares` concurrent jobs: every *work* cap is divided evenly
    /// (never below 1, so a configured cap can't round away to unbounded),
    /// while the wall-clock deadline applies to each job in full — jobs run
    /// on separate workers, so their wall clocks don't add up.
    ///
    /// `shares == 0` is treated as 1.
    #[must_use]
    pub fn split_among(self, shares: u64) -> Self {
        let shares = shares.max(1);
        let div = |cap: Option<u64>| cap.map(|c| (c / shares).max(1));
        Self {
            deadline: self.deadline,
            max_itemsets: div(self.max_itemsets),
            max_candidate_bytes: div(self.max_candidate_bytes),
            max_tree_nodes: div(self.max_tree_nodes),
        }
    }
}

/// Why a [`CancelToken`] was cancelled. The token latches the *first* reason
/// it is cancelled with, so a shutdown drain arriving after an explicit user
/// cancel does not rewrite history (and vice versa).
///
/// The split exists for reporting: a service must tell "cancelled by user"
/// apart from "drained for shutdown", and both apart from a deadline trip
/// ([`Termination::DeadlineExceeded`], which the governor latches itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CancelReason {
    /// An explicit caller/user cancellation request.
    #[default]
    User,
    /// A service shutdown drain: stop at the next checkpoint boundary.
    Shutdown,
}

impl CancelReason {
    /// A stable lower-case label (used in reports and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::User => "user",
            Self::Shutdown => "shutdown",
        }
    }
}

/// How a governed stage ended.
///
/// Ordered by severity: [`Complete`](Termination::Complete) <
/// [`BudgetExhausted`](Termination::BudgetExhausted) <
/// [`DeadlineExceeded`](Termination::DeadlineExceeded) <
/// [`Cancelled`](Termination::Cancelled); [`Termination::worst`] merges
/// multi-stage outcomes. A cancellation carries its [`CancelReason`] so an
/// explicit user cancel is distinguishable from a shutdown drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Termination {
    /// The stage ran to completion; results are exhaustive.
    #[default]
    Complete,
    /// A [`RunBudget`] work limit tripped; results are a valid subset.
    BudgetExhausted,
    /// The wall-clock deadline passed; results are a valid subset.
    DeadlineExceeded,
    /// The [`CancelToken`] was cancelled (carrying the latched
    /// [`CancelReason`]); results are a valid subset.
    Cancelled(CancelReason),
}

/// Latch code for [`Termination::BudgetExhausted`] (see `RUNNING`).
const LATCH_BUDGET: u8 = 1;
/// Latch code for [`Termination::DeadlineExceeded`].
const LATCH_DEADLINE: u8 = 2;
/// Latch code for [`Termination::Cancelled`]`(`[`CancelReason::User`]`)`.
const LATCH_CANCELLED_USER: u8 = 3;
/// Latch code for [`Termination::Cancelled`]`(`[`CancelReason::Shutdown`]`)`.
const LATCH_CANCELLED_SHUTDOWN: u8 = 4;

impl Termination {
    /// `true` only for [`Termination::Complete`].
    pub fn is_complete(self) -> bool {
        self == Self::Complete
    }

    /// `true` for every degraded (non-`Complete`) outcome.
    pub fn is_partial(self) -> bool {
        !self.is_complete()
    }

    /// Severity rank backing [`Termination::worst`] (higher is worse). Both
    /// cancellation reasons rank equally — *why* a run was cancelled does
    /// not change how degraded its results are.
    fn severity(self) -> u8 {
        match self {
            Self::Complete => 0,
            Self::BudgetExhausted => 1,
            Self::DeadlineExceeded => 2,
            Self::Cancelled(_) => 3,
        }
    }

    /// The latch code stored in the governor's `tripped` atomic.
    fn latch_code(self) -> u8 {
        match self {
            Self::Complete => RUNNING,
            Self::BudgetExhausted => LATCH_BUDGET,
            Self::DeadlineExceeded => LATCH_DEADLINE,
            Self::Cancelled(CancelReason::User) => LATCH_CANCELLED_USER,
            Self::Cancelled(CancelReason::Shutdown) => LATCH_CANCELLED_SHUTDOWN,
        }
    }

    /// Decodes a latch code; anything unrecognised (notably `RUNNING`) is
    /// [`Termination::Complete`].
    fn from_latch_code(code: u8) -> Self {
        match code {
            LATCH_BUDGET => Self::BudgetExhausted,
            LATCH_DEADLINE => Self::DeadlineExceeded,
            LATCH_CANCELLED_USER => Self::Cancelled(CancelReason::User),
            LATCH_CANCELLED_SHUTDOWN => Self::Cancelled(CancelReason::Shutdown),
            _ => Self::Complete,
        }
    }

    /// The more severe of two stage outcomes (for multi-stage pipelines).
    /// Ties keep `self` (the earlier stage's outcome).
    #[must_use]
    pub fn worst(self, other: Self) -> Self {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }

    /// A stable lower-case label (used in reports and JSON). A user cancel
    /// keeps the historical `"cancelled"` label; a shutdown drain reports
    /// `"cancelled_shutdown"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Complete => "complete",
            Self::BudgetExhausted => "budget_exhausted",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::Cancelled(CancelReason::User) => "cancelled",
            Self::Cancelled(CancelReason::Shutdown) => "cancelled_shutdown",
        }
    }

    /// A human-facing phrase for banners and status lines ("timed out",
    /// "cancelled by user", ...), where [`as_str`](Self::as_str) is the
    /// stable machine label.
    pub fn describe(self) -> &'static str {
        match self {
            Self::Complete => "complete",
            Self::BudgetExhausted => "budget exhausted",
            Self::DeadlineExceeded => "timed out",
            Self::Cancelled(CancelReason::User) => "cancelled by user",
            Self::Cancelled(CancelReason::Shutdown) => "cancelled by shutdown drain",
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `CancelToken` flag value while not cancelled; a cancel latches
/// `1 + CancelReason as u8` (first reason wins).
const UNCANCELLED: u8 = 0;

/// A shared cancellation flag. Cloning yields a handle to the *same* flag,
/// so a caller can keep one half and hand the other to a [`Governor`].
///
/// The flag latches a [`CancelReason`]: the first cancel wins and later
/// cancels (with any reason) are no-ops, so the reported reason is always
/// the one that actually stopped the run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicU8>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation on behalf of the user/caller
    /// ([`CancelReason::User`]). Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancel_with(CancelReason::User);
    }

    /// Requests cancellation for a shutdown drain
    /// ([`CancelReason::Shutdown`]): cooperating stages stop at their next
    /// poll (for checkpointed runs, at a checkpoint boundary). Idempotent;
    /// never blocks.
    pub fn cancel_for_shutdown(&self) {
        self.cancel_with(CancelReason::Shutdown);
    }

    /// Requests cancellation with an explicit `reason`. The first reason to
    /// land wins; repeats never rewrite it.
    pub fn cancel_with(&self, reason: CancelReason) {
        let _ = self.flag.compare_exchange(
            UNCANCELLED,
            1 + reason as u8,
            // ORDERING: sticky one-way latch, polled cooperatively; no data
            // is published under it, so observing it a poll late is
            // harmless, and the CAS alone serialises racing reasons.
            Ordering::Relaxed,
            // ORDERING: the failure load is only used to discard repeats.
            Ordering::Relaxed,
        );
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        // ORDERING: see `cancel_with` — the flag value itself is the message.
        self.flag.load(Ordering::Relaxed) != UNCANCELLED
    }

    /// The latched cancellation reason, or `None` while un-cancelled.
    pub fn reason(&self) -> Option<CancelReason> {
        // ORDERING: see `cancel_with` — the flag value itself is the message.
        match self.flag.load(Ordering::Relaxed) {
            x if x == 1 + CancelReason::User as u8 => Some(CancelReason::User),
            x if x == 1 + CancelReason::Shutdown as u8 => Some(CancelReason::Shutdown),
            _ => None,
        }
    }
}

/// A point-in-time view of one governor's budget consumption: what is
/// spent, what wall clock remains, and whether anything has tripped yet.
///
/// Sampled by the miners at every lattice level (under the `obs` feature,
/// via [`Governor::record_obs_snapshot`]) so run telemetry shows budget
/// consumption over time; all spend fields are monotonically non-decreasing
/// across consecutive snapshots of the same governor, and
/// `deadline_remaining` is non-increasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorSnapshot {
    /// Time since the governor was created.
    pub elapsed: Duration,
    /// Wall-clock budget still available (`None` when no deadline is set;
    /// zero once the deadline has passed).
    pub deadline_remaining: Option<Duration>,
    /// Itemsets charged so far.
    pub itemsets: u64,
    /// Candidate-cover bytes charged so far.
    pub candidate_bytes: u64,
    /// Discretization tree nodes charged so far.
    pub tree_nodes: u64,
    /// `keep_going` checks performed so far.
    pub checks: u64,
    /// The outcome latched so far ([`Termination::Complete`] while running).
    pub termination: Termination,
}

/// A snapshot of the work a [`Governor`] has charged so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCounters {
    /// Frequent itemsets charged by the miners.
    pub itemsets: u64,
    /// Candidate cover bytes charged by the miners.
    pub candidate_bytes: u64,
    /// Discretization tree nodes charged.
    pub tree_nodes: u64,
    /// `keep_going` checks performed (≈ candidates examined / poll sites hit).
    pub checks: u64,
}

impl RunCounters {
    /// Field-wise sum of two stage snapshots (for multi-stage pipelines
    /// whose stages run under separate governors).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            itemsets: self.itemsets + other.itemsets,
            candidate_bytes: self.candidate_bytes + other.candidate_bytes,
            tree_nodes: self.tree_nodes + other.tree_nodes,
            checks: self.checks + other.checks,
        }
    }
}

/// `Termination` latched as a `u8`; `RUNNING` means nothing tripped yet.
const RUNNING: u8 = u8::MAX;

#[derive(Debug)]
struct Inner {
    started: Instant,
    deadline_at: Option<Instant>,
    budget: RunBudget,
    cancel: CancelToken,
    /// First trip wins: `RUNNING` until a limit latches a `Termination`.
    tripped: AtomicU8,
    itemsets: AtomicU64,
    candidate_bytes: AtomicU64,
    tree_nodes: AtomicU64,
    checks: AtomicU64,
}

/// The runtime half of a [`RunBudget`]: threaded (by reference or clone —
/// clones share state) through the miners and the discretizer, which call
/// [`keep_going`](Governor::keep_going) in their hot loops and `record_*`
/// when they commit work.
///
/// Once any limit trips, the corresponding [`Termination`] is latched and
/// every subsequent check returns `false`, so all cooperating workers wind
/// down together.
#[derive(Debug, Clone)]
pub struct Governor {
    inner: Arc<Inner>,
}

impl Default for Governor {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl Governor {
    /// A governor with `budget` and a fresh internal [`CancelToken`].
    pub fn new(budget: RunBudget) -> Self {
        Self::with_token(budget, CancelToken::new())
    }

    /// A governor with `budget`, observing an external `cancel` token.
    pub fn with_token(budget: RunBudget, cancel: CancelToken) -> Self {
        let started = Instant::now();
        Self {
            inner: Arc::new(Inner {
                started,
                deadline_at: budget.deadline.and_then(|d| started.checked_add(d)),
                budget,
                cancel,
                tripped: AtomicU8::new(RUNNING),
                itemsets: AtomicU64::new(0),
                candidate_bytes: AtomicU64::new(0),
                tree_nodes: AtomicU64::new(0),
                checks: AtomicU64::new(0),
            }),
        }
    }

    /// A governor that never trips on its own (no limits, internal token).
    pub fn unbounded() -> Self {
        Self::new(RunBudget::default())
    }

    /// A governor for a *resumed* run: work counters start from `prior` so a
    /// budget keeps charging across the restart instead of resetting. The
    /// deadline clock still starts now — wall-clock spent by a dead process
    /// is not billed to its successor.
    pub fn resumed(budget: RunBudget, prior: RunCounters) -> Self {
        Self::resumed_with_token(budget, CancelToken::new(), prior)
    }

    /// [`resumed`](Self::resumed) observing an external `cancel` token.
    pub fn resumed_with_token(budget: RunBudget, cancel: CancelToken, prior: RunCounters) -> Self {
        let gov = Self::with_token(budget, cancel);
        let counters = &gov.inner;
        // ORDERING: plain counter seeding; the governor has not been shared
        // yet, and the Arc hand-off that shares it publishes these stores.
        counters.itemsets.store(prior.itemsets, Ordering::Relaxed);
        counters
            .candidate_bytes
            // ORDERING: same not-yet-shared argument as `itemsets` above.
            .store(prior.candidate_bytes, Ordering::Relaxed);
        counters
            .tree_nodes
            // ORDERING: same not-yet-shared argument as `itemsets` above.
            .store(prior.tree_nodes, Ordering::Relaxed);
        // ORDERING: same not-yet-shared argument as `itemsets` above.
        counters.checks.store(prior.checks, Ordering::Relaxed);
        gov
    }

    /// The budget this governor enforces.
    pub fn budget(&self) -> &RunBudget {
        &self.inner.budget
    }

    /// A handle to the cancel token observed by this governor.
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Time elapsed since the governor was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Wall-clock budget still available (`None` when no deadline is set;
    /// zero once the deadline has passed).
    pub fn remaining_deadline(&self) -> Option<Duration> {
        self.inner
            .deadline_at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// The cheap cooperative check: `true` while the run should continue.
    ///
    /// Cost between polls is one relaxed load plus one relaxed increment;
    /// every [`POLL_INTERVAL`] calls it additionally tests the cancel token
    /// and the deadline clock.
    #[inline]
    pub fn keep_going(&self) -> bool {
        // ORDERING: `tripped` is a sticky latch polled cooperatively; acting
        // one iteration late is fine and no memory is read under it.
        if self.inner.tripped.load(Ordering::Relaxed) != RUNNING {
            return false;
        }
        // ORDERING: poll-pacing statistic; cross-thread exactness of the
        // modulo phase is not required.
        let n = self.inner.checks.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(POLL_INTERVAL) {
            self.poll()
        } else {
            true
        }
    }

    /// Forces a full poll of the cancel token and the deadline, regardless
    /// of the poll interval. Returns `true` while the run should continue.
    pub fn poll(&self) -> bool {
        // ORDERING: sticky-latch early-out, same argument as `keep_going`.
        if self.inner.tripped.load(Ordering::Relaxed) != RUNNING {
            return false;
        }
        if let Some(reason) = self.inner.cancel.reason() {
            self.trip(Termination::Cancelled(reason));
            return false;
        }
        if let Some(at) = self.inner.deadline_at {
            if Instant::now() >= at {
                self.trip(Termination::DeadlineExceeded);
                return false;
            }
        }
        true
    }

    /// Charges `n` mined itemsets. Returns `false` (tripping
    /// [`Termination::BudgetExhausted`]) when the charge would exceed
    /// `max_itemsets`; the caller must then *not* emit the work.
    #[inline]
    pub fn record_itemsets(&self, n: u64) -> bool {
        let ok = self.charge(&self.inner.itemsets, n, self.inner.budget.max_itemsets);
        if ok {
            hdx_obs::counter_add!(GovernorItemsetsCharged, n);
        }
        ok
    }

    /// Charges `n` bytes of candidate covers against `max_candidate_bytes`.
    #[inline]
    pub fn record_candidate_bytes(&self, n: u64) -> bool {
        let ok = self.charge(
            &self.inner.candidate_bytes,
            n,
            self.inner.budget.max_candidate_bytes,
        );
        if ok {
            hdx_obs::counter_add!(GovernorCandidateBytesCharged, n);
        }
        ok
    }

    /// Charges `n` discretization tree nodes against `max_tree_nodes`.
    #[inline]
    pub fn record_tree_nodes(&self, n: u64) -> bool {
        let ok = self.charge(&self.inner.tree_nodes, n, self.inner.budget.max_tree_nodes);
        if ok {
            hdx_obs::counter_add!(GovernorTreeNodesCharged, n);
        }
        ok
    }

    /// Charges `n` units to `counter`. On overflow of `cap` the charge is
    /// rolled back, the governor trips, and `false` is returned.
    fn charge(&self, counter: &AtomicU64, n: u64, cap: Option<u64>) -> bool {
        // ORDERING: sticky-latch early-out, same argument as `keep_going`.
        if self.inner.tripped.load(Ordering::Relaxed) != RUNNING {
            return false;
        }
        // ORDERING: the cap is enforced by fetch_add's atomicity on this one
        // counter; no other memory is published under the charge.
        let total = counter.fetch_add(n, Ordering::Relaxed) + n;
        if cap.is_some_and(|cap| total > cap) {
            // ORDERING: rollback of the same counter; same argument.
            counter.fetch_sub(n, Ordering::Relaxed);
            self.trip(Termination::BudgetExhausted);
            return false;
        }
        true
    }

    /// Latches `termination` as the run outcome (first trip wins).
    /// Tripping with [`Termination::Complete`] is a no-op.
    ///
    /// Under `obs`, the *winning* trip (the one that latches) is mirrored
    /// into run telemetry as a `trip:<reason>` span event plus one
    /// `hdx.governor.trip.*` counter; repeat trips stay silent so counters
    /// count run outcomes, not call sites.
    pub fn trip(&self, termination: Termination) {
        if termination.is_complete() {
            return;
        }
        let latched = self
            .inner
            .tripped
            .compare_exchange(
                RUNNING,
                termination.latch_code(),
                // ORDERING: first-trip-wins latch; readers consume the value
                // itself, never memory ordered by it.
                Ordering::Relaxed,
                // ORDERING: the failure load is only used to discard repeats.
                Ordering::Relaxed,
            )
            .is_ok();
        if latched {
            hdx_obs::event!("trip", str termination.as_str());
            match termination {
                Termination::Complete => {}
                Termination::BudgetExhausted => {
                    hdx_obs::counter_add!(GovernorTripBudget, 1);
                }
                Termination::DeadlineExceeded => {
                    hdx_obs::counter_add!(GovernorTripDeadline, 1);
                }
                Termination::Cancelled(_) => {
                    hdx_obs::counter_add!(GovernorTripCancelled, 1);
                }
            }
        }
    }

    /// Whether any limit has tripped.
    pub fn is_tripped(&self) -> bool {
        // ORDERING: sticky latch; the loaded value itself is the answer.
        self.inner.tripped.load(Ordering::Relaxed) != RUNNING
    }

    /// The outcome so far: [`Termination::Complete`] while running or after
    /// an untripped run, otherwise the latched degraded outcome.
    pub fn termination(&self) -> Termination {
        // ORDERING: sticky latch; the loaded value itself is the answer.
        Termination::from_latch_code(self.inner.tripped.load(Ordering::Relaxed))
    }

    /// A snapshot of the charged work.
    pub fn counters(&self) -> RunCounters {
        RunCounters {
            // ORDERING: statistical snapshot; each counter is read
            // atomically and cross-counter consistency is not promised.
            itemsets: self.inner.itemsets.load(Ordering::Relaxed),
            // ORDERING: snapshot read, as `itemsets` above.
            candidate_bytes: self.inner.candidate_bytes.load(Ordering::Relaxed),
            // ORDERING: snapshot read, as `itemsets` above.
            tree_nodes: self.inner.tree_nodes.load(Ordering::Relaxed),
            // ORDERING: snapshot read, as `itemsets` above.
            checks: self.inner.checks.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time [`GovernorSnapshot`] of this governor's consumption.
    ///
    /// Successive snapshots of one governor are monotone: every spend field
    /// never decreases, `elapsed` never decreases, and `deadline_remaining`
    /// never increases (asserted by `tests/governor.rs`).
    pub fn snapshot(&self) -> GovernorSnapshot {
        let c = self.counters();
        GovernorSnapshot {
            elapsed: self.elapsed(),
            deadline_remaining: self.remaining_deadline(),
            itemsets: c.itemsets,
            candidate_bytes: c.candidate_bytes,
            tree_nodes: c.tree_nodes,
            checks: c.checks,
            termination: self.termination(),
        }
    }

    /// The current consumption as an `hdx_obs::SnapshotSample`, tagged with
    /// the mining `level` it was sampled at (0 = end of stage). Compiled
    /// only under the `obs` feature.
    #[cfg(feature = "obs")]
    pub fn obs_sample(&self, level: u64) -> hdx_obs::SnapshotSample {
        let s = self.snapshot();
        hdx_obs::SnapshotSample {
            level,
            elapsed_ns: s.elapsed.as_nanos() as u64,
            deadline_remaining_ns: s.deadline_remaining.map(|d| d.as_nanos() as u64),
            itemsets: s.itemsets,
            candidate_bytes: s.candidate_bytes,
            tree_nodes: s.tree_nodes,
        }
    }

    /// Records the current [`GovernorSnapshot`] into the hdx-obs recorder
    /// (see [`Self::obs_sample`]). The miners call it once per lattice level
    /// so telemetry shows budget consumption over time; samples also flow
    /// through the live tap (`hdx_obs::SnapshotObserver`) when one is
    /// installed, which is how hdx-serve streams per-level progress.
    #[cfg(feature = "obs")]
    pub fn record_obs_snapshot(&self, level: u64) {
        hdx_obs::record_snapshot(self.obs_sample(level));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resumed_governor_keeps_charging_from_prior_counters() {
        let prior = RunCounters {
            itemsets: 90,
            candidate_bytes: 1024,
            tree_nodes: 7,
            checks: 3,
        };
        let budget = RunBudget {
            max_itemsets: Some(100),
            ..RunBudget::default()
        };
        let g = Governor::resumed(budget, prior);
        assert_eq!(g.counters().itemsets, 90);
        assert_eq!(g.counters().candidate_bytes, 1024);
        assert!(g.record_itemsets(10), "exactly at the cap is allowed");
        assert!(!g.record_itemsets(1), "the resumed run shares the budget");
        assert_eq!(g.termination(), Termination::BudgetExhausted);
    }

    #[test]
    fn unbounded_never_trips() {
        let g = Governor::unbounded();
        for _ in 0..(POLL_INTERVAL * 3) {
            assert!(g.keep_going());
        }
        assert!(g.record_itemsets(1_000_000));
        assert!(g.record_candidate_bytes(u64::MAX / 2));
        assert_eq!(g.termination(), Termination::Complete);
        assert!(!g.is_tripped());
    }

    #[test]
    fn itemset_budget_trips_and_rolls_back() {
        let g = Governor::new(RunBudget::default().with_max_itemsets(10));
        assert!(g.record_itemsets(10));
        assert!(!g.record_itemsets(1));
        assert_eq!(g.termination(), Termination::BudgetExhausted);
        // The rejected charge is rolled back: counters report committed work.
        assert_eq!(g.counters().itemsets, 10);
        // Once tripped, everything reports false.
        assert!(!g.keep_going());
        assert!(!g.record_candidate_bytes(1));
    }

    #[test]
    fn cancel_token_trips_on_poll() {
        let token = CancelToken::new();
        let g = Governor::with_token(RunBudget::default(), token.clone());
        assert!(g.poll());
        token.cancel();
        assert!(!g.poll());
        assert_eq!(g.termination(), Termination::Cancelled(CancelReason::User));
    }

    #[test]
    fn shutdown_cancel_is_distinguishable_from_user_cancel() {
        let token = CancelToken::new();
        let g = Governor::with_token(RunBudget::default(), token.clone());
        token.cancel_for_shutdown();
        assert!(!g.poll());
        assert_eq!(
            g.termination(),
            Termination::Cancelled(CancelReason::Shutdown)
        );
        assert_eq!(g.termination().as_str(), "cancelled_shutdown");
        assert_eq!(g.termination().describe(), "cancelled by shutdown drain");
    }

    #[test]
    fn first_cancel_reason_wins() {
        let token = CancelToken::new();
        token.cancel();
        token.cancel_for_shutdown();
        assert_eq!(token.reason(), Some(CancelReason::User));

        let token = CancelToken::new();
        assert_eq!(token.reason(), None);
        token.cancel_for_shutdown();
        token.cancel();
        assert_eq!(token.reason(), Some(CancelReason::Shutdown));
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_noticed_within_one_poll_interval() {
        let g = Governor::unbounded();
        g.cancel_token().cancel();
        let mut steps = 0u64;
        while g.keep_going() {
            steps += 1;
            assert!(steps <= POLL_INTERVAL, "cancellation missed a poll window");
        }
        assert_eq!(g.termination(), Termination::Cancelled(CancelReason::User));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Governor::new(RunBudget::default().with_deadline(Duration::ZERO));
        assert!(!g.poll());
        assert_eq!(g.termination(), Termination::DeadlineExceeded);
        assert_eq!(g.remaining_deadline(), Some(Duration::ZERO));
    }

    #[test]
    fn first_trip_wins() {
        let g = Governor::new(RunBudget::default().with_max_itemsets(0));
        assert!(!g.record_itemsets(1));
        g.cancel_token().cancel();
        assert!(!g.poll());
        assert_eq!(g.termination(), Termination::BudgetExhausted);
    }

    #[test]
    fn trip_with_complete_is_noop() {
        let g = Governor::unbounded();
        g.trip(Termination::Complete);
        assert!(!g.is_tripped());
        assert!(g.keep_going());
    }

    #[test]
    fn worst_orders_severity() {
        use Termination::*;
        let cancelled = Cancelled(CancelReason::User);
        let drained = Cancelled(CancelReason::Shutdown);
        assert_eq!(Complete.worst(BudgetExhausted), BudgetExhausted);
        assert_eq!(DeadlineExceeded.worst(BudgetExhausted), DeadlineExceeded);
        assert_eq!(cancelled.worst(DeadlineExceeded), cancelled);
        assert_eq!(Complete.worst(Complete), Complete);
        // Equal severity keeps the earlier stage's reason.
        assert_eq!(cancelled.worst(drained), cancelled);
        assert_eq!(drained.worst(cancelled), drained);
    }

    #[test]
    fn budget_builders_compose() {
        let b = RunBudget::default()
            .with_deadline(Duration::from_millis(5))
            .with_max_itemsets(7)
            .with_max_candidate_bytes(1 << 20)
            .with_max_tree_nodes(64);
        assert!(!b.is_unbounded());
        assert_eq!(b.max_itemsets, Some(7));
        assert_eq!(b.max_candidate_bytes, Some(1 << 20));
        assert_eq!(b.max_tree_nodes, Some(64));
        assert!(RunBudget::unbounded().is_unbounded());
    }

    #[test]
    fn split_among_divides_work_caps_but_not_the_deadline() {
        let b = RunBudget::default()
            .with_deadline(Duration::from_secs(10))
            .with_max_itemsets(100)
            .with_max_candidate_bytes(3)
            .with_max_tree_nodes(64);
        let per_job = b.split_among(4);
        assert_eq!(per_job.deadline, Some(Duration::from_secs(10)));
        assert_eq!(per_job.max_itemsets, Some(25));
        assert_eq!(per_job.max_candidate_bytes, Some(1), "never rounds to 0");
        assert_eq!(per_job.max_tree_nodes, Some(16));
        // Unset caps stay unset; zero shares is treated as one.
        assert_eq!(RunBudget::default().split_among(8), RunBudget::default());
        assert_eq!(b.split_among(0), b);
    }

    #[test]
    fn snapshots_are_monotone_under_charging() {
        let g = Governor::new(
            RunBudget::default()
                .with_deadline(Duration::from_secs(3600))
                .with_max_itemsets(100),
        );
        let mut prev = g.snapshot();
        assert_eq!(prev.termination, Termination::Complete);
        for _ in 0..20 {
            g.record_itemsets(5);
            g.record_candidate_bytes(64);
            g.record_tree_nodes(1);
            let s = g.snapshot();
            assert!(s.itemsets >= prev.itemsets);
            assert!(s.candidate_bytes >= prev.candidate_bytes);
            assert!(s.tree_nodes >= prev.tree_nodes);
            assert!(s.checks >= prev.checks);
            assert!(s.elapsed >= prev.elapsed);
            assert!(s.deadline_remaining <= prev.deadline_remaining);
            prev = s;
        }
        assert_eq!(prev.itemsets, 100);
        assert!(!g.record_itemsets(1), "cap reached — next charge trips");
        assert_eq!(g.snapshot().termination, Termination::BudgetExhausted);
        assert_eq!(g.snapshot().itemsets, 100, "rejected charge rolled back");
    }

    #[test]
    fn shared_across_clones() {
        let g = Governor::new(RunBudget::default().with_max_itemsets(5));
        let g2 = g.clone();
        assert!(g.record_itemsets(5));
        assert!(!g2.record_itemsets(1));
        assert!(g.is_tripped());
    }
}
