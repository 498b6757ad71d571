//! # hdx-obs
//!
//! Zero-cost-when-disabled observability for the H-DivExplorer pipeline:
//! hierarchical spans (`discretize > attr:<name> > split`,
//! `mine > level:<k>`, `explore > polarity:<sign>`), a typed metrics
//! registry (counters / gauges / histograms, names
//! `hdx.<crate>.<stage>.<name>`), and the versioned [`RunTelemetry`] JSON
//! artifact the CLI writes via `--metrics-out` and `hdx-bench` embeds in
//! `BENCH_*.json`. Re-exported as `hdx_core::obs`.
//!
//! ## The zero-cost contract
//!
//! Recording macros expand under `#[cfg(feature = "obs")]` — evaluated in
//! the **calling** crate, exactly like `hdx_governor::fail_point!`. An
//! instrumented crate declares its own `obs` feature forwarding to
//! `hdx-obs/obs`; without it every macro expands to *nothing* (arguments
//! are not even evaluated) and the entry points below compile to empty
//! inline stubs with zero-sized guard types. The artifact types
//! ([`RunTelemetry`], [`CounterId`], …) are always available, so consumers
//! of telemetry files need no features at all.
//!
//! ## Recording
//!
//! ```
//! use hdx_obs as obs;
//!
//! obs::reset();
//! {
//!     obs::span!("mine");
//!     for level in 1..=2u64 {
//!         obs::span!("level", int level);
//!         obs::counter_add!(MineCandidatesGenerated, 10);
//!         obs::counter_add!(MineCandidatesPrunedSupport, 4);
//!     }
//! }
//! let telemetry = obs::collect();
//! telemetry.validate().unwrap();
//! // With `obs` off (the default) nothing was recorded:
//! // telemetry == RunTelemetry::empty().
//! ```
//!
//! Spans are per-thread (a guard is `!Send`); each thread owns a lock-free
//! event buffer with monotonic timestamps, merged by [`collect`]. Worker
//! threads call [`flush_thread!`] at the end of their closure so their
//! buffers are visible to a `collect()` on the spawning thread. See
//! DESIGN.md §11 for the span taxonomy and the schema version policy.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Minimal JSON escaping/parsing helpers for the telemetry artifact.
pub mod json;
/// The typed metrics registry: counter / gauge / histogram identifiers.
pub mod metrics;
/// The versioned [`RunTelemetry`] artifact: schema, JSON round-trip,
/// validation and the human summary table.
pub mod telemetry;

/// Prometheus text-format 0.0.4 exposition of the registry, with its
/// hand-rolled grammar self-check.
pub mod expo;

pub use metrics::{CounterId, GaugeId, HistId, HistStat, HIST_BUCKETS};
pub use telemetry::{RunTelemetry, SnapshotSample, SpanStat, TELEMETRY_SCHEMA};

/// A live tap over governor budget samples, called synchronously from
/// [`record_snapshot`] on the recording thread *before* the sample lands in
/// the thread-local sink. Installed process-globally (at most once) via
/// [`set_snapshot_observer`]; hdx-serve uses it to put each governor
/// sample on `GET /jobs/<id>/events` while the job runs (the miner records
/// one as each mining call returns). Implementations must be cheap and
/// non-blocking — they run on the recording thread, inside the run.
pub trait SnapshotObserver: Send + Sync {
    /// Called for every recorded sample, on the thread that recorded it.
    fn on_snapshot(&self, sample: &SnapshotSample);
}

/// The optional argument of a span segment, rendered as `label:arg`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanArg {
    /// Bare label.
    None,
    /// Numeric argument (mining level, worker index).
    Int(i64),
    /// Static string argument (polarity sign, algorithm name).
    Str(&'static str),
    /// Runtime string argument (attribute name).
    Owned(String),
}

/// The lock behind the recorder's retired-sink registry, swapped for the
/// `hdx-loom` modeled twin under `--cfg hdx_loom` so the models in
/// `tests/loom_models.rs` drive the *real* flush/collect hand-off through
/// every interleaving (see DESIGN.md §13 and `cargo xtask sanitize`).
#[cfg(all(feature = "obs", not(hdx_loom)))]
pub(crate) mod sync {
    pub(crate) use std::sync::{Mutex, PoisonError};
}
/// `hdx-loom` twin of the `sync` facade (active under `--cfg hdx_loom`).
#[cfg(all(feature = "obs", hdx_loom))]
pub(crate) mod sync {
    pub(crate) use hdx_loom::sync::{Mutex, PoisonError};
}

#[cfg(feature = "obs")]
mod record;
#[cfg(feature = "obs")]
pub use record::{
    collect, counter_add, flush_thread, gauge_max, gauge_set, hist_record, instant, now_ns,
    record_snapshot, reset, set_snapshot_observer, time_hist_fn, SpanGuard,
};

#[cfg(not(feature = "obs"))]
mod stub {
    //! Inline no-op twins of the `record` API, compiled when `obs` is off.
    //! Everything here is empty and zero-sized so instrumentation vanishes.

    use crate::metrics::{CounterId, GaugeId, HistId};
    use crate::telemetry::{RunTelemetry, SnapshotSample};
    use crate::SpanArg;
    use std::marker::PhantomData;

    /// Zero-sized no-op span guard (the disabled twin of the recorder's).
    #[derive(Debug)]
    pub struct SpanGuard {
        _not_send: PhantomData<*const ()>,
    }

    impl SpanGuard {
        /// Does nothing; returns a zero-sized guard.
        #[inline(always)]
        pub fn enter(_label: &'static str, _arg: SpanArg) -> Self {
            Self {
                _not_send: PhantomData,
            }
        }
    }

    /// Does nothing.
    #[inline(always)]
    pub fn instant(_label: &'static str, _arg: SpanArg) {}

    /// Does nothing.
    #[inline(always)]
    pub fn counter_add(_id: CounterId, _n: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn gauge_max(_id: GaugeId, _value: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn gauge_set(_id: GaugeId, _value: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn hist_record(_id: HistId, _value: u64) {}

    /// Runs `f` without timing it.
    #[inline(always)]
    pub fn time_hist_fn<R>(_id: HistId, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Does nothing.
    #[inline(always)]
    pub fn record_snapshot(_sample: SnapshotSample) {}

    /// Does nothing.
    #[inline(always)]
    pub fn reset() {}

    /// Returns an empty artifact (every registered metric at zero).
    #[inline(always)]
    pub fn collect() -> RunTelemetry {
        RunTelemetry::empty()
    }

    /// Always 0 when disabled.
    #[inline(always)]
    pub fn now_ns() -> u64 {
        0
    }

    /// Does nothing.
    #[inline(always)]
    pub fn flush_thread() {}

    /// Drops the observer and reports `false`: with `obs` off nothing ever
    /// records a snapshot, so no tap can be installed.
    #[inline(always)]
    pub fn set_snapshot_observer(_observer: Box<dyn crate::SnapshotObserver>) -> bool {
        false
    }
}
#[cfg(not(feature = "obs"))]
pub use stub::{
    collect, counter_add, flush_thread, gauge_max, gauge_set, hist_record, instant, now_ns,
    record_snapshot, reset, set_snapshot_observer, time_hist_fn, SpanGuard,
};

/// Opens a hierarchical span for the rest of the enclosing scope.
///
/// `span!("mine")`, `span!("level", int k)`, `span!("polarity", str "+")`,
/// `span!("attr", owned name.to_string())`. Expands to nothing (arguments
/// unevaluated) unless the calling crate enables its `obs` feature.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        #[cfg(feature = "obs")]
        let _hdx_obs_span = $crate::SpanGuard::enter($label, $crate::SpanArg::None);
    };
    ($label:expr, int $arg:expr) => {
        #[cfg(feature = "obs")]
        let _hdx_obs_span = $crate::SpanGuard::enter($label, $crate::SpanArg::Int($arg as i64));
    };
    ($label:expr, str $arg:expr) => {
        #[cfg(feature = "obs")]
        let _hdx_obs_span = $crate::SpanGuard::enter($label, $crate::SpanArg::Str($arg));
    };
    ($label:expr, owned $arg:expr) => {
        #[cfg(feature = "obs")]
        let _hdx_obs_span = $crate::SpanGuard::enter($label, $crate::SpanArg::Owned($arg));
    };
}

/// Records an instantaneous event under the current span (same argument
/// forms as [`span!`]). Zero-cost without the calling crate's `obs`.
#[macro_export]
macro_rules! event {
    ($label:expr) => {
        #[cfg(feature = "obs")]
        $crate::instant($label, $crate::SpanArg::None);
    };
    ($label:expr, int $arg:expr) => {
        #[cfg(feature = "obs")]
        $crate::instant($label, $crate::SpanArg::Int($arg as i64));
    };
    ($label:expr, str $arg:expr) => {
        #[cfg(feature = "obs")]
        $crate::instant($label, $crate::SpanArg::Str($arg));
    };
    ($label:expr, owned $arg:expr) => {
        #[cfg(feature = "obs")]
        $crate::instant($label, $crate::SpanArg::Owned($arg));
    };
}

/// Opens the service's per-job attribution spans for the rest of the
/// enclosing scope: a `tenant:<tenant>` span wrapping a `job:<job_id>`
/// span, so every child span, event, and snapshot recorded while a job
/// executes lands under a `... > tenant:<t> > job:<id> > ...` path in
/// [`RunTelemetry`] and service telemetry stays attributable per tenant.
/// `job_span!(job_id, tenant tenant_name)` — both arguments are anything
/// `Display`able. Zero-cost without the calling crate's `obs`.
#[macro_export]
macro_rules! job_span {
    ($job_id:expr, tenant $tenant:expr) => {
        #[cfg(feature = "obs")]
        let _hdx_obs_tenant_span =
            $crate::SpanGuard::enter("tenant", $crate::SpanArg::Owned($tenant.to_string()));
        #[cfg(feature = "obs")]
        let _hdx_obs_job_span =
            $crate::SpanGuard::enter("job", $crate::SpanArg::Owned($job_id.to_string()));
    };
}

/// Adds to a registered counter by bare variant name:
/// `counter_add!(MineCandidatesGenerated, 1)`. Zero-cost without the
/// calling crate's `obs`.
#[macro_export]
macro_rules! counter_add {
    ($id:ident, $n:expr) => {
        #[cfg(feature = "obs")]
        $crate::counter_add($crate::CounterId::$id, $n as u64);
    };
}

/// Raises a registered gauge to a new high-water mark:
/// `gauge_max!(MineScratchPoolBytes, bytes)`. Zero-cost without the
/// calling crate's `obs`.
#[macro_export]
macro_rules! gauge_max {
    ($id:ident, $value:expr) => {
        #[cfg(feature = "obs")]
        $crate::gauge_max($crate::GaugeId::$id, $value as u64);
    };
}

/// Records one value into a registered histogram:
/// `hist_record!(DiscretizeSplitGainNs, ns)`. Zero-cost without the calling
/// crate's `obs`.
#[macro_export]
macro_rules! hist_record {
    ($id:ident, $value:expr) => {
        #[cfg(feature = "obs")]
        $crate::hist_record($crate::HistId::$id, $value as u64);
    };
}

/// Flushes the calling worker thread's recording buffer so a `collect()`
/// on the spawning thread sees it. Call at the end of every scoped-thread
/// closure that records anything (scoped threads count as finished before
/// their thread-local destructors run). Zero-cost without the calling
/// crate's `obs`.
#[macro_export]
macro_rules! flush_thread {
    () => {
        #[cfg(feature = "obs")]
        $crate::flush_thread();
    };
}

/// Evaluates an expression, recording its wall time into a histogram:
/// `let split = time_hist!(DiscretizeSplitGainNs, best_split(...));`
/// Without the calling crate's `obs` this is exactly the expression.
#[macro_export]
macro_rules! time_hist {
    ($id:ident, $e:expr) => {{
        #[cfg(feature = "obs")]
        {
            $crate::time_hist_fn($crate::HistId::$id, || $e)
        }
        #[cfg(not(feature = "obs"))]
        {
            $e
        }
    }};
}

#[cfg(all(test, not(feature = "obs")))]
mod disabled_tests {
    //! The compile-time no-op contract: without `obs`, guards are
    //! zero-sized and *any* recording sequence collects to the empty
    //! artifact.

    use super::*;

    #[test]
    fn span_guard_is_zero_sized() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert_eq!(
            std::mem::size_of_val(&SpanGuard::enter("x", SpanArg::None)),
            0
        );
    }

    #[test]
    fn macros_expand_to_nothing_without_the_feature() {
        crate::span!("mine");
        crate::span!("level", int 3);
        crate::job_span!("j-1", tenant "acme");
        crate::event!("trip", str "budget");
        crate::counter_add!(MineCandidatesGenerated, 1);
        crate::gauge_max!(MineScratchPoolBytes, 100);
        crate::hist_record!(DiscretizeSplitGainNs, 5);
        crate::flush_thread!();
        let three = crate::time_hist!(DiscretizeSplitGainNs, 1 + 2);
        assert_eq!(three, 3);
        assert_eq!(collect(), RunTelemetry::empty());
        assert_eq!(now_ns(), 0);
    }

    /// Property test (hand-rolled, deterministic PRNG): for hundreds of
    /// random recording sequences, the disabled recorder still collects
    /// to the empty artifact.
    #[test]
    fn any_recording_sequence_collects_empty() {
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            // SplitMix64 step — deterministic across runs and platforms.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        struct NopTap;
        impl SnapshotObserver for NopTap {
            fn on_snapshot(&self, _sample: &SnapshotSample) {
                unreachable!("disabled builds never install a tap");
            }
        }
        for case in 0..256 {
            let len = (next() % 64) as usize;
            for _ in 0..len {
                match next() % 7 {
                    0 => {
                        let _g = SpanGuard::enter("p", SpanArg::Int(1));
                    }
                    1 => instant("q", SpanArg::Str("s")),
                    2 => counter_add(CounterId::MineItemsetsEmitted, 3),
                    3 => gauge_set(GaugeId::DiscretizeTreeNodes, 9),
                    4 => hist_record(HistId::DiscretizeSplitGainNs, 17),
                    5 => assert!(
                        !set_snapshot_observer(Box::new(NopTap)),
                        "disabled tap install must refuse"
                    ),
                    _ => record_snapshot(SnapshotSample {
                        level: 1,
                        elapsed_ns: 2,
                        deadline_remaining_ns: Some(3),
                        itemsets: 4,
                        candidate_bytes: 5,
                        tree_nodes: 6,
                    }),
                }
            }
            assert_eq!(collect(), RunTelemetry::empty(), "case {case}");
        }
    }
}

#[cfg(all(test, feature = "obs"))]
mod enabled_macro_tests {
    //! The macros drive the real recorder when `obs` is on (hdx-obs's own
    //! `obs` feature doubles as its calling-crate gate here).

    use super::*;

    #[test]
    fn macros_record_through_the_real_recorder() {
        let _serial = crate::record::test_serial();
        {
            crate::span!("macro-test");
            crate::counter_add!(DiscretizeSplitsAccepted, 2);
            crate::event!("tick", int 7);
        }
        let sum: u64 = crate::time_hist!(DiscretizeSplitGainNs, (0..10u64).sum());
        assert_eq!(sum, 45);
        let t = collect();
        assert!(t.spans.iter().any(|s| s.path == "macro-test"));
        assert!(t.spans.iter().any(|s| s.path == "macro-test > tick:7"));
        assert!(t.counter(CounterId::DiscretizeSplitsAccepted) >= 2);
        assert!(t
            .histogram(HistId::DiscretizeSplitGainNs)
            .is_some_and(|h| h.count >= 1));
    }
}
