//! The live recorder (compiled only under the `obs` feature): per-thread
//! event buffers, counter/gauge/histogram cells, and the collector that
//! merges them into a [`RunTelemetry`].
//!
//! Recording is lock-free on the hot path: every thread appends to its own
//! thread-local sink (plain `Cell`/`RefCell` stores, no atomics, no shared
//! locks). The only lock is the retired-sink registry, touched once per
//! thread flush/exit and once per [`collect`]. Worker threads (e.g. the
//! parallel vertical miner's scoped workers) must call [`flush_thread`]
//! at the end of their closure: thread-local destructors run *after* a
//! scoped thread is considered finished, so relying on the drop-flush
//! alone would race `collect()` on the spawning thread. The drop-flush
//! still runs as a backstop for threads that never flush explicitly.
//!
//! Timestamps are nanoseconds from a process-global monotonic epoch
//! (`Instant`-based), so events from different threads order correctly.

use crate::metrics::{CounterId, GaugeId, HistId, HistStat};
use crate::sync::{Mutex, PoisonError};
use crate::telemetry::{RunTelemetry, SnapshotSample, SpanStat};
use crate::SpanArg;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Begin,
    End,
    Instant,
}

#[derive(Debug)]
struct Event {
    kind: EventKind,
    /// Unused (empty) for `End` events — the span stack supplies the match.
    label: &'static str,
    arg: SpanArg,
    t_ns: u64,
}

/// Everything one thread recorded, detached from its cells.
struct SinkData {
    counters: [u64; CounterId::COUNT],
    gauges: [u64; GaugeId::COUNT],
    hists: Vec<HistStat>,
    events: Vec<Event>,
    snapshots: Vec<SnapshotSample>,
}

/// The thread-local sink. Dropping it (thread exit) flushes its data into
/// the retired registry so `collect()` on the main thread still sees it.
struct LocalSink {
    counters: [Cell<u64>; CounterId::COUNT],
    gauges: [Cell<u64>; GaugeId::COUNT],
    hists: RefCell<Vec<HistStat>>,
    events: RefCell<Vec<Event>>,
    snapshots: RefCell<Vec<SnapshotSample>>,
}

impl LocalSink {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| Cell::new(0)),
            gauges: std::array::from_fn(|_| Cell::new(0)),
            hists: RefCell::new((0..HistId::COUNT).map(|_| HistStat::new()).collect()),
            events: RefCell::new(Vec::new()),
            snapshots: RefCell::new(Vec::new()),
        }
    }

    /// Moves the recorded data out, leaving the sink empty.
    fn take_data(&self) -> SinkData {
        SinkData {
            counters: std::array::from_fn(|i| self.counters[i].replace(0)),
            gauges: std::array::from_fn(|i| self.gauges[i].replace(0)),
            hists: self
                .hists
                .replace((0..HistId::COUNT).map(|_| HistStat::new()).collect()),
            events: self.events.take(),
            snapshots: self.snapshots.take(),
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.iter().all(|c| c.get() == 0)
            && self.gauges.iter().all(|g| g.get() == 0)
            && self.hists.borrow().iter().all(|h| h.count == 0)
            && self.events.borrow().is_empty()
            && self.snapshots.borrow().is_empty()
    }
}

impl Drop for LocalSink {
    fn drop(&mut self) {
        if self.is_empty() {
            return;
        }
        let data = self.take_data();
        retired()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(data);
    }
}

thread_local! {
    static SINK: LocalSink = LocalSink::new();
}

fn retired() -> &'static Mutex<Vec<SinkData>> {
    static RETIRED: Mutex<Vec<SinkData>> = Mutex::new(Vec::new());
    &RETIRED
}

/// Nanoseconds since the process-global monotonic epoch (first obs use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_sink(f: impl FnOnce(&LocalSink)) {
    // `try_with` so recording during thread teardown degrades to a no-op
    // instead of panicking.
    let _ = SINK.try_with(f);
}

fn push_event(kind: EventKind, label: &'static str, arg: SpanArg) {
    let t_ns = now_ns();
    with_sink(|s| {
        s.events.borrow_mut().push(Event {
            kind,
            label,
            arg,
            t_ns,
        });
    });
}

/// An RAII guard for one hierarchical span: entering records a begin event,
/// dropping records the matching end. Guards are `!Send` (a span belongs to
/// the thread that opened it) and zero-sized.
#[derive(Debug)]
pub struct SpanGuard {
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span named `label` (rendered as `label` or `label:arg`) under
    /// the thread's currently open span, if any.
    pub fn enter(label: &'static str, arg: SpanArg) -> Self {
        push_event(EventKind::Begin, label, arg);
        Self {
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        push_event(EventKind::End, "", SpanArg::None);
    }
}

/// Records an instantaneous event (a zero-duration span occurrence) under
/// the current span path.
pub fn instant(label: &'static str, arg: SpanArg) {
    push_event(EventKind::Instant, label, arg);
}

/// Adds `n` to a counter.
pub fn counter_add(id: CounterId, n: u64) {
    with_sink(|s| {
        let cell = &s.counters[id as usize];
        cell.set(cell.get().saturating_add(n));
    });
}

/// Sets a gauge to `value` if it exceeds the thread's current value
/// (gauges merge by maximum, so recording the high-water mark is the
/// meaningful operation).
pub fn gauge_max(id: GaugeId, value: u64) {
    with_sink(|s| {
        let cell = &s.gauges[id as usize];
        cell.set(cell.get().max(value));
    });
}

/// Sets a gauge to `value` unconditionally (thread-locally; cross-thread
/// merge still takes the maximum).
pub fn gauge_set(id: GaugeId, value: u64) {
    with_sink(|s| s.gauges[id as usize].set(value));
}

/// Records one value into a histogram.
pub fn hist_record(id: HistId, value: u64) {
    with_sink(|s| {
        if let Some(h) = s.hists.borrow_mut().get_mut(id as usize) {
            h.record(value);
        }
    });
}

/// Times `f` and records the wall nanoseconds into histogram `id`.
pub fn time_hist_fn<R>(id: HistId, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    hist_record(id, start.elapsed().as_nanos() as u64);
    result
}

fn snapshot_observer() -> &'static OnceLock<Box<dyn crate::SnapshotObserver>> {
    static OBSERVER: OnceLock<Box<dyn crate::SnapshotObserver>> = OnceLock::new();
    &OBSERVER
}

/// Installs the process-global live snapshot tap ([`crate::SnapshotObserver`]).
/// Returns `false` (dropping `observer`) if a tap is already installed —
/// observers cannot be swapped mid-run without racing recorders.
pub fn set_snapshot_observer(observer: Box<dyn crate::SnapshotObserver>) -> bool {
    snapshot_observer().set(observer).is_ok()
}

/// Records a governor budget sample, forwarding it to the live tap first
/// (on this thread) so streaming consumers see it before any `collect()`.
pub fn record_snapshot(sample: SnapshotSample) {
    if let Some(tap) = snapshot_observer().get() {
        tap.on_snapshot(&sample);
    }
    with_sink(|s| s.snapshots.borrow_mut().push(sample));
}

/// Flushes the calling thread's sink into the retired registry so a later
/// [`collect`] on another thread sees its data. Worker threads must call
/// this at the end of their closure: a scoped thread counts as finished
/// *before* its thread-local destructors run, so the automatic drop-flush
/// can land after the spawning thread's `collect()`.
pub fn flush_thread() {
    with_sink(|s| {
        if s.is_empty() {
            return;
        }
        let data = s.take_data();
        retired()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(data);
    });
}

/// Discards everything recorded so far (current thread + retired threads).
/// Call at the start of a run whose telemetry should stand alone.
pub fn reset() {
    with_sink(|s| {
        let _ = s.take_data();
    });
    retired()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Drains everything recorded since the last [`reset`]/[`collect`] into a
/// [`RunTelemetry`]: counters sum, gauges take the maximum, histograms
/// merge, and span events aggregate per hierarchical path.
pub fn collect() -> RunTelemetry {
    let mut sinks: Vec<SinkData> = Vec::new();
    let _ = SINK.try_with(|s| sinks.push(s.take_data()));
    {
        let mut retired = retired().lock().unwrap_or_else(PoisonError::into_inner);
        sinks.append(&mut retired);
    }

    let mut telemetry = RunTelemetry::empty();
    let mut span_index: HashMap<String, usize> = HashMap::new();
    for sink in &sinks {
        for (slot, value) in telemetry.counters.iter_mut().zip(sink.counters) {
            slot.1 = slot.1.saturating_add(value);
        }
        for (slot, value) in telemetry.gauges.iter_mut().zip(sink.gauges) {
            slot.1 = slot.1.max(value);
        }
        for (slot, h) in telemetry.histograms.iter_mut().zip(&sink.hists) {
            slot.1.merge(h);
        }
        telemetry.snapshots.extend(sink.snapshots.iter().cloned());
        aggregate_events(&sink.events, &mut telemetry.spans, &mut span_index);
    }
    telemetry.snapshots.sort_by_key(|s| (s.elapsed_ns, s.level));
    telemetry
}

/// Renders one span path segment.
fn segment(label: &'static str, arg: &SpanArg) -> String {
    match arg {
        SpanArg::None => label.to_string(),
        SpanArg::Int(v) => format!("{label}:{v}"),
        SpanArg::Str(v) => format!("{label}:{v}"),
        SpanArg::Owned(v) => format!("{label}:{v}"),
    }
}

/// Replays one thread's event stream, charging durations to hierarchical
/// paths. Spans left open (a run aborted mid-span) are closed at the
/// stream's last timestamp.
fn aggregate_events(
    events: &[Event],
    spans: &mut Vec<SpanStat>,
    index: &mut HashMap<String, usize>,
) {
    let last_t = events.last().map_or(0, |e| e.t_ns);
    let mut intern = |spans: &mut Vec<SpanStat>, path: String| -> usize {
        if let Some(&i) = index.get(&path) {
            return i;
        }
        spans.push(SpanStat {
            path: path.clone(),
            count: 0,
            total_ns: 0,
        });
        index.insert(path, spans.len() - 1);
        spans.len() - 1
    };
    // (segment, aggregate index, begin timestamp) per open span.
    let mut stack: Vec<(String, usize, u64)> = Vec::new();
    let mut path = String::new();
    for event in events {
        match event.kind {
            EventKind::Begin => {
                let seg = segment(event.label, &event.arg);
                if !path.is_empty() {
                    path.push_str(" > ");
                }
                path.push_str(&seg);
                let idx = intern(spans, path.clone());
                stack.push((seg, idx, event.t_ns));
            }
            EventKind::End => {
                let Some((seg, idx, begin)) = stack.pop() else {
                    continue; // unmatched end: drop defensively
                };
                spans[idx].count += 1;
                spans[idx].total_ns += event.t_ns.saturating_sub(begin);
                truncate_path(&mut path, &seg);
            }
            EventKind::Instant => {
                let seg = segment(event.label, &event.arg);
                let full = if path.is_empty() {
                    seg
                } else {
                    format!("{path} > {seg}")
                };
                let idx = intern(spans, full);
                spans[idx].count += 1;
            }
        }
    }
    while let Some((seg, idx, begin)) = stack.pop() {
        spans[idx].count += 1;
        spans[idx].total_ns += last_t.saturating_sub(begin);
        truncate_path(&mut path, &seg);
    }
}

fn truncate_path(path: &mut String, last_segment: &str) {
    let new_len = path
        .len()
        .saturating_sub(last_segment.len())
        .saturating_sub(if path.len() > last_segment.len() {
            3
        } else {
            0
        });
    path.truncate(new_len);
}

/// Serialises tests that drain the process-global recorder (`collect` /
/// `reset`). Sinks of *exited* test threads can still land in RETIRED
/// between a reset() and a collect() (thread teardown is outside the
/// lock), so test assertions filter to the labels each test records.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_serial as serial;

    #[test]
    fn spans_nest_into_paths() {
        let _guard = serial();
        reset();
        {
            let _a = SpanGuard::enter("mine", SpanArg::None);
            {
                let _b = SpanGuard::enter("level", SpanArg::Int(1));
            }
            {
                let _c = SpanGuard::enter("level", SpanArg::Int(2));
                instant("trip", SpanArg::Str("budget"));
            }
        }
        let t = collect();
        let spans: Vec<&SpanStat> = t
            .spans
            .iter()
            .filter(|s| s.path.starts_with("mine"))
            .collect();
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "mine",
                "mine > level:1",
                "mine > level:2",
                "mine > level:2 > trip:budget"
            ]
        );
        assert_eq!(spans[0].count, 1);
        assert_eq!(spans[3].total_ns, 0, "instant events carry no duration");
        assert!(spans[0].total_ns + 1 >= spans[1].total_ns + spans[2].total_ns);
    }

    #[test]
    fn job_span_attributes_work_to_its_tenant() {
        let _guard = serial();
        reset();
        {
            let _s = SpanGuard::enter("serve", SpanArg::None);
            let job = String::from("j-0000000001");
            crate::job_span!(job, tenant "acme");
            let _m = SpanGuard::enter("mine", SpanArg::None);
        }
        let t = collect();
        let paths: Vec<&str> = t.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(
            paths.contains(&"serve > tenant:acme > job:j-0000000001 > mine"),
            "paths: {paths:?}"
        );
    }

    #[test]
    fn uptime_gauge_merges_monotonically() {
        let _guard = serial();
        reset();
        // Out-of-order and cross-thread samples: max-merge keeps the gauge
        // monotone, which is what makes it a valid uptime.
        gauge_max(GaugeId::ServeUptimeMs, 120);
        gauge_max(GaugeId::ServeUptimeMs, 80);
        let h = std::thread::spawn(|| {
            gauge_max(GaugeId::ServeUptimeMs, 100);
            crate::flush_thread!();
        });
        h.join().expect("gauge thread");
        let t = collect();
        assert_eq!(t.gauge(GaugeId::ServeUptimeMs), 120);
    }

    #[test]
    fn counters_gauges_hists_merge_across_threads() {
        let _guard = serial();
        reset();
        counter_add(CounterId::MineCandidatesGenerated, 2);
        gauge_max(GaugeId::MineScratchPoolBytes, 10);
        hist_record(HistId::DiscretizeSplitGainNs, 5);
        std::thread::scope(|scope| {
            for i in 0..2u64 {
                scope.spawn(move || {
                    counter_add(CounterId::MineCandidatesGenerated, 3 + i);
                    gauge_max(GaugeId::MineScratchPoolBytes, 100 * (i + 1));
                    hist_record(HistId::DiscretizeSplitGainNs, 50);
                    flush_thread();
                });
            }
        });
        let t = collect();
        assert_eq!(t.counter(CounterId::MineCandidatesGenerated), 2 + 3 + 4);
        assert_eq!(t.gauge(GaugeId::MineScratchPoolBytes), 200);
        let h = t
            .histogram(HistId::DiscretizeSplitGainNs)
            .cloned()
            .unwrap_or_default();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 50);
    }

    #[test]
    fn collect_drains_and_validates() {
        let _guard = serial();
        reset();
        counter_add(CounterId::PolarityItemsPruned, 7);
        let first = collect();
        assert_eq!(first.counter(CounterId::PolarityItemsPruned), 7);
        assert!(first.validate().is_ok());
        let second = collect();
        assert_eq!(second.counter(CounterId::PolarityItemsPruned), 0);
    }

    #[test]
    fn open_spans_are_closed_at_collect() {
        let _guard = serial();
        reset();
        let guard = SpanGuard::enter("open-span-test", SpanArg::None);
        instant("checkpoint", SpanArg::None);
        let t = collect();
        let open = t
            .spans
            .iter()
            .find(|s| s.path == "open-span-test")
            .map(|s| s.count);
        assert_eq!(open, Some(1));
        drop(guard); // late end after drain: lands in the next collection
        reset();
    }

    #[test]
    fn snapshots_sort_by_elapsed() {
        let _guard = serial();
        reset();
        for (level, elapsed) in [(2u64, 20u64), (1, 10)] {
            record_snapshot(SnapshotSample {
                level,
                elapsed_ns: elapsed,
                deadline_remaining_ns: None,
                itemsets: level,
                candidate_bytes: 0,
                tree_nodes: 0,
            });
        }
        let t = collect();
        assert_eq!(t.snapshots.len(), 2);
        assert_eq!(t.snapshots[0].level, 1);
        assert_eq!(t.snapshots[1].level, 2);
    }

    #[test]
    fn snapshot_tap_sees_samples_before_collect() {
        let _guard = serial();
        reset();
        // The tap is process-global and first-install-wins; use a static
        // collector and assert on this test's unique sample values so other
        // tests' snapshots flowing through it are harmless.
        static SEEN: std::sync::Mutex<Vec<SnapshotSample>> = std::sync::Mutex::new(Vec::new());
        struct Tap;
        impl crate::SnapshotObserver for Tap {
            fn on_snapshot(&self, sample: &SnapshotSample) {
                SEEN.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(sample.clone());
            }
        }
        let installed = set_snapshot_observer(Box::new(Tap));
        let again = set_snapshot_observer(Box::new(Tap));
        assert!(installed || !again, "at most one install succeeds");
        record_snapshot(SnapshotSample {
            level: 777,
            elapsed_ns: 1,
            deadline_remaining_ns: None,
            itemsets: 9,
            candidate_bytes: 0,
            tree_nodes: 0,
        });
        let seen = SEEN.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(
            seen.iter().any(|s| s.level == 777 && s.itemsets == 9),
            "tap saw the sample synchronously"
        );
        drop(seen);
        // The sample still lands in the sink for the end-of-run artifact.
        let t = collect();
        assert!(t.snapshots.iter().any(|s| s.level == 777));
    }

    #[test]
    fn span_guard_is_zero_sized_even_when_enabled() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
