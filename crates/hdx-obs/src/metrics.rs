//! The typed metrics registry: every counter, gauge, and histogram the
//! pipeline records, with its stable telemetry name.
//!
//! Names follow the convention `hdx.<crate>.<stage>.<name>` (see DESIGN.md
//! §11). The registry is closed — adding a metric means adding an enum
//! variant here — which keeps recording an array index instead of a string
//! lookup and lets [`crate::RunTelemetry::validate`] check that a telemetry
//! artifact carries every registered counter.

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Candidate itemsets generated by the search: `hdx.mining.candidates.generated`.
    MineCandidatesGenerated,
    /// Candidates discarded for support below `min_sup`: `hdx.mining.candidates.pruned_support`.
    MineCandidatesPrunedSupport,
    /// Candidates discarded by the one-item-per-attribute rule: `hdx.mining.candidates.pruned_attr`.
    MineCandidatesPrunedAttr,
    /// Frequent itemsets emitted into results: `hdx.mining.itemsets.emitted`.
    MineItemsetsEmitted,
    /// Passes over the numeric outcome values that folded a group of
    /// frequent candidates: `hdx.mining.numeric.passes`.
    MineNumericPasses,
    /// Candidate covers those passes folded (covers ÷ passes is the mean
    /// group fill): `hdx.mining.numeric.covers`.
    MineNumericCovers,
    /// Items excluded from a polarity-restricted mine (§V-C): `hdx.core.polarity.pruned_items`.
    PolarityItemsPruned,
    /// Itemsets found by both polarity mines and deduplicated: `hdx.core.polarity.deduped_itemsets`.
    PolarityItemsetsDeduped,
    /// Discretization splits accepted into a tree: `hdx.discretize.split.accepted`.
    DiscretizeSplitsAccepted,
    /// Candidate splits evaluated but rejected (no gain / support): `hdx.discretize.split.rejected`.
    DiscretizeSplitsRejected,
    /// Governor trips with `Termination::BudgetExhausted`: `hdx.governor.trip.budget_exhausted`.
    GovernorTripBudget,
    /// Governor trips with `Termination::DeadlineExceeded`: `hdx.governor.trip.deadline_exceeded`.
    GovernorTripDeadline,
    /// Governor trips with `Termination::Cancelled`: `hdx.governor.trip.cancelled`.
    GovernorTripCancelled,
    /// Armed fail points that fired: `hdx.governor.failpoint.hits`.
    GovernorFailpointHits,
    /// Itemsets charged against the run budget: `hdx.governor.budget.itemsets`.
    GovernorItemsetsCharged,
    /// Candidate-cover bytes charged against the run budget: `hdx.governor.budget.candidate_bytes`.
    GovernorCandidateBytesCharged,
    /// Discretization-tree nodes charged against the run budget: `hdx.governor.budget.tree_nodes`.
    GovernorTreeNodesCharged,
    /// Checkpoints written durably: `hdx.checkpoint.write.count`.
    CheckpointWrites,
    /// Envelope bytes written durably: `hdx.checkpoint.write.bytes`.
    CheckpointWriteBytes,
    /// Checkpoint writes that failed (non-fatal): `hdx.checkpoint.write.failed`.
    CheckpointWritesFailed,
    /// Checkpoints loaded successfully: `hdx.checkpoint.load.count`.
    CheckpointLoads,
    /// Checkpoint files rejected as corrupt during load: `hdx.checkpoint.load.rejected`.
    CheckpointLoadsRejected,
    /// Non-finite continuous cells quarantined to missing during ingestion: `hdx.data.quarantine.cells`.
    DataCellsQuarantined,
    /// Malformed rows quarantined (dropped) during ingestion: `hdx.data.quarantine.rows`.
    DataRowsQuarantined,
    /// Cells nulled by the missing-value injector: `hdx.datasets.missing.injected`.
    DatasetsNullsInjected,
    /// Jobs admitted by the mining service: `hdx.serve.jobs.submitted`.
    ServeJobsSubmitted,
    /// Service jobs that finished with a result (complete or partial):
    /// `hdx.serve.jobs.completed`.
    ServeJobsCompleted,
    /// Service jobs that failed permanently (retry budget spent or
    /// non-retryable error): `hdx.serve.jobs.failed`.
    ServeJobsFailed,
    /// Transiently failed service jobs re-enqueued with backoff:
    /// `hdx.serve.jobs.retried`.
    ServeJobsRetried,
    /// Submissions shed by admission control (429 + `Retry-After`):
    /// `hdx.serve.admission.shed`.
    ServeRequestsShed,
    /// Orphaned incomplete jobs resumed by the startup scan:
    /// `hdx.serve.recovery.resumed`.
    ServeJobsResumed,
    /// Worker threads respawned after a panic escaped a job:
    /// `hdx.serve.worker.respawned`.
    ServeWorkerRespawned,
    /// Rows appended to an ingest WAL's open segment: `hdx.ingest.wal.rows_appended`.
    IngestRowsAppended,
    /// WAL commits (fsync of the open segment, the durability ack point):
    /// `hdx.ingest.wal.commits`.
    IngestCommits,
    /// Open segments sealed into envelope segments: `hdx.ingest.wal.segments_sealed`.
    IngestSegmentsSealed,
    /// Torn/corrupt frames quarantined by WAL recovery:
    /// `hdx.ingest.recover.frames_quarantined`.
    IngestFramesQuarantined,
    /// Bytes moved aside by WAL recovery quarantine:
    /// `hdx.ingest.recover.bytes_quarantined`.
    IngestBytesQuarantined,
    /// Rows accepted by `POST /jobs/<id>/append`: `hdx.serve.ingest.appends`.
    ServeIngestAppends,
    /// Append requests shed by ingest backpressure (429 + `Retry-After`):
    /// `hdx.serve.ingest.shed`.
    ServeIngestShed,
    /// Incremental re-mines triggered by appended rows: `hdx.serve.ingest.remines`.
    ServeIngestRemines,
}

impl CounterId {
    /// Every registered counter, in telemetry order.
    pub const ALL: [CounterId; 40] = [
        CounterId::MineCandidatesGenerated,
        CounterId::MineCandidatesPrunedSupport,
        CounterId::MineCandidatesPrunedAttr,
        CounterId::MineItemsetsEmitted,
        CounterId::MineNumericPasses,
        CounterId::MineNumericCovers,
        CounterId::PolarityItemsPruned,
        CounterId::PolarityItemsetsDeduped,
        CounterId::DiscretizeSplitsAccepted,
        CounterId::DiscretizeSplitsRejected,
        CounterId::GovernorTripBudget,
        CounterId::GovernorTripDeadline,
        CounterId::GovernorTripCancelled,
        CounterId::GovernorFailpointHits,
        CounterId::GovernorItemsetsCharged,
        CounterId::GovernorCandidateBytesCharged,
        CounterId::GovernorTreeNodesCharged,
        CounterId::CheckpointWrites,
        CounterId::CheckpointWriteBytes,
        CounterId::CheckpointWritesFailed,
        CounterId::CheckpointLoads,
        CounterId::CheckpointLoadsRejected,
        CounterId::DataCellsQuarantined,
        CounterId::DataRowsQuarantined,
        CounterId::DatasetsNullsInjected,
        CounterId::ServeJobsSubmitted,
        CounterId::ServeJobsCompleted,
        CounterId::ServeJobsFailed,
        CounterId::ServeJobsRetried,
        CounterId::ServeRequestsShed,
        CounterId::ServeJobsResumed,
        CounterId::ServeWorkerRespawned,
        CounterId::IngestRowsAppended,
        CounterId::IngestCommits,
        CounterId::IngestSegmentsSealed,
        CounterId::IngestFramesQuarantined,
        CounterId::IngestBytesQuarantined,
        CounterId::ServeIngestAppends,
        CounterId::ServeIngestShed,
        CounterId::ServeIngestRemines,
    ];

    /// Number of registered counters.
    pub const COUNT: usize = Self::ALL.len();

    /// The stable telemetry name (`hdx.<crate>.<stage>.<name>`).
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::MineCandidatesGenerated => "hdx.mining.candidates.generated",
            CounterId::MineCandidatesPrunedSupport => "hdx.mining.candidates.pruned_support",
            CounterId::MineCandidatesPrunedAttr => "hdx.mining.candidates.pruned_attr",
            CounterId::MineItemsetsEmitted => "hdx.mining.itemsets.emitted",
            CounterId::MineNumericPasses => "hdx.mining.numeric.passes",
            CounterId::MineNumericCovers => "hdx.mining.numeric.covers",
            CounterId::PolarityItemsPruned => "hdx.core.polarity.pruned_items",
            CounterId::PolarityItemsetsDeduped => "hdx.core.polarity.deduped_itemsets",
            CounterId::DiscretizeSplitsAccepted => "hdx.discretize.split.accepted",
            CounterId::DiscretizeSplitsRejected => "hdx.discretize.split.rejected",
            CounterId::GovernorTripBudget => "hdx.governor.trip.budget_exhausted",
            CounterId::GovernorTripDeadline => "hdx.governor.trip.deadline_exceeded",
            CounterId::GovernorTripCancelled => "hdx.governor.trip.cancelled",
            CounterId::GovernorFailpointHits => "hdx.governor.failpoint.hits",
            CounterId::GovernorItemsetsCharged => "hdx.governor.budget.itemsets",
            CounterId::GovernorCandidateBytesCharged => "hdx.governor.budget.candidate_bytes",
            CounterId::GovernorTreeNodesCharged => "hdx.governor.budget.tree_nodes",
            CounterId::CheckpointWrites => "hdx.checkpoint.write.count",
            CounterId::CheckpointWriteBytes => "hdx.checkpoint.write.bytes",
            CounterId::CheckpointWritesFailed => "hdx.checkpoint.write.failed",
            CounterId::CheckpointLoads => "hdx.checkpoint.load.count",
            CounterId::CheckpointLoadsRejected => "hdx.checkpoint.load.rejected",
            CounterId::DataCellsQuarantined => "hdx.data.quarantine.cells",
            CounterId::DataRowsQuarantined => "hdx.data.quarantine.rows",
            CounterId::DatasetsNullsInjected => "hdx.datasets.missing.injected",
            CounterId::ServeJobsSubmitted => "hdx.serve.jobs.submitted",
            CounterId::ServeJobsCompleted => "hdx.serve.jobs.completed",
            CounterId::ServeJobsFailed => "hdx.serve.jobs.failed",
            CounterId::ServeJobsRetried => "hdx.serve.jobs.retried",
            CounterId::ServeRequestsShed => "hdx.serve.admission.shed",
            CounterId::ServeJobsResumed => "hdx.serve.recovery.resumed",
            CounterId::ServeWorkerRespawned => "hdx.serve.worker.respawned",
            CounterId::IngestRowsAppended => "hdx.ingest.wal.rows_appended",
            CounterId::IngestCommits => "hdx.ingest.wal.commits",
            CounterId::IngestSegmentsSealed => "hdx.ingest.wal.segments_sealed",
            CounterId::IngestFramesQuarantined => "hdx.ingest.recover.frames_quarantined",
            CounterId::IngestBytesQuarantined => "hdx.ingest.recover.bytes_quarantined",
            CounterId::ServeIngestAppends => "hdx.serve.ingest.appends",
            CounterId::ServeIngestShed => "hdx.serve.ingest.shed",
            CounterId::ServeIngestRemines => "hdx.serve.ingest.remines",
        }
    }

    /// One-line description used as the `# HELP` text of the Prometheus
    /// exposition ([`crate::expo`]).
    pub const fn help(self) -> &'static str {
        match self {
            CounterId::MineCandidatesGenerated => "Candidate itemsets generated by the search.",
            CounterId::MineCandidatesPrunedSupport => {
                "Candidates discarded for support below min_sup."
            }
            CounterId::MineCandidatesPrunedAttr => {
                "Candidates discarded by the one-item-per-attribute rule."
            }
            CounterId::MineItemsetsEmitted => "Frequent itemsets emitted into results.",
            CounterId::MineNumericPasses => {
                "Passes over the numeric outcome values that folded a group of candidates."
            }
            CounterId::MineNumericCovers => "Candidate covers folded by those passes.",
            CounterId::PolarityItemsPruned => "Items excluded from a polarity-restricted mine.",
            CounterId::PolarityItemsetsDeduped => {
                "Itemsets found by both polarity mines and deduplicated."
            }
            CounterId::DiscretizeSplitsAccepted => "Discretization splits accepted into a tree.",
            CounterId::DiscretizeSplitsRejected => {
                "Candidate splits evaluated but rejected (no gain / support)."
            }
            CounterId::GovernorTripBudget => "Governor trips with Termination::BudgetExhausted.",
            CounterId::GovernorTripDeadline => "Governor trips with Termination::DeadlineExceeded.",
            CounterId::GovernorTripCancelled => "Governor trips with Termination::Cancelled.",
            CounterId::GovernorFailpointHits => "Armed fail points that fired.",
            CounterId::GovernorItemsetsCharged => "Itemsets charged against the run budget.",
            CounterId::GovernorCandidateBytesCharged => {
                "Candidate-cover bytes charged against the run budget."
            }
            CounterId::GovernorTreeNodesCharged => {
                "Discretization-tree nodes charged against the run budget."
            }
            CounterId::CheckpointWrites => "Checkpoints written durably.",
            CounterId::CheckpointWriteBytes => "Envelope bytes written durably.",
            CounterId::CheckpointWritesFailed => "Checkpoint writes that failed (non-fatal).",
            CounterId::CheckpointLoads => "Checkpoints loaded successfully.",
            CounterId::CheckpointLoadsRejected => {
                "Checkpoint files rejected as corrupt during load."
            }
            CounterId::DataCellsQuarantined => {
                "Non-finite continuous cells quarantined to missing during ingestion."
            }
            CounterId::DataRowsQuarantined => {
                "Malformed rows quarantined (dropped) during ingestion."
            }
            CounterId::DatasetsNullsInjected => "Cells nulled by the missing-value injector.",
            CounterId::ServeJobsSubmitted => "Jobs admitted by the mining service.",
            CounterId::ServeJobsCompleted => {
                "Service jobs that finished with a result (complete or partial)."
            }
            CounterId::ServeJobsFailed => "Service jobs that failed permanently.",
            CounterId::ServeJobsRetried => {
                "Transiently failed service jobs re-enqueued with backoff."
            }
            CounterId::ServeRequestsShed => "Submissions shed by admission control (429).",
            CounterId::ServeJobsResumed => "Orphaned incomplete jobs resumed by the startup scan.",
            CounterId::ServeWorkerRespawned => "Worker threads respawned after a panic.",
            CounterId::IngestRowsAppended => "Rows appended to an ingest WAL's open segment.",
            CounterId::IngestCommits => {
                "WAL commits (fsync of the open segment, the durability ack point)."
            }
            CounterId::IngestSegmentsSealed => "Open WAL segments sealed into envelope segments.",
            CounterId::IngestFramesQuarantined => {
                "Torn or corrupt frames quarantined by WAL recovery."
            }
            CounterId::IngestBytesQuarantined => "Bytes moved aside by WAL recovery quarantine.",
            CounterId::ServeIngestAppends => "Rows accepted by POST /jobs/<id>/append.",
            CounterId::ServeIngestShed => "Append requests shed by ingest backpressure (429).",
            CounterId::ServeIngestRemines => "Incremental re-mines triggered by appended rows.",
        }
    }
}

/// Point-in-time values. Concurrent recordings merge by **maximum** (the
/// interesting value for a sizing gauge is its high-water mark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Bytes held by the vertical miner's per-root scratch pools: `hdx.mining.scratch_pool.bytes`.
    MineScratchPoolBytes,
    /// Nodes interned across all discretization trees: `hdx.discretize.tree.nodes`.
    DiscretizeTreeNodes,
    /// Milliseconds since the serving process started:
    /// `hdx.serve.process.uptime_ms`. Monotonic by construction — gauges
    /// merge by maximum and the source clock never goes backwards.
    ServeUptimeMs,
    /// High-water depth of the service's bounded job queue:
    /// `hdx.serve.queue.depth`.
    ServeQueueDepth,
}

impl GaugeId {
    /// Every registered gauge, in telemetry order.
    pub const ALL: [GaugeId; 4] = [
        GaugeId::MineScratchPoolBytes,
        GaugeId::DiscretizeTreeNodes,
        GaugeId::ServeUptimeMs,
        GaugeId::ServeQueueDepth,
    ];

    /// Number of registered gauges.
    pub const COUNT: usize = Self::ALL.len();

    /// The stable telemetry name (`hdx.<crate>.<stage>.<name>`).
    pub const fn name(self) -> &'static str {
        match self {
            GaugeId::MineScratchPoolBytes => "hdx.mining.scratch_pool.bytes",
            GaugeId::DiscretizeTreeNodes => "hdx.discretize.tree.nodes",
            GaugeId::ServeUptimeMs => "hdx.serve.process.uptime_ms",
            GaugeId::ServeQueueDepth => "hdx.serve.queue.depth",
        }
    }

    /// One-line description used as the `# HELP` text of the Prometheus
    /// exposition ([`crate::expo`]).
    pub const fn help(self) -> &'static str {
        match self {
            GaugeId::MineScratchPoolBytes => {
                "High-water bytes held by the vertical miner's per-root scratch pools."
            }
            GaugeId::DiscretizeTreeNodes => {
                "High-water nodes interned across all discretization trees."
            }
            GaugeId::ServeUptimeMs => "Milliseconds since the serving process started.",
            GaugeId::ServeQueueDepth => "High-water depth of the service's bounded job queue.",
        }
    }
}

/// Latency / size distributions (values are nanoseconds unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistId {
    /// Wall time of one `best_split` gain evaluation: `hdx.discretize.split.gain_eval_ns`.
    DiscretizeSplitGainNs,
    /// One timed iteration of a bench harness run: `hdx.bench.iter.latency_ns`.
    BenchIterNs,
}

impl HistId {
    /// Every registered histogram, in telemetry order.
    pub const ALL: [HistId; 2] = [HistId::DiscretizeSplitGainNs, HistId::BenchIterNs];

    /// Number of registered histograms.
    pub const COUNT: usize = Self::ALL.len();

    /// The stable telemetry name (`hdx.<crate>.<stage>.<name>`).
    pub const fn name(self) -> &'static str {
        match self {
            HistId::DiscretizeSplitGainNs => "hdx.discretize.split.gain_eval_ns",
            HistId::BenchIterNs => "hdx.bench.iter.latency_ns",
        }
    }

    /// One-line description used as the `# HELP` text of the Prometheus
    /// exposition ([`crate::expo`]).
    pub const fn help(self) -> &'static str {
        match self {
            HistId::DiscretizeSplitGainNs => "Wall nanoseconds of one best_split gain evaluation.",
            HistId::BenchIterNs => "Wall nanoseconds of one timed bench-harness iteration.",
        }
    }
}

/// Aggregated histogram state: count/sum/extrema plus log₂ buckets
/// (`buckets[i]` counts values with `bit_length == i`, i.e. in
/// `[2^(i-1), 2^i)`), which is precise enough for latency percentiles at
/// 16 bytes per bucket and merges losslessly across threads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistStat {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Log₂ bucket counts; index = number of significant bits of the value.
    pub buckets: Vec<u64>,
}

/// Number of log₂ buckets (covers the full `u64` range).
pub const HIST_BUCKETS: usize = 65;

impl HistStat {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        if self.buckets.len() != HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Merges another histogram into this one (lossless for bucket counts).
    pub fn merge(&mut self, other: &HistStat) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.len() != HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        for (b, v) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += v;
        }
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper edge of the bucket holding the `q`-quantile (`q` in `[0, 1]`);
    /// a factor-of-two estimate, which is what log₂ buckets can offer.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_follow_convention() {
        for c in CounterId::ALL {
            let name = c.name();
            assert!(name.starts_with("hdx."), "{name}");
            assert_eq!(name.split('.').count(), 4, "{name}");
        }
        for g in GaugeId::ALL {
            assert_eq!(g.name().split('.').count(), 4, "{}", g.name());
        }
        for h in HistId::ALL {
            assert_eq!(h.name().split('.').count(), 4, "{}", h.name());
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = CounterId::ALL
            .iter()
            .map(|c| c.name())
            .chain(GaugeId::ALL.iter().map(|g| g.name()))
            .chain(HistId::ALL.iter().map(|h| h.name()))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn enum_discriminants_match_all_order() {
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, h) in HistId::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = HistStat::new();
        a.record(4);
        a.record(100);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 104);
        assert_eq!(a.min, 4);
        assert_eq!(a.max, 100);
        let mut b = HistStat::new();
        b.record(1);
        b.merge(&a);
        assert_eq!(b.count, 3);
        assert_eq!(b.min, 1);
        assert_eq!(b.max, 100);
        assert_eq!(b.sum, 105);
        let empty = HistStat::new();
        b.merge(&empty);
        assert_eq!(b.count, 3);
        assert!(b.mean() > 34.9 && b.mean() < 35.1);
    }

    #[test]
    fn quantile_bound_is_a_power_of_two_envelope() {
        let mut h = HistStat::new();
        for v in [3u64, 5, 9, 1000] {
            h.record(v);
        }
        assert!(h.quantile_upper_bound(0.5) >= 5);
        assert!(h.quantile_upper_bound(1.0) >= 1000);
        assert_eq!(HistStat::new().quantile_upper_bound(0.5), 0);
    }
}
