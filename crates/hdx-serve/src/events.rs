//! The per-job event vocabulary and its NDJSON wire encoding.
//!
//! Every job emits a totally ordered stream of lifecycle events plus one
//! `level` event per governor snapshot. Each event encodes as exactly one
//! flat JSON object on one line, stamped with a monotonic sequence number:
//!
//! ```text
//! {"seq":0,"event":"admitted","tenant":"acme","resumed":false}
//! {"seq":1,"event":"started","attempt":1}
//! {"seq":2,"event":"level","level":1,"elapsed_ns":90211,...}
//! {"seq":3,"event":"done","ok":true,"state":"done","termination":"complete"}
//! ```
//!
//! The encoding is deterministic (fixed key order, integer-rendered
//! numbers), which is what makes "replays byte-identically" a meaningful
//! contract: the journal file *is* the stream, and serving it verbatim is
//! correct. Like hdx-obs's artifact types, this module is always compiled —
//! only the *recording* of events is gated behind `obs` (see
//! [`crate::live`]).

use hdx_obs::json::{self, Json};
use hdx_obs::SnapshotSample;

/// One job lifecycle or progress event. Fields carry the exact strings the
/// status API uses, so the stream and `GET /jobs/<id>` never disagree.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The job was admitted (or re-admitted by the recovery scan).
    Admitted {
        /// Submitting tenant.
        tenant: String,
        /// True when re-queued by the startup orphan scan.
        resumed: bool,
    },
    /// A worker started (or restarted) executing the job.
    Started {
        /// 1-based execution attempt.
        attempt: u32,
    },
    /// A governor snapshot: where budget consumption stood when it was
    /// taken (the miner takes one, with level 0, as each mining call
    /// returns).
    Level {
        /// The sampled budget consumption.
        sample: SnapshotSample,
    },
    /// A transient failure; the job re-enters the queue with backoff.
    Retry {
        /// The attempt that failed.
        attempt: u32,
        /// Human-readable failure description.
        error: String,
    },
    /// The run degraded (governor trip): partial results were sealed.
    Degraded {
        /// Governor termination label (e.g. `deadline_exceeded`).
        termination: String,
    },
    /// A panic escaped the runner; the job is quarantined.
    Panicked {
        /// Captured panic payload.
        error: String,
    },
    /// Rows were appended to the job's ingest WAL (durable: acknowledged
    /// only after the WAL fsync).
    IngestAppended {
        /// Rows in this append batch.
        rows: u64,
        /// Total durable WAL rows after the batch.
        durable_rows: u64,
    },
    /// WAL recovery quarantined torn or corrupt data instead of dying.
    IngestQuarantined {
        /// Frames dropped (cumulative for the job).
        frames: u64,
        /// Bytes moved aside (cumulative for the job).
        bytes: u64,
    },
    /// The service drained before a worker picked the job up.
    Drained,
    /// Terminal state reached; no further events will ever be emitted.
    Done {
        /// Whether results were sealed (partial counts as `true`).
        ok: bool,
        /// Terminal state string (`done` / `failed`).
        state: String,
        /// Governor termination label for the final run.
        termination: String,
    },
}

/// Encodes one event as its NDJSON line (trailing `\n` included).
pub fn encode_line(seq: u64, event: &JobEvent) -> String {
    match event {
        JobEvent::Admitted { tenant, resumed } => format!(
            "{{\"seq\":{seq},\"event\":\"admitted\",\"tenant\":\"{}\",\"resumed\":{resumed}}}\n",
            json::escape(tenant)
        ),
        JobEvent::Started { attempt } => {
            format!("{{\"seq\":{seq},\"event\":\"started\",\"attempt\":{attempt}}}\n")
        }
        JobEvent::Level { sample } => {
            let deadline = sample
                .deadline_remaining_ns
                .map_or("null".to_string(), |d| d.to_string());
            format!(
                "{{\"seq\":{seq},\"event\":\"level\",\"level\":{},\"elapsed_ns\":{},\
                 \"deadline_remaining_ns\":{deadline},\"itemsets\":{},\"candidate_bytes\":{},\
                 \"tree_nodes\":{}}}\n",
                sample.level,
                sample.elapsed_ns,
                sample.itemsets,
                sample.candidate_bytes,
                sample.tree_nodes
            )
        }
        JobEvent::Retry { attempt, error } => format!(
            "{{\"seq\":{seq},\"event\":\"retry\",\"attempt\":{attempt},\"error\":\"{}\"}}\n",
            json::escape(error)
        ),
        JobEvent::Degraded { termination } => format!(
            "{{\"seq\":{seq},\"event\":\"degraded\",\"termination\":\"{}\"}}\n",
            json::escape(termination)
        ),
        JobEvent::Panicked { error } => format!(
            "{{\"seq\":{seq},\"event\":\"panicked\",\"error\":\"{}\"}}\n",
            json::escape(error)
        ),
        JobEvent::IngestAppended { rows, durable_rows } => format!(
            "{{\"seq\":{seq},\"event\":\"ingest.appended\",\"rows\":{rows},\
             \"durable_rows\":{durable_rows}}}\n"
        ),
        JobEvent::IngestQuarantined { frames, bytes } => format!(
            "{{\"seq\":{seq},\"event\":\"ingest.quarantined\",\"frames\":{frames},\
             \"bytes\":{bytes}}}\n"
        ),
        JobEvent::Drained => format!("{{\"seq\":{seq},\"event\":\"drained\"}}\n"),
        JobEvent::Done {
            ok,
            state,
            termination,
        } => format!(
            "{{\"seq\":{seq},\"event\":\"done\",\"ok\":{ok},\"state\":\"{}\",\
             \"termination\":\"{}\"}}\n",
            json::escape(state),
            json::escape(termination)
        ),
    }
}

/// The last `level` sample in an NDJSON stream, decoded — how the status
/// endpoint recovers a completed job's final progress from its journal.
/// Lines that fail to parse are skipped (a journal is trusted but this
/// reader is not the place to crash a status request).
pub fn last_level_sample(ndjson: &str) -> Option<SnapshotSample> {
    ndjson.lines().rev().find_map(|line| {
        let event = json::parse(line).ok()?;
        if event.get("event")?.as_str()? != "level" {
            return None;
        }
        let num = |key: &str| event.get(key).and_then(Json::as_u64);
        Some(SnapshotSample {
            level: num("level")?,
            elapsed_ns: num("elapsed_ns")?,
            deadline_remaining_ns: match event.get("deadline_remaining_ns") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64()?),
            },
            itemsets: num("itemsets")?,
            candidate_bytes: num("candidate_bytes")?,
            tree_nodes: num("tree_nodes")?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(level: u64) -> SnapshotSample {
        SnapshotSample {
            level,
            elapsed_ns: 1000 * level,
            deadline_remaining_ns: (level > 1).then_some(5_000),
            itemsets: 10 * level,
            candidate_bytes: 64,
            tree_nodes: 0,
        }
    }

    #[test]
    fn every_event_encodes_to_one_parseable_line() {
        let events = [
            JobEvent::Admitted {
                tenant: "acme \"inc\"".into(),
                resumed: true,
            },
            JobEvent::Started { attempt: 2 },
            JobEvent::Level { sample: sample(1) },
            JobEvent::Retry {
                attempt: 1,
                error: "worker lost\nmid-run".into(),
            },
            JobEvent::Degraded {
                termination: "deadline_exceeded".into(),
            },
            JobEvent::Panicked {
                error: "boom".into(),
            },
            JobEvent::IngestAppended {
                rows: 3,
                durable_rows: 12,
            },
            JobEvent::IngestQuarantined {
                frames: 1,
                bytes: 6,
            },
            JobEvent::Drained,
            JobEvent::Done {
                ok: true,
                state: "done".into(),
                termination: "complete".into(),
            },
        ];
        for (seq, event) in events.iter().enumerate() {
            let line = encode_line(seq as u64, event);
            assert!(line.ends_with('\n'), "{line:?}");
            assert_eq!(line.matches('\n').count(), 1, "one line per event");
            let map = crate::json::parse_object(&line).expect("flat JSON");
            assert_eq!(map["seq"].as_u64(), Some(seq as u64), "{line:?}");
            assert!(map.contains_key("event"));
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let e = JobEvent::Level { sample: sample(3) };
        assert_eq!(encode_line(7, &e), encode_line(7, &e));
        assert_eq!(
            encode_line(0, &JobEvent::Drained),
            "{\"seq\":0,\"event\":\"drained\"}\n"
        );
    }

    #[test]
    fn last_level_sample_finds_the_newest_level_line() {
        let mut ndjson = String::new();
        ndjson.push_str(&encode_line(
            0,
            &JobEvent::Admitted {
                tenant: "t".into(),
                resumed: false,
            },
        ));
        ndjson.push_str(&encode_line(1, &JobEvent::Level { sample: sample(1) }));
        ndjson.push_str(&encode_line(2, &JobEvent::Level { sample: sample(2) }));
        ndjson.push_str(&encode_line(
            3,
            &JobEvent::Done {
                ok: true,
                state: "done".into(),
                termination: "complete".into(),
            },
        ));
        let last = last_level_sample(&ndjson).expect("has level lines");
        assert_eq!(last, sample(2));
        assert_eq!(last.deadline_remaining_ns, Some(5_000));
        assert!(last_level_sample("{\"seq\":0,\"event\":\"drained\"}\n").is_none());
        assert!(last_level_sample("not json\n").is_none());
    }
}
