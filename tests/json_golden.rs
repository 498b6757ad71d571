//! Golden bytes for the workspace's JSON artifacts: the result export
//! (`result_to_json`), the telemetry artifact (`RunTelemetry::to_json`),
//! the job-event NDJSON lines (`events::encode_line`), and one served job's
//! `/jobs/<id>/result` body and `GET /jobs/<id>` document. A change to any
//! JSON writer or to the shared string escaper shows up here as a byte diff
//! against `tests/golden/`.

use std::path::Path;
use std::thread;
use std::time::Duration;

use h_divexplorer::core::result_to_json;
use h_divexplorer::prelude::*;
use h_divexplorer::serve::events::encode_line;
use h_divexplorer::serve::{JobEvent, ServeConfig, Server};
use hdx_obs::json::parse;
use hdx_obs::{HistStat, RunTelemetry, SnapshotSample, SpanStat, HIST_BUCKETS, TELEMETRY_SCHEMA};

mod common;

use common::{await_terminal, http, shutdown, top_level_str};

/// Asserts `actual` equals the committed golden file `name` byte for byte.
fn golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        actual == expected,
        "{name} differs from its golden:\n--- golden\n{expected}\n--- actual\n{actual}"
    );
}

/// A small fit whose categorical levels need every kind of escape: a
/// quote, a backslash, a newline and a control character.
fn escaping_fixture() -> h_divexplorer::core::HDivResult {
    let mut b = DataFrameBuilder::new();
    b.add_continuous("x").expect("column");
    b.add_categorical("g").expect("column");
    let levels = ["q\"uote", "back\\slash", "new\nline", "ctl\u{1}"];
    let mut y_true = Vec::new();
    let mut y_pred = Vec::new();
    for i in 0..200 {
        let x = (i % 100) as f64;
        b.push_row(vec![Value::Num(x), Value::Cat(levels[i % 4].into())])
            .expect("row");
        y_true.push(true);
        y_pred.push(!(x > 60.0 && i % 4 == 0));
    }
    let df = b.finish();
    let outcomes = OutcomeFn::ErrorRate.compute(&y_true, &y_pred);
    let mut result = HDivExplorer::new(h_divexplorer::core::HDivExplorerConfig {
        min_support: 0.1,
        ..Default::default()
    })
    .fit(&df, &outcomes);
    result.report.elapsed = Duration::ZERO;
    result.discretization_time = Duration::ZERO;
    result
}

#[test]
fn result_json_matches_golden() {
    let json = result_to_json(&escaping_fixture());
    parse(&json).expect("result JSON parses");
    golden("result.json", &json);
}

/// A governor budget sample: level, elapsed ns, deadline remaining ns,
/// itemsets, candidate bytes and tree nodes.
fn sample(
    level: u64,
    ns: u64,
    deadline: Option<u64>,
    sets: u64,
    bytes: u64,
    nodes: u64,
) -> SnapshotSample {
    SnapshotSample {
        level,
        elapsed_ns: ns,
        deadline_remaining_ns: deadline,
        itemsets: sets,
        candidate_bytes: bytes,
        tree_nodes: nodes,
    }
}

fn telemetry_fixture() -> RunTelemetry {
    let mut hist = HistStat::new();
    (hist.count, hist.sum, hist.min, hist.max) = (3, 1_000_010, 4, 1_000_000);
    hist.buckets = vec![0; HIST_BUCKETS];
    for bucket in [3, 4, 20] {
        hist.buckets[bucket] = 1;
    }
    let spans = [
        ("explore", 1, 5_000_000),
        ("explore > mine > level:2", 4, 1_234_567),
        ("odd \"path\" \\ with\ttab", 0, 0),
    ];
    RunTelemetry {
        schema: TELEMETRY_SCHEMA.to_string(),
        spans: spans
            .into_iter()
            .map(|(path, count, total_ns)| SpanStat {
                path: path.into(),
                count,
                total_ns,
            })
            .collect(),
        counters: vec![
            ("hdx.mining.itemsets.emitted".into(), 3_000),
            ("hdx.mining.sched.steals".into(), 7),
            ("hdx.mining.sched.parks".into(), 2),
            ("hdx.big".into(), u64::MAX),
        ],
        gauges: vec![("hdx.mining.scratch_pool.bytes".into(), 4096)],
        histograms: vec![("hdx.mining.level.latency_ns".into(), hist)],
        snapshots: vec![
            sample(1, 100, None, 10, 64, 0),
            sample(2, 250, Some(9_750), 25, 128, 3),
        ],
    }
}

#[test]
fn telemetry_json_matches_golden_and_round_trips() {
    let telemetry = telemetry_fixture();
    let json = telemetry.to_json();
    golden("telemetry.json", &json);
    assert_eq!(RunTelemetry::from_json(&json), Ok(telemetry));
}

#[test]
fn event_lines_match_golden() {
    let events = [
        JobEvent::Admitted {
            tenant: "acme \"inc\"\\".into(),
            resumed: true,
        },
        JobEvent::Started { attempt: 2 },
        JobEvent::Level {
            sample: sample(3, 90_211, Some(5_000), 42, 1_024, 7),
        },
        JobEvent::Level {
            sample: sample(1, 10, None, 0, 0, 0),
        },
        JobEvent::Retry {
            attempt: 1,
            error: "worker lost\nmid-run\r\u{1}".into(),
        },
        JobEvent::Degraded {
            termination: "deadline_exceeded".into(),
        },
        JobEvent::Panicked {
            error: "boom: \"index\" out of range".into(),
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
    let mut ndjson = String::new();
    for (seq, event) in events.iter().enumerate() {
        let line = encode_line(seq as u64, event);
        parse(&line).expect("event line parses");
        ndjson.push_str(&line);
    }
    golden("events.ndjson", &ndjson);
}

/// Cuts the `progress` member out of a status document: it carries
/// wall-clock timings, and it is present only when the service records
/// telemetry (the `obs` feature).
fn without_progress(status: &str) -> String {
    const MARKER: &str = ",\"progress\":{";
    match status.find(MARKER) {
        None => status.to_string(),
        Some(start) => {
            let end = start + status[start..].find('}').expect("progress closes") + 1;
            format!("{}{}", &status[..start], &status[end..])
        }
    }
}

#[test]
fn served_job_documents_match_golden() {
    let state_dir = std::env::temp_dir().join(format!("hdx-json-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve"));

    let mut csv = String::from("class,pred,age,grp\n");
    for r in 0..300 {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            u8::from(r % 3 == 0),
            u8::from(r % 4 == 0 || (r % 17 > 12 && r % 2 == 0)),
            r % 17,
            ["a", "b", "c"][r % 3],
        ));
    }
    let body = format!(
        r#"{{"csv":"{}","tenant":"golden","stat":"fpr","support":0.05}}"#,
        hdx_obs::json::escape(&csv)
    );
    let accepted = http(addr, "POST", "/jobs", &body);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = top_level_str(&accepted.body, "job_id");
    assert_eq!(await_terminal(addr, &job_id), "done");
    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    let result = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(result.status, 200, "{}", result.body);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);

    parse(&result.body).expect("result body parses");
    golden("serve_result.json", &result.body);
    golden("serve_status.json", &without_progress(&status.body));
}
