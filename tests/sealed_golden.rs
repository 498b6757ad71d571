//! Golden bytes for the sealed files clients' results rest on: one served
//! job's directory after a streamed append (dataset, manifest, the kept
//! checkpoints, completion marker, ingest cursor and open WAL segment), a
//! library WAL's first sealed segment, and a journal fed fixed lines. A
//! change to a durable writer, the envelope or a file name shows up here
//! as a byte diff against `tests/golden/sealed/`.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use h_divexplorer::checkpoint::envelope;
use h_divexplorer::ingest::{Wal, WalConfig};
use h_divexplorer::serve::journal::Journal;
use h_divexplorer::serve::{DoneRecord, ServeConfig, Server};
use hdx_obs::json::{parse, Json};

mod common;

use common::{await_terminal, http, shutdown, top_level_str};

/// Asserts `actual` equals the committed golden file `name` (relative to
/// `tests/golden/sealed/`) byte for byte.
fn golden(name: &str, actual: &[u8]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/sealed")
        .join(name);
    let expected =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        actual == expected.as_slice(),
        "{name} differs from its golden ({} bytes, golden {} bytes)",
        actual.len(),
        expected.len()
    );
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdx-sealed-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every file under `dir`, as sorted `/`-separated relative paths.
fn files_under(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        for entry in std::fs::read_dir(&at).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir");
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
}

/// Data rows (no header) of the served job's dataset.
fn rows(range: std::ops::Range<usize>) -> String {
    let mut csv = String::new();
    for r in range {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            u8::from(r % 3 == 0),
            u8::from(r % 4 == 0 || (r % 17 > 12 && r % 2 == 0)),
            r % 17,
            ["a", "b", "c"][r % 3],
        ));
    }
    csv
}

/// The integer member `key` of a status document's `ingest` block.
fn ingest_u64(status: &str, key: &str) -> Option<u64> {
    parse(status)
        .ok()?
        .get("ingest")?
        .get(key)
        .and_then(Json::as_u64)
}

/// The job directory's files once the job has folded a streamed append,
/// without the file only the `obs` feature writes (the event journal).
#[test]
fn served_job_directory_matches_golden() {
    let state_dir = scratch("serve");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve"));

    let csv = format!("class,pred,age,grp\n{}", rows(0..300));
    let body = format!(
        r#"{{"csv":"{}","tenant":"golden","stat":"fpr","support":0.05}}"#,
        hdx_obs::json::escape(&csv)
    );
    let accepted = http(addr, "POST", "/jobs", &body);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = top_level_str(&accepted.body, "job_id");
    assert_eq!(await_terminal(addr, &job_id), "done");

    let appended = http(
        addr,
        "POST",
        &format!("/jobs/{job_id}/append"),
        &rows(300..340),
    );
    assert_eq!(appended.status, 202, "{}", appended.body);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = await_terminal(addr, &job_id);
        let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
        let durable = ingest_u64(&status.body, "durable_rows");
        if state == "done"
            && durable == Some(40)
            && ingest_u64(&status.body, "folded_rows") == durable
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the append never folded: {}",
            status.body
        );
        thread::sleep(Duration::from_millis(20));
    }
    shutdown(addr, handle);

    let job_dir = state_dir.join("jobs").join(&job_id);
    let files: Vec<String> = files_under(&job_dir)
        .into_iter()
        .filter(|f| f != "events.ndjson")
        .collect();
    assert!(
        files.iter().all(|f| !f.ends_with(".tmp")),
        "no temp file may survive: {files:?}"
    );
    assert_eq!(
        files,
        [
            "ckpt-0000000012.hdx",
            "ckpt-0000000013.hdx",
            "ckpt-0000000014.hdx",
            "data.csv",
            "done.hdx",
            "ingest.hdx",
            "manifest.hdx",
            "wal/wal-open.log",
        ]
    );
    for file in &files {
        let bytes = std::fs::read(job_dir.join(file)).expect("read job file");
        golden(&format!("job/{file}"), &bytes);
    }
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// The completion marker of the job above as version 1 of its codec
/// sealed it, before retries and the resumed flag were sealed: it still
/// decodes, with neither, and re-sealed today it is the job's golden
/// `done.hdx`.
#[test]
fn a_version_1_completion_marker_still_decodes() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sealed/done-v1.hdx");
    let sealed = std::fs::read(&path).expect("read the v1 marker");
    let payload = envelope::open(&sealed).expect("a sound envelope");
    assert_eq!(payload.first(), Some(&1), "a version 1 payload");
    let record = DoneRecord::decode(&payload).expect("version 1 decodes");
    assert!(record.ok);
    assert_eq!(record.termination, "complete");
    assert_eq!(record.attempts, 2);
    assert!(record.body.starts_with("{\"n_rows\":"), "{}", record.body);
    assert!(record.retries.is_empty());
    assert!(!record.resumed);
    golden("job/done.hdx", &envelope::seal(&record.encode()));
}

/// The first sealed segment of a library WAL that seals every 64 bytes.
#[test]
fn wal_sealed_segment_matches_golden() {
    let dir = scratch("wal");
    let (mut wal, report) = Wal::open(
        &dir,
        WalConfig {
            segment_max_bytes: 64,
        },
    )
    .expect("open wal");
    assert!(report.is_clean(), "{report:?}");
    for i in 0..6 {
        wal.append_row(format!("row-{i},a,{}", i % 7).as_bytes())
            .expect("append");
        wal.commit().expect("commit");
    }
    assert!(
        !wal.sealed_segments().is_empty(),
        "the WAL sealed a segment"
    );
    drop(wal);
    let segment = std::fs::read(dir.join("seg-0000000000.hdx")).expect("read segment");
    golden("wal/seg-0000000000.hdx", &segment);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal fed three fixed lines.
#[test]
fn journal_matches_golden() {
    let dir = scratch("journal");
    let mut journal = Journal::open(&dir).expect("open journal");
    for line in [
        "{\"seq\":0,\"event\":\"admitted\"}\n",
        "{\"seq\":1,\"event\":\"started\",\"attempt\":1}\n",
        "{\"seq\":2,\"event\":\"done\",\"ok\":true}\n",
    ] {
        journal.append(line).expect("append");
    }
    assert_eq!(journal.next_seq(), 3);
    let bytes = std::fs::read(dir.join("events.ndjson")).expect("read journal");
    golden("journal/events.ndjson", &bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
