//! hdx-loom models of the recorder's `flush_thread!` buffer hand-off, run
//! by `cargo xtask sanitize`:
//!
//! ```text
//! RUSTFLAGS="--cfg hdx_loom" cargo test -p hdx-obs --features obs --test loom_models
//! ```
//!
//! Under `--cfg hdx_loom` the recorder's `sync` facade swaps the
//! retired-sink registry lock for the modeled twin, so these tests drive
//! the *real* `flush_thread` / `collect` code through every interleaving
//! of the hand-off. The retired registry is process-global, so each model
//! closure starts with `reset()` (schedules are replayed many times), and
//! each test holds [`MODEL_LOCK`] for its whole body: the test harness runs
//! tests on parallel threads, where one model's `reset()` would wipe
//! another's batches mid-schedule. Built as an empty test crate without
//! the cfg.
#![cfg(hdx_loom)]

use hdx_obs::{collect, counter_add, flush_thread, reset, CounterId};
use std::sync::{Mutex, MutexGuard, PoisonError};

const COUNTER: CounterId = CounterId::MineCandidatesGenerated;

/// Serialises the models of this binary (see the module docs).
static MODEL_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`MODEL_LOCK`]. A poisoned lock only records that an earlier model
/// failed; the remaining models still run and report.
fn serial() -> MutexGuard<'static, ()> {
    MODEL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn flush_hand_off_neither_loses_nor_duplicates_a_batch() {
    let _serial = serial();
    hdx_loom::model(|| {
        reset();
        let h = hdx_loom::thread::spawn(|| {
            counter_add(COUNTER, 3);
            flush_thread();
        });
        // Collect concurrently with the worker's flush: the worker's batch
        // lands either in this collect or in the post-join one — never in
        // both, never in neither.
        let first = collect().counter(COUNTER);
        h.join().expect("worker panicked");
        let second = collect().counter(COUNTER);
        assert_eq!(
            first + second,
            3,
            "batch lost or duplicated across the hand-off ({first} + {second})"
        );
    });
}

#[test]
fn concurrent_flushes_merge_every_batch() {
    let _serial = serial();
    hdx_loom::model(|| {
        reset();
        let a = hdx_loom::thread::spawn(|| {
            counter_add(COUNTER, 1);
            flush_thread();
        });
        let b = hdx_loom::thread::spawn(|| {
            counter_add(COUNTER, 10);
            flush_thread();
        });
        a.join().expect("worker a panicked");
        b.join().expect("worker b panicked");
        assert_eq!(collect().counter(COUNTER), 11);
    });
}

#[test]
fn repeated_flushes_do_not_duplicate_drained_data() {
    let _serial = serial();
    hdx_loom::model(|| {
        reset();
        let h = hdx_loom::thread::spawn(|| {
            counter_add(COUNTER, 2);
            flush_thread();
            // A second flush with nothing new recorded must be a no-op.
            flush_thread();
        });
        h.join().expect("worker panicked");
        assert_eq!(collect().counter(COUNTER), 2);
    });
}

#[test]
fn drop_flush_backstop_preserves_unflushed_batches() {
    let _serial = serial();
    hdx_loom::model(|| {
        reset();
        let h = hdx_loom::thread::spawn(|| {
            // No explicit flush: the thread-local sink's drop must hand the
            // batch to the retired registry during thread teardown.
            counter_add(COUNTER, 4);
        });
        h.join().expect("worker panicked");
        assert_eq!(collect().counter(COUNTER), 4, "drop-flush lost the batch");
    });
}
