//! Crash-safe incremental ingestion (`hdx_core::ingest`).
//!
//! Batch mining answers "what diverges in this dataset"; continuous model
//! monitoring needs the same answer under heavy write traffic, without
//! losing or double-counting a single row across crashes. This crate is
//! that spine (DESIGN.md §17):
//!
//! * [`Wal`] — a CRC-framed, segmented write-ahead log. Rows land in an
//!   open segment (one checksummed frame per row, `fsync` before any row
//!   is acknowledged via [`Wal::commit`]); full segments are sealed into
//!   the hdx-checkpoint envelope format (`hdx-ckpt/v1`, temp file → fsync
//!   → rename), so a sealed segment is tamper-evident end to end.
//! * **Degrade-not-die recovery** — [`Wal::open`] scans segments
//!   newest-valid-wins: a corrupt sealed segment or a torn open-segment
//!   tail is *quarantined* (moved aside, counted in an [`IngestReport`])
//!   instead of bricking ingestion. Every row that was ever acknowledged
//!   is either replayed or explicitly reported as quarantined.
//! * [`IngestCursor`] — the fold position (rows folded into the last
//!   sealed mining result, plus quarantine totals), persisted with the
//!   same sealed-envelope discipline. Re-mining is a pure function of the
//!   base data plus the WAL's durable prefix, so replay after a crash
//!   mid-fold is idempotent by construction: the cursor only tells the
//!   scheduler whether a re-mine is *needed*, never what to add.
//! * [`LatticeView`] — the incremental fold: mined itemsets with
//!   mergeable/subtractable [`hdx_stats::StatAccum`]s. An appended row
//!   only re-touches the itemsets its items cover ([`LatticeView::apply`]);
//!   a sliding window retires a sealed segment by subtracting its delta
//!   ([`LatticeView::retract`], [`Wal::retire_oldest`]). Exactness matches
//!   the kernel contract: counts and integer-valued sums bitwise, reals
//!   ULP-bounded.
//!
//! Under `hdx-fail` the `ingest::wal::append`, `ingest::wal::fsync`,
//! `ingest::wal::seal` and `ingest::fold` fail points inject fsync
//! failures, torn tails, ENOSPC and fold panics for chaos tests.

mod cursor;
mod error;
mod fold;
mod report;
/// The CRC-framed segmented write-ahead log (see the crate docs).
pub mod wal;

pub use cursor::{IngestCursor, CURSOR_FILE};
pub use error::IngestError;
pub use fold::LatticeView;
pub use report::IngestReport;
pub use wal::{replay_dir, RetiredSegment, SealedSegment, Wal, WalConfig, OPEN_FILE};
