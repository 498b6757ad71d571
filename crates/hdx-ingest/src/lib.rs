//! Crash-safe incremental ingestion (`h_divexplorer::ingest`).
//!
//! Batch mining answers "what diverges in this dataset"; continuous model
//! monitoring needs the same answer under heavy write traffic, without
//! losing or double-counting a single row across crashes. This crate is
//! that spine (DESIGN.md §17):
//!
//! * [`Wal`] — a CRC-framed, segmented write-ahead log. Rows land in an
//!   open segment (one checksummed frame per row, `fsync` before any row
//!   is acknowledged via [`Wal::commit`]); full segments are sealed into
//!   the hdx-checkpoint envelope format (`hdx-ckpt/v1`) and written by
//!   [`hdx_checkpoint::durable::write_atomic`], so a sealed segment is
//!   tamper-evident end to end.
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
//!
//! There is no incremental fold of rows into a mined lattice: each
//! attribute's discretization tree is grown from every row, so one
//! appended row can move a split, and the service re-mines the base data
//! plus the WAL cold (DESIGN.md §17.2).
//!
//! Under `hdx-fail` the `ingest::wal::append` and `ingest::wal::fsync`
//! fail points inject torn tails, fsync failures and ENOSPC for chaos
//! tests; segment seals and cursor saves fail through hdx-checkpoint's
//! `durable::write`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod cursor;
mod error;
mod report;
/// The CRC-framed segmented write-ahead log (see the crate docs).
pub mod wal;

pub use cursor::{IngestCursor, CURSOR_FILE};
pub use error::IngestError;
pub use report::IngestReport;
pub use wal::{replay_dir, SealedSegment, Wal, WalConfig, OPEN_FILE};
