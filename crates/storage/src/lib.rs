//! Storage substrate: a simulated disk with I/O accounting, slotted pages,
//! heap files, B-trees, and a buffer pool.
//!
//! The paper's experiments ran on a DECstation with real disks; this crate
//! substitutes a deterministic **simulated disk** that stores pages in
//! memory and *accounts* every access as sequential or random I/O. The
//! executor charges the same per-page constants the cost model uses
//! ([`dqep_catalog::SystemConfig`]), so measured simulator times and the
//! optimizer's predicted times are directly comparable — which is exactly
//! what the end-to-end validation tests rely on: the plan the choose-plan
//! operator picks at start-up must also be the faster plan *when actually
//! executed* on stored data.
//!
//! Components:
//! * [`SimDisk`] — page store + [`IoStats`] (sequential reads, random
//!   reads, writes). Pages are shared ([`PageRef`]): a read hands out a
//!   reference, a run ([`SimDisk::read_run`]) lends its pages under one
//!   latch to a reader that keeps none, a writer copies first, and
//!   query-lifetime files give their pages back when dropped
//!   ([`TempPages`] counts them).
//! * [`SlottedPage`] — classic slotted-page layout for variable-length
//!   records, over a page that is held or ([`PageView`]) borrowed.
//! * [`HeapFile`] — unordered record file over slotted pages (base
//!   tables); [`SpillWriter`] / [`SpillFile`] — the write and read halves
//!   of a query-lifetime file of fixed-width rows.
//! * [`BTree`] — a from-scratch page-based B-tree mapping `i64` keys to
//!   record ids, with range scans; used for unclustered indexes.
//! * [`BufferPool`] — LRU page cache with hit/miss statistics.
//! * [`gen`] — synthetic table generation mirroring the catalog's schema
//!   and statistics (uniform integer attributes over their domains).
//! * [`StorageError`] / [`FaultPlan`] — fallible access APIs and
//!   deterministic fault injection for robustness testing. Accounted
//!   (query-time) reads and writes can fail; unaccounted (load-time)
//!   access is exempt, so a database can always be generated and then
//!   queried under faults.

#![warn(missing_docs)]
// Runtime storage code must propagate errors, not panic: unwrap/expect
// are reserved for tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Storage sits under every scan; keep the perf lint group clean.
#![deny(clippy::perf)]

mod btree;
mod buffer;
mod disk;
mod error;
mod fault;
pub mod gen;
mod heap;
mod morsel;
mod page;
mod slotted;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use disk::{IoStats, SimDisk, TempPages};
pub use error::StorageError;
pub use fault::FaultPlan;
pub use gen::{install_histograms, refresh_histograms, StoredDatabase, StoredTable, ValueDistribution};
pub use heap::{HeapFile, Rid, SpillFile, SpillWriter};
pub use morsel::{PageClaims, DEFAULT_MORSEL_PAGES};
pub use page::{PageId, PageRef, PAGE_SIZE};
pub use slotted::{PageView, SlottedPage};
