//! Storage substrate: a simulated disk with I/O accounting, heap files
//! kept as columns, B-trees, and a buffer pool.
//!
//! The paper's experiments ran on a DECstation with real disks; this crate
//! substitutes a deterministic **simulated disk** that allocates page ids
//! and *accounts* every access as sequential or random I/O. The
//! executor charges the same per-page constants the cost model uses
//! ([`dqep_catalog::SystemConfig`]), so measured simulator times and the
//! optimizer's predicted times are directly comparable — which is exactly
//! what the end-to-end validation tests rely on: the plan the choose-plan
//! operator picks at start-up must also be the faster plan *when actually
//! executed* on stored data.
//!
//! Base tables are written once, at load, and then only read: there is no
//! insert, delete or accounted page write after loading. The only writes a
//! query makes are the pages of its query-lifetime files (Grace
//! partitions, sort runs), charged through [`SimDisk::note_write`].
//!
//! Components:
//! * [`SimDisk`] — allocator and accountant of page ids: which ids are
//!   live, [`IoStats`] (sequential reads, random reads, writes), read and
//!   write ordinals, the fault plan and pacing. It holds no bytes: a read
//!   succeeds or fails, and the reader then looks at what its page holds
//!   in the page's owner. A run ([`SimDisk::read_run`]) accounts for its
//!   pages under one latch, and query-lifetime files give their pages
//!   back when dropped ([`TempPages`] counts them).
//! * The one row layout ([`records_per_page`], [`PageRows`], [`Row`]): a
//!   file keeps its rows as one `Vec<i64>` per attribute, page `k` being
//!   rows `k·r .. (k + 1)·r`, as many as a slotted page of the file's
//!   records held, so page counts and charges are the slotted layout's.
//! * [`HeapFile`] — unordered row file (base tables), a [`Row`] fetched by
//!   [`Rid`] (its page and its position in the file, so a fetch indexes
//!   the columns directly); [`SpillWriter`] / [`SpillFile`] — the write
//!   and read halves of a query-lifetime file of fixed-width rows. A
//!   reader accounts for a page with a disk read and then copies its rows
//!   out of the columns.
//! * [`BTree`] — a from-scratch B-tree mapping `i64` keys to record ids,
//!   with range scans; used for unclustered indexes. It keeps its nodes
//!   as typed values, each holding as many entries as a 2,048-byte page
//!   did and charging its page's read before a scan looks at it.
//! * [`BufferPool`] — LRU cache of page ids with hit/miss statistics.
//! * [`gen`] — synthetic table generation mirroring the catalog's schema
//!   and statistics (uniform integer attributes over their domains).
//! * [`StorageError`] / [`FaultPlan`] — fallible access APIs and
//!   deterministic fault injection for robustness testing. Accounted
//!   (query-time) reads and spill-page writes can fail; loading accounts
//!   for nothing and is exempt, so a database can always be generated and
//!   then queried under faults.

#![warn(missing_docs)]
// Runtime storage code must propagate errors, not panic: unwrap/expect
// are reserved for tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Storage sits under every scan; keep the perf lint group clean.
#![deny(clippy::perf)]

mod btree;
mod buffer;
mod column_page;
mod disk;
mod error;
mod fault;
pub mod gen;
mod heap;
mod morsel;
mod page;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use column_page::{check_fits, records_per_page, PageRows, Row, MAX_RECORD};
pub use disk::{IoStats, SimDisk, TempPages};
pub use error::StorageError;
pub use fault::FaultPlan;
pub use gen::{
    install_histograms, install_union_histograms, StoredDatabase, StoredTable, ValueDistribution,
};
pub use heap::{HeapFile, Rid, SpillFile, SpillWriter};
pub use morsel::{PageClaims, DEFAULT_MORSEL_PAGES};
pub use page::{PageId, PAGE_SIZE};
