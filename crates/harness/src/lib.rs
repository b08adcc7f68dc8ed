//! Parallel experiment orchestration for the DRS reproduction.
//!
//! Every figure and table of the paper's evaluation is a grid of
//! independent single-threaded simulations — scene × bounce × method ×
//! hardware config. This crate turns that grid into data and machinery:
//!
//! - **Job model** ([`job`]): each cell is a [`SimJob`] with a stable
//!   content-derived [`JobId`]; figures are declarative [`JobSet`]s
//!   ([`figures`]).
//! - **Worker pool** ([`pool`]): a std-only executor that slots results
//!   by job index, so serial and parallel runs produce bit-identical
//!   [`SimStats`](drs_sim::SimStats) (asserted by the test suite).
//! - **Capture cache** ([`cache`]) and **result store** ([`store`]): two
//!   codecs over one private entry store (atomic writes under a
//!   per-entry lock, quarantine, optional LRU budget, one
//!   [`EntryCounters`] set) under `$DRS_DATA_DIR` (default `target`).
//!   Each workload is captured once ever; a warm rerun of a finished grid
//!   simulates nothing, and a run-scoped store ([`CheckpointSpec`]) lets
//!   an interrupted grid resume bit-identically. Bad entries are
//!   quarantined and recomputed, never served.
//! - **Results** ([`results`]): every cell as JSON
//!   (`BENCH_experiments.json`) with the complete counter set, and
//!   [`ResultsDoc::parse`] to read a document back into the records the
//!   figures need.
//! - **Fault tolerance** ([`fault`]): panics and typed simulator
//!   failures are isolated per cell, retried when transient and recorded
//!   as [`CellFailure`] data; a deterministic [`FaultPlan`] reproduces
//!   every defended failure mode on demand.
//! - **Full-chip mode** ([`runner::run_chip_cell`], `drs-chip`): a job
//!   with [`SimJob::chip`] set runs N per-SM engines against one shared
//!   L2/MSHR/DRAM system; the cell carries a [`ChipSummary`], and with
//!   telemetry per-SM stall reports and a chip memory-system report.
//!
//! # Example
//!
//! ```
//! use drs_harness::{figures, pool, Scale};
//!
//! // A tiny fig2 slice: conference scene, Aila kernel, 3 bounces.
//! let scale = Scale { rays: 200, tris_scale: 0.005, warps_scale: 0.1 };
//! let mut set = figures::fig2(&scale);
//! set.jobs.truncate(3);
//! let report = pool::run_jobs(&set.jobs, &pool::RunOptions::parallel(2));
//! assert_eq!(report.cells.len(), 3);
//! assert!(report.cells.iter().all(|c| c.completed));
//! ```

#![warn(missing_docs)]

/// Version of every persisted harness artifact schema: the durable result
/// store (which also backs `--resume`) and the results / stats / timeline
/// JSON documents all carry this one constant. Bumping it invalidates
/// both coherently — a resume, a store lookup, and a results diff can
/// never mix layouts from different schema generations.
///
/// History: v1–v3 versioned a separate whole-run checkpoint file (v2
/// added the per-cell `chip` summary, v3 `l2_evictions`/`dram_busy_q`);
/// v4 unified the checkpoint, store, and results versions into this
/// shared constant. The checkpoint file has since been replaced by a
/// run-scoped result store with the same v4 cell layout.
pub const SCHEMA_VERSION: u32 = 4;

pub mod cache;
mod entry;
pub mod fault;
pub mod figures;
pub mod job;
pub mod pool;
pub mod results;
pub mod runner;
pub mod store;

pub use cache::StreamCache;
pub use drs_sim::ChipConfig;
pub use entry::{EntryCounters, EntryError};
pub use fault::{FaultKind, FaultPlan, FaultSpecError};
pub use job::{fnv1a64, JobId, JobSet, Method, Scale, SimJob, WorkloadSpec};
pub use pool::{parallel_map, run_jobs, CaptureMode, CheckpointSpec, RunOptions, RunReport};
pub use results::{
    write_text, CellFailure, CellRecord, CellResult, ChipSummary, ResultsDoc, ResultsFile,
};
pub use runner::{run_cell, run_chip_cell, CellConfig};
pub use store::{ResultStore, StoredCell};
