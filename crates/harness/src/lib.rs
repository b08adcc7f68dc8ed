//! Parallel experiment orchestration for the DRS reproduction.
//!
//! Every figure and table of the paper's evaluation is a grid of
//! independent single-threaded simulations — scene × bounce × method ×
//! hardware config. This crate turns that grid into data and machinery:
//!
//! - **Job model** ([`job`]): each cell is a [`SimJob`] with a stable
//!   content-derived [`JobId`]; figures are declarative [`JobSet`]s
//!   ([`figures`]).
//! - **Worker pool** ([`pool`]): a std-only (`std::thread` + atomics)
//!   executor. Results are slotted by job index, so serial and parallel
//!   runs produce bit-identical [`SimStats`](drs_sim::SimStats) — proven
//!   by the test suite, not just promised.
//! - **Capture cache** ([`cache`]): captured ray streams are persisted
//!   via the `drs-trace` binary codec to `target/drs-cache/<hash>.bin`,
//!   keyed by (scene, triangle budget, ray budget, depth, seed, trace
//!   format version). The expensive render+trace phase runs once per
//!   workload ever, instead of once per figure per run; corrupt entries
//!   are quarantined and recaptured via the typed
//!   [`TraceIoError`](drs_trace::TraceIoError).
//! - **Results** ([`results`]): every cell is emitted as JSON
//!   (`BENCH_experiments.json`) — Mrays/s, SIMD efficiency, the complete
//!   simulator counter set, wall-clock — giving the repo a machine-
//!   readable perf trajectory across PRs.
//! - **Fault tolerance** ([`fault`]): worker panics and typed simulator
//!   failures are isolated per cell (`catch_unwind`), retried with
//!   backoff when transient, and recorded as structured [`CellFailure`]
//!   data in the results JSON. A deterministic [`FaultPlan`] makes every
//!   defended failure mode reproducible on demand.
//! - **Durable results** ([`store`]): finished clean cells are memoized
//!   on disk keyed by [`JobId`] + [`SCHEMA_VERSION`], checksummed and
//!   written atomically; a warm rerun of a completed grid does zero
//!   simulation work and emits byte-identical results JSON. Corrupt or
//!   stale entries are quarantined and recomputed, never served. The
//!   same store, scoped to one run ([`CheckpointSpec`]), lets an
//!   interrupted grid resume with bit-identical merged results. The
//!   cache and the store are two codecs over one private entry store
//!   (atomic writes under a per-entry lock, quarantine, optional LRU
//!   budget, one [`EntryCounters`] set); both live under one root,
//!   `$DRS_DATA_DIR` (default `target`).
//! - **Full-chip mode** ([`runner::run_chip_cell`], `drs-chip`): a job
//!   with [`SimJob::chip`] set runs N per-SM engines against one shared
//!   L2/MSHR/DRAM memory system instead of a single scaled SMX; the cell
//!   carries a [`ChipSummary`] with the cross-SM contention counters.
//!   With telemetry enabled the cell additionally carries one
//!   stall-attribution report per SM and a chip memory-system report
//!   (per-bank L2 / MSHR / DRAM / NoC interval series plus the cross-SM
//!   interference matrix) — all purely observational.
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
pub use results::{write_text, CellFailure, CellResult, ChipSummary, ResultsFile};
pub use runner::{run_cell, run_chip_cell, CellConfig};
pub use store::{ResultStore, StoredCell};
