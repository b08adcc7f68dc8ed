//! The timed grid: the cells through `drs_harness::run_jobs` from the
//! set-up's capture cache, with a checkpoint (and, for `compare`, a result
//! store) the way the `experiments` binary runs, then the results documents.

use crate::workloads::Workload;
use drs_harness::{
    fnv1a64, run_jobs, CaptureMode, CellResult, CheckpointSpec, ResultStore, ResultsFile,
    RunOptions, SimJob, StreamCache,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One pass over the grid.
pub struct GridRep {
    /// `run_jobs` through `stats_json` (`grid_s`).
    pub wall: Duration,
    /// `ResultsFile::from_report`, `write_to` and `stats_json`.
    pub json: Duration,
    /// Σ `CellResult::wall_ms`, in seconds.
    pub cell_wall: f64,
    /// FNV-1a of `stats_json()`.
    pub digest: u64,
    /// Cells that failed a check.
    pub failed: usize,
    /// Checkpoint rewrites the pool made.
    pub checkpoint_writes: u64,
    /// The cells, in job order.
    pub cells: Vec<CellResult>,
}

/// Simulated cycles of a cell: for a chip cell, the sum over its SMs.
pub fn sim_cycles(cell: &CellResult) -> u64 {
    match &cell.chip {
        Some(chip) => chip.per_sm_cycles.iter().sum(),
        None => cell.stats.cycles,
    }
}

/// Run the grid once. `cache_dir` holds the set-up's captures; checkpoint,
/// store and results files go to `rep_dir`. A cell fails its check unless
/// it completed without a failure record and traced every ray of its
/// stream (`stream_len`).
pub fn run_grid(
    w: &Workload,
    jobs: &[SimJob],
    cache_dir: &Path,
    rep_dir: &Path,
    stream_len: &HashMap<(u64, usize), u64>,
) -> std::io::Result<GridRep> {
    let opts = RunOptions {
        workers: 1,
        capture: CaptureMode::Cached(StreamCache::new(cache_dir)),
        chip_threads: w.chip_threads(),
        checkpoint: Some(CheckpointSpec { path: rep_dir.join("checkpoint.json"), resume: false }),
        store: w.store.then(|| Arc::new(ResultStore::new(rep_dir.join("store")))),
        ..RunOptions::serial()
    };
    let start = Instant::now();
    let report = run_jobs(jobs, &opts);
    let checkpoint_writes = report.checkpoint_writes;
    let json_start = Instant::now();
    let results =
        ResultsFile::from_report(w.name, 1, report, vec![vec![w.name.to_string()]; jobs.len()]);
    results.write_to(&rep_dir.join("results.json"))?;
    let stats = results.stats_json();
    let end = Instant::now();

    let cells: Vec<CellResult> = results.cells.into_iter().map(|(_, cell)| cell).collect();
    let failed = cells
        .iter()
        .filter(|c| {
            let expected = stream_len.get(&(c.job.workload.content_key(), c.job.bounce));
            !c.completed || c.failure.is_some() || expected != Some(&c.stats.rays_completed)
        })
        .count();
    Ok(GridRep {
        wall: end - start,
        json: end - json_start,
        cell_wall: cells.iter().map(|c| c.wall_ms).sum::<f64>() / 1e3,
        digest: fnv1a64(stats.as_bytes()),
        failed,
        checkpoint_writes,
        cells,
    })
}
