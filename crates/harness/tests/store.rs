//! End-to-end guarantees of the durable result store:
//!
//! 1. **Warm rerun does zero simulation work**: running a grid with a
//!    store, then rerunning it against the same directory, serves every
//!    cell from disk — the store-hit counter equals the cell count, the
//!    capture cache is never consulted — and the deterministic results
//!    document is byte-identical to the cold run's.
//! 2. **Corruption is quarantined and recomputed**: a bit-flipped entry
//!    (injected via the `store` fault kind) is detected by the footer
//!    checksum, moved to `quarantine/`, never served, and the cell is
//!    re-simulated to an identical result.
//! 3. **Concurrent runs agree**: two whole runs over one store directory
//!    and one capture-cache directory, each through its own handles, race
//!    their writes (serialized per entry by lock files) and still emit
//!    byte-identical documents.

use drs_harness::{
    figures, pool, CaptureMode, FaultPlan, ResultStore, ResultsFile, RunOptions, Scale, StreamCache,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Reduced scale so the grid stays fast in debug CI runs.
fn tiny_scale() -> Scale {
    Scale { rays: 260, tris_scale: 0.008, warps_scale: 0.15 }
}

/// A small fig2 slice: conference scene, Aila, bounces ≤ 3.
fn small_grid() -> Vec<drs_harness::SimJob> {
    let mut set = figures::fig2(&tiny_scale());
    set.jobs.retain(|j| j.bounce <= 3);
    assert!(set.jobs.len() >= 2, "need at least two cells for the test to mean anything");
    set.jobs
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("drs-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(store_dir: &PathBuf, cache_dir: &PathBuf) -> RunOptions {
    RunOptions {
        capture: CaptureMode::Cached(StreamCache::new(cache_dir)),
        store: Some(Arc::new(ResultStore::new(store_dir))),
        ..RunOptions::serial()
    }
}

fn results_doc(mode: &str, report: pool::RunReport, n_figures: usize) -> String {
    let figures_of = vec![vec![mode.to_string()]; n_figures];
    ResultsFile::from_report(mode, 1, report, figures_of).to_json()
}

#[test]
fn warm_store_rerun_does_zero_sim_work_and_is_byte_identical() {
    let store_dir = fresh_dir("warm");
    let cache_dir = fresh_dir("warm-cache");
    let jobs = small_grid();

    let cold = pool::run_jobs(&jobs, &opts(&store_dir, &cache_dir));
    assert!(cold.all_clean());
    assert_eq!(cold.store.hits, 0, "a fresh store has nothing to serve");
    assert_eq!(cold.store.misses, jobs.len() as u64);
    assert_eq!(cold.store.writes, jobs.len() as u64, "every clean cell is persisted");
    assert_eq!(cold.store.write_failures, 0);

    // Warm rerun: a *fresh* ResultStore handle over the same directory —
    // nothing is cached in memory, everything comes off disk.
    let warm = pool::run_jobs(&jobs, &opts(&store_dir, &cache_dir));
    assert!(warm.all_clean());
    assert_eq!(warm.store.hits, jobs.len() as u64, "every cell must be served from the store");
    assert_eq!(warm.store.misses, 0);
    assert_eq!(warm.store.writes, 0, "served cells are not rewritten");
    // Zero sim work implies zero capture work: the capture cache is
    // never even consulted for store-served cells.
    assert_eq!(warm.cache.hits + warm.cache.misses, 0, "warm run must not touch the capture cache");

    let n = jobs.len();
    for (c, w) in cold.cells.iter().zip(warm.cells.iter()) {
        assert_eq!(c.stats, w.stats, "store replay changed {}", c.cell_name());
        assert_eq!(c.wall_ms, w.wall_ms, "per-cell wall_ms is part of the stored entry");
        assert_eq!(c.attempts, w.attempts);
    }
    assert_eq!(
        results_doc("fig2", cold, n),
        results_doc("fig2", warm, n),
        "warm rerun must produce a byte-identical results document"
    );

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn corrupted_entries_are_quarantined_and_recomputed() {
    let store_dir = fresh_dir("corrupt");
    let cache_dir = fresh_dir("corrupt-cache");
    let jobs = small_grid();

    let cold = pool::run_jobs(&jobs, &opts(&store_dir, &cache_dir));
    assert!(cold.all_clean());

    // Rerun with a bit flipped in job 0's entry (the `store@0` fault
    // corrupts it just before the lookup): the checksum footer must
    // catch it, quarantine the file, and re-simulate that one cell.
    let corrupt_opts =
        RunOptions { faults: FaultPlan::parse("store@0").unwrap(), ..opts(&store_dir, &cache_dir) };
    let rerun = pool::run_jobs(&jobs, &corrupt_opts);
    assert!(rerun.all_clean(), "a corrupt store entry must never fail the run");
    assert_eq!(rerun.store.quarantined, 1, "exactly the scrambled entry is quarantined");
    assert_eq!(rerun.store.hits, jobs.len() as u64 - 1, "the other cells are still served");
    assert_eq!(rerun.store.misses, 1);
    assert_eq!(rerun.store.writes, 1, "the recomputed cell is re-persisted");
    for (c, r) in cold.cells.iter().zip(rerun.cells.iter()) {
        assert_eq!(c.stats, r.stats, "recomputed cell diverged for {}", c.cell_name());
    }
    // The quarantined file is preserved for postmortem, out of the way.
    let quarantined = std::fs::read_dir(store_dir.join("quarantine")).map_or(0, Iterator::count);
    assert_eq!(quarantined, 1);

    // One more rerun: fully warm again (the recomputed entry is back).
    let warm = pool::run_jobs(&jobs, &opts(&store_dir, &cache_dir));
    assert_eq!(warm.store.hits, jobs.len() as u64);
    assert_eq!(warm.store.quarantined, 0);

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn two_runs_racing_one_store_agree_byte_for_byte() {
    let store_dir = fresh_dir("race");
    let cache_dir = fresh_dir("race-cache");
    let jobs = figures::fig2(&tiny_scale()).jobs;
    let n = jobs.len();
    // One capture cache and one store, both raced.
    let run = || pool::run_jobs(&jobs, &RunOptions { workers: 2, ..opts(&store_dir, &cache_dir) });

    let (a, b) = std::thread::scope(|s| {
        let b = s.spawn(run);
        (run(), b.join().expect("run thread panicked"))
    });
    assert!(a.all_clean() && b.all_clean());
    for report in [&a, &b] {
        let torn = report.store.quarantined + report.cache.quarantined;
        assert_eq!(torn, 0, "a racing writer must never leave a torn entry");
        assert_eq!(report.store.write_failures + report.cache.write_failures, 0);
    }
    let stats = |report| {
        ResultsFile::from_report("fig2", 2, report, vec![vec!["fig2".to_string()]; n]).stats_json()
    };
    assert_eq!(stats(a), stats(b), "racing runs must agree on the document bytes");

    let warm = run();
    assert_eq!(warm.store.hits, n as u64, "a third run is served entirely from the store");
    assert_eq!(warm.store.quarantined, 0);

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
