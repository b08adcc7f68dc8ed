//! Golden fault-tolerance tests: injected failures are isolated and
//! recorded, surviving cells stay bit-identical to a clean run, transient
//! faults recover through retries, and a grid resumed from its run-scoped
//! store merges to a bit-identical result.

use drs_harness::{
    figures, run_jobs, CaptureMode, CellResult, CheckpointSpec, ChipConfig, FaultPlan, ResultStore,
    ResultsFile, RunOptions, Scale, SimJob, StreamCache,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

static SEQ: AtomicU32 = AtomicU32::new(0);

fn tiny_fig2_jobs() -> Vec<SimJob> {
    let scale = Scale { rays: 120, tris_scale: 0.005, warps_scale: 0.1 };
    let mut set = figures::fig2(&scale);
    set.jobs.truncate(4);
    assert_eq!(set.jobs.len(), 4, "need four cells for the fault grid");
    set.jobs
}

fn temp_checkpoint() -> PathBuf {
    std::env::temp_dir().join(format!(
        "drs-faults-test-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn opts() -> RunOptions {
    RunOptions { retry_backoff_ms: 0, ..RunOptions::serial() }
}

/// `opts()` with the run-scoped store at `path` attached.
fn checkpointed(path: &Path, resume: bool, faults: &str) -> RunOptions {
    RunOptions {
        faults: FaultPlan::parse(faults).unwrap(),
        checkpoint: Some(CheckpointSpec { path: path.to_path_buf(), resume }),
        ..opts()
    }
}

/// Files directly inside `dir` (0 when it does not exist).
fn files_in(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| d.filter(|e| e.as_ref().unwrap().path().is_file()).count())
}

/// Fail job 2, then resume: the three clean cells come back from the
/// run's store and the merge is byte-identical to an uninterrupted run.
fn assert_resume_heals(jobs: &[SimJob]) -> Vec<CellResult> {
    let clean_dump = stats_dump("fig2", run_jobs(jobs, &opts()));
    let path = temp_checkpoint();
    let first = run_jobs(jobs, &checkpointed(&path, false, "watchdog@2"));
    assert_eq!(first.failed_cells().count(), 1);
    assert_eq!(first.checkpoint_writes, 3, "one entry per clean cell");
    assert_eq!(files_in(&path), 3, "a run with failures must leave its store behind");

    // Second pass: resume without faults. Only the failed cell re-runs.
    let second = run_jobs(jobs, &checkpointed(&path, true, ""));
    assert_eq!(second.resumed, 3, "the three clean cells come from the run's store");
    assert_eq!(second.checkpoint_writes, 1, "only the re-run cell is written");
    assert!(second.all_clean());
    assert!(!path.exists(), "a fully clean run removes its store");
    let cells = second.cells.clone();
    assert_eq!(
        stats_dump("fig2", second),
        clean_dump,
        "resumed merge must be byte-identical to an uninterrupted run"
    );
    cells
}

fn stats_dump(mode: &str, report: drs_harness::RunReport) -> String {
    let n = report.cells.len();
    ResultsFile::from_report(mode, 1, report, vec![Vec::new(); n]).stats_json()
}

#[test]
fn injected_failures_are_recorded_and_survivors_are_bit_identical() {
    let jobs = tiny_fig2_jobs();
    let clean = run_jobs(&jobs, &opts());
    assert!(clean.all_clean(), "the clean grid must complete");

    // Permanent injections (no xT suffix → they fire on every attempt):
    // a worker panic on job 1, a watchdog trip on job 2, a cycle-budget
    // exhaustion on job 3. Job 0 is untouched.
    let faults = FaultPlan::parse("panic@1,watchdog@2,budget@3").unwrap();
    let faulted = run_jobs(&jobs, &RunOptions { faults, ..opts() });

    assert_eq!(faulted.cells.len(), clean.cells.len());
    assert_eq!(faulted.failed_cells().count(), 3, "exactly the three injected cells fail");

    let survivor = &faulted.cells[0];
    assert!(survivor.completed && survivor.failure.is_none());
    assert_eq!(survivor.attempts, 1);
    assert_eq!(survivor.stats, clean.cells[0].stats, "survivors must be bit-identical");

    let panic_cell = &faulted.cells[1];
    let f = panic_cell.failure.as_ref().expect("job 1 must fail");
    assert!(!panic_cell.completed);
    assert_eq!(f.kind, "panic");
    assert!(f.injected);
    assert!(f.message.contains("injected worker panic"), "{}", f.message);
    assert_eq!(panic_cell.attempts, 2, "default retry budget is one extra attempt");

    let watchdog_cell = &faulted.cells[2];
    let f = watchdog_cell.failure.as_ref().expect("job 2 must fail");
    assert_eq!(f.kind, "watchdog");
    assert!(f.injected);
    assert!(f.cycle.is_some());
    let dump = f.warp_dump.as_ref().expect("watchdog failures carry the warp dump as data");
    assert!(dump.contains("warp"), "dump must describe per-warp state: {dump}");

    let budget_cell = &faulted.cells[3];
    let f = budget_cell.failure.as_ref().expect("job 3 must fail");
    assert_eq!(f.kind, "cycle_limit");
    assert!(f.injected);
    assert!(budget_cell.stats.cycles > 0, "partial stats survive into the failed cell");
}

#[test]
fn transient_fault_recovers_and_result_is_bit_identical() {
    let jobs = tiny_fig2_jobs();
    let clean = run_jobs(&jobs, &opts());

    // x1: the fault fires only on the first attempt; the retry succeeds.
    let faults = FaultPlan::parse("panic@0x1,watchdog@2x1").unwrap();
    let report = run_jobs(&jobs, &RunOptions { faults, ..opts() });
    assert!(report.all_clean(), "transient faults must be absorbed by the retry layer");
    assert_eq!(report.cells[0].attempts, 2);
    assert_eq!(report.cells[2].attempts, 2);
    assert_eq!(report.cells[1].attempts, 1);
    for (got, want) in report.cells.iter().zip(&clean.cells) {
        assert_eq!(got.stats, want.stats, "recovered cells must match the clean run");
    }
}

#[test]
fn exhausted_retries_keep_the_failure_of_the_final_attempt() {
    let jobs = tiny_fig2_jobs();
    // Zero retries: even a transient fault is terminal on the first attempt.
    let faults = FaultPlan::parse("panic@1").unwrap();
    let report = run_jobs(&jobs, &RunOptions { faults, retries: 0, ..opts() });
    let cell = &report.cells[1];
    let f = cell.failure.as_ref().expect("no retry budget, so the cell fails");
    assert_eq!(f.kind, "panic");
    assert_eq!(cell.attempts, 1);
    assert_eq!(report.failed_cells().count(), 1);
}

#[test]
fn cache_fault_quarantines_the_entry_and_recaptures_identical_cells() {
    let jobs = tiny_fig2_jobs();
    let clean = run_jobs(&jobs, &opts());
    let dir = temp_checkpoint();
    let cached = |faults: &str| RunOptions {
        capture: CaptureMode::Cached(StreamCache::new(&dir)),
        faults: FaultPlan::parse(faults).unwrap(),
        ..opts()
    };
    // A cold run warms the cache; without an entry the fault is absorbed.
    assert_eq!(run_jobs(&jobs, &cached("cache@2")).cache.quarantined, 0);

    let report = run_jobs(&jobs, &cached("cache@2"));
    assert!(report.all_clean(), "a damaged cache entry must never fail a cell");
    assert_eq!(report.cache.quarantined, 1, "the damaged entry is quarantined");
    assert_eq!((report.cache.hits, report.cache.misses), (0, 1), "and recaptured");
    for (got, want) in report.cells.iter().zip(&clean.cells) {
        assert_eq!(got.stats, want.stats, "recaptured cells must match the clean run");
        assert_eq!(got.attempts, 1, "recapture happens before any attempt");
    }
    assert_eq!(files_in(&dir.join("quarantine")), 1, "the damaged entry is kept aside");
    assert_eq!(run_jobs(&jobs, &cached("")).cache.hits, 1, "the recaptured entry is served");
    // The fault acts before any attempt: an organic failure of the cell
    // is neither marked injected nor retried.
    let capped = run_jobs(&jobs, &RunOptions { job_cycle_budget: Some(16), ..cached("cache@2") });
    let f = capped.cells[2].failure.as_ref().expect("a 16-cycle budget fails the cell");
    assert_eq!((f.kind.as_str(), f.injected, capped.cells[2].attempts), ("cycle_limit", false, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_run_resumes_to_a_bit_identical_merge() {
    assert_resume_heals(&tiny_fig2_jobs());
}

#[test]
fn injected_chip_config_corruption_is_a_typed_failure() {
    let jobs = tiny_fig2_jobs();
    let faults = FaultPlan::parse("chipcfg@1").unwrap();
    let report = run_jobs(&jobs, &RunOptions { faults, ..opts() });

    let cell = &report.cells[1];
    let f = cell.failure.as_ref().expect("job 1 must fail chip-config validation");
    assert_eq!(f.kind, "chip_config");
    assert!(f.injected);
    assert!(f.message.contains("0 SMs"), "{}", f.message);
    assert_eq!(cell.attempts, 2, "injected faults are transient and get the retry");
    assert!(cell.chip.is_none(), "a failed chip attempt yields no summary");
    assert_eq!(report.failed_cells().count(), 1, "only the corrupted cell fails");
    assert!(report.cells[0].completed && report.cells[0].failure.is_none());
}

#[test]
fn chip_checkpoint_resumes_to_a_bit_identical_merge() {
    let chip = ChipConfig::gtx780(2);
    let jobs: Vec<SimJob> =
        tiny_fig2_jobs().into_iter().map(|j| SimJob { chip: Some(chip), ..j }).collect();
    // The chip summaries of the resumed cells must round-trip through the
    // store entries.
    let resumed = assert_resume_heals(&jobs);
    assert!(
        resumed.iter().filter(|c| !c.empty).all(|c| c.chip.is_some()),
        "resumed chip cells must keep their shared-memory summary"
    );
}

#[test]
fn corrupt_resume_entry_is_quarantined_and_recomputed() {
    let jobs = tiny_fig2_jobs();
    let clean = run_jobs(&jobs, &opts());
    let path = temp_checkpoint();
    let first = run_jobs(&jobs, &checkpointed(&path, false, "watchdog@2"));
    assert_eq!(first.failed_cells().count(), 1);
    assert!(ResultStore::new(&path).scramble(jobs[0].id()), "job 0 has an entry to damage");

    // Resume with job 2 still failing, so the store outlives the run and
    // the quarantined evidence can be inspected.
    let second = run_jobs(&jobs, &checkpointed(&path, true, "watchdog@2"));
    assert_eq!(second.resumed, 2, "the damaged entry is not served");
    assert_eq!(second.cells[0].stats, clean.cells[0].stats, "job 0 is recomputed");
    assert_eq!(second.checkpoint_writes, 1, "the recomputed cell is re-persisted");
    assert_eq!(files_in(&path.join("quarantine")), 1, "the damaged entry is kept aside");
    assert_eq!(files_in(&path), 3);

    let third = run_jobs(&jobs, &checkpointed(&path, true, ""));
    assert_eq!(third.resumed, 3);
    assert!(third.all_clean());
    assert!(!path.exists(), "a fully clean run removes its store");
}

#[test]
fn resuming_a_superset_grid_reuses_exactly_the_shared_cells() {
    let jobs = tiny_fig2_jobs();
    let clean_dump = stats_dump("fig2", run_jobs(&jobs, &opts()));
    let path = temp_checkpoint();
    // An earlier run over a smaller grid (one job fewer), with job 0
    // failing: jobs 1 and 2 are the clean cells it shares with the full
    // grid.
    let first = run_jobs(&jobs[..3], &checkpointed(&path, false, "watchdog@0"));
    assert_eq!(first.failed_cells().count(), 1);
    // Cells are content-addressed, so the full grid reuses both.
    let report = run_jobs(&jobs, &checkpointed(&path, true, ""));
    assert_eq!(report.resumed, 2, "exactly the shared clean cells are reused");
    assert_eq!(report.checkpoint_writes, 2, "jobs 0 and 3 are simulated");
    assert!(report.all_clean());
    assert!(!path.exists());
    assert_eq!(stats_dump("fig2", report), clean_dump);
}

#[test]
fn a_panicking_capture_fails_its_cells_not_the_run() {
    let jobs = tiny_fig2_jobs();
    let clean = run_jobs(&jobs, &opts());
    // A zero-ray workload trips the capture's own assertion.
    let mut broken = jobs.clone();
    for job in &mut broken[1..3] {
        job.workload.rays = 0;
    }
    let report = run_jobs(&broken, &opts());
    for (i, (cell, reference)) in report.cells.iter().zip(&clean.cells).enumerate() {
        if (1..3).contains(&i) {
            let failure = cell.failure.as_ref().expect("a failed capture fails its cells");
            assert_eq!(failure.kind, "capture");
            assert!(failure.message.contains("target_per_bounce must be positive"), "{failure:?}");
            assert!(!failure.injected);
        } else {
            assert!(cell.failure.is_none());
            assert_eq!(cell.stats, reference.stats, "cell {i} changed next to a failed capture");
        }
    }
}
