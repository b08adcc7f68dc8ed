//! A std-only worker pool executing experiment jobs in parallel with
//! provably deterministic results and fault-tolerant execution.
//!
//! Each [`SimJob`] is an independent single-threaded simulation, so the
//! only thing parallelism could perturb is *which worker runs which job* —
//! and results are written into a slot indexed by the job's position, so
//! the output vector is identical for any worker count. `run_jobs` with
//! one worker and with N workers return bit-identical
//! [`SimStats`] (asserted by the harness test suite).
//!
//! Execution happens in two phases sharing the pool:
//!
//! 1. **Capture**: the distinct workloads behind the job list are
//!    captured (or served from the [`StreamCache`]) in parallel;
//! 2. **Simulate**: every job runs against its workload's in-memory
//!    streams, fanned out over the same workers.
//!
//! A failing cell never takes the run down with it. Every attempt runs
//! under `catch_unwind`, so a panicking worker becomes a recorded
//! [`CellFailure`]; *transient* failures (panics and injected faults)
//! are retried with exponential backoff, while
//! *permanent* ones (an organic watchdog trip, cycle-cap, deadline, or
//! invariant failure — deterministic, so a retry would fail identically)
//! are recorded immediately.
//!
//! Persistence is one mechanism, the [`ResultStore`], at two scopes. With
//! a [`CheckpointSpec`] attached, every clean cell lands in a run-scoped
//! store directory; a resumed rerun reuses those cells byte-for-byte,
//! re-simulates only the missing or failed ones, and the directory is
//! removed once the run comes out clean. With [`RunOptions::store`]
//! attached, durability extends *across* runs: every clean cell is
//! memoized on disk by job id, consulted before capture and simulation,
//! and replayed byte-for-byte on a warm rerun — a completed grid
//! re-executes with zero engine invocations and zero captures, and emits
//! identical results JSON.

use crate::cache::StreamCache;
use crate::entry::EntryCounters;
use crate::fault::{FaultKind, FaultPlan};
use crate::job::{SimJob, WorkloadSpec};
use crate::results::{CellFailure, CellResult, ChipSummary};
use crate::runner::CellConfig;
use crate::store::{ResultStore, StoredCell};
use drs_sim::{ChipConfig, SimError, SimErrorKind, SimStats};
use drs_telemetry::TelemetryConfig;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError};
use std::time::{Duration, Instant};

/// Cycle at which an injected [`FaultKind::WatchdogTrip`] fires.
const INJECTED_TRIP_CYCLE: u64 = 64;
/// Cycle budget imposed by an injected [`FaultKind::BudgetExhaust`].
const INJECTED_CYCLE_BUDGET: u64 = 64;
/// Upper bound on a single retry backoff sleep.
const MAX_BACKOFF_MS: u64 = 2_000;

/// How a run obtains workload captures.
#[derive(Debug)]
pub enum CaptureMode {
    /// Always capture in-process; never touch the disk.
    Uncached,
    /// Serve from / populate an on-disk [`StreamCache`].
    Cached(StreamCache),
}

/// The run-scoped result store behind `--resume`.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Store directory (conventionally `<out stem>_checkpoint/`).
    pub path: PathBuf,
    /// Reuse the clean cells already in it (`--resume`).
    pub resume: bool,
}

/// Execution options for [`run_jobs`].
#[derive(Debug)]
pub struct RunOptions {
    /// Worker threads (1 = fully serial on the calling thread).
    pub workers: usize,
    /// Capture caching policy.
    pub capture: CaptureMode,
    /// When set, every non-empty cell runs with a telemetry collector
    /// attached and its [`CellResult`] carries the report. `None` (the
    /// default) runs the engine with no attribution work at all.
    pub telemetry: Option<TelemetryConfig>,
    /// Print a per-job start/finish line to stderr (off by default so the
    /// binary's stdout/stderr stay unchanged).
    pub progress: bool,
    /// Engine event-driven fast path (on by default). `false` forces
    /// naive one-cycle stepping — the reference the fast-path tests and
    /// the CI A/B smoke compare against; results are bit-identical either
    /// way.
    pub fastpath: bool,
    /// Extra attempts after the first for *transient* failures (worker
    /// panics and injected faults). Permanent simulation
    /// failures (watchdog, cycle cap, deadline, invariant) are never
    /// retried — they are deterministic and would fail identically.
    pub retries: u32,
    /// Base backoff before the first retry, doubled per subsequent
    /// attempt and capped at 2 s. Zero disables the sleep entirely.
    pub retry_backoff_ms: u64,
    /// Per-job cycle budget. A cell exceeding it fails with a typed
    /// `cycle_limit` record instead of running to the global safety cap.
    pub job_cycle_budget: Option<u64>,
    /// Per-job wall-clock budget in milliseconds. A cell exceeding it
    /// fails with a typed `deadline` record carrying partial stats.
    pub job_timeout_ms: Option<u64>,
    /// Threads in total, the cell's own included, sharding the SMs inside
    /// each full-chip cell's window loop (chip jobs only; single-SMX
    /// cells ignore it). Chip results are bit-identical for any value,
    /// so — unlike the chip config itself — this never enters job
    /// identity or the run key.
    pub chip_threads: usize,
    /// Deterministic fault injection (empty plan = no faults).
    pub faults: FaultPlan,
    /// Run-scoped result store: every clean cell is persisted to it, a
    /// resumed run reuses what it holds, and a fully clean run removes
    /// it. Ignored (with a warning) when telemetry is enabled, like
    /// [`RunOptions::store`].
    pub checkpoint: Option<CheckpointSpec>,
    /// Durable result store (`Arc`, so runs can share its counters):
    /// clean cells are served from disk before any capture and persisted
    /// after they finish. Ignored (with a warning) with telemetry on:
    /// stored cells carry no telemetry reports.
    pub store: Option<Arc<ResultStore>>,
}

impl RunOptions {
    /// Serial execution without a cache — the reference configuration
    /// parallel runs must match bit-for-bit.
    pub fn serial() -> RunOptions {
        RunOptions {
            workers: 1,
            capture: CaptureMode::Uncached,
            telemetry: None,
            progress: false,
            fastpath: true,
            retries: 1,
            retry_backoff_ms: 10,
            job_cycle_budget: None,
            job_timeout_ms: None,
            chip_threads: 1,
            faults: FaultPlan::default(),
            checkpoint: None,
            store: None,
        }
    }

    /// Parallel execution with `workers` threads, no cache.
    pub fn parallel(workers: usize) -> RunOptions {
        RunOptions { workers, ..RunOptions::serial() }
    }
}

/// Everything a run produced: per-cell results (in job order) plus cache
/// and timing telemetry.
#[derive(Debug)]
pub struct RunReport {
    /// One result per input job, same order.
    pub cells: Vec<CellResult>,
    /// Capture-cache activity (all zeros when uncached).
    pub cache: EntryCounters,
    /// Cells reused from the run-scoped store instead of being
    /// re-simulated.
    pub resumed: usize,
    /// Entries written to the run-scoped store (0 without a
    /// [`CheckpointSpec`]).
    pub checkpoint_writes: u64,
    /// Result-store activity (all zeros without a store). `hits` counts
    /// cells served from disk with no engine invocation.
    pub store: EntryCounters,
    /// Wall-clock of the whole run in milliseconds.
    pub wall_ms: f64,
}

impl RunReport {
    /// Cells that ended in a recorded failure.
    pub fn failed_cells(&self) -> impl Iterator<Item = &CellResult> {
        self.cells.iter().filter(|c| c.failure.is_some())
    }

    /// True when every cell completed cleanly.
    pub fn all_clean(&self) -> bool {
        self.cells.iter().all(|c| c.completed && c.failure.is_none())
    }
}

/// The message a caught panic carried (`&str` and `String` payloads
/// cover `panic!` and friends).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

thread_local! {
    /// True while this thread is inside a pool `catch_unwind` region.
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` under `catch_unwind` with the default panic hook silenced for
/// this thread: a caught panic becomes data (its message),
/// so the hook's "thread panicked" + backtrace spam on stderr would only
/// duplicate what lands in the failure record. Panics on other threads
/// (and outside catching regions) keep the normal hook behavior.
fn catch_quietly<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CATCHING.with(Cell::get) {
                prev(info);
            }
        }));
    });
    let was = CATCHING.with(|c| c.replace(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    CATCHING.with(|c| c.set(was));
    out.map_err(|payload| panic_message(payload.as_ref()))
}

/// Map `f` over `items` with `workers` threads, preserving order.
///
/// Results land in per-index slots, so the output is independent of
/// scheduling; a single worker degenerates to a plain serial loop on the
/// calling thread. Worker panics propagate to the caller.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                // Poison-safe: a slot holds plain data, so a panic in a
                // sibling worker must not cascade into this thread.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// A workload's captured streams, shared by every cell over it; the error
/// side is the message of a capture that panicked.
type Capture = Result<drs_trace::BounceStreams, String>;

/// Execute `jobs` under `opts`, returning per-cell results in job order.
///
/// Distinct workloads are captured exactly once per run (and, with a
/// cache, once across runs); jobs over the same workload share one
/// in-memory copy of its streams. Failures are isolated, retried when
/// transient, and recorded per cell — see the module docs.
pub fn run_jobs(jobs: &[SimJob], opts: &RunOptions) -> RunReport {
    let start = Instant::now();
    // Both stores are telemetry-exclusive: stored cells carry counters
    // only, so serving one would silently drop the reports an
    // instrumented run exists to collect.
    let (checkpoint, store) = match &opts.telemetry {
        Some(_) => {
            if opts.checkpoint.is_some() {
                eprintln!("drs-harness: checkpointing disabled for telemetry runs");
            }
            if opts.store.is_some() {
                eprintln!("drs-harness: result store disabled for telemetry runs");
            }
            (None, None)
        }
        None => (opts.checkpoint.as_ref(), opts.store.as_deref()),
    };
    let run_store = checkpoint.map(|spec| ResultStore::new(&spec.path));
    let resume = checkpoint.is_some_and(|spec| spec.resume);

    // Serve what is already on disk before any capture or simulation
    // happens: the run-scoped store on resume, then the shared store. A
    // planned [`FaultKind::StoreCorrupt`] damages the shared entry first,
    // proving the quarantine-and-recompute path end to end.
    let prior: Vec<Option<(CellResult, &str)>> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let id = job.id();
            let resumed = run_store.as_ref().filter(|_| resume).and_then(|s| s.lookup(id));
            if let Some(cell) = resumed {
                return Some((cell.to_cell(*job), "checkpoint"));
            }
            let store = store?;
            if opts.faults.fault_for(i, id, 1, &[FaultKind::StoreCorrupt]).is_some()
                && store.scramble(id)
            {
                eprintln!("drs-harness: injected store corruption for job {id}");
            }
            store.lookup(id).map(|cell| (cell.to_cell(*job), "store"))
        })
        .collect();

    // Phase 1: capture the distinct workloads still needed (served jobs
    // contribute nothing to the capture set), from the cache when the run
    // has one. A capture that panics fails every cell over it. A planned
    // [`FaultKind::CacheCorrupt`] damages the workload's cache entry just
    // before it is read, proving quarantine-and-recapture end to end.
    let mut seen = HashSet::new();
    let needed: Vec<WorkloadSpec> = jobs
        .iter()
        .zip(&prior)
        .filter(|(j, served)| served.is_none() && seen.insert(j.workload.content_key()))
        .map(|(j, _)| j.workload)
        .collect();
    let corrupt: HashSet<u64> = jobs
        .iter()
        .enumerate()
        .filter(|&(i, j)| {
            prior[i].is_none()
                && opts.faults.fault_for(i, j.id(), 1, &[FaultKind::CacheCorrupt]).is_some()
        })
        .map(|(_, j)| j.workload.content_key())
        .collect();
    let captures: HashMap<u64, Capture> = needed
        .iter()
        .map(WorkloadSpec::content_key)
        .zip(parallel_map(&needed, opts.workers, |_, spec| {
            catch_quietly(|| match &opts.capture {
                CaptureMode::Uncached => spec.capture(),
                CaptureMode::Cached(cache) => {
                    if corrupt.contains(&spec.content_key()) && cache.scramble(spec) {
                        eprintln!("drs-harness: injected cache corruption for {}", spec.scene);
                    }
                    cache.get_or_capture(spec)
                }
            })
        }))
        .collect();

    // Phase 2: simulate every cell and persist each clean one to every
    // store the run has. A failed write costs durability, never the
    // result.
    let total = jobs.len();
    let cells = parallel_map(jobs, opts.workers, |i, job| {
        let label =
            format!("{} {} b{} w{}", job.workload.scene, job.method.label(), job.bounce, job.warps);
        if let Some((cell, source)) = &prior[i] {
            if opts.progress {
                eprintln!("[{}/{total}] reuse  {label} (from {source})", i + 1);
            }
            return cell.clone();
        }
        if opts.progress {
            eprintln!("[{}/{total}] start  {label}", i + 1);
        }
        let cell = match &captures[&job.workload.content_key()] {
            Ok(streams) => run_one_job(i, job, streams, opts),
            Err(message) => {
                let message = format!("workload capture failed: {message}");
                CellResult {
                    failure: Some(CellFailure::new("capture", message, false)),
                    ..CellResult::blank(*job)
                }
            }
        };
        if let Some(stored) = StoredCell::from_cell(&cell) {
            for s in run_store.iter().chain(store) {
                if let Err(e) = s.store(job.id(), &stored) {
                    eprintln!(
                        "drs-harness: store write failed for job {} ({e}); \
                         the result is complete in memory, only durability was lost",
                        job.id()
                    );
                }
            }
        }
        if opts.progress {
            match &cell.failure {
                Some(f) => eprintln!(
                    "[{}/{total}] FAILED {label} ({}, {} attempt(s))",
                    i + 1,
                    f.kind,
                    cell.attempts
                ),
                None => eprintln!("[{}/{total}] finish {label} ({:.1} ms)", i + 1, cell.wall_ms),
            }
        }
        cell
    });

    // A fully clean run needs no resume: drop the run's store so the next
    // run starts fresh.
    if let Some(run_store) = &run_store {
        if cells.iter().all(|c| c.completed && c.failure.is_none()) {
            let _ = std::fs::remove_dir_all(run_store.dir());
        }
    }
    let run_counters = run_store.as_ref().map(ResultStore::counters).unwrap_or_default();
    RunReport {
        cells,
        cache: match &opts.capture {
            CaptureMode::Uncached => EntryCounters::default(),
            CaptureMode::Cached(cache) => cache.counters(),
        },
        resumed: run_counters.hits as usize,
        checkpoint_writes: run_counters.writes,
        store: store.map(ResultStore::counters).unwrap_or_default(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Run one job to a final [`CellResult`], owning the retry loop.
fn run_one_job(
    index: usize,
    job: &SimJob,
    streams: &drs_trace::BounceStreams,
    opts: &RunOptions,
) -> CellResult {
    let job_start = Instant::now();
    if job.bounce > streams.depth() || streams.bounce(job.bounce).scripts.is_empty() {
        // No surviving rays at this depth (open scenes): a real,
        // reportable cell with zeroed counters.
        return CellResult { empty: true, completed: true, ..CellResult::blank(*job) };
    }
    let scripts = &streams.bounce(job.bounce).scripts;
    let max_attempts = 1 + opts.retries;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let fault = opts.faults.fault_for(index, job.id(), attempt, &FaultKind::ATTEMPT);
        match run_attempt(job, scripts, fault, opts) {
            Ok(cell) => {
                let wall_ms = job_start.elapsed().as_secs_f64() * 1e3;
                return CellResult { attempts: attempt, wall_ms, ..cell };
            }
            Err(boxed) => {
                let (failure, partial) = *boxed;
                let transient = failure.injected || failure.kind == "panic";
                if transient && attempt < max_attempts {
                    let backoff = opts
                        .retry_backoff_ms
                        .saturating_mul(1u64 << (attempt - 1).min(16))
                        .min(MAX_BACKOFF_MS);
                    if backoff > 0 {
                        std::thread::sleep(Duration::from_millis(backoff));
                    }
                    continue;
                }
                return CellResult {
                    stats: partial,
                    failure: Some(failure),
                    attempts: attempt,
                    wall_ms: job_start.elapsed().as_secs_f64() * 1e3,
                    ..CellResult::blank(*job)
                };
            }
        }
    }
}

/// Outcome of a single cell attempt: the completed cell (attempt count
/// and wall-clock still unset), or the failure with the partial stats
/// accumulated before it. The error side is boxed — `SimStats` is large.
type AttemptOutcome = Result<CellResult, Box<(CellFailure, SimStats)>>;

/// Flatten a finished chip run into the per-cell summary row.
fn chip_summary(r: &drs_chip::ChipResult) -> ChipSummary {
    ChipSummary {
        sms: r.per_sm.len(),
        l2_hits: r.chip.l2.hits,
        l2_misses: r.chip.l2.misses,
        l2_evictions: r.chip.l2_evictions,
        requests: r.chip.requests,
        dram_lines: r.chip.dram_lines,
        dram_busy_q: r.chip.dram_busy_q,
        dram_queue_cycles: r.chip.dram_queue_cycles,
        bank_conflict_cycles: r.chip.bank_conflict_cycles,
        mshr_merges: r.chip.mshr_merges,
        mshr_waits: r.chip.mshr_waits,
        per_sm_cycles: r.per_sm.iter().map(|s| s.cycles).collect(),
        per_sm_rays: r.per_sm.iter().map(|s| s.rays_completed).collect(),
    }
}

/// One isolated attempt: inject the planned fault (if any), run the cell
/// under `catch_unwind`, and map every outcome to data.
fn run_attempt(
    job: &SimJob,
    scripts: &[drs_trace::RayScript],
    fault: Option<FaultKind>,
    opts: &RunOptions,
) -> AttemptOutcome {
    let injected = fault.is_some();
    let mut cfg = CellConfig::new(job.method, job.warps);
    cfg.fastpath = opts.fastpath;
    cfg.cycle_budget = opts.job_cycle_budget;
    cfg.chip = job.chip;
    cfg.chip_threads = opts.chip_threads.max(1);
    if let Some(ms) = opts.job_timeout_ms {
        cfg.deadline = Some((Instant::now() + Duration::from_millis(ms), ms));
    }
    match fault {
        Some(FaultKind::WatchdogTrip) => cfg.watchdog_trip_at = Some(INJECTED_TRIP_CYCLE),
        Some(FaultKind::BudgetExhaust) => {
            cfg.cycle_budget = Some(
                cfg.cycle_budget.map_or(INJECTED_CYCLE_BUDGET, |b| b.min(INJECTED_CYCLE_BUDGET)),
            );
        }
        Some(FaultKind::ChipConfigCorrupt) => {
            // Corrupt the chip config (zero SMs) so the attempt trips
            // the simulator's typed `chip_config` validation error; a
            // non-chip job is forced onto the chip path for the purpose.
            cfg.chip =
                Some(ChipConfig { sms: 0, ..cfg.chip.unwrap_or_else(|| ChipConfig::gtx780(1)) });
        }
        _ => {}
    }
    let outcome = catch_quietly(|| {
        assert!(fault != Some(FaultKind::WorkerPanic), "injected worker panic (job {})", job.id());
        let mut cell = CellResult { completed: true, ..CellResult::blank(*job) };
        if cfg.chip.is_some() {
            let (result, sm_telemetry, chip_telemetry) =
                crate::runner::run_chip_cell(&cfg, scripts, opts.telemetry);
            let chip = result?;
            cell.chip = Some(chip_summary(&chip));
            (cell.stats, cell.sm_telemetry, cell.chip_telemetry) =
                (chip.aggregate, sm_telemetry, chip_telemetry);
        } else {
            let (result, telemetry) = crate::runner::run_cell(&cfg, scripts, opts.telemetry);
            (cell.stats, cell.telemetry) = (result?, telemetry);
        }
        Ok(cell)
    });
    match outcome {
        Ok(Ok(cell)) => Ok(cell),
        Ok(Err(err)) => Err(Box::new(failure_from_sim_error(err, injected))),
        Err(message) => {
            Err(Box::new((CellFailure::new("panic", message, injected), SimStats::default())))
        }
    }
}

/// Turn a typed simulator failure into a structured cell record, keeping
/// the partial stats and (for watchdog trips) the warp dump as data.
fn failure_from_sim_error(err: SimError, injected_fault: bool) -> (CellFailure, SimStats) {
    let message = err.to_string();
    let kind = err.kind.label().to_string();
    let (injected, warp_dump) = match &err.kind {
        SimErrorKind::Watchdog { injected, dump, .. } => {
            (*injected || injected_fault, Some(dump.to_string()))
        }
        _ => (injected_fault, None),
    };
    (CellFailure { kind, message, cycle: Some(err.cycle), injected, warp_dump }, *err.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for workers in [1, 3, 8] {
            let out = parallel_map(&items, workers, |i, &v| {
                assert_eq!(i, v);
                v * 2
            });
            assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, v| *v).is_empty());
        let one = [7u32];
        assert_eq!(parallel_map(&one, 16, |_, v| *v + 1), vec![8]);
    }

    #[test]
    fn parallel_map_runs_every_item_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        parallel_map(&items, 7, |_, &i| counts[i].fetch_add(1, Ordering::Relaxed));
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn caught_panic_extracts_string_payloads() {
        let r = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(r.as_ref()), "static str");
        let r = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(r.as_ref()), "formatted 7");
        let r = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(r.as_ref()), "panic with non-string payload");
    }
}
