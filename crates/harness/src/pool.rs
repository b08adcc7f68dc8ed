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
//! [`CellFailure`]; *transient* failures (panics, cache corruption,
//! injected faults) are retried with exponential backoff, while
//! *permanent* ones (an organic watchdog trip, cycle-cap, deadline, or
//! invariant failure — deterministic, so a retry would fail identically)
//! are recorded immediately. With a [`CheckpointSpec`] attached, every
//! finished cell is persisted through an atomic file rewrite, and a
//! resumed rerun reuses clean cells byte-for-byte while re-simulating
//! only the missing or failed ones.
//!
//! With a [`ResultStore`] attached, durability extends *across* runs:
//! every clean cell is memoized on disk by job id, consulted before
//! capture and simulation, and replayed byte-for-byte on a warm rerun —
//! a completed grid re-executes with zero engine invocations and zero
//! captures, and emits identical results JSON.

use crate::cache::{CacheCounters, StreamCache};
use crate::checkpoint::{run_key, Checkpoint, CheckpointCell, CheckpointSpec};
use crate::fault::{FaultKind, FaultPlan};
use crate::job::{JobId, SimJob};
use crate::results::{CellFailure, CellResult, ChipSummary};
use crate::runner::CellConfig;
use crate::store::{ResultStore, StoreCounters};
use drs_sim::{ChipConfig, SimError, SimErrorKind, SimStats};
use drs_telemetry::{ChipTelemetryReport, TelemetryConfig, TelemetryReport};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// panics, cache corruption, injected faults). Permanent simulation
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
    /// Worker threads sharding the SMs inside each full-chip cell's
    /// window loop (chip jobs only; single-SMX cells ignore it). Chip
    /// results are bit-identical for any value, so — unlike the chip
    /// config itself — this never enters job identity or the run key.
    pub chip_threads: usize,
    /// Deterministic fault injection (empty plan = no faults).
    pub faults: FaultPlan,
    /// Crash-safe checkpointing: persist every finished cell and
    /// optionally resume from a previous run's checkpoint. Ignored (with
    /// a warning) when telemetry is enabled — reports are not
    /// checkpointable.
    pub checkpoint: Option<CheckpointSpec>,
    /// Durable result store: clean cells are served from disk before any
    /// capture or simulation happens and persisted after they finish.
    /// Shared (`Arc`) so a server and its pool read one set of counters.
    /// Ignored (with a warning) when telemetry is enabled — stored cells
    /// carry counters, not telemetry reports, and must never silently
    /// satisfy an instrumented run.
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
    pub cache: CacheCounters,
    /// Cells reused from a checkpoint instead of being re-simulated.
    pub resumed: usize,
    /// Successful checkpoint-file writes during the run (0 without a
    /// [`CheckpointSpec`]).
    pub checkpoint_writes: u64,
    /// Result-store activity (all zeros without a store). `hits` counts
    /// cells served from disk with no engine invocation.
    pub store: StoreCounters,
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

/// The message a worker panic carried, extracted from the unwind payload
/// (`&str` and `String` cover `panic!` and friends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaughtPanic {
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl CaughtPanic {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> CaughtPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        };
        CaughtPanic { message }
    }
}

thread_local! {
    /// True while this thread is inside a pool `catch_unwind` region.
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` under `catch_unwind` with the default panic hook silenced for
/// this thread: a caught panic becomes data (the [`CaughtPanic`] message),
/// so the hook's "thread panicked" + backtrace spam on stderr would only
/// duplicate what lands in the failure record. Panics on other threads
/// (and outside catching regions) keep the normal hook behavior.
pub(crate) fn catch_quietly<R>(f: impl FnOnce() -> R) -> Result<R, CaughtPanic> {
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
    out.map_err(|payload| CaughtPanic::from_payload(payload.as_ref()))
}

/// Map `f` over `items` with `workers` threads, preserving order.
///
/// Results land in per-index slots, so the output is independent of
/// scheduling; a single worker degenerates to a plain serial loop on the
/// calling thread. Worker panics propagate to the caller; use
/// [`parallel_map_catching`] to record them as data instead.
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

/// Like [`parallel_map`], but each invocation of `f` runs under
/// `catch_unwind`: a panicking item yields `Err(CaughtPanic)` in its slot
/// while every other item completes normally — one poisoned job cannot
/// take down the run.
pub fn parallel_map_catching<T, R, F>(
    items: &[T],
    workers: usize,
    f: F,
) -> Vec<Result<R, CaughtPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map(items, workers, |i, t| catch_quietly(|| f(i, t)))
}

/// Shared checkpoint state: the accumulating snapshot plus its path.
struct CheckpointState {
    path: std::path::PathBuf,
    snapshot: Mutex<Checkpoint>,
    writes: AtomicUsize,
}

impl CheckpointState {
    /// Record a finished cell and atomically rewrite the file. Write
    /// failures cost resumability, never the run.
    fn record(&self, cell: &CellResult) {
        let mut snap = self.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        snap.cells.insert(cell.job.id(), CheckpointCell::from_cell(cell));
        match snap.write_to(&self.path) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!("drs-harness: checkpoint write failed ({}): {e}", self.path.display());
            }
        }
    }
}

/// Execute `jobs` under `opts`, returning per-cell results in job order.
///
/// Distinct workloads are captured exactly once per run (and, with a
/// cache, once across runs); jobs over the same workload share one
/// in-memory copy of its streams. Failures are isolated, retried when
/// transient, and recorded per cell — see the module docs.
pub fn run_jobs(jobs: &[SimJob], opts: &RunOptions) -> RunReport {
    let start = Instant::now();

    // Checkpointing binds to this exact grid; telemetry reports are not
    // checkpointable, so the two features are exclusive.
    let checkpoint = match (&opts.checkpoint, &opts.telemetry) {
        (Some(_), Some(_)) => {
            eprintln!("drs-harness: checkpointing disabled for telemetry runs");
            None
        }
        (spec, _) => spec.as_ref(),
    };
    let key = checkpoint.map(|_| run_key(jobs, opts.fastpath));
    let resumed_cells: HashMap<JobId, CheckpointCell> = match (checkpoint, key) {
        (Some(spec), Some(key)) if spec.resume => Checkpoint::load(&spec.path, key)
            .map(|cp| cp.cells.into_iter().filter(|(_, c)| c.is_clean()).collect())
            .unwrap_or_default(),
        _ => HashMap::new(),
    };

    // The result store is likewise telemetry-exclusive: stored cells
    // carry counters only, so serving one would silently drop the
    // reports an instrumented run exists to collect.
    let store = match (&opts.store, &opts.telemetry) {
        (Some(_), Some(_)) => {
            eprintln!("drs-harness: result store disabled for telemetry runs");
            None
        }
        (s, _) => s.as_deref(),
    };
    // Durable lookup: any cell the store already has skips capture and
    // simulation entirely. An injected StoreCorrupt fault damages the
    // entry first, proving the quarantine-and-recompute path end-to-end.
    let mut stored_cells: HashMap<JobId, CheckpointCell> = HashMap::new();
    if let Some(store) = store {
        for (i, job) in jobs.iter().enumerate() {
            let id = job.id();
            if resumed_cells.contains_key(&id) {
                continue;
            }
            if opts.faults.fault_for(i, id, 1) == Some(FaultKind::StoreCorrupt)
                && store.scramble(id)
            {
                eprintln!("drs-harness: injected store corruption for job {id}");
            }
            if let Some(cell) = store.lookup(id) {
                stored_cells.insert(id, cell);
            }
        }
    }

    let checkpoint_state = checkpoint.zip(key).map(|(spec, key)| {
        let mut snapshot = Checkpoint::new(key);
        // Seed the snapshot with the resumed and store-served cells so a
        // chain of resumes never loses earlier work.
        for (id, cell) in resumed_cells.iter().chain(&stored_cells) {
            snapshot.cells.insert(*id, cell.clone());
        }
        CheckpointState {
            path: spec.path.clone(),
            snapshot: Mutex::new(snapshot),
            writes: AtomicUsize::new(0),
        }
    });

    // Phase 1: capture the distinct workloads still needed (fully resumed
    // or store-served jobs contribute nothing to the capture set).
    let mut seen = std::collections::HashSet::new();
    let mut distinct = Vec::new();
    for j in jobs {
        if !resumed_cells.contains_key(&j.id())
            && !stored_cells.contains_key(&j.id())
            && seen.insert(j.workload.content_key())
        {
            distinct.push(j.workload);
        }
    }
    let captured = parallel_map_catching(&distinct, opts.workers, |_, spec| match &opts.capture {
        CaptureMode::Uncached => spec.capture(),
        CaptureMode::Cached(cache) => cache.get_or_capture(spec),
    });
    let streams_by_key: HashMap<u64, Result<Arc<drs_trace::BounceStreams>, String>> = distinct
        .iter()
        .zip(captured)
        .map(|(spec, streams)| (spec.content_key(), streams.map(Arc::new).map_err(|p| p.message)))
        .collect();

    // Phase 2: simulate every cell.
    let total = jobs.len();
    let resumed_count = AtomicUsize::new(0);
    let cells = parallel_map(jobs, opts.workers, |i, job| {
        let label =
            format!("{} {} b{} w{}", job.workload.scene, job.method.label(), job.bounce, job.warps);
        if let Some(prior) = resumed_cells.get(&job.id()) {
            resumed_count.fetch_add(1, Ordering::Relaxed);
            if opts.progress {
                eprintln!("[{}/{total}] resume {label} (from checkpoint)", i + 1);
            }
            return prior.to_cell(*job);
        }
        if let Some(prior) = stored_cells.get(&job.id()) {
            if opts.progress {
                eprintln!("[{}/{total}] reuse  {label} (from store)", i + 1);
            }
            return prior.to_cell(*job);
        }
        if opts.progress {
            eprintln!("[{}/{total}] start  {label}", i + 1);
        }
        let cell = match &streams_by_key[&job.workload.content_key()] {
            Ok(streams) => run_one_job(i, job, streams, opts),
            Err(message) => CellResult {
                job: *job,
                empty: false,
                completed: false,
                stats: SimStats::default(),
                telemetry: None,
                sm_telemetry: Vec::new(),
                chip_telemetry: None,
                chip: None,
                failure: Some(CellFailure {
                    kind: "capture".to_string(),
                    message: format!("workload capture failed: {message}"),
                    cycle: None,
                    injected: false,
                    warp_dump: None,
                }),
                attempts: 1,
                wall_ms: 0.0,
            },
        };
        if let Some(state) = &checkpoint_state {
            state.record(&cell);
        }
        if let Some(store) = store {
            if cell.completed && cell.failure.is_none() {
                if let Err(e) = store.store(job.id(), &CheckpointCell::from_cell(&cell)) {
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

    // A fully clean run needs no resume: drop the checkpoint so the next
    // run starts fresh instead of trusting a stale file.
    if let Some(state) = &checkpoint_state {
        if cells.iter().all(|c| c.completed && c.failure.is_none()) {
            let _ = std::fs::remove_file(&state.path);
        }
    }

    let cache = match &opts.capture {
        CaptureMode::Uncached => CacheCounters::default(),
        CaptureMode::Cached(cache) => cache.counters(),
    };
    RunReport {
        cells,
        cache,
        resumed: resumed_count.into_inner(),
        checkpoint_writes: checkpoint_state
            .as_ref()
            .map_or(0, |s| s.writes.load(Ordering::Relaxed) as u64),
        store: store.map(ResultStore::counters).unwrap_or_default(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Run one job to a final [`CellResult`], owning the retry loop. Shared
/// with the server, which schedules cells individually instead of
/// through [`run_jobs`].
pub(crate) fn run_one_job(
    index: usize,
    job: &SimJob,
    streams: &Arc<drs_trace::BounceStreams>,
    opts: &RunOptions,
) -> CellResult {
    let job_start = Instant::now();
    if job.bounce > streams.depth() || streams.bounce(job.bounce).scripts.is_empty() {
        // No surviving rays at this depth (open scenes): a real,
        // reportable cell with zeroed counters.
        return CellResult {
            job: *job,
            empty: true,
            completed: true,
            stats: SimStats::default(),
            telemetry: None,
            sm_telemetry: Vec::new(),
            chip_telemetry: None,
            chip: None,
            failure: None,
            attempts: 1,
            wall_ms: 0.0,
        };
    }
    let scripts = &streams.bounce(job.bounce).scripts;
    let max_attempts = 1 + opts.retries;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let fault = opts.faults.fault_for(index, job.id(), attempt);
        match run_attempt(job, scripts, fault, opts) {
            Ok(success) => {
                return CellResult {
                    job: *job,
                    empty: false,
                    completed: true,
                    stats: success.stats,
                    telemetry: success.telemetry,
                    sm_telemetry: success.sm_telemetry,
                    chip_telemetry: success.chip_telemetry,
                    chip: success.chip,
                    failure: None,
                    attempts: attempt,
                    wall_ms: job_start.elapsed().as_secs_f64() * 1e3,
                };
            }
            Err(boxed) => {
                let (failure, partial) = *boxed;
                let transient =
                    failure.injected || matches!(failure.kind.as_str(), "panic" | "cache_corrupt");
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
                    job: *job,
                    empty: false,
                    completed: false,
                    stats: partial,
                    telemetry: None,
                    sm_telemetry: Vec::new(),
                    chip_telemetry: None,
                    chip: None,
                    failure: Some(failure),
                    attempts: attempt,
                    wall_ms: job_start.elapsed().as_secs_f64() * 1e3,
                };
            }
        }
    }
}

/// What a successful attempt produced: the stats plus whichever
/// telemetry artifacts the cell's mode yields (single-SMX report, or the
/// per-SM reports and chip memory-system report for full-chip cells).
struct AttemptSuccess {
    stats: SimStats,
    telemetry: Option<TelemetryReport>,
    sm_telemetry: Vec<TelemetryReport>,
    chip_telemetry: Option<ChipTelemetryReport>,
    chip: Option<ChipSummary>,
}

/// Outcome of a single cell attempt. The error side is boxed —
/// `SimStats` is large — and carries the partial stats accumulated
/// before the failure. The chip summary is `Some` exactly for
/// successful full-chip cells.
type AttemptOutcome = Result<AttemptSuccess, Box<(CellFailure, SimStats)>>;

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
    if fault == Some(FaultKind::CacheCorrupt) {
        return Err(Box::new((
            CellFailure {
                kind: "cache_corrupt".to_string(),
                message: "injected corrupted capture-cache read".to_string(),
                cycle: None,
                injected: true,
                warp_dump: None,
            },
            SimStats::default(),
        )));
    }
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
        if cfg.chip.is_some() {
            let (result, sm_telemetry, chip_telemetry) =
                crate::runner::run_chip_cell(&cfg, scripts, opts.telemetry);
            match result {
                Ok(chip) => {
                    let summary = chip_summary(&chip);
                    (Ok(chip.aggregate), None, sm_telemetry, chip_telemetry, Some(summary))
                }
                Err(err) => (Err(err), None, Vec::new(), None, None),
            }
        } else {
            let (result, telemetry) = crate::runner::run_cell(&cfg, scripts, opts.telemetry);
            (result, telemetry, Vec::new(), None, None)
        }
    });
    match outcome {
        Ok((Ok(stats), telemetry, sm_telemetry, chip_telemetry, chip)) => {
            Ok(AttemptSuccess { stats, telemetry, sm_telemetry, chip_telemetry, chip })
        }
        Ok((Err(err), _, _, _, _)) => Err(Box::new(failure_from_sim_error(err, injected))),
        Err(caught) => Err(Box::new((
            CellFailure {
                kind: "panic".to_string(),
                message: caught.message,
                cycle: None,
                injected,
                warp_dump: None,
            },
            SimStats::default(),
        ))),
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
    fn catching_map_isolates_panics_per_item() {
        let items: Vec<usize> = (0..40).collect();
        for workers in [1, 4] {
            let out = parallel_map_catching(&items, workers, |_, &v| {
                assert!(v % 7 != 3, "boom on {v}");
                v * 10
            });
            assert_eq!(out.len(), items.len());
            for (v, r) in items.iter().zip(&out) {
                if v % 7 == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.message, format!("boom on {v}"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), v * 10);
                }
            }
        }
    }

    #[test]
    fn caught_panic_extracts_string_payloads() {
        let r = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(CaughtPanic::from_payload(r.as_ref()).message, "static str");
        let r = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(CaughtPanic::from_payload(r.as_ref()).message, "formatted 7");
        let r = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(CaughtPanic::from_payload(r.as_ref()).message, "panic with non-string payload");
    }
}
