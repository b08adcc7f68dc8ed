//! One benchmark run of one workload: set-up, the timed grid, checks, and —
//! when traced — the per-layer passes.

use crate::grid::{run_grid, GridRep};
use crate::layers::{construction_check, traced_rep, TracedRep};
use crate::metrics::{self, Extras, Values};
use crate::setup::{capture_all, Setup};
use crate::spans::Spans;
use crate::workloads::{Size, Workload};
use drs_harness::{
    run_chip_cell, run_jobs, CaptureMode, CellConfig, CellResult, JobSet, Method, ResultStore,
    RunOptions, StreamCache,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest set-ups per run, and the least time to spend on them: a fast
/// set-up is repeated until both hold. `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;
const SETUP_SECONDS: f64 = 1.5;
/// Fewest timed grid passes per run, however short `seconds` is.
const MIN_REPS: usize = 3;
/// The paper's mean DRS/Aila speedup over its four scenes.
const PAPER_DRS_SPEEDUP: f64 = 1.79;

/// How to run.
pub struct RunConfig {
    /// Capture seed of every scene.
    pub seed: u64,
    /// Time to spend on grid passes.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Directory for caches, checkpoints and stores (removed afterwards)
    /// and the trace files (kept, under `trace/`).
    pub work_dir: PathBuf,
    /// Expected FNV-1a of `stats_json()`, when one is committed.
    pub golden: Option<u64>,
}

/// What a run measured and checked.
pub struct Outcome {
    /// Cell simulations checked.
    pub attempted: u64,
    /// Of those, the ones that failed a check.
    pub failed: u64,
    /// FNV-1a of the grid's `stats_json()`.
    pub digest: u64,
    /// The declared metrics of this mode.
    pub metrics: Values,
    /// Lines for the reader: the paper ratio, where the trace went.
    pub notes: Vec<String>,
}

/// A directory removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fresh_dir(path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path)
}

/// Run workload `w` under `cfg`.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let tmp = TempDir(cfg.work_dir.join(format!("{}-{}", w.name, std::process::id())));
    fresh_dir(&tmp.0).map_err(io("work directory"))?;
    let set = w.jobs(cfg.seed, cfg.size);
    let jobs = &set.jobs;
    let mut failed = 0;

    // Set-up, several times into fresh caches; the grid reads the last one.
    let mut setups: Vec<Setup> = Vec::new();
    let mut cache_dir = PathBuf::new();
    let setup_start = Instant::now();
    while setups.len() < SETUP_SAMPLES || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let _ = std::fs::remove_dir_all(&cache_dir);
        cache_dir = tmp.0.join(format!("cache-{}", setups.len()));
        setups.push(capture_all(&set, &cache_dir, &mut spans).map_err(io("set-up"))?);
    }
    let setup = setups.last().expect("at least one set-up");
    if setups.iter().any(|s| s.stream_len != setup.stream_len || s.bytes != setup.bytes) {
        failed += jobs.len();
    }

    // Grid passes until `seconds` have elapsed, each followed by a traced
    // pass in a traced run.
    let rep_dir = tmp.0.join("rep");
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut reps: Vec<GridRep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        fresh_dir(&rep_dir).map_err(io("grid directory"))?;
        let rep = run_grid(w, jobs, &cache_dir, &rep_dir, &setup.stream_len).map_err(io("grid"))?;
        if cfg.trace {
            traced.push(traced_rep(&set, &cache_dir, &rep.cells, &mut spans));
        }
        reps.push(rep);
    }

    // Every pass must produce the same statistics, and seed 1 the golden.
    let digest = reps[0].digest;
    for rep in &reps {
        let wrong = rep.digest != digest || cfg.golden.is_some_and(|g| g != rep.digest);
        failed += if wrong { jobs.len() } else { rep.failed };
    }
    let mut attempted = jobs.len() * reps.len();
    for t in &traced {
        attempted += t.cells.len();
        failed += t.failed;
    }
    let cycles: u64 = reps[0].cells.iter().map(crate::grid::sim_cycles).sum();
    let secs = |d: Vec<Duration>| {
        d.iter().map(|d| format!("{:.3}", d.as_secs_f64())).collect::<Vec<_>>().join(" ")
    };
    let mut notes = vec![
        format!(
            "{} cells, {:.6} simulated Mcycles per grid pass, {} set-ups, {} grid passes",
            jobs.len(),
            cycles as f64 / 1e6,
            setups.len(),
            reps.len()
        ),
        format!("set-ups (s): {}", secs(setups.iter().map(|s| s.total).collect())),
        format!("grid passes (s): {}", secs(reps.iter().map(|r| r.wall).collect())),
    ];
    notes.extend(paper_ratio(&reps[0].cells));

    let metrics = if cfg.trace {
        let (extras, checked, extra_failed) = extras(w, &set, &cache_dir, &tmp.0, &reps[0]);
        attempted += checked;
        failed += extra_failed;
        let (checked, mismatches) = construction_check();
        attempted += checked;
        failed += mismatches.len();
        notes.extend(mismatches);
        let values = metrics::per_layer(&setups, &reps, &traced, &extras);
        let dir = cfg.work_dir.join("trace");
        let layers = dir.join(format!("{}.layers.json", w.name));
        let trace = dir.join(format!("{}.trace.json", w.name));
        spans.record(w.name, "workload", origin, origin.elapsed());
        drs_harness::write_text(&layers, &layers_json(w, cfg.seed, &values, &traced))
            .and_then(|()| drs_harness::write_text(&trace, &spans.to_chrome_json(w.name)))
            .map_err(io("trace files"))?;
        notes.push(format!(
            "per-layer metrics -> {}; spans -> {}",
            layers.display(),
            trace.display()
        ));
        values
    } else {
        metrics::end_to_end(&setups, &reps, peak_rss_mb()?)
    };
    Ok(Outcome { attempted: attempted as u64, failed: failed as u64, digest, metrics, notes })
}

/// The traced run's one-off measurements: a warm result-store rerun and the
/// chip-thread comparison. Returns them with the number of cells checked
/// against `reference` and the number that failed.
fn extras(
    w: &Workload,
    set: &JobSet,
    cache_dir: &Path,
    dir: &Path,
    reference: &GridRep,
) -> (Extras, usize, usize) {
    let jobs = &set.jobs;
    let mut checked = jobs.len();
    let mut failed = 0;
    let same = |a: &CellResult, b: &CellResult| a.stats == b.stats && a.chip == b.chip;

    // Populate a store, then time the warm rerun it serves completely.
    let store = Arc::new(ResultStore::new(dir.join("warm-store")));
    let opts = || RunOptions {
        capture: CaptureMode::Cached(StreamCache::new(cache_dir)),
        chip_threads: w.chip_threads(),
        store: Some(Arc::clone(&store)),
        ..RunOptions::serial()
    };
    run_jobs(jobs, &opts());
    let start = Instant::now();
    let warm = run_jobs(jobs, &opts());
    let warm_rerun = start.elapsed();
    failed += warm.cells.iter().zip(&reference.cells).filter(|(a, b)| !same(a, b)).count();
    failed += jobs.len() - (warm.store.hits as usize).min(jobs.len());

    let chip_threads = match w.chip() {
        None => None,
        Some(chip) => {
            let cache = StreamCache::new(cache_dir);
            let (mut one, mut two, mut sm_cycles) = (Duration::ZERO, Duration::ZERO, 0);
            for spec in set.distinct_workloads() {
                let streams = cache.get_or_capture(&spec);
                for (job, cell) in
                    jobs.iter().zip(&reference.cells).filter(|(j, _)| j.workload == spec)
                {
                    if cell.empty {
                        continue;
                    }
                    let scripts = &streams.bounce(job.bounce).scripts;
                    for (threads, total) in [(1, &mut one), (2, &mut two)] {
                        let cfg = CellConfig {
                            chip: Some(chip),
                            chip_threads: threads,
                            ..CellConfig::new(job.method, job.warps)
                        };
                        let start = Instant::now();
                        let (out, _, _) = run_chip_cell(&cfg, scripts, None);
                        *total += start.elapsed();
                        checked += 1;
                        failed += usize::from(out.map_or(true, |r| r.aggregate != cell.stats));
                    }
                    sm_cycles += crate::grid::sim_cycles(cell);
                }
            }
            Some((one, two, sm_cycles))
        }
    };

    (Extras { warm_rerun, chip_threads }, checked, failed)
}

/// For grids with both Aila and DRS cells: the mean over scenes of the DRS
/// over Aila simulated throughput (each summed over bounces), against the
/// paper's 1.79.
fn paper_ratio(cells: &[CellResult]) -> Option<String> {
    // Rays per cycle: Mrays/s up to the clock and SMX count, which cancel.
    let mrays = |scene, is_method: fn(&Method) -> bool| {
        let (rays, cycles) = cells
            .iter()
            .filter(|c| c.job.workload.scene == scene && is_method(&c.job.method))
            .fold((0u64, 0u64), |(r, y), c| (r + c.stats.rays_completed, y + c.stats.cycles));
        (cycles > 0).then(|| rays as f64 / cycles as f64)
    };
    // Cells are scene-major, so adjacent duplicates are all the duplicates.
    let mut scenes: Vec<_> = cells.iter().map(|c| c.job.workload.scene).collect();
    scenes.dedup();
    let ratios: Vec<f64> = scenes
        .iter()
        .filter_map(|&s| {
            Some(mrays(s, |m| matches!(m, Method::Drs { .. }))? / mrays(s, |m| *m == Method::Aila)?)
        })
        .collect();
    if ratios.is_empty() {
        return None;
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let err = (mean - PAPER_DRS_SPEEDUP).abs() / PAPER_DRS_SPEEDUP * 100.0;
    Some(format!(
        "paper check: mean per-scene DRS/Aila simulated Mrays/s = {mean:.4} over {} scenes \
         (paper {PAPER_DRS_SPEEDUP}; off by {err:.2}%)",
        ratios.len()
    ))
}

/// `DIR/<workload>.layers.json`: the per-layer metrics plus every cell of
/// the traced pass they were taken from.
fn layers_json(w: &Workload, seed: u64, values: &Values, traced: &[TracedRep]) -> String {
    let mut j = drs_sim::JsonBuf::new();
    j.begin_obj();
    j.kv_str("workload", w.name);
    j.kv_u64("seed", seed);
    j.key("metrics");
    j.begin_obj();
    for (name, value) in values {
        j.kv_f64(name, *value);
    }
    j.end_obj();
    j.key("cells");
    j.begin_arr();
    for cell in &metrics::median_pass(traced).cells {
        j.begin_obj();
        j.kv_str("cell", &cell.name);
        j.kv_str("unit", cell.unit.name());
        j.kv_f64("wall_s", cell.wall.as_secs_f64());
        j.kv_f64("special_s", cell.special_time().as_secs_f64());
        j.kv_u64("cycles", cell.cycles);
        j.kv_u64("ticks", cell.special.ticks);
        j.kv_u64("kernel_calls", cell.kernel_calls);
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
