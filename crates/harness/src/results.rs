//! Machine-readable experiment results: the repo's perf trajectory.
//!
//! Every run of the `experiments` binary emits one JSON document
//! (`BENCH_experiments.json` by default) containing a record per cell —
//! Mrays/s, SIMD efficiency, the full counter set of
//! [`drs_sim::SimStats`], and per-cell wall-clock. CI uploads the file
//! as an artifact on every push, so regressions show up as a diffable
//! number series instead of a human eyeballing stdout tables.
//!
//! Run-volatile telemetry — whole-run wall clock, worker count, cache
//! and store counters, the aggregated metrics object — lives in a
//! separate run document ([`ResultsFile::run_json`], written to
//! `<out stem>_run.json`). Splitting the two is what makes a warm
//! result-store rerun emit a byte-identical `BENCH_experiments.json`:
//! stored cells replay their original wall-clock, while the numbers
//! that legitimately differ between a cold and a warm run never enter
//! the results document at all.

use crate::entry::EntryCounters;
use crate::job::SimJob;
use crate::pool::RunReport;
use crate::store::{get_bool, get_opt, get_u64, parse_chip, parse_stats};
use crate::SCHEMA_VERSION;
use drs_scene::SceneKind;
use drs_sim::{GpuConfig, JsonBuf, SimStats};
use drs_telemetry::check::{self, Value};
use drs_telemetry::{ChipTelemetryReport, TelemetryReport};
use std::io::Write;
use std::path::Path;

/// A structured record of why a cell failed — attached to the cell's JSON
/// instead of being printed to stderr and lost.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Machine-readable failure class: `panic`, `capture`, or a
    /// [`SimErrorKind`](drs_sim::SimErrorKind) label (`watchdog`,
    /// `cycle_limit`, `invariant`, `deadline`, `chip_config`).
    pub kind: String,
    /// Human-readable description of the final failed attempt.
    pub message: String,
    /// Simulation cycle the failure fired at (absent for panics and
    /// capture errors, which happen outside the simulated clock).
    pub cycle: Option<u64>,
    /// True when the failure was deterministically injected via a
    /// [`FaultPlan`](crate::fault::FaultPlan).
    pub injected: bool,
    /// Rendered per-warp SIMT state at a watchdog trip (the dump that was
    /// previously printed to stderr), captured as data.
    pub warp_dump: Option<String>,
}

impl CellFailure {
    /// A failure outside the simulated clock (no cycle, no warp dump).
    pub(crate) fn new(kind: &str, message: String, injected: bool) -> CellFailure {
        CellFailure { kind: kind.to_string(), message, cycle: None, injected, warp_dump: None }
    }

    /// Append this failure as a JSON object. `attempts` is the total
    /// number of attempts the pool made on the cell.
    pub fn write_json(&self, j: &mut JsonBuf, attempts: u32) {
        j.begin_obj();
        j.kv_str("kind", &self.kind);
        j.kv_str("message", &self.message);
        j.kv_u64("attempts", attempts as u64);
        if let Some(cycle) = self.cycle {
            j.kv_u64("cycle", cycle);
        }
        j.kv_bool("injected", self.injected);
        if let Some(dump) = &self.warp_dump {
            j.kv_str("warp_dump", dump);
        }
        j.end_obj();
    }
}

/// Shared-memory-system outcome of a full-chip cell: the contention
/// counters no single-SMX run can produce, plus the per-SM completion
/// profile. Attached to [`CellResult`] when the job ran in chip mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChipSummary {
    /// SM engines the cell ran with.
    pub sms: usize,
    /// Shared (banked) L2 hits, chip-wide.
    pub l2_hits: u64,
    /// Shared L2 misses, chip-wide.
    pub l2_misses: u64,
    /// Lines displaced from the shared L2 to make room for a fill.
    pub l2_evictions: u64,
    /// Line requests that reached the shared system.
    pub requests: u64,
    /// Lines fetched over the DRAM channel.
    pub dram_lines: u64,
    /// Total DRAM-channel busy time in 1/1024-cycle fixed point
    /// (`dram_lines × cycles_per_line_q`); divided by the chip's cycle
    /// count it yields the channel utilization.
    pub dram_busy_q: u64,
    /// Cycles requests spent queued behind a saturated DRAM channel.
    pub dram_queue_cycles: u64,
    /// Cycles lost to same-bank serialization at the L2.
    pub bank_conflict_cycles: u64,
    /// Requests merged into an in-flight fetch of the same line
    /// (cross-SM MSHR sharing).
    pub mshr_merges: u64,
    /// Requests that waited for a free MSHR (pool exhausted).
    pub mshr_waits: u64,
    /// Per-SM cycle counts, SM order (the chip's cycles is the max).
    pub per_sm_cycles: Vec<u64>,
    /// Per-SM completed rays, SM order.
    pub per_sm_rays: Vec<u64>,
}

impl ChipSummary {
    /// Append this summary as a JSON object.
    pub fn write_json(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.kv_u64("sms", self.sms as u64);
        j.kv_u64("l2_hits", self.l2_hits);
        j.kv_u64("l2_misses", self.l2_misses);
        j.kv_u64("l2_evictions", self.l2_evictions);
        j.kv_u64("requests", self.requests);
        j.kv_u64("dram_lines", self.dram_lines);
        j.kv_u64("dram_busy_q", self.dram_busy_q);
        j.kv_u64("dram_queue_cycles", self.dram_queue_cycles);
        j.kv_u64("bank_conflict_cycles", self.bank_conflict_cycles);
        j.kv_u64("mshr_merges", self.mshr_merges);
        j.kv_u64("mshr_waits", self.mshr_waits);
        for (key, values) in
            [("per_sm_cycles", &self.per_sm_cycles), ("per_sm_rays", &self.per_sm_rays)]
        {
            j.key(key);
            j.begin_arr();
            for &v in values {
                j.u64(v);
            }
            j.end_arr();
        }
        j.end_obj();
    }
}

/// The outcome of one experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The job that produced this cell.
    pub job: SimJob,
    /// True when the workload had no surviving rays at this bounce (the
    /// stats are all zero and no simulation ran).
    pub empty: bool,
    /// False when the simulation ended short of full completion (see
    /// [`CellResult::failure`] for why).
    pub completed: bool,
    /// Full simulator counter set. For failed cells these are the partial
    /// counters up to the failure point (zeros for panics).
    pub stats: SimStats,
    /// Stall-attribution / timeline report, present when the run had
    /// telemetry enabled (see [`RunOptions::telemetry`](crate::RunOptions)).
    pub telemetry: Option<TelemetryReport>,
    /// Per-SM stall-attribution reports for full-chip cells run with
    /// telemetry, SM order (single-SMX cells leave this empty and use
    /// [`CellResult::telemetry`]).
    pub sm_telemetry: Vec<TelemetryReport>,
    /// Chip memory-system interval series (per-bank L2, MSHR pool, DRAM
    /// channel, NoC) plus the cross-SM interference matrix, for full-chip
    /// cells run with telemetry.
    pub chip_telemetry: Option<ChipTelemetryReport>,
    /// Why the cell failed, when it did. Every failed attempt's class and
    /// message survive into the results JSON instead of killing the run.
    pub failure: Option<CellFailure>,
    /// Shared-memory-system counters and the per-SM profile, for cells
    /// that ran in full-chip mode (`job.chip` set). In chip mode
    /// [`CellResult::stats`] is the chip-wide aggregate: rays are summed
    /// across SMs and `stats.l2` is the shared L2, so throughput uses an
    /// SMX scale factor of 1.
    pub chip: Option<ChipSummary>,
    /// Attempts the pool made on this cell (1 = first try succeeded).
    pub attempts: u32,
    /// Wall-clock of this cell's simulation in milliseconds (excluded
    /// from determinism comparisons — compare [`CellResult::stats`]).
    pub wall_ms: f64,
}

impl CellResult {
    /// A cell of `job` that has not run: not completed, zero stats, no
    /// artifacts, one attempt.
    pub(crate) fn blank(job: SimJob) -> CellResult {
        CellResult {
            job,
            empty: false,
            completed: false,
            stats: SimStats::default(),
            telemetry: None,
            sm_telemetry: Vec::new(),
            chip_telemetry: None,
            failure: None,
            chip: None,
            attempts: 1,
            wall_ms: 0.0,
        }
    }

    /// Whole-GPU throughput for this cell. Single-SMX cells scale by
    /// `smx_count`; chip cells already aggregate every SM's rays, so
    /// their stats are whole-chip and scale by 1.
    pub fn mrays_per_sec(&self, gpu: &GpuConfig) -> f64 {
        let smx = if self.job.chip.is_some() { 1 } else { gpu.smx_count };
        self.stats.mrays_per_sec(gpu.clock_mhz, smx)
    }

    /// Short human label for logs and trace process names.
    pub fn cell_name(&self) -> String {
        format!(
            "{}/{}/b{}/w{}",
            self.job.workload.scene,
            self.job.method.label(),
            self.job.bounce,
            self.job.warps
        )
    }

    /// Append the cell's telemetry reports (single-SMX, per-SM and chip
    /// memory-system), each under its own key when present.
    fn write_telemetry_json(&self, j: &mut JsonBuf) {
        if let Some(report) = &self.telemetry {
            j.key("telemetry");
            report.write_json(j);
        }
        if !self.sm_telemetry.is_empty() {
            j.key("sm_telemetry");
            j.begin_arr();
            for report in &self.sm_telemetry {
                report.write_json(j);
            }
            j.end_arr();
        }
        if let Some(report) = &self.chip_telemetry {
            j.key("chip_telemetry");
            report.write_json(j);
        }
    }

    /// Append this cell as a JSON object. `figures` names the figures /
    /// tables that reference the cell (one cell can serve several).
    pub fn write_json(&self, j: &mut JsonBuf, figures: &[String], gpu: &GpuConfig) {
        j.begin_obj();
        j.kv_str("id", &self.job.id().to_string());
        j.key("figures");
        j.begin_arr();
        for f in figures {
            j.str(f);
        }
        j.end_arr();
        j.kv_str("scene", &self.job.workload.scene.to_string());
        j.kv_u64("tris", self.job.workload.tris as u64);
        j.kv_u64("rays_per_bounce", self.job.workload.rays as u64);
        j.kv_u64("capture_depth", self.job.workload.bounces as u64);
        j.kv_u64("seed", self.job.workload.seed);
        j.kv_u64("bounce", self.job.bounce as u64);
        j.kv_str("method", &self.job.method.label());
        j.kv_u64("warps", self.job.warps as u64);
        if let Some(chip) = &self.job.chip {
            j.key("chip_config");
            j.begin_obj();
            j.kv_u64("sms", chip.sms as u64);
            j.kv_u64("l2_banks", chip.l2_banks as u64);
            j.kv_u64("shared_mshrs", chip.shared_mshrs as u64);
            j.kv_u64("dram_gbps", u64::from(chip.dram_gbps));
            j.kv_u64("noc_latency", u64::from(chip.noc_latency));
            j.end_obj();
        }
        j.kv_bool("empty", self.empty);
        j.kv_bool("completed", self.completed);
        j.kv_u64("attempts", self.attempts as u64);
        if let Some(failure) = &self.failure {
            j.key("failure");
            failure.write_json(j, self.attempts);
        }
        if let Some(chip) = &self.chip {
            j.key("chip");
            chip.write_json(j);
        }
        if let Some(report) = &self.chip_telemetry {
            j.key("chip_telemetry");
            report.write_totals_json(j);
        }
        j.kv_f64("wall_ms", self.wall_ms);
        j.kv_f64("mrays_per_sec", self.mrays_per_sec(gpu));
        j.kv_f64("simd_efficiency", self.stats.simd_efficiency());
        j.key("stats");
        self.stats.write_json(j);
        j.end_obj();
    }
}

/// The part of one cell the figures read: what [`ResultsFile::to_json`]
/// writes for it and [`ResultsDoc::parse`] reads back, equal either way.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Scene of the cell's workload.
    pub scene: SceneKind,
    /// Bounce the cell simulated.
    pub bounce: usize,
    /// [`Method::label`](crate::Method::label) of the cell's method.
    pub method: String,
    /// SM count of the full-chip config the cell ran with, if any.
    pub chip_sms: Option<usize>,
    /// No surviving rays at this bounce.
    pub empty: bool,
    /// The simulation ran to completion.
    pub completed: bool,
    /// Full counter set.
    pub stats: SimStats,
    /// Shared-memory-system summary, for full-chip cells.
    pub chip: Option<ChipSummary>,
}

impl CellRecord {
    /// The record of a cell in memory.
    fn of(cell: &CellResult) -> CellRecord {
        CellRecord {
            scene: cell.job.workload.scene,
            bounce: cell.job.bounce,
            method: cell.job.method.label(),
            chip_sms: cell.job.chip.map(|c| c.sms),
            empty: cell.empty,
            completed: cell.completed,
            stats: cell.stats.clone(),
            chip: cell.chip.clone(),
        }
    }

    /// Invert the fields [`CellResult::write_json`] writes for a record.
    fn parse(v: &Value) -> Option<CellRecord> {
        let scene = v.get("scene")?.as_str()?;
        Some(CellRecord {
            scene: SceneKind::ALL.into_iter().find(|k| k.name() == scene)?,
            bounce: get_u64(v, "bounce")? as usize,
            method: v.get("method")?.as_str()?.to_string(),
            chip_sms: get_opt(v, "chip_config", |c| Some(get_u64(c, "sms")? as usize)).ok()?,
            empty: get_bool(v, "empty")?,
            completed: get_bool(v, "completed")?,
            stats: parse_stats(v.get("stats")?)?,
            chip: get_opt(v, "chip", parse_chip).ok()?,
        })
    }
}

/// A results document as the figures read it: the run's mode and one
/// [`CellRecord`] per cell, in document order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsDoc {
    /// The mode the binary ran (`?` when the document names none).
    pub mode: String,
    /// Every cell of the document.
    pub cells: Vec<CellRecord>,
}

impl ResultsDoc {
    /// Read back a document written by [`ResultsFile::to_json`].
    ///
    /// # Errors
    ///
    /// Says why the text is not a results document: not JSON, no `cells`
    /// array, or the first cell that does not decode.
    pub fn parse(text: &str) -> Result<ResultsDoc, String> {
        let doc = check::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let raw = doc
            .get("cells")
            .and_then(Value::as_arr)
            .ok_or("document has no 'cells' array — is this a BENCH_experiments.json?")?;
        let cells = raw
            .iter()
            .enumerate()
            .map(|(i, c)| CellRecord::parse(c).ok_or_else(|| format!("cell {i} is malformed")))
            .collect::<Result<_, _>>()?;
        let mode = doc.get("mode").and_then(Value::as_str).unwrap_or("?").to_string();
        Ok(ResultsDoc { mode, cells })
    }
}

/// A complete results document ready to serialize.
#[derive(Debug)]
pub struct ResultsFile {
    /// The mode the binary ran (`fig10`, `all`, …).
    pub mode: String,
    /// Worker threads used.
    pub workers: usize,
    /// Capture-cache telemetry.
    pub cache: EntryCounters,
    /// Result-store telemetry (zeros when the run had no store).
    pub store: EntryCounters,
    /// Whole-run wall clock in milliseconds.
    pub wall_ms: f64,
    /// Cells reused from the run's resume store instead of being
    /// re-simulated.
    pub resumed: usize,
    /// Entries written to the run's resume store.
    pub checkpoint_writes: u64,
    /// `(figures-that-use-it, cell)` in deterministic job order.
    pub cells: Vec<(Vec<String>, CellResult)>,
}

impl ResultsFile {
    /// Assemble a document from a pool report. `figures_of` maps each job
    /// index to the figure names that requested it.
    pub fn from_report(
        mode: &str,
        workers: usize,
        report: RunReport,
        figures_of: Vec<Vec<String>>,
    ) -> ResultsFile {
        assert_eq!(report.cells.len(), figures_of.len(), "one figure list per cell");
        ResultsFile {
            mode: mode.to_string(),
            workers,
            cache: report.cache,
            store: report.store,
            wall_ms: report.wall_ms,
            resumed: report.resumed,
            checkpoint_writes: report.checkpoint_writes,
            cells: figures_of.into_iter().zip(report.cells).collect(),
        }
    }

    /// Run-level execution metrics aggregated over every cell: the
    /// fault-tolerance story of the run as one object (retry attempts,
    /// checkpoint writes, per-cell wall-clock spread) — so CI can watch
    /// harness health, not just simulator counters. Cache and store
    /// traffic sit beside it in the run document, not in it.
    fn write_metrics_json(&self, j: &mut JsonBuf) {
        let attempts: u64 = self.cells.iter().map(|(_, c)| c.attempts as u64).sum();
        let cells = self.cells.len() as u64;
        let failed = self.cells.iter().filter(|(_, c)| c.failure.is_some()).count() as u64;
        let empty = self.cells.iter().filter(|(_, c)| c.empty).count() as u64;
        let wall: Vec<f64> = self.cells.iter().map(|(_, c)| c.wall_ms).collect();
        let wall_sum: f64 = wall.iter().sum();
        j.begin_obj();
        j.kv_u64("cells_total", cells);
        j.kv_u64("cells_failed", failed);
        j.kv_u64("cells_empty", empty);
        j.kv_u64("attempts", attempts);
        j.kv_u64("retries", attempts - cells.min(attempts));
        j.kv_u64("resumed", self.resumed as u64);
        j.kv_u64("checkpoint_writes", self.checkpoint_writes);
        j.kv_f64("cell_wall_ms_sum", wall_sum);
        j.kv_f64("cell_wall_ms_max", wall.iter().copied().fold(0.0, f64::max));
        j.kv_f64("cell_wall_ms_mean", wall_sum / (cells.max(1)) as f64);
        j.end_obj();
    }

    /// Serialize the results document. Deterministic given the cells:
    /// no worker count, run wall-clock, or cache/store counters — those
    /// live in [`ResultsFile::run_json`]. Per-cell `wall_ms` stays (a
    /// store-served cell replays its stored value byte-for-byte), so a
    /// warm rerun of a completed grid emits an identical document.
    pub fn to_json(&self) -> String {
        let gpu = GpuConfig::gtx780();
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.kv_u64("schema_version", SCHEMA_VERSION as u64);
        j.kv_str("suite", "drs-experiments");
        j.kv_str("mode", &self.mode);
        j.key("gpu");
        j.begin_obj();
        j.kv_u64("clock_mhz", gpu.clock_mhz as u64);
        j.kv_u64("smx_count", gpu.smx_count as u64);
        j.end_obj();
        j.key("cells");
        j.begin_arr();
        for (figures, cell) in &self.cells {
            cell.write_json(&mut j, figures, &gpu);
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// The records [`ResultsDoc::parse`] reads back from
    /// [`ResultsFile::to_json`], taken from memory.
    pub fn doc(&self) -> ResultsDoc {
        let cells = self.cells.iter().map(|(_, c)| CellRecord::of(c)).collect();
        ResultsDoc { mode: self.mode.clone(), cells }
    }

    /// Serialize the run document: everything that legitimately differs
    /// between two executions of the same grid — worker count, whole-run
    /// wall clock, capture-cache and result-store counters, and the
    /// aggregated metrics object. Written beside the results file as
    /// `<out stem>_run.json`.
    pub fn run_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.kv_u64("schema_version", SCHEMA_VERSION as u64);
        j.kv_str("suite", "drs-experiments-run");
        j.kv_str("mode", &self.mode);
        j.kv_u64("workers", self.workers as u64);
        j.key("capture_cache");
        self.cache.write_json(&mut j);
        j.key("store");
        self.store.write_json(&mut j);
        j.key("metrics");
        self.write_metrics_json(&mut j);
        j.kv_f64("wall_ms", self.wall_ms);
        j.end_obj();
        j.finish()
    }

    /// A deterministic, stats-only dump of every cell: job identity plus
    /// the full [`SimStats`] counter set and (when present) the telemetry
    /// report — no wall-clock, cache, or worker-count fields. Two runs
    /// over identical inputs produce byte-identical dumps regardless of
    /// machine speed, worker count, or the engine fast path; CI diffs
    /// this file across `--no-fastpath` to prove the fast path changes
    /// nothing observable.
    pub fn stats_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.kv_u64("schema_version", SCHEMA_VERSION as u64);
        j.kv_str("suite", "drs-experiments-stats");
        j.kv_str("mode", &self.mode);
        j.key("cells");
        j.begin_arr();
        for (_, cell) in &self.cells {
            j.begin_obj();
            j.kv_str("id", &cell.job.id().to_string());
            j.kv_str("cell", &cell.cell_name());
            j.kv_bool("empty", cell.empty);
            j.kv_bool("completed", cell.completed);
            if let Some(failure) = &cell.failure {
                j.key("failure");
                failure.write_json(&mut j, cell.attempts);
            }
            if let Some(chip) = &cell.chip {
                j.key("chip");
                chip.write_json(&mut j);
            }
            j.key("stats");
            cell.stats.write_json(&mut j);
            cell.write_telemetry_json(&mut j);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Write the document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the caller decides whether a missing
    /// results file fails the run).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        write_text(path, &self.to_json())
    }

    /// True when the cell produced any telemetry artifact (single-SMX
    /// report, per-SM chip reports, or the chip memory-system report).
    fn instrumented(cell: &CellResult) -> bool {
        cell.telemetry.is_some() || !cell.sm_telemetry.is_empty() || cell.chip_telemetry.is_some()
    }

    /// The timeline artifact: one record per instrumented cell carrying
    /// its full [`TelemetryReport`] (stall-bucket totals + interval
    /// series). Chip cells carry the per-SM report array plus the full
    /// chip memory-system interval series and interference matrix.
    /// `None` when no cell has telemetry.
    pub fn timeline_json(&self) -> Option<String> {
        if !self.cells.iter().any(|(_, c)| Self::instrumented(c)) {
            return None;
        }
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.kv_u64("schema_version", SCHEMA_VERSION as u64);
        j.kv_str("suite", "drs-telemetry-timeline");
        j.kv_str("mode", &self.mode);
        j.key("cells");
        j.begin_arr();
        for (_, cell) in &self.cells {
            if !Self::instrumented(cell) {
                continue;
            }
            j.begin_obj();
            j.kv_str("id", &cell.job.id().to_string());
            j.kv_str("cell", &cell.cell_name());
            j.kv_f64("simd_efficiency", cell.stats.simd_efficiency());
            cell.write_telemetry_json(&mut j);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        Some(j.finish())
    }

    /// A Chrome trace-event document covering every instrumented cell.
    /// Single-SMX cells become one process; chip cells become one process
    /// per SM (`cell/smK` warp rows) plus the memory-system rows — one
    /// process per L2 bank and one for DRAM/MSHR/NoC counters. `None`
    /// when no cell has telemetry.
    pub fn chrome_trace_json(&self) -> Option<String> {
        if !self.cells.iter().any(|(_, c)| Self::instrumented(c)) {
            return None;
        }
        let mut b = drs_telemetry::chrome::TraceBuilder::new();
        for (_, cell) in &self.cells {
            let name = cell.cell_name();
            if let Some(report) = &cell.telemetry {
                b.add_cell(&name, report);
            }
            for (sm, report) in cell.sm_telemetry.iter().enumerate() {
                b.add_cell(&format!("{name}/sm{sm}"), report);
            }
            if let Some(report) = &cell.chip_telemetry {
                b.add_chip(&name, report);
            }
        }
        Some(b.finish())
    }
}

/// Write `text` (plus a trailing newline) to `path`, creating parent
/// directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_text(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())?;
    f.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Method, Scale, WorkloadSpec};
    use drs_scene::SceneKind;

    fn sample_cell() -> CellResult {
        let scale = Scale::default();
        let wl = WorkloadSpec::standard(SceneKind::Conference, &scale, 8);
        CellResult {
            job: SimJob {
                workload: wl,
                bounce: 2,
                method: Method::drs_default(),
                warps: 58,
                chip: None,
            },
            empty: false,
            completed: true,
            stats: SimStats { cycles: 10, rays_completed: 5, ..Default::default() },
            telemetry: None,
            sm_telemetry: Vec::new(),
            chip_telemetry: None,
            failure: None,
            chip: None,
            attempts: 1,
            wall_ms: 1.25,
        }
    }

    fn file_with(mode: &str, workers: usize, wall_ms: f64, cache: EntryCounters) -> ResultsFile {
        ResultsFile {
            mode: mode.into(),
            workers,
            cache,
            store: EntryCounters::default(),
            wall_ms,
            resumed: 0,
            checkpoint_writes: 0,
            cells: Vec::new(),
        }
    }

    #[test]
    fn chip_cells_carry_summary_and_scale_by_one() {
        use drs_sim::ChipConfig;
        let mut cell = sample_cell();
        let plain_mrays = cell.mrays_per_sec(&GpuConfig::gtx780());
        cell.job.chip = Some(ChipConfig::gtx780(2));
        cell.chip = Some(ChipSummary {
            sms: 2,
            l2_hits: 30,
            l2_misses: 10,
            l2_evictions: 4,
            requests: 40,
            dram_lines: 10,
            dram_busy_q: 5 * 1024,
            dram_queue_cycles: 7,
            bank_conflict_cycles: 3,
            mshr_merges: 2,
            mshr_waits: 1,
            per_sm_cycles: vec![10, 9],
            per_sm_rays: vec![3, 2],
        });
        let gpu = GpuConfig::gtx780();
        assert!(
            (cell.mrays_per_sec(&gpu) - plain_mrays / gpu.smx_count as f64).abs() < 1e-12,
            "chip cells must not re-scale by smx_count"
        );
        let mut file = file_with("fig2", 1, 1.0, EntryCounters::default());
        file.cells = vec![(vec!["fig2".into()], cell)];
        for json in [file.to_json(), file.stats_json()] {
            for needle in [
                "\"chip\":{\"sms\":2",
                "\"l2_evictions\":4",
                "\"dram_busy_q\":5120",
                "\"dram_queue_cycles\":7",
                "\"bank_conflict_cycles\":3",
                "\"mshr_merges\":2",
                "\"per_sm_cycles\":[10,9]",
                "\"per_sm_rays\":[3,2]",
            ] {
                assert!(json.contains(needle), "missing {needle} in {json}");
            }
        }
        assert!(file.to_json().contains("\"chip_config\":{\"sms\":2"));
    }

    #[test]
    fn results_doc_reads_back_what_to_json_writes() {
        use drs_sim::ChipConfig;
        let mut chip = sample_cell();
        chip.job.chip = Some(ChipConfig::gtx780(2));
        chip.chip =
            Some(ChipSummary { sms: 2, l2_hits: 3, per_sm_rays: vec![1, 4], ..Default::default() });
        let mut failed = sample_cell();
        failed.job.bounce = 3;
        failed.completed = false;
        failed.failure = Some(CellFailure::new("panic", "boom".into(), true));
        let empty = CellResult { empty: true, ..sample_cell() };
        let mut file = file_with("fig2", 1, 1.0, EntryCounters::default());
        file.cells = [chip, failed, empty].map(|c| (vec!["fig2".into()], c)).into();
        let doc = ResultsDoc::parse(&file.to_json()).unwrap();
        assert_eq!(doc, file.doc());
        assert_eq!(doc.cells[0].chip_sms, Some(2));
        assert_eq!((doc.cells[1].bounce, doc.cells[1].completed), (3, false));
        assert!(doc.cells[2].empty);
        let err = ResultsDoc::parse(&file.to_json().replace("\"loads\":0,", "")).unwrap_err();
        assert_eq!(err, "cell 0 is malformed");
    }

    #[test]
    fn results_file_contains_required_fields() {
        let mut file =
            file_with("fig10", 4, 12.5, EntryCounters { hits: 3, misses: 1, ..Default::default() });
        file.cells = vec![(vec!["fig10".into(), "fig11".into()], sample_cell())];
        let json = file.to_json();
        for needle in [
            "\"schema_version\":4",
            "\"mode\":\"fig10\"",
            "\"mrays_per_sec\":",
            "\"simd_efficiency\":",
            "\"figures\":[\"fig10\",\"fig11\"]",
            "\"method\":\"DRS(M=1,B=6)\"",
            "\"stats\":{\"cycles\":10",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn run_doc_carries_the_volatile_fields_and_results_doc_does_not() {
        let mut file = file_with(
            "fig10",
            4,
            12.5,
            EntryCounters { hits: 3, misses: 1, size_evictions: 2, ..Default::default() },
        );
        file.store = EntryCounters { hits: 5, misses: 7, writes: 7, ..Default::default() };
        file.cells = vec![(vec!["fig10".into()], sample_cell())];
        let run = file.run_json();
        for needle in [
            "\"suite\":\"drs-experiments-run\"",
            "\"workers\":4",
            "\"capture_cache\":{\"hits\":3",
            "\"size_evictions\":2",
            "\"store\":{\"hits\":5,\"misses\":7,\"writes\":7",
            "\"metrics\":{\"cells_total\":1",
            "\"retries\":0",
            "\"wall_ms\":12.5",
        ] {
            assert!(run.contains(needle), "missing {needle} in {run}");
        }
        // Each counter set is written once, as its own object.
        assert_eq!(run.matches("\"hits\":").count(), 2, "{run}");
        assert!(!run.contains("cache_hits") && !run.contains("store_hits"), "{run}");
        // The results document is deterministic: none of the run-volatile
        // fields appear (per-cell wall_ms is the only timing it carries).
        let json = file.to_json();
        for stray in ["\"workers\"", "\"capture_cache\"", "\"metrics\"", "\"store\""] {
            assert!(!json.contains(stray), "results doc must not carry {stray}");
        }
    }

    #[test]
    fn results_doc_is_identical_across_worker_and_cache_variation() {
        let make = |workers: usize, hits: u64| {
            let mut f = file_with(
                "fig2",
                workers,
                workers as f64 * 7.0,
                EntryCounters { hits, ..Default::default() },
            );
            f.store = EntryCounters { hits, ..Default::default() };
            f.cells = vec![(vec!["fig2".into()], sample_cell())];
            f
        };
        assert_eq!(
            make(1, 0).to_json(),
            make(8, 9).to_json(),
            "warm-store byte-identity depends on this"
        );
    }

    #[test]
    fn stats_dump_excludes_timing_and_is_reproducible() {
        let make = |wall_ms: f64, workers: usize| {
            let mut f = file_with(
                "fig2",
                workers,
                wall_ms,
                EntryCounters { hits: workers as u64, ..Default::default() },
            );
            f.cells = vec![(vec!["fig2".into()], CellResult { wall_ms, ..sample_cell() })];
            f
        };
        let a = make(1.25, 1).stats_json();
        let b = make(99.0, 8).stats_json();
        assert_eq!(a, b, "stats dump must not depend on timing or worker count");
        assert!(!a.contains("wall_ms"));
        assert!(!a.contains("workers"));
        assert!(a.contains("\"suite\":\"drs-experiments-stats\""));
        assert!(a.contains("\"stats\":{\"cycles\":10"));
    }

    #[test]
    fn failed_cells_carry_structured_failure_records() {
        let mut cell = sample_cell();
        cell.completed = false;
        cell.attempts = 2;
        cell.failure = Some(CellFailure {
            kind: "watchdog".into(),
            message: "no progress for 40 cycles".into(),
            cycle: Some(123),
            injected: true,
            warp_dump: Some("warp 0: stalled".into()),
        });
        let mut file = file_with("fig2", 1, 1.0, EntryCounters::default());
        file.cells = vec![(vec!["fig2".into()], cell)];
        for json in [file.to_json(), file.stats_json()] {
            for needle in [
                "\"completed\":false",
                "\"failure\":{\"kind\":\"watchdog\"",
                "\"message\":\"no progress for 40 cycles\"",
                "\"attempts\":2",
                "\"cycle\":123",
                "\"injected\":true",
                "\"warp_dump\":\"warp 0: stalled\"",
            ] {
                assert!(json.contains(needle), "missing {needle} in {json}");
            }
        }
        // Clean cells stay failure-free in both documents.
        let mut clean = file_with("fig2", 1, 1.0, EntryCounters::default());
        clean.cells = vec![(vec!["fig2".into()], sample_cell())];
        assert!(!clean.to_json().contains("\"failure\""));
        assert!(!clean.stats_json().contains("\"failure\""));
    }

    #[test]
    fn artifacts_absent_without_telemetry() {
        let mut file = file_with("fig2", 1, 1.0, EntryCounters::default());
        file.cells = vec![(vec!["fig2".into()], sample_cell())];
        assert!(file.timeline_json().is_none());
        assert!(file.chrome_trace_json().is_none());
    }

    #[test]
    fn artifacts_cover_instrumented_cells() {
        let mut cell = sample_cell();
        cell.telemetry = Some(TelemetryReport {
            warps: 2,
            cycles: 10,
            interval: 5,
            totals: [20, 0, 0, 0, 0, 0, 0, 0],
            ..TelemetryReport::default()
        });
        let mut file = file_with("fig2", 1, 1.0, EntryCounters::default());
        file.cells = vec![(vec!["fig2".into()], sample_cell()), (vec!["fig2".into()], cell)];
        let timeline = file.timeline_json().expect("one instrumented cell");
        assert!(timeline.contains("\"suite\":\"drs-telemetry-timeline\""));
        assert!(timeline.contains("\"stall_buckets\""));
        // Only the instrumented cell is listed.
        assert_eq!(timeline.matches("\"cell\":").count(), 1);
        let trace = file.chrome_trace_json().expect("one instrumented cell");
        let summary = drs_telemetry::check::validate_chrome_trace(&trace).unwrap();
        assert_eq!(summary.pids, vec![0]);
        assert_eq!(summary.metadata_events, 3, "process + two warp threads");
    }

    #[test]
    fn chip_cells_fan_out_into_per_sm_and_memsys_trace_rows() {
        use drs_telemetry::{ChipIntervalSample, ChipTelemetryReport};
        let sm_report = TelemetryReport {
            warps: 2,
            cycles: 10,
            interval: 5,
            totals: [20, 0, 0, 0, 0, 0, 0, 0],
            ..TelemetryReport::default()
        };
        let mut sample = ChipIntervalSample::empty(2, 2);
        sample.end = 10;
        let chip_report = ChipTelemetryReport {
            sms: 2,
            banks: 2,
            line_bytes: 128,
            mshrs: 4,
            cycles_per_line_q: 2048,
            interval: 10,
            cycles: 10,
            interference: vec![0; 4],
            intervals: vec![sample],
        };
        let mut cell = sample_cell();
        cell.sm_telemetry = vec![sm_report.clone(), sm_report];
        cell.chip_telemetry = Some(chip_report);
        let mut file = file_with("fig2", 1, 1.0, EntryCounters::default());
        file.cells = vec![(vec!["fig2".into()], cell)];
        // Results JSON embeds the compact chip-telemetry totals.
        assert!(file.to_json().contains("\"chip_telemetry\":{\"sms\":2"));
        // The timeline carries the per-SM reports and the full chip series.
        let timeline = file.timeline_json().expect("instrumented chip cell");
        assert!(timeline.contains("\"sm_telemetry\":["));
        assert!(timeline.contains("\"intervals\":["));
        assert!(timeline.contains("\"interference\":["));
        // The trace fans out: 2 SM processes + 2 bank processes + 1 DRAM/MSHR.
        let trace = file.chrome_trace_json().expect("instrumented chip cell");
        let summary = drs_telemetry::check::validate_chrome_trace(&trace).unwrap();
        assert_eq!(summary.pids, vec![0, 1, 2, 3, 4]);
        assert!(trace.contains("/sm0"));
        assert!(trace.contains("/sm1"));
        assert!(trace.contains("/L2 bank 1"));
        assert!(trace.contains("/DRAM+MSHR"));
    }
}
