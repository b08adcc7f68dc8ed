//! The traced run: every cell re-run outside the pool with observational
//! wrappers around the engine's two extension points. The special unit is
//! timed at `issue` and `tick` and its `next_event` answers are counted; the
//! kernel behavior's calls are counted but not timed (they are too short to
//! time without distorting the engine).
//!
//! `drs_harness::runner` builds its engines privately, so the wrappers need
//! engines built here, with the same constructors (`method_parts`, `gpu`
//! and the chip shard below). Two checks keep the copies equal to the
//! harness: every traced cell's `SimStats` must equal the pool's, and every
//! traced run first runs [`construction_check`] over all six `Method`
//! variants and a chip cell.

use crate::spans::Spans;
use drs_baselines::{DmkConfig, DmkKernel, DmkUnit, TbcConfig, TbcUnit};
use drs_core::system::RowedWhileIf;
use drs_core::{DrsConfig, DrsUnit, RAY_REGISTERS};
use drs_harness::{
    run_cell, run_chip_cell, CellConfig, CellResult, ChipConfig, JobSet, Method, Scale, SimJob,
    StreamCache, WorkloadSpec,
};
use drs_kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
use drs_scene::SceneKind;
use drs_sim::{
    GpuConfig, KernelBehavior, MachineState, NullSpecial, Program, SimError, SimStats, Simulation,
    SpecialOutcome, SpecialUnit,
};
use drs_trace::RayScript;
use std::cell::Cell;
use std::path::Path;
use std::time::{Duration, Instant};

/// The special unit a method runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// `NullSpecial` (Aila): counted, but its time stays in the engine.
    Null,
    /// The DRS swap engine.
    Drs,
    /// The DMK spawn unit.
    Dmk,
    /// The TBC compactor.
    Tbc,
}

impl Unit {
    /// The units whose time is split out of the engine's.
    pub const TIMED: [Unit; 3] = [Unit::Drs, Unit::Dmk, Unit::Tbc];

    /// The unit `method` runs with.
    pub fn of(method: Method) -> Unit {
        match method {
            Method::Aila | Method::AilaVariant { .. } => Unit::Null,
            Method::Dmk => Unit::Dmk,
            Method::Tbc => Unit::Tbc,
            Method::Drs { .. } | Method::IdealDrs => Unit::Drs,
        }
    }

    /// Metric-name segment.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Null => "null",
            Unit::Drs => "drs",
            Unit::Dmk => "dmk",
            Unit::Tbc => "tbc",
        }
    }
}

/// What the special-unit wrapper observed.
#[derive(Debug, Default, Clone)]
pub struct SpecialCounters {
    /// Time inside `tick`.
    pub tick: Duration,
    /// `tick` calls: one per cycle the engine stepped rather than skipped.
    pub ticks: u64,
    /// Time inside `issue`.
    pub issue: Duration,
    /// `issue` calls.
    pub issues: u64,
    /// `issue` calls answered `Stall`.
    pub stalls: u64,
    /// `next_event` calls (the fast path asking whether it may skip).
    pub polls: Cell<u64>,
    /// `next_event` answers that vetoed the skip (`Some(t)` with `t <= now`).
    pub vetoes: Cell<u64>,
    /// `next_event` answers of quiescence (`None`).
    pub quiescent: Cell<u64>,
}

impl SpecialCounters {
    /// Fold `other` into `self`.
    pub fn add(&mut self, other: &SpecialCounters) {
        self.tick += other.tick;
        self.ticks += other.ticks;
        self.issue += other.issue;
        self.issues += other.issues;
        self.stalls += other.stalls;
        self.polls.set(self.polls.get() + other.polls.get());
        self.vetoes.set(self.vetoes.get() + other.vetoes.get());
        self.quiescent.set(self.quiescent.get() + other.quiescent.get());
    }
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

struct TimedSpecial<'c> {
    inner: Box<dyn SpecialUnit>,
    c: &'c mut SpecialCounters,
}

impl SpecialUnit for TimedSpecial<'_> {
    fn issue(
        &mut self,
        warp: usize,
        token: u16,
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) -> SpecialOutcome {
        let start = Instant::now();
        let out = self.inner.issue(warp, token, m, stats);
        self.c.issue += start.elapsed();
        self.c.issues += 1;
        self.c.stalls += u64::from(out == SpecialOutcome::Stall);
        out
    }

    fn tick(
        &mut self,
        cycle: u64,
        idle_banks: &[bool],
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) {
        let start = Instant::now();
        self.inner.tick(cycle, idle_banks, m, stats);
        self.c.tick += start.elapsed();
        self.c.ticks += 1;
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        let out = self.inner.next_event(now);
        bump(&self.c.polls);
        match out {
            Some(t) if t <= now => bump(&self.c.vetoes),
            None => bump(&self.c.quiescent),
            Some(_) => {}
        }
        out
    }
}

struct CountedBehavior<'c> {
    inner: Box<dyn KernelBehavior>,
    calls: &'c mut Cell<u64>,
}

impl KernelBehavior for CountedBehavior<'_> {
    fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
        bump(self.calls);
        self.inner.eval_cond(token, warp, lane, m)
    }

    fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
        bump(self.calls);
        self.inner.eval_addr(token, warp, lane, m)
    }

    fn apply_effect(&self, token: u16, warp: usize, lane: usize, m: &mut MachineState<'_>) {
        bump(self.calls);
        self.inner.apply_effect(token, warp, lane, m);
    }

    fn slot_count(&self, warps: usize, lanes: usize) -> usize {
        self.inner.slot_count(warps, lanes)
    }

    fn initialize(&self, m: &mut MachineState<'_>) {
        self.inner.initialize(m);
    }
}

/// The per-SM GPU configuration `drs_harness::runner` gives a cell.
fn gpu(warps: usize) -> GpuConfig {
    GpuConfig { max_warps: warps, max_cycles: 4_000_000_000, ..GpuConfig::gtx780() }
}

/// Program, kernel behavior and special unit for `method`, built exactly as
/// `drs_harness::runner` builds them for `CellConfig::new` (the constant
/// transfer cost, no `validate` bounds: the benchmark builds without that
/// feature).
fn method_parts(
    method: Method,
    warps: usize,
) -> (Program, Box<dyn KernelBehavior>, Box<dyn SpecialUnit>) {
    let drs = |backup_rows, swap_buffers, ideal| {
        let cfg = DrsConfig { warps, backup_rows, swap_buffers, ideal, lanes: 32 };
        let parts: (Program, Box<dyn KernelBehavior>, Box<dyn SpecialUnit>) = (
            WhileIfKernel::new().program(),
            Box::new(RowedWhileIf::new(cfg.rows())),
            Box::new(DrsUnit::with_ray_regs(cfg, RAY_REGISTERS as u8)),
        );
        parts
    };
    match method {
        Method::Aila => {
            let k = WhileWhileKernel::new(WhileWhileConfig::default());
            (k.program(), Box::new(k), Box::new(NullSpecial))
        }
        Method::AilaVariant { speculative_traversal, replace_terminated } => {
            let k = WhileWhileKernel::new(WhileWhileConfig {
                speculative_traversal,
                replace_terminated,
            });
            (k.program(), Box::new(k), Box::new(NullSpecial))
        }
        Method::Dmk => {
            let cfg = DmkConfig { warps, lanes: 32, pool_slots: warps * 32 };
            let k = DmkKernel::new(cfg);
            (k.program(), Box::new(k), Box::new(DmkUnit::new(cfg)))
        }
        Method::Tbc => {
            let k = WhileIfKernel::new();
            let cfg = TbcConfig { warps, lanes: 32, warps_per_block: 6.min(warps) };
            (k.program(), Box::new(k), Box::new(TbcUnit::new(cfg)))
        }
        Method::Drs { backup_rows, swap_buffers, .. } => drs(backup_rows, swap_buffers, false),
        Method::IdealDrs => drs(1, 6, true),
    }
}

/// A single-SM engine for `method` with both wrappers attached.
fn observed_sim<'w>(
    method: Method,
    warps: usize,
    scripts: &'w [RayScript],
    special: &'w mut SpecialCounters,
    kernel_calls: &'w mut Cell<u64>,
) -> Simulation<'w> {
    let (program, behavior, unit) = method_parts(method, warps);
    Simulation::new(
        gpu(warps),
        program,
        Box::new(CountedBehavior { inner: behavior, calls: kernel_calls }),
        Box::new(TimedSpecial { inner: unit, c: special }),
        scripts,
    )
}

/// One traced cell.
#[derive(Debug)]
pub struct TracedCell {
    /// `scene/method/bounce/warps`, as `CellResult::cell_name` spells it.
    pub name: String,
    /// The cell's special unit.
    pub unit: Unit,
    /// Wall time from engine construction to the end of the run.
    pub wall: Duration,
    /// Special-unit observations, summed over SMs.
    pub special: SpecialCounters,
    /// Kernel-behavior calls, summed over SMs.
    pub kernel_calls: u64,
    /// Simulated cycles, summed over SMs.
    pub cycles: u64,
    /// The cell's statistics (chip cells: the chip-wide aggregate).
    pub stats: SimStats,
}

impl TracedCell {
    /// Time inside a timed special unit (zero for `NullSpecial`).
    pub fn special_time(&self) -> Duration {
        if self.unit == Unit::Null {
            Duration::ZERO
        } else {
            self.special.tick + self.special.issue
        }
    }
}

/// Run one cell traced. Chip cells run their SMs on one thread so the
/// special-unit time of every SM falls inside the cell's wall time.
pub fn run_traced(job: &SimJob, scripts: &[RayScript]) -> Result<TracedCell, SimError> {
    let start = Instant::now();
    let mut special = SpecialCounters::default();
    let (stats, cycles, kernel_calls) = match job.chip {
        None => {
            let mut calls = Cell::new(0);
            let stats =
                observed_sim(job.method, job.warps, scripts, &mut special, &mut calls).run()?;
            let cycles = stats.cycles;
            (stats, cycles, calls.get())
        }
        Some(chip) => {
            let sms = chip.sms;
            let mut counters = vec![SpecialCounters::default(); sms];
            let mut calls = vec![Cell::new(0); sms];
            // The contiguous shard `drs_harness::runner` gives each SM.
            let lanes = counters
                .iter_mut()
                .zip(&mut calls)
                .enumerate()
                .map(|(sm, (c, k))| {
                    let shard = &scripts[sm * scripts.len() / sms..(sm + 1) * scripts.len() / sms];
                    observed_sim(job.method, job.warps, shard, c, k)
                })
                .collect();
            let result = drs_chip::run_chip(lanes, &gpu(job.warps), &chip, 1)?;
            for c in &counters {
                special.add(c);
            }
            let cycles = result.per_sm.iter().map(|s| s.cycles).sum();
            (result.aggregate, cycles, calls.iter().map(Cell::get).sum())
        }
    };
    Ok(TracedCell {
        name: format!(
            "{}/{}/b{}/w{}",
            job.workload.scene,
            job.method.label(),
            job.bounce,
            job.warps
        ),
        unit: Unit::of(job.method),
        wall: start.elapsed(),
        special,
        kernel_calls,
        cycles,
        stats,
    })
}

/// Every `Method` variant.
const EVERY_METHOD: [Method; 6] = [
    Method::Aila,
    Method::AilaVariant { speculative_traversal: false, replace_terminated: true },
    Method::Dmk,
    Method::Tbc,
    Method::Drs { backup_rows: 1, swap_buffers: 6, extra_bank: false },
    Method::IdealDrs,
];

/// Compare the engines built here with the harness's on a small capture:
/// every `Method` variant on one SM, then Aila and DRS on a two-SM chip. A
/// wrapped engine must give the harness's `SimStats` and must have counted
/// its special unit and kernel calls. Returns the number of cells compared
/// and a line for each that failed.
pub fn construction_check() -> (usize, Vec<String>) {
    let scale = Scale { rays: 300, tris_scale: 0.0, warps_scale: 1.0 };
    let workload = WorkloadSpec::standard(SceneKind::Conference, &scale, 2);
    let streams = workload.capture();
    let scripts = &streams.bounce(2).scripts;
    let warps = 8;
    let mut failures = Vec::new();
    for method in EVERY_METHOD {
        let mut special = SpecialCounters::default();
        let mut calls = Cell::new(0);
        let wrapped = observed_sim(method, warps, scripts, &mut special, &mut calls).run();
        let plain = run_cell(&CellConfig::new(method, warps), scripts, None).0;
        let same = matches!((&wrapped, &plain), (Ok(w), Ok(p)) if w == p
            && special.ticks > 0
            && special.ticks <= w.cycles
            && special.polls.get() > 0
            && calls.get() > 0);
        if !same {
            failures
                .push(format!("{}: the wrapped engine differs from the harness's", method.label()));
        }
    }
    let chip_methods = [Method::Aila, Method::drs_default()];
    for method in chip_methods {
        let chip = Some(ChipConfig::gtx780(2));
        let job = SimJob { workload, bounce: 2, method, warps, chip };
        let traced = run_traced(&job, scripts);
        let cfg = CellConfig { chip, chip_threads: 2, ..CellConfig::new(method, warps) };
        let plain = run_chip_cell(&cfg, scripts, None).0;
        let same = matches!((&traced, &plain), (Ok(t), Ok(p)) if t.stats == p.aggregate
            && t.cycles == p.per_sm.iter().map(|s| s.cycles).sum::<u64>());
        if !same {
            failures.push(format!(
                "chip {}: the wrapped engines differ from the harness's",
                method.label()
            ));
        }
    }
    (EVERY_METHOD.len() + chip_methods.len(), failures)
}

/// One traced pass over the grid.
#[derive(Debug)]
pub struct TracedRep {
    /// Whole pass, loads included.
    pub wall: Duration,
    /// `StreamCache::get_or_capture` from the set-up's cache.
    pub load: Duration,
    /// The simulated (non-empty) cells, in job order.
    pub cells: Vec<TracedCell>,
    /// Cells whose traced stats differ from the pool's, that failed, or
    /// whose capture missed the cache.
    pub failed: usize,
}

impl TracedRep {
    /// Σ traced cell wall time.
    pub fn cell_wall(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }
}

/// Trace every cell of `jobs`, comparing each with the pool's result in
/// `untraced` (same order as `jobs`).
pub fn traced_rep(
    set: &JobSet,
    cache_dir: &Path,
    untraced: &[CellResult],
    spans: &mut Spans,
) -> TracedRep {
    let start = Instant::now();
    let cache = StreamCache::new(cache_dir);
    let mut rep =
        TracedRep { wall: Duration::ZERO, load: Duration::ZERO, cells: Vec::new(), failed: 0 };
    for spec in set.distinct_workloads() {
        let t = Instant::now();
        let streams = cache.get_or_capture(&spec);
        rep.load += t.elapsed();
        spans.since("cache.load", "cache", t);
        for (job, reference) in set.jobs.iter().zip(untraced).filter(|(j, _)| j.workload == spec) {
            if job.bounce > streams.depth() || streams.bounce(job.bounce).scripts.is_empty() {
                rep.failed += usize::from(!reference.empty);
                continue;
            }
            let t = Instant::now();
            match run_traced(job, &streams.bounce(job.bounce).scripts) {
                Ok(cell) => {
                    rep.failed += usize::from(
                        cell.stats != reference.stats || cell.name != reference.cell_name(),
                    );
                    let special = cell.special_time();
                    let engine = cell.wall.saturating_sub(special);
                    spans.record("engine", "engine", t, engine);
                    if cell.unit != Unit::Null {
                        let name = format!("special.{}", cell.unit.name());
                        spans.record(name, "special", t + engine, special);
                    }
                    spans.record(cell.name.clone(), "cell", t, cell.wall);
                    rep.cells.push(cell);
                }
                Err(_) => rep.failed += 1,
            }
        }
    }
    rep.failed += cache.counters().misses as usize;
    rep.wall = start.elapsed();
    spans.since("traced grid", "grid", start);
    rep
}
