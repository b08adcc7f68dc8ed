//! Executing one method over one ray stream — the leaf operation every
//! job in the pool performs.

use crate::job::Method;
use drs_baselines::{DmkConfig, DmkKernel, DmkUnit, TbcConfig, TbcUnit};
use drs_chip::{run_chip_observed, ChipResult};
use drs_core::system::RowedWhileIf;
use drs_core::{DrsConfig, DrsUnit};
use drs_kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
use drs_sim::{
    ChipConfig, GpuConfig, NullSpecial, Program, SimError, SimStats, Simulation, TelemetrySink,
};
use drs_telemetry::{
    ChipTelemetryCollector, ChipTelemetryReport, TelemetryCollector, TelemetryConfig,
    TelemetryReport,
};
use drs_trace::RayScript;
use std::time::Instant;

/// Everything needed to execute one experiment cell, including the
/// fault-tolerance knobs the pool threads through: an optional per-job
/// cycle budget, a wall-clock deadline, and a deterministic injected
/// watchdog trip (fault-injection testing).
#[derive(Debug, Clone, Copy)]
pub struct CellConfig {
    /// Method / hardware configuration under test.
    pub method: Method,
    /// Resident warps.
    pub warps: usize,
    /// Engine event-driven fast path (`false` forces naive stepping).
    pub fastpath: bool,
    /// Per-job cycle budget overriding the default safety cap.
    pub cycle_budget: Option<u64>,
    /// Wall-clock deadline: (absolute instant, budget in ms for reporting).
    pub deadline: Option<(Instant, u64)>,
    /// Trip the no-progress watchdog at this cycle (deterministic fault
    /// injection; see [`FaultPlan`](crate::fault::FaultPlan)).
    pub watchdog_trip_at: Option<u64>,
    /// Full-chip mode: shard the stream over `chip.sms` SM engines
    /// sharing one banked L2 / MSHR pool / DRAM channel (`drs-chip`).
    pub chip: Option<ChipConfig>,
    /// Threads in total, the cell's own included, sharding the SMs inside
    /// each chip window (chip mode only). Results are bit-identical for
    /// any value, so this is an execution knob, never part of job
    /// identity.
    pub chip_threads: usize,
}

impl CellConfig {
    /// A plain cell: no budgets, no injection, fast path on, single-SMX
    /// mode.
    pub fn new(method: Method, warps: usize) -> CellConfig {
        CellConfig {
            method,
            warps,
            fastpath: true,
            cycle_budget: None,
            deadline: None,
            watchdog_trip_at: None,
            chip: None,
            chip_threads: 1,
        }
    }
}

/// Build the simulation, arming the verifier's static resource bounds as
/// runtime cross-checks when the `validate` feature is on.
fn new_sim<'w>(
    gpu: GpuConfig,
    program: Program,
    behavior: Box<dyn drs_sim::KernelBehavior + 'w>,
    special: Box<dyn drs_sim::SpecialUnit + 'w>,
    scripts: &'w [RayScript],
) -> Simulation<'w> {
    #[cfg(feature = "validate")]
    let bounds = {
        let summary = drs_verify::live_set_summary(&program);
        (summary.stack_depth_bound(gpu.simd_lanes), summary.distinct_dsts)
    };
    #[cfg_attr(not(feature = "validate"), allow(unused_mut))]
    let mut sim = Simulation::new(gpu, program, behavior, special, scripts);
    #[cfg(feature = "validate")]
    {
        sim.set_stack_depth_bound(bounds.0);
        sim.set_inflight_regs_bound(bounds.1);
    }
    sim
}

/// Run one cell to completion or typed failure. Deterministic for equal
/// inputs (deadlines excepted — they depend on wall-clock): the simulator
/// is single-threaded and all inputs are explicit, so equal arguments give
/// bit-identical [`SimStats`].
///
/// On failure the [`SimError`] carries the failure kind, cycle, and the
/// partial counter set — the caller records it as data instead of losing
/// the run.
pub fn run_cell(
    cfg: &CellConfig,
    scripts: &[RayScript],
    telemetry: Option<TelemetryConfig>,
) -> (Result<SimStats, SimError>, Option<TelemetryReport>) {
    match telemetry {
        Some(tcfg) => {
            let mut collector = TelemetryCollector::new(tcfg);
            let out = run_inner(cfg, scripts, Some(&mut collector));
            (out, Some(collector.into_report()))
        }
        None => (run_inner(cfg, scripts, None), None),
    }
}

fn run_inner<'w>(
    cfg: &CellConfig,
    scripts: &'w [RayScript],
    sink: Option<&'w mut dyn TelemetrySink>,
) -> Result<SimStats, SimError> {
    let gpu = gpu_for(cfg);
    let mut sim = build_method_sim(cfg, gpu, scripts);
    if let Some(sink) = sink {
        sim.attach_telemetry(sink);
    }
    arm_sim(&mut sim, cfg);
    sim.run()
}

/// The per-SMX GPU configuration a cell runs with.
fn gpu_for(cfg: &CellConfig) -> GpuConfig {
    GpuConfig {
        max_warps: cfg.warps,
        max_cycles: cfg.cycle_budget.unwrap_or(4_000_000_000),
        ..GpuConfig::gtx780()
    }
}

/// Apply the execution knobs (fast path, injected watchdog, deadline) to
/// a constructed engine — shared by the single-SMX and per-SM chip paths.
fn arm_sim(sim: &mut Simulation<'_>, cfg: &CellConfig) {
    sim.set_fastpath(cfg.fastpath);
    if let Some(at) = cfg.watchdog_trip_at {
        sim.inject_watchdog_trip(at);
    }
    if let Some((instant, budget_ms)) = cfg.deadline {
        sim.set_deadline(instant, budget_ms);
    }
}

/// Construct the engine for a cell's method over one ray stream.
fn build_method_sim<'w>(
    cfg: &CellConfig,
    gpu: GpuConfig,
    scripts: &'w [RayScript],
) -> Simulation<'w> {
    let warps = cfg.warps;
    match cfg.method {
        Method::Aila => {
            let k = WhileWhileKernel::new(WhileWhileConfig::default());
            new_sim(gpu, k.program(), Box::new(k.clone()), Box::new(NullSpecial), scripts)
        }
        Method::AilaVariant { speculative_traversal, replace_terminated } => {
            let k = WhileWhileKernel::new(WhileWhileConfig {
                speculative_traversal,
                replace_terminated,
            });
            new_sim(gpu, k.program(), Box::new(k.clone()), Box::new(NullSpecial), scripts)
        }
        Method::Dmk => {
            let dmk = DmkConfig { warps, lanes: 32, pool_slots: warps * 32 };
            let k = DmkKernel::new(dmk);
            new_sim(gpu, k.program(), Box::new(k.clone()), Box::new(DmkUnit::new(dmk)), scripts)
        }
        Method::Tbc => {
            let k = WhileIfKernel::new();
            let tbc = TbcConfig { warps, lanes: 32, warps_per_block: 6.min(warps) };
            new_sim(gpu, k.program(), Box::new(k.clone()), Box::new(TbcUnit::new(tbc)), scripts)
        }
        Method::Drs { backup_rows, swap_buffers, .. } => {
            let drs = DrsConfig { warps, backup_rows, swap_buffers, ideal: false, lanes: 32 };
            let program = WhileIfKernel::new().program();
            let behavior = RowedWhileIf::new(drs.rows());
            new_sim(gpu, program, Box::new(behavior), Box::new(DrsUnit::new(drs)), scripts)
        }
        Method::IdealDrs => {
            let drs = DrsConfig { warps, backup_rows: 1, swap_buffers: 6, ideal: true, lanes: 32 };
            let program = WhileIfKernel::new().program();
            let behavior = RowedWhileIf::new(drs.rows());
            new_sim(gpu, program, Box::new(behavior), Box::new(DrsUnit::new(drs)), scripts)
        }
    }
}

/// The contiguous shard of `scripts` SM `sm` of `sms` owns — the same
/// stream split the chip determinism tests assert on.
fn shard(scripts: &[RayScript], sm: usize, sms: usize) -> &[RayScript] {
    &scripts[sm * scripts.len() / sms..(sm + 1) * scripts.len() / sms]
}

/// Run one cell in full-chip mode: shard the stream over `chip.sms` SM
/// engines (same method, same per-SM GPU config) against one shared
/// memory system. When telemetry is requested, one collector is attached
/// per SM (the per-SM reports come back in SM order — each satisfies the
/// Σ-buckets identity for its own SM) and a [`ChipTelemetryCollector`]
/// is attached to the shared memory system, yielding the chip-wide
/// interval series and interference matrix.
///
/// Results are bit-identical for any `cfg.chip_threads` and for any
/// telemetry setting — the sinks are purely observational.
pub fn run_chip_cell(
    cfg: &CellConfig,
    scripts: &[RayScript],
    telemetry: Option<TelemetryConfig>,
) -> (Result<ChipResult, SimError>, Vec<TelemetryReport>, Option<ChipTelemetryReport>) {
    let chip = cfg.chip.expect("run_chip_cell needs CellConfig::chip");
    let gpu = gpu_for(cfg);
    // An invalid SM count would make sharding below panic; let run_chip
    // turn it into the typed chip_config error instead.
    if chip.validate().is_err() {
        let out = run_chip_observed(Vec::new(), &gpu, &chip, cfg.chip_threads.max(1), None);
        return (out, Vec::new(), None);
    }
    let mut collectors: Vec<TelemetryCollector> = match telemetry {
        Some(tcfg) => (0..chip.sms).map(|_| TelemetryCollector::new(tcfg)).collect(),
        None => Vec::new(),
    };
    let mut chip_collector = telemetry.map(|tcfg| ChipTelemetryCollector::new(tcfg.interval));
    let mut lanes: Vec<Simulation<'_>> = (0..chip.sms)
        .map(|sm| {
            let mut sim = build_method_sim(cfg, gpu.clone(), shard(scripts, sm, chip.sms));
            arm_sim(&mut sim, cfg);
            sim
        })
        .collect();
    for (lane, collector) in lanes.iter_mut().zip(collectors.iter_mut()) {
        lane.attach_telemetry(collector);
    }
    let sink = chip_collector.as_mut().map(|c| c as &mut dyn drs_sim::ChipTelemetrySink);
    let out = run_chip_observed(lanes, &gpu, &chip, cfg.chip_threads.max(1), sink);
    let chip_report = match &out {
        Ok(_) => chip_collector.map(ChipTelemetryCollector::into_report),
        // A failed chip run never reached `on_finish`; there is no
        // consistent report to build.
        Err(_) => None,
    };
    (out, collectors.into_iter().map(TelemetryCollector::into_report).collect(), chip_report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_scene::SceneKind;
    use drs_sim::SimErrorKind;
    use drs_trace::BounceStreams;

    #[test]
    fn aila_variant_with_defaults_matches_aila() {
        let scene = SceneKind::Conference.build_with_tris(2_000);
        let streams = BounceStreams::capture(&scene, 300, 2, 7);
        let scripts = &streams.bounce(2).scripts;
        let variant = Method::AilaVariant { speculative_traversal: true, replace_terminated: true };
        let (a, _) = run_cell(&CellConfig::new(Method::Aila, 8), scripts, None);
        let (b, _) = run_cell(&CellConfig::new(variant, 8), scripts, None);
        assert_eq!(a.expect("completes"), b.expect("completes"));
    }

    #[test]
    fn telemetry_runner_is_observational_and_balanced() {
        let scene = SceneKind::Conference.build_with_tris(2_000);
        let streams = BounceStreams::capture(&scene, 300, 2, 7);
        let scripts = &streams.bounce(1).scripts;
        let cfg = CellConfig::new(Method::Aila, 8);
        let plain = run_cell(&cfg, scripts, None).0.expect("completes");
        let tcfg = TelemetryConfig { interval: 500, trace: true, ..TelemetryConfig::default() };
        let (out, report) = run_cell(&cfg, scripts, Some(tcfg));
        let (stats, report) = (out.expect("completes"), report.expect("telemetry was requested"));
        assert_eq!(plain, stats, "attaching telemetry must not change results");
        assert_eq!(report.warps, 8);
        assert_eq!(report.cycles, stats.cycles);
        report.check_identity().unwrap();
        assert!(
            (report.weighted_simd_efficiency() - stats.simd_efficiency()).abs() < 1e-9,
            "interval series must reproduce the aggregate efficiency"
        );
        assert!(report.trace.as_ref().is_some_and(|t| !t.spans.is_empty()));
    }

    #[test]
    fn cycle_budget_returns_typed_error_with_partial_stats() {
        let scene = SceneKind::Conference.build_with_tris(2_000);
        let streams = BounceStreams::capture(&scene, 300, 2, 7);
        let scripts = &streams.bounce(1).scripts;
        let cfg = CellConfig { cycle_budget: Some(50), ..CellConfig::new(Method::Aila, 8) };
        let (out, _) = run_cell(&cfg, scripts, None);
        let err = out.expect_err("50 cycles cannot finish the stream");
        assert!(matches!(err.kind, SimErrorKind::CycleLimit { max_cycles: 50 }));
        assert_eq!(err.stats.cycles, 50, "partial stats must be populated");
    }

    #[test]
    fn injected_watchdog_trip_carries_warp_dump() {
        let scene = SceneKind::Conference.build_with_tris(2_000);
        let streams = BounceStreams::capture(&scene, 300, 2, 7);
        let scripts = &streams.bounce(1).scripts;
        let cfg = CellConfig { watchdog_trip_at: Some(40), ..CellConfig::new(Method::Aila, 4) };
        let (out, _) = run_cell(&cfg, scripts, None);
        let err = out.expect_err("injected trip must fire");
        match err.kind {
            SimErrorKind::Watchdog { injected, dump, .. } => {
                assert!(injected);
                assert_eq!(dump.warps.len(), 4, "one dump entry per warp");
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
    }
}
