//! Lints over [`GpuConfig`]: geometry and sizing mistakes that would warp
//! timing results without crashing the simulator.

use crate::diag::{Check, Diagnostic, Report};
use drs_sim::{GpuConfig, MAX_WARPS_PER_SCHEDULER};

fn cache_sets(bytes: usize, line: usize, ways: usize) -> usize {
    (bytes / line.max(1) / ways.max(1)).max(1)
}

/// Lint a GPU configuration. Errors are configurations the engine would
/// mis-simulate or reject; warnings are legal but suspicious geometry.
pub fn verify_config(cfg: &GpuConfig) -> Report {
    let mut report = Report::default();
    if cfg.simd_lanes == 0 || cfg.simd_lanes > 32 {
        report.push(Diagnostic::new(
            Check::BadLaneCount,
            None,
            format!("simd_lanes = {} outside the supported 1..=32", cfg.simd_lanes),
        ));
    }
    if cfg.max_warps == 0 {
        report.push(Diagnostic::new(
            Check::NoWarps,
            None,
            "max_warps = 0: nothing would ever issue".into(),
        ));
    }
    if cfg.warp_schedulers == 0 || cfg.dispatch_units < cfg.warp_schedulers {
        report.push(Diagnostic::new(
            Check::SchedulerOversubscribed,
            None,
            format!(
                "{} schedulers cannot share {} dispatch units (each scheduler needs \
                 at least one)",
                cfg.warp_schedulers, cfg.dispatch_units
            ),
        ));
    }
    if cfg.warps_per_scheduler() > MAX_WARPS_PER_SCHEDULER {
        report.push(Diagnostic::new(
            Check::SchedulerWarpOverflow,
            None,
            format!(
                "{} warps over {} schedulers put {} warps on one scheduler; its ready \
                 mask holds {MAX_WARPS_PER_SCHEDULER}",
                cfg.max_warps,
                cfg.warp_schedulers,
                cfg.warps_per_scheduler()
            ),
        ));
    }
    if !cfg.line_bytes.is_power_of_two() {
        report.push(Diagnostic::new(
            Check::BadLineSize,
            None,
            format!(
                "line_bytes = {} is not a power of two; line_of() address masking breaks",
                cfg.line_bytes
            ),
        ));
    }
    if cfg.mshr_entries < 1 {
        report.push(Diagnostic::new(
            Check::MshrTooFew,
            None,
            "mshr_entries = 0: no cache miss could ever be outstanding".into(),
        ));
    }
    for (name, bytes) in
        [("L1D", cfg.l1d_bytes), ("L1T", cfg.l1t_bytes), ("L2 slice", cfg.l2_bytes)]
    {
        let sets = cache_sets(bytes, cfg.line_bytes, cfg.cache_ways);
        if !sets.is_power_of_two() {
            report.push(Diagnostic::new(
                Check::NonPowerOfTwoSets,
                None,
                format!(
                    "{name} has {sets} sets ({bytes} B / {} B lines / {}-way), not a power \
                     of two — the modulo index function aliases unevenly",
                    cfg.line_bytes, cfg.cache_ways
                ),
            ));
        }
    }
    if cfg.register_banks > 0
        && cfg.simd_lanes > 0
        && !cfg.register_banks.is_multiple_of(cfg.simd_lanes)
        && !cfg.simd_lanes.is_multiple_of(cfg.register_banks)
    {
        report.push(Diagnostic::new(
            Check::BankLaneMismatch,
            None,
            format!(
                "{} register banks against {} lanes: neither divides the other, so \
                 operand reads stripe unevenly across banks",
                cfg.register_banks, cfg.simd_lanes
            ),
        ));
    }
    report
}
