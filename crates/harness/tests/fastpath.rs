//! End-to-end A/B proof of the engine's event-driven fast path at the
//! harness level: over reduced fig2, fig10 and fig8 grids — covering every
//! method (Aila / DMK / TBC / DRS) and fig8's whole DRS backup-row sweep,
//! ideal DRS included — running with cycle skipping on and off completes
//! every cell with bit-identical `SimStats`, and, with a collector
//! attached, bit-identical telemetry reports (totals, interval timeline,
//! trace).

use drs_harness::{figures, pool, Method, ResultsFile, RunOptions, Scale};
use drs_scene::SceneKind;
use drs_telemetry::TelemetryConfig;

/// Reduced scale so both passes stay fast in debug CI runs.
fn tiny_scale() -> Scale {
    Scale { rays: 260, tris_scale: 0.008, warps_scale: 0.15 }
}

/// The union of a reduced fig2 grid (conference, bounces ≤ 3), a reduced
/// fig10 grid (two scenes, all four methods, bounces ≤ 2) and a reduced
/// fig8 grid (conference, its six DRS configurations, bounces ≤ 2; its
/// Aila cells are fig2's).
fn reduced_grids(scale: &Scale) -> Vec<drs_harness::SimJob> {
    let mut fig2 = figures::fig2(scale);
    fig2.jobs.retain(|j| j.bounce <= 3);
    let mut fig10 = figures::fig10(scale);
    fig10.jobs.retain(|j| {
        j.bounce <= 2 && matches!(j.workload.scene, SceneKind::Conference | SceneKind::FairyForest)
    });
    let mut fig8 = figures::fig8(scale);
    fig8.jobs.retain(|j| {
        j.bounce <= 2 && j.workload.scene == SceneKind::Conference && j.method != Method::Aila
    });
    let mut jobs = fig2.jobs;
    jobs.extend(fig10.jobs);
    jobs.extend(fig8.jobs);
    assert_eq!(jobs.len(), 3 + 2 * 4 * 2 + 6 * 2);
    jobs
}

fn opts(fastpath: bool, telemetry: Option<TelemetryConfig>) -> RunOptions {
    RunOptions { workers: 4, fastpath, telemetry, ..RunOptions::serial() }
}

#[test]
fn fastpath_onoff_stats_bit_identical_across_methods() {
    let scale = tiny_scale();
    let jobs = reduced_grids(&scale);
    let fast = pool::run_jobs(&jobs, &opts(true, None));
    let naive = pool::run_jobs(&jobs, &opts(false, None));
    assert_eq!(fast.cells.len(), naive.cells.len());
    let mut simulated = 0;
    for (f, n) in fast.cells.iter().zip(naive.cells.iter()) {
        assert_eq!(f.job.id(), n.job.id());
        assert_eq!(f.empty, n.empty);
        assert!(f.completed && n.completed, "{} did not complete", f.cell_name());
        assert_eq!(
            f.stats,
            n.stats,
            "fast path changed SimStats for {} bounce {} on {}",
            f.job.method.label(),
            f.job.bounce,
            f.job.workload.scene
        );
        if !f.empty && f.stats.rays_completed > 0 {
            simulated += 1;
        }
    }
    assert!(simulated >= 8, "grid must actually exercise the engine");

    // The deterministic stats dump — what CI diffs byte-for-byte — is
    // identical too.
    let figs = |n: usize| vec![vec!["ab".to_string()]; n];
    let nf = fast.cells.len();
    let a = ResultsFile::from_report("ab", 4, fast, figs(nf)).stats_json();
    let b = ResultsFile::from_report("ab", 4, naive, figs(nf)).stats_json();
    assert_eq!(a, b, "stats dumps must be byte-identical across the fast path");
}

#[test]
fn fastpath_onoff_telemetry_reports_identical() {
    let scale = tiny_scale();
    // Telemetry A/B is slower (naive per-cycle attribution), so use the
    // fig10 half only — it covers all four methods.
    let jobs: Vec<_> = reduced_grids(&scale)
        .into_iter()
        .filter(|j| j.bounce <= 2 && j.workload.scene == SceneKind::Conference)
        .collect();
    let cfg = TelemetryConfig { interval: 700, trace: true, ..TelemetryConfig::default() };
    let fast = pool::run_jobs(&jobs, &opts(true, Some(cfg)));
    let naive = pool::run_jobs(&jobs, &opts(false, Some(cfg)));
    for (f, n) in fast.cells.iter().zip(naive.cells.iter()) {
        assert_eq!(f.stats, n.stats);
        assert_eq!(
            f.telemetry,
            n.telemetry,
            "fast path changed the telemetry report for {} bounce {}",
            f.job.method.label(),
            f.job.bounce
        );
        if let Some(report) = &f.telemetry {
            report.check_identity().unwrap();
        }
    }
    assert!(fast.cells.iter().any(|c| c.telemetry.is_some()));
}
