//! Declarative job sets: each figure/table of the paper's evaluation as a
//! plain enumeration of [`SimJob`]s.
//!
//! Each grid's axes (scenes, methods, bounces, backup-row and swap-buffer
//! counts) are exported next to its job set, and the code that presents
//! a figure reads the same axes, so every grid is defined here once.
//!
//! All sets share [`CANONICAL_DEPTH`]-bounce workloads per scene. Capture
//! fills each bounce bucket independently up to the ray budget, so the
//! first `k` bounces of a depth-8 capture are bit-identical to a depth-4
//! capture — which lets figures that only need bounces 1–4 (fig8, fig9,
//! table2) share one cached workload with the depth-8 figures instead of
//! recapturing per figure.

use crate::job::{JobSet, Method, Scale, SimJob, WorkloadSpec};
use drs_scene::SceneKind;
use std::ops::RangeInclusive;

/// Capture depth shared by every figure's workloads.
pub const CANONICAL_DEPTH: usize = 8;

/// The four-method comparison grid of fig10/fig11/energy.
pub fn comparison_methods() -> [Method; 4] {
    [Method::Aila, Method::Dmk, Method::Tbc, Method::drs_default()]
}

fn job(wl: WorkloadSpec, bounce: usize, method: Method, scale: &Scale) -> SimJob {
    SimJob { workload: wl, bounce, method, warps: scale.warps(method.paper_warps()), chip: None }
}

/// Every (scene, method, bounce) cell of `scenes` × `methods` ×
/// `bounces`, in that nesting order.
fn grid(
    name: &str,
    scale: &Scale,
    scenes: &[SceneKind],
    methods: &[Method],
    bounces: RangeInclusive<usize>,
) -> JobSet {
    let mut set = JobSet::new(name);
    for &kind in scenes {
        let wl = WorkloadSpec::standard(kind, scale, CANONICAL_DEPTH);
        for &method in methods {
            for b in bounces.clone() {
                set.push(job(wl, b, method, scale));
            }
        }
    }
    set
}

/// Figure 2: Aila kernel per-bounce SIMD efficiency on the conference room.
pub fn fig2(scale: &Scale) -> JobSet {
    grid("fig2", scale, &[SceneKind::Conference], &[Method::Aila], 1..=CANONICAL_DEPTH)
}

/// The bounces the backup-row and swap-buffer sweeps (Fig. 8, Fig. 9,
/// Table 2) cover.
pub const SWEEP_BOUNCES: RangeInclusive<usize> = 1..=4;

/// The backup-row counts M that Fig. 8 and Fig. 9 sweep.
pub const BACKUP_ROWS: [usize; 4] = [1, 2, 4, 8];

/// DRS with `m` backup rows as Fig. 8 and Fig. 9 sweep it: nine swap
/// buffers and the extra register bank.
pub fn backup_rows_method(m: usize) -> Method {
    Method::Drs { backup_rows: m, swap_buffers: 9, extra_bank: true }
}

/// The method column of Figure 8: Aila, DRS backup-row sweep, ideal DRS.
pub fn fig8_methods() -> Vec<(String, Method)> {
    let no_xbank = Method::Drs { backup_rows: 1, swap_buffers: 9, extra_bank: false };
    let mut methods =
        vec![("Aila".into(), Method::Aila), ("DRS M=1 (no xbank, 58w)".into(), no_xbank)];
    methods.extend(BACKUP_ROWS.map(|m| (format!("DRS M={m}"), backup_rows_method(m))));
    methods.push(("DRS ideal".into(), Method::IdealDrs));
    methods
}

/// Figure 8: Mrays/s for bounces 1–4 under different backup-row configs.
pub fn fig8(scale: &Scale) -> JobSet {
    let methods: Vec<Method> = fig8_methods().into_iter().map(|(_, m)| m).collect();
    grid("fig8", scale, &SceneKind::ALL, &methods, SWEEP_BOUNCES)
}

/// The scenes Figure 9 plots.
pub const FIG9_SCENES: [SceneKind; 2] = [SceneKind::Conference, SceneKind::FairyForest];

/// Figure 9: rdctrl stall rate vs backup rows (conference, fairy).
pub fn fig9(scale: &Scale) -> JobSet {
    let methods = BACKUP_ROWS.map(backup_rows_method);
    grid("fig9", scale, &FIG9_SCENES, &methods, SWEEP_BOUNCES)
}

/// The swap-buffer counts Table 2 sweeps.
pub const TABLE2_BUFFERS: [usize; 4] = [6, 9, 12, 18];

/// DRS with `buffers` swap buffers as Table 2 sweeps it: one backup row
/// without the extra register bank.
pub fn table2_method(buffers: usize) -> Method {
    Method::Drs { backup_rows: 1, swap_buffers: buffers, extra_bank: false }
}

/// Table 2: Mrays/s vs swap-buffer count (1 backup row).
pub fn table2(scale: &Scale) -> JobSet {
    let mut set = JobSet::new("table2");
    for kind in SceneKind::ALL {
        let wl = WorkloadSpec::standard(kind, scale, CANONICAL_DEPTH);
        for b in SWEEP_BOUNCES {
            for buffers in TABLE2_BUFFERS {
                set.push(job(wl, b, table2_method(buffers), scale));
            }
        }
    }
    set
}

/// Figure 10: SIMD efficiency and utilization breakdown for all methods.
pub fn fig10(scale: &Scale) -> JobSet {
    comparison_grid("fig10", scale)
}

/// Figure 11: performance and speedups vs Aila — the same cell grid as
/// Figure 10, so in a combined run every cell is simulated once.
pub fn fig11(scale: &Scale) -> JobSet {
    comparison_grid("fig11", scale)
}

fn comparison_grid(name: &str, scale: &Scale) -> JobSet {
    grid(name, scale, &SceneKind::ALL, &comparison_methods(), 1..=CANONICAL_DEPTH)
}

/// The Aila software-optimization ablation grid (conference, bounce 2).
pub fn ablation_variants() -> [(&'static str, Method); 4] {
    let aila = |speculative_traversal, replace_terminated| Method::AilaVariant {
        speculative_traversal,
        replace_terminated,
    };
    [
        ("while-while (plain)        ", aila(false, false)),
        ("+ terminated-ray replace   ", aila(false, true)),
        ("+ speculative traversal    ", aila(true, false)),
        ("+ both (paper baseline)    ", aila(true, true)),
    ]
}

/// Ablation: Aila's software-optimization knobs on conference bounce 2.
/// (The acceleration-structure ablations are functional, not simulation
/// cells, and stay in the `experiments` binary.)
pub fn ablation(scale: &Scale) -> JobSet {
    let mut set = JobSet::new("ablation");
    let wl = WorkloadSpec::standard(SceneKind::Conference, scale, CANONICAL_DEPTH);
    for (_, method) in ablation_variants() {
        set.push(job(wl, 2, method, scale));
    }
    set
}

/// The scene of the energy comparison.
pub const ENERGY_SCENE: SceneKind = SceneKind::Conference;

/// The bounces of the energy comparison: primary and first secondary.
pub const ENERGY_BOUNCES: RangeInclusive<usize> = 1..=2;

/// Energy comparison: conference bounces 1–2 across the method grid.
pub fn energy(scale: &Scale) -> JobSet {
    let mut set = JobSet::new("energy");
    let wl = WorkloadSpec::standard(ENERGY_SCENE, scale, CANONICAL_DEPTH);
    for b in ENERGY_BOUNCES {
        for method in comparison_methods() {
            set.push(job(wl, b, method, scale));
        }
    }
    set
}

/// Build the job set for a named figure, or `None` for unknown /
/// simulation-free modes (`table1`, `overhead`).
pub fn by_name(name: &str, scale: &Scale) -> Option<JobSet> {
    match name {
        "fig2" => Some(fig2(scale)),
        "fig8" => Some(fig8(scale)),
        "fig9" => Some(fig9(scale)),
        "table2" => Some(table2(scale)),
        "fig10" => Some(fig10(scale)),
        "fig11" => Some(fig11(scale)),
        "ablation" => Some(ablation(scale)),
        "energy" => Some(energy(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_expected_cell_counts() {
        let scale = Scale::default();
        assert_eq!(fig2(&scale).jobs.len(), 8);
        assert_eq!(fig8(&scale).jobs.len(), 4 * 7 * 4);
        assert_eq!(fig9(&scale).jobs.len(), 2 * 4 * 4);
        assert_eq!(table2(&scale).jobs.len(), 4 * 4 * 4);
        assert_eq!(fig10(&scale).jobs.len(), 4 * 4 * 8);
        assert_eq!(ablation(&scale).jobs.len(), 4);
        assert_eq!(energy(&scale).jobs.len(), 8);
    }

    #[test]
    fn fig10_and_fig11_share_every_cell() {
        let scale = Scale::default();
        let a: Vec<_> = fig10(&scale).jobs.iter().map(super::super::job::SimJob::id).collect();
        let b: Vec<_> = fig11(&scale).jobs.iter().map(super::super::job::SimJob::id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fig9_grid_is_part_of_fig8s() {
        let scale = Scale::default();
        let fig8: std::collections::HashSet<_> = fig8(&scale).jobs.iter().map(SimJob::id).collect();
        assert!(fig9(&scale).jobs.iter().all(|j| fig8.contains(&j.id())));
    }

    #[test]
    fn one_workload_per_scene_across_all_figures() {
        // The point of the canonical depth: a whole `all` run needs
        // exactly four captures.
        let scale = Scale::default();
        let mut keys = std::collections::HashSet::new();
        for name in ["fig2", "fig8", "fig9", "table2", "fig10", "fig11", "ablation", "energy"] {
            for wl in by_name(name, &scale).unwrap().distinct_workloads() {
                keys.insert(wl.content_key());
            }
        }
        assert_eq!(keys.len(), SceneKind::ALL.len());
    }

    #[test]
    fn by_name_rejects_unknown_and_simulation_free_modes() {
        let scale = Scale::default();
        assert!(by_name("table1", &scale).is_none());
        assert!(by_name("overhead", &scale).is_none());
        assert!(by_name("nonsense", &scale).is_none());
    }
}
