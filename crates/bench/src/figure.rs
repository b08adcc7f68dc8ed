//! The paper's measured figures as data: Fig. 2, Fig. 8, Fig. 9,
//! Table 2, Fig. 10 and Fig. 11 are each computed once from [`Cells`]
//! and formatted twice — as the `experiments` stdout tables and as
//! `RESULTS.md` ([`crate::report`]). Every grid axis they read comes from
//! [`drs_harness::figures`], the same definition the job sets are built
//! from.
//!
//! [`Cells`] is filled either from a run in memory or from a results
//! document read back through [`ResultsDoc::parse`], and both give the
//! same records. A figure is computed only when the cells hold its whole
//! grid, so a partial document renders exactly the figures it can back.

use drs_harness::figures::{
    backup_rows_method, comparison_methods, fig8_methods, table2_method, BACKUP_ROWS,
    CANONICAL_DEPTH, FIG9_SCENES, SWEEP_BOUNCES, TABLE2_BUFFERS,
};
use drs_harness::{CellRecord, Method, ResultsDoc};
use drs_scene::SceneKind;
use drs_sim::{ActiveHistogram, GpuConfig, SimStats};
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// The paper's headline DRS speedups over Aila per scene (Fig. 11), in
/// [`SceneKind::ALL`] order. The four-scene average is
/// [`PAPER_DRS_AVG_SPEEDUP`].
pub const PAPER_DRS_SPEEDUPS: [(SceneKind, f64); 4] = [
    (SceneKind::Conference, 1.84),
    (SceneKind::FairyForest, 1.92),
    (SceneKind::CrytekSponza, 1.67),
    (SceneKind::Plants, 1.83),
];

/// The paper's average DRS speedup over the four scenes.
pub const PAPER_DRS_AVG_SPEEDUP: f64 = 1.79;

/// The paper's average swap latency in cycles per [`TABLE2_BUFFERS`]
/// count (Table 2).
pub const PAPER_TABLE2_SWAP_CYCLES: [f64; 4] = [31.6, 25.0, 24.3, 22.0];

/// The paper's upper bound on the `rdctrl` stall rate at the largest
/// backup-row count (Fig. 9, M=8).
pub const PAPER_FIG9_M8_STALL_RATE: f64 = 0.048;

/// Relative deviation from the paper's number under which a measured
/// speedup counts as reproduced. The workloads are procedural stand-ins
/// at a fraction of the original geometry and ray counts, so the bar is
/// directional agreement within a generous band, not equality.
pub const PASS_BAND: f64 = 0.25;

/// The cells of one run, keyed by (scene, bounce, method label). The key
/// is unique within a run: every figure shares one workload per scene,
/// and a method fixes its warp count.
#[derive(Debug, Clone)]
pub struct Cells {
    /// The mode the run was started in.
    pub mode: String,
    /// SMs per chip when the cells ran in full-chip mode.
    pub chip_sms: Option<usize>,
    by_key: HashMap<(SceneKind, usize, String), CellRecord>,
}

impl Cells {
    /// Index a document's records.
    pub fn new(doc: ResultsDoc) -> Cells {
        let chip_sms = doc.cells.iter().find_map(|c| c.chip_sms);
        let by_key = doc.cells.into_iter().map(|c| ((c.scene, c.bounce, c.method.clone()), c));
        Cells { mode: doc.mode, chip_sms, by_key: by_key.collect() }
    }

    /// Every cell, in no particular order.
    pub fn records(&self) -> impl Iterator<Item = &CellRecord> {
        self.by_key.values()
    }

    /// The cell for (scene, bounce, method), if the run has it.
    pub fn get(&self, scene: SceneKind, bounce: usize, method: Method) -> Option<&CellRecord> {
        self.by_key.get(&(scene, bounce, method.label()))
    }

    /// Like [`Cells::get`] but demands presence (enumeration bug otherwise).
    pub fn require(&self, scene: SceneKind, bounce: usize, method: Method) -> &CellRecord {
        self.get(scene, bounce, method).unwrap_or_else(|| {
            panic!("cell missing from run: {scene} B{bounce} {}", method.label())
        })
    }

    /// The factor from one simulated SMX to the whole GPU: the SMX count,
    /// or 1 for full-chip cells, whose rays are already summed across
    /// every SM.
    pub fn smx_scale(&self) -> usize {
        if self.chip_sms.is_some() {
            1
        } else {
            GpuConfig::gtx780().smx_count
        }
    }

    /// Whole-GPU Mrays/s of one cell's stats.
    pub fn mrays(&self, stats: &SimStats) -> f64 {
        stats.mrays_per_sec(GpuConfig::gtx780().clock_mhz, self.smx_scale())
    }
}

/// Aggregate outcome across bounces: total rays / total cycles, and a
/// merged issue histogram — the paper's "overall" rows.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Total rays traced.
    pub rays: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Merged normal-issue histogram.
    pub issued: drs_sim::ActiveHistogram,
    /// Merged SI histogram.
    pub issued_si: drs_sim::ActiveHistogram,
}

impl Aggregate {
    /// Fold one bounce's stats in.
    pub fn add(&mut self, stats: &SimStats) {
        self.rays += stats.rays_completed;
        self.cycles += stats.cycles;
        self.issued.merge(&stats.issued);
        self.issued_si.merge(&stats.issued_si);
    }

    /// Overall Mrays/s with an explicit SMX scale factor: the GPU's
    /// `smx_count` for single-SMX cells, 1 for full-chip aggregates
    /// (whose rays are already summed across every SM).
    pub fn mrays_at(&self, clock_mhz: u32, smx_count: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.rays as f64 / self.cycles as f64 * f64::from(clock_mhz) * smx_count as f64
    }

    /// Overall SIMD efficiency including SI instructions.
    pub fn simd_efficiency(&self) -> f64 {
        let mut all = self.issued;
        all.merge(&self.issued_si);
        all.simd_efficiency()
    }
}

/// `1.79x`, or `--` when there is no number.
pub fn times(x: Option<f64>) -> String {
    x.map_or("--".into(), |x| format!("{x:.2}x"))
}

/// A measured number next to the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VsPaper {
    /// The reproduction's value.
    pub measured: f64,
    /// The paper's value.
    pub paper: f64,
}

impl VsPaper {
    /// Relative deviation from the paper.
    pub fn deviation(&self) -> f64 {
        (self.measured - self.paper) / self.paper
    }

    /// Within [`PASS_BAND`] of the paper.
    pub fn passes(&self) -> bool {
        self.deviation().abs() <= PASS_BAND
    }
}

/// Fig. 2: Aila's SIMD efficiency per bounce on the conference room.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// `(bounce, issue histogram)` for every bounce; `None` when no ray
    /// survived to it.
    pub bounces: Vec<(usize, Option<ActiveHistogram>)>,
    /// The first and the last non-empty bounce with its efficiency.
    pub trend: Option<[(usize, f64); 2]>,
}

impl Fig2 {
    /// The paper's claim: efficiency collapses with bounce depth.
    pub fn collapses(&self) -> bool {
        self.trend.is_some_and(|[first, last]| last.1 < first.1)
    }
}

/// Fig. 2 from `cells`, or `None` unless they hold every bounce.
pub fn fig2(cells: &Cells) -> Option<Fig2> {
    let bounces: Vec<(usize, Option<ActiveHistogram>)> = (1..=CANONICAL_DEPTH)
        .map(|b| {
            let cell = cells.get(SceneKind::Conference, b, Method::Aila)?;
            Some((b, (!cell.empty).then(|| cell.stats.issued_all())))
        })
        .collect::<Option<_>>()?;
    let mut effs = bounces.iter().filter_map(|(b, h)| Some((*b, h.as_ref()?.simd_efficiency())));
    let first = effs.next();
    let trend = first.map(|first| [first, effs.next_back().unwrap_or(first)]);
    Some(Fig2 { bounces, trend })
}

/// One method on one scene over a range of bounces: a row of the
/// comparison grid that Fig. 10 and Fig. 11 share, or of Fig. 8.
#[derive(Debug, Clone)]
pub struct Row {
    /// The method.
    pub method: Method,
    /// `(bounce, stats)` of the non-empty bounces, in order.
    pub bounces: Vec<(usize, SimStats)>,
    /// Those bounces merged; `None` when every bounce is empty.
    pub overall: Option<Aggregate>,
    /// Whole-GPU Mrays/s of `overall`.
    pub mrays: Option<f64>,
    /// Throughput over Aila's; `None` without a positive Aila baseline.
    pub speedup: Option<f64>,
}

impl Row {
    /// The stats of bounce `b`, unless it is empty.
    pub fn bounce(&self, b: usize) -> Option<&SimStats> {
        self.bounces.iter().find(|(x, _)| *x == b).map(|(_, s)| s)
    }
}

/// The row of `method` on `scene` over `bounces`, or `None` unless
/// `cells` hold every one of them.
fn row(
    cells: &Cells,
    scene: SceneKind,
    method: Method,
    bounces: RangeInclusive<usize>,
) -> Option<Row> {
    let mut overall: Option<Aggregate> = None;
    let mut kept = Vec::new();
    for b in bounces {
        let cell = cells.get(scene, b, method)?;
        if !cell.empty {
            overall.get_or_insert_default().add(&cell.stats);
            kept.push((b, cell.stats.clone()));
        }
    }
    let clock = GpuConfig::gtx780().clock_mhz;
    let mrays = overall.as_ref().map(|a| a.mrays_at(clock, cells.smx_scale()));
    Some(Row { method, bounces: kept, overall, mrays, speedup: None })
}

/// The rows of `methods` on `scene`, Aila first, each with its speedup
/// over Aila.
fn rows(
    cells: &Cells,
    scene: SceneKind,
    methods: impl IntoIterator<Item = Method>,
    bounces: RangeInclusive<usize>,
) -> Option<Vec<Row>> {
    let mut rows: Vec<Row> = methods
        .into_iter()
        .map(|m| row(cells, scene, m, bounces.clone()))
        .collect::<Option<_>>()?;
    let aila = rows[0].mrays.filter(|&a| a > 0.0);
    for row in &mut rows {
        row.speedup = aila.and_then(|a| Some(row.mrays? / a));
    }
    Some(rows)
}

/// One scene of the comparison grid: Aila, DMK, TBC and DRS, in order.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The scene.
    pub scene: SceneKind,
    /// One row per comparison method.
    pub rows: Vec<Row>,
    /// The paper's DRS speedup on this scene.
    pub paper: f64,
}

impl Scene {
    /// Overall SIMD efficiency of row `i`, if it has any bounce with rays.
    pub fn efficiency(&self, i: usize) -> Option<f64> {
        self.rows[i].overall.as_ref().map(Aggregate::simd_efficiency)
    }

    /// Fig. 10's ordering: DRS is more SIMD-efficient than Aila.
    pub fn drs_beats_aila(&self) -> Option<bool> {
        Some(self.efficiency(3)? > self.efficiency(0)?)
    }

    /// Fig. 11's DRS speedup against the paper's.
    pub fn drs(&self) -> Option<VsPaper> {
        Some(VsPaper { measured: self.rows[3].speedup?, paper: self.paper })
    }
}

/// Fig. 10: the comparison grid in [`SceneKind::ALL`] order, or `None`
/// unless `cells` hold all of it.
pub fn fig10(cells: &Cells) -> Option<Vec<Scene>> {
    PAPER_DRS_SPEEDUPS
        .into_iter()
        .map(|(scene, paper)| {
            let rows = rows(cells, scene, comparison_methods(), 1..=CANONICAL_DEPTH)?;
            Some(Scene { scene, rows, paper })
        })
        .collect()
}

/// Fig. 11: throughput and speedup over Aila by method.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Every scene, in [`SceneKind::ALL`] order.
    pub scenes: Vec<Scene>,
    /// Each method's speedup averaged over the scenes that have one.
    pub averages: Vec<(Method, Option<f64>)>,
}

impl Fig11 {
    /// DRS's average speedup against the paper's.
    pub fn drs_average(&self) -> Option<VsPaper> {
        Some(VsPaper { measured: self.averages[3].1?, paper: PAPER_DRS_AVG_SPEEDUP })
    }
}

/// Fig. 11 from `cells`, or `None` unless they hold its whole grid.
pub fn fig11(cells: &Cells) -> Option<Fig11> {
    let scenes = fig10(cells)?;
    let averages = comparison_methods()
        .into_iter()
        .enumerate()
        .map(|(i, method)| {
            let speedups: Vec<f64> = scenes.iter().filter_map(|s| s.rows[i].speedup).collect();
            let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
            (method, (!speedups.is_empty()).then_some(avg))
        })
        .collect();
    Some(Fig11 { scenes, averages })
}

/// Fig. 8 on one scene: one row per [`fig8_methods`] entry, in order,
/// over [`SWEEP_BOUNCES`].
#[derive(Debug, Clone)]
pub struct Fig8Scene {
    /// The scene.
    pub scene: SceneKind,
    /// `(label, row)` per method; the rows' speedups are over Aila.
    pub rows: Vec<(String, Row)>,
}

impl Fig8Scene {
    fn mrays(&self, method: Method) -> Option<f64> {
        self.rows.iter().find(|(_, r)| r.method == method)?.1.mrays
    }

    /// The fewest backup rows' throughput (`measured`) against the
    /// most's (`paper`): the paper's claim is that they barely differ.
    pub fn fewest_vs_most_rows(&self) -> Option<VsPaper> {
        Some(VsPaper {
            measured: self.mrays(backup_rows_method(BACKUP_ROWS[0]))?,
            paper: self.mrays(backup_rows_method(BACKUP_ROWS[BACKUP_ROWS.len() - 1]))?,
        })
    }

    /// DRS with the fewest backup rows outruns Aila.
    pub fn fewest_rows_beat_aila(&self) -> Option<bool> {
        Some(self.mrays(backup_rows_method(BACKUP_ROWS[0]))? > self.mrays(Method::Aila)?)
    }
}

/// Fig. 8: Mrays/s per [`fig8_methods`] config and bounce, every scene in
/// [`SceneKind::ALL`] order, or `None` unless `cells` hold all of it.
pub fn fig8(cells: &Cells) -> Option<Vec<Fig8Scene>> {
    SceneKind::ALL
        .into_iter()
        .map(|scene| {
            let (labels, methods): (Vec<String>, Vec<Method>) = fig8_methods().into_iter().unzip();
            let rows = rows(cells, scene, methods, SWEEP_BOUNCES)?;
            Some(Fig8Scene { scene, rows: labels.into_iter().zip(rows).collect() })
        })
        .collect()
}

/// `rdctrl` issue outcomes of one backup-row count, summed over
/// [`SWEEP_BOUNCES`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallRate {
    /// Backup rows M.
    pub backup_rows: usize,
    /// Cycles a warp's `rdctrl` was refused.
    pub stalls: u64,
    /// `rdctrl` instructions issued.
    pub issued: u64,
}

impl StallRate {
    /// Stalls over issue attempts.
    pub fn rate(&self) -> f64 {
        self.stalls as f64 / (self.stalls + self.issued).max(1) as f64
    }
}

/// Fig. 9 on one scene: one [`StallRate`] per [`BACKUP_ROWS`] count.
#[derive(Debug, Clone)]
pub struct Fig9Scene {
    /// The scene.
    pub scene: SceneKind,
    /// In [`BACKUP_ROWS`] order.
    pub rates: Vec<StallRate>,
}

impl Fig9Scene {
    /// The first step from one M to the next where the stall rate rises;
    /// the paper's claim is that there is none.
    pub fn first_rise(&self) -> Option<[StallRate; 2]> {
        self.rates.windows(2).find(|w| w[1].rate() > w[0].rate()).map(|w| [w[0], w[1]])
    }
}

/// Fig. 9: the `rdctrl` stall rate per [`FIG9_SCENES`] scene and backup-row
/// count, or `None` unless `cells` hold its whole grid.
pub fn fig9(cells: &Cells) -> Option<Vec<Fig9Scene>> {
    FIG9_SCENES
        .into_iter()
        .map(|scene| {
            let rates = BACKUP_ROWS
                .into_iter()
                .map(|m| {
                    let mut rate = StallRate { backup_rows: m, stalls: 0, issued: 0 };
                    for b in SWEEP_BOUNCES {
                        let cell = cells.get(scene, b, backup_rows_method(m))?;
                        rate.stalls += cell.stats.rdctrl_stalls;
                        rate.issued += cell.stats.rdctrl_issued;
                    }
                    Some(rate)
                })
                .collect::<Option<_>>()?;
            Some(Fig9Scene { scene, rates })
        })
        .collect()
}

/// Table 2: throughput and swap latency per [`TABLE2_BUFFERS`] count.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// `(scene, bounce, Mrays/s per buffer count)` for every scene and
    /// bounce of [`SWEEP_BOUNCES`] where some buffer count has rays.
    pub rows: Vec<(SceneKind, usize, Vec<f64>)>,
    /// Mean cycles per completed swap per buffer count, over those rows.
    pub avg_swap_cycles: Vec<f64>,
}

impl Table2 {
    /// The paper's claim: more swap buffers, strictly shorter swaps.
    pub fn swap_cycles_fall(&self) -> bool {
        self.avg_swap_cycles.windows(2).all(|w| w[1] < w[0])
    }
}

/// Table 2 from `cells`, or `None` unless they hold its whole grid.
pub fn table2(cells: &Cells) -> Option<Table2> {
    let mut rows = Vec::new();
    let mut swaps = [(0u64, 0u64); TABLE2_BUFFERS.len()];
    for scene in SceneKind::ALL {
        for b in SWEEP_BOUNCES {
            let row: Vec<&CellRecord> = TABLE2_BUFFERS
                .iter()
                .map(|&n| cells.get(scene, b, table2_method(n)))
                .collect::<Option<_>>()?;
            if row.iter().all(|c| c.empty) {
                continue;
            }
            for (acc, cell) in swaps.iter_mut().zip(&row) {
                acc.0 += cell.stats.swap_cycle_sum;
                acc.1 += cell.stats.swaps_completed;
            }
            rows.push((scene, b, row.iter().map(|c| cells.mrays(&c.stats)).collect()));
        }
    }
    let avg_swap_cycles = swaps.iter().map(|&(sum, n)| sum as f64 / n.max(1) as f64).collect();
    Some(Table2 { rows, avg_swap_cycles })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_accumulates() {
        let mut a = SimStats { rays_completed: 100, cycles: 1000, ..SimStats::default() };
        a.issued.record(32);
        a.issued.record(32);
        let mut b = SimStats { rays_completed: 50, cycles: 500, ..SimStats::default() };
        b.issued.record(16);
        b.issued_si.record(8);

        let mut agg = Aggregate::default();
        let gpu = GpuConfig::gtx780();
        assert_eq!(agg.mrays_at(gpu.clock_mhz, 1), 0.0, "no cycles, no throughput");
        agg.add(&a);
        agg.add(&b);
        assert_eq!((agg.rays, agg.cycles), (150, 1500));
        assert_eq!((agg.issued.total, agg.issued_si.total), (3, 1));
        let expected = 0.1 * f64::from(gpu.clock_mhz) * gpu.smx_count as f64;
        assert!((agg.mrays_at(gpu.clock_mhz, gpu.smx_count) - expected).abs() < 1e-9);
        assert!((agg.mrays_at(gpu.clock_mhz, 1) - 0.1 * f64::from(gpu.clock_mhz)).abs() < 1e-9);
        // (32 + 32 + 16 + 8) active lanes over 4 issues of 32.
        assert_eq!(agg.simd_efficiency(), 88.0 / 128.0);
    }
}
