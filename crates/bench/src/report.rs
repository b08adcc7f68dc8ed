//! Rendering a results document into `RESULTS.md` — the `report` mode
//! of the `experiments` binary.
//!
//! The input is the document the binary writes
//! ([`drs_harness::ResultsFile::to_json`]), read back through the
//! harness's own decoder ([`drs_harness::ResultsDoc::parse`]) into
//! [`Cells`]. The figures are the values the stdout tables print
//! ([`crate::figure`]), formatted here as markdown with pass / deviation
//! markers against the paper's numbers or claims: Fig. 11, Fig. 2 and
//! Fig. 10, then the Fig. 8, Fig. 9 and Table 2 sweeps. A failing row
//! reads **deviation**; nothing is hidden.

use crate::figure::{
    self, times, Cells, VsPaper, PAPER_FIG9_M8_STALL_RATE, PAPER_TABLE2_SWAP_CYCLES, PASS_BAND,
};
use drs_harness::figures::{BACKUP_ROWS, TABLE2_BUFFERS};
use drs_harness::ResultsDoc;
use std::collections::BTreeMap;

/// The speedup verdict marker for one scene.
fn verdict(v: VsPaper) -> String {
    let mark = if v.passes() { "pass" } else { "**deviation**" };
    format!("{mark} ({:+.0}%)", v.deviation() * 100.0)
}

/// Render a results document (the text of `BENCH_experiments.json`) to
/// markdown.
///
/// # Errors
///
/// Returns the decoder's message when the text is not a results
/// document (wrong file, or a schema from a different tool).
pub fn render_json(text: &str) -> Result<String, String> {
    Ok(render(&Cells::new(ResultsDoc::parse(text)?)))
}

/// Render a run's cells to markdown.
pub fn render(cells: &Cells) -> String {
    let mut md = String::new();
    md.push_str("# Results vs. the paper\n\n");
    md.push_str(
        "Generated by `experiments -- report` from `BENCH_experiments.json` \
         (machine-readable output of the experiments binary).\n\n",
    );
    md.push_str(&format!(
        "- source run mode: `{}`, {} simulated cells\n\
         - workloads are procedural stand-ins at reduced geometry/ray scale \
         (see `DRS_RAYS`, `DRS_TRIS_SCALE`, `DRS_WARPS_SCALE`), so absolute \
         Mrays/s are not comparable to the paper; speedup *ratios* are the \
         reproduction target\n\
         - pass band: within {:.0}% of the paper's per-scene speedup\n",
        cells.mode,
        cells.records().count(),
        PASS_BAND * 100.0
    ));
    match cells.chip_sms {
        Some(sms) => md.push_str(&format!(
            "- **chip-accurate figures**: cells ran in full-chip mode \
             (`--chip`, {sms} SMs sharing one L2/MSHR/DRAM memory system), \
             so throughput includes cross-SM contention instead of scaling \
             one SMX by the SMX count\n\n"
        )),
        None => md.push_str(
            "- figures extrapolate one simulated SMX by the SMX count \
             (15×); rerun with `--chip` for chip-accurate numbers that \
             include cross-SM memory contention\n\n",
        ),
    }

    render_fig11(&mut md, cells);
    render_fig2(&mut md, cells);
    render_fig10(&mut md, cells);
    render_fig8(&mut md, cells);
    render_fig9(&mut md, cells);
    render_table2(&mut md, cells);
    render_chip_profile(&mut md, cells);

    md.push_str(
        "---\n\nRegenerate with `cargo run -p drs-bench --release --bin \
         experiments -- all` followed by `… -- report`.\n",
    );
    md
}

fn render_fig11(md: &mut String, cells: &Cells) {
    md.push_str("## Figure 11: speedup over Aila\n\n");
    let Some(fig) = figure::fig11(cells) else {
        md.push_str("*(no fig11 cells in this results file — run `fig11` or `all`)*\n\n");
        return;
    };
    md.push_str("| scene | DMK | TBC | DRS | DRS (paper) | verdict |\n");
    md.push_str("|---|---|---|---|---|---|\n");
    // A scene without a positive Aila baseline has no speedups to show.
    for s in fig.scenes.iter().filter(|s| s.rows[0].speedup.is_some()) {
        md.push_str(&format!(
            "| {} | {} | {} | {} | {:.2}x | {} |\n",
            s.scene,
            times(s.rows[1].speedup),
            times(s.rows[2].speedup),
            times(s.rows[3].speedup),
            s.paper,
            s.drs().map_or("--".into(), verdict),
        ));
    }
    if let Some(avg) = fig.drs_average() {
        md.push_str(&format!(
            "| **average** |  |  | **{:.2}x** | **{:.2}x** | {} |\n",
            avg.measured,
            avg.paper,
            verdict(avg)
        ));
    }
    md.push('\n');
}

fn render_fig2(md: &mut String, cells: &Cells) {
    md.push_str("## Figure 2: Aila SIMD efficiency per bounce (conference room)\n\n");
    let Some((fig, [first, last])) = figure::fig2(cells).and_then(|f| f.trend.map(|t| (f, t)))
    else {
        md.push_str("*(no fig2 cells in this results file — run `fig2` or `all`)*\n\n");
        return;
    };
    md.push_str("| bounce | SIMD efficiency |\n|---|---|\n");
    for (b, h) in &fig.bounces {
        if let Some(h) = h {
            md.push_str(&format!("| B{b} | {:.1}% |\n", h.simd_efficiency() * 100.0));
        }
    }
    md.push_str(&format!(
        "\nPaper's claim: efficiency collapses with bounce depth as rays \
         diverge. Measured B{}→B{}: {:.1}% → {:.1}% ({}).\n\n",
        first.0,
        last.0,
        first.1 * 100.0,
        last.1 * 100.0,
        if fig.collapses() { "pass" } else { "**deviation**" }
    ));
}

fn render_fig10(md: &mut String, cells: &Cells) {
    md.push_str("## Figure 10: overall SIMD efficiency by method\n\n");
    let Some(fig) = figure::fig10(cells) else {
        md.push_str("*(no fig10 cells in this results file — run `fig10` or `all`)*\n\n");
        return;
    };
    md.push_str("| scene | Aila | DMK | TBC | DRS | ordering |\n|---|---|---|---|---|---|\n");
    for s in fig.iter().filter(|s| s.efficiency(0).is_some()) {
        // The paper's qualitative result: every compaction scheme beats
        // Aila on efficiency, and DRS is at or near the top.
        let ordering = match s.drs_beats_aila() {
            Some(true) => "pass (DRS > Aila)",
            Some(false) => "**deviation** (DRS ≤ Aila)",
            None => "--",
        };
        let eff = |i| s.efficiency(i).map_or("--".into(), |e| format!("{:.1}%", e * 100.0));
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} | {ordering} |\n",
            s.scene,
            eff(0),
            eff(1),
            eff(2),
            eff(3)
        ));
    }
    md.push('\n');
}

/// The cells of a markdown table row.
fn table_row(cells: impl IntoIterator<Item = String>) -> String {
    let cells: Vec<String> = cells.into_iter().collect();
    format!("| {} |\n", cells.join(" | "))
}

/// A markdown table header for `columns`.
fn table_head(columns: impl IntoIterator<Item = String>) -> String {
    let columns: Vec<String> = columns.into_iter().collect();
    let rule = vec!["---"; columns.len()].join("|");
    format!("{}|{rule}|\n", table_row(columns))
}

fn render_fig8(md: &mut String, cells: &Cells) {
    let (fewest, most) = (BACKUP_ROWS[0], BACKUP_ROWS[BACKUP_ROWS.len() - 1]);
    md.push_str("## Figure 8: performance vs. backup ray rows\n\n");
    let Some(fig) = figure::fig8(cells) else {
        md.push_str("*(no fig8 cells in this results file — run `fig8` or `all`)*\n\n");
        return;
    };
    md.push_str("Whole-GPU Mrays/s over B1–B4 per backup-row config.\n\n");
    let labels = fig[0].rows.iter().map(|(label, _)| label.clone());
    let verdict_head = format!("M={fewest} vs M={most}");
    md.push_str(&table_head(std::iter::once("scene".into()).chain(labels).chain([verdict_head])));
    for s in &fig {
        let mrays = s.rows.iter().map(|(_, r)| r.mrays.map_or("--".into(), |x| format!("{x:.1}")));
        let mark = match (s.fewest_vs_most_rows(), s.fewest_rows_beat_aila()) {
            (Some(v), Some(true)) => verdict(v),
            (Some(v), Some(false)) => {
                format!("**deviation** ({:+.0}%, M={fewest} ≤ Aila)", v.deviation() * 100.0)
            }
            _ => "--".into(),
        };
        md.push_str(&table_row(std::iter::once(s.scene.to_string()).chain(mrays).chain([mark])));
    }
    md.push_str(&format!(
        "\nPaper's claim: throughput barely depends on the backup-row count, so \
         one backup row suffices. Verdict per scene: DRS M={fewest} is within \
         {:.0}% of M={most} and faster than Aila.\n\n",
        PASS_BAND * 100.0
    ));
}

fn render_fig9(md: &mut String, cells: &Cells) {
    let most = BACKUP_ROWS[BACKUP_ROWS.len() - 1];
    md.push_str("## Figure 9: rdctrl stall rate vs. backup ray rows\n\n");
    let Some(fig) = figure::fig9(cells) else {
        md.push_str("*(no fig9 cells in this results file — run `fig9` or `all`)*\n\n");
        return;
    };
    md.push_str("Refused `rdctrl` issue attempts over all attempts, B1–B4.\n\n");
    let columns = BACKUP_ROWS.iter().map(|m| format!("M={m}"));
    md.push_str(&table_head(
        std::iter::once("scene".into())
            .chain(columns)
            .chain([format!("M={most} (paper)"), "verdict".into()]),
    ));
    for s in &fig {
        let rates = s.rates.iter().map(|r| format!("{:.2}%", r.rate() * 100.0));
        let mark = match s.first_rise() {
            None => "pass".into(),
            Some([from, to]) => format!(
                "**deviation** (rises M={}→M={} by {:.4} pts)",
                from.backup_rows,
                to.backup_rows,
                (to.rate() - from.rate()) * 100.0
            ),
        };
        let paper = format!("≤{:.1}%", PAPER_FIG9_M8_STALL_RATE * 100.0);
        md.push_str(&table_row(
            std::iter::once(s.scene.to_string()).chain(rates).chain([paper, mark]),
        ));
    }
    md.push_str(
        "\nPaper's claim: the stall rate falls as backup rows are added. \
         Verdict per scene: the rate does not rise from one M to the next.\n\n",
    );
}

fn render_table2(md: &mut String, cells: &Cells) {
    md.push_str("## Table 2: performance vs. swap buffers\n\n");
    let Some(table) = figure::table2(cells) else {
        md.push_str("*(no table2 cells in this results file — run `table2` or `all`)*\n\n");
        return;
    };
    md.push_str(
        "Whole-GPU Mrays/s per bounce with one backup row, and the mean \
         cycles per completed swap.\n\n",
    );
    let columns = TABLE2_BUFFERS.iter().map(|n| format!("#{n}"));
    md.push_str(&table_head(["scene".into(), "bounce".into()].into_iter().chain(columns)));
    for (scene, b, mrays) in &table.rows {
        let mrays = mrays.iter().map(|x| format!("{x:.1}"));
        md.push_str(&table_row([scene.to_string(), format!("B{b}")].into_iter().chain(mrays)));
    }
    let cycles = table.avg_swap_cycles.iter().map(|c| format!("{c:.1}"));
    md.push_str(&table_row(["avg swap cycles".into(), String::new()].into_iter().chain(cycles)));
    let paper = PAPER_TABLE2_SWAP_CYCLES.iter().map(|c| format!("{c:.1}"));
    md.push_str(&table_row(
        ["avg swap cycles (paper)".into(), String::new()].into_iter().chain(paper),
    ));
    md.push_str(&format!(
        "\nPaper's claim: swaps get shorter as swap buffers are added. Verdict: \
         average swap cycles strictly fall from #{} to #{} ({}).\n\n",
        TABLE2_BUFFERS[0],
        TABLE2_BUFFERS[TABLE2_BUFFERS.len() - 1],
        if table.swap_cycles_fall() { "pass" } else { "**deviation**" }
    ));
}

/// Footnote table for chip-accurate cells: per-(scene, method) shared
/// memory-system profile — L2 hit rate, DRAM-channel utilization
/// (busy time over chip cycles, both summed across bounces), and
/// MSHR-exhaustion stalls. Silent when the document has no chip cells.
fn render_chip_profile(md: &mut String, cells: &Cells) {
    // (l2 hits, l2 misses, MSHR waits, DRAM busy, cycles) per (scene, method).
    let mut map: BTreeMap<(&str, &str), [u64; 5]> = BTreeMap::new();
    for c in cells.records().filter(|c| !c.empty) {
        let Some(chip) = &c.chip else { continue };
        let acc = map.entry((c.scene.name(), &c.method)).or_default();
        let add = [chip.l2_hits, chip.l2_misses, chip.mshr_waits, chip.dram_busy_q, c.stats.cycles];
        for (a, x) in acc.iter_mut().zip(add) {
            *a += x;
        }
    }
    if map.is_empty() {
        return;
    }
    md.push_str("## Shared memory system (chip-accurate cells)\n\n");
    md.push_str(
        "Chip-wide L2 hit rate and DRAM-channel utilization per \
         (scene, method), summed over bounces. Utilization is DRAM busy \
         time over chip cycles (fixed-point `dram_busy_q / (cycles × \
         1024)`); MSHR waits count requests stalled on an exhausted \
         miss-handler pool.\n\n",
    );
    md.push_str("| scene | method | L2 hit rate | DRAM util | MSHR waits |\n");
    md.push_str("|---|---|---|---|---|\n");
    for ((scene, method), [hits, misses, waits, busy_q, cycles]) in &map {
        let hit_rate = *hits as f64 / (*hits as f64 + *misses as f64).max(1.0);
        let util = *busy_q as f64 / ((*cycles as f64).max(1.0) * 1024.0);
        md.push_str(&format!(
            "| {scene} | {method} | {:.1}% | {:.1}% | {waits} |\n",
            hit_rate * 100.0,
            util * 100.0,
        ));
    }
    md.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_harness::{
        figures, run_jobs, CellResult, ChipConfig, ChipSummary, EntryCounters, JobSet, Method,
        ResultsFile, RunOptions, Scale, SimJob,
    };
    use drs_scene::SceneKind;
    use drs_sim::{ActiveHistogram, SimStats};

    const SCALE: Scale = Scale { rays: 64, tris_scale: 0.005, warps_scale: 0.1 };

    fn stats(cycles: u64, active_sum: u64, total: u64) -> SimStats {
        let issued = ActiveHistogram { buckets: [0, 0, 0, total], total, active_sum };
        SimStats { cycles, rays_completed: 100, issued, ..SimStats::default() }
    }

    /// The document `experiments` writes for `jobs`, each cell carrying
    /// `cell(job)`'s stats and chip summary.
    fn document(
        mode: &str,
        jobs: &[SimJob],
        cell: impl Fn(&SimJob) -> (SimStats, Option<ChipSummary>),
    ) -> String {
        let cells = jobs
            .iter()
            .map(|&job| {
                let (stats, chip) = cell(&job);
                let cell = CellResult {
                    job,
                    empty: false,
                    completed: true,
                    stats,
                    telemetry: None,
                    sm_telemetry: Vec::new(),
                    chip_telemetry: None,
                    failure: None,
                    chip,
                    attempts: 1,
                    wall_ms: 1.0,
                };
                (vec![mode.to_string()], cell)
            })
            .collect();
        let file = ResultsFile {
            mode: mode.into(),
            workers: 1,
            cache: EntryCounters::default(),
            store: EntryCounters::default(),
            wall_ms: 1.0,
            resumed: 0,
            checkpoint_writes: 0,
            cells,
        };
        file.to_json()
    }

    /// The fig11 grid: DRS runs twice as fast as Aila on the conference
    /// room (paper 1.84 → pass) and as fast on the fairy forest (paper
    /// 1.92 → deviation); Aila's conference efficiency falls from B1 to
    /// the later bounces.
    fn sample_jobs() -> Vec<SimJob> {
        figures::fig11(&SCALE).jobs
    }

    fn sample_cell(job: &SimJob) -> (SimStats, Option<ChipSummary>) {
        let drs = job.method == Method::drs_default();
        let cycles = if drs && job.workload.scene != SceneKind::FairyForest { 500 } else { 1000 };
        let active = match (job.workload.scene, job.method, job.bounce) {
            (SceneKind::Conference, Method::Aila, 1) => 300,
            (_, Method::Aila, _) => 100,
            _ => 200,
        };
        (stats(cycles, active, 10), None)
    }

    fn sample_md() -> String {
        render_json(&document("all", &sample_jobs(), sample_cell)).unwrap()
    }

    #[test]
    fn report_marks_pass_and_deviation() {
        let md = sample_md();
        assert!(
            md.contains("| conference room | 1.00x | 1.00x | 2.00x | 1.84x | pass (+9%) |"),
            "{md}"
        );
        assert!(
            md.contains("| fairy forest | 1.00x | 1.00x | 1.00x | 1.92x | **deviation** (-48%) |")
        );
        // (2 + 1 + 2 + 2) / 4 = 1.75 against 1.79.
        assert!(md.contains("| **average** |  |  | **1.75x** | **1.79x** | pass (-2%) |"), "{md}");
        assert!(
            md.contains("| conference room | 39.1% | 62.5% | 62.5% | 62.5% | pass (DRS > Aila) |")
        );
    }

    #[test]
    fn report_covers_fig2_trend() {
        let md = sample_md();
        assert!(md.contains("| B1 | 93.8% |"), "{md}");
        assert!(md.contains("| B8 | 31.2% |"));
        assert!(md.contains("Measured B1→B8: 93.8% → 31.2% (pass)"));
    }

    #[test]
    fn verdict_band_edges() {
        let v = |ratio: f64| verdict(VsPaper { measured: 1.84 * ratio, paper: 1.84 });
        assert!(v(1.0).starts_with("pass"));
        assert!(v(1.24).starts_with("pass"));
        assert!(v(0.76).starts_with("pass"));
        assert!(v(1.30).starts_with("**deviation**"));
        assert!(v(0.70).starts_with("**deviation**"));
    }

    /// The fig2 grid on a `sms`-SM chip; every cell has the same chip
    /// counters.
    fn chip_doc(sms: usize) -> String {
        let jobs = figures::fig2(&SCALE).with_chip(ChipConfig::gtx780(sms)).jobs;
        document("fig2", &jobs, |_| {
            let chip = ChipSummary {
                sms,
                l2_hits: 300,
                l2_misses: 100,
                mshr_waits: 7,
                dram_busy_q: 5120,
                ..ChipSummary::default()
            };
            (stats(10, 300, 10), Some(chip))
        })
    }

    #[test]
    fn report_annotates_chip_vs_scaled_runs() {
        let scaled = sample_md();
        assert!(scaled.contains("extrapolate one simulated SMX"), "{scaled}");
        let chip = render_json(&chip_doc(15)).unwrap();
        assert!(chip.contains("chip-accurate figures"), "{chip}");
        assert!(chip.contains("15 SMs sharing one L2/MSHR/DRAM"), "{chip}");
        assert!(!chip.contains("extrapolate one simulated SMX"));
    }

    #[test]
    fn chip_cells_get_a_memory_system_footnote() {
        // No chip cells → no footnote section at all.
        let scaled = sample_md();
        assert!(!scaled.contains("Shared memory system"), "{scaled}");
        let md = render_json(&chip_doc(2)).unwrap();
        assert!(md.contains("## Shared memory system (chip-accurate cells)"), "{md}");
        // 300/(300+100) = 75% hit rate; 5120/(10·1024) = 50% utilization;
        // 7 waits in each of the 8 bounces.
        assert!(md.contains("| conference room | Aila | 75.0% | 50.0% | 56 |"), "{md}");
    }

    #[test]
    fn report_survives_partial_documents() {
        let md = render_json(&document("table1", &[], sample_cell)).unwrap();
        assert!(md.contains("no fig11 cells"));
        assert!(md.contains("no fig2 cells"));
        assert!(md.contains("no fig10 cells"));
        assert!(md.contains("no fig8 cells") && md.contains("no fig9 cells"));
        assert!(md.contains("no table2 cells"));
        // A figure renders only with its whole grid: one missing cell
        // drops Fig. 10 and Fig. 11 but not Fig. 2, whose cells remain.
        let mut jobs = sample_jobs();
        jobs.pop();
        let md = render_json(&document("fig11", &jobs, sample_cell)).unwrap();
        assert!(md.contains("no fig11 cells") && md.contains("no fig10 cells"), "{md}");
        assert!(md.contains("| B1 | 93.8% |"), "{md}");
    }

    /// The Fig. 9 grid: fairy forest's stall rate falls with M, and
    /// conference's falls except from M=2 (99.0704%) to M=4, which has
    /// `m4_stalls` of every 2.5M `rdctrl` attempts per cell.
    fn fig9_md(m4_stalls: u64) -> String {
        let jobs = figures::fig9(&SCALE).jobs;
        let doc = document("fig9", &jobs, |job| {
            let Method::Drs { backup_rows: m, .. } = job.method else { unreachable!() };
            let stalls = match (job.workload.scene, m) {
                (SceneKind::Conference, 4) => m4_stalls,
                (SceneKind::Conference, m) => 2_476_800 - 20 * m as u64,
                (_, m) => 2_000_000 - 1000 * m as u64,
            };
            let s = SimStats {
                rdctrl_stalls: stalls,
                rdctrl_issued: 2_500_000 - stalls,
                ..stats(10, 300, 10)
            };
            (s, None)
        });
        render_json(&doc).unwrap()
    }

    #[test]
    fn fig9_flags_any_rise_and_passes_a_tie() {
        // 99.0718% at M=4: conference's rise at the committed scale.
        let md = fig9_md(2_476_795);
        assert!(md.contains("| ≤4.8% | **deviation** (rises M=2→M=4 by 0.0014 pts) |"), "{md}");
        assert!(
            md.contains("| fairy forest | 79.96% | 79.92% | 79.84% | 79.68% | ≤4.8% | pass |"),
            "{md}"
        );
        let tie = fig9_md(2_476_760);
        assert!(
            tie.contains("| conference room | 99.07% | 99.07% | 99.07% | 99.07% | ≤4.8% | pass |"),
            "{tie}"
        );
    }

    #[test]
    fn fig9_document_renders_only_fig9() {
        let md = fig9_md(2_476_760);
        assert!(md.contains("| scene | M=1 | M=2 | M=4 | M=8 | M=8 (paper) | verdict |"), "{md}");
        assert!(md.contains("no fig8 cells") && md.contains("no table2 cells"), "{md}");
        assert!(md.contains("no fig2 cells") && md.contains("no fig11 cells"), "{md}");
    }

    /// The Table 2 grid with `swap_cycles[i]` cycles per swap at the
    /// i-th buffer count.
    fn table2_md(swap_cycles: [u64; 4]) -> String {
        let jobs = figures::table2(&SCALE).jobs;
        let doc = document("table2", &jobs, |job| {
            let Method::Drs { swap_buffers, .. } = job.method else { unreachable!() };
            let i = figures::TABLE2_BUFFERS.iter().position(|&n| n == swap_buffers).unwrap();
            let s = SimStats {
                swap_cycle_sum: 10 * swap_cycles[i],
                swaps_completed: 10,
                ..stats(10, 300, 10)
            };
            (s, None)
        });
        render_json(&doc).unwrap()
    }

    #[test]
    fn table2_demands_strictly_falling_swap_cycles() {
        let md = table2_md([20, 17, 16, 14]);
        assert!(md.contains("| avg swap cycles |  | 20.0 | 17.0 | 16.0 | 14.0 |"), "{md}");
        assert!(md.contains("| avg swap cycles (paper) |  | 31.6 | 25.0 | 24.3 | 22.0 |"));
        assert!(md.contains("strictly fall from #6 to #18 (pass)"), "{md}");
        let md = table2_md([20, 17, 17, 14]);
        assert!(md.contains("strictly fall from #6 to #18 (**deviation**)"), "{md}");
    }

    /// The Fig. 8 grid: every cell completes 300 rays, DRS M=1 in
    /// `m1_cycles` cycles, Aila in 3200 and every other config in 1200.
    fn fig8_md(m1_cycles: u64) -> String {
        let jobs = figures::fig8(&SCALE).jobs;
        let doc = document("fig8", &jobs, |job| {
            let cycles = match job.method {
                Method::Aila => 3200,
                m if m == figures::backup_rows_method(1) => m1_cycles,
                _ => 1200,
            };
            (SimStats { rays_completed: 300, ..stats(cycles, 300, 10) }, None)
        });
        render_json(&doc).unwrap()
    }

    #[test]
    fn fig8_band_edge_passes_like_vs_paper() {
        // 300/1600 against 300/1200 rays per cycle: exactly 25% below M=8.
        let md = fig8_md(1600);
        let row =
            "| conference room | 1378.1 | 3675.0 | 2756.2 | 3675.0 | 3675.0 | 3675.0 | 3675.0 |";
        assert!(md.contains(&format!("{row} pass (-25%) |")), "{md}");
        assert!(fig8_md(1601).contains("| **deviation** (-25%) |"));
        assert!(fig8_md(4000).contains("| **deviation** (-70%, M=1 ≤ Aila) |"));
    }

    #[test]
    fn report_rejects_foreign_documents() {
        assert!(render_json(r#"{"traceEvents":[]}"#).unwrap_err().contains("no 'cells'"));
        assert!(render_json("not json").unwrap_err().contains("not valid JSON"));
        let partial = document("fig2", &figures::fig2(&SCALE).jobs, sample_cell)
            .replace("\"rdctrl_stalls\":0,", "");
        assert!(render_json(&partial).unwrap_err().contains("cell 0 is malformed"));
    }

    /// Render `set`'s run from memory and from its results JSON.
    fn both_renderings(set: &JobSet) -> (String, String) {
        let report = run_jobs(&set.jobs, &RunOptions::parallel(2));
        assert!(report.all_clean());
        let n = report.cells.len();
        let file = ResultsFile::from_report(&set.name, 2, report, vec![vec![set.name.clone()]; n]);
        (render(&Cells::new(file.doc())), render_json(&file.to_json()).unwrap())
    }

    #[test]
    fn memory_and_json_render_identically() {
        let (memory, json) = both_renderings(&figures::fig11(&SCALE));
        assert!(memory.contains("| **average** |"), "{memory}");
        assert!(memory.contains("| B1 |"), "{memory}");
        assert_eq!(memory, json);
        // Fig. 8 and Table 2; Fig. 9's grid is part of Fig. 8's.
        let mut sweeps = figures::fig8(&SCALE);
        let mut ids: std::collections::HashSet<_> = sweeps.jobs.iter().map(SimJob::id).collect();
        sweeps.jobs.extend(figures::table2(&SCALE).jobs.into_iter().filter(|j| ids.insert(j.id())));
        let (memory, json) = both_renderings(&sweeps);
        for name in ["fig8", "fig9", "table2"] {
            assert!(!memory.contains(&format!("no {name} cells")), "{memory}");
        }
        assert!(memory.contains("| avg swap cycles (paper) |"), "{memory}");
        assert_eq!(memory, json);
        let chip = figures::fig2(&SCALE).with_chip(ChipConfig::gtx780(2));
        let (memory, json) = both_renderings(&chip);
        assert!(memory.contains("## Shared memory system"), "{memory}");
        assert_eq!(memory, json);
    }
}
