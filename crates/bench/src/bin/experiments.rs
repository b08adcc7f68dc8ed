//! Regenerates every table and figure of the paper's evaluation section
//! through the `drs-harness` job pool.
//!
//! Usage: `experiments [MODE] [--jobs N] [--out PATH] [--no-cache]
//! [--timeline] [--trace-out PATH] [--interval N] [--progress] [--list]`
//! where MODE is one of `table1 | fig2 | fig8 | fig9 | table2 | fig10 |
//! fig11 | overhead | ablation | energy | all` (default `all`).
//!
//! `--timeline` attaches the telemetry collector to every cell and writes
//! stall-attribution totals plus interval timelines to
//! `<out stem>_timeline.json`; `--trace-out PATH` additionally records
//! per-warp stall spans as Chrome trace-event JSON (open in
//! `chrome://tracing` or Perfetto).
//!
//! Each figure is a declarative job set (`drs_harness::figures`); the
//! union of the requested figures' cells is deduplicated by content-
//! derived job id (fig10 and fig11 share their whole grid), executed in
//! parallel with bit-deterministic results, and written both as the
//! familiar stdout tables and as machine-readable JSON
//! (`BENCH_experiments.json`).
//!
//! Scaling knobs: `DRS_RAYS`, `DRS_TRIS_SCALE`, `DRS_WARPS_SCALE` (see the
//! `drs-bench` crate docs). Absolute Mrays/s values depend on the scaled
//! workloads; the comparisons (who wins, by what factor) are the result.

use drs_bench::{cli, Aggregate};
use drs_core::overhead::{dmk_spawn_memory_bytes, paper, tbc_warp_buffer_bytes, DrsOverhead};
use drs_core::DrsConfig;
use drs_harness::{
    figures, run_cell, run_jobs, CaptureMode, CellConfig, CellResult, CheckpointSpec, ChipConfig,
    JobId, Method, ResultStore, ResultsFile, RunOptions, Scale, SimJob, StreamCache, WorkloadSpec,
};
use drs_scene::SceneKind;
use drs_sim::{ActiveHistogram, GpuConfig};
use std::collections::HashMap;

/// Cells of the current run, addressable by content-derived job id.
struct Cells {
    by_id: HashMap<JobId, CellResult>,
    scale: Scale,
    /// The chip config every job ran with (`--chip`), or `None` for the
    /// default single-SMX cells scaled by the SMX count.
    chip: Option<ChipConfig>,
}

impl Cells {
    /// The cell for (scene, bounce, method), if it was part of the run.
    fn get(&self, scene: SceneKind, bounce: usize, method: Method) -> Option<&CellResult> {
        let workload = WorkloadSpec::standard(scene, &self.scale, figures::CANONICAL_DEPTH);
        let job = SimJob {
            workload,
            bounce,
            method,
            warps: self.scale.warps(method.paper_warps()),
            chip: self.chip,
        };
        self.by_id.get(&job.id())
    }

    /// Like [`Cells::get`] but demands presence (enumeration bug otherwise).
    fn require(&self, scene: SceneKind, bounce: usize, method: Method) -> &CellResult {
        self.get(scene, bounce, method).unwrap_or_else(|| {
            panic!("cell missing from run: {scene} B{bounce} {}", method.label())
        })
    }
}

fn main() {
    let cli = match cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    if cli.help {
        println!("{}", cli::USAGE);
        return;
    }
    let scale = Scale::from_env();
    if cli.list {
        list_modes(&scale);
        return;
    }
    // Standalone utility modes: neither runs the figure pipeline below.
    if cli.mode == "report" {
        report_mode(&cli);
        return;
    }
    if cli.mode == "verify" {
        verify_mode(&cli);
        return;
    }

    let modes = modes_for(&cli.mode);
    let chip_cfg = cli.chip.then(|| ChipConfig::gtx780(cli.sms));

    // Union of all requested figures' jobs, deduped by content id. One
    // simulated cell can serve several figures (fig10/fig11 share every
    // cell; energy is a subset of both). With `--chip` every set is
    // decorated *before* ids are taken, since the chip config is part of
    // job identity.
    let mut jobs: Vec<SimJob> = Vec::new();
    let mut index: HashMap<JobId, usize> = HashMap::new();
    let mut figures_of: Vec<Vec<String>> = Vec::new();
    for mode in &modes {
        let Some(mut set) = figures::by_name(mode, &scale) else { continue };
        if let Some(chip) = chip_cfg {
            set = set.with_chip(chip);
        }
        for job in set.jobs {
            let id = job.id();
            let slot = *index.entry(id).or_insert_with(|| {
                jobs.push(job);
                figures_of.push(Vec::new());
                jobs.len() - 1
            });
            if !figures_of[slot].iter().any(|f| f == mode) {
                figures_of[slot].push(mode.to_string());
            }
        }
    }

    let capture = if cli.use_cache {
        CaptureMode::Cached(StreamCache::with_limit(StreamCache::default_dir(), cli.cache_limit))
    } else {
        CaptureMode::Uncached
    };
    let store = cli.store.then(|| {
        std::sync::Arc::new(ResultStore::new(
            cli.store_dir.clone().unwrap_or_else(ResultStore::default_dir),
        ))
    });
    let telemetry = cli.telemetry_enabled().then(|| drs_telemetry::TelemetryConfig {
        interval: cli.interval,
        trace: cli.trace_out.is_some(),
        ..drs_telemetry::TelemetryConfig::default()
    });
    let opts = RunOptions {
        workers: cli.workers,
        capture,
        telemetry,
        progress: cli.progress,
        fastpath: cli.fastpath,
        retries: cli.retries,
        job_cycle_budget: cli.job_cycles,
        job_timeout_ms: cli.job_timeout_secs.map(|s| s * 1000),
        chip_threads: cli.chip_threads,
        faults: cli.inject.clone(),
        checkpoint: Some(CheckpointSpec { path: cli.checkpoint_path(), resume: cli.resume }),
        store,
        ..RunOptions::serial()
    };
    let report = run_jobs(&jobs, &opts);

    let failures: Vec<String> = report
        .cells
        .iter()
        .filter(|c| c.failure.is_some() || !c.completed)
        .map(|c| {
            let why = c
                .failure
                .as_ref()
                .map_or_else(|| "incomplete".to_string(), |f| format!("{}: {}", f.kind, f.message));
            format!(
                "{} B{} {} ({} attempt(s)): {why}",
                c.job.workload.scene,
                c.job.bounce,
                c.job.method.label(),
                c.attempts
            )
        })
        .collect();
    let resumed = report.resumed;
    if let Some(chip) = &chip_cfg {
        println!(
            "[full-chip mode: {} SMs sharing one L2/MSHR/DRAM system ({}); throughput is \
             chip-accurate, not SMX-count-scaled]",
            chip.sms,
            chip.canonical()
        );
    }
    let cells = Cells {
        by_id: report.cells.iter().map(|c| (c.job.id(), c.clone())).collect(),
        scale,
        chip: chip_cfg,
    };

    for mode in &modes {
        match *mode {
            "table1" => table1(),
            "fig2" => fig2(&cells),
            "fig8" => fig8(&cells),
            "fig9" => fig9(&cells),
            "table2" => table2(&cells),
            "fig10" => fig10(&cells),
            "fig11" => fig11(&cells),
            "overhead" => overhead(),
            "ablation" => ablation(&cells),
            "energy" => energy(&cells),
            other => unreachable!("unhandled mode {other}"),
        }
    }

    let cache = report.cache;
    let results = ResultsFile::from_report(&cli.mode, cli.workers, report, figures_of);
    match results.write_to(&cli.out) {
        Ok(()) => {
            let resumed_note = if resumed > 0 {
                format!("; {resumed} resumed from checkpoint")
            } else {
                String::new()
            };
            let store_note = if cli.store {
                format!("; store: {} hit / {} miss", results.store.hits, results.store.misses)
            } else {
                String::new()
            };
            println!(
                "\n[{} cells -> {}; capture cache: {} hit / {} miss / {} quarantined{store_note}{resumed_note}; {:.1}s]",
                results.cells.len(),
                cli.out.display(),
                cache.hits,
                cache.misses,
                cache.quarantined,
                results.wall_ms / 1e3
            );
        }
        Err(e) => {
            eprintln!("error: could not write {}: {e}", cli.out.display());
            std::process::exit(1);
        }
    }
    // The volatile run facts (wall clock, workers, cache/store counters)
    // go to a sidecar so the results file itself stays byte-identical
    // across reruns.
    if let Err(e) = drs_harness::write_text(&cli.run_path(), &results.run_json()) {
        eprintln!("warning: could not write {}: {e}", cli.run_path().display());
    }
    if let Some(dump) = &cli.stats_dump {
        if let Err(e) = drs_harness::write_text(dump, &results.stats_json()) {
            eprintln!("error: could not write {}: {e}", dump.display());
            std::process::exit(1);
        }
        println!("[stats dump -> {}]", dump.display());
    }
    if cli.telemetry_enabled() {
        let timeline = cli.timeline_path();
        match results.timeline_json() {
            Some(json) => {
                if let Err(e) = drs_harness::write_text(&timeline, &json) {
                    eprintln!("error: could not write {}: {e}", timeline.display());
                    std::process::exit(1);
                }
                println!("[timeline -> {}]", timeline.display());
            }
            None => println!("[timeline: no instrumented cells in this mode]"),
        }
    }
    if let Some(trace_path) = &cli.trace_out {
        match results.chrome_trace_json() {
            Some(json) => {
                // Self-validate before writing: a malformed trace should
                // fail the run, not silently produce an unloadable file.
                let summary =
                    drs_telemetry::check::validate_chrome_trace(&json).unwrap_or_else(|e| {
                        eprintln!("error: generated chrome trace failed validation: {e}");
                        std::process::exit(1);
                    });
                if let Err(e) = drs_harness::write_text(trace_path, &json) {
                    eprintln!("error: could not write {}: {e}", trace_path.display());
                    std::process::exit(1);
                }
                println!(
                    "[chrome trace -> {}; {} rows, {} spans; load in chrome://tracing]",
                    trace_path.display(),
                    summary.pids.len(),
                    summary.duration_events
                );
            }
            None => println!("[chrome trace: no instrumented cells in this mode]"),
        }
    }
    // Two distinct degradations, two distinct exit codes: a failed cell
    // means the results are incomplete (exit 1); a failed store write
    // after a successful simulation lost only durability — the results
    // in hand are complete and correct, so warn and exit 0.
    if !failures.is_empty() {
        eprintln!("error: {} of {} cell(s) failed:", failures.len(), results.cells.len());
        for cell in failures {
            eprintln!("  {cell}");
        }
        eprintln!(
            "(structured failure records are in {}; rerun with --resume to retry only the \
             failed cells)",
            cli.out.display()
        );
        std::process::exit(1);
    }
    if results.store.write_failures > 0 {
        eprintln!(
            "warning: {} result-store write(s) failed but every simulation succeeded; the \
             results in {} are complete, only store durability was lost (a warm rerun will \
             re-simulate the unpersisted cells)",
            results.store.write_failures,
            cli.out.display()
        );
    }
}

/// The presentation order for a mode (`all` = every section).
fn modes_for(mode: &str) -> Vec<&'static str> {
    let all = [
        "table1", "fig2", "fig8", "fig9", "table2", "fig10", "fig11", "overhead", "ablation",
        "energy",
    ];
    match mode {
        "all" => all.to_vec(),
        m => all.iter().copied().filter(|x| *x == m).collect(),
    }
}

fn list_modes(scale: &Scale) {
    println!("{:10} {:>6}  workloads", "mode", "jobs");
    for mode in cli::MODES {
        if mode == "all" {
            continue;
        }
        match mode {
            "report" => {
                println!("{:10} {:>6}  render BENCH_experiments.json -> RESULTS.md", mode, 0);
            }
            "verify" => println!(
                "{:10} {:>6}  static analysis of {} kernel programs -> BENCH_verify.json",
                mode,
                0,
                VERIFY_KERNELS.len()
            ),
            _ => match figures::by_name(mode, scale) {
                Some(set) => {
                    let workloads = set.distinct_workloads();
                    let scenes: Vec<String> =
                        workloads.iter().map(|w| w.scene.to_string()).collect();
                    println!("{:10} {:>6}  {}", mode, set.jobs.len(), scenes.join(", "));
                }
                None => println!("{:10} {:>6}  (print-only, no simulation)", mode, 0),
            },
        }
    }
}

/// Every kernel program the static-analysis report covers. TBC and DRS
/// execute the while-if program under their own hardware units, so their
/// entries verify that same program — listed separately because the paper
/// evaluates them as separate methods.
const VERIFY_KERNELS: [&str; 5] = ["while-while", "while-if", "dmk", "tbc", "drs"];

/// The program a registered kernel name executes.
fn verify_program_for(name: &str) -> drs_sim::Program {
    use drs_baselines::{DmkConfig, DmkKernel};
    use drs_kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
    match name {
        "while-while" => WhileWhileKernel::new(WhileWhileConfig::default()).program(),
        "dmk" => DmkKernel::new(DmkConfig::paper_default(4)).program(),
        "while-if" | "tbc" | "drs" => WhileIfKernel::new().program(),
        other => unreachable!("unregistered kernel `{other}`"),
    }
}

/// Record `report` in the open JSON object (`clean`, `errors`, `warnings`,
/// `diagnostics`) and print it: a verdict line for `what` ending in
/// `detail`, then each diagnostic on its own line. Returns the error count.
fn record_report(
    j: &mut drs_sim::JsonBuf,
    what: &str,
    detail: &str,
    report: &drs_verify::Report,
) -> usize {
    let errors = report.errors().count();
    let warnings = report.warnings().count();
    let verdict = if errors == 0 { "clean" } else { "FAILED" };
    println!("{what:12} {verdict} ({errors} error(s), {warnings} warning(s)){detail}");
    j.kv_bool("clean", errors == 0);
    j.kv_u64("errors", errors as u64);
    j.kv_u64("warnings", warnings as u64);
    j.key("diagnostics");
    j.begin_arr();
    for d in &report.diagnostics {
        println!("  {d}");
        j.begin_obj();
        j.kv_str("check", d.check.code());
        let severity = if d.severity == drs_verify::Severity::Error { "error" } else { "warning" };
        j.kv_str("severity", severity);
        if let Some(b) = d.block {
            j.kv_u64("block", u64::from(b));
        }
        j.kv_str("message", &d.message);
        j.end_obj();
    }
    j.end_arr();
    errors
}

/// `verify` mode: run the full static-analysis suite — structural checks,
/// dataflow diagnostics, shuffle live sets, stack-depth and register-
/// pressure bounds, natural loops — over every registered kernel program,
/// lint the paper's GPU configuration, and write one machine-readable JSON
/// report for CI to gate on.
///
/// Exits 1 when any kernel or the config has an error-severity diagnostic
/// (including a shuffle live set that differs from the declared per-ray
/// register count); warnings are printed and recorded but do not fail the
/// run.
fn verify_mode(cli: &cli::Cli) {
    use drs_kernels::costs::RAY_LIVE_REGISTERS;
    use drs_sim::{GpuConfig, JsonBuf};
    use drs_verify::{live_set_summary, verify_config, verify_program};

    banner("Static analysis: kernel programs");
    let out = if cli.out == std::path::Path::new("BENCH_experiments.json") {
        std::path::PathBuf::from("BENCH_verify.json")
    } else {
        cli.out.clone()
    };
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.kv_u64("schema_version", 1);
    j.kv_str("suite", "drs-verify-static");
    j.key("kernels");
    j.begin_arr();
    let mut total_errors = 0usize;
    for name in VERIFY_KERNELS {
        let program = verify_program_for(name);
        let mut report = verify_program(&program);
        drs_verify::shuffle::check_shuffle_live(program.blocks(), RAY_LIVE_REGISTERS, &mut report);
        let summary = live_set_summary(&program);
        let shuffle_ok = summary.points.iter().all(|p| p.live_count() == RAY_LIVE_REGISTERS);
        let detail = format!(
            "; {} shuffle points, live {}..{} regs{}, stack depth <= {}, pressure <= {}",
            summary.points.len(),
            summary.min_live,
            summary.max_live,
            if shuffle_ok { " (= declared)" } else { " (MISMATCH)" },
            summary.stack_depth_bound(32),
            summary.max_pressure,
        );

        j.begin_obj();
        j.kv_str("kernel", name);
        j.kv_u64("declared_live_regs", RAY_LIVE_REGISTERS as u64);
        total_errors += record_report(&mut j, name, &detail, &report);
        j.key("live");
        j.begin_obj();
        j.kv_u64("transfer_regs", summary.transfer_regs() as u64);
        j.kv_u64("max_live", summary.max_live as u64);
        j.kv_u64("min_live", summary.min_live as u64);
        j.kv_u64("max_pressure", summary.max_pressure as u64);
        j.kv_u64("distinct_dsts", summary.distinct_dsts as u64);
        j.kv_u64("reconverge_nesting", summary.reconverge_nesting as u64);
        j.kv_bool("stack_repeatable", summary.stack_repeatable);
        j.kv_u64("stack_depth_bound_32_lanes", summary.stack_depth_bound(32) as u64);
        j.key("points");
        j.begin_arr();
        for p in &summary.points {
            j.begin_obj();
            j.kv_u64("block", u64::from(p.block));
            j.kv_str("label", &p.label);
            j.kv_bool("loop_header", p.loop_header);
            j.kv_bool("reconverge", p.reconverge);
            j.kv_u64("live_regs", p.live_count() as u64);
            j.key("regs");
            j.begin_arr();
            for r in p.live_regs() {
                j.u64(u64::from(r));
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.key("loops");
        j.begin_arr();
        for l in &summary.loops {
            j.begin_obj();
            j.kv_u64("header", u64::from(l.header));
            j.kv_u64("depth", l.depth as u64);
            j.kv_u64("body_blocks", l.body.len() as u64);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
    }
    j.end_arr();
    j.key("config");
    j.begin_obj();
    j.kv_str("name", "gtx780");
    let report = verify_config(&GpuConfig::gtx780());
    total_errors += record_report(&mut j, "config gtx780", "", &report);
    j.end_obj();
    j.kv_bool("clean", total_errors == 0);
    j.kv_u64("total_errors", total_errors as u64);
    j.end_obj();
    match drs_harness::write_text(&out, &j.finish()) {
        Ok(()) => println!("[static analysis -> {}]", out.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
    if total_errors > 0 {
        eprintln!("error: {total_errors} error-severity diagnostic(s); see {}", out.display());
        std::process::exit(1);
    }
}

/// `report` mode: render an existing `BENCH_experiments.json` (the file
/// `--out` points at) into `RESULTS.md` next to it.
fn report_mode(cli: &cli::Cli) {
    let text = match std::fs::read_to_string(&cli.out) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: could not read {}: {e}\n(run `experiments all` first, or point --out at \
                 an existing results file)",
                cli.out.display()
            );
            std::process::exit(1);
        }
    };
    let doc = match drs_telemetry::check::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {} is not valid JSON: {e}", cli.out.display());
            std::process::exit(1);
        }
    };
    let md = match drs_bench::report::render(&doc) {
        Ok(md) => md,
        Err(e) => {
            eprintln!("error: {}: {e}", cli.out.display());
            std::process::exit(1);
        }
    };
    let out = cli.out.with_file_name("RESULTS.md");
    match drs_harness::write_text(&out, md.trim_end()) {
        Ok(()) => println!("[report -> {}]", out.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Table 1: the simulated GPU configuration.
fn table1() {
    banner("Table 1: GPU microarchitectural parameters");
    let c = GpuConfig::gtx780();
    println!("SMX Clock Frequency       {} MHz", c.clock_mhz);
    println!("SIMD lanes                {}", c.simd_lanes);
    println!("SMXs/GPU                  {}", c.smx_count);
    println!("Warp Scheduler            Greedy-Then-Oldest");
    println!("Warp Schedulers/SMX       {}", c.warp_schedulers);
    println!("Inst. Dispatch Units/SMX  {}", c.dispatch_units);
    println!("Registers/SMX             {}", c.registers_per_smx);
    println!("L1 Data Cache             {} KB", c.l1d_bytes / 1024);
    println!("L1 Texture Cache          {} KB", c.l1t_bytes / 1024);
    println!("L2 Cache                  {} KB (whole GPU)", c.l2_bytes * c.smx_count / 1024);
}

fn histogram_row(h: &ActiveHistogram) -> String {
    let f = |i| h.bucket_fraction(i) * 100.0;
    format!(
        "eff {:5.1}%  W1:8 {:4.1}%  W9:16 {:4.1}%  W17:24 {:4.1}%  W25:32 {:4.1}%",
        h.simd_efficiency() * 100.0,
        f(0),
        f(1),
        f(2),
        f(3)
    )
}

/// Figure 2: SIMD efficiency breakdown of Aila's kernel per bounce on the
/// conference room.
fn fig2(cells: &Cells) {
    banner("Figure 2: Aila kernel SIMD efficiency per bounce (conference room)");
    for b in 1..=figures::CANONICAL_DEPTH {
        let cell = cells.require(SceneKind::Conference, b, Method::Aila);
        if cell.empty {
            println!("B{b}: (no surviving rays)");
            continue;
        }
        println!("B{b}: {}", histogram_row(&cell.stats.issued));
    }
}

/// Figure 8: Mrays/s for bounces 1-4 under different backup-row configs.
fn fig8(cells: &Cells) {
    banner("Figure 8: ray tracing performance (Mrays/s) vs backup ray rows");
    let gpu = GpuConfig::gtx780();
    for kind in SceneKind::ALL {
        println!("\n{kind}:");
        print!("{:26}", "");
        for b in 1..=4 {
            print!("      B{b}");
        }
        println!();
        for (label, method) in figures::fig8_methods() {
            print!("{label:26}");
            for b in 1..=4 {
                let cell = cells.require(kind, b, method);
                if cell.empty {
                    print!("      --");
                } else {
                    print!("  {:6.1}", cell.mrays_per_sec(&gpu));
                }
            }
            println!();
        }
    }
}

/// Figure 9: rdctrl warp-issue stall rate vs backup rows.
fn fig9(cells: &Cells) {
    banner("Figure 9: rdctrl warp issue stall rate vs backup ray rows");
    for kind in [SceneKind::Conference, SceneKind::FairyForest] {
        println!("\n{kind}:");
        for m in [1usize, 2, 4, 8] {
            let method = Method::Drs { backup_rows: m, swap_buffers: 9, extra_bank: true };
            let mut stalls = 0u64;
            let mut issued = 0u64;
            for b in 1..=4 {
                let cell = cells.require(kind, b, method);
                stalls += cell.stats.rdctrl_stalls;
                issued += cell.stats.rdctrl_issued;
            }
            let rate = stalls as f64 / (stalls + issued).max(1) as f64;
            println!(
                "  M={m}: stall rate {:6.2}%  ({} stalls / {} issues)",
                rate * 100.0,
                stalls,
                issued
            );
        }
    }
}

/// Table 2: Mrays/s vs swap-buffer count, plus average swap latency.
fn table2(cells: &Cells) {
    banner("Table 2: ray tracing performance vs swap buffers (1 backup row)");
    let gpu = GpuConfig::gtx780();
    println!("{:16} {:>4} {:>9} {:>9} {:>9} {:>9}", "scene", "", "#6", "#9", "#12", "#18");
    let mut swap_cycles = vec![(0u64, 0u64); figures::TABLE2_BUFFERS.len()];
    for kind in SceneKind::ALL {
        for b in 1..=4 {
            let row: Vec<&CellResult> = figures::TABLE2_BUFFERS
                .iter()
                .map(|&buffers| {
                    let method =
                        Method::Drs { backup_rows: 1, swap_buffers: buffers, extra_bank: false };
                    cells.require(kind, b, method)
                })
                .collect();
            if row.iter().all(|c| c.empty) {
                continue;
            }
            print!("{:16} B{b:<3}", kind.to_string());
            for (i, cell) in row.iter().enumerate() {
                swap_cycles[i].0 += cell.stats.swap_cycle_sum;
                swap_cycles[i].1 += cell.stats.swaps_completed;
                print!(" {:9.2}", cell.mrays_per_sec(&gpu));
            }
            println!();
        }
    }
    print!("avg swap cycles     ");
    for (sum, n) in &swap_cycles {
        print!(" {:9.1}", *sum as f64 / (*n).max(1) as f64);
    }
    println!();
}

/// Figure 10: SIMD efficiency and utilization breakdown for all methods.
fn fig10(cells: &Cells) {
    banner("Figure 10: SIMD efficiency and utilization breakdown");
    for kind in SceneKind::ALL {
        println!("\n{kind}:");
        for method in figures::comparison_methods() {
            println!("  {}:", method.label());
            let mut agg_all = ActiveHistogram::default();
            let mut agg_si = ActiveHistogram::default();
            for b in 1..=figures::CANONICAL_DEPTH {
                let cell = cells.require(kind, b, method);
                if cell.empty {
                    continue;
                }
                agg_all.merge(&cell.stats.issued);
                agg_si.merge(&cell.stats.issued_si);
                if b <= 3 {
                    let si = if cell.stats.issued_si.total > 0 {
                        format!(
                            "  SI {:4.1}%",
                            cell.stats.issued_si.total as f64
                                / (cell.stats.issued.total + cell.stats.issued_si.total) as f64
                                * 100.0
                        )
                    } else {
                        String::new()
                    };
                    println!("    B{b}: {}{si}", histogram_row(&cell.stats.issued));
                }
            }
            let mut combined = agg_all;
            combined.merge(&agg_si);
            let si_share = if combined.total > 0 {
                agg_si.total as f64 / combined.total as f64 * 100.0
            } else {
                0.0
            };
            println!("    overall: {}  (SI share {:.1}%)", histogram_row(&combined), si_share);
        }
    }
}

/// Figure 11: simulated performance and speedups normalized to Aila.
fn fig11(cells: &Cells) {
    banner("Figure 11: performance (Mrays/s) and speedup vs Aila");
    let gpu = GpuConfig::gtx780();
    // Chip cells aggregate every SM's rays already; scaling by the SMX
    // count again would double-count (see CellResult::mrays_per_sec).
    let smx = if cells.chip.is_some() { 1 } else { gpu.smx_count };
    let methods = figures::comparison_methods();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
    for kind in SceneKind::ALL {
        println!("\n{kind}:");
        let mut overall = Vec::new();
        for method in methods {
            let mut agg = Aggregate::default();
            let mut per_bounce = Vec::new();
            for b in 1..=figures::CANONICAL_DEPTH {
                let cell = cells.require(kind, b, method);
                if cell.empty {
                    continue;
                }
                agg.add(&cell.stats);
                if per_bounce.len() < 3 {
                    per_bounce.push(format!("{:6.1}", cell.mrays_per_sec(&gpu)));
                }
            }
            let mrays = agg.mrays_at(gpu.clock_mhz, smx);
            println!(
                "  {:12} B1-B3 [{}]  overall {:7.1} Mrays/s",
                method.label(),
                per_bounce.join(" "),
                mrays
            );
            overall.push(mrays);
        }
        let aila = overall[0].max(1e-9);
        print!("  speedup vs Aila:");
        for (mi, v) in overall.iter().enumerate() {
            print!("  {} {:.2}x", methods[mi].label(), v / aila);
            speedups[mi].push(v / aila);
        }
        println!();
    }
    println!("\naverage speedups over the four scenes:");
    for (mi, method) in methods.iter().enumerate() {
        let avg = speedups[mi].iter().sum::<f64>() / speedups[mi].len().max(1) as f64;
        println!("  {:12} {:.2}x", method.label(), avg);
    }
}

/// Section 4.5: hardware overhead accounting.
fn overhead() {
    banner("Section 4.5: hardware overhead");
    let cfg = DrsConfig::paper_default();
    let o = DrsOverhead::for_config(&cfg);
    println!("DRS (58 warps, 1 backup row, 6 swap buffers):");
    println!(
        "  swap buffers      {:5} B  (paper: {} B)",
        o.swap_buffer_bits / 8,
        paper::SWAP_BUFFER_BYTES
    );
    println!(
        "  ray state table   {:5} B  (paper: {} B)",
        o.ray_state_table_bits / 8,
        paper::RAY_STATE_TABLE_BYTES
    );
    println!("  renaming table    {:5} B", o.renaming_table_bits.div_ceil(8));
    println!("  control state     {:5} B", o.control_state_bits.div_ceil(8));
    println!(
        "  total             {:5} B  (paper: ~{} B)",
        o.total_bytes(),
        paper::TOTAL_PER_SMX_BYTES
    );
    println!(
        "  fraction of 256 KB register file: {:.2}%  (paper: {:.2}%)",
        o.fraction_of_register_file(paper::REGFILE_BYTES) * 100.0,
        paper::REGFILE_FRACTION * 100.0
    );
    println!(
        "  synthesized area: {} mm²/core × {} SMX / {} mm² die = {:.2}% (paper: {:.2}%)",
        paper::AREA_PER_CORE_MM2,
        paper::SMX_COUNT,
        paper::GPU_DIE_MM2,
        paper::AREA_PER_CORE_MM2 * paper::SMX_COUNT as f64 / paper::GPU_DIE_MM2 * 100.0,
        paper::GPU_AREA_FRACTION * 100.0
    );
    println!("\nbaseline storage for comparison:");
    println!(
        "  DMK spawn memory (54 warps): {:.2} KB",
        dmk_spawn_memory_bytes(54, 32) as f64 / 1024.0
    );
    println!(
        "  TBC warp buffer (10 blocks): {:.2} KB + per-lane-addressable register file",
        tbc_warp_buffer_bytes(10, 32, 64) as f64 / 1024.0
    );
}

/// Ablations of the design choices DESIGN.md calls out: Aila's software
/// optimizations (run through the harness grid) and the BVH build quality
/// feeding every experiment (functional, not simulation cells).
fn ablation(cells: &Cells) {
    use drs_bvh::{BuildMethod, BuildParams, Bvh};
    use drs_trace::BounceStreams;

    banner("Ablations");
    let gpu = GpuConfig::gtx780();
    let scale = cells.scale;

    println!("Aila software-optimization ablation (conference, bounce 2):");
    for (label, method) in figures::ablation_variants() {
        let cell = cells.require(SceneKind::Conference, 2, method);
        println!(
            "  {label} eff {:5.1}%  {:7.1} Mrays/s",
            cell.stats.issued.simd_efficiency() * 100.0,
            cell.mrays_per_sec(&gpu)
        );
    }

    println!("\nAcceleration-structure ablation (conference, functional traversal):");
    {
        use drs_bvh::{KdBuildParams, KdTree};
        let scene = SceneKind::Conference.build_with_tris(scale.tris(SceneKind::Conference));
        let bvh = Bvh::build(scene.mesh(), &BuildParams::default());
        let kd = KdTree::build(scene.mesh(), &KdBuildParams::default());
        let mut bvh_nodes = 0usize;
        let mut kd_nodes = 0usize;
        let mut rays = 0usize;
        for i in 0..64 {
            for j in 0..48 {
                let ray =
                    scene.camera().primary_ray((i as f32 + 0.5) / 64.0, (j as f32 + 0.5) / 48.0);
                let mut events = 0usize;
                let _ = bvh.intersect_instrumented(scene.mesh(), &ray, &mut |_| events += 1);
                bvh_nodes += events;
                let (_, v) = kd.intersect_counted(scene.mesh(), &ray);
                kd_nodes += v;
                rays += 1;
            }
        }
        println!("  BVH (binned SAH)   nodes/ray {:5.1}", bvh_nodes as f64 / rays as f64);
        println!(
            "  kd-tree (median)   nodes/ray {:5.1}  (space partitioning, duplicated prims)",
            kd_nodes as f64 / rays as f64
        );
    }

    println!("\nBVH build-quality ablation (conference, primary rays):");
    let scene = SceneKind::Conference.build_with_tris(scale.tris(SceneKind::Conference));
    for (label, method) in [
        ("binned SAH (16 bins)", BuildMethod::BinnedSah { bins: 16 }),
        ("median split        ", BuildMethod::Median),
    ] {
        let bvh = Bvh::build(scene.mesh(), &BuildParams { method, max_leaf_size: 4 });
        let streams = BounceStreams::capture_with_bvh(&scene, &bvh, scale.rays, 1, 7);
        let stats = streams.bounce(1).stats();
        let cell = CellConfig::new(Method::Aila, scale.warps(Method::Aila.paper_warps()));
        let (sim, _) = run_cell(&cell, &streams.bounce(1).scripts, None);
        let sim = sim.unwrap_or_else(|e| {
            eprintln!("error: BVH-ablation cell failed: {e}");
            std::process::exit(1);
        });
        println!(
            "  {label}  nodes/ray {:5.1}  prims/ray {:4.1}  Aila {:7.1} Mrays/s",
            stats.avg_inner(),
            stats.total_prim_tests as f64 / stats.rays.max(1) as f64,
            sim.mrays_per_sec(gpu.clock_mhz, gpu.smx_count)
        );
    }
}

/// Dynamic-energy comparison (the paper's §4.4 register-file argument):
/// ray shuffling adds RF traffic, but the drop in redundant issues makes
/// DRS a net win. Also reports the swap share of RF accesses against the
/// paper's measured 7.36 % (primary) / 18.79 % (secondary).
fn energy(cells: &Cells) {
    use drs_sim::EnergyModel;

    banner("Energy: per-ray dynamic energy and RF traffic");
    let model = EnergyModel::default();
    for b in 1..=2 {
        let probe = cells.require(SceneKind::Conference, b, Method::Aila);
        if probe.empty {
            continue;
        }
        println!("\nconference bounce {b} ({} rays):", probe.stats.rays_completed);
        for method in figures::comparison_methods() {
            let cell = cells.require(SceneKind::Conference, b, method);
            let e = model.estimate(&cell.stats);
            let swap_share = cell.stats.swap_regfile_fraction() * 100.0;
            println!(
                "  {:12} {:8.1} nJ/ray   RF accesses {:>10}   swap share {:4.1}%",
                method.label(),
                e.nj_per_ray(cell.stats.rays_completed),
                cell.stats.regfile_reads + cell.stats.regfile_writes + cell.stats.swap_accesses,
                swap_share
            );
        }
    }
    println!("\n(paper: swap traffic is 7.36% of RF accesses for primary rays,");
    println!(" 18.79% for secondary — and total RF accesses still fall vs. Aila)");
}
