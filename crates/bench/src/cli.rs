//! Command-line parsing for the `experiments` binary.
//!
//! Kept in the library (rather than the binary) so flag handling is unit
//! tested without spawning processes.

use drs_harness::FaultPlan;
use std::path::PathBuf;

/// Every mode the binary accepts, in `all`-run order. `report` and
/// `verify` are standalone utilities: `report` renders an existing
/// `BENCH_experiments.json` into `RESULTS.md`; `verify` runs the static
/// analyses over every registered kernel program and writes a
/// machine-readable report. Neither is part of `all`.
pub const MODES: [&str; 13] = [
    "table1", "fig2", "fig8", "fig9", "table2", "fig10", "fig11", "overhead", "ablation", "energy",
    "report", "verify", "all",
];

/// Usage text printed on `--help` and on flag errors.
pub const USAGE: &str = "\
Usage: experiments [MODE] [OPTIONS]

Regenerates the paper's tables and figures through the drs-harness job
pool and records every simulated cell to a machine-readable JSON file.

Modes:
  table1 | fig2 | fig8 | fig9 | table2 | fig10 | fig11 |
  overhead | ablation | energy | all        (default: all)
  report           render an existing BENCH_experiments.json (see --out)
                   into RESULTS.md, comparing measured speedups against
                   the paper's headline numbers
  verify           run the drs-verify static analyses (structural checks,
                   shuffle live sets, stack-depth and pressure bounds,
                   natural loops) over every registered kernel program,
                   lint the gtx780 GPU configuration, print every
                   diagnostic, and write a machine-readable JSON report to
                   --out (default: BENCH_verify.json); exits 1 on any
                   error-severity diagnostic or when a shuffle live set
                   differs from the kernel's declared per-ray register count

Options:
  --jobs N         worker threads (default: available parallelism)
  --out PATH       results JSON destination (default: BENCH_experiments.json);
                   for `report`, the results file to read
  --no-cache       always recapture ray streams; skip target/drs-cache
  --no-fastpath    disable the engine's event-driven cycle skipping and
                   step every cycle (results are bit-identical either way)
  --stats-dump PATH after the run, also write a deterministic stats-only
                   JSON dump of every cell (no wall-clock fields) — two
                   runs with identical inputs produce byte-identical dumps,
                   which CI diffs across --no-fastpath
  --timeline       collect stall attribution + interval timelines; writes
                   <out stem>_timeline.json next to the results file
  --trace-out PATH also record per-warp stall spans and write them as
                   Chrome trace-event JSON (chrome://tracing, Perfetto);
                   implies --timeline
  --interval N     timeline sampling window in cycles (default: 1000)
  --progress       per-job start/finish lines on stderr
  --retries N      extra attempts per cell for transient failures (worker
                   panics and injected faults); permanent simulator
                   failures are never retried (default: 1)
  --job-timeout SECS per-cell wall-clock budget; a cell exceeding it is
                   recorded as a typed 'deadline' failure with partial stats
  --job-cycles N   per-cell simulated-cycle budget; exceeding it records a
                   typed 'cycle_limit' failure instead of running to the
                   global safety cap
  --resume         reuse the clean cells an earlier run left in its
                   run-scoped store (<out stem>_checkpoint/) and simulate
                   only the rest; cells are matched by content id, so an
                   overlapping grid or a --no-fastpath flip reuses them too;
                   merged results are bit-identical to an uninterrupted run
  --chip           full-chip mode: run every cell as --sms per-SM engines
                   against one shared L2/MSHR/DRAM memory system instead
                   of a single SMX scaled by the SMX count
  --sms N          SMs per chip cell (default: 15, the GTX 780)
  --chip-threads N threads in total sharding the SMs inside each chip cell,
                   the cell's own included (results are bit-identical for
                   any value; default: 1)
  --inject SPEC    deterministic fault injection, e.g.
                   'seed=7,panic@1,cache~4x1,watchdog@2,budget@0'
                   (kinds panic|cache|watchdog|budget|chipcfg|store;
                   @IDX by job index, ~N seed-addressed one-in-N;
                   xT = first T attempts only)
  --store          memoize finished cells in the durable result store; a
                   warm rerun of the same grid does zero simulation work
                   and produces a byte-identical results file
  --store-dir PATH result-store location (default: drs-store/ under the
                   data root); entries are content-addressed by
                   job id with a length+checksum footer, written via
                   tmp+rename, and quarantined (never served) on any
                   corruption
  --cache-limit SZ capture-cache size budget with K/M/G suffix (e.g.
                   512M); past it the least-recently-used entries are
                   evicted after each store (the just-written entry is
                   never evicted)
  --list           list modes with their job counts and exit
  -h, --help       show this help

Exit status: 0 on a clean run, 1 when any cell failed or was incomplete
(results are still written, with structured failure records), 2 on usage
errors. A result-store write failure after a successful simulation is a
stderr warning, not a failure: the run still exits 0 because only
durability — not the results — was lost.

Scaling environment variables: DRS_RAYS, DRS_TRIS_SCALE, DRS_WARPS_SCALE;
data root: DRS_DATA_DIR (default target), holding the capture cache in
drs-cache/ and the result store in drs-store/.";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Selected mode (validated against [`MODES`]).
    pub mode: String,
    /// Worker threads for the harness pool.
    pub workers: usize,
    /// Results JSON destination.
    pub out: PathBuf,
    /// Use the on-disk capture cache.
    pub use_cache: bool,
    /// Engine event-driven fast path (`--no-fastpath` clears it).
    pub fastpath: bool,
    /// Deterministic stats-only JSON dump destination (`--stats-dump`).
    pub stats_dump: Option<PathBuf>,
    /// Collect stall attribution + interval timelines.
    pub timeline: bool,
    /// Chrome trace-event JSON destination (implies [`Cli::timeline`]).
    pub trace_out: Option<PathBuf>,
    /// Timeline sampling window in cycles.
    pub interval: u64,
    /// Print per-job progress lines to stderr.
    pub progress: bool,
    /// Extra attempts per cell for transient failures.
    pub retries: u32,
    /// Per-cell wall-clock budget in seconds.
    pub job_timeout_secs: Option<u64>,
    /// Per-cell simulated-cycle budget.
    pub job_cycles: Option<u64>,
    /// Reuse the clean cells in the run-scoped store.
    pub resume: bool,
    /// Full-chip mode: N per-SM engines sharing one memory system.
    pub chip: bool,
    /// SMs per chip cell (only meaningful with [`Cli::chip`]).
    pub sms: usize,
    /// Threads in total inside each chip cell's window loop.
    pub chip_threads: usize,
    /// Deterministic fault injection (`--inject`; empty plan = no faults).
    pub inject: FaultPlan,
    /// Memoize finished cells in the durable result store.
    pub store: bool,
    /// Result-store directory override (`--store-dir`).
    pub store_dir: Option<PathBuf>,
    /// Capture-cache size budget in bytes (`--cache-limit`, K/M/G suffix).
    pub cache_limit: Option<u64>,
    /// List modes instead of running.
    pub list: bool,
    /// Show usage instead of running.
    pub help: bool,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            mode: "all".into(),
            workers: default_workers(),
            out: PathBuf::from("BENCH_experiments.json"),
            use_cache: true,
            fastpath: true,
            stats_dump: None,
            timeline: false,
            trace_out: None,
            interval: 1000,
            progress: false,
            retries: 1,
            job_timeout_secs: None,
            job_cycles: None,
            resume: false,
            chip: false,
            sms: 15,
            chip_threads: 1,
            inject: FaultPlan::default(),
            store: false,
            store_dir: None,
            cache_limit: None,
            list: false,
            help: false,
        }
    }
}

impl Cli {
    /// Telemetry is on when either timeline output or a trace was asked
    /// for (`--trace-out` implies `--timeline`).
    pub fn telemetry_enabled(&self) -> bool {
        self.timeline || self.trace_out.is_some()
    }

    /// Where the timeline artifact goes: `<out stem>_timeline.json` next
    /// to the results file.
    pub fn timeline_path(&self) -> PathBuf {
        let stem = self.out.file_stem().and_then(|s| s.to_str()).unwrap_or("experiments");
        self.out.with_file_name(format!("{stem}_timeline.json"))
    }

    /// Where the run-scoped result store behind `--resume` lives: the
    /// directory `<out stem>_checkpoint/` next to the results file.
    pub fn checkpoint_path(&self) -> PathBuf {
        let stem = self.out.file_stem().and_then(|s| s.to_str()).unwrap_or("experiments");
        self.out.with_file_name(format!("{stem}_checkpoint"))
    }

    /// Where the run-volatile sidecar goes: `<out stem>_run.json` next to
    /// the results file. The results file itself stays deterministic;
    /// wall-clock, worker-count, and cache/store counters live here.
    pub fn run_path(&self) -> PathBuf {
        let stem = self.out.file_stem().and_then(|s| s.to_str()).unwrap_or("experiments");
        self.out.with_file_name(format!("{stem}_run.json"))
    }
}

/// Parse a byte size with an optional K/M/G suffix (powers of 1024,
/// case-insensitive): `512M`, `2g`, `65536`.
///
/// # Errors
///
/// Returns a human-readable message for empty input, unknown suffixes,
/// non-numeric magnitudes, zero, and overflow.
pub fn parse_size(s: &str) -> Result<u64, String> {
    let err = || format!("expected a size like 512M or 2G, got '{s}'");
    let (digits, unit) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1 << 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 1 << 30),
        Some(b'0'..=b'9') => (s, 1),
        _ => return Err(err()),
    };
    let n: u64 = digits.parse().map_err(|_| err())?;
    n.checked_mul(unit).filter(|&b| b > 0).ok_or_else(err)
}

/// Available hardware parallelism (floor 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Parse the argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown modes, unknown flags,
/// malformed or missing flag values; the caller prints it with [`USAGE`]
/// and exits nonzero.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut saw_mode = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, inline): (&str, Option<String>) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (&arg[..f.len()], Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            if let Some(v) = &inline {
                return Ok(v.clone());
            }
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag {
            "--jobs" => {
                let v = value("--jobs")?;
                cli.workers = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs expects a positive integer, got '{v}'"))?;
            }
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--no-cache" => cli.use_cache = false,
            "--no-fastpath" => cli.fastpath = false,
            "--stats-dump" => cli.stats_dump = Some(PathBuf::from(value("--stats-dump")?)),
            "--timeline" => cli.timeline = true,
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--interval" => {
                let v = value("--interval")?;
                cli.interval = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--interval expects a positive integer, got '{v}'"))?;
            }
            "--progress" => cli.progress = true,
            "--retries" => {
                let v = value("--retries")?;
                cli.retries = v
                    .parse::<u32>()
                    .map_err(|_| format!("--retries expects a non-negative integer, got '{v}'"))?;
            }
            "--job-timeout" => {
                let v = value("--job-timeout")?;
                cli.job_timeout_secs = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--job-timeout expects a positive integer, got '{v}'"))?,
                );
            }
            "--job-cycles" => {
                let v = value("--job-cycles")?;
                cli.job_cycles = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--job-cycles expects a positive integer, got '{v}'"))?,
                );
            }
            "--resume" => cli.resume = true,
            "--chip" => cli.chip = true,
            "--sms" => {
                let v = value("--sms")?;
                cli.sms = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--sms expects a positive integer, got '{v}'"))?;
            }
            "--chip-threads" => {
                let v = value("--chip-threads")?;
                cli.chip_threads = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--chip-threads expects a positive integer, got '{v}'"))?;
            }
            "--inject" => {
                cli.inject = FaultPlan::parse(&value("--inject")?).map_err(|e| e.to_string())?;
            }
            "--store" => cli.store = true,
            "--store-dir" => cli.store_dir = Some(PathBuf::from(value("--store-dir")?)),
            "--cache-limit" => {
                let v = value("--cache-limit")?;
                cli.cache_limit = Some(parse_size(&v).map_err(|e| format!("--cache-limit: {e}"))?);
            }
            "--list" => cli.list = true,
            "-h" | "--help" => cli.help = true,
            f if f.starts_with('-') => return Err(format!("unknown flag '{f}'")),
            mode => {
                if saw_mode {
                    return Err(format!("unexpected extra argument '{mode}'"));
                }
                if !MODES.contains(&mode) {
                    return Err(format!(
                        "unknown mode '{}'; expected one of {}",
                        mode,
                        MODES.join("|")
                    ));
                }
                cli.mode = mode.to_string();
                saw_mode = true;
            }
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Cli, String> {
        parse(args.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn defaults() {
        let cli = p(&[]).unwrap();
        assert_eq!(cli.mode, "all");
        assert!(cli.use_cache);
        assert!(cli.fastpath);
        assert_eq!(cli.stats_dump, None);
        assert!(!cli.list);
        assert!(cli.workers >= 1);
        assert_eq!(cli.out, PathBuf::from("BENCH_experiments.json"));
    }

    #[test]
    fn fastpath_and_stats_dump_flags() {
        let cli = p(&["fig2", "--no-fastpath", "--stats-dump", "a.json"]).unwrap();
        assert!(!cli.fastpath);
        assert_eq!(cli.stats_dump, Some(PathBuf::from("a.json")));
        let eq = p(&["fig2", "--no-fastpath", "--stats-dump=a.json"]).unwrap();
        assert_eq!(cli, eq);
        assert!(p(&["--stats-dump"]).unwrap_err().contains("requires a value"));
    }

    #[test]
    fn full_flag_set_both_syntaxes() {
        let a = p(&["fig10", "--jobs", "4", "--out", "r.json", "--no-cache"]).unwrap();
        let b = p(&["fig10", "--jobs=4", "--out=r.json", "--no-cache"]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.mode, "fig10");
        assert_eq!(a.workers, 4);
        assert_eq!(a.out, PathBuf::from("r.json"));
        assert!(!a.use_cache);
    }

    #[test]
    fn telemetry_flags_both_syntaxes() {
        let a = p(&["fig2", "--timeline", "--trace-out", "t.json", "--interval", "500"]).unwrap();
        let b = p(&["fig2", "--timeline", "--trace-out=t.json", "--interval=500"]).unwrap();
        assert_eq!(a, b);
        assert!(a.timeline);
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
        assert_eq!(a.interval, 500);
        assert!(a.telemetry_enabled());
    }

    #[test]
    fn trace_out_implies_telemetry_without_timeline() {
        let cli = p(&["--trace-out", "t.json"]).unwrap();
        assert!(!cli.timeline);
        assert!(cli.telemetry_enabled());
        assert!(!p(&[]).unwrap().telemetry_enabled());
    }

    #[test]
    fn progress_flag_and_default_interval() {
        let cli = p(&["--progress"]).unwrap();
        assert!(cli.progress);
        assert_eq!(cli.interval, 1000);
        assert!(!p(&[]).unwrap().progress);
    }

    #[test]
    fn timeline_path_sits_next_to_out() {
        let cli = p(&["--out", "results/BENCH_experiments.json"]).unwrap();
        assert_eq!(cli.timeline_path(), PathBuf::from("results/BENCH_experiments_timeline.json"));
        assert_eq!(
            p(&[]).unwrap().timeline_path(),
            PathBuf::from("BENCH_experiments_timeline.json")
        );
    }

    #[test]
    fn fault_tolerance_flags_both_syntaxes() {
        let a = p(&[
            "fig2",
            "--retries",
            "3",
            "--job-timeout",
            "30",
            "--job-cycles",
            "5000",
            "--resume",
            "--inject",
            "seed=7,panic@1",
        ])
        .unwrap();
        let b = p(&[
            "fig2",
            "--retries=3",
            "--job-timeout=30",
            "--job-cycles=5000",
            "--resume",
            "--inject=seed=7,panic@1",
        ])
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.retries, 3);
        assert_eq!(a.job_timeout_secs, Some(30));
        assert_eq!(a.job_cycles, Some(5000));
        assert!(a.resume);
        assert_eq!(a.inject, FaultPlan::parse("seed=7,panic@1").unwrap());
        let d = p(&[]).unwrap();
        assert_eq!(d.retries, 1);
        assert_eq!(d.job_timeout_secs, None);
        assert_eq!(d.job_cycles, None);
        assert!(!d.resume);
        assert_eq!(d.inject, FaultPlan::default());
        assert_eq!(p(&["--retries", "0"]).unwrap().retries, 0, "zero retries is valid");
    }

    #[test]
    fn chip_flags_both_syntaxes() {
        let a = p(&["fig2", "--chip", "--sms", "4", "--chip-threads", "2"]).unwrap();
        let b = p(&["fig2", "--chip", "--sms=4", "--chip-threads=2"]).unwrap();
        assert_eq!(a, b);
        assert!(a.chip);
        assert_eq!(a.sms, 4);
        assert_eq!(a.chip_threads, 2);
        let d = p(&[]).unwrap();
        assert!(!d.chip);
        assert_eq!(d.sms, 15, "default SMs match the GTX 780");
        assert_eq!(d.chip_threads, 1);
        assert!(p(&["--sms", "0"]).unwrap_err().contains("positive integer"));
        assert!(p(&["--chip-threads", "0"]).unwrap_err().contains("positive integer"));
    }

    #[test]
    fn checkpoint_path_sits_next_to_out() {
        let cli = p(&["--out", "results/BENCH_experiments.json"]).unwrap();
        assert_eq!(cli.checkpoint_path(), PathBuf::from("results/BENCH_experiments_checkpoint"));
        assert_eq!(
            p(&[]).unwrap().checkpoint_path(),
            PathBuf::from("BENCH_experiments_checkpoint")
        );
    }

    #[test]
    fn store_flags_both_syntaxes() {
        let a = p(&["fig2", "--store", "--store-dir", "s", "--cache-limit", "512M"]).unwrap();
        let b = p(&["fig2", "--store", "--store-dir=s", "--cache-limit=512M"]).unwrap();
        assert_eq!(a, b);
        assert!(a.store);
        assert_eq!(a.store_dir, Some(PathBuf::from("s")));
        assert_eq!(a.cache_limit, Some(512 << 20));
        let d = p(&[]).unwrap();
        assert!(!d.store);
        assert_eq!(d.store_dir, None);
        assert_eq!(d.cache_limit, None);
    }

    #[test]
    fn size_suffixes_parse_in_powers_of_1024() {
        assert_eq!(parse_size("65536"), Ok(65536));
        assert_eq!(parse_size("4k"), Ok(4096));
        assert_eq!(parse_size("4K"), Ok(4096));
        assert_eq!(parse_size("512M"), Ok(512 << 20));
        assert_eq!(parse_size("2g"), Ok(2 << 30));
        for bad in ["", "M", "x", "1T", "0", "0M", "-1", "99999999999G"] {
            assert!(parse_size(bad).is_err(), "'{bad}' should be rejected");
        }
        assert!(p(&["--cache-limit", "frob"]).unwrap_err().contains("--cache-limit"));
    }

    #[test]
    fn run_path_sits_next_to_out() {
        let cli = p(&["--out", "results/BENCH_experiments.json"]).unwrap();
        assert_eq!(cli.run_path(), PathBuf::from("results/BENCH_experiments_run.json"));
    }

    #[test]
    fn list_and_help() {
        assert!(p(&["--list"]).unwrap().list);
        assert!(p(&["--help"]).unwrap().help);
        assert!(p(&["-h"]).unwrap().help);
    }

    #[test]
    fn bad_inputs_are_rejected_with_messages() {
        for (args, needle) in [
            (&["frob"][..], "unknown mode"),
            (&["perf"][..], "unknown mode"),
            (&["--frob"][..], "unknown flag"),
            (&["--jobs"][..], "requires a value"),
            (&["--jobs", "0"][..], "positive integer"),
            (&["--jobs", "x"][..], "positive integer"),
            (&["--interval"][..], "requires a value"),
            (&["--interval", "0"][..], "positive integer"),
            (&["--trace-out"][..], "requires a value"),
            (&["--retries", "x"][..], "non-negative integer"),
            (&["--job-timeout", "0"][..], "positive integer"),
            (&["--job-cycles", "x"][..], "positive integer"),
            (&["--inject"][..], "requires a value"),
            (&["--inject", "panic@x"][..], "bad fault spec 'panic@x'"),
            (&["fig2", "fig8"][..], "extra argument"),
        ] {
            let err = p(args).unwrap_err();
            assert!(err.contains(needle), "args {args:?}: '{err}' missing '{needle}'");
        }
    }

    #[test]
    fn removed_service_interface_is_rejected() {
        for mode in ["serve", "submit"] {
            let err = p(&[mode]).unwrap_err();
            assert!(err.contains("unknown mode"), "{mode}: {err}");
        }
        for (stem, value) in [("socket", "x"), ("figure", "fig2"), ("queue", "8")] {
            let flag = format!("--{stem}");
            let err = p(&[&flag, value]).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
        let err = p(&["--inject", "disconnect@1"]).unwrap_err();
        assert!(err.contains("bad fault spec 'disconnect@1'"), "{err}");
    }

    #[test]
    fn every_mode_parses() {
        for mode in MODES {
            assert_eq!(p(&[mode]).unwrap().mode, mode);
        }
    }
}
