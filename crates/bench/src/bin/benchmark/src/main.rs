//! The DRS simulator benchmark: one workload per run, end-to-end host time
//! untraced (`--trace 0`) or the per-layer split traced (`--trace 1`).
//! The last line of standard output is the JSON result. See README.md.

mod grid;
mod layers;
mod metrics;
mod run;
mod setup;
mod spans;
#[cfg(test)]
mod tests;
mod workloads;

use run::{Outcome, RunConfig};
use std::path::PathBuf;
use workloads::Size;

const USAGE: &str = "usage: benchmark --workload <aila|drs|sparse|compare|chip> [--seed N] \
                     [--seconds N] [--trace 0|1]";

/// Work files go here, relative to the directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

/// The seed the committed goldens were taken at.
const GOLDEN_SEED: u64 = 1;

/// FNV-1a of `stats_json()` per workload at [`GOLDEN_SEED`].
const GOLDENS: &str = include_str!("../goldens.txt");

/// The committed golden digest of `workload`, if any.
fn golden(workload: &str) -> Option<u64> {
    GOLDENS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn print_outcome(args: &Args, golden: Option<u64>, out: &Outcome) {
    let w = args.workload;
    println!(
        "benchmark {}: seed {}, {} s, trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", w.why);
    for note in &out.notes {
        println!("{note}");
    }
    let golden = match golden {
        Some(g) if g == out.digest => "matches the golden".to_string(),
        Some(g) => format!("MISMATCH, golden {g:016x}"),
        None => "no golden for this seed".to_string(),
    };
    println!("stats_json digest {:016x} ({golden})", out.digest);
    println!("cells checked {}, failed {}", out.attempted, out.failed);
    let decl: &[(&str, &str)] = if args.trace { &metrics::PER_LAYER } else { &metrics::END_TO_END };
    let mut j = drs_sim::JsonBuf::new();
    j.begin_obj();
    j.kv_bool("correct", out.failed == 0);
    j.kv_u64("attempted", out.attempted);
    j.kv_u64("failed", out.failed);
    j.key("metrics");
    j.begin_obj();
    for &(name, unit) in decl {
        let value = out.metrics[name];
        println!("{name} = {value} {unit}");
        j.key(name);
        j.begin_obj();
        j.kv_f64("value", value);
        j.kv_str("unit", unit);
        j.end_obj();
    }
    j.end_obj();
    j.end_obj();
    println!("{}", j.finish());
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        work_dir: PathBuf::from(WORK_DIR),
        golden: (args.seed == GOLDEN_SEED).then(|| golden(args.workload.name)).flatten(),
    };
    match run::run(args.workload, &cfg) {
        Ok(out) => {
            print_outcome(&args, cfg.golden, &out);
            std::process::exit(i32::from(out.failed != 0));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
