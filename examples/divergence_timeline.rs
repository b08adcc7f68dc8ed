//! The paper's Figure 1 argument, measured instead of sketched: where
//! warp-cycles go when the while-while kernel traces incoherent rays.
//!
//! Run with: `cargo run --release --example divergence_timeline`
//!
//! Earlier versions of this example hand-animated an 8-lane warp. Now the
//! cycle-level simulator runs the real Aila kernel over captured
//! secondary rays with the telemetry collector attached, and we print
//! what the hardware actually did:
//!
//! 1. an interval timeline — SIMD efficiency per 2000-cycle window, the
//!    same series `experiments --timeline` writes as JSON;
//! 2. a stall-attribution table — every warp-cycle of the run charged to
//!    exactly one bucket (the accounting identity is asserted).

use drs::harness::{run_cell, CellConfig, Method};
use drs::scene::SceneKind;
use drs::sim::StallBucket;
use drs::telemetry::TelemetryConfig;
use drs::trace::BounceStreams;

fn bar(frac: f64, width: usize) -> String {
    let filled = (frac * width as f64).round() as usize;
    let mut s = String::new();
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

fn main() {
    // Real secondary rays from the conference scene: incoherent, exactly
    // the workload of Figure 1's discussion.
    let scene = SceneKind::Conference.build_with_tris(4_000);
    let streams = BounceStreams::capture(&scene, 640, 2, 0xF16);
    let scripts = &streams.bounce(2).scripts;

    let warps = 8;
    let (out, report) = run_cell(
        &CellConfig::new(Method::Aila, warps),
        scripts,
        Some(TelemetryConfig { interval: 2000, ..TelemetryConfig::default() }),
    );
    let report = report.expect("telemetry was requested");
    report.check_identity().expect("every warp-cycle charged exactly once");
    let stats = out.expect("the stream completes within the safety cycle cap");

    println!("while-while kernel, {} secondary rays, {warps} warps", scripts.len());
    println!("{} cycles, SIMD efficiency {:.1}%\n", stats.cycles, stats.simd_efficiency() * 100.0);

    println!("SIMD efficiency per {}-cycle interval:", report.interval);
    for s in &report.intervals {
        let eff = s.simd_efficiency();
        println!(
            "  [{:>6}, {:>6})  {}  {:5.1}%  ({} issues)",
            s.start,
            s.end,
            bar(eff, 32),
            eff * 100.0,
            s.issued_all().total
        );
    }

    println!("\nwhere the warp-cycles went ({} warps x {} cycles):", report.warps, report.cycles);
    let total: u64 = report.totals.iter().sum();
    for b in StallBucket::ALL {
        let n = report.totals[b as usize];
        let frac = n as f64 / total as f64;
        println!("  {:18} {}  {:5.1}%  ({n} warp-cycles)", b.label(), bar(frac, 32), frac * 100.0);
    }
    println!(
        "\naccounting identity: {} warp-cycles attributed == {} cycles x {} warps",
        total, report.cycles, report.warps
    );
    println!("(DRS attacks the idle/drain tail by refilling divergent warps —");
    println!(" see `examples/walkthrough.rs` and `experiments fig10`)");
}
