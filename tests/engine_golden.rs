//! Golden `SimStats` digests of tiny cells for the engine paths the
//! served-scale benchmark goldens never reach: the loose-round-robin
//! scheduler, every Aila variant, DMK, TBC, DRS at one and eight backup
//! rows, and ideal DRS. Each cell runs with the fast path on and off; both
//! runs must agree and match the pinned FNV-1a digest of the stats JSON.
//!
//! A digest changes only when a result changes. If a deliberate model
//! change moves one, re-bless it and say why in the changelog.

use drs::core::system::RowedWhileIf;
use drs::core::{DrsConfig, DrsUnit};
use drs::harness::{fnv1a64, run_cell, CellConfig, Method};
use drs::kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
use drs::scene::SceneKind;
use drs::sim::{GpuConfig, JsonBuf, NullSpecial, SchedulerPolicy, SimStats, Simulation};
use drs::trace::{BounceStreams, RayScript};
use std::sync::OnceLock;

/// Resident warps of every cell: three per scheduler, so both the greedy
/// pick and the round-robin rotation have a choice to make.
const WARPS: usize = 12;

/// Secondary rays of a small conference capture (incoherent, so every
/// method diverges, stalls and, for DRS, shuffles).
fn scripts() -> &'static [RayScript] {
    static STREAMS: OnceLock<BounceStreams> = OnceLock::new();
    let streams = STREAMS.get_or_init(|| {
        let scene = SceneKind::Conference.build_with_tris(3_000);
        BounceStreams::capture(&scene, 900, 2, 0x5EED)
    });
    &streams.bounce(2).scripts
}

fn digest(stats: &SimStats) -> u64 {
    let mut j = JsonBuf::new();
    stats.write_json(&mut j);
    fnv1a64(j.finish().as_bytes())
}

/// Run `method` through the harness's cell path with the fast path on and
/// off, and return the (identical) stats.
fn harness_cell(method: Method) -> SimStats {
    let run = |fastpath| {
        let cfg = CellConfig { fastpath, ..CellConfig::new(method, WARPS) };
        run_cell(&cfg, scripts(), None).0.expect("cell completes")
    };
    let fast = run(true);
    assert_eq!(fast, run(false), "{}: fast path changed the stats", method.label());
    assert_eq!(fast.rays_completed, scripts().len() as u64);
    fast
}

/// Default DRS (`drs`) or Aila (`!drs`) under the loose-round-robin
/// scheduler, fast path on and off.
fn lrr_cell(drs: bool) -> SimStats {
    let gpu = GpuConfig {
        max_warps: WARPS,
        max_cycles: 200_000_000,
        scheduler_policy: SchedulerPolicy::LooseRoundRobin,
        ..GpuConfig::gtx780()
    };
    let run = |fastpath| {
        let mut sim = if drs {
            let cfg = DrsConfig {
                warps: WARPS,
                backup_rows: 1,
                swap_buffers: 6,
                ideal: false,
                lanes: 32,
            };
            Simulation::new(
                gpu.clone(),
                WhileIfKernel::new().program(),
                Box::new(RowedWhileIf::new(cfg.rows())),
                Box::new(DrsUnit::new(cfg)),
                scripts(),
            )
        } else {
            let k = WhileWhileKernel::new(WhileWhileConfig::default());
            Simulation::new(
                gpu.clone(),
                k.program(),
                Box::new(k.clone()),
                Box::new(NullSpecial),
                scripts(),
            )
        };
        sim.set_fastpath(fastpath);
        sim.run().expect("completes")
    };
    let fast = run(true);
    assert_eq!(fast, run(false), "LRR: fast path changed the stats");
    assert_eq!(fast.rays_completed, scripts().len() as u64);
    fast
}

fn check(name: &str, stats: &SimStats, golden: u64) {
    let got = digest(stats);
    assert_eq!(got, golden, "{name}: stats digest {got:#018x} != golden {golden:#018x}");
}

#[test]
fn golden_lrr_aila() {
    check("LRR Aila", &lrr_cell(false), 0x5726_b4d7_020c_22e9);
}

#[test]
fn golden_lrr_drs() {
    check("LRR DRS", &lrr_cell(true), 0xb055_0f95_e585_5642);
}

#[test]
fn golden_aila_variants() {
    let goldens = [
        ((false, false), 0x747b_9bcd_7abf_c4c7),
        ((false, true), 0xe2d2_4725_c16f_2916),
        ((true, false), 0x108b_6af9_1ca0_c165),
        ((true, true), 0x3643_fa44_fed9_c758),
    ];
    for ((speculative_traversal, replace_terminated), golden) in goldens {
        let method = Method::AilaVariant { speculative_traversal, replace_terminated };
        check(&method.label(), &harness_cell(method), golden);
    }
}

#[test]
fn golden_dmk() {
    check("DMK", &harness_cell(Method::Dmk), 0xe4ed_0144_1ec1_79c6);
}

#[test]
fn golden_tbc() {
    check("TBC", &harness_cell(Method::Tbc), 0xd988_1232_87b0_b12d);
}

#[test]
fn golden_drs_backup_rows() {
    for (backup_rows, golden) in [(1, 0x5555_4a85_4ada_6a41), (8, 0x4d64_27be_3f5f_ead1)] {
        let method = Method::Drs { backup_rows, swap_buffers: 6, extra_bank: false };
        check(&method.label(), &harness_cell(method), golden);
    }
}

#[test]
fn golden_ideal_drs() {
    check("DRS(ideal)", &harness_cell(Method::IdealDrs), 0x826a_2166_d60b_0b34);
}
