//! Golden tests for the static verifier: every shipped kernel program must
//! verify clean of errors, every malformed fixture must be rejected with
//! its own distinct diagnostic, and every method must finish a simulation
//! run — which, under `--features validate`, additionally engages the
//! engine's runtime invariant checks (mask subsets, divergence partitions,
//! end-of-kernel drain).

use drs::baselines::{DmkConfig, DmkKernel, DmkUnit, TbcConfig, TbcUnit};
use drs::core::system::RowedWhileIf;
use drs::core::{DrsConfig, DrsUnit, RAY_REGISTERS};
use drs::kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
use drs::sim::{Block, GpuConfig, MemSpace, MicroOp, NullSpecial, Program, Simulation, Terminator};
use drs::trace::{RayScript, Step, Termination};
use drs::verify::{live_set_summary, verify_blocks, verify_config, verify_program, Check, Report};

fn shipped_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("while-while", WhileWhileKernel::new(WhileWhileConfig::default()).program()),
        ("while-if", WhileIfKernel::new().program()),
        ("dmk", DmkKernel::new(DmkConfig::paper_default(4)).program()),
        // TBC and DRS drive the while-if program with their own hardware
        // units; what they execute is what must verify.
        ("tbc", WhileIfKernel::new().program()),
        ("drs", WhileIfKernel::new().program()),
    ]
}

#[test]
fn all_shipped_kernels_verify_clean() {
    for (name, program) in shipped_programs() {
        let report = verify_program(&program);
        assert!(report.is_clean(), "kernel {name} has errors:\n{report}");
        assert!(!report.has(Check::UnreachableBlock), "kernel {name}:\n{report}");
        assert!(!report.has(Check::ReconvergeMismatch), "kernel {name}:\n{report}");
        // The swap engine moves `RAY_REGISTERS` per ray: exactly the live
        // set derived at the shuffle points, or a swap would drop or invent
        // ray state.
        assert_eq!(live_set_summary(&program).transfer_regs(), RAY_REGISTERS, "kernel {name}");
    }
}

#[test]
fn paper_config_lints_clean() {
    let report = verify_config(&GpuConfig::gtx780());
    assert!(report.is_clean(), "gtx780 config has errors:\n{report}");
}

// ---------------------------------------------------------------------------
// Malformed golden fixtures: each fires its own distinct diagnostic code.
// ---------------------------------------------------------------------------

/// The only error codes the fixture is allowed to fire, so each golden
/// program demonstrates exactly the defect it was written for.
fn sole_error(report: &Report, check: Check) {
    assert!(report.has(check), "expected {}:\n{report}", check.code());
    for d in report.errors() {
        assert_eq!(d.check, check, "unexpected extra error:\n{report}");
    }
}

#[test]
fn golden_wrong_reconverge() {
    // Diamond followed by a tail: the branch declares reconvergence at the
    // tail, a real post-dominator but not the *immediate* one. The stack
    // still balances — the warp just reconverges a block late, silently
    // losing SIMD efficiency. Exactly the bug class only IPDOM math catches.
    let blocks = vec![
        Block::new(
            "entry",
            vec![MicroOp::alu(1, &[], 1)],
            Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 3 },
        ),
        Block::new("then", vec![MicroOp::alu(1, &[1], 1)], Terminator::Jump(2)),
        Block::new("join", vec![MicroOp::alu(1, &[1], 1)], Terminator::Jump(3)),
        Block::new("tail", vec![MicroOp::store(MemSpace::Global, 0, &[1])], Terminator::Exit),
    ];
    sole_error(&verify_blocks(&blocks), Check::ReconvergeMismatch);
}

#[test]
fn golden_dangling_block() {
    let blocks = vec![
        Block::new(
            "entry",
            vec![],
            Terminator::Branch { cond: 0, on_true: 1, on_false: 9, reconverge: 1 },
        ),
        Block::new("exit", vec![], Terminator::Exit),
    ];
    sole_error(&verify_blocks(&blocks), Check::DanglingTarget);
}

#[test]
fn golden_read_before_write() {
    // r7 is read on the entry path but no path ever writes it first.
    let blocks = vec![
        Block::new("entry", vec![MicroOp::alu(1, &[7], 1)], Terminator::Jump(1)),
        Block::new("exit", vec![MicroOp::store(MemSpace::Global, 0, &[1])], Terminator::Exit),
    ];
    sole_error(&verify_blocks(&blocks), Check::ReadBeforeWrite);
}

#[test]
fn golden_non_uniform_exit() {
    // One divergent path exits directly while its sibling lanes would still
    // be parked at the declared reconvergence point.
    let blocks = vec![
        Block::new(
            "entry",
            vec![MicroOp::alu(1, &[], 1)],
            Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
        ),
        Block::new("early_out", vec![], Terminator::Exit),
        Block::new("join", vec![MicroOp::store(MemSpace::Global, 0, &[1])], Terminator::Exit),
    ];
    let report = verify_blocks(&blocks);
    assert!(report.has(Check::NonUniformExit), "{report}");
    // This CFG necessarily also mis-declares reconvergence (the paths never
    // rejoin); both defects must be named.
    assert!(report.has(Check::ReconvergeMismatch), "{report}");
}

#[test]
fn golden_unbounded_stack() {
    // Two mutually-looping branch blocks that park at *alternating*
    // reconvergence points neither loop ever visits: every round trip
    // pushes two fresh entries, so the SIMT stack grows without bound.
    let blocks = vec![
        Block::new(
            "head_a",
            vec![],
            Terminator::Branch { cond: 0, on_true: 1, on_false: 4, reconverge: 2 },
        ),
        Block::new(
            "head_b",
            vec![],
            Terminator::Branch { cond: 1, on_true: 0, on_false: 4, reconverge: 3 },
        ),
        Block::new("park_a", vec![], Terminator::Jump(4)),
        Block::new("park_b", vec![], Terminator::Jump(4)),
        Block::new("exit", vec![], Terminator::Exit),
    ];
    let report = verify_blocks(&blocks);
    assert!(report.has(Check::UnboundedStack), "{report}");
}

#[test]
fn golden_fixtures_fire_distinct_codes() {
    // The four headline fixtures must be distinguishable by code alone.
    let codes = [
        Check::ReconvergeMismatch.code(),
        Check::DanglingTarget.code(),
        Check::ReadBeforeWrite.code(),
        Check::NonUniformExit.code(),
    ];
    let mut unique: Vec<&str> = codes.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), codes.len(), "codes collide: {codes:?}");
}

// ---------------------------------------------------------------------------
// Every method completes a simulation run. Built with `--features validate`
// these runs additionally assert the engine's runtime invariants each tick.
// ---------------------------------------------------------------------------

fn scripts(n: usize) -> Vec<RayScript> {
    (0..n)
        .map(|i| {
            let mut steps = Vec::new();
            for k in 0..2 + i % 9 {
                steps.push(Step::Inner {
                    node_addr: 0x1000_0000 + ((i * 37 + k) % 2048) as u64 * 64,
                    both_children_hit: k % 3 == 0,
                });
            }
            if i % 3 != 0 {
                steps.push(Step::Leaf {
                    node_addr: 0x1200_0000 + (i % 512) as u64 * 64,
                    prim_base_addr: 0x4000_0000 + (i % 512) as u64 * 48,
                    prim_count: 1 + (i % 3) as u16,
                });
            }
            RayScript::new(steps, Termination::Hit)
        })
        .collect()
}

fn gpu(warps: usize) -> GpuConfig {
    GpuConfig { max_warps: warps, max_cycles: 100_000_000, ..GpuConfig::gtx780() }
}

#[test]
fn all_methods_complete_under_runtime_validation() {
    let s = scripts(300);
    let expected = s.len() as u64;

    let aila = WhileWhileKernel::new(WhileWhileConfig::default());
    let out =
        Simulation::new(gpu(4), aila.program(), Box::new(aila.clone()), Box::new(NullSpecial), &s)
            .run()
            .expect("while-while completes");
    assert_eq!(out.rays_completed, expected, "while-while");

    let drs_cfg = DrsConfig { warps: 4, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 };
    let k = WhileIfKernel::new();
    let out = Simulation::new(
        gpu(4),
        k.program(),
        Box::new(RowedWhileIf::new(drs_cfg.rows())),
        Box::new(DrsUnit::new(drs_cfg)),
        &s,
    )
    .run()
    .expect("drs completes");
    assert_eq!(out.rays_completed, expected, "drs");

    let dmk_cfg = DmkConfig { warps: 4, lanes: 32, pool_slots: 4 * 32 };
    let dmk = DmkKernel::new(dmk_cfg);
    let out = Simulation::new(
        gpu(4),
        dmk.program(),
        Box::new(dmk.clone()),
        Box::new(DmkUnit::new(dmk_cfg)),
        &s,
    )
    .run()
    .expect("dmk completes");
    assert_eq!(out.rays_completed, expected, "dmk");

    let tbc = WhileIfKernel::new();
    let tbc_cfg = TbcConfig { warps: 4, lanes: 32, warps_per_block: 4 };
    let out = Simulation::new(
        gpu(4),
        tbc.program(),
        Box::new(tbc.clone()),
        Box::new(TbcUnit::new(tbc_cfg)),
        &s,
    )
    .run()
    .expect("tbc completes");
    assert_eq!(out.rays_completed, expected, "tbc");
}
