//! `KernelBehavior::eval_cond_mask` must agree bit for bit with the
//! per-lane `eval_cond`, which stays the semantic reference. Every kernel
//! runs a tiny simulation; at many points of the run, every branch
//! condition of its program is evaluated for every warp under a spread of
//! lane masks, both ways.

use drs::baselines::{DmkConfig, DmkKernel, DmkUnit, TbcConfig, TbcUnit};
use drs::core::system::RowedWhileIf;
use drs::core::{DrsConfig, DrsUnit};
use drs::kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
use drs::scene::SceneKind;
use drs::sim::{
    GpuConfig, KernelBehavior, MachineState, NullSpecial, Program, Simulation, SpecialUnit,
    Terminator,
};
use drs::trace::{BounceStreams, RayScript};
use std::sync::OnceLock;

const WARPS: usize = 8;

fn scripts() -> &'static [RayScript] {
    static STREAMS: OnceLock<BounceStreams> = OnceLock::new();
    let streams = STREAMS.get_or_init(|| {
        let scene = SceneKind::Conference.build_with_tris(3_000);
        BounceStreams::capture(&scene, 600, 2, 0xC0DE)
    });
    &streams.bounce(2).scripts
}

/// The condition tokens a program branches on.
fn cond_tokens(program: &Program) -> Vec<u16> {
    let mut tokens: Vec<u16> = program
        .blocks()
        .iter()
        .filter_map(|b| match b.terminator {
            Terminator::Branch { cond, .. } => Some(cond),
            _ => None,
        })
        .collect();
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

/// Lane masks to evaluate under: full, empty, single lanes, stripes, and a
/// fixed pseudo-random sequence.
fn masks() -> Vec<u32> {
    let mut out = vec![u32::MAX, 0, 1, 1 << 31, 0x5555_5555, 0xAAAA_AAAA, 0x0000_FFFF];
    let mut x = 0x9E37_79B9u32;
    for _ in 0..8 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        out.push(x);
    }
    out
}

/// What the mask form must return: one `eval_cond` call per lane.
fn per_lane(
    b: &dyn KernelBehavior,
    token: u16,
    warp: usize,
    mask: u32,
    m: &MachineState<'_>,
) -> u32 {
    (0..32)
        .filter(|&l| mask >> l & 1 != 0 && b.eval_cond(token, warp, l, m))
        .fold(0, |acc, l| acc | 1 << l)
}

/// Run `program` to completion, comparing both forms at every sample.
/// Returns how many comparisons came out neither empty nor the full mask,
/// so a caller can check the lanes really diverged.
fn check(
    name: &str,
    program: Program,
    behavior: &dyn KernelBehavior,
    run_behavior: Box<dyn KernelBehavior>,
    unit: Box<dyn SpecialUnit>,
) -> usize {
    let tokens = cond_tokens(&program);
    assert!(!tokens.is_empty(), "{name}: program has no branches");
    let gpu = GpuConfig { max_warps: WARPS, max_cycles: 200_000_000, ..GpuConfig::gtx780() };
    let mut sim = Simulation::new(gpu, program, run_behavior, unit, scripts());
    let masks = masks();
    let (mut samples, mut mixed) = (0, 0);
    let mut target = 0;
    while !sim.done() {
        target += 61;
        sim.advance_to(target);
        samples += 1;
        let m = &sim.machine;
        for warp in 0..WARPS {
            for &token in &tokens {
                for &mask in &masks {
                    let want = per_lane(behavior, token, warp, mask, m);
                    let got = behavior.eval_cond_mask(token, warp, mask, m);
                    assert_eq!(
                        got,
                        want,
                        "{name}: token {token}, warp {warp}, mask {mask:#010x}, cycle {}",
                        sim.cycle()
                    );
                    mixed += usize::from(got != 0 && got != mask);
                }
            }
        }
    }
    let stats = sim.finish().expect("completes");
    assert_eq!(stats.rays_completed, scripts().len() as u64, "{name}");
    assert!(samples > 20, "{name}: only {samples} samples");
    mixed
}

#[test]
fn while_while_mask_matches_per_lane() {
    for replace_terminated in [true, false] {
        let k = WhileWhileKernel::new(WhileWhileConfig {
            speculative_traversal: replace_terminated,
            replace_terminated,
        });
        let name = format!("while-while(replace_terminated={replace_terminated})");
        let mixed = check(&name, k.program(), &k, Box::new(k.clone()), Box::new(NullSpecial));
        assert!(mixed > 0, "{name}: no divergent condition was sampled");
    }
}

#[test]
fn while_if_mask_matches_per_lane() {
    let k = WhileIfKernel::new();
    let tbc = TbcConfig { warps: WARPS, lanes: 32, warps_per_block: 4 };
    let mixed =
        check("while-if (TBC)", k.program(), &k, Box::new(k.clone()), Box::new(TbcUnit::new(tbc)));
    assert!(mixed > 0, "while-if: no divergent condition was sampled");
}

#[test]
fn rowed_while_if_mask_matches_per_lane() {
    let cfg = DrsConfig { warps: WARPS, backup_rows: 2, swap_buffers: 6, ideal: false, lanes: 32 };
    let k = RowedWhileIf::new(cfg.rows());
    let mixed = check(
        "rowed while-if (DRS)",
        WhileIfKernel::new().program(),
        &k,
        Box::new(k.clone()),
        Box::new(DrsUnit::new(cfg)),
    );
    assert!(mixed > 0, "rowed while-if: no divergent condition was sampled");
}

#[test]
fn dmk_mask_matches_per_lane() {
    let cfg = DmkConfig { warps: WARPS, lanes: 32, pool_slots: WARPS * 32 };
    let k = DmkKernel::new(cfg);
    let mixed = check("DMK", k.program(), &k, Box::new(k.clone()), Box::new(DmkUnit::new(cfg)));
    assert!(mixed > 0, "DMK: no divergent condition was sampled");
}
