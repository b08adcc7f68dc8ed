//! Randomized property tests over the core data structures and invariants.
//!
//! Driven by the in-repo `drs_math::XorShift64` generator (no external
//! dependencies), with fixed seeds so every run checks the same cases.

use drs::bvh::{BuildMethod, BuildParams, Bvh, KdBuildParams, KdTree};
use drs::geom::{Mesh, Triangle};
use drs::math::{Aabb, Ray, Vec3, XorShift64};
use drs::sim::{MachineState, RayState};
use drs::trace::{RayScript, Step, Termination};

fn gen_vec3(rng: &mut XorShift64, range: f32) -> Vec3 {
    let mut c = || (rng.next_f32() * 2.0 - 1.0) * range;
    Vec3::new(c(), c(), c())
}

fn gen_mesh(rng: &mut XorShift64, max: usize) -> Mesh {
    let n = 1 + rng.next_below(max);
    let tris: Vec<Triangle> = (0..n)
        .map(|_| Triangle::new(gen_vec3(rng, 10.0), gen_vec3(rng, 10.0), gen_vec3(rng, 10.0), 0))
        .collect();
    Mesh::from_triangles(tris)
}

fn gen_ray(rng: &mut XorShift64) -> Ray {
    let o = gen_vec3(rng, 20.0);
    loop {
        let d = gen_vec3(rng, 1.0);
        if d.length_squared() > 1e-6 {
            return Ray::new(o, d.normalized());
        }
    }
}

/// Every BVH built over any triangle soup passes structural validation.
#[test]
fn bvh_structure_is_always_valid() {
    let mut rng = XorShift64::new(0xB44D_1001);
    for case in 0..64 {
        let mesh = gen_mesh(&mut rng, 120);
        let method =
            if case % 2 == 0 { BuildMethod::BinnedSah { bins: 8 } } else { BuildMethod::Median };
        let bvh = Bvh::build(&mesh, &BuildParams { method, max_leaf_size: 3 });
        assert!(bvh.validate(&mesh).is_ok(), "invalid BVH on case {case}");
    }
}

/// BVH traversal agrees with brute force on closest hits.
#[test]
fn bvh_traversal_matches_brute_force() {
    let mut rng = XorShift64::new(0xB44D_1002);
    for case in 0..64 {
        let mesh = gen_mesh(&mut rng, 60);
        let bvh = Bvh::build(&mesh, &BuildParams::default());
        let ray = gen_ray(&mut rng);
        let fast = bvh.intersect(&mesh, &ray);
        let slow = Bvh::intersect_brute_force(&mesh, &ray);
        match (fast, slow) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!((a.t - b.t).abs() < 1e-2, "case {case}: t mismatch {} vs {}", a.t, b.t);
            }
            (a, b) => panic!("case {case}: hit disagreement: {a:?} vs {b:?}"),
        }
    }
}

/// kd-tree traversal agrees with brute force on closest hits (same contract
/// as the BVH, different partitioning semantics).
#[test]
fn kdtree_traversal_matches_brute_force() {
    let mut rng = XorShift64::new(0xB44D_1003);
    for case in 0..64 {
        let mesh = gen_mesh(&mut rng, 60);
        let kd = KdTree::build(&mesh, &KdBuildParams::default());
        assert!(kd.validate(&mesh).is_ok());
        let ray = gen_ray(&mut rng);
        let fast = kd.intersect(&mesh, &ray);
        let slow = Bvh::intersect_brute_force(&mesh, &ray);
        match (fast, slow) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!((a.t - b.t).abs() < 1e-2, "case {case}: t mismatch {} vs {}", a.t, b.t);
            }
            (a, b) => panic!("case {case}: hit disagreement: {a:?} vs {b:?}"),
        }
    }
}

/// AABB union is commutative, containing, and monotone in surface area.
#[test]
fn aabb_union_laws() {
    let mut rng = XorShift64::new(0xB44D_1004);
    for _ in 0..256 {
        let bb1 = Aabb::from_points([gen_vec3(&mut rng, 10.0), gen_vec3(&mut rng, 10.0)]);
        let bb2 = Aabb::from_points([gen_vec3(&mut rng, 10.0), gen_vec3(&mut rng, 10.0)]);
        let u = bb1.union(&bb2);
        assert_eq!(u, bb2.union(&bb1));
        assert!(u.contains_box(&bb1));
        assert!(u.contains_box(&bb2));
        assert!(u.surface_area() + 1e-3 >= bb1.surface_area().max(bb2.surface_area()));
    }
}

/// A ray hitting either sub-box always hits their union.
#[test]
fn ray_hitting_part_hits_union() {
    let mut rng = XorShift64::new(0xB44D_1005);
    for _ in 0..256 {
        let bb1 = Aabb::from_points([gen_vec3(&mut rng, 5.0), gen_vec3(&mut rng, 5.0)]);
        let bb2 = Aabb::from_points([gen_vec3(&mut rng, 5.0), gen_vec3(&mut rng, 5.0)]);
        let u = bb1.union(&bb2);
        let ray = gen_ray(&mut rng);
        let hit_part = bb1.intersect(&ray, 0.0, f32::INFINITY).is_some()
            || bb2.intersect(&ray, 0.0, f32::INFINITY).is_some();
        if hit_part {
            assert!(u.intersect(&ray, 0.0, f32::INFINITY).is_some());
        }
    }
}

/// Shuffling preserves the multiset of elements.
#[test]
fn rng_shuffle_is_permutation() {
    let mut seeds = XorShift64::new(0xB44D_1006);
    for _ in 0..64 {
        let seed = seeds.next_u64().max(1);
        let len = 1 + seeds.next_below(200);
        let mut rng = XorShift64::new(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }
}

/// Machine-state slot transitions: fetch/consume/retire keep the cached
/// state consistent with recomputation, and ray conservation holds.
#[test]
fn machine_state_cache_is_coherent() {
    let mut rng = XorShift64::new(0xB44D_1007);
    for _ in 0..32 {
        let n_rays = 4 + rng.next_below(36);
        let scripts: Vec<RayScript> = (0..n_rays)
            .map(|_| {
                let n = rng.next_below(6);
                RayScript::new(
                    (0..n)
                        .map(|k| Step::Inner {
                            node_addr: 0x1000 + k as u64 * 64,
                            both_children_hit: false,
                        })
                        .collect(),
                    Termination::Escaped,
                )
            })
            .collect();
        let slots = 16;
        let mut m = MachineState::new(&scripts, 2, 8, slots);
        m.track_dirty = true;
        let total = scripts.len() as u64;
        let n_ops = 1 + rng.next_below(300);
        for _ in 0..n_ops {
            let s = rng.next_below(slots);
            match rng.next_below(3) {
                0 => {
                    if m.slots[s].ray.is_none() {
                        m.fetch_into(s);
                    }
                }
                1 => {
                    if m.peek_step(s).is_some() {
                        m.consume_step(s);
                    }
                }
                _ => {
                    if m.slots[s].ray.is_some() && m.peek_step(s).is_none() {
                        m.retire_ray(s);
                    }
                }
            }
            // The cache matches a fresh recomputation.
            assert_eq!(m.state_cache[s], m.compute_state(s));
        }
        // Ray conservation: handed out = resident + completed.
        let resident = m.slots.iter().filter(|s| s.ray.is_some()).count() as u64;
        let handed_out = total - m.queue.remaining() as u64;
        assert_eq!(handed_out, resident + m.rays_completed);
        // States are within the legal set.
        for s in 0..slots {
            let st = m.slot_state(s);
            assert!(matches!(
                st,
                RayState::Fetching | RayState::Inner | RayState::Leaf | RayState::Done
            ));
        }
    }
}

/// The engine's event-driven fast path is unobservable: for arbitrary
/// ray scripts across every method family, cycle skipping on vs. off
/// yields identical `SimStats` and identical telemetry reports (stall
/// totals, interval samples, trace spans).
mod fastpath_equivalence {
    use drs::baselines::{DmkConfig, DmkKernel, DmkUnit, TbcConfig, TbcUnit};
    use drs::core::system::RowedWhileIf;
    use drs::core::{DrsConfig, DrsUnit};
    use drs::kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
    use drs::math::XorShift64;
    use drs::sim::{GpuConfig, NullSpecial, SimStats, Simulation};
    use drs::telemetry::{TelemetryCollector, TelemetryConfig, TelemetryReport};
    use drs::trace::{RayScript, Step, Termination};

    fn gen_scripts(rng: &mut XorShift64) -> Vec<RayScript> {
        let n = 1 + rng.next_below(150);
        (0..n)
            .map(|_| {
                let steps = (0..rng.next_below(20))
                    .map(|_| {
                        if rng.next_below(2) == 0 {
                            Step::Inner {
                                node_addr: 0x1000_0000 + rng.next_below(2048) as u64 * 64,
                                both_children_hit: rng.next_below(2) == 0,
                            }
                        } else {
                            Step::Leaf {
                                node_addr: 0x1100_0000 + rng.next_below(2048) as u64 * 64,
                                prim_base_addr: 0x4000_0000 + rng.next_below(2048) as u64 * 48,
                                prim_count: 1 + rng.next_below(4) as u16,
                            }
                        }
                    })
                    .collect();
                RayScript::new(steps, Termination::Hit)
            })
            .collect()
    }

    const WARPS: usize = 3;

    fn gpu() -> GpuConfig {
        GpuConfig { max_warps: WARPS, max_cycles: 80_000_000, ..GpuConfig::gtx780() }
    }

    fn build(method: usize, scripts: &[RayScript]) -> Simulation<'_> {
        match method {
            0 => {
                let k = WhileWhileKernel::new(WhileWhileConfig::default());
                Simulation::new(
                    gpu(),
                    k.program(),
                    Box::new(k.clone()),
                    Box::new(NullSpecial),
                    scripts,
                )
            }
            1 => {
                let cfg = DmkConfig { warps: WARPS, lanes: 32, pool_slots: WARPS * 32 };
                let k = DmkKernel::new(cfg);
                Simulation::new(
                    gpu(),
                    k.program(),
                    Box::new(k.clone()),
                    Box::new(DmkUnit::new(cfg)),
                    scripts,
                )
            }
            2 => {
                let k = WhileIfKernel::new();
                let cfg = TbcConfig { warps: WARPS, lanes: 32, warps_per_block: 2 };
                Simulation::new(
                    gpu(),
                    k.program(),
                    Box::new(k.clone()),
                    Box::new(TbcUnit::new(cfg)),
                    scripts,
                )
            }
            _ => {
                let cfg = DrsConfig {
                    warps: WARPS,
                    backup_rows: 1,
                    swap_buffers: 6,
                    ideal: false,
                    lanes: 32,
                };
                let k = WhileIfKernel::new();
                Simulation::new(
                    gpu(),
                    k.program(),
                    Box::new(RowedWhileIf::new(cfg.rows())),
                    Box::new(DrsUnit::new(cfg)),
                    scripts,
                )
            }
        }
    }

    fn run(
        method: usize,
        scripts: &[RayScript],
        fastpath: bool,
        telemetry: bool,
    ) -> (SimStats, Option<TelemetryReport>) {
        let mut collector = TelemetryCollector::new(TelemetryConfig {
            interval: 400,
            trace: true,
            ..TelemetryConfig::default()
        });
        let mut sim = build(method, scripts);
        if telemetry {
            sim.attach_telemetry(&mut collector);
        }
        sim.set_fastpath(fastpath);
        let out = sim.run().expect("hit the cycle cap");
        (out, telemetry.then(|| collector.into_report()))
    }

    #[test]
    fn fastpath_is_unobservable_for_random_programs() {
        let mut rng = XorShift64::new(0xB44D_1009);
        for case in 0..8 {
            let scripts = gen_scripts(&mut rng);
            for method in 0..4 {
                // Plain engine: stats must match bit for bit.
                let (fast, _) = run(method, &scripts, true, false);
                let (naive, _) = run(method, &scripts, false, false);
                assert_eq!(fast, naive, "case {case} method {method}: fast path changed SimStats");

                // With a collector attached: stats unchanged vs. the plain
                // run, and the full report — totals, interval samples,
                // trace spans — identical across the fast path.
                let (fast_t, fast_report) = run(method, &scripts, true, true);
                let (naive_t, naive_report) = run(method, &scripts, false, true);
                assert_eq!(fast_t, fast, "telemetry must stay observational");
                assert_eq!(naive_t, naive);
                let (fast_report, naive_report) = (fast_report.unwrap(), naive_report.unwrap());
                assert_eq!(
                    fast_report, naive_report,
                    "case {case} method {method}: fast path changed the telemetry report"
                );
                fast_report.check_identity().unwrap();
            }
        }
    }
}

/// End-to-end robustness: for arbitrary ray scripts, both the software
/// baseline and DRS trace every ray to completion, deterministically.
mod kernel_robustness {
    use drs::core::system::RowedWhileIf;
    use drs::core::{DrsConfig, DrsUnit};
    use drs::kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
    use drs::math::XorShift64;
    use drs::sim::{GpuConfig, NullSpecial, Simulation};
    use drs::trace::{RayScript, Step, Termination};

    fn gen_step(rng: &mut XorShift64) -> Step {
        if rng.next_below(2) == 0 {
            Step::Inner {
                node_addr: 0x1000_0000 + rng.next_below(2048) as u64 * 64,
                both_children_hit: rng.next_below(2) == 0,
            }
        } else {
            Step::Leaf {
                node_addr: 0x1100_0000 + rng.next_below(2048) as u64 * 64,
                prim_base_addr: 0x4000_0000 + rng.next_below(2048) as u64 * 48,
                prim_count: 1 + rng.next_below(5) as u16,
            }
        }
    }

    fn gen_scripts(rng: &mut XorShift64) -> Vec<RayScript> {
        let n = 1 + rng.next_below(219);
        (0..n)
            .map(|_| {
                let steps = (0..rng.next_below(24)).map(|_| gen_step(rng)).collect();
                RayScript::new(steps, Termination::Hit)
            })
            .collect()
    }

    fn gpu() -> GpuConfig {
        GpuConfig { max_warps: 3, max_cycles: 80_000_000, ..GpuConfig::gtx780() }
    }

    #[test]
    fn both_kernels_trace_every_ray() {
        let mut rng = XorShift64::new(0xB44D_1008);
        for case in 0..12 {
            let scripts = gen_scripts(&mut rng);
            let expected = scripts.len() as u64;

            let k = WhileWhileKernel::new(WhileWhileConfig::default());
            let aila = Simulation::new(
                gpu(),
                k.program(),
                Box::new(k.clone()),
                Box::new(NullSpecial),
                &scripts,
            )
            .run()
            .unwrap_or_else(|e| panic!("case {case}: while-while failed: {e}"));
            assert_eq!(aila.rays_completed, expected);

            let cfg =
                DrsConfig { warps: 3, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 };
            let wi = WhileIfKernel::new();
            let drs = Simulation::new(
                gpu(),
                wi.program(),
                Box::new(RowedWhileIf::new(cfg.rows())),
                Box::new(DrsUnit::new(cfg)),
                &scripts,
            )
            .run()
            .unwrap_or_else(|e| panic!("case {case}: DRS failed: {e}"));
            assert_eq!(drs.rays_completed, expected);
        }
    }
}
