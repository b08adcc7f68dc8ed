//! Bounce-stream capture: walking paths and recording ray scripts.

use crate::script::{RayScript, Step, Termination};
use drs_bvh::{BuildParams, Bvh, TraversalEvent};
use drs_math::{dot, LowDiscrepancy, Ray, RAY_EPSILON};
use drs_render::sample_bsdf;
use drs_scene::Scene;

/// All rays captured for one bounce depth.
#[derive(Debug, Clone)]
pub struct BounceStream {
    /// 1-based bounce index (1 = primary rays).
    pub bounce: usize,
    /// One script per captured ray, in dispatch order.
    pub scripts: Vec<RayScript>,
}

impl BounceStream {
    /// Aggregate statistics over the stream.
    pub fn stats(&self) -> StreamStats {
        let mut s = StreamStats { rays: self.scripts.len(), ..Default::default() };
        if self.scripts.is_empty() {
            return s;
        }
        for script in &self.scripts {
            s.total_inner += script.inner_count();
            s.total_leaf += script.leaf_count();
            s.total_prim_tests += script.prim_tests();
            match script.termination() {
                Termination::Hit => s.hits += 1,
                Termination::Escaped => s.escaped += 1,
                Termination::HitLight => s.hit_light += 1,
            }
        }
        s
    }
}

/// Aggregate statistics of a [`BounceStream`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of rays in the stream.
    pub rays: usize,
    /// Total inner-node visits across rays.
    pub total_inner: usize,
    /// Total leaf visits across rays.
    pub total_leaf: usize,
    /// Total primitive tests across rays.
    pub total_prim_tests: usize,
    /// Rays that hit non-emissive geometry.
    pub hits: usize,
    /// Rays that left the scene.
    pub escaped: usize,
    /// Rays that hit a light source.
    pub hit_light: usize,
}

impl StreamStats {
    /// Mean inner-node visits per ray.
    pub fn avg_inner(&self) -> f64 {
        self.total_inner as f64 / self.rays.max(1) as f64
    }
}

/// Captured per-bounce ray streams for one scene.
#[derive(Debug, Clone)]
pub struct BounceStreams {
    streams: Vec<BounceStream>,
}

impl BounceStreams {
    /// Assemble from already-built streams (used by the binary loader).
    ///
    /// # Panics
    ///
    /// Panics if the streams' bounce indices are not `1..=n` in order.
    pub fn from_streams(streams: Vec<BounceStream>) -> BounceStreams {
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(s.bounce, i + 1, "bounce indices must be 1..=n in order");
        }
        BounceStreams { streams }
    }

    /// Capture up to `target_per_bounce` ray scripts for each bounce depth
    /// `1..=max_bounces` by walking complete paths through `scene`.
    ///
    /// Primary samples sweep the film in scanline order (one sample per
    /// virtual pixel, re-sweeping with new jitter until every bucket fills
    /// or the path budget runs out). Deep-bounce buckets can end up short in
    /// open scenes where most paths escape early — exactly the behaviour
    /// that makes some scenes "easy" in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `target_per_bounce == 0` or `max_bounces == 0`.
    pub fn capture(
        scene: &Scene,
        target_per_bounce: usize,
        max_bounces: usize,
        seed: u64,
    ) -> BounceStreams {
        let bvh = Bvh::build(scene.mesh(), &BuildParams::default());
        Self::capture_with_bvh(scene, &bvh, target_per_bounce, max_bounces, seed)
    }

    /// [`BounceStreams::capture`] with a caller-provided BVH.
    pub fn capture_with_bvh(
        scene: &Scene,
        bvh: &Bvh,
        target_per_bounce: usize,
        max_bounces: usize,
        seed: u64,
    ) -> BounceStreams {
        assert!(target_per_bounce > 0, "target_per_bounce must be positive");
        assert!(max_bounces > 0, "max_bounces must be positive");
        let mut streams: Vec<BounceStream> = (1..=max_bounces)
            .map(|b| BounceStream { bounce: b, scripts: Vec::with_capacity(target_per_bounce) })
            .collect();
        // Virtual film: 4:3, one primary sample per pixel per sweep.
        let width = ((target_per_bounce as f32 * 4.0 / 3.0).sqrt().ceil() as usize).max(1);
        let height = target_per_bounce.div_ceil(width);
        // Each sweep yields `width*height` paths; escape decay means deep
        // buckets fill slower, so allow a bounded number of re-sweeps.
        let max_sweeps = 32;
        // Pixels are visited in warp-shaped 8x4 tiles, matching how a GPU
        // rasterizes primary-ray dispatches: each group of 32 consecutive
        // rays (one warp) covers a compact screen tile, which is what makes
        // primary rays coherent in the paper's Figure 2.
        let tiles_x = width.div_ceil(8);
        let tiles_y = height.div_ceil(4);
        'sweeps: for sweep in 0..max_sweeps {
            for tile in 0..tiles_x * tiles_y {
                let tx = (tile % tiles_x) * 8;
                let ty = (tile / tiles_x) * 4;
                for local in 0..32 {
                    let px = tx + local % 8;
                    let py = ty + local / 8;
                    if px >= width || py >= height {
                        continue;
                    }
                    if streams.iter().all(|s| s.scripts.len() >= target_per_bounce) {
                        break 'sweeps;
                    }
                    let pixel_id = (py * width + px) as u64;
                    let mut sampler =
                        LowDiscrepancy::new(seed ^ pixel_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    sampler.start_sample(sweep as u64);
                    let (jx, jy) = sampler.next_2d();
                    let u = (px as f32 + jx) / width as f32;
                    let v = 1.0 - (py as f32 + jy) / height as f32;
                    let ray = scene.camera().primary_ray(u, v);
                    walk_one_path(
                        scene,
                        bvh,
                        ray,
                        &mut sampler,
                        max_bounces,
                        target_per_bounce,
                        &mut streams,
                    );
                }
            }
        }
        BounceStreams { streams }
    }

    /// The stream for a 1-based bounce index.
    ///
    /// # Panics
    ///
    /// Panics if `bounce` is 0 or exceeds the captured depth.
    pub fn bounce(&self, bounce: usize) -> &BounceStream {
        assert!(bounce >= 1 && bounce <= self.streams.len(), "bounce {bounce} out of range");
        &self.streams[bounce - 1]
    }

    /// Number of captured bounce depths.
    pub fn depth(&self) -> usize {
        self.streams.len()
    }

    /// Iterate over all streams in bounce order.
    pub fn iter(&self) -> impl Iterator<Item = &BounceStream> {
        self.streams.iter()
    }
}

/// Trace one full path, appending each bounce's script to its bucket
/// (buckets beyond `target` drop extra scripts).
fn walk_one_path(
    scene: &Scene,
    bvh: &Bvh,
    mut ray: Ray,
    sampler: &mut LowDiscrepancy,
    max_bounces: usize,
    target: usize,
    streams: &mut [BounceStream],
) {
    for bounce in 1..=max_bounces {
        let mut steps: Vec<Step> = Vec::with_capacity(48);
        let hit = bvh.intersect_instrumented(scene.mesh(), &ray, &mut |e| {
            steps.push(match e {
                TraversalEvent::Inner { node_index, both_children_hit } => {
                    Step::Inner { node_addr: bvh.node_addr(node_index as usize), both_children_hit }
                }
                TraversalEvent::Leaf { node_index, prim_count, first_prim } => Step::Leaf {
                    node_addr: bvh.node_addr(node_index as usize),
                    prim_base_addr: bvh.prim_addr(first_prim as usize),
                    prim_count,
                },
            });
        });
        let (termination, continuation) = match hit {
            None => (Termination::Escaped, None),
            Some(h) => {
                let material = scene.material_of(h.tri_index as usize);
                if material.is_emissive() {
                    (Termination::HitLight, None)
                } else {
                    let tri = &scene.mesh().triangles()[h.tri_index as usize];
                    let mut normal = tri.unit_normal();
                    if dot(normal, ray.direction) > 0.0 {
                        normal = -normal;
                    }
                    let u2 = sampler.next_2d();
                    let lobe = sampler.next_1d();
                    let next = sample_bsdf(material, ray.direction, normal, u2, lobe)
                        .map(|s| Ray::new(ray.at(h.t) + normal * RAY_EPSILON, s.direction));
                    (Termination::Hit, next)
                }
            }
        };
        let bucket = &mut streams[bounce - 1];
        if bucket.scripts.len() < target {
            bucket.scripts.push(RayScript::new(steps, termination));
        }
        match continuation {
            Some(next) => ray = next,
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_scene::SceneKind;

    #[test]
    fn capture_fills_primary_bucket_exactly() {
        let scene = SceneKind::Conference.build_with_tris(600);
        let streams = BounceStreams::capture(&scene, 200, 3, 1);
        assert_eq!(streams.depth(), 3);
        assert_eq!(streams.bounce(1).scripts.len(), 200);
    }

    #[test]
    fn deep_buckets_fill_in_closed_scene() {
        let scene = SceneKind::CrytekSponza.build_with_tris(1_500);
        let streams = BounceStreams::capture(&scene, 100, 4, 2);
        for b in 1..=4 {
            let len = streams.bounce(b).scripts.len();
            assert!(len >= 50, "bounce {b} has only {len} rays in a hard-to-escape scene");
        }
    }

    #[test]
    fn primary_rays_mostly_hit_something_indoors() {
        let scene = SceneKind::Conference.build_with_tris(800);
        let streams = BounceStreams::capture(&scene, 300, 2, 3);
        let stats = streams.bounce(1).stats();
        assert!(stats.escaped == 0, "closed room leaked {} rays", stats.escaped);
        assert!(stats.hits > 200);
    }

    #[test]
    fn secondary_rays_are_less_coherent_than_primary() {
        // Coherence proxy: average pairwise-consecutive script-prefix
        // agreement. Primary rays from adjacent pixels share long BVH
        // prefixes; bounced rays do not.
        let scene = SceneKind::Conference.build_with_tris(1_000);
        let streams = BounceStreams::capture(&scene, 300, 2, 4);
        let prefix_agreement = |s: &BounceStream| -> f64 {
            let mut total = 0usize;
            let mut pairs = 0usize;
            for w in s.scripts.windows(2) {
                let (a, b) = (w[0].steps(), w[1].steps());
                let shared = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
                total += shared;
                pairs += 1;
            }
            total as f64 / pairs.max(1) as f64
        };
        let p1 = prefix_agreement(streams.bounce(1));
        let p2 = prefix_agreement(streams.bounce(2));
        assert!(p1 > p2 * 1.5, "primary coherence {p1:.2} not clearly above secondary {p2:.2}");
    }

    #[test]
    fn stats_totals_are_consistent() {
        let scene = SceneKind::Plants.build_with_tris(1_200);
        let streams = BounceStreams::capture(&scene, 150, 3, 5);
        for s in streams.iter() {
            let st = s.stats();
            assert_eq!(st.rays, s.scripts.len());
            assert_eq!(st.hits + st.escaped + st.hit_light, st.rays);
            let manual_inner: usize =
                s.scripts.iter().map(super::super::script::RayScript::inner_count).sum();
            assert_eq!(st.total_inner, manual_inner);
            assert!(st.avg_inner() >= 0.0);
        }
    }

    #[test]
    fn capture_is_deterministic() {
        let scene = SceneKind::FairyForest.build_with_tris(900);
        let a = BounceStreams::capture(&scene, 100, 3, 9);
        let b = BounceStreams::capture(&scene, 100, 3, 9);
        for bounce in 1..=3 {
            assert_eq!(a.bounce(bounce).scripts, b.bounce(bounce).scripts);
        }
    }

    #[test]
    #[should_panic]
    fn bounce_out_of_range_panics() {
        let scene = SceneKind::Conference.build_with_tris(500);
        let streams = BounceStreams::capture(&scene, 50, 2, 1);
        let _ = streams.bounce(3);
    }
}
