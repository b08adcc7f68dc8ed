//! The path-tracing integrator and its bounce-stream hook.

use crate::bsdf::sample_bsdf;
use crate::image::Image;
use crate::PAPER_MAX_DEPTH;
use drs_bvh::{BuildParams, Bvh};
use drs_math::{dot, LowDiscrepancy, Ray, Vec3, RAY_EPSILON};
use drs_scene::Scene;

/// Rendering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderConfig {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Path samples per pixel.
    pub samples_per_pixel: usize,
    /// Maximum number of ray segments per path.
    pub max_depth: usize,
    /// RNG / sampler seed.
    pub seed: u64,
    /// Sample area lights directly with shadow rays (next-event
    /// estimation). Cuts variance sharply in light-starved interiors; off
    /// by default so captured ray workloads match the paper's pure random
    /// walk.
    pub next_event_estimation: bool,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig {
            width: 640,
            height: 480,
            samples_per_pixel: 64,
            max_depth: PAPER_MAX_DEPTH,
            seed: 0x5EED,
            next_event_estimation: false,
        }
    }
}

/// A single ray segment of a path, handed to [`BounceVisitor`]s.
#[derive(Debug, Clone, Copy)]
pub struct BouncePath {
    /// 1-based bounce index (1 = primary ray from the camera).
    pub bounce: usize,
    /// The ray being traced for this segment.
    pub ray: Ray,
    /// Identifier of the path this segment belongs to.
    pub path_id: u64,
}

/// Observer invoked for every ray segment the integrator traces.
///
/// `drs-trace` implements this to capture per-bounce ray streams.
pub trait BounceVisitor {
    /// Called before each segment is traced.
    fn visit(&mut self, segment: &BouncePath);
}

/// No-op visitor used by plain rendering.
struct NullVisitor;
impl BounceVisitor for NullVisitor {
    fn visit(&mut self, _segment: &BouncePath) {}
}

/// A path tracer bound to a scene (owns the BVH it traverses).
#[derive(Debug)]
pub struct PathTracer<'s> {
    scene: &'s Scene,
    bvh: Bvh,
}

impl<'s> PathTracer<'s> {
    /// Build a tracer (and its BVH) for a scene.
    pub fn new(scene: &'s Scene) -> PathTracer<'s> {
        PathTracer { scene, bvh: Bvh::build(scene.mesh(), &BuildParams::default()) }
    }

    /// The BVH the tracer traverses.
    pub fn bvh(&self) -> &Bvh {
        &self.bvh
    }

    /// Render an image with the configured sampler.
    pub fn render(&self, cfg: &RenderConfig) -> Image {
        let mut img = Image::new(cfg.width, cfg.height);
        let mut visitor = NullVisitor;
        for y in 0..cfg.height {
            for x in 0..cfg.width {
                let pixel_seed = cfg.seed ^ ((y * cfg.width + x) as u64).wrapping_mul(0x9E37);
                let mut sampler = LowDiscrepancy::new(pixel_seed);
                let mut acc = Vec3::ZERO;
                for s in 0..cfg.samples_per_pixel {
                    sampler.start_sample(s as u64);
                    let (jx, jy) = sampler.next_2d();
                    let u = (x as f32 + jx) / cfg.width as f32;
                    // Film t is up; pixel y grows down.
                    let v = 1.0 - (y as f32 + jy) / cfg.height as f32;
                    let ray = self.scene.camera().primary_ray(u, v);
                    let path_id = (y * cfg.width + x) as u64 * 1_000 + s as u64;
                    acc += self.trace_path_ext(
                        ray,
                        cfg.max_depth,
                        &mut sampler,
                        path_id,
                        &mut visitor,
                        cfg.next_event_estimation,
                    );
                }
                img.add(x, y, acc);
            }
        }
        img.scale(1.0 / cfg.samples_per_pixel as f32);
        img
    }

    /// Walk `paths` complete light paths (one sample each, pixels chosen by
    /// a low-discrepancy sweep of the film), invoking `visitor` for every
    /// ray segment. Returns the mean path radiance as a sanity value.
    ///
    /// This is the entry point `drs-trace` uses to capture bounce streams:
    /// the visitor observes exactly the rays a PBRT-style renderer would
    /// feed the GPU ray-tracing kernel, bounce by bounce.
    pub fn walk_paths<V: BounceVisitor>(
        &self,
        paths: u64,
        max_depth: usize,
        seed: u64,
        visitor: &mut V,
    ) -> Vec3 {
        let mut total = Vec3::ZERO;
        for p in 0..paths {
            // Stratify film positions with a (0,2)-style Halton pair.
            let u = drs_math::halton(p + 1, 0);
            let v = drs_math::halton(p + 1, 1);
            let mut sampler = LowDiscrepancy::new(seed ^ p.wrapping_mul(0x9E37_79B9));
            sampler.start_sample(0);
            let ray = self.scene.camera().primary_ray(u, v);
            total += self.trace_path(ray, max_depth, &mut sampler, p, visitor);
        }
        total / paths.max(1) as f32
    }

    /// Trace one complete path, returning its radiance estimate.
    fn trace_path<V: BounceVisitor>(
        &self,
        ray: Ray,
        max_depth: usize,
        sampler: &mut LowDiscrepancy,
        path_id: u64,
        visitor: &mut V,
    ) -> Vec3 {
        self.trace_path_ext(ray, max_depth, sampler, path_id, visitor, false)
    }

    /// [`PathTracer::trace_path`] with optional next-event estimation.
    fn trace_path_ext<V: BounceVisitor>(
        &self,
        mut ray: Ray,
        max_depth: usize,
        sampler: &mut LowDiscrepancy,
        path_id: u64,
        visitor: &mut V,
        nee: bool,
    ) -> Vec3 {
        let mut throughput = Vec3::ONE;
        let mut radiance = Vec3::ZERO;
        for bounce in 1..=max_depth {
            visitor.visit(&BouncePath { bounce, ray, path_id });
            let Some(hit) = self.bvh.intersect(self.scene.mesh(), &ray) else {
                // Escaped: collect sky emission and terminate.
                radiance += throughput * self.scene.sky_emission();
                break;
            };
            let material = self.scene.material_of(hit.tri_index as usize);
            if material.is_emissive() {
                // With NEE, emitters found by the random walk beyond the
                // first vertex are already accounted for by shadow rays.
                if !nee || bounce == 1 {
                    radiance += throughput * material.emission;
                }
                break;
            }
            // Flip the geometric normal against the incoming direction.
            let tri = &self.scene.mesh().triangles()[hit.tri_index as usize];
            let mut normal = tri.unit_normal();
            if dot(normal, ray.direction) > 0.0 {
                normal = -normal;
            }
            if nee {
                let point = ray.at(hit.t) + normal * RAY_EPSILON;
                let u = sampler.next_2d();
                radiance +=
                    throughput.hadamard(material.albedo) * self.direct_light(point, normal, u);
            }
            let u2 = sampler.next_2d();
            let lobe = sampler.next_1d();
            let Some(sample) = sample_bsdf(material, ray.direction, normal, u2, lobe) else {
                break;
            };
            throughput = throughput.hadamard(sample.throughput);
            // Paths whose throughput collapses carry almost no energy; cut
            // them deterministically (the paper uses a fixed depth of 8, so
            // no Russian roulette here — determinism keeps traces stable).
            if throughput.max_component() < 1e-4 {
                break;
            }
            let origin = ray.at(hit.t) + normal * RAY_EPSILON;
            ray = Ray::new(origin, sample.direction);
        }
        radiance
    }
}

impl PathTracer<'_> {
    /// One-sample direct-lighting estimate at `point`: pick an emissive
    /// triangle uniformly, sample a point on it, and cast a shadow ray.
    fn direct_light(&self, point: Vec3, normal: Vec3, u: (f32, f32)) -> f32 {
        let tris = self.scene.mesh().triangles();
        let lights: Vec<usize> = tris
            .iter()
            .enumerate()
            .filter(|(_, t)| self.scene.materials()[t.material as usize].is_emissive())
            .map(|(i, _)| i)
            .collect();
        if lights.is_empty() {
            return 0.0;
        }
        let pick = ((u.0 * lights.len() as f32) as usize).min(lights.len() - 1);
        let tri = &tris[lights[pick]];
        // Uniform barycentric sample of the light triangle.
        let (mut b0, mut b1) = (u.0.fract().max(1e-3), u.1);
        if b0 + b1 > 1.0 {
            b0 = 1.0 - b0;
            b1 = 1.0 - b1;
        }
        let target = tri.a + (tri.b - tri.a) * b0 + (tri.c - tri.a) * b1;
        let to_light = target - point;
        let dist2 = to_light.length_squared();
        if dist2 <= 1e-8 {
            return 0.0;
        }
        let dist = dist2.sqrt();
        let dir = to_light / dist;
        let cos_here = dot(dir, normal);
        let light_n = tri.unit_normal();
        let cos_light = dot(-dir, light_n).abs();
        if cos_here <= 0.0 || cos_light <= 0.0 {
            return 0.0;
        }
        let shadow = Ray::new(point, dir);
        if self.bvh.intersect_any(self.scene.mesh(), &shadow, dist - 1e-3) {
            return 0.0;
        }
        let emission = self.scene.materials()[tri.material as usize].emission;
        // Area-sampling estimator: Le * G * area * #lights / pi.
        let g = cos_here * cos_light / dist2;
        emission * g * tri.area() * lights.len() as f32 / std::f32::consts::PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_scene::SceneKind;

    #[test]
    fn render_produces_nonzero_image() {
        let scene = SceneKind::Conference.build_with_tris(600);
        let tracer = PathTracer::new(&scene);
        let cfg =
            RenderConfig { width: 24, height: 18, samples_per_pixel: 4, ..Default::default() };
        let img = tracer.render(&cfg);
        assert!(img.mean_luminance() > 0.0, "room with lights renders black");
        assert!(img.mean_luminance().is_finite());
    }

    #[test]
    fn open_scene_sees_sky() {
        let scene = SceneKind::FairyForest.build_with_tris(600);
        let tracer = PathTracer::new(&scene);
        let cfg =
            RenderConfig { width: 16, height: 12, samples_per_pixel: 2, ..Default::default() };
        let img = tracer.render(&cfg);
        // Most of the frame is ground/sky; with sky_emission 1.0 mean
        // luminance must be substantial.
        assert!(img.mean_luminance() > 0.05, "got {}", img.mean_luminance());
    }

    struct CountingVisitor {
        per_bounce: Vec<usize>,
    }
    impl BounceVisitor for CountingVisitor {
        fn visit(&mut self, seg: &BouncePath) {
            if self.per_bounce.len() < seg.bounce + 1 {
                self.per_bounce.resize(seg.bounce + 1, 0);
            }
            self.per_bounce[seg.bounce] += 1;
        }
    }

    #[test]
    fn bounce_counts_decay_monotonically() {
        let scene = SceneKind::Conference.build_with_tris(600);
        let tracer = PathTracer::new(&scene);
        let mut v = CountingVisitor { per_bounce: Vec::new() };
        tracer.walk_paths(500, 8, 1, &mut v);
        assert_eq!(v.per_bounce[1], 500, "every path has a primary ray");
        for b in 2..v.per_bounce.len() {
            assert!(v.per_bounce[b] <= v.per_bounce[b - 1], "bounce {b} grew: {:?}", v.per_bounce);
        }
        // Conference has ceiling lights: a good fraction of paths must
        // survive to bounce 2 (hit something non-emissive first).
        assert!(v.per_bounce[2] > 100);
    }

    #[test]
    fn max_depth_is_respected() {
        let scene = SceneKind::CrytekSponza.build_with_tris(800);
        let tracer = PathTracer::new(&scene);
        let mut v = CountingVisitor { per_bounce: Vec::new() };
        tracer.walk_paths(200, 3, 2, &mut v);
        assert!(v.per_bounce.len() <= 4, "saw bounce beyond max_depth");
    }

    #[test]
    fn walk_paths_is_deterministic() {
        let scene = SceneKind::Plants.build_with_tris(700);
        let tracer = PathTracer::new(&scene);
        let mut a = CountingVisitor { per_bounce: Vec::new() };
        let mut b = CountingVisitor { per_bounce: Vec::new() };
        let ra = tracer.walk_paths(300, 8, 7, &mut a);
        let rb = tracer.walk_paths(300, 8, 7, &mut b);
        assert_eq!(a.per_bounce, b.per_bounce);
        assert_eq!(ra, rb);
    }
}

#[cfg(test)]
mod nee_tests {
    use super::*;
    use drs_scene::SceneKind;

    #[test]
    fn nee_reduces_variance_without_changing_brightness_scale() {
        let scene = SceneKind::Conference.build_with_tris(800);
        let tracer = PathTracer::new(&scene);
        let base =
            RenderConfig { width: 20, height: 15, samples_per_pixel: 8, ..Default::default() };
        let with_nee = RenderConfig { next_event_estimation: true, ..base };
        let a = tracer.render(&base);
        let b = tracer.render(&with_nee);
        let la = a.mean_luminance();
        let lb = b.mean_luminance();
        assert!(la > 0.0 && lb > 0.0);
        // Both estimate the same light transport; means should be in the
        // same ballpark (NEE is unbiased up to our one-light estimator).
        assert!(lb / la < 4.0 && la / lb < 4.0, "NEE {lb:.4} vs walk {la:.4} differ too much");
        // Variance proxy: per-pixel deviation from each image's mean; the
        // NEE image should not be wildly noisier.
        let spread = |img: &crate::Image, mean: f32| -> f32 {
            let mut s = 0.0;
            for y in 0..img.height() {
                for x in 0..img.width() {
                    let p = img.pixel(x, y);
                    let l = 0.2126 * p.x + 0.7152 * p.y + 0.0722 * p.z;
                    s += (l - mean) * (l - mean);
                }
            }
            s / (img.width() * img.height()) as f32
        };
        let va = spread(&a, la) / (la * la + 1e-6);
        let vb = spread(&b, lb) / (lb * lb + 1e-6);
        assert!(vb <= va * 2.0, "relative spread: NEE {vb:.3} vs walk {va:.3}");
    }

    #[test]
    fn nee_in_lightless_scene_is_harmless() {
        // Sponza has no emissive geometry, only sky: direct_light returns 0.
        let scene = SceneKind::CrytekSponza.build_with_tris(900);
        let tracer = PathTracer::new(&scene);
        let cfg = RenderConfig {
            width: 12,
            height: 9,
            samples_per_pixel: 2,
            next_event_estimation: true,
            ..Default::default()
        };
        let img = tracer.render(&cfg);
        assert!(img.mean_luminance().is_finite());
    }
}
