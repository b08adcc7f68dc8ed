//! Procedural stand-ins for the paper's four benchmark scenes.
//!
//! The paper evaluates on *conference room* (indoor, ceiling lights, ~283 K
//! tris), *fairy forest* ("teapot in a stadium", ~174 K tris), *crytek
//! sponza* (complex atrium architecture, 262 K tris) and *plants* (dense
//! outdoor foliage, ~1.1 M tris). The original assets are not redistributable,
//! so this crate generates procedural scenes that preserve the properties the
//! evaluation depends on:
//!
//! - **conference**: closed room, furniture clusters on the floor, emissive
//!   ceiling panels → upward secondary rays terminate quickly (the paper's
//!   "B2 faster than B1" effect).
//! - **fairy_forest**: huge open ground plane with one small, dense, highly
//!   detailed cluster — the classic "teapot in a stadium" BVH stressor.
//! - **crytek_sponza**: colonnaded atrium with nested arcades and an open
//!   sky slot; rays bounce many times before escaping → most BVH nodes
//!   visited per ray and the worst L1-texture-cache behaviour.
//! - **plants**: dense, uniformly distributed small triangles over terrain →
//!   secondary rays are almost always occluded (no B2 speed-up).
//!
//! # Example
//!
//! ```
//! use drs_scene::SceneKind;
//!
//! let scene = SceneKind::FairyForest.build_with_tris(2_000);
//! assert!(scene.mesh().len() >= 1_500);
//! assert_eq!(scene.kind(), SceneKind::FairyForest);
//! ```

#![warn(missing_docs)]

mod camera;
mod generators;
mod material;
mod stats;

pub use camera::Camera;
pub use material::{Material, MaterialKind};
pub use stats::SceneStats;

use drs_geom::Mesh;
use drs_math::Aabb;

/// Identifies one of the four benchmark scenes from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// Indoor conference room: medium object count, uneven distribution,
    /// emissive ceiling.
    Conference,
    /// Outdoor "teapot in a stadium": small detailed model in a large open
    /// environment.
    FairyForest,
    /// Architecturally complex atrium; rays are hard to terminate.
    CrytekSponza,
    /// Large number of densely, uniformly distributed triangles.
    Plants,
}

impl SceneKind {
    /// All four benchmark scenes, in the order the paper reports them.
    pub const ALL: [SceneKind; 4] =
        [SceneKind::Conference, SceneKind::FairyForest, SceneKind::CrytekSponza, SceneKind::Plants];

    /// The scene's display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SceneKind::Conference => "conference room",
            SceneKind::FairyForest => "fairy forest",
            SceneKind::CrytekSponza => "crytek sponza",
            SceneKind::Plants => "plants",
        }
    }

    /// Triangle count of the original asset the scene stands in for.
    pub fn paper_triangle_count(self) -> usize {
        match self {
            SceneKind::Conference => 283_000,
            SceneKind::FairyForest => 174_000,
            SceneKind::CrytekSponza => 262_000,
            SceneKind::Plants => 1_100_000,
        }
    }

    /// Build the scene targeting approximately `target_tris` triangles.
    ///
    /// The generators treat the target as a lower bound on fidelity: the
    /// result is within roughly ±20 % of the request (structural elements
    /// such as walls quantize the count).
    pub fn build_with_tris(self, target_tris: usize) -> Scene {
        match self {
            SceneKind::Conference => generators::conference(target_tris),
            SceneKind::FairyForest => generators::fairy_forest(target_tris),
            SceneKind::CrytekSponza => generators::crytek_sponza(target_tris),
            SceneKind::Plants => generators::plants(target_tris),
        }
    }
}

impl std::fmt::Display for SceneKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete renderable scene: geometry, materials, camera and sky model.
#[derive(Debug, Clone)]
pub struct Scene {
    kind: SceneKind,
    mesh: Mesh,
    materials: Vec<Material>,
    camera: Camera,
    /// Whether rays that escape the geometry see a bright sky (outdoor
    /// scenes) or terminate into darkness (they still terminate either way).
    sky_emission: f32,
}

impl Scene {
    /// Assemble a scene from parts.
    ///
    /// # Panics
    ///
    /// Panics if any triangle references a material index out of range.
    pub fn new(
        kind: SceneKind,
        mesh: Mesh,
        materials: Vec<Material>,
        camera: Camera,
        sky_emission: f32,
    ) -> Scene {
        for t in mesh.triangles() {
            assert!(
                (t.material as usize) < materials.len(),
                "triangle references material {} but only {} exist",
                t.material,
                materials.len()
            );
        }
        Scene { kind, mesh, materials, camera, sky_emission }
    }

    /// Which benchmark this scene is.
    pub fn kind(&self) -> SceneKind {
        self.kind
    }

    /// The scene's triangles.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The material table.
    pub fn materials(&self) -> &[Material] {
        &self.materials
    }

    /// Material of a given triangle.
    pub fn material_of(&self, tri_index: usize) -> &Material {
        &self.materials[self.mesh.triangles()[tri_index].material as usize]
    }

    /// The camera the benchmark renders from.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Sky radiance seen by escaping rays.
    pub fn sky_emission(&self) -> f32 {
        self.sky_emission
    }

    /// World bounds of the geometry.
    pub fn bounds(&self) -> Aabb {
        self.mesh.bounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenes_build_small() {
        for kind in SceneKind::ALL {
            let scene = kind.build_with_tris(1_000);
            assert!(
                scene.mesh().len() >= 500 && scene.mesh().len() <= 2_000,
                "{kind}: got {} triangles for a 1000 target",
                scene.mesh().len()
            );
            assert!(!scene.materials().is_empty());
            assert!(!scene.bounds().is_empty());
        }
    }

    #[test]
    fn triangle_counts_scale_with_target() {
        for kind in SceneKind::ALL {
            let small = kind.build_with_tris(1_000).mesh().len();
            let large = kind.build_with_tris(8_000).mesh().len();
            assert!(large > small * 4, "{kind}: {small} -> {large}");
        }
    }

    #[test]
    fn material_references_are_valid() {
        for kind in SceneKind::ALL {
            let scene = kind.build_with_tris(2_000);
            for (i, t) in scene.mesh().triangles().iter().enumerate() {
                assert!((t.material as usize) < scene.materials().len());
                let _ = scene.material_of(i);
            }
        }
    }

    #[test]
    fn indoor_scene_has_emissive_ceiling_outdoor_has_sky() {
        let conf = SceneKind::Conference.build_with_tris(1_000);
        assert_eq!(conf.sky_emission(), 0.0, "conference is closed");
        assert!(conf.materials().iter().any(|m| m.emission > 0.0), "conference needs area lights");
        let fairy = SceneKind::FairyForest.build_with_tris(1_000);
        assert!(fairy.sky_emission() > 0.0, "fairy forest is open air");
    }

    #[test]
    fn camera_is_inside_or_near_bounds() {
        for kind in SceneKind::ALL {
            let scene = kind.build_with_tris(1_000);
            let slack = scene.bounds().expanded(scene.bounds().extent().max_component());
            assert!(
                slack.contains(scene.camera().position()),
                "{kind}: camera too far from the scene"
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = SceneKind::Plants.build_with_tris(1_500);
        let b = SceneKind::Plants.build_with_tris(1_500);
        assert_eq!(a.mesh().len(), b.mesh().len());
        assert_eq!(a.mesh().triangles()[7], b.mesh().triangles()[7]);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(SceneKind::Conference.to_string(), "conference room");
        assert_eq!(SceneKind::CrytekSponza.to_string(), "crytek sponza");
    }
}
