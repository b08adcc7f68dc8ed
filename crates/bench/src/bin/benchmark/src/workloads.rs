//! The five workloads: fixed grids of simulation cells, each chosen to load
//! a different layer of the simulator. Scales are constants — the benchmark
//! has no knobs besides the seed.
//!
//! Every cell traces the ray count the simulator serves by default
//! (`Scale::default()`, 24000 rays per bounce), so even the 1536–1856
//! resident lanes of a full-occupancy cell see more than a dozen waves and
//! the special units run in steady state rather than in start-up and
//! drain. To fit a run, the grids shrink instead: few scenes and only the
//! first two bounces, the coherent primary rays and the first incoherent
//! secondary ones.

use drs_harness::{ChipConfig, JobSet, Method, Scale, SimJob, WorkloadSpec};
use drs_scene::SceneKind;

/// How big a workload's inputs are: the benchmark always runs `Full`; the
/// smoke tests run the same grids at `Tiny` so they finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The simulator's served scale, `Scale::default()`.
    Full,
    /// About 200 rays and 2000 triangles per scene.
    #[cfg(test)]
    Tiny,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layer it loads that the others don't.
    pub why: &'static str,
    methods: &'static [Method],
    scenes: &'static [SceneKind],
    /// The bounces simulated; the capture goes as deep as the last one.
    bounces: &'static [usize],
    warps_scale: f64,
    /// Full-chip mode with this many SMs.
    sms: Option<usize>,
    /// Attach a `ResultStore` to the timed grid.
    pub store: bool,
}

/// The paper's DRS configuration: one backup row, six swap buffers.
const DRS: Method = Method::Drs { backup_rows: 1, swap_buffers: 6, extra_bank: false };
/// A closed indoor scene and an open outdoor one.
const TWO_SCENES: [SceneKind; 2] = [SceneKind::Conference, SceneKind::FairyForest];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "aila",
        why: "Aila kernel with NullSpecial on all four scenes: engine and cache model only, so a \
              special-unit change must leave it unchanged",
        methods: &[Method::Aila],
        scenes: &SceneKind::ALL,
        bounces: &[1, 2],
        warps_scale: 1.0,
        sms: None,
        store: false,
    },
    Workload {
        name: "drs",
        why: "DRS(M=1,B=6) at 58 warps on all four scenes: the most time in the swap engine's \
              tick and rdctrl issue",
        methods: &[DRS],
        scenes: &SceneKind::ALL,
        bounces: &[1, 2],
        warps_scale: 1.0,
        sms: None,
        store: false,
    },
    Workload {
        name: "sparse",
        why: "Aila and DRS at a quarter of the warps: memory-latency bound, so the fast path's \
              cycle skipping matters",
        methods: &[Method::Aila, DRS],
        scenes: &TWO_SCENES,
        bounces: &[1, 2],
        warps_scale: 0.25,
        sms: None,
        store: false,
    },
    Workload {
        name: "compare",
        why: "Aila/DMK/TBC/DRS on secondary rays: the only DMK and TBC cells, with a result \
              store on the timed path",
        methods: &[Method::Aila, Method::Dmk, Method::Tbc, DRS],
        scenes: &TWO_SCENES,
        bounces: &[2],
        warps_scale: 1.0,
        sms: None,
        store: true,
    },
    Workload {
        name: "chip",
        why: "Two SMs over one shared L2/MSHR/DRAM with the window barrier and two chip threads",
        methods: &[Method::Aila, DRS],
        scenes: &TWO_SCENES,
        bounces: &[1, 2],
        warps_scale: 1.0,
        sms: Some(2),
        store: false,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// The shared-memory chip every cell runs on, if this is a chip workload.
    pub fn chip(&self) -> Option<ChipConfig> {
        self.sms.map(ChipConfig::gtx780)
    }

    /// Chip threads inside each cell: two for the chip workload (the machine
    /// has two cores), otherwise one.
    pub fn chip_threads(&self) -> usize {
        if self.sms.is_some() {
            2
        } else {
            1
        }
    }

    /// The grid, scene-major then method then bounce, with every scene's
    /// capture seeded by `seed`.
    pub fn jobs(&self, seed: u64, size: Size) -> JobSet {
        let scale = match size {
            Size::Full => Scale { warps_scale: self.warps_scale, ..Scale::default() },
            // `Scale::tris` floors the budget at 2000 triangles.
            #[cfg(test)]
            Size::Tiny => Scale { rays: 200, tris_scale: 0.0, warps_scale: self.warps_scale },
        };
        let depth = *self.bounces.iter().max().expect("a workload simulates some bounce");
        let mut set = JobSet::new(self.name);
        for &scene in self.scenes {
            let workload = WorkloadSpec { seed, ..WorkloadSpec::standard(scene, &scale, depth) };
            for &method in self.methods {
                for &bounce in self.bounces {
                    set.push(SimJob {
                        workload,
                        bounce,
                        method,
                        warps: scale.warps(method.paper_warps()),
                        chip: self.chip(),
                    });
                }
            }
        }
        set
    }
}
