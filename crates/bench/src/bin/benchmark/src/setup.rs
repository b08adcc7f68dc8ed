//! Set-up: a cold capture of every distinct scene into a fresh cache
//! directory — the call sequence of `WorkloadSpec::capture` followed by
//! `StreamCache::store`, timed at each call.

use crate::spans::Spans;
use drs_bvh::{BuildParams, Bvh};
use drs_harness::{JobSet, StreamCache};
use drs_trace::BounceStreams;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed set-up.
#[derive(Debug, Default)]
pub struct Setup {
    /// Wall time of the whole set-up (`setup_s`).
    pub total: Duration,
    /// `SceneKind::build_with_tris`.
    pub scene: Duration,
    /// `Bvh::build`.
    pub bvh: Duration,
    /// `BounceStreams::capture_with_bvh`.
    pub capture: Duration,
    /// `StreamCache::store`.
    pub save: Duration,
    /// Rays captured, over every bounce of every scene.
    pub rays: u64,
    /// Bytes of the cache files written.
    pub bytes: u64,
    /// Captured rays per (workload content key, bounce): what a cell over
    /// that stream must complete.
    pub stream_len: HashMap<(u64, usize), u64>,
}

/// Capture every workload of `set` into a cache rooted at `dir`.
pub fn capture_all(set: &JobSet, dir: &Path, spans: &mut Spans) -> std::io::Result<Setup> {
    let cache = StreamCache::new(dir);
    let mut setup = Setup::default();
    let start = Instant::now();
    for spec in set.distinct_workloads() {
        let t0 = Instant::now();
        let scene = spec.scene.build_with_tris(spec.tris);
        let t1 = Instant::now();
        let bvh = Bvh::build(scene.mesh(), &BuildParams::default());
        let t2 = Instant::now();
        let streams =
            BounceStreams::capture_with_bvh(&scene, &bvh, spec.rays, spec.bounces, spec.seed);
        let t3 = Instant::now();
        cache.store(&spec, &streams).map_err(|e| e.source)?;
        let t4 = Instant::now();

        setup.scene += t1 - t0;
        setup.bvh += t2 - t1;
        setup.capture += t3 - t2;
        setup.save += t4 - t3;
        setup.bytes += std::fs::metadata(cache.path_for(&spec))?.len();
        for stream in streams.iter() {
            let len = stream.scripts.len() as u64;
            setup.rays += len;
            setup.stream_len.insert((spec.content_key(), stream.bounce), len);
        }
        spans.record("scene.build", "capture", t0, t1 - t0);
        spans.record("bvh.build", "capture", t1, t2 - t1);
        spans.record("trace.capture", "capture", t2, t3 - t2);
        spans.record("cache.save", "cache", t3, t4 - t3);
        spans.since(spec.scene.to_string(), "setup", t0);
    }
    setup.total = start.elapsed();
    spans.since("setup", "setup", start);
    Ok(setup)
}
