//! On-disk ray-stream capture cache.
//!
//! Capturing a workload (build scene, build BVH, path-trace thousands of
//! rays with instrumented traversal) dominates experiment start-up and is
//! identical across every figure that uses the same scene. The cache
//! persists each captured [`BounceStreams`] once, keyed by the workload's
//! content hash — (scene kind, triangle budget, ray budget, capture
//! depth, seed, trace format version) — so a full `experiments all` run
//! captures each scene exactly once *ever*, not once per figure per run.
//!
//! The cache is a codec over the harness's entry store: each entry is
//! `<key>.bin` in trace format v1 ([`BounceStreams::save`]), written
//! atomically under a per-entry lock. An entry the typed
//! [`TraceIoError`] decoder rejects, or whose depth disagrees with the
//! spec, is quarantined and recaptured; a cache can never make a run
//! fail, only make it faster. Growth is bounded on request
//! (`--cache-limit`): the directory becomes a size-bounded LRU.

use crate::entry::{data_dir, Entries, EntryCounters, EntryError};
use crate::job::WorkloadSpec;
use drs_trace::{BounceStreams, TraceIoError};
use std::path::{Path, PathBuf};

/// A directory of serialized bounce streams, safe for concurrent use from
/// the worker pool and from concurrent processes.
#[derive(Debug)]
pub struct StreamCache {
    entries: Entries,
}

impl StreamCache {
    /// A cache rooted at `dir` (created lazily on first store), with no
    /// size bound.
    pub fn new(dir: impl Into<PathBuf>) -> StreamCache {
        StreamCache::with_limit(dir, None)
    }

    /// A cache rooted at `dir`, LRU-bounded to `limit_bytes` total entry
    /// bytes when `Some` (`--cache-limit`). Hits refresh an entry's
    /// mtime; a store that pushes the directory over the budget evicts
    /// least-recently-used entries (never the one just written) until it
    /// fits.
    pub fn with_limit(dir: impl Into<PathBuf>, limit_bytes: Option<u64>) -> StreamCache {
        StreamCache { entries: Entries::new(dir.into(), "bin", limit_bytes) }
    }

    /// The default cache location: `drs-cache/` under `$DRS_DATA_DIR`
    /// (default `target`, relative to the working directory).
    pub fn default_dir() -> PathBuf {
        data_dir().join("drs-cache")
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        self.entries.dir()
    }

    fn key(spec: &WorkloadSpec) -> String {
        format!("{:016x}", spec.content_key())
    }

    /// Cache file for a workload.
    pub fn path_for(&self, spec: &WorkloadSpec) -> PathBuf {
        self.entries.path(&Self::key(spec))
    }

    /// Counters accumulated since construction.
    pub fn counters(&self) -> EntryCounters {
        self.entries.counters()
    }

    /// Load `spec` from the cache, or capture it and populate the cache.
    ///
    /// Decode failures quarantine the entry (it is stale or corrupt — the
    /// key covers the format version, so this mostly means bit rot, a
    /// key collision or a hand-edited file) and fall through to
    /// recapture. Store failures are reported to stderr but never fail
    /// the run.
    pub fn get_or_capture(&self, spec: &WorkloadSpec) -> BounceStreams {
        let cached = self.entries.read(&Self::key(spec), |r| match BounceStreams::load(r) {
            Ok(streams) if streams.depth() != spec.bounces => {
                Err(TraceIoError::Corrupt("cached depth mismatch"))
            }
            loaded => loaded,
        });
        if let Some(streams) = cached {
            return streams;
        }
        let streams = spec.capture();
        if let Err(e) = self.store(spec, &streams) {
            eprintln!("drs-harness: {e}");
        }
        streams
    }

    /// Persist a captured workload.
    ///
    /// # Errors
    ///
    /// Returns the typed [`EntryError`] on any filesystem failure or lock
    /// timeout; the captured streams remain usable and the run continues.
    pub fn store(&self, spec: &WorkloadSpec, streams: &BounceStreams) -> Result<(), EntryError> {
        self.entries.write(&Self::key(spec), |w| streams.save(w))
    }

    /// Chaos hook behind [`FaultKind::CacheCorrupt`](crate::FaultKind):
    /// damage the entry for `spec`, if it exists, so the next read
    /// quarantines and recaptures it. Returns whether an entry was
    /// damaged.
    pub(crate) fn scramble(&self, spec: &WorkloadSpec) -> bool {
        self.entries.scramble(&Self::key(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{fnv1a64, Scale};
    use drs_scene::SceneKind;
    use std::fs;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_cache() -> StreamCache {
        let dir = std::env::temp_dir().join(format!(
            "drs-cache-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        StreamCache::new(dir)
    }

    fn tiny_spec() -> WorkloadSpec {
        let scale = Scale { rays: 120, tris_scale: 0.005, warps_scale: 1.0 };
        WorkloadSpec::standard(SceneKind::Conference, &scale, 2)
    }

    #[test]
    fn miss_then_hit_with_identical_content() {
        let cache = temp_cache();
        let spec = tiny_spec();
        let first = cache.get_or_capture(&spec);
        let cold = EntryCounters { misses: 1, writes: 1, ..Default::default() };
        assert_eq!(cache.counters(), cold);
        let second = cache.get_or_capture(&spec);
        assert_eq!(cache.counters(), EntryCounters { hits: 1, ..cold });
        for b in 1..=spec.bounces {
            assert_eq!(first.bounce(b).scripts, second.bounce(b).scripts);
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entry_bytes_are_pinned() {
        // Caches written by earlier builds must keep being served: any
        // change to these bytes is a trace format change.
        let cache = temp_cache();
        let scale = Scale { rays: 8, tris_scale: 0.002, warps_scale: 1.0 };
        let spec = WorkloadSpec::standard(SceneKind::Conference, &scale, 2);
        cache.get_or_capture(&spec);
        let path = cache.path_for(&spec);
        assert_eq!(path.file_name().unwrap(), "68827f0cb3648b53.bin");
        let bytes = fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], b"1SDR\x01\x00\x02\x00", "magic, format v1, depth 2");
        assert_eq!((bytes.len(), fnv1a64(&bytes)), (3041, 0x8f21_0f0f_959f_7c31));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_recaptured() {
        let cache = temp_cache();
        let spec = tiny_spec();
        let clean = cache.get_or_capture(&spec);
        // Truncate the cached file: the decoder must notice.
        let path = cache.path_for(&spec);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let recaptured = cache.get_or_capture(&spec);
        let c = cache.counters();
        assert_eq!((c.quarantined, c.misses), (1, 2));
        assert_eq!(clean.bounce(1).scripts, recaptured.bounce(1).scripts);
        // The bad entry was replaced by a good one; a scrambled one is
        // caught too.
        let third = cache.get_or_capture(&spec);
        assert_eq!(cache.counters().hits, 1);
        assert_eq!(third.bounce(1).scripts, clean.bounce(1).scripts);
        assert!(cache.scramble(&spec));
        cache.get_or_capture(&spec);
        assert_eq!(cache.counters().quarantined, 2);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn depth_mismatch_is_treated_as_corruption() {
        let cache = temp_cache();
        let spec = tiny_spec();
        let streams = cache.get_or_capture(&spec);
        // Forge an entry under the wrong key: same bytes, different depth.
        let deeper = WorkloadSpec { bounces: 3, ..spec };
        fs::copy(cache.path_for(&spec), cache.path_for(&deeper)).unwrap();
        let recaptured = cache.get_or_capture(&deeper);
        assert_eq!((streams.depth(), recaptured.depth()), (2, 3));
        assert_eq!(cache.counters().quarantined, 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn store_failure_is_counted_and_nonfatal() {
        // Root the cache under a path whose parent is a regular file:
        // every store fails, the capture still succeeds in memory.
        let blocker = temp_cache().dir().to_path_buf();
        fs::write(&blocker, b"not a directory").unwrap();
        let cache = StreamCache::new(blocker.join("sub"));
        let streams = cache.get_or_capture(&tiny_spec());
        assert!(streams.depth() >= 1, "capture still succeeds in memory");
        let c = cache.counters();
        assert_eq!((c.write_failures, c.misses), (1, 1), "failed persist must be counted");
        let _ = fs::remove_file(&blocker);
    }
}
