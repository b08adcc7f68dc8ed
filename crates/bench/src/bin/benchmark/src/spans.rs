//! Spans recorded around each layer's public calls, written out as a Chrome
//! trace-event document (`chrome://tracing`, Perfetto). All spans sit on one
//! thread row, so the viewer nests them by time containment:
//! workload → setup → scene → build/BVH/capture/save, and
//! workload → traced grid → cell → engine/special.

use drs_sim::JsonBuf;
use std::time::{Duration, Instant};

struct Span {
    name: String,
    cat: &'static str,
    start: Duration,
    dur: Duration,
}

/// Spans kept in memory until the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans { origin, spans: Vec::new() }
    }

    /// Record `[start, start + dur)` as a span named `name` in category `cat`.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
        dur: Duration,
    ) {
        let start = start.saturating_duration_since(self.origin);
        self.spans.push(Span { name: name.into(), cat, start, dur });
    }

    /// Record the span from `start` until now.
    pub fn since(&mut self, name: impl Into<String>, cat: &'static str, start: Instant) {
        self.record(name, cat, start, start.elapsed());
    }

    /// The Chrome trace-event document, with `process` as the process name.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("traceEvents");
        j.begin_arr();
        j.begin_obj();
        j.kv_str("name", "process_name");
        j.kv_str("ph", "M");
        j.kv_u64("pid", 0);
        j.kv_u64("tid", 0);
        j.key("args");
        j.begin_obj();
        j.kv_str("name", process);
        j.end_obj();
        j.end_obj();
        for s in &self.spans {
            j.begin_obj();
            j.kv_str("name", &s.name);
            j.kv_str("cat", s.cat);
            j.kv_str("ph", "X");
            j.kv_u64("pid", 0);
            j.kv_u64("tid", 0);
            j.kv_f64("ts", s.start.as_secs_f64() * 1e6);
            j.kv_f64("dur", s.dur.as_secs_f64() * 1e6);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}
