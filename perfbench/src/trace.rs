//! In-memory spans of the traced run and the arithmetic that splits a
//! request's wire latency into per-layer self times.
//!
//! The spans time the benchmark's own calls: the wire round trip
//! (`request`), then an in-process replay of the same request through
//! `Session::query` (`session`), `sql::parse` (`parse`), `optimize`
//! (`optimize`), `execute_with_stats` (`execute`, split into
//! `query_phase` and `sample_phase` from `QueryStats`) or
//! `Database::insert_rows` (`insert`). Replayed children run after their
//! parent rather than inside it, so the part of a parent its children
//! cover is taken as the sum of their durations, capped at the parent's.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Spans of one request share `request`; `parent` is the
/// `id` of the span whose work this one replays or splits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.request, self.id, parent, self.name, self.start_ns, self.end_ns
        )
    }
}

/// Collects the spans of one request against a shared clock origin.
pub struct RequestTrace {
    origin: Instant,
    request: u64,
    pub spans: Vec<Span>,
}

impl RequestTrace {
    pub fn new(origin: Instant, request: u64) -> Self {
        RequestTrace {
            origin,
            request,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span measured between two instants; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (s, e) = (self.ns(start), self.ns(end));
        self.record_ns(name, parent, s, e)
    }

    /// Record a span from raw offsets (phases reported as durations).
    pub fn record_ns(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            request: self.request,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Offset of `t` from the origin, for [`RequestTrace::record_ns`].
    pub fn offset(&self, t: Instant) -> u64 {
        self.ns(t)
    }
}

/// The layer a span's self time is charged to; `None` (the `execute`
/// glue around the two phases) is left to the remainder.
pub fn layer_of(span: &str) -> Option<&'static str> {
    match span {
        "request" => Some("server"),
        "session" => Some("session"),
        "parse" => Some("engine.parse"),
        "optimize" => Some("engine.optimize"),
        "query_phase" => Some("engine.query_phase"),
        "sample_phase" => Some("sampling.sample_phase"),
        "insert" => Some("store.insert"),
        _ => None,
    }
}

/// Self time of every span of one request, in span order: its duration
/// minus the part its children cover (their summed durations, capped at
/// its own duration).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&s.id).copied().unwrap_or(0);
            s.dur_ns() - c.min(s.dur_ns())
        })
        .collect()
}

/// One request's wire latency split into layer self times plus an
/// unattributed remainder; `layers` and `remainder_ns` sum to `wire_ns`
/// exactly. The remainder is negative when replayed children outlast the
/// parent they split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    pub wire_ns: u64,
    pub layers: BTreeMap<&'static str, u64>,
    pub remainder_ns: i64,
}

/// Split one request's spans; the root is the span without a parent.
pub fn split(spans: &[Span]) -> Split {
    let wire_ns = spans
        .iter()
        .find(|s| s.parent.is_none())
        .map_or(0, Span::dur_ns);
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if let Some(layer) = layer_of(s.name) {
            *layers.entry(layer).or_default() += own;
        }
    }
    let attributed: u64 = layers.values().sum();
    Split {
        wire_ns,
        layers,
        remainder_ns: wire_ns as i64 - attributed as i64,
    }
}
