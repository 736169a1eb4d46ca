//! A span tracer that renders chrome://tracing trace-event JSON.
//!
//! Devices map to trace "processes" and per-device tracks (a compare
//! lane, a link direction) to "threads". Both are interned to small
//! integer ids in first-use order, which is deterministic because the
//! simulation itself is: the same seed produces the same event order and
//! therefore the same id assignment, byte for byte.
//!
//! Timestamps are simulation nanoseconds rendered as microseconds with a
//! fixed three-decimal suffix (`"{µs}.{ns:03}"`), printed from integer
//! arithmetic only — no floating point, no wall clock.

use crate::metrics::escape_json;
use crate::ring::FlightRing;

/// Default bound on the in-memory trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The chrome trace-event phase of one recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span open (`"B"`).
    Begin,
    /// Span close (`"E"`).
    End,
    /// Point event (`"i"`, thread-scoped).
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event phase.
    pub phase: SpanPhase,
    /// Interned process (device) id.
    pub pid: u32,
    /// Interned track id within the process.
    pub tid: u32,
    /// Span or event name.
    pub name: String,
    /// Simulation timestamp in nanoseconds.
    pub ts_ns: u64,
}

/// Records spans and instants and renders them for chrome://tracing.
pub struct Tracer {
    /// Interned process names; pid = index + 1.
    processes: Vec<String>,
    /// Interned `(pid, track name)` pairs; tid = index + 1.
    tracks: Vec<(u32, String)>,
    events: FlightRing<TraceEvent>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// A tracer whose flight ring retains at most `capacity` events.
    pub(crate) fn new(capacity: usize) -> Tracer {
        Tracer {
            processes: Vec::new(),
            tracks: Vec::new(),
            events: FlightRing::new(capacity),
        }
    }

    fn pid(&mut self, process: &str) -> u32 {
        if let Some(i) = self.processes.iter().position(|p| p == process) {
            return i as u32 + 1;
        }
        self.processes.push(process.to_string());
        self.processes.len() as u32
    }

    fn tid(&mut self, pid: u32, track: &str) -> u32 {
        if let Some(i) = self
            .tracks
            .iter()
            .position(|(p, t)| *p == pid && t == track)
        {
            return i as u32 + 1;
        }
        self.tracks.push((pid, track.to_string()));
        self.tracks.len() as u32
    }

    fn record(&mut self, phase: SpanPhase, process: &str, track: &str, name: &str, ts_ns: u64) {
        let pid = self.pid(process);
        let tid = self.tid(pid, track);
        self.events.push(TraceEvent {
            phase,
            pid,
            tid,
            name: name.to_string(),
            ts_ns,
        });
    }

    /// Opens a span on `process`/`track`.
    pub(crate) fn span_begin(&mut self, process: &str, track: &str, name: &str, ts_ns: u64) {
        self.record(SpanPhase::Begin, process, track, name, ts_ns);
    }

    /// Closes the most recent open span on `process`/`track`.
    pub(crate) fn span_end(&mut self, process: &str, track: &str, name: &str, ts_ns: u64) {
        self.record(SpanPhase::End, process, track, name, ts_ns);
    }

    /// Records a point event on `process`/`track`.
    pub(crate) fn instant(&mut self, process: &str, track: &str, name: &str, ts_ns: u64) {
        self.record(SpanPhase::Instant, process, track, name, ts_ns);
    }

    /// Retained events, oldest first.
    #[cfg(test)]
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// How many events the bounded ring had to evict.
    pub(crate) fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Renders the chrome://tracing trace-event JSON document: metadata
    /// naming every process and track, then the retained events in
    /// recording order.
    pub(crate) fn render_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(&line);
        };
        for (i, process) in self.processes.iter().enumerate() {
            emit(
                format!(
                    "{{\"ph\": \"M\", \"pid\": {}, \"tid\": 0, \"name\": \"process_name\", \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    i + 1,
                    escape_json(process)
                ),
                &mut out,
            );
        }
        for (i, (pid, track)) in self.tracks.iter().enumerate() {
            emit(
                format!(
                    "{{\"ph\": \"M\", \"pid\": {}, \"tid\": {}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    pid,
                    i + 1,
                    escape_json(track)
                ),
                &mut out,
            );
        }
        for event in self.events.iter() {
            let ts = format!("{}.{:03}", event.ts_ns / 1_000, event.ts_ns % 1_000);
            let line = match event.phase {
                SpanPhase::Begin | SpanPhase::End => {
                    let ph = if event.phase == SpanPhase::Begin {
                        "B"
                    } else {
                        "E"
                    };
                    format!(
                        "{{\"ph\": \"{}\", \"pid\": {}, \"tid\": {}, \"ts\": {}, \"name\": \"{}\"}}",
                        ph,
                        event.pid,
                        event.tid,
                        ts,
                        escape_json(&event.name)
                    )
                }
                SpanPhase::Instant => format!(
                    "{{\"ph\": \"i\", \"pid\": {}, \"tid\": {}, \"ts\": {}, \"s\": \"t\", \
                     \"name\": \"{}\"}}",
                    event.pid,
                    event.tid,
                    ts,
                    escape_json(&event.name)
                ),
            };
            emit(line, &mut out);
        }
        out.push_str("\n],\n\"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_interned_in_first_use_order() {
        let mut t = Tracer::new(16);
        t.span_begin("cmp", "lane0", "quarantine", 1_000);
        t.instant("guard", "lane0", "blocked", 2_000);
        t.span_end("cmp", "lane0", "quarantine", 3_000);
        let events: Vec<_> = t.events().collect();
        assert_eq!(events[0].pid, 1);
        assert_eq!(events[1].pid, 2);
        assert_eq!(events[2].pid, 1);
        assert_eq!(events[0].tid, events[2].tid);
        assert_ne!(events[0].tid, events[1].tid);
    }

    #[test]
    fn render_is_valid_shape_and_deterministic() {
        let mut t = Tracer::new(16);
        t.span_begin("cmp", "lane1", "degraded", 1_234_567);
        t.span_end("cmp", "lane1", "degraded", 2_000_000);
        let json = t.render_json();
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"ts\": 1234.567"));
        assert!(json.contains("\"ts\": 2000.000"));
        assert_eq!(json, t.render_json());
    }
}
