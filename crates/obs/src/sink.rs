//! Pluggable destinations for trace [`Event`]s.

use std::collections::VecDeque;

use crate::event::Event;

/// A destination for trace events. Sinks receive every event an enabled
/// collector sees, in order.
pub trait EventSink {
    /// Consume one event.
    fn emit(&mut self, ev: &Event);
}

/// Serializes events as JSON Lines — one JSON object per event.
#[derive(Debug, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The JSONL text so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// The individual JSON lines.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.out.lines()
    }

    /// Consume the sink, returning the JSONL text.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, ev: &Event) {
        self.out.push_str(&ev.to_json().render());
        self.out.push('\n');
    }
}

/// Keeps only the last `capacity` events — a flight recorder for
/// post-mortems: when a run ends in `Stuck` or `Nondeterministic`, the
/// buffer holds the moments leading up to the halt without having paid
/// for a full trace.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<Event>,
    dropped: u64,
}

impl RingBufferSink {
    /// A buffer holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            buf: VecDeque::with_capacity(capacity.max(1)),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events fell out of the window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the retained tail as a human-readable post-mortem.
    pub fn post_mortem(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("… {} earlier events dropped\n", self.dropped));
        }
        for ev in &self.buf {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

impl EventSink for RingBufferSink {
    fn emit(&mut self, ev: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*ev);
    }
}

/// Fans every event out to two sinks, in order — e.g. a
/// [`FlameProfiler`](crate::profile::FlameProfiler) plus a
/// [`RingBufferSink`] flight recorder on the same run.
#[derive(Debug)]
pub struct TeeSink<'a> {
    a: &'a mut dyn EventSink,
    b: &'a mut dyn EventSink,
}

impl<'a> TeeSink<'a> {
    /// A tee delivering to `a` first, then `b`.
    pub fn new(a: &'a mut dyn EventSink, b: &'a mut dyn EventSink) -> Self {
        TeeSink { a, b }
    }
}

impl std::fmt::Debug for dyn EventSink + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn EventSink")
    }
}

impl EventSink for TeeSink<'_> {
    fn emit(&mut self, ev: &Event) {
        self.a.emit(ev);
        self.b.emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HaltKind;
    use crate::json::Json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::ChainEnter {
                depth: 0,
                node: 0,
                state: 0,
            },
            Event::Step {
                depth: 0,
                node: 0,
                state: 0,
            },
            Event::AtpEnter {
                depth: 0,
                node: 3,
                fanout: 2,
            },
            Event::ChainExit {
                depth: 0,
                halt: HaltKind::Stuck,
            },
        ]
    }

    #[test]
    fn jsonl_sink_round_trips_through_the_parser() {
        let events = sample_events();
        let mut s = JsonlSink::new();
        for ev in &events {
            s.emit(ev);
        }
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, ev) in lines.iter().zip(&events) {
            let parsed = Json::parse(line).expect("sink output parses");
            assert_eq!(parsed, ev.to_json(), "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn tee_sink_fans_out() {
        let mut jsonl = JsonlSink::new();
        let mut ring = RingBufferSink::new(2);
        let mut tee = TeeSink::new(&mut jsonl, &mut ring);
        for ev in sample_events() {
            tee.emit(&ev);
        }
        assert_eq!(jsonl.as_str().lines().count(), 4);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn ring_buffer_keeps_the_tail() {
        let mut s = RingBufferSink::new(2);
        for ev in sample_events() {
            s.emit(&ev);
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 2);
        let pm = s.post_mortem();
        assert!(pm.starts_with("… 2 earlier events dropped"));
        assert!(pm.contains("< chain: stuck"), "{pm}");
        assert!(!pm.contains("> chain"), "oldest events must be gone: {pm}");
    }
}
