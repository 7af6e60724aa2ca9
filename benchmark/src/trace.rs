//! The span recorder of the traced run. Spans are recorded from this
//! crate's files around the calls into each layer, kept in memory, and
//! written out once at exit. An untraced run carries a disabled tracer,
//! which still times what it is asked to time but records nothing.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work done inside the span (packets, frames, events, …).
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` as a child span of whichever span is open, and returns its
    /// result with the wall time it took in nanoseconds. `f` returns its
    /// result and the span's unit count.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> (R, u64) {
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name,
                start_ns,
                end_ns: start_ns,
                count: 0,
            });
            self.open.push(id);
            id
        });
        let started = Instant::now();
        let (result, count) = f(self);
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(id) = id {
            self.open.pop();
            let span = &mut self.spans[id];
            span.end_ns = span.start_ns + ns;
            span.count = count;
        }
        (result, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"count\": {}}}",
                s.id, parent, s.name, self.workload, s.start_ns, s.end_ns, self.self_ns(s.id), s.count
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w", true);
        t.span("root", |t| {
            t.span("child", |_| {
                (std::thread::sleep(std::time::Duration::from_millis(2)), 3)
            });
            ((), 1)
        });
        let root = &t.spans()[0];
        let child = &t.spans()[1];
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.count, 3);
        assert!(t.self_ns(0) < root.end_ns - root.start_ns);
        assert!(crate::json::parse(&t.to_json()).is_ok());
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new("w", false);
        let (v, _ns) = t.span("x", |_| (5, 0));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
