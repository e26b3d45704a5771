//! Spans recorded from outside the program, around the public calls into
//! each layer. Spans stay in memory and are written out when the run ends;
//! a layer's self time is its span minus the part its children cover.

use std::io::Write as _;
use std::time::Instant;

use crate::json::Value;

/// One recorded interval. `parent` indexes the span that was open when this
/// one began; spans of one timed unit share `unit_id` (0 is set-up).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub unit_id: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    unit_id: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit_id: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between units (never inside a span).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Spans begun from now on belong to a new unit.
    pub fn next_unit(&mut self) {
        self.unit_id += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit_id: self.unit_id,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else {
            return;
        };
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of each span: its duration minus the durations of its direct
/// children (which nest inside it and do not overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.ns());
        }
    }
    own
}

/// `(name, calls, total ms, self ms)` per span name, in first-seen order.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let own = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => r,
            None => {
                rows.push((s.name, 0, 0.0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.ns() as f64 / 1e6;
        row.3 += own_ns as f64 / 1e6;
    }
    rows
}

/// Write one JSON object per span to `path`, creating its directory.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let own = self_times_ns(spans);
    for (s, own_ns) in spans.iter().zip(own) {
        let line = Value::obj([
            ("name", Value::str(s.name)),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
            ),
            ("unit_id", Value::Num(f64::from(s.unit_id))),
            ("self_ns", Value::Num(own_ns as f64)),
        ]);
        writeln!(out, "{}", line.to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // unit [0,100] holds siblings a [10,30] and b [40,90]; b holds c [50,60].
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn by_name_aggregates_calls() {
        const MS: u64 = 1_000_000;
        let spans = vec![
            span("tick", 0, 10 * MS, None),
            span("refresh", 2 * MS, 8 * MS, Some(0)),
            span("tick", 10 * MS, 30 * MS, None),
            span("refresh", 12 * MS, 20 * MS, Some(2)),
        ];
        let rows = by_name(&spans);
        assert_eq!(rows[0], ("tick", 2, 30.0, 16.0));
        assert_eq!(rows[1], ("refresh", 2, 14.0, 14.0));
    }

    #[test]
    fn tracer_records_nesting_and_is_silent_when_off() {
        let mut tr = Tracer::new(true);
        tr.next_unit();
        let outer = tr.begin("outer");
        tr.span("inner", || ());
        tr.end(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].unit_id, 1);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        assert_eq!(tr.ms_of("inner").len(), 1);

        tr.set_on(false);
        tr.span("ignored", || ());
        assert_eq!(tr.spans().len(), 2);
    }
}
