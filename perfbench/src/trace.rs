//! Spans the benchmark records around its own calls into the program's
//! layers. Spans stay in memory and are written out when the run ends;
//! with tracing off, [`Tracer::span`] only calls its closure.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::self_time;

/// One timed call: nanoseconds since the tracer's epoch, the enclosing
/// span (an index into the same span list) and the operation it served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// A per-thread span recorder. Threads share one epoch so their spans
/// line up after [`merge`].
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span of this tracer.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends another tracer's spans, re-basing their parent indices.
pub fn merge(into: &mut Vec<Span>, spans: Vec<Span>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// Totals of all spans sharing one name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals in first-seen order. A span's self time is its
/// duration minus the union of its children's intervals.
pub fn layer_times(spans: &[Span]) -> Vec<LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: Vec<LayerTime> = Vec::new();
    for (s, kids) in spans.iter().zip(&children) {
        let own = self_time((s.start, s.end), kids);
        let row = match out.iter_mut().position(|r| r.name == s.name) {
            Some(i) => &mut out[i],
            None => {
                out.push(LayerTime {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.last_mut().expect("a row was just pushed")
            }
        };
        row.count += 1;
        row.total_ns += s.end - s.start;
        row.self_ns += own;
    }
    out
}

/// Summed duration of the top-level spans: the thread time the layers'
/// self times account for.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum()
}

/// Writes one tab-separated line per span: index, parent (or -), op,
/// name, start and end in nanoseconds.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tparent\top\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        t.span("outer", 8, |_| ());
        let spans = t.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("inner", Some(0), 7),
                ("outer", None, 8)
            ]
        );
        assert!(spans.iter().all(|s| s.start <= s.end));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("outer", 1, |t| t.span("inner", 1, |_| 5)), 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parent_indices() {
        let mut all = vec![span("a", 0, 10, None)];
        merge(
            &mut all,
            vec![span("b", 0, 10, None), span("c", 2, 4, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
    }

    #[test]
    fn layer_self_time_excludes_children_once() {
        // Two overlapping children (as from two threads) under one parent.
        let spans = [
            span("route", 0, 100, None),
            span("compute", 10, 50, Some(0)),
            span("compute", 30, 70, Some(0)),
            span("write", 80, 90, None),
        ];
        let layers = layer_times(&spans);
        let find = |n: &str| layers.iter().find(|l| l.name == n).unwrap().clone();
        assert_eq!(find("route").self_ns, 40);
        assert_eq!(find("compute").self_ns, 80);
        assert_eq!(find("compute").count, 2);
        assert_eq!(find("write").total_ns, 10);
        assert_eq!(root_ns(&spans), 110);
    }
}
