//! In-memory spans recorded by the benchmark around its calls into the
//! program's public API.
//!
//! A span has a name (the layer and call), start and end nanoseconds
//! since a shared epoch, an optional parent span, and an id shared by
//! every span of one session or frame. Each load thread records into
//! its own [`Tracer`]; the buffers are merged and written out once the
//! run ends, so recording costs two clock reads and a push.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `serve.client.send_events`.
    pub name: &'static str,
    /// Start, ns since the tracer epoch.
    pub start: u64,
    /// End, ns since the tracer epoch.
    pub end: u64,
    /// Index of the parent span in the same buffer.
    pub parent: Option<usize>,
    /// Session or frame id shared by related spans.
    pub id: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// No parent: a root span.
    pub fn root() -> Open {
        Open(None)
    }
}

/// A per-thread span buffer; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (ended by [`close`](Self::close)).
    pub fn open(&mut self, name: &'static str, parent: Open, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.0,
            id,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes an open span.
    pub fn close(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Open,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, id);
        let r = f();
        self.close(open);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, by value.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; a child's
/// overhang past its parent counts nothing).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-name totals over a span buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += own;
    }
    out
}

/// Writes spans as tab-separated `index name start end parent id` rows,
/// followed by a per-name totals section.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# index\tname\tstart_ns\tend_ns\tparent\tid")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start, s.end, s.id
        )?;
    }
    writeln!(w, "# name\tcount\ttotal_ns\tself_ns")?;
    for (name, t) in totals(spans) {
        writeln!(w, "# {name}\t{}\t{}\t{}", t.count, t.total_ns, t.self_ns)?;
    }
    w.flush()
}

/// Concatenates per-thread buffers, re-basing parent indices.
pub fn merge(buffers: impl IntoIterator<Item = Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for buf in buffers {
        let base = out.len();
        out.extend(buf.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
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
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("frame", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("predict", 30, 70, Some(0)),
            // Overlaps `predict`: the 60..70 stretch is already covered.
            span("watch", 60, 80, Some(0)),
            span("inner", 35, 45, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20, 10]);
    }

    #[test]
    fn child_overhang_past_the_parent_is_ignored() {
        let spans = [
            span("p", 10, 50, None),
            span("c", 0, 20, Some(0)),
            span("d", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 10);
    }

    #[test]
    fn totals_and_merge_keep_parents_straight() {
        let a = vec![span("frame", 0, 10, None), span("decode", 2, 5, Some(0))];
        let b = vec![span("frame", 20, 40, None), span("decode", 25, 35, Some(0))];
        let merged = merge([a, b]);
        assert_eq!(merged[3].parent, Some(2));
        let t = totals(&merged);
        assert_eq!(
            t["frame"],
            NameTotals {
                count: 2,
                total_ns: 30,
                self_ns: 17
            }
        );
        assert_eq!(t["decode"].self_ns, 13);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let root = t.open("x", Open(None), 1);
        t.span("y", root, 1, || ());
        t.close(root);
        assert!(t.spans().is_empty());
    }
}
