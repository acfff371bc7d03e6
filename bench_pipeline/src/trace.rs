//! In-memory span recorder for the traced run.
//!
//! The staged drivers wrap every call into a layer in a span
//! `{name, start_ns, end_ns, parent, cycle_id}` plus the allocation count
//! the call made (`CountingAlloc` delta at the same boundary). Spans stay
//! in memory until the run ends, then [`Tracer::write_json`] dumps them.
//! A layer's *self* time is its span minus the part of it its child spans
//! cover, so the per-layer table sums to the root span.

use grca_bench::mem::alloc_snapshot;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The cycle (soak), slot (serve) or iteration (batch) the span
    /// belongs to: spans of one unit of work share it.
    pub cycle_id: u32,
    /// Allocations made between entry and exit, children included.
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cycle: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
        }
    }

    pub fn set_cycle(&mut self, cycle: u32) {
        self.cycle = cycle;
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let allocs0 = alloc_snapshot().0;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            cycle_id: self.cycle,
            allocs: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[idx];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.allocs = alloc_snapshot().0 - allocs0;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn summary(&self) -> BTreeMap<&'static str, LayerTotals> {
        summarize(&self.spans)
    }

    /// At the end of a traced run: dump the spans to
    /// `<scratch>/trace-<workload>.json` and print the per-layer table.
    pub fn report(&self, workload: &str) {
        let path = crate::scratch_dir().join(format!("trace-{workload}.json"));
        match self.write_json(&path) {
            Ok(()) => eprintln!(
                "{workload}: {} spans written to {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("{workload}: could not write {}: {e}", path.display()),
        }
        eprint!("{}", render_table(self));
    }

    /// One JSON array of span objects, one per line.
    fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cycle_id\":{},\"allocs\":{}}}{}",
                s.name, s.start_ns, s.end_ns, parent, s.cycle_id, s.allocs, comma
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Per-span self time: duration minus the union of the children's
/// intervals clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

impl LayerTotals {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
    pub fn per_call_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.allocs += s.allocs;
    }
    out
}

/// The per-layer table: every span name with its call count, total and
/// self time, and self time as a share of the traced wall (the root spans'
/// total). Self times partition the roots, so the shares sum to 100 %.
fn render_table(tracer: &Tracer) -> String {
    let root_ns: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let mut out = format!(
        "{:<34} {:>8} {:>12} {:>12} {:>8} {:>12}\n",
        "span", "calls", "total ms", "self ms", "share", "allocs"
    );
    let mut share_sum = 0.0;
    for (name, t) in tracer.summary() {
        let share = t.self_ns as f64 / root_ns.max(1) as f64;
        share_sum += share;
        out.push_str(&format!(
            "{:<34} {:>8} {:>12.2} {:>12.2} {:>7.1}% {:>12}\n",
            name,
            t.count,
            t.total_ms(),
            t.self_ns as f64 / 1e6,
            share * 100.0,
            t.allocs
        ));
    }
    out.push_str(&format!(
        "self shares sum to {:.1}% of the traced {:.1} ms\n",
        share_sum * 100.0,
        root_ns as f64 / 1e6
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cycle_id: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("cycle", 0, 100, None),
            span("ingest", 10, 30, Some(0)),
            span("extract", 30, 70, Some(0)), // adjacent to ingest
            span("pass", 35, 55, Some(2)),    // nested two deep
            span("walk", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 20, 10]);
        let sum = summarize(&spans);
        assert_eq!(sum["cycle"].total_ns, 100);
        assert_eq!(sum["cycle"].self_ns, 30);
        // Self times of a tree sum to its root's duration.
        let total: u64 = sum.values().map(|t| t.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),  // overlaps a
            span("c", 90, 130, Some(0)), // overhangs the parent
        ];
        // Covered: [10,80) ∪ [90,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_stamps_the_cycle() {
        let mut t = Tracer::new();
        t.set_cycle(7);
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(vec![0u8; 64]));
        });
        t.span("sibling", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|x| x.cycle_id == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
