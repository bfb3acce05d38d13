//! Spans recorded by the benchmark around its own calls into each
//! layer. Kept in memory, written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One span: a named interval, the span that caused it, and the
/// operation it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Starts the next operation; spans recorded until the next call
    /// carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Records a child of the open span from durations the program
    /// reported itself (an `UpdateReport`'s step times), laid end to
    /// end from `start_us`. Returns where the last one ended.
    pub fn add_reported(&mut self, start_us: f64, parts: &[(&'static str, f64)]) -> f64 {
        let mut at = start_us;
        for &(name, dur_us) in parts {
            self.spans.push(Span {
                name,
                start_us: at,
                end_us: at + dur_us,
                parent: self.open.last().copied(),
                op: self.op,
            });
            at += dur_us;
        }
        at
    }

    /// When the open span started (for [`Tracer::add_reported`]).
    pub fn open_start_us(&self) -> f64 {
        self.open.last().map_or(0.0, |&id| self.spans[id].start_us)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in milliseconds, of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum::<f64>()
            / 1e3
    }

    /// Summed self time, in milliseconds, of every span named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        let selfs = self_times_us(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum::<f64>()
            / 1e3
    }

    /// One JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"op\":{}}}",
                s.name, s.start_us, s.end_us, s.op
            )?;
        }
        w.flush()
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its child spans cover (children may overlap each other or
/// stick out of the parent; only the covered part is subtracted).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.end_us - s.start_us - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("b", 30.0, 60.0, Some(0)),  // overlaps a
            span("c", 90.0, 120.0, Some(0)), // sticks out of the parent
            span("a.inner", 15.0, 20.0, Some(1)),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 50.0 - 10.0);
        assert_eq!(selfs[1], 30.0 - 5.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[4], 5.0);
    }

    #[test]
    fn spans_nest_and_carry_the_operation() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("op", |t| {
            t.span("verifier.step1", |_| ());
            let start = t.open_start_us();
            t.add_reported(start, &[("x", 5.0), ("y", 7.0)]);
        });
        t.next_op();
        t.span("op", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].start_us, s[2].end_us);
        assert!((s[3].end_us - s[3].start_us - 7.0).abs() < 1e-9);
        assert_eq!((s[0].op, s[4].op), (1, 2));
        assert_eq!(s[4].parent, None);
        assert!(s[0].end_us >= s[1].end_us);
    }
}
