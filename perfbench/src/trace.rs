//! In-memory spans recorded around each call into a layer, and the self
//! time of each layer: its span minus the part its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span covers, e.g. `service.step_period`.
    pub name: &'static str,
    /// Boundary or trial the span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns.
    pub start: u64,
    /// End, in ns.
    pub end: u64,
    /// `true` for a span reported by the program's own timers rather than
    /// timed by the benchmark.
    pub program: bool,
}

/// Records spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
            program: false,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        if let Some(index) = self.open.pop() {
            self.spans[index].end = end;
            self.last_closed = Some(index);
        }
    }

    /// Records program-measured children of the span closed last: back to
    /// back from its start, one per `(name, ms)` pair.
    pub fn program_children(&mut self, children: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let Some(parent) = self.last_closed else {
            return;
        };
        let (op, mut at) = (self.spans[parent].op, self.spans[parent].start);
        for &(name, ms) in children {
            let end = at + (ms * 1e6) as u64;
            self.spans.push(Span {
                name,
                op,
                parent: Some(parent),
                start: at,
                end,
                program: true,
            });
            at = end;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `index op name parent start_ns end_ns source`.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\top\tname\tparent\tstart_ns\tend_ns\tsource")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let source = if s.program { "program" } else { "bench" };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{source}",
                s.op, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span, in ns: its duration minus the length of the
/// union of its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
            program: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a by 10
            span("c", Some(0), 90, 120), // runs past the parent's end
            span("a.inner", Some(1), 15, 20),
        ];
        // op: 100 − |[10,60) ∪ [90,100)| = 100 − 60.
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
    }

    #[test]
    fn a_span_without_children_is_all_self() {
        assert_eq!(self_times(&[span("x", None, 5, 9)]), vec![4]);
    }

    #[test]
    fn tracer_nests_spans_and_places_program_children() {
        let mut t = Tracer::new(true);
        t.open("op", 7);
        t.open("step", 7);
        t.close();
        t.program_children(&[("apply", 0.0), ("repair", 0.0)]);
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(1), Some(1))
        );
        assert!(s[2].program && s[3].program && !s[1].program);
        assert!(s.iter().all(|x| x.op == 7));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("op", 1);
        t.close();
        t.program_children(&[("x", 1.0)]);
        assert!(t.spans().is_empty());
    }
}
