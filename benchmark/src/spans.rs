//! Spans of the traced run: recorded in memory around the calls the
//! benchmark makes into each layer, written out as JSON lines when the run
//! ends. Spans *inside* the program are a later change; these are taken
//! from outside, at the public functions.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `req`; `parent` is the id
/// of the span that caused this one (0 for a root).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span sink. Ids start at 1 and are the position in the
/// list plus one, so a parent is found by index.
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn with_capacity(capacity: usize) -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the sink was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: u32,
        name: &'static str,
        req: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.list.len() as u32 + 1;
        self.list.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        parent: u32,
        name: &'static str,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.record(parent, name, req, start, end))
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.list[id as usize - 1]
    }

    pub fn all(&self) -> &[Span] {
        &self.list
    }

    /// One JSON object per line: `id`, `parent`, `name`, `req`, `start_ns`,
    /// `end_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.list {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its children cover. Children may overlap one
/// another (the union counts once) and may stick out of the parent (only
/// the part inside counts).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let parent = &spans[s.parent as usize - 1];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in intervals.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn childless_span_keeps_its_whole_duration() {
        assert_eq!(self_times(&[span(1, 0, 10, 110)]), vec![100]);
    }

    #[test]
    fn nested_children_subtract_at_every_level() {
        // 1 [0,100] ⊃ 2 [10,60] ⊃ 3 [20,30]; 4 [70,90] also under 1.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 2, 20, 30),
            span(4, 1, 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // Children [10,50] and [30,70] cover [10,70] = 60 of 100.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
        // A child contained in a sibling adds nothing.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn child_sticking_out_is_clipped_to_the_parent() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 150, 400),
            span(3, 1, 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 250, 50]);
    }

    #[test]
    fn sink_assigns_ids_by_position_and_times_closures() {
        let mut spans = Spans::with_capacity(4);
        let (value, root) = spans.time(0, "root", 7, || 41 + 1);
        assert_eq!((value, root), (42, 1));
        let child = spans.record(root, "child", 7, 5, 9);
        assert_eq!(child, 2);
        assert_eq!(spans.get(child).parent, root);
        assert_eq!(spans.get(child).duration_ns(), 4);
        assert_eq!(spans.all().len(), 2);
    }
}
