//! Spans the benchmark records around its own calls into the program:
//! name, start, end and parent, plus the request index and the
//! server's `x-pae-request` id for spans of one request. They are kept
//! in memory and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Index of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The benchmark's request index.
    pub request: Option<u64>,
    /// The server's `x-pae-request` id for that request.
    pub server_request: Option<u64>,
}

/// One thread's span buffer. Disabled tracers record nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty tracer with this one's clock and on/off state, for another
    /// thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.enabled)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. Without a request index of its own it takes its
    /// parent's, so all spans of one request share it.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let request = request.or_else(|| parent.and_then(|p| self.spans[p].request));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            server_request: None,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    pub fn set_server_request(&mut self, id: SpanId, server_request: Option<u64>) {
        if let Some(i) = id {
            self.spans[i].server_request = server_request;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, None);
        let r = f();
        self.end(id);
        r
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: count, p50 duration and p50 self time (µs).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = by_name.entry(s.name).or_default();
            e.0.push((s.end_ns - s.start_ns) as f64 / 1e3);
            e.1.push(self_ns as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, (dur, own))| (name, dur.len(), stats::median(&dur), stats::median(&own)))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"request\":{},\"server_request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                opt(s.server_request),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
            server_request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now(), true);
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // runs past the parent's end
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(t.self_times_ns(), vec![100 - 40 - 10, 30 - 8, 20, 30, 8]);
    }

    #[test]
    fn disabled_tracers_record_nothing_and_absorb_relinks_parents() {
        let mut off = Tracer::new(Instant::now(), false);
        let id = off.begin("x", None, None);
        off.end(id);
        assert_eq!((id, off.len()), (None, 0));

        let mut main = Tracer::new(Instant::now(), true);
        main.leaf("first", None, || ());
        let mut worker = main.fork();
        let p = worker.begin("parent", None, Some(3));
        worker.leaf("child", p, || ());
        worker.end(p);
        main.absorb(worker);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[1].request, Some(3));
        assert_eq!(
            main.spans[2].request,
            Some(3),
            "children inherit the request index"
        );
    }
}
