//! In-memory spans for the traced run.
//!
//! Each timed operation opens a root span carrying its request id; the
//! calls it makes into the system's layers open child spans under it.
//! Spans stay in memory and are written out once, when the run ends,
//! so recording costs a clock read and a push. With recording off
//! every call is a single branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are seconds since the recorder started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    req: u64,
}

/// Per-name totals of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, seconds.
    pub busy: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span named `name`, a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent,
            req: self.req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end = end;
    }

    /// Opens the root span of request `req`.
    pub fn begin_request(&mut self, name: &'static str, req: u64) {
        self.req = req;
        self.begin(name);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Totals per span name, over closed spans.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self.totals_where(|_| true)
    }

    /// Totals per span name over the request spans named `root` and
    /// their direct children.
    pub fn totals_under(&self, root: &str) -> BTreeMap<&'static str, Totals> {
        self.totals_where(|s| match s.parent {
            None => s.name == root,
            Some(p) => self.spans[p].name == root && self.spans[p].parent.is_none(),
        })
    }

    fn totals_where(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !s.end.is_nan() && keep(s)) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy += s.end - s.start;
        }
        out
    }

    /// Share of root-span time covered by their direct children.
    pub fn coverage(&self) -> f64 {
        let mut root = 0.0;
        let mut covered = 0.0;
        for s in &self.spans {
            match s.parent {
                None => root += s.end - s.start,
                Some(p) if self.spans[p].parent.is_none() => covered += s.end - s.start,
                Some(_) => {}
            }
        }
        if root > 0.0 {
            covered / root
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.req
            )?;
        }
        out.flush()
    }
}
