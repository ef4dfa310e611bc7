//! An in-memory span recorder for the traced runs.
//!
//! Spans are opened and closed around calls into a layer's public
//! functions from the benchmark's own code; the program itself carries no
//! tracing. Each span has a name, a start, an end, a parent and a weight:
//! a span recorded for one call in `w` (sampling) stands for `w` calls
//! when self times are totalled. Spans stay in memory until
//! [`Tracer::write_csv`] writes them out at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span covers, for the self-time totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Cat {
    /// The benchmark's own code (a rep, a loop around layer calls).
    Harness,
    /// Building the system under test: boot, adapter, fleet build.
    Setup,
    /// A call into a layer's public function.
    Layer,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    /// The function or phase the span covers.
    pub(crate) name: &'static str,
    /// Its category.
    pub(crate) cat: Cat,
    /// Index of the enclosing span, if any.
    pub(crate) parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub(crate) start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub(crate) end_ns: u64,
    /// Calls this span stands for (the sampling period).
    pub(crate) weight: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub(crate) fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The host clock's own cost in nanoseconds: the median gap between two
/// back-to-back [`Instant::now`] calls, which every timed span also
/// carries once.
pub(crate) fn clock_ns() -> f64 {
    let gaps: Vec<f64> = (0..1001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    crate::median(&gaps)
}

/// The recorder.
#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub(crate) fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::close`].
    pub(crate) fn open(&mut self, name: &'static str, cat: Cat) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            cat,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            weight: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub(crate) fn close(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub(crate) fn span<T>(
        &mut self,
        name: &'static str,
        cat: Cat,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.open(name, cat);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records a finished leaf span under the innermost open one, timed by
    /// the caller, standing for `weight` calls.
    pub(crate) fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, weight: u32) {
        let span = Span {
            name,
            cat: Cat::Layer,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            weight,
        };
        self.spans.push(span);
    }

    /// Index of each span's root (parents precede children).
    fn roots(&self) -> Vec<usize> {
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root.push(s.parent.map_or(i, |p| root[p as usize]));
        }
        root
    }

    /// Weighted self time in nanoseconds per category, over the spans
    /// under a root named `"rep"`: each span's duration times its weight,
    /// minus the weighted durations of its children, floored at zero (a
    /// sampled child can over-cover its parent by the sampling error).
    pub(crate) fn rep_self_ns_by_cat(&self) -> BTreeMap<Cat, f64> {
        let root = self.roots();
        let mut child = vec![0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur_ns() as f64 * f64::from(s.weight);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root[i]].name != "rep" {
                continue;
            }
            let own = s.dur_ns() as f64 * f64::from(s.weight) - child[i];
            *out.entry(s.cat).or_insert(0.0) += own.max(0.0);
        }
        out
    }

    /// Writes every span as CSV (`id,parent,name,cat,start_ns,end_ns,
    /// weight`), creating the directory if needed.
    pub(crate) fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,cat,start_ns,end_ns,weight")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{i},{parent},{},{:?},{},{},{}",
                s.name, s.cat, s.start_ns, s.end_ns, s.weight
            )?;
        }
        w.flush()
    }

    /// Writes the spans to `out/<workload>-seed<seed>.csv` under the
    /// benchmark's directory and fills the tracer's own per-layer metrics:
    /// spans per traced rep (those under a root span named `"rep"`), and
    /// self times per category per rep in milliseconds.
    pub(crate) fn finish(&self, out: &mut crate::Outcome, workload: &str, seed: u64, reps: usize) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{workload}-seed{seed}.csv"));
        if let Err(e) = self.write_csv(&path) {
            out.errors.push(format!("writing {}: {e}", path.display()));
        }
        out.fact("trace_file", path.display());
        let reps = reps.max(1) as f64;
        let by_cat = self.rep_self_ns_by_cat();
        let ms = |c: Cat| by_cat.get(&c).copied().unwrap_or(0.0) / 1e6 / reps;
        let in_reps = self
            .roots()
            .iter()
            .filter(|&&r| self.spans[r].name == "rep")
            .count();
        out.metrics.insert("trace.spans", in_reps as f64 / reps);
        out.metrics.insert("self.harness_ms", ms(Cat::Harness));
        out.metrics.insert("self.setup_ms", ms(Cat::Setup));
        out.metrics.insert("self.layer_ms", ms(Cat::Layer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_weighted_children() {
        let mut t = Tracer::new();
        let root = t.open("rep", Cat::Harness);
        let a = t.spans[root as usize].start_ns;
        t.close(root);
        // Rewrite times by hand: root 0..100, one sampled child of 10
        // standing for 5 calls.
        t.spans[0].start_ns = a;
        t.spans[0].end_ns = a + 100;
        t.spans.push(Span {
            name: "child",
            cat: Cat::Layer,
            parent: Some(0),
            start_ns: a + 10,
            end_ns: a + 20,
            weight: 5,
        });
        let by = t.rep_self_ns_by_cat();
        assert_eq!(by[&Cat::Harness], 50.0);
        assert_eq!(by[&Cat::Layer], 50.0);
    }
}
