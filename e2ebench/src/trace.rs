//! In-memory span recording for the traced replay.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! the library's public functions; nothing inside the program is
//! instrumented. Each span carries a name, start, end, its parent span
//! and the window (or frame) it belongs to. Spans stay in memory and
//! are written out once, after the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `decode` or `dsp.process`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The window (deployments) or frame (single AP) being replayed.
    pub window: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Summed duration of the spans of this name that have a parent
    /// with no parent of its own — the layer-level calls directly under
    /// a replayed window.
    pub top_ns: u64,
}

/// Records spans when enabled; when disabled every call is a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    window: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            window: 0,
        }
    }

    /// Tag subsequent spans with this window (or frame) id.
    pub fn set_window(&mut self, window: u64) {
        self.window = window;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before the
    /// matching [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            window: self.window,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.stack.pop().expect("close without a matching open");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let d = s.duration_ns();
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child_ns[i]);
            if s.parent
                .is_some_and(|p| self.spans[p as usize].parent.is_none())
            {
                t.top_ns += d;
            }
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `name start_ns end_ns parent window` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\twindow")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.window
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.open("window");
        t.open("dsp");
        t.span("dsp.process", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        t.close();
        let totals = t.totals();
        let dsp = totals["dsp"];
        let process = totals["dsp.process"];
        assert_eq!(dsp.count, 1);
        assert!(dsp.total_ns >= process.total_ns);
        assert_eq!(dsp.self_ns, dsp.total_ns - process.total_ns);
        assert_eq!(dsp.top_ns, dsp.total_ns, "dsp sits directly under the root");
        assert_eq!(process.top_ns, 0, "dsp.process is nested one level deeper");
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open("window");
        assert_eq!(t.span("decode", || 7), 7);
        t.close();
        assert!(t.spans().is_empty());
    }
}
