//! Spans recorded in memory around the benchmark's calls into each
//! layer, the self-time arithmetic over them, and their dump to a file.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Most spans written to the trace file; statistics use all of them.
const MAX_WRITTEN: usize = 100_000;

/// One timed call into a layer. Spans of one operation share `op`;
/// `parent` names the layer whose span caused this one.
pub struct Span {
    pub op: u64,
    pub layer: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        op: u64,
        layer: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            op,
            layer,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    /// Run `f` as one span.
    pub fn time<T>(
        &mut self,
        op: u64,
        layer: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(op, layer, parent, start, Instant::now());
        out
    }

    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Every span duration of `layer`, in microseconds.
    pub fn durations_us(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Per-operation totals of every layer.
    pub fn totals(&self) -> Totals {
        let mut map = HashMap::new();
        for s in &self.spans {
            *map.entry((s.op, s.layer)).or_insert(0.0) += s.dur_ns as f64 / 1e3;
        }
        Totals(map)
    }

    /// Write the spans as tab-separated lines (op, parent, layer, start
    /// and duration in nanoseconds); failures are reported, not fatal.
    pub fn write_tsv(&self, path: &Path) {
        let written = self.spans.len().min(MAX_WRITTEN);
        let result = (|| -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            writeln!(out, "op\tparent\tlayer\tstart_ns\tdur_ns")?;
            for s in &self.spans[..written] {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}",
                    s.op, s.parent, s.layer, s.start_ns, s.dur_ns
                )?;
            }
            out.flush()
        })();
        match result {
            Ok(()) => println!(
                "trace: {written} of {} spans written to {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    }
}

/// Per-operation, per-layer summed span time in microseconds.
pub struct Totals(HashMap<(u64, &'static str), f64>);

impl Totals {
    pub fn get(&self, op: u64, layer: &'static str) -> f64 {
        self.0.get(&(op, layer)).copied().unwrap_or(0.0)
    }

    /// `layer`'s time in `op` minus the time of its `children` in `op`.
    pub fn self_time(&self, op: u64, layer: &'static str, children: &[&'static str]) -> f64 {
        self.get(op, layer) - children.iter().map(|c| self.get(op, c)).sum::<f64>()
    }

    /// [`self_time`](Self::self_time) for every operation in `ops`.
    pub fn self_per_op(
        &self,
        ops: &[u64],
        layer: &'static str,
        children: &[&'static str],
    ) -> Vec<f64> {
        ops.iter()
            .map(|&op| self.self_time(op, layer, children))
            .collect()
    }
}
