//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. A disabled tracer records nothing, so the
//! untraced run (the one the end-to-end metrics come from) pays one
//! branch per call site.
//!
//! Span names are `<layer>/<function>`; a layer's time is the sum of the
//! spans under its prefix.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The verdict slot (or set-up rep) this span belongs to.
    pub slot: Option<u32>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of a span opened with [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, slot: Option<u32>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            slot,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            self.spans[id as usize].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// A leaf span around one call.
    pub fn time<R>(&mut self, name: &'static str, slot: Option<u32>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, slot);
        let out = f();
        self.end(id);
        out
    }

    /// Total milliseconds of the spans whose name starts with `prefix`.
    pub fn total_ms(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::ms)
            .sum()
    }

    /// For every top-level span named `root`, the milliseconds its
    /// descendants under `prefix` took — one value per set-up rep or pass.
    pub fn per_root_ms(&self, root: &str, prefix: &str) -> Vec<f64> {
        let mut out = Vec::new();
        let mut inside = false;
        for s in &self.spans {
            if s.parent.is_none() {
                inside = s.name == root;
                if inside {
                    out.push(0.0);
                }
            } else if inside && s.name.starts_with(prefix) {
                *out.last_mut().expect("a root was pushed") += s.ms();
            }
        }
        out
    }

    /// Per span name: count, total ms, and self ms (total minus the part
    /// covered by child spans), in first-seen order.
    pub fn table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p as usize] += s.ms();
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.ms();
            row.3 += s.ms() - child_ms[i];
        }
        rows
    }

    /// All spans as one JSON array of `{name,start_ns,end_ns,parent,slot}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"slot\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.slot)
            );
        }
        out.push_str("]\n");
        out
    }
}
