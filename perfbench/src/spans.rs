//! The benchmark's own span tree.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! the program's public functions; nothing inside the program is
//! instrumented by this file. Each span records wall and process-CPU
//! start/end, its parent, and the audit it belongs to. Replayed spans
//! (see `audit.rs`) are timed after the round they belong to, so a
//! child's interval need not lie inside its parent's: self-time is
//! therefore the span's duration minus the *durations* of its children,
//! and the self-times of a tree always add up to its root's duration.

use crate::clock::Stamp;
use std::collections::BTreeMap;
use std::io::Write;

/// Index of a span in its tree.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    audit: Option<u64>,
    start: Stamp,
    end: Option<Stamp>,
}

impl Span {
    /// CPU seconds between open and close (0 while open).
    fn cpu_s(&self) -> f64 {
        self.end.map_or(0.0, |e| e.since(&self.start).cpu_s)
    }

    /// Wall seconds between open and close (0 while open).
    fn wall_s(&self) -> f64 {
        self.end.map_or(0.0, |e| e.since(&self.start).wall_s)
    }
}

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub cpu_s: f64,
    pub self_cpu_s: f64,
    pub wall_s: f64,
}

/// In-memory span tree, written out when the run ends.
pub struct SpanTree {
    origin: Stamp,
    spans: Vec<Span>,
}

impl SpanTree {
    pub fn new() -> Self {
        Self {
            origin: Stamp::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        audit: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            audit,
            start: Stamp::now(),
            end: None,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        let span = &mut self.spans[id];
        assert!(span.end.is_none(), "span {} closed twice", span.name);
        span.end = Some(Stamp::now());
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        audit: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, audit);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Per-span CPU self-time: duration minus the durations of its
    /// direct children.
    fn self_cpu(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::cpu_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.cpu_s();
            }
        }
        own
    }

    /// Totals per span name, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let own = self.self_cpu();
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, self_cpu) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.cpu_s += s.cpu_s();
            t.self_cpu_s += self_cpu;
            t.wall_s += s.wall_s();
        }
        out
    }

    /// Write one JSON object per span: id, name, parent, audit id, wall
    /// start/end (s since the tree was created), CPU start/end (process
    /// CPU s since then), and CPU self-time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_cpu();
        for (id, (s, self_cpu)) in self.spans.iter().zip(own).enumerate() {
            let end = s.end.unwrap_or(s.start);
            let start = s.start.since(&self.origin);
            let stop = end.since(&self.origin);
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"audit\":{},\"start_s\":{:.9},\"end_s\":{:.9},\"cpu_start_s\":{:.9},\"cpu_end_s\":{:.9},\"self_cpu_s\":{:.9}}}",
                s.name,
                opt(s.parent.map(|p| p as u64)),
                opt(s.audit),
                start.wall_s,
                stop.wall_s,
                start.cpu_s,
                stop.cpu_s,
                self_cpu,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burn(n: u64) -> u64 {
        let mut x = 0u64;
        for i in 0..n {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        x
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = SpanTree::new();
        let root = t.open("round", None, None);
        let (_, a) = t.scope("audit", Some(root), Some(0), || burn(200_000));
        t.scope("survey", Some(a), Some(0), || burn(400_000));
        burn(100_000);
        t.close(root);
        let own = t.self_cpu();
        let sum: f64 = own.iter().sum();
        assert!((sum - t.spans[root].cpu_s()).abs() < 1e-12);
        let totals = t.totals();
        assert_eq!(totals["audit"].count, 1);
        assert_eq!(
            totals.keys().copied().collect::<Vec<_>>(),
            ["audit", "round", "survey"]
        );
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_parents() {
        let mut t = SpanTree::new();
        let root = t.open("round", None, None);
        t.scope("audit", Some(root), Some(7), || ());
        t.close(root);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"round\",\"parent\":null,\"audit\":null"));
        assert!(lines[1].contains("\"name\":\"audit\",\"parent\":0,\"audit\":7"));
    }
}
