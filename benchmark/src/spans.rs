//! The traced run's span recorder: spans opened by the benchmark's own
//! code around every call into a layer, kept in memory and written out
//! when the run ends. Times are `gpu_telemetry::span::now_us`, the
//! clock the program's own spans use, so those can be imported under a
//! benchmark span without conversion.

use gpu_telemetry::span::{now_us, SpanKind, SpanRecord};
use serde_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// `None` only for the root.
    pub parent: Option<usize>,
    /// The crate the time is charged to (`bench` for the harness's own
    /// glue between layer calls).
    pub layer: String,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// Handle of an open span; `Tracer::close` takes it back.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run executes the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&mut self, layer: &str, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            layer: layer.to_string(),
            name: name.to_string(),
            start_us: now_us(),
            end_us: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_us = now_us().max(self.spans[id].start_us);
        // Spans close in stack order; tolerate an early return having
        // skipped inner closes.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_us = self.spans[id].end_us;
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(&mut self, layer: &str, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let o = self.open(layer, name);
        let r = f(self);
        self.close(o);
        r
    }

    /// Imports the program's own spans (PR 10 rings) recorded since
    /// `since_us` under the innermost open span, keeping their parent
    /// links. Each is clamped into its parent and, where the program
    /// placed aggregate spans on top of each other (the epoch engine
    /// reports barrier and memory-service time as two synthetic spans
    /// ending together), siblings are laid out one after the other.
    pub fn import(&mut self, records: &[SpanRecord], since_us: u64) {
        if !self.enabled {
            return;
        }
        let Some(&under) = self.stack.last() else {
            return;
        };
        // (id, parent, start, end, record): parent links are rewritten
        // below, the records themselves stay as the program made them.
        let mut recs: Vec<(u64, u64, u64, u64, &SpanRecord)> = records
            .iter()
            .filter(|r| !r.open && r.start_us >= since_us)
            .map(|r| (r.id, r.parent, r.start_us, r.start_us + r.dur_us, r))
            .collect();
        // The executor opens its cache-probe span around the whole
        // computation and the sim span beside it, not inside: a span
        // that lies within a sibling becomes that sibling's child.
        for i in 0..recs.len() {
            let (id, parent, start, end, _) = recs[i];
            let container = recs
                .iter()
                .filter(|c| c.1 == parent && c.0 != id && c.2 <= start && end <= c.3)
                .filter(|c| (c.2, c.3) != (start, end) || c.0 < id)
                .min_by_key(|c| (c.3 - c.2, c.0))
                .map(|c| c.0);
            if let Some(c) = container {
                recs[i].1 = c;
            }
        }
        let known = |id: u64| recs.iter().any(|r| r.0 == id);
        // Top-down: (record id whose children to place, local parent,
        // interval the children must stay inside).
        let under_lo = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(under))
            .map(|s| s.end_us)
            .fold(self.spans[under].start_us, u64::max);
        let mut todo: Vec<(Option<u64>, usize, u64, u64)> = vec![(None, under, under_lo, now_us())];
        while let Some((of, parent, lo, hi)) = todo.pop() {
            let mut group: Vec<_> = recs
                .iter()
                .filter(|r| match of {
                    Some(id) => r.1 == id,
                    None => !known(r.1),
                })
                .collect();
            // Siblings that still overlap (the epoch engine's aggregate
            // spans) are packed from the right, so one pushed off a
            // later sibling keeps its duration.
            group.sort_by_key(|r| std::cmp::Reverse((r.3, r.0)));
            let mut limit = hi;
            for &&(rid, _, rstart, rend, r) in &group {
                let end = rend.clamp(lo, limit);
                let start = if end < rend {
                    end.saturating_sub(r.dur_us).max(lo)
                } else {
                    rstart.clamp(lo, end)
                };
                limit = start;
                let id = self.spans.len();
                self.spans.push(Span {
                    id,
                    parent: Some(parent),
                    layer: layer_of(r.kind).to_string(),
                    name: format!("{}:{}", r.kind.name(), r.label),
                    start_us: start,
                    end_us: end,
                });
                todo.push((Some(rid), id, start, end));
            }
        }
    }

    /// Appends the spans another thread's tracer recorded under the
    /// innermost open span, clamped into it.
    pub fn adopt(&mut self, other: &[Span]) {
        let Some(&under) = self.stack.last() else {
            return;
        };
        let (lo, hi) = (self.spans[under].start_us, now_us());
        let base = self.spans.len();
        for s in other {
            self.spans.push(Span {
                id: base + s.id,
                parent: Some(s.parent.map_or(under, |p| base + p)),
                start_us: s.start_us.clamp(lo, hi),
                end_us: s.end_us.clamp(lo, hi),
                ..s.clone()
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The crate a program span's time is charged to.
fn layer_of(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Queued | SpanKind::Coalesced => "serve",
        SpanKind::Job | SpanKind::CacheProbe | SpanKind::Persist => "bench",
        SpanKind::Sim | SpanKind::EpochBarrier => "sim",
        SpanKind::MemService => "mem",
    }
}

/// A span's own time: its duration minus the part its children cover.
pub fn self_time_us(spans: &[Span], id: usize) -> u64 {
    let s = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = s.start_us;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (s.end_us - s.start_us).saturating_sub(covered)
}

/// Self time summed per layer, largest first.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for s in spans {
        let t = self_time_us(spans, s.id);
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, total)) => *total += t,
            None => out.push((s.layer.clone(), t)),
        }
    }
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Checks the tree: one root, every other span has an earlier parent
/// and nests inside it, siblings do not overlap, and self times add up
/// to the root's duration.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    if roots != 1 {
        return Err(format!("{roots} roots"));
    }
    for s in spans {
        if s.end_us < s.start_us {
            return Err(format!("span {} ends before it starts", s.id));
        }
        if let Some(p) = s.parent {
            if p >= s.id {
                return Err(format!("span {} has a later parent", s.id));
            }
            let p = &spans[p];
            if s.start_us < p.start_us || s.end_us > p.end_us {
                return Err(format!("span {} ({}) leaves its parent", s.id, s.name));
            }
        }
    }
    let total: u64 = spans.iter().map(|s| self_time_us(spans, s.id)).sum();
    let root = spans
        .iter()
        .find(|s| s.parent.is_none())
        .map_or(0, |r| r.end_us - r.start_us);
    // Overlapping siblings would count an interval twice.
    let raw: u64 = spans
        .iter()
        .map(|s| {
            let kids: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.end_us - c.start_us)
                .sum();
            (s.end_us - s.start_us) as i128 - kids as i128
        })
        .sum::<i128>() as u64;
    if total != root || raw != root {
        return Err(format!(
            "self times sum to {total} us ({raw} us without merging overlaps), root lasts {root} us"
        ));
    }
    Ok(())
}

pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "id": s.id as u64,
                    "parent": s.parent.map(|p| p as u64),
                    "layer": s.layer,
                    "name": s.name,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                    "self_us": self_time_us(spans, s.id),
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            layer: layer.to_string(),
            name: format!("s{id}"),
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "sim", 10, 60),
            span(2, Some(1), "mem", 20, 30),
            span(3, Some(0), "core", 60, 90),
        ];
        assert_eq!(self_time_us(&spans, 0), 20);
        assert_eq!(self_time_us(&spans, 1), 40);
        check_tree(&spans).unwrap();
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer[0], ("sim".to_string(), 40));
        assert_eq!(by_layer.iter().map(|(_, t)| t).sum::<u64>(), 100);
    }

    #[test]
    fn check_tree_rejects_escapes_and_overlaps() {
        let escape = vec![
            span(0, None, "bench", 0, 10),
            span(1, Some(0), "sim", 5, 12),
        ];
        assert!(check_tree(&escape).is_err());
        let overlap = vec![
            span(0, None, "bench", 0, 10),
            span(1, Some(0), "sim", 1, 6),
            span(2, Some(0), "mem", 4, 9),
        ];
        assert!(check_tree(&overlap).is_err());
        let two_roots = vec![span(0, None, "bench", 0, 10), span(1, None, "sim", 0, 1)];
        assert!(check_tree(&two_roots).is_err());
    }

    #[test]
    fn recorded_and_imported_spans_form_a_tree() {
        let mut t = Tracer::new(true);
        let root = t.open("bench", "workload");
        let since = now_us();
        let inner = t.open("sim", "run.full");
        std::thread::sleep(std::time::Duration::from_millis(2));
        // Two aggregate spans the way the epoch engine emits them:
        // both end "now" and overlap.
        let end = now_us();
        let rec = |id, kind, dur| SpanRecord {
            job: 1,
            id,
            parent: 0,
            kind,
            label: "x".to_string(),
            start_us: end - dur,
            dur_us: dur,
            open: false,
            ok: true,
            detail: String::new(),
        };
        t.import(
            &[
                rec(7, SpanKind::EpochBarrier, 900),
                rec(8, SpanKind::MemService, 700),
            ],
            since,
        );
        t.close(inner);
        t.close(root);
        check_tree(t.spans()).unwrap();
        assert_eq!(t.spans().len(), 4);
        let Value::Array(rendered) = spans_to_json(t.spans()) else {
            panic!("not an array")
        };
        assert_eq!(rendered.len(), 4);
        assert!(rendered[0].get("self_us").is_some());

        let mut off = Tracer::new(false);
        let o = off.open("sim", "x");
        off.close(o);
        assert!(off.spans().is_empty());
    }
}
