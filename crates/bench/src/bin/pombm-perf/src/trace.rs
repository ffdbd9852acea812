//! Spans recorded around the benchmark's calls into each layer.
//!
//! Spans stay in memory and are written out as JSONL when the run ends.
//! A span's *self time* is its duration minus the part of its interval its
//! children cover; children on other threads (sweep shards) overlap each
//! other, so coverage is the length of the union of their intervals.

use crate::clock::now_ns;
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One traced call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span whose interval caused this one.
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `privacy.report_batch`.
    pub name: String,
    /// Start on the process clock.
    pub start_ns: u64,
    /// End on the process clock.
    pub end_ns: u64,
    /// The timed unit the span belongs to, e.g. `sweep/3`.
    pub unit: String,
    /// Items the call processed (reports, frames, tasks), or calls folded.
    pub count: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
#[derive(Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
}

impl Recorder {
    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    fn next_id(&self) -> u64 {
        // Ids only need to be unique; they publish no other data.
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a span around `f`, which receives the new span's id so it
    /// can parent the spans of its own calls.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        name: &str,
        unit: &str,
        count: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        self.span_n(parent, name, unit, |id| (f(id), count))
    }

    /// [`Recorder::span`] for a call whose item count is known only after
    /// it returns: `f` returns the result and the count.
    pub fn span_n<T>(
        &self,
        parent: Option<u64>,
        name: &str,
        unit: &str,
        f: impl FnOnce(u64) -> (T, u64),
    ) -> T {
        let id = self.next_id();
        let start_ns = now_ns();
        let (out, count) = f(id);
        let end_ns = now_ns();
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            unit: unit.to_string(),
            count,
        });
        out
    }

    /// Records each operation of `fold` as one child span of `parent`. The
    /// folded spans are laid end to end from `start_ns`: each lasts the
    /// summed time of its calls, which all ran inside the parent, so the
    /// layout never leaves the parent's interval.
    pub fn fold(&self, parent: u64, unit: &str, start_ns: u64, fold: Fold) {
        let mut at = start_ns;
        for (name, (ns, count)) in fold.ops {
            self.push(Span {
                id: self.next_id(),
                parent: Some(parent),
                name: name.to_string(),
                start_ns: at,
                end_ns: at + ns,
                unit: unit.to_string(),
                count,
            });
            at += ns;
        }
    }

    /// The recorded spans, ordered by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("no thread panics while holding the span list");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-event calls accumulated into one total per operation, so a replay
/// of thousands of events costs two clock reads per call and one span per
/// operation instead of one span per call.
#[derive(Default)]
pub struct Fold {
    ops: BTreeMap<&'static str, (u64, u64)>,
}

impl Fold {
    /// Times `f` as `count` items of operation `name`.
    pub fn time<T>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let out = f();
        let ns = now_ns() - start;
        let entry = self.ops.entry(name).or_insert((0, 0));
        entry.0 += ns;
        entry.1 += count;
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span, keyed by id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.duration() - covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Wall time during which at least one layer span was open, over the
/// trees under the spans named in `roots`; a layer span is any span not
/// named in `driver`. On one thread this is the sum of the layers' self
/// times. Sweep shards run layers on two threads at once, and there it is
/// the time at least one of them was inside a layer.
pub fn layer_wall_ns(spans: &[Span], roots: &[&str], driver: &[&str]) -> u64 {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let under_a_root = |mut id: u64| {
        while let Some(parent) = by_id[&id].parent {
            id = parent;
        }
        roots.contains(&by_id[&id].name.as_str())
    };
    let layers = spans
        .iter()
        .filter(|s| !driver.contains(&s.name.as_str()) && under_a_root(s.id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered(0, u64::MAX, layers)
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Summed self time.
    pub self_ns: u64,
    /// Summed duration, children included.
    pub dur_ns: u64,
    /// Summed item count.
    pub count: u64,
    /// Number of spans.
    pub spans: u64,
}

/// Per span name, the totals of its spans.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name.clone()).or_default();
        t.self_ns += selfs[&s.id];
        t.dur_ns += s.duration();
        t.count += s.count;
        t.spans += 1;
    }
    out
}

/// Writes one JSON object per span, in id order.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let line = Value::Object(vec![
            ("id".into(), Value::UInt(s.id)),
            ("parent".into(), s.parent.map_or(Value::Null, Value::UInt)),
            ("name".into(), Value::Str(s.name.clone())),
            ("start_ns".into(), Value::UInt(s.start_ns)),
            ("end_ns".into(), Value::UInt(s.end_ns)),
            ("unit".into(), Value::Str(s.unit.clone())),
            ("count".into(), Value::UInt(s.count)),
        ]);
        let text = serde_json::to_string(&line).map_err(|e| e.to_string())?;
        writeln!(out, "{text}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            unit: "u/1".into(),
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 40, 70),
            span(4, Some(3), 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn parallel_children_are_covered_once() {
        // Two shards on two threads overlap in [20, 80): the parent waited
        // for the union [10, 90), not for the sum of both.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 80),
            span(3, Some(1), 20, 90),
        ];
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, None, 10, 20), span(2, Some(1), 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn layer_wall_time_is_the_union_of_layer_spans_under_the_roots() {
        let named = |id, parent, name: &str, start_ns, end_ns| Span {
            name: name.into(),
            ..span(id, parent, start_ns, end_ns)
        };
        let spans = [
            named(1, None, "root", 0, 100),
            // Two shards (driver) running layers in [10, 50) and [30, 60).
            named(2, Some(1), "shard", 5, 70),
            named(3, Some(1), "shard", 5, 90),
            named(4, Some(2), "layer.a", 10, 50),
            named(5, Some(3), "layer.b", 30, 60),
            // A layer nested in a layer counts once.
            named(6, Some(5), "layer.c", 40, 45),
            named(7, Some(1), "layer.d", 80, 85),
            // Outside every root tree: not counted.
            named(8, None, "elsewhere", 100, 200),
        ];
        assert_eq!(layer_wall_ns(&spans, &["root"], &["root", "shard"]), 55);
        assert_eq!(layer_wall_ns(&spans, &["other"], &["root", "shard"]), 0);
    }

    #[test]
    fn folded_operations_lie_end_to_end_inside_the_parent() {
        let rec = Recorder::default();
        let mut fold = Fold::default();
        fold.ops.insert("a", (30, 3));
        fold.ops.insert("b", (20, 2));
        rec.fold(7, "u/1", 100, fold);
        let spans = rec.into_spans();
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.name.as_str(), s.start_ns, s.end_ns, s.count))
                .collect::<Vec<_>>(),
            [("a", 100, 130, 3), ("b", 130, 150, 2)]
        );
        let mut all = vec![span(7, None, 90, 200)];
        all.extend(spans);
        assert_eq!(self_times(&all)[&7], 60);
        let a = by_name(&all)["a"];
        assert_eq!((a.self_ns, a.dur_ns, a.count, a.spans), (30, 30, 3, 1));
        assert_eq!(by_name(&all)["s7"].dur_ns, 110);
    }
}
