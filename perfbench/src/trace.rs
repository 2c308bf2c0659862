//! In-memory span recorder for the traced mode, and the self-time rule.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public functions; nothing inside the crates is instrumented.
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover (children on other threads included, and
//! overlapping children counted once).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    /// The request or trial the span belongs to; shared by every span of
    /// one request or trial.
    pub item: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread. Spans stay in memory until
/// [`Recorder::take`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Whether closed spans are kept; a disabled recorder drops them.
    enabled: bool,
}

/// A span that is still open; [`OpenSpan::end`] records it.
#[derive(Debug)]
pub struct OpenSpan<'r> {
    recorder: &'r Recorder,
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    item: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            enabled: true,
        }
    }

    /// A recorder that keeps nothing, for running traced code untraced.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under `parent`, belonging to `item`.
    pub fn open(&self, name: &'static str, parent: Option<u64>, item: u64) -> OpenSpan<'_> {
        OpenSpan {
            recorder: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns: self.now_ns(),
            parent,
            item,
        }
    }

    /// Time `f` as a span and return its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        item: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let span = self.open(name, parent, item);
        let out = f(span.id);
        span.end();
        out
    }

    /// Remove and return every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder lock poisoned"))
    }
}

impl OpenSpan<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span and record it.
    pub fn end(self) {
        if !self.recorder.enabled {
            return;
        }
        let span = Span {
            id: self.id,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.recorder.now_ns(),
            parent: self.parent,
            item: self.item,
        };
        self.recorder
            .spans
            .lock()
            .expect("span recorder lock poisoned")
            .push(span);
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of every span, keyed by span id: duration minus the union
/// of its children's intervals inside it.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .remove(&span.id)
                .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Fold spans into per-name count, total and self time.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += selfs[&span.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "s",
            start_ns,
            end_ns,
            parent,
            item: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > child [10,60) > grandchild [20,40)
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(2), 20, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 20);
    }

    #[test]
    fn self_time_merges_overlapping_siblings() {
        // two workers' children overlap in [30,50): covered = [10,70)
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 80, 90),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 60 - 10);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_interval() {
        let spans = [span(1, None, 10, 20), span(2, Some(1), 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn recorder_links_parents_and_sums_by_name() {
        let rec = Recorder::new();
        rec.time("outer", None, 7, |outer| {
            rec.time("inner", Some(outer), 7, |_| ());
            rec.time("inner", Some(outer), 7, |_| ());
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        let layers = by_name(&spans);
        assert_eq!(layers["inner"].count, 2);
        assert_eq!(layers["outer"].count, 1);
        assert!(layers["outer"].self_ns <= layers["outer"].total_ns);
        assert!(spans.iter().all(|s| s.item == 7));
        assert!(rec.take().is_empty());
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let rec = Recorder::disabled();
        assert_eq!(rec.time("outer", None, 1, |_| 5), 5);
        assert!(rec.take().is_empty());
    }
}
