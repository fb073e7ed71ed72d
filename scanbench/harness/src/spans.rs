//! In-memory span recording and per-layer self-time accounting.
//!
//! The traced driver wraps every call into a layer's public entry point in
//! a span (name, start, end, parent). Spans stay in memory until the pass
//! ends; [`self_times`] then folds them into per-layer totals, where a
//! layer's self time is its spans' duration minus the part of each span's
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call: `[start, end)` in nanoseconds since the recorder's
/// origin, and the index of the span that was open when it began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Records spans from one thread of control. The state sits behind a mutex
/// only because the query-store wrapper must be `Sync`; the driver runs one
/// worker, so the lock is never contended. A disabled recorder never reads
/// the clock, which is what the untraced passes measure.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle for a span entered with [`Recorder::enter`]; pass it to
/// [`Recorder::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            state: Mutex::new(State::default()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span recorder lock poisoned")
    }

    pub fn enter(&self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.now();
        let mut state = self.state();
        let id = state.spans.len();
        let parent = state.open.last().copied();
        state.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        state.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now();
        let mut state = self.state();
        state.spans[id].end = end;
        let top = state.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    /// The recorded spans, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        let mut state = self.state();
        assert!(state.open.is_empty(), "spans still open");
        std::mem::take(&mut state.spans)
    }
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Fold spans into per-layer call counts, inclusive time and self time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let duration = span.end - span.start;
        let layer = layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.total_ns += duration;
        layer.self_ns += duration - covered_ns(span.start, span.end, kids);
    }
    layers
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
pub fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Share of the root layer's time spent inside the other layers' own code:
/// the sum of every non-root layer's self time over the root's total.
pub fn coverage(layers: &BTreeMap<&'static str, LayerTime>, root: &str) -> f64 {
    let total = layers.get(root).map_or(0, |l| l.total_ns);
    if total == 0 {
        return 0.0;
    }
    let inside: u64 = layers
        .iter()
        .filter(|(name, _)| **name != root)
        .map(|(_, l)| l.self_ns)
        .sum();
    inside as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // root [0,100) > check [10,60) > lookup [20,30), lookup [40,45)
        //              > save [70,90)
        let spans = vec![
            span("scan", 0, 100, None),
            span("check", 10, 60, Some(0)),
            span("lookup", 20, 30, Some(1)),
            span("lookup", 40, 45, Some(1)),
            span("save", 70, 90, Some(0)),
        ];
        let layers = self_times(&spans);
        let get = |name| layers[name];
        assert_eq!(get("scan").self_ns, 100 - 50 - 20);
        assert_eq!(get("check").self_ns, 50 - 15);
        assert_eq!(get("check").total_ns, 50);
        assert_eq!(
            get("lookup"),
            LayerTime {
                calls: 2,
                total_ns: 15,
                self_ns: 15
            }
        );
        // Self times of a properly nested tree partition the root.
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
        assert!((coverage(&layers, "scan") - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut kids = vec![(30, 50), (10, 40), (45, 120), (0, 5)];
        // Clipped to [10, 100): union of [10,40) [30,50) [45,100) = [10,100).
        assert_eq!(covered_ns(10, 100, &mut kids), 90);
        let mut disjoint = vec![(60, 70), (20, 30)];
        assert_eq!(covered_ns(0, 100, &mut disjoint), 20);
        assert_eq!(covered_ns(0, 100, &mut []), 0);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let rec = Recorder::new(true);
        let value = rec.time("outer", || {
            rec.time("inner", || 7) + rec.time("inner", || 1)
        });
        assert_eq!(value, 8);
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(spans[1].start >= spans[0].start && spans[2].end <= spans[0].end);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.time("outer", || rec.time("inner", || 3)), 3);
        assert!(rec.take().is_empty());
    }
}
