//! Spans recorded around the benchmark's calls into each layer's public
//! functions, kept in memory, written out at the end of a traced run and
//! reduced to per-layer self time.
//!
//! A span's *layer* is the workspace module its name starts with
//! (`sched.solve` → `sched`). Its *self time* is its duration minus the
//! durations of its direct children. Synthetic spans carry a duration the
//! program itself reported (a report's `wall_time_ms`, an online replay's
//! re-planning total); they sit at the start of their parent.

use mals_util::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the trace epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub request: u64,
    pub synthetic: bool,
    /// Workload-specific mark (an infeasible solve).
    pub flagged: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder for one thread of a traced request stream. Tracers of
/// several threads share one epoch and are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// `false` for an untraced pass over the same code: nothing is recorded.
    enabled: bool,
    request: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: true,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing, for the untraced pass of the same
    /// code that a traced pass runs.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Tags the spans opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested in the current span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let start = self.now();
        let index = self.push(name, start, start, self.stack.last().copied(), false);
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Records a finished root span from `start` to `end` (seconds since
    /// the epoch) and returns its index.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) -> usize {
        self.push(name, start, end, None, false)
    }

    /// Records a child of the current span that lasted `seconds`, as the
    /// program reported it.
    pub fn synthetic(&mut self, name: &'static str, seconds: f64) {
        if !self.enabled {
            return;
        }
        let parent = *self.stack.last().expect("synthetic spans need a parent");
        self.synthetic_in(parent, name, seconds);
    }

    /// Records a synthetic child of span `parent`.
    pub fn synthetic_in(&mut self, parent: usize, name: &'static str, seconds: f64) {
        let start = self.spans[parent].start;
        self.push(name, start, start + seconds.max(0.0), Some(parent), true);
    }

    /// Marks the most recently opened span.
    pub fn flag_last(&mut self) {
        if let Some(span) = self.spans.last_mut() {
            span.flagged = true;
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        synthetic: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request: self.request,
            synthetic,
            flagged: false,
        });
        self.spans.len() - 1
    }

    /// Appends the spans of another tracer (another thread), re-indexing
    /// their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let doc = Json::obj([
                ("name", Json::str(span.name)),
                ("start_us", Json::Num((span.start * 1e6).round())),
                ("end_us", Json::Num((span.end * 1e6).round())),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("request", Json::Num(span.request as f64)),
                ("synthetic", Json::Bool(span.synthetic)),
                ("flagged", Json::Bool(span.flagged)),
            ]);
            out.push_str(&doc.to_compact());
            out.push('\n');
        }
        out
    }
}

/// Per-name and per-layer reductions of a finished trace.
#[derive(Debug, Default)]
pub struct Reduced {
    /// Self seconds per span name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Inclusive seconds per span name.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, usize>,
    /// Self seconds per layer.
    pub layer_s: BTreeMap<&'static str, f64>,
    /// Seconds of the traced wall during which some span was open.
    pub covered_s: f64,
}

impl Reduced {
    pub fn of(spans: &[Span]) -> Self {
        let mut children_s = vec![0.0; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                children_s[parent] += span.duration();
            }
        }
        let mut reduced = Reduced::default();
        for (span, children) in spans.iter().zip(&children_s) {
            let own = (span.duration() - children).max(0.0);
            *reduced.self_s.entry(span.name).or_default() += own;
            *reduced.total_s.entry(span.name).or_default() += span.duration();
            *reduced.count.entry(span.name).or_default() += 1;
            *reduced.layer_s.entry(span.layer()).or_default() += own;
        }
        // Union of the root spans' intervals, across threads.
        let mut roots: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start, s.end))
            .collect();
        roots.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut reach = f64::NEG_INFINITY;
        for (start, end) in roots {
            let from = start.max(reach);
            if end > from {
                reduced.covered_s += end - from;
            }
            reach = reach.max(end);
        }
        reduced
    }

    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn total_of(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn count_of(&self, name: &str) -> usize {
        self.count.get(name).copied().unwrap_or(0)
    }

    pub fn layer_share(&self, layer: &str) -> f64 {
        let all: f64 = self.layer_s.values().sum();
        if all > 0.0 {
            self.layer_s.get(layer).copied().unwrap_or(0.0) / all
        } else {
            0.0
        }
    }

    /// The layer with the most self time.
    pub fn top_layer(&self) -> Option<&'static str> {
        self.layer_s
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(layer, _)| *layer)
    }

    /// Human-readable self-time table, per span name and per layer, with
    /// times divided by `requests`.
    pub fn table(&self, requests: usize) -> Vec<String> {
        let per = 1e3 / requests.max(1) as f64;
        let all: f64 = self.self_s.values().sum();
        let mut lines = vec![format!(
            "  {:<24} {:>12} {:>12} {:>7} {:>8}",
            "span", "self ms/req", "incl ms/req", "share", "calls"
        )];
        let mut names: Vec<_> = self.self_s.iter().collect();
        names.sort_by(|a, b| b.1.total_cmp(a.1));
        for (name, own) in names {
            lines.push(format!(
                "  {:<24} {:>12.3} {:>12.3} {:>6.1}% {:>8}",
                name,
                own * per,
                self.total_of(name) * per,
                100.0 * own / all.max(f64::MIN_POSITIVE),
                self.count_of(name)
            ));
        }
        let mut layers: Vec<_> = self.layer_s.iter().collect();
        layers.sort_by(|a, b| b.1.total_cmp(a.1));
        lines.push(format!(
            "  {:<24} {:>12} {:>7}",
            "layer", "self ms/req", "share"
        ));
        for (layer, own) in layers {
            lines.push(format!(
                "  {:<24} {:>12.3} {:>6.1}%",
                layer,
                own * per,
                100.0 * self.layer_share(layer)
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
            synthetic: false,
            flagged: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_layers_group_by_module() {
        let spans = vec![
            span("service.handle", 0.0, 10.0, None),
            span("sched.solve", 0.0, 6.0, Some(0)),
            span("json.report_tree", 10.0, 12.0, None),
            span("json.report_text", 12.0, 13.0, None),
        ];
        let reduced = Reduced::of(&spans);
        assert_eq!(reduced.self_of("service.handle"), 4.0);
        assert_eq!(reduced.total_of("service.handle"), 10.0);
        assert_eq!(reduced.layer_s["json"], 3.0);
        assert_eq!(reduced.top_layer(), Some("sched"));
        assert_eq!(reduced.covered_s, 13.0);
    }

    #[test]
    fn coverage_is_the_union_of_overlapping_roots() {
        let spans = vec![
            span("campaign.dag", 0.0, 4.0, None),
            span("campaign.dag", 1.0, 3.0, None),
            span("campaign.dag", 5.0, 6.0, None),
        ];
        assert_eq!(Reduced::of(&spans).covered_s, 5.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch);
        main.span("a.x", |_| ());
        let mut other = Tracer::new(epoch);
        other.span("b.y", |t| t.synthetic("b.z", 0.0));
        main.absorb(other);
        assert_eq!(main.spans[2].parent, Some(1));
        assert!(main.spans[2].synthetic);
    }
}
