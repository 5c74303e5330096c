//! In-memory spans for the traced run, plus the ladder arithmetic.
//!
//! Spans are recorded by the benchmark itself around each public call
//! it makes (set-up steps, per-request transport calls). They stay in
//! memory and are written out as JSON lines when the run ends. A span's
//! self time is its duration minus the part of it its children cover.
//!
//! Layers the benchmark can only reach through another call or process
//! (kernel, dispatcher, HTTP, shards) are measured as a ladder instead:
//! the same requests are replayed at each rung, and a rung's self time
//! is the paired difference of per-request medians.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When disabled every call is a no-op returning `None`.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; close it with [`end`](Self::end).
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Close a span opened with [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Record a span from instants the caller already took.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Move another tracer's spans (same origin, e.g. a sender thread's)
    /// into this one, rebasing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of span `id`: its duration minus the union of its
    /// children's intervals (clipped to the parent).
    pub fn self_ns(&self, id: usize) -> u64 {
        let p = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = p.start_ns;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        p.dur_ns() - covered
    }

    /// Share of the time of every span that has children which no
    /// child covers: Σ self ÷ Σ duration over those parents.
    pub fn unaccounted_frac(&self) -> Option<f64> {
        let mut has_kids = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_kids[p] = true;
            }
        }
        let (mut own, mut total) = (0u64, 0u64);
        for (id, s) in self.spans.iter().enumerate() {
            if has_kids[id] {
                own += self.self_ns(id);
                total += s.dur_ns();
            }
        }
        (total > 0).then(|| own as f64 / total as f64)
    }

    /// The spans as JSON lines (`id`, `name`, `start_us`, `end_us`,
    /// `parent`, `request`, `self_us`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{},\"self_us\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.request,
                self.self_ns(id) as f64 / 1e3,
            );
        }
        out
    }
}

/// Ladder self time of an upper rung over a lower one: for each request
/// (paired by index), the median of the upper rung's repeats minus the
/// median of the lower rung's, then the median over requests.
pub fn ladder_self(upper: &[Vec<f64>], lower: &[Vec<f64>]) -> Option<f64> {
    let diffs: Vec<f64> = upper
        .iter()
        .zip(lower)
        .filter_map(|(u, l)| Some(median(u)? - median(l)?))
        .collect();
    median(&diffs)
}

/// Median over requests of each request's median.
pub fn median_of_medians(rung: &[Vec<f64>]) -> Option<f64> {
    let meds: Vec<f64> = rung.iter().filter_map(|r| median(r)).collect();
    median(&meds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ladder_self_is_the_median_of_paired_median_differences() {
        let upper = vec![vec![12.0, 10.0, 11.0], vec![20.0, 21.0, 40.0], vec![5.0]];
        let lower = vec![vec![9.0, 8.0, 7.0], vec![18.0, 18.5, 19.0], vec![1.0]];
        // per request: 11 - 8 = 3, 21 - 18.5 = 2.5, 5 - 1 = 4
        assert_eq!(ladder_self(&upper, &lower), Some(3.0));
        assert_eq!(median_of_medians(&upper), Some(11.0));
        // A rung slower than the one above it yields a negative self time.
        assert_eq!(ladder_self(&lower, &upper), Some(-3.0));
        assert_eq!(ladder_self(&[], &[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = Tracer::new(true, t0);
        let parent = t.record("request", None, 1, at(0), at(100));
        // Two overlapping children cover 10..50, one more covers 60..70,
        // and one sticks out past the parent's end (clipped at 100).
        t.record("a", parent, 1, at(10), at(40));
        t.record("b", parent, 1, at(30), at(50));
        t.record("c", parent, 1, at(60), at(70));
        t.record("d", parent, 1, at(95), at(120));
        assert_eq!(t.self_ns(0), 45_000_000);
        assert!((t.unaccounted_frac().unwrap() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut off = Tracer::new(false, t0);
        assert_eq!(off.begin("x", None, 0), None);
        assert!(off.spans().is_empty());

        let mut main = Tracer::new(true, t0);
        main.record("setup", None, 0, t0, t0);
        let mut thread = Tracer::new(true, t0);
        let p = thread.record("request", None, 7, t0, t0);
        thread.record("http", p, 7, t0, t0);
        main.absorb(thread);
        assert_eq!(main.spans()[2].parent, Some(1));
    }
}
