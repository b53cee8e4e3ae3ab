//! The benchmark's own spans: recorded around every call it makes into
//! a layer, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` on the benchmark's clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Enclosing span, or 0 for a root.
    pub parent: u64,
    /// The op this span belongs to; every span of one op shares it.
    pub op: u64,
    /// `<layer>.<call>` (e.g. `store.open`) or `op` for the timed op.
    pub name: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for the client thread. A disabled log
/// records nothing: its calls just run the wrapped code.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    /// Switches recording on or off for the calls that follow.
    pub fn enable(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a new span and returns its result and span id.
    pub fn record<R>(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(op, parent, name);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Opens a span and returns its id (0 when disabled); close it with
    /// [`SpanLog::end`].
    pub fn begin(&mut self, op: u64, parent: u64, name: &'static str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the span `id`.
    pub fn end(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Wall duration of span `id` in milliseconds (0 for id 0).
    #[must_use]
    pub fn ms(&self, id: u64) -> f64 {
        match id {
            0 => 0.0,
            _ => self.spans[id as usize - 1].duration_ns() as f64 / 1e6,
        }
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as newline-delimited JSON, one span per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new(false)
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (two
/// worker threads), so their union is subtracted, not their sum, and
/// any part of a child outside the parent is ignored.
#[must_use]
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    parent.duration_ns() - covered
}

/// Self time of every span in `spans`, in the same order.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|p| {
            let children: Vec<&Span> = spans.iter().filter(|c| c.parent == p.id).collect();
            self_time_ns(p, &children)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "sched.schedule",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let s = span(1, 0, 100, 350);
        assert_eq!(self_time_ns(&s, &[]), 250);
    }

    #[test]
    fn overlapping_children_on_two_workers_count_once() {
        // An op of 100 ns fans out to two workers: worker 1 is busy
        // 10..60 and 70..80, worker 2 is busy 30..90. The children
        // cover 10..90, so the op's own time is 20 ns, although the
        // children's durations sum to 120 ns.
        let op = span(1, 0, 0, 100);
        let w1a = span(2, 1, 10, 60);
        let w1b = span(3, 1, 70, 80);
        let w2 = span(4, 1, 30, 90);
        assert_eq!(self_time_ns(&op, &[&w1a, &w1b, &w2]), 20);
        // Order of the children does not matter.
        assert_eq!(self_time_ns(&op, &[&w2, &w1b, &w1a]), 20);
        let all = [op, w1a, w1b, w2];
        assert_eq!(self_times_ns(&all), vec![20, 50, 10, 60]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent (a worker still unwinding)
        // covers only the parent's part of it.
        let op = span(1, 0, 0, 100);
        let late = span(2, 1, 80, 150);
        let early = span(3, 1, 0, 10);
        assert_eq!(self_time_ns(&op, &[&late, &early]), 70);
        let outside = span(4, 1, 200, 300);
        assert_eq!(self_time_ns(&op, &[&outside]), 100);
    }

    #[test]
    fn disabled_log_only_runs_the_code() {
        let mut log = SpanLog::new(false);
        let op = log.begin(1, 0, "op");
        let (v, id) = log.record(1, op, "api.engine_run", || 7);
        log.end(op);
        assert_eq!((v, op, id), (7, 0, 0));
        assert!(log.spans().is_empty());
        assert_eq!(log.ms(id), 0.0);
    }

    #[test]
    fn nested_log_records_parents_and_durations() {
        let mut log = SpanLog::new(true);
        let op = log.begin(7, 0, "op");
        let ((), child) = log.record(7, op, "api.engine_run", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        log.end(op);
        let spans = log.spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(log.ms(child) >= 2.0);
        let selfs = self_times_ns(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration_ns());
        assert!(log.to_jsonl().lines().count() == 2);
    }
}
