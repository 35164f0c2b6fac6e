//! In-memory spans around calls into a layer's public functions.
//!
//! The harness records one span per call from outside the program; a
//! layer's self time is its span's duration minus the part covered by
//! the spans it caused. Spans are written out once, when the run ends.

use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub workload: &'static str,
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Span recorder for one traced run (single-threaded: the harness calls
/// the layers from one thread).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: &'static str,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            rep: 0,
        }
    }

    /// Tag the spans that follow with a workload and repetition.
    pub fn context(&mut self, workload: &'static str, rep: u32) {
        self.workload = workload;
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            workload: self.workload,
            rep: self.rep,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Close `id`, which must be the innermost open span; returns its
    /// duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = end_ns;
        self.spans[id.0].duration_ns() as f64 * 1e-9
    }

    /// Time `f` under a span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let r = f();
        (r, self.end(id))
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the time its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total self time in seconds per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let own = self.self_times_ns();
        let mut by: std::collections::BTreeMap<&'static str, (u64, usize)> = Default::default();
        for (s, ns) in self.spans.iter().zip(own) {
            let e = by.entry(s.name).or_default();
            e.0 += ns;
            e.1 += 1;
        }
        let mut v: Vec<_> = by
            .into_iter()
            .map(|(k, (ns, n))| (k, ns as f64 * 1e-9, n))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        v
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, (s, own_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own_ns},\
                 \"parent\":{parent},\"workload\":\"{}\",\"rep\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.workload,
                s.rep,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }

    #[cfg(test)]
    fn push_closed(&mut self, name: &'static str, start: u64, end: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            workload: "t",
            rep: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.push_closed("what_if", 0, 100, None);
        t.push_closed("encode", 10, 40, Some(0));
        t.push_closed("probe", 40, 90, Some(0));
        t.push_closed("advance", 50, 80, Some(2));
        assert_eq!(t.self_times_ns(), vec![20, 30, 20, 30]);
        let by = t.self_time_by_name();
        assert_eq!(by.len(), 4);
        assert_eq!(by.iter().map(|r| r.1).sum::<f64>(), 100e-9);
    }

    #[test]
    fn begin_end_nest_and_tag() {
        let mut t = Tracer::new();
        t.context("w", 3);
        let a = t.begin("outer");
        let ((), inner) = t.time("inner", || ());
        let outer = t.end(a);
        assert!(outer >= inner);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].rep, 3);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
