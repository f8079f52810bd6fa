//! Spans recorded by the benchmark around its own calls into the
//! simulator's layers.
//!
//! Workload loops are generic over [`Recorder`]: the untraced run uses
//! [`Off`], whose methods compile to nothing, and the traced run uses
//! [`Spans`]. Spans live in memory and are written out when the run
//! ends. Every span feeds the per-name totals; only the first
//! [`Spans::KEEP`] are kept individually, so a long run's memory stays
//! bounded.

use std::fmt::Write as _;
use std::time::Instant;

/// Receives span boundaries from a workload loop.
pub trait Recorder {
    /// Opens a span named `name` inside the innermost open span.
    fn begin(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn end(&mut self);
    /// Starts a new request: the spans opened until [`Recorder::end_request`]
    /// carry its id.
    fn next_request(&mut self);
    /// Ends the current request: later spans carry request id 0.
    fn end_request(&mut self);
}

/// The untraced run's recorder.
pub struct Off;

impl Recorder for Off {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn end(&mut self) {}
    #[inline(always)]
    fn next_request(&mut self) {}
    #[inline(always)]
    fn end_request(&mut self) {}
}

/// One closed span. Times are ns since the recorder was created;
/// `parent` is 0 for a root span and `request` 0 outside any request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy)]
pub struct Total {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Total {
    /// Mean duration per span, in ns.
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

struct Open {
    slot: Option<usize>,
    id: u32,
    total: usize,
    start_ns: u64,
    child_ns: u64,
}

/// The traced run's recorder.
pub struct Spans {
    epoch: Instant,
    kept: Vec<Span>,
    totals: Vec<Total>,
    open: Vec<Open>,
    next_id: u32,
    requests: u64,
    request: u64,
}

impl Spans {
    /// Spans kept individually; later ones only feed the totals.
    pub const KEEP: usize = 1 << 16;

    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            kept: Vec::with_capacity(Self::KEEP),
            totals: Vec::new(),
            open: Vec::with_capacity(8),
            next_id: 1,
            requests: 0,
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Totals of the spans named `name`, if any closed.
    pub fn total(&self, name: &str) -> Option<Total> {
        self.totals.iter().find(|t| t.name == name).copied()
    }

    /// Mean ns per span named `name`; 0 if none closed.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.total(name).map_or(0.0, |t| t.mean_ns())
    }

    /// Every span closed so far, kept or not.
    pub fn closed(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    /// The kept spans and per-name totals as two JSON arrays, for the
    /// trace file.
    pub fn to_json(&self) -> (String, String) {
        let mut spans = String::from("[");
        for (i, s) in self.kept.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                spans,
                "{sep}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
            );
        }
        spans.push_str("\n]");
        let mut totals = String::from("[");
        for (i, t) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                totals,
                "{sep}\n{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"mean_ns\":{:.3}}}",
                t.name,
                t.count,
                t.total_ns,
                t.self_ns,
                t.mean_ns()
            );
        }
        totals.push_str("\n]");
        (spans, totals)
    }
}

impl Recorder for Spans {
    fn begin(&mut self, name: &'static str) {
        let total = match self.totals.iter().position(|t| t.name == name) {
            Some(i) => i,
            None => {
                self.totals.push(Total {
                    name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                self.totals.len() - 1
            }
        };
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.open.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        let slot = (self.kept.len() < Self::KEEP).then(|| {
            self.kept.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
                request: self.request,
            });
            self.kept.len() - 1
        });
        self.open.push(Open {
            slot,
            id,
            total,
            start_ns,
            child_ns: 0,
        });
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("end() matches a begin()");
        let dur = end_ns - open.start_ns;
        let t = &mut self.totals[open.total];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(slot) = open.slot {
            self.kept[slot].end_ns = end_ns;
        }
    }

    fn next_request(&mut self) {
        self.requests += 1;
        self.request = self.requests;
    }

    fn end_request(&mut self) {
        self.request = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.next_request();
        s.begin("outer");
        s.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end();
        s.end();
        s.end_request();
        s.begin("after");
        s.end();
        let outer = s.total("outer").unwrap();
        let inner = s.total("inner").unwrap();
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns < inner.total_ns);
        assert_eq!(s.kept[1].parent, s.kept[0].id);
        assert_eq!(s.kept[1].request, 1);
        assert_eq!(s.kept[2].request, 0);
        assert_eq!(s.closed(), 3);
    }
}
