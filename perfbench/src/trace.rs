//! In-memory spans for the traced run, and the stage ledger built from
//! them.
//!
//! A span is one timed call: name, phase of the run, start, end, parent
//! span and request id. Each traced request has three levels:
//!
//! * the client's root span (the request as the client saw it; its id
//!   is the request id and travels in the `x-p3-span` header),
//! * the replaying handler's span (`handler`), a child of the root,
//! * one span per call into a layer's public function, children of the
//!   handler.
//!
//! The ledger charges the root's time outside the handler to the
//! serving tier (`net.serve`: accept, parse, reactor and worker
//! hand-offs, response write) and each layer call to its stage; what is
//! left is the handler's own bookkeeping.

use crate::stats::percentile;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Corpus pre-upload.
    Setup,
    /// The untimed pass over every (photo, rendition).
    Warmup,
    /// The measured window.
    Window,
}

impl Phase {
    const ALL: [Phase; 3] = [Phase::Setup, Phase::Warmup, Phase::Window];

    fn as_str(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Warmup => "warmup",
            Phase::Window => "window",
        }
    }
}

/// Name of the serving-tier stage the ledger derives.
pub const SERVE: &str = "net.serve";
/// Name of the replaying handler's span.
pub const HANDLER: &str = "handler";

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    pub request: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

/// Every span of a run, shared by client and server threads.
pub struct Spans {
    epoch: Instant,
    phase: AtomicU8,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            phase: AtomicU8::new(0),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn set_phase(&self, p: Phase) {
        self.phase.store(p as u8, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; a root (no parent) starts a new request.
    pub fn begin(&self, name: &'static str, parent: Option<(u64, u64)>) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = match parent {
            Some((p, r)) => (Some(p), r),
            None => (None, id),
        };
        Open { id, request, parent, name, start_ns: self.now_ns() }
    }

    pub fn end(&self, open: Open) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            phase: Phase::ALL[usize::from(self.phase.load(Ordering::Relaxed))],
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            request: open.request,
        };
        self.done.lock().expect("lock holder panicked").push(span);
    }

    /// Time `f` as a child of `parent`.
    pub fn span<T>(&self, name: &'static str, parent: &Open, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, Some((parent.id, parent.request)));
        let out = f();
        self.end(open);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.done.lock().expect("lock holder panicked"))
    }
}

/// Write every span as a tab-separated line under a header row.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tphase\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.request,
            s.name,
            s.phase.as_str(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// One traced request: the client-observed time and each stage's total
/// (a stage called twice, like the public and secret `encode_coeffs`,
/// is summed). `net.serve` is the root's time outside the handler.
#[derive(Debug, Clone)]
pub struct RequestLedger {
    pub root: &'static str,
    pub phase: Phase,
    pub total_ms: f64,
    pub stages: BTreeMap<&'static str, f64>,
}

impl RequestLedger {
    pub fn stage_sum_ms(&self) -> f64 {
        self.stages.values().sum()
    }
}

/// Build one ledger per root span that has a handler span.
pub fn ledgers(spans: &[Span]) -> Vec<RequestLedger> {
    let mut by_request: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_request.entry(s.request).or_default().push(s);
    }
    let mut out: Vec<(u64, RequestLedger)> = by_request
        .into_values()
        .filter_map(|group| {
            let root = group.iter().find(|s| s.parent.is_none())?;
            let handler = group.iter().find(|s| s.parent == Some(root.id) && s.name == HANDLER)?;
            let mut stages = BTreeMap::new();
            stages.insert(SERVE, (root.ms() - handler.ms()).max(0.0));
            for s in group.iter().filter(|s| s.parent == Some(handler.id)) {
                *stages.entry(s.name).or_insert(0.0) += s.ms();
            }
            Some((
                root.start_ns,
                RequestLedger { root: root.name, phase: root.phase, total_ms: root.ms(), stages },
            ))
        })
        .collect();
    out.sort_by_key(|(start, _)| *start);
    out.into_iter().map(|(_, l)| l).collect()
}

/// p50 of one stage's per-request time over the window requests that
/// ran it; when the window never ran the stage, over the set-up and
/// warm-up requests instead. Returns the value and whether it came from
/// the window.
pub fn stage_p50(ledgers: &[RequestLedger], stage: &str) -> Option<(f64, bool)> {
    [true, false].into_iter().find_map(|window| {
        let v: Vec<f64> = ledgers
            .iter()
            .filter(|l| (l.phase == Phase::Window) == window)
            .filter_map(|l| l.stages.get(stage).copied())
            .collect();
        percentile(&v, 0.5).ok().map(|p| (p, window))
    })
}

/// Each stage's share of the summed client time of the window requests
/// of kind `root`, largest first; the rest is handler bookkeeping.
pub fn shares(ledgers: &[RequestLedger], root: &str) -> Vec<(&'static str, f64)> {
    let window: Vec<&RequestLedger> =
        ledgers.iter().filter(|l| l.phase == Phase::Window && l.root == root).collect();
    let total: f64 = window.iter().map(|l| l.total_ms).sum();
    let mut by_stage: BTreeMap<&'static str, f64> = BTreeMap::new();
    for l in &window {
        for (k, v) in &l.stages {
            *by_stage.entry(k).or_insert(0.0) += v;
        }
    }
    let mut out: Vec<(&'static str, f64)> =
        by_stage.into_iter().map(|(k, v)| (k, if total > 0.0 { v / total } else { 0.0 })).collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn ledger_charges_time_outside_the_handler_to_the_serving_tier() {
        let spans = Spans::new();
        spans.set_phase(Phase::Window);
        let root = spans.begin("upload", None);
        sleep_ms(3);
        let handler = spans.begin(HANDLER, Some((root.id, root.request)));
        spans.span("jpeg.encode_coeffs", &handler, || sleep_ms(2));
        spans.span("jpeg.encode_coeffs", &handler, || sleep_ms(2));
        spans.end(handler);
        spans.end(root);
        spans.set_phase(Phase::Setup);
        let other = spans.begin("view", None);
        let h = spans.begin(HANDLER, Some((other.id, other.request)));
        spans.span("psp.fetch", &h, || ());
        spans.end(h);
        spans.end(other);
        // A root without a handler (the request never reached it) has
        // no ledger.
        let lost = spans.begin("view", None);
        spans.end(lost);

        let all = spans.take();
        assert_eq!(all.iter().filter(|s| s.request == root.request).count(), 4);
        let l = ledgers(&all);
        assert_eq!(l.len(), 2);
        assert_eq!((l[0].root, l[0].phase), ("upload", Phase::Window));
        assert!(l[0].stages["jpeg.encode_coeffs"] >= 4.0);
        assert!(l[0].stages[SERVE] >= 3.0);
        assert!(l[0].total_ms >= l[0].stage_sum_ms());
        assert_eq!(l[1].phase, Phase::Setup);
        assert_eq!(stage_p50(&l, "jpeg.encode_coeffs"), None, "one sample is too few for a p50");
        let shares = shares(&l, "upload");
        assert_eq!(shares[0].0, "jpeg.encode_coeffs");
    }
}
