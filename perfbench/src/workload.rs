//! Load generators (closed and open loop) and the correctness gate every
//! response passes through.

use crate::corpus::{Op, Rendition, Target, RECENT};
use crate::exec::{Exec, Reply, Req};
use p3_crypto::sha256;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Upload,
    View,
    Forward,
}

impl Kind {
    /// The request's name, also the name of its root span.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Upload => "upload",
            Kind::View => "view",
            Kind::Forward => "forward",
        }
    }

    /// Latency within which a request counts toward `slo_share`.
    pub fn slo_ms(self) -> f64 {
        match self {
            Kind::Upload => 1000.0,
            Kind::View | Kind::Forward => 250.0,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Sample {
    pub op: Op,
    pub kind: Kind,
    /// Closed loop: send to response. Open loop: scheduled send time to
    /// response, so queueing behind a busy client is charged.
    pub latency_ms: f64,
    /// Closed loop: gap between this client's previous response and this
    /// send. Open loop: how late the send was against its schedule.
    pub late_ms: f64,
    pub ok: bool,
    /// The photo id an upload returned.
    pub id: Option<String>,
}

/// Share of samples that failed (any non-success, 503 included).
pub fn error_rate(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| !s.ok).count() as f64 / samples.len() as f64
}

/// Non-photo target the passthrough workload sends.
pub fn forward_target(page: u32) -> String {
    format!("/api/feed?page={page}")
}

/// Everything the correctness gate remembers across a run.
#[derive(Default)]
pub struct Gate {
    /// SHA-256 of the bytes served on the first view of each
    /// (photo, rendition).
    pins: Mutex<HashMap<(String, Rendition), [u8; 32]>>,
    /// Later views whose bytes differed from the pin, and forwards whose
    /// reply differed from the PSP's own.
    pub wrong_data: AtomicU64,
    /// Ids returned by every upload, checked against the tiers at the end.
    pub uploaded: Mutex<Vec<String>>,
    /// Newest upload first, at most [`RECENT`].
    recents: Mutex<VecDeque<String>>,
    /// The PSP's own answer to a forwarded request.
    pub expected_forward: Mutex<Option<Reply>>,
}

impl Gate {
    /// Pin on first sight, compare afterwards. False on a mismatch.
    pub fn check_view(&self, id: &str, r: Rendition, body: &[u8]) -> bool {
        let digest = sha256(body);
        let mut pins = self.pins.lock().expect("lock holder panicked");
        let pinned = *pins.entry((id.to_string(), r)).or_insert(digest);
        if pinned != digest {
            self.wrong_data.fetch_add(1, Ordering::Relaxed);
        }
        pinned == digest
    }

    fn record_upload(&self, id: &str) {
        self.uploaded.lock().expect("lock holder panicked").push(id.to_string());
        let mut recents = self.recents.lock().expect("lock holder panicked");
        recents.push_front(id.to_string());
        recents.truncate(RECENT);
    }

    /// Seed the recent list (newest last in `ids`).
    pub fn set_recents(&self, ids: &[String]) {
        let mut recents = self.recents.lock().expect("lock holder panicked");
        recents.clear();
        recents.extend(ids.iter().rev().take(RECENT).cloned());
    }

    fn recent(&self, k: usize) -> Option<String> {
        let recents = self.recents.lock().expect("lock holder panicked");
        recents.get(k.min(recents.len().saturating_sub(1))).cloned()
    }
}

/// What ops refer to: the photos an `Upload(i)` posts and the ids a
/// `View(Corpus(i), _)` asks for.
pub struct Plan<'a> {
    pub photos: &'a [Vec<u8>],
    pub corpus_ids: &'a [String],
}

/// Send `op` and check the reply. Returns the kind, whether it passed
/// the gate, the id an upload got, and when the reply arrived (the
/// check itself is not charged to the request).
fn run_op<E: Exec>(
    exec: &mut E,
    op: Op,
    plan: &Plan<'_>,
    gate: &Gate,
) -> (Kind, bool, Option<String>, Instant) {
    match op {
        Op::Upload(i) => {
            let reply = exec.exec(Req::Upload(&plan.photos[i]));
            let done = Instant::now();
            let id = reply.ok().filter(|r| r.status == 201).and_then(|r| {
                let id = String::from_utf8(r.body).ok()?.trim().to_string();
                id.parse::<u64>().ok().map(|_| id)
            });
            if let Some(id) = &id {
                gate.record_upload(id);
            }
            (Kind::Upload, id.is_some(), id, done)
        }
        Op::View(target, r) => {
            let id = match target {
                Target::Corpus(i) => Some(plan.corpus_ids[i].clone()),
                Target::Recent(k) => gate.recent(k),
            };
            let Some(id) = id else { return (Kind::View, false, None, Instant::now()) };
            let reply = exec.exec(Req::View(&id, r));
            let done = Instant::now();
            let ok = reply
                .is_ok_and(|reply| reply.status == 200 && gate.check_view(&id, r, &reply.body));
            (Kind::View, ok, None, done)
        }
        Op::Forward(page) => {
            let reply = exec.exec(Req::Forward(&forward_target(page)));
            let done = Instant::now();
            let expected = gate.expected_forward.lock().expect("lock holder panicked").clone();
            let ok = match (reply, expected) {
                (Ok(got), Some(want)) => {
                    if got != want {
                        gate.wrong_data.fetch_add(1, Ordering::Relaxed);
                    }
                    got == want
                }
                _ => false,
            };
            (Kind::Forward, ok, None, done)
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed loop: each client sends its next op as soon as the previous
/// one answers, until `until` or until its op source runs dry.
pub fn closed_loop<E: Exec, G: FnMut() -> Option<Op> + Send>(
    execs: &mut [E],
    sources: Vec<G>,
    until: Instant,
    plan: &Plan<'_>,
    gate: &Gate,
) -> Vec<Sample> {
    std::thread::scope(|s| {
        let workers: Vec<_> = execs
            .iter_mut()
            .zip(sources)
            .map(|(exec, mut next)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut last_end: Option<Instant> = None;
                    while Instant::now() < until {
                        let Some(op) = next() else { break };
                        let start = Instant::now();
                        let late_ms = last_end.map_or(0.0, |e| ms(start - e));
                        let (kind, ok, id, done) = run_op(exec, op, plan, gate);
                        out.push(Sample {
                            op,
                            kind,
                            latency_ms: ms(done - start),
                            late_ms,
                            ok,
                            id,
                        });
                        last_end = Some(Instant::now());
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client panicked")).collect()
    })
}

/// Open loop: clients take the schedule's ops in order and send each at
/// `start + offset` (or as soon as a client frees up, if all are busy).
/// Latency is charged from the scheduled send time.
pub fn open_loop<E: Exec>(
    execs: &mut [E],
    schedule: &[(f64, Op)],
    start: Instant,
    plan: &Plan<'_>,
    gate: &Gate,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = execs
            .iter_mut()
            .map(|exec| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, op)) = schedule.get(i) else { break };
                        let due = start + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (kind, ok, id, done) = run_op(exec, op, plan, gate);
                        out.push(Sample {
                            op,
                            kind,
                            latency_ms: ms(done - due),
                            late_ms: ms(sent.saturating_duration_since(due)),
                            ok,
                            id,
                        });
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every request with a fixed status after a fixed delay.
    struct Fixed {
        status: u16,
        delay: Duration,
    }

    impl Exec for Fixed {
        fn exec(&mut self, _: Req<'_>) -> Result<Reply, String> {
            std::thread::sleep(self.delay);
            Ok(Reply { status: self.status, body: b"body".to_vec() })
        }
    }

    fn plan_with(ids: &[String]) -> Plan<'_> {
        Plan { photos: &[], corpus_ids: ids }
    }

    #[test]
    fn open_loop_latency_is_charged_from_the_scheduled_send_time() {
        let ids = vec!["1".to_string()];
        let gate = Gate::default();
        let mut execs = [Fixed { status: 200, delay: Duration::from_millis(40) }];
        // Three ops due at once on one client: the second and third
        // queue behind the first, and their wait is charged.
        let schedule: Vec<(f64, Op)> =
            (0..3).map(|_| (0.0, Op::View(Target::Corpus(0), Rendition::Thumb))).collect();
        let samples = open_loop(&mut execs, &schedule, Instant::now(), &plan_with(&ids), &gate);
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        assert!(lat[0] >= 40.0 && lat[0] < 80.0, "{lat:?}");
        assert!(lat[1] >= 80.0, "{lat:?}");
        assert!(lat[2] >= 120.0, "{lat:?}");
        assert!(samples[2].late_ms >= 80.0, "the generator reports its own lateness");
        assert!(samples.iter().all(|s| s.ok));
    }

    #[test]
    fn a_503_counts_as_a_failure() {
        let ids = vec!["1".to_string()];
        let gate = Gate::default();
        let mut execs = [Fixed { status: 503, delay: Duration::ZERO }];
        let mut left = 4;
        let source = move || {
            left -= 1;
            (left >= 0).then_some(Op::View(Target::Corpus(0), Rendition::Small))
        };
        let far = Instant::now() + Duration::from_secs(60);
        let samples = closed_loop(&mut execs, vec![source], far, &plan_with(&ids), &gate);
        assert_eq!(samples.len(), 4);
        assert_eq!(error_rate(&samples), 1.0);
    }

    #[test]
    fn changed_bytes_for_a_pinned_view_are_wrong_data() {
        let gate = Gate::default();
        assert!(gate.check_view("7", Rendition::Big, b"first"));
        assert!(gate.check_view("7", Rendition::Big, b"first"));
        assert!(gate.check_view("7", Rendition::Thumb, b"other rendition"));
        assert!(!gate.check_view("7", Rendition::Big, b"changed"));
        assert_eq!(gate.wrong_data.load(Ordering::Relaxed), 1);
    }
}
