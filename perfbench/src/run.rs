//! One benchmark run: inputs, set-up, warm-up, the measured window, the
//! correctness gate, and (traced) the stage ledger.

use crate::corpus::{self, mixed_schedule, par_map, Op, Rendition, Target, ViewStream};
use crate::exec::{Exec, HttpExec, Req, TracedClient, TracedProxy};
use crate::json::Json;
use crate::stats::{mean, median, percentile};
use crate::topology::Topology;
use crate::trace::{self, Phase, Spans};
use crate::workload::{
    closed_loop, error_rate, forward_target, open_loop, Gate, Kind, Plan, Sample,
};
use p3_core::pixel::{channels_to_rgb, rgb_to_channels, rgb_to_luma};
use p3_psp::{PspProfile, SizeRequest};
use p3_storage::BackendStats;
use p3_vision::image::ImageF32;
use p3_vision::metrics::psnr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads: at most the two cores the benchmark box has, each
/// with one keep-alive connection.
const CLIENTS: usize = 2;
/// The browse corpus, pre-uploaded through the proxy during set-up.
const CORPUS: usize = 64;
const CORPUS_DIMS: (usize, usize) = (640, 480);
/// `upload` posts 1024×768 photos cycled from a pool of distinct scenes.
const UPLOAD_POOL: usize = 16;
const UPLOAD_DIMS: (usize, usize) = (1024, 768);
/// `mixed` uploads 640×480 photos from its own pool.
const MIXED_POOL: usize = 16;
/// `mixed` offers this fixed rate. Its mix saturates at about 55 req/s
/// on a 2-core box, so the cores stay well short of busy and the queue
/// that builds comes from bursts, not overload.
const MIXED_RATE: f64 = 20.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Corpus photos whose three renditions are compared against the PSP
/// profile's rendition of the original for `recon_psnr_db`.
const PSNR_PHOTOS: usize = 16;
/// Proxied and replayed slices a traced run alternates between.
const SLICES: usize = 4;
/// Alternating proxied/direct requests behind `net.proxy_overhead_ms`.
const OVERHEAD_PROBES: usize = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Upload,
    Browse,
    Mixed,
    Passthrough,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Upload, Workload::Browse, Workload::Mixed, Workload::Passthrough];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Upload => "upload",
            Workload::Browse => "browse",
            Workload::Mixed => "mixed",
            Workload::Passthrough => "passthrough",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The request kind whose latency the end-to-end p50 and the ledger
    /// describe.
    fn primary(self) -> Kind {
        match self {
            Workload::Upload => Kind::Upload,
            Workload::Browse | Workload::Mixed => Kind::View,
            Workload::Passthrough => Kind::Forward,
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Seeded inputs, generated before set-up.
pub struct Inputs {
    corpus: Vec<Vec<u8>>,
    /// What the window's uploads post (empty for workloads without).
    pool: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let corpus = corpus::photo_pool(seed, 1, CORPUS, CORPUS_DIMS.0, CORPUS_DIMS.1);
        let pool = match w {
            Workload::Upload => {
                corpus::photo_pool(seed, 2, UPLOAD_POOL, UPLOAD_DIMS.0, UPLOAD_DIMS.1)
            }
            Workload::Mixed => {
                corpus::photo_pool(seed, 3, MIXED_POOL, CORPUS_DIMS.0, CORPUS_DIMS.1)
            }
            Workload::Browse | Workload::Passthrough => Vec::new(),
        };
        Inputs { corpus, pool }
    }
}

/// A named value with its unit, or why the run does not define it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Result<f64, String>,
    /// Sample count behind a percentile or rate, or where a value came
    /// from.
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: Ok(value), note: String::new() }
}

fn counted(name: &'static str, unit: &'static str, value: Result<f64, String>, n: usize) -> Metric {
    Metric { name, unit, value, note: format!("n={n}") }
}

fn undefined(name: &'static str, unit: &'static str, why: &str) -> Metric {
    Metric { name, unit, value: Err(why.to_string()), note: String::new() }
}

/// Everything a run reports.
pub struct Outcome {
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    /// The end-to-end metrics `BENCHMARK.json` gates (untraced runs).
    pub gated: Vec<Metric>,
    /// The specification's full end-to-end table, `n/a` where the workload does
    /// not define a metric (untraced runs).
    pub table: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Stage shares of the primary request, largest first (traced runs).
    pub shares: Vec<(&'static str, f64)>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (VmHWM), in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn http_clients(addr: std::net::SocketAddr) -> Vec<HttpExec> {
    (0..CLIENTS).map(|_| HttpExec::new(addr)).collect()
}

/// Closed-loop op sources that hand out `ops` round-robin, one share
/// per client.
fn split_ops(ops: Vec<Op>) -> Vec<impl FnMut() -> Option<Op> + Send> {
    (0..CLIENTS)
        .map(|c| {
            let mine: Vec<Op> = ops.iter().skip(c).step_by(CLIENTS).copied().collect();
            let mut it = mine.into_iter();
            move || it.next()
        })
        .collect()
}

fn far_future() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

/// Upload the corpus; ids come back in corpus order.
fn preupload<E: Exec>(
    execs: &mut [E],
    corpus: &[Vec<u8>],
    gate: &Gate,
) -> Result<Vec<String>, String> {
    let ops = (0..corpus.len()).map(Op::Upload).collect();
    let plan = Plan { photos: corpus, corpus_ids: &[] };
    let samples = closed_loop(execs, split_ops(ops), far_future(), &plan, gate);
    let mut ids = vec![String::new(); corpus.len()];
    for s in samples {
        match (s.op, s.id) {
            (Op::Upload(i), Some(id)) => ids[i] = id,
            _ => return Err(format!("corpus pre-upload failed: {:?}", s.op)),
        }
    }
    Ok(ids)
}

/// One view of every (photo, rendition): pins each one's bytes.
fn warm_up<E: Exec>(execs: &mut [E], ids: &[String], gate: &Gate) -> Vec<Sample> {
    let ops = (0..ids.len())
        .flat_map(|i| Rendition::ALL.map(|r| Op::View(Target::Corpus(i), r)))
        .collect();
    closed_loop(execs, split_ops(ops), far_future(), &Plan { photos: &[], corpus_ids: ids }, gate)
}

/// Run `seconds` of the workload's measured window on `execs`. Slice
/// `k` of a traced run starts its op streams at their own place, the
/// same for the proxied and the replayed slice.
fn window<E: Exec>(
    w: Workload,
    o: &Opts,
    (seconds, k): (f64, usize),
    execs: &mut [E],
    inputs: &Inputs,
    ids: &[String],
    gate: &Gate,
) -> (Vec<Sample>, f64) {
    let plan = Plan { photos: &inputs.pool, corpus_ids: ids };
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let samples = match w {
        Workload::Upload => {
            let sources = (0..CLIENTS)
                .map(|c| {
                    let mut next = c + k * UPLOAD_POOL / SLICES;
                    move || {
                        next += CLIENTS;
                        Some(Op::Upload((next - CLIENTS) % UPLOAD_POOL))
                    }
                })
                .collect();
            closed_loop(execs, sources, until, &plan, gate)
        }
        Workload::Browse => {
            let sources = (0..CLIENTS)
                .map(|c| {
                    let mut views = ViewStream::new(o.seed, c + k * CLIENTS, CORPUS);
                    move || {
                        let (i, r) = views.next_view();
                        Some(Op::View(Target::Corpus(i), r))
                    }
                })
                .collect();
            closed_loop(execs, sources, until, &plan, gate)
        }
        Workload::Mixed => {
            gate.set_recents(ids);
            let schedule =
                mixed_schedule(o.seed + k as u64, MIXED_RATE, seconds, CORPUS, MIXED_POOL);
            open_loop(execs, &schedule, start, &plan, gate)
        }
        Workload::Passthrough => {
            let sources = (0..CLIENTS)
                .map(|c| {
                    let mut rng =
                        StdRng::seed_from_u64(o.seed ^ (0xFEED + (c + k * CLIENTS) as u64));
                    move || Some(Op::Forward(rng.gen_range(0..1000)))
                })
                .collect();
            closed_loop(execs, sources, until, &plan, gate)
        }
    };
    (samples, start.elapsed().as_secs_f64())
}

/// Luma of `rgb` after the PSP profile's own pipeline for `r`.
fn profile_rendition(profile: &PspProfile, rgb: &p3_jpeg::RgbImage, r: Rendition) -> ImageF32 {
    let size = match r {
        Rendition::Thumb => SizeRequest::Thumb,
        Rendition::Small => SizeRequest::Small,
        Rendition::Big => SizeRequest::Big,
    };
    let side = profile.ladder_side(size).expect("ladder size");
    let spec = profile.transform_to_side(rgb.width, rgb.height, side);
    let ch = rgb_to_channels(rgb);
    rgb_to_luma(&channels_to_rgb(&[spec.apply(&ch[0]), spec.apply(&ch[1]), spec.apply(&ch[2])]))
}

fn luma_of(jpeg: &[u8]) -> Result<ImageF32, String> {
    p3_jpeg::decode_to_rgb(jpeg).map(|rgb| rgb_to_luma(&rgb)).map_err(|e| e.to_string())
}

struct Quality {
    public_psnr_db: f64,
    storage_overhead: f64,
    recon_psnr_db: f64,
}

/// Privacy, storage and reconstruction quality of the corpus, untimed.
/// Every view it makes goes through the proxy and the correctness gate.
fn quality(
    topo: &Topology,
    inputs: &Inputs,
    ids: &[String],
    gate: &Gate,
) -> Result<Quality, String> {
    let per_photo = par_map(ids.len(), |i| -> Result<(f64, usize, usize), String> {
        let original = inputs.corpus[i].as_slice();
        let public = topo.psp().stored_original(ids[i].parse().map_err(|_| "bad id")?);
        let public = public.ok_or_else(|| format!("psp lost photo {}", ids[i]))?;
        let blob = topo.router().get(&ids[i]).map_err(|e| e.to_string())?;
        let blob = blob.ok_or_else(|| format!("storage lost blob {}", ids[i]))?;
        Ok((
            psnr(&luma_of(original)?, &luma_of(&public)?),
            public.len() + blob.len(),
            original.len(),
        ))
    });
    let per_photo: Vec<(f64, usize, usize)> = per_photo.into_iter().collect::<Result<_, _>>()?;
    let profile = topo.psp().profile().clone();
    let recon = par_map(PSNR_PHOTOS.min(ids.len()), |i| -> Result<Vec<f64>, String> {
        let rgb = p3_jpeg::decode_to_rgb(&inputs.corpus[i]).map_err(|e| e.to_string())?;
        let mut conn = HttpExec::new(topo.proxy_addr());
        Rendition::ALL
            .iter()
            .map(|&r| {
                let reply = conn.exec(Req::View(&ids[i], r))?;
                if reply.status != 200 || !gate.check_view(&ids[i], r, &reply.body) {
                    return Err(format!("view {} {} failed the gate", ids[i], r.query()));
                }
                Ok(psnr(&profile_rendition(&profile, &rgb, r), &luma_of(&reply.body)?))
            })
            .collect()
    });
    let recon: Vec<f64> = recon.into_iter().collect::<Result<Vec<_>, _>>()?.concat();
    Ok(Quality {
        public_psnr_db: mean(&per_photo.iter().map(|p| p.0).collect::<Vec<_>>()),
        storage_overhead: per_photo.iter().map(|p| p.1).sum::<usize>() as f64
            / per_photo.iter().map(|p| p.2).sum::<usize>() as f64,
        recon_psnr_db: mean(&recon),
    })
}

/// The correctness checks every run ends with: each upload that
/// returned an id is held by the PSP and the router, no served bytes
/// changed, and no storage failure counter moved.
fn final_checks(topo: &Topology, gate: &Gate, problems: &mut Vec<String>) {
    let uploaded = gate.uploaded.lock().expect("lock holder panicked").clone();
    let lost = uploaded
        .iter()
        .filter(|id| {
            let on_psp = id.parse().ok().and_then(|n| topo.psp().stored_original(n)).is_some();
            let on_router = matches!(topo.router().get(id), Ok(Some(_)));
            !(on_psp && on_router)
        })
        .count();
    if lost > 0 {
        problems
            .push(format!("{lost} of {} uploads not held by both PSP and storage", uploaded.len()));
    }
    let wrong = gate.wrong_data.load(Ordering::Relaxed);
    if wrong > 0 {
        problems.push(format!("wrong_data {wrong}"));
    }
    let r = router_stats(topo);
    let corrupt: u64 = node_stats(topo).iter().map(|s| s.corrupt_reads).sum();
    for (name, v) in [
        ("retries", r.retries),
        ("node_failures", r.node_failures),
        ("integrity_rejects", r.integrity_rejects),
        ("partial_writes", r.partial_writes),
        ("nodes_ejected", r.nodes_ejected),
        ("corrupt_reads", corrupt),
    ] {
        if v > 0 {
            problems.push(format!("storage {name} = {v}"));
        }
    }
}

fn router_stats(topo: &Topology) -> BackendStats {
    topo.router().backend().stats()
}

fn node_stats(topo: &Topology) -> Vec<BackendStats> {
    topo.node_cores().map(|c| c.backend().stats()).collect()
}

fn latencies(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples.iter().filter(|s| s.kind == kind && s.ok).map(|s| s.latency_ms).collect()
}

fn slo_share(samples: &[Sample]) -> f64 {
    let met = samples.iter().filter(|s| s.ok && s.latency_ms <= s.kind.slo_ms()).count();
    met as f64 / samples.len().max(1) as f64
}

fn pct(name: &'static str, v: &[f64], q: f64) -> Metric {
    counted(name, "ms", percentile(v, q), v.len())
}

/// The specification's end-to-end table for one workload, up to its
/// quality and memory rows.
fn table(w: Workload, samples: &[Sample], secs: f64, setup: Metric) -> Vec<Metric> {
    let up = latencies(samples, Kind::Upload);
    let views = latencies(samples, Kind::View);
    let fwd = latencies(samples, Kind::Forward);
    let rate = |name, unit, v: &[f64]| counted(name, unit, Ok(v.len() as f64 / secs), v.len());
    let na = |name, unit| undefined(name, unit, &format!("not measured on {}", w.name()));
    use Workload::*;
    let mut t = vec![setup];
    t.push(if w == Upload {
        rate("upload_per_s", "photos/s", &up)
    } else {
        na("upload_per_s", "photos/s")
    });
    t.push(if matches!(w, Upload | Mixed) {
        pct("upload_p50_ms", &up, 0.5)
    } else {
        na("upload_p50_ms", "ms")
    });
    t.push(if w == Upload { pct("upload_p95_ms", &up, 0.95) } else { na("upload_p95_ms", "ms") });
    t.push(if w == Browse {
        rate("view_per_s", "views/s", &views)
    } else {
        na("view_per_s", "views/s")
    });
    for (name, q) in [("view_p50_ms", 0.5), ("view_p99_ms", 0.99)] {
        t.push(if matches!(w, Browse | Mixed) { pct(name, &views, q) } else { na(name, "ms") });
    }
    t.push(if w == Passthrough {
        rate("passthrough_per_s", "req/s", &fwd)
    } else {
        na("passthrough_per_s", "req/s")
    });
    for (name, q) in [("passthrough_p50_ms", 0.5), ("passthrough_p99_ms", 0.99)] {
        t.push(if w == Passthrough { pct(name, &fwd, q) } else { na(name, "ms") });
    }
    t.push(counted("slo_share", "fraction", Ok(slo_share(samples)), samples.len()));
    t.push(counted("error_rate", "fraction", Ok(error_rate(samples)), samples.len()));
    t
}

/// Untraced run: end-to-end metrics only.
pub fn untraced(o: &Opts, inputs: &Inputs, tmp: &Path) -> Result<Outcome, String> {
    let w = o.workload;
    // The first set-up serves the window; the others only time set-up,
    // after the window, so the peak RSS reflects one running system.
    let setup = |k: usize| -> Result<(f64, Topology, Gate, Vec<String>), String> {
        let t0 = Instant::now();
        let topo = Topology::spawn(tmp.join(format!("setup{k}")))?;
        let gate = Gate::default();
        let ids = preupload(&mut http_clients(topo.proxy_addr()), &inputs.corpus, &gate)?;
        Ok((t0.elapsed().as_secs_f64(), topo, gate, ids))
    };
    let (first, topo, gate, ids) = setup(0)?;
    let mut clients = http_clients(topo.proxy_addr());
    let mut problems = Vec::new();
    if matches!(w, Workload::Browse | Workload::Mixed)
        && warm_up(&mut clients, &ids, &gate).iter().any(|s| !s.ok)
    {
        problems.push("warm-up view failed".to_string());
    }
    let q = quality(&topo, inputs, &ids, &gate)?;
    *gate.expected_forward.lock().expect("lock holder panicked") =
        Some(HttpExec::new(topo.psp_addr()).exec(Req::Forward(&forward_target(0)))?);
    let (samples, secs) = window(w, o, (o.seconds, 0), &mut clients, inputs, &ids, &gate);
    drop(clients);
    final_checks(&topo, &gate, &mut problems);
    let rss = rss_peak_mb();
    drop(topo);
    let mut setup_s = vec![first];
    for k in 1..SETUPS {
        setup_s.push(setup(k)?.0);
    }
    let failed = samples.iter().filter(|s| !s.ok).count();
    if failed > 0 {
        problems.push(format!("{failed} requests failed"));
    }
    let primary = latencies(&samples, w.primary());
    let ok = samples.iter().filter(|s| s.ok).count();
    let setup = metric("setup_s", "s", median(&setup_s));
    let rss = metric("rss_peak_mb", "MiB", rss);
    let quality = [
        metric("public_psnr_db", "dB", q.public_psnr_db),
        metric("storage_overhead", "bytes/byte", q.storage_overhead),
        metric("recon_psnr_db", "dB", q.recon_psnr_db),
    ];
    let mut gated = vec![
        setup.clone(),
        counted("req_per_s", "1/s", Ok(ok as f64 / secs), ok),
        counted("p50_ms", "ms", percentile(&primary, 0.5), primary.len()),
        counted("mean_ms", "ms", Ok(mean(&primary)), primary.len()),
        counted("slo_share", "fraction", Ok(slo_share(&samples)), samples.len()),
        rss.clone(),
    ];
    gated.extend(quality.iter().cloned());
    let mut table = table(w, &samples, secs, setup);
    table.extend(quality);
    table.push(rss);
    Ok(Outcome {
        correct: problems.is_empty(),
        problems,
        attempted: samples.len(),
        failed,
        gated,
        table,
        layers: Vec::new(),
        shares: Vec::new(),
    })
}

/// The proxy's cache hits and misses and upstream pool reuses and
/// connects, from its own `/stats`.
fn proxy_counters(topo: &Topology) -> Result<[f64; 4], String> {
    let reply = HttpExec::new(topo.proxy_addr()).exec(Req::Forward("/stats"))?;
    let j = Json::parse(&String::from_utf8_lossy(&reply.body))?;
    let stat = |sec: &str, key: &str| {
        j.get(sec).and_then(|s| s.get(key)).and_then(Json::num).unwrap_or(0.0)
    };
    Ok([
        stat("cache", "hits"),
        stat("cache", "misses"),
        stat("pool", "reuses"),
        stat("pool", "connects"),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// p50 of the proxied minus the direct latency of the same non-photo
/// request, sent alternately on one connection each.
fn proxy_overhead_ms(topo: &Topology) -> Result<f64, String> {
    let mut via = HttpExec::new(topo.proxy_addr());
    let mut direct = HttpExec::new(topo.psp_addr());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..OVERHEAD_PROBES {
        let target = forward_target(i as u32);
        let t = Instant::now();
        via.exec(Req::Forward(&target))?;
        a.push(ms_since(t));
        let t = Instant::now();
        direct.exec(Req::Forward(&target))?;
        b.push(ms_since(t));
    }
    Ok(percentile(&a, 0.5)? - percentile(&b, 0.5)?)
}

/// Traced run: slices of the window through the proxy, for reference,
/// alternating with the same slices through the replaying proxy, whose
/// every step is a span.
pub fn traced(o: &Opts, inputs: &Inputs, tmp: &Path, spans_out: &Path) -> Result<Outcome, String> {
    let w = o.workload;
    let topo = Topology::spawn(tmp.join("traced"))?;
    let spans = Arc::new(Spans::new());
    let replay = TracedProxy::spawn(topo.psp_addr(), topo.router_addr(), Arc::clone(&spans))?;
    let gate = Gate::default();
    let mut traced: Vec<TracedClient<'_>> =
        (0..CLIENTS).map(|_| TracedClient::new(replay.addr(), &spans)).collect();
    spans.set_phase(Phase::Setup);
    let ids = preupload(&mut traced, &inputs.corpus, &gate)?;
    let mut problems = Vec::new();
    // The proxy's warm-up pins each view; the replay's must match it.
    let mut clients = http_clients(topo.proxy_addr());
    let warm = warm_up(&mut clients, &ids, &gate);
    spans.set_phase(Phase::Warmup);
    let replay_warm = warm_up(&mut traced, &ids, &gate);
    if warm.iter().chain(&replay_warm).any(|s| !s.ok) {
        problems.push("warm-up view failed or replayed bytes differ from the proxy's".to_string());
    }
    *gate.expected_forward.lock().expect("lock holder panicked") =
        Some(HttpExec::new(topo.psp_addr()).exec(Req::Forward(&forward_target(0)))?);

    // Proxied and replayed slices alternate, so drift on a shared box
    // falls on both alike.
    let (mut plain, mut replayed, mut pool_counts) = (Vec::new(), Vec::new(), [0.0; 4]);
    spans.set_phase(Phase::Window);
    let slice = o.seconds / SLICES as f64;
    for k in 0..SLICES {
        let before = proxy_counters(&topo)?;
        plain.extend(window(w, o, (slice, k), &mut clients, inputs, &ids, &gate).0);
        let after = proxy_counters(&topo)?;
        for (acc, (a, b)) in pool_counts.iter_mut().zip(after.iter().zip(before)) {
            *acc += a - b;
        }
        replayed.extend(window(w, o, (slice, k), &mut traced, inputs, &ids, &gate).0);
    }
    drop((clients, traced, replay));
    let overhead = proxy_overhead_ms(&topo)?;
    final_checks(&topo, &gate, &mut problems);
    let failed = plain.iter().chain(&replayed).filter(|s| !s.ok).count();
    if failed > 0 {
        problems.push(format!("{failed} requests failed"));
    }

    let spans = spans.take();
    trace::write_tsv(&spans, spans_out).map_err(|e| format!("{}: {e}", spans_out.display()))?;
    let ledgers = trace::ledgers(&spans);
    let root = w.primary().name();
    let window_roots: Vec<&trace::RequestLedger> =
        ledgers.iter().filter(|l| l.phase == Phase::Window && l.root == root).collect();
    let e2e = percentile(&latencies(&plain, w.primary()), 0.5)?;
    let stage_sum =
        percentile(&window_roots.iter().map(|l| l.stage_sum_ms()).collect::<Vec<_>>(), 0.5)?;
    let root_p50 = percentile(&window_roots.iter().map(|l| l.total_ms).collect::<Vec<_>>(), 0.5)?;
    let unattributed = e2e - stage_sum;
    let coverage = 1.0 - unattributed / e2e;
    if matches!(w, Workload::Upload | Workload::Browse) && coverage < 0.85 {
        problems.push(format!("ledger.coverage {coverage:.3} < 0.85"));
    }

    let mut layers: Vec<Metric> = STAGES
        .iter()
        .map(|&(name, stage)| match trace::stage_p50(&ledgers, stage) {
            Some((v, true)) => metric(name, "ms", v),
            Some((v, false)) => {
                Metric { note: "from set-up/warm-up".into(), ..metric(name, "ms", v) }
            }
            None => undefined(name, "ms", "stage never ran"),
        })
        .collect();
    let nodes = node_stats(&topo);
    let r = router_stats(&topo);
    let sum = |f: fn(&BackendStats) -> u64| nodes.iter().map(f).sum::<u64>() as f64;
    let [hits, misses, reuses, connects] = pool_counts;
    let hit_ratio = if hits + misses > 0.0 {
        ratio(hits, hits + misses)
    } else {
        let [h, m, ..] = proxy_counters(&topo)?;
        ratio(h, h + m)
    };
    // A closed loop's gaps are few per window, so its warm-up counts too.
    let warm_gaps = if w == Workload::Mixed { &[][..] } else { &warm[..] };
    let late: Vec<f64> = warm_gaps.iter().chain(&plain).map(|s| s.late_ms).collect();
    layers.extend([
        metric("storage.fsyncs_per_put", "ratio", ratio(sum(|s| s.group_commits), sum(|s| s.puts))),
        metric(
            "storage.bytes_written_per_byte",
            "ratio",
            ratio(sum(|s| s.bytes_written), r.bytes_written as f64),
        ),
        metric("storage.retries", "count", r.retries as f64),
        metric("storage.node_failures", "count", r.node_failures as f64),
        metric("storage.integrity_rejects", "count", r.integrity_rejects as f64),
        metric("net.proxy_overhead_ms", "ms", overhead),
        metric("net.upstream_reuse_ratio", "ratio", ratio(reuses, reuses + connects)),
        metric(
            "net.rejected_503",
            "count",
            topo.proxy_server_stats().rejected_503.load(Ordering::Relaxed) as f64,
        ),
        metric("proxy.cache_hit_ratio", "ratio", hit_ratio),
        metric("ledger.unattributed_ms", "ms", unattributed),
        metric("ledger.coverage", "ratio", coverage),
        metric("trace.overhead_ms", "ms", root_p50 - e2e),
        counted("gen.late_p90_ms", "ms", percentile(&late, 0.9), late.len()),
    ]);
    let shares = trace::shares(&ledgers, root);
    Ok(Outcome {
        correct: problems.is_empty(),
        problems,
        attempted: plain.len() + replayed.len(),
        failed,
        gated: Vec::new(),
        table: Vec::new(),
        layers,
        shares,
    })
}

/// Per-layer timing metrics and the span each one reads.
const STAGES: [(&str, &str); 15] = [
    ("net.serve_ms", trace::SERVE),
    ("psp.ladder_ms", "psp.ladder"),
    ("psp.fetch_ms", "psp.fetch"),
    ("jpeg.decode_coeffs_ms", "jpeg.decode_coeffs"),
    ("jpeg.encode_coeffs_ms", "jpeg.encode_coeffs"),
    ("jpeg.decode_rgb_ms", "jpeg.decode_rgb"),
    ("jpeg.decode_secret_ms", "jpeg.decode_secret"),
    ("jpeg.reencode_ms", "jpeg.reencode"),
    ("core.split_ms", "core.split"),
    ("core.reconstruct_ms", "core.reconstruct"),
    ("core.estimate_ms", "core.estimate"),
    ("crypto.seal_ms", "crypto.seal"),
    ("crypto.open_ms", "crypto.open"),
    ("storage.put_ms", "storage.put"),
    ("storage.get_ms", "storage.get"),
];

/// Names of the metrics an untraced (`false`) or traced (`true`) run
/// reports, in order; `BENCHMARK.json` must declare the same.
pub fn metric_names(trace: bool) -> Vec<&'static str> {
    if trace {
        let mut v: Vec<&str> = STAGES.iter().map(|(m, _)| *m).collect();
        v.extend([
            "storage.fsyncs_per_put",
            "storage.bytes_written_per_byte",
            "storage.retries",
            "storage.node_failures",
            "storage.integrity_rejects",
            "net.proxy_overhead_ms",
            "net.upstream_reuse_ratio",
            "net.rejected_503",
            "proxy.cache_hit_ratio",
            "ledger.unattributed_ms",
            "ledger.coverage",
            "trace.overhead_ms",
            "gen.late_p90_ms",
        ]);
        v
    } else {
        vec![
            "setup_s",
            "req_per_s",
            "p50_ms",
            "mean_ms",
            "slo_share",
            "rss_peak_mb",
            "public_psnr_db",
            "storage_overhead",
            "recon_psnr_db",
        ]
    }
}
