//! The two ways a request is executed.
//!
//! * Untraced: over HTTP through the real proxy.
//! * Traced: over HTTP through a replaying proxy — the same `p3_net`
//!   server and upstream pool the proxy runs on, with a handler that
//!   takes each request's proxy-side steps itself, in the order
//!   `p3_net::proxy::handle_upload` / `handle_download` / `forward` take
//!   them, and times every step as a span: each codec, core and crypto
//!   call in-process, and each call to the PSP or the storage router
//!   over the pooled upstream connection, as the proxy makes it.

use crate::client::Conn;
use crate::corpus::Rendition;
use crate::topology::{MASTER_KEY, REENCODE_QUALITY};
use crate::trace::{Open, Spans, HANDLER};
use crate::workload::Kind;
use p3_core::container::SecretContainer;
use p3_core::pipeline::P3Config;
use p3_crypto::EnvelopeKey;
use p3_net::client::DEFAULT_MAX_IDLE_PER_HOST;
use p3_net::proxy::{default_estimator, TransformEstimator};
use p3_net::{
    ClientPool, Deadlines, Method, ReactorTransport, Request, Response, Server, ServerConfig,
    StatusCode,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};

/// One client request.
#[derive(Debug, Clone, Copy)]
pub enum Req<'a> {
    /// `POST /photos` with a JPEG body.
    Upload(&'a [u8]),
    /// `GET /photos/{id}?size=...`.
    View(&'a str, Rendition),
    /// A non-photo request the proxy forwards untouched.
    Forward(&'a str),
}

impl Req<'_> {
    fn to_request(self) -> Request {
        match self {
            Req::Upload(jpeg) => {
                let mut r = Request::new(Method::Post, "/photos", jpeg.to_vec());
                r.headers.set("content-type", "image/jpeg");
                r
            }
            Req::View(id, size) => Request::new(
                Method::Get,
                &format!("/photos/{id}?size={}", size.query()),
                Vec::new(),
            ),
            Req::Forward(target) => Request::new(Method::Get, target, Vec::new()),
        }
    }

    fn kind(self) -> Kind {
        match self {
            Req::Upload(_) => Kind::Upload,
            Req::View(..) => Kind::View,
            Req::Forward(_) => Kind::Forward,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub trait Exec: Send {
    fn exec(&mut self, req: Req<'_>) -> Result<Reply, String>;
}

/// Sends requests to `addr` over one keep-alive connection.
pub struct HttpExec(Conn);

impl HttpExec {
    pub fn new(addr: SocketAddr) -> HttpExec {
        HttpExec(Conn::new(addr))
    }
}

impl Exec for HttpExec {
    fn exec(&mut self, req: Req<'_>) -> Result<Reply, String> {
        let resp = self.0.send(req.to_request())?;
        Ok(Reply { status: resp.status.0, body: resp.body })
    }
}

/// Header carrying the client's root span id to the replaying handler.
const SPAN_HEADER: &str = "x-p3-span";

/// A client of the replaying proxy: each request is a root span.
pub struct TracedClient<'a> {
    conn: Conn,
    spans: &'a Spans,
}

impl<'a> TracedClient<'a> {
    pub fn new(addr: SocketAddr, spans: &'a Spans) -> TracedClient<'a> {
        TracedClient { conn: Conn::new(addr), spans }
    }
}

impl Exec for TracedClient<'_> {
    fn exec(&mut self, req: Req<'_>) -> Result<Reply, String> {
        let root = self.spans.begin(req.kind().name(), None);
        let mut request = req.to_request();
        request.headers.set(SPAN_HEADER, root.id.to_string());
        let resp = self.conn.send(request);
        self.spans.end(root);
        let resp = resp?;
        Ok(Reply { status: resp.status.0, body: resp.body })
    }
}

/// What the replaying handler works with: the upstreams, the pool it
/// reaches them through, and its own secret-blob cache (the proxy's,
/// mirrored: the corpus and every upload of a run fit its 256 entries,
/// so no entry is ever evicted and a plain map behaves the same).
struct ReplayCtx {
    psp: SocketAddr,
    router: SocketAddr,
    cache: Mutex<HashMap<String, Arc<Vec<u8>>>>,
    estimator: TransformEstimator,
    codec: P3Config,
    spans: Arc<Spans>,
    pool: OnceLock<ClientPool>,
}

/// The replaying proxy: a `p3_net::Server` with the proxy's default
/// serving config whose handler replays the proxy's steps with spans.
pub struct TracedProxy {
    server: Server,
}

impl TracedProxy {
    pub fn spawn(
        psp: SocketAddr,
        router: SocketAddr,
        spans: Arc<Spans>,
    ) -> Result<TracedProxy, String> {
        let ctx = Arc::new(ReplayCtx {
            psp,
            router,
            cache: Mutex::new(HashMap::new()),
            estimator: default_estimator(),
            codec: P3Config::default(),
            spans,
            pool: OnceLock::new(),
        });
        let c = Arc::clone(&ctx);
        let server = Server::spawn_with(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(move |req: &Request| c.handle(req)),
        )
        .map_err(|e| format!("traced proxy: {e}"))?;
        // Upstream sockets ride the server's reactors, as the proxy's do.
        let transport = ReactorTransport::new(server.reactor_handles().to_vec());
        let pool = ClientPool::with_transport(
            DEFAULT_MAX_IDLE_PER_HOST,
            Arc::new(transport),
            Deadlines::default(),
        );
        let _ = ctx.pool.set(pool);
        Ok(TracedProxy { server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

impl Drop for TracedProxy {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

fn fail(status: StatusCode, e: impl std::fmt::Display) -> Response {
    Response::text(status, &e.to_string())
}

impl ReplayCtx {
    fn pool(&self) -> Result<&ClientPool, Response> {
        self.pool.get().ok_or_else(|| fail(StatusCode::SERVICE_UNAVAILABLE, "starting"))
    }

    fn handle(&self, req: &Request) -> Response {
        let parent = req.headers.get(SPAN_HEADER).and_then(|v| v.parse::<u64>().ok());
        let h = self.spans.begin(HANDLER, parent.map(|p| (p, p)));
        let is_upload = req.method == Method::Post
            && req.path == "/photos"
            && req.headers.get("content-type").is_some_and(|c| c.contains("image/jpeg"));
        let photo = req
            .path
            .strip_prefix("/photos/")
            .and_then(|rest| rest.split('/').next())
            .filter(|id| !id.is_empty() && req.method == Method::Get);
        let resp = if is_upload {
            self.upload(req, &h)
        } else if let Some(id) = photo {
            self.view(id, req, &h)
        } else {
            self.pool().map(|pool| self.forward("net.upstream", pool, req, &h))
        };
        self.spans.end(h);
        resp.unwrap_or_else(|e| e)
    }

    fn upload(&self, req: &Request, h: &Open) -> Result<Response, Response> {
        let (sp, pool) = (&self.spans, self.pool()?);
        let bad = |e: &dyn std::fmt::Display| fail(StatusCode::BAD_GATEWAY, e);
        let (coeffs, _) = sp
            .span("jpeg.decode_coeffs", h, || p3_jpeg::decode_to_coeffs(&req.body))
            .map_err(|e| bad(&e))?;
        let (public, secret, _) = sp
            .span("core.split", h, || p3_core::split::split_coeffs(&coeffs, self.codec.threshold))
            .map_err(|e| bad(&e))?;
        let encode = |ci, mode| p3_jpeg::encoder::encode_coeffs(ci, mode, 0);
        let public_jpeg = sp
            .span("jpeg.encode_coeffs", h, || encode(&public, self.codec.public_mode))
            .map_err(|e| bad(&e))?;
        let secret_jpeg = sp
            .span("jpeg.encode_coeffs", h, || encode(&secret, self.codec.secret_mode))
            .map_err(|e| bad(&e))?;
        let container = SecretContainer {
            threshold: self.codec.threshold,
            width: coeffs.width as u32,
            height: coeffs.height as u32,
            jpeg: secret_jpeg,
        };
        let mut post = Request::new(Method::Post, &req.target(), public_jpeg);
        post.headers.set("content-type", "image/jpeg");
        let psp_resp =
            sp.span("psp.ladder", h, || pool.send(self.psp, post)).map_err(|e| bad(&e))?;
        if !psp_resp.status.is_success() {
            return Ok(psp_resp);
        }
        let id = String::from_utf8_lossy(&psp_resp.body).trim().to_string();
        let blob = sp.span("crypto.seal", h, || {
            container.seal(&EnvelopeKey::derive(MASTER_KEY, id.as_bytes()))
        });
        let put = sp.span("storage.put", h, || {
            pool.put(self.router, &format!("/blobs/{id}"), "application/octet-stream", blob)
        });
        match put {
            Ok(r) if r.status.is_success() => Ok(psp_resp),
            _ => {
                let _ = pool.delete(self.psp, &format!("/photos/{id}"));
                Err(fail(StatusCode::BAD_GATEWAY, "storage put failed"))
            }
        }
    }

    /// The secret blob: from the cache, or from the router (`None` when
    /// the router has none — not a P3 photo).
    fn secret(
        &self,
        pool: &ClientPool,
        id: &str,
        h: &Open,
    ) -> Result<Option<Arc<Vec<u8>>>, Response> {
        if let Some(blob) = self.cache.lock().expect("lock holder panicked").get(id) {
            return Ok(Some(Arc::clone(blob)));
        }
        let r =
            self.spans.span("storage.get", h, || pool.get(self.router, &format!("/blobs/{id}")));
        match r {
            Ok(r) if r.status.is_success() => {
                let blob = Arc::new(r.body);
                self.cache
                    .lock()
                    .expect("lock holder panicked")
                    .insert(id.to_string(), Arc::clone(&blob));
                Ok(Some(blob))
            }
            Ok(r) if r.status == StatusCode::NOT_FOUND => Ok(None),
            _ => Err(fail(StatusCode::BAD_GATEWAY, "secret part temporarily unavailable")),
        }
    }

    fn view(&self, id: &str, req: &Request, h: &Open) -> Result<Response, Response> {
        let (sp, pool) = (&self.spans, self.pool()?);
        let bad = |e: &dyn std::fmt::Display| fail(StatusCode::INTERNAL, e);
        // As the proxy does: on a cache miss the storage GET overlaps
        // the PSP round trip.
        let (served, blob) = std::thread::scope(|s| {
            let blob = s.spawn(|| self.secret(pool, id, h));
            let served = self.forward("psp.fetch", pool, req, h);
            (served, blob.join().unwrap_or_else(|_| Err(bad(&"secret fetch panicked"))))
        });
        if !served.status.is_success()
            || !served.headers.get("content-type").is_some_and(|c| c.contains("image/jpeg"))
        {
            return Ok(served);
        }
        let Some(blob) = blob? else { return Ok(served) };
        let container = sp
            .span("crypto.open", h, || {
                SecretContainer::open(&blob, &EnvelopeKey::derive(MASTER_KEY, id.as_bytes()))
            })
            .map_err(|e| bad(&e))?;
        let served = sp
            .span("jpeg.decode_rgb", h, || p3_jpeg::decode_to_rgb(&served.body))
            .map_err(|e| bad(&e))?;
        let orig = (container.width as usize, container.height as usize);
        let transform =
            sp.span("core.estimate", h, || (self.estimator)(orig, (served.width, served.height)));
        let (secret, _) = sp
            .span("jpeg.decode_secret", h, || p3_jpeg::decode_to_coeffs(&container.jpeg))
            .map_err(|e| bad(&e))?;
        let rgb = sp
            .span("core.reconstruct", h, || {
                p3_core::reconstruct::reconstruct_processed(
                    &served,
                    &secret,
                    container.threshold,
                    &transform,
                )
            })
            .map_err(|e| bad(&e))?;
        let jpeg = sp
            .span("jpeg.reencode", h, || {
                p3_jpeg::Encoder::new()
                    .quality(REENCODE_QUALITY)
                    .subsampling(p3_jpeg::Subsampling::S444)
                    .encode_rgb(&rgb)
            })
            .map_err(|e| bad(&e))?;
        Ok(Response::ok("image/jpeg", jpeg))
    }

    /// The proxy's `forward`: the request, minus hop-by-hop headers, to
    /// the PSP over the pooled upstream connection, timed as `stage`.
    fn forward(&self, stage: &'static str, pool: &ClientPool, req: &Request, h: &Open) -> Response {
        let mut fwd = Request::new(req.method, &req.target(), req.body.clone());
        for (k, v) in req.headers.iter() {
            if !matches!(k, "host" | "connection" | "content-length" | SPAN_HEADER) {
                fwd.headers.set(k, v.to_string());
            }
        }
        self.spans
            .span(stage, h, || pool.send(self.psp, fwd))
            .unwrap_or_else(|e| fail(StatusCode::BAD_GATEWAY, e))
    }
}
