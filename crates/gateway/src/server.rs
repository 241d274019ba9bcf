//! The TCP server: accept loop, bounded connection worker pool, request
//! dispatch.
//!
//! Hand-rolled over [`std::net::TcpListener`] — blocking I/O, one
//! connection per pooled worker. That is the right shape here: the
//! expensive resource is the *compute* pool inside
//! [`MultiEngine`] (already deadline-scheduled and admission-controlled),
//! so the gateway's job is only to keep slow clients from pinning
//! compute workers. It does so with a small connection pool, per-socket
//! read/write timeouts, and a bounded hand-off queue that answers `503`
//! the moment accepting another connection would mean unbounded queueing
//! — the same shed-early-and-typed philosophy as the engine's admission
//! control.
//!
//! Endpoints:
//!
//! | route                  | answer |
//! |------------------------|--------|
//! | `POST /query/{graph}`  | one query; body per [`crate::wire`], deadline via `x-deadline-ms` |
//! | `POST /batch/{graph}`  | submit-all-then-wait-all batch; item `i` uses RNG stream `rng_seed + i` |
//! | `GET /healthz`         | registry residency + scheduler liveness (`200`/`503`) |
//! | `GET /metrics`         | Prometheus text format, every serving counter |

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hk_serve::{MultiEngine, ServeError, Ticket};

use crate::http::{response_bytes, HttpLimits, Request, RequestParser};
use crate::json::Json;
use crate::metrics::{render_prometheus, GatewayMetrics};
use crate::wire;

/// Gateway sizing and socket policy.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Connection worker threads (each serves one connection at a time).
    /// Clamped to >= 1. Sized for connection concurrency, not compute —
    /// compute parallelism lives in [`hk_serve::EngineConfig::workers`].
    pub conn_workers: usize,
    /// Accepted connections waiting for a worker; beyond this, new
    /// connections get an immediate `503` and are dropped. Clamped >= 1.
    pub max_pending: usize,
    /// Per-socket read timeout — bounds how long an idle or trickling
    /// client can hold a connection worker *between* reads.
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Cumulative budget for receiving one complete request. The
    /// per-read `read_timeout` alone is defeated by a slow-loris client
    /// that drips one byte per read (each drip resets the clock); this
    /// budget runs from the first byte of a request until it parses, so
    /// a dripper is answered `408` and dropped no matter how steadily it
    /// feeds.
    pub header_deadline: Duration,
    /// Request parsing bounds.
    pub limits: HttpLimits,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            conn_workers: 4,
            max_pending: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            header_deadline: Duration::from_secs(5),
            limits: HttpLimits::default(),
        }
    }
}

struct Shared {
    engine: Arc<MultiEngine>,
    metrics: Arc<GatewayMetrics>,
    config: GatewayConfig,
    /// Accepted connections awaiting a worker.
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// A running HTTP gateway; shuts down (and joins its threads) on drop.
pub struct Gateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Gateway {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `engine`. The engine is shared — in-process callers can keep
    /// querying it directly while the gateway serves remote ones.
    pub fn start(
        engine: Arc<MultiEngine>,
        addr: &str,
        config: GatewayConfig,
    ) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            metrics: Arc::new(GatewayMetrics::new()),
            config,
            pending: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.conn_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("hk-gateway-conn-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn gateway worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("hk-gateway-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn gateway acceptor")
        };
        Ok(Gateway {
            shared,
            local_addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The gateway's own counters (bench reporting reads these).
    pub fn metrics(&self) -> &Arc<GatewayMetrics> {
        &self.shared.metrics
    }

    /// Stop accepting, drain workers, join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor blocks in `accept()`; a no-op connection wakes it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        self.shared.ready.notify_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The acceptor is gone; wake workers until every one has exited
        // (each re-checks the flag on wake).
        for h in self.workers.drain(..) {
            self.shared.ready.notify_all();
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.metrics.conn_accepted();
        let mut pending = shared.pending.lock().unwrap();
        if pending.len() >= shared.config.max_pending.max(1) {
            drop(pending);
            shared.metrics.conn_rejected();
            reject_overloaded(stream, &shared.config);
            continue;
        }
        pending.push_back(stream);
        drop(pending);
        shared.ready.notify_one();
    }
}

/// Best-effort `503` to a connection the hand-off queue cannot take.
fn reject_overloaded(mut stream: TcpStream, config: &GatewayConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let body = wire::error_body("overloaded", "gateway connection queue is full");
    let _ = stream.write_all(&response_bytes(
        503,
        "Service Unavailable",
        "application/json",
        body.as_bytes(),
        false,
    ));
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut pending = shared.pending.lock().unwrap();
            loop {
                if let Some(stream) = pending.pop_front() {
                    break stream;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                pending = shared.ready.wait(pending).unwrap();
            }
        };
        serve_connection(stream, shared);
        shared.metrics.conn_closed();
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new(shared.config.limits);
    let mut buf = [0u8; 16 << 10];
    // When the first bytes of a request arrived; the cumulative
    // `header_deadline` budget runs from here until the request parses.
    let mut request_started: Option<Instant> = None;
    loop {
        // Drain every request already buffered (pipelining) before
        // touching the socket again.
        match parser.try_next() {
            Ok(Some(req)) => {
                // The deadline budget of `x-deadline-ms` is anchored at
                // the first byte of the request, not at parse time: a
                // body dripped in slowly must spend the budget, not
                // extend it.
                let anchor = request_started.take().unwrap_or_else(Instant::now);
                let keep_alive = req.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
                let bytes = handle_request(shared, &req, keep_alive, anchor);
                if stream.write_all(&bytes).is_err() || !keep_alive {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                // Typed parse failure: answer it and close — after a
                // framing error the stream position is untrustworthy.
                let (status, reason) = e.status();
                let body = wire::error_body("malformed_request", &e.to_string());
                shared
                    .metrics
                    .record("other", status, "error", Duration::ZERO);
                let _ = stream.write_all(&response_bytes(
                    status,
                    reason,
                    "application/json",
                    body.as_bytes(),
                    false,
                ));
                return;
            }
        }
        // A partial request is buffered: the client is on the clock.
        // The budget is cumulative across reads, so a slow-loris client
        // dripping a byte per read-timeout window cannot hold this
        // worker past `header_deadline`; each read's own timeout is
        // capped to the remaining budget.
        let timeout = if parser.buffered() > 0 {
            let started = *request_started.get_or_insert_with(Instant::now);
            let elapsed = started.elapsed();
            let budget = shared.config.header_deadline;
            if elapsed >= budget {
                shared.metrics.header_timeout();
                shared.metrics.record("other", 408, "error", elapsed);
                let body = wire::error_body(
                    "header_timeout",
                    "request dripped in slower than the per-request header budget",
                );
                let _ = stream.write_all(&response_bytes(
                    408,
                    "Request Timeout",
                    "application/json",
                    body.as_bytes(),
                    false,
                ));
                return;
            }
            shared.config.read_timeout.min(budget - elapsed)
        } else {
            request_started = None;
            shared.config.read_timeout
        };
        let _ = stream.set_read_timeout(Some(timeout));
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => parser.feed(&buf[..n]),
            // Timeout, reset, shutdown poke — nothing useful to say on
            // this socket anymore.
            Err(e) => {
                // A read that timed out *inside* an open request budget
                // still answers a typed 408 before closing: the client
                // stalled, the gateway did not.
                if request_started.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    )
                {
                    shared.metrics.header_timeout();
                    shared.metrics.record("other", 408, "error", Duration::ZERO);
                    let body = wire::error_body(
                        "header_timeout",
                        "connection stalled mid-request past the read timeout",
                    );
                    let _ = stream.write_all(&response_bytes(
                        408,
                        "Request Timeout",
                        "application/json",
                        body.as_bytes(),
                        false,
                    ));
                }
                return;
            }
        }
    }
}

/// Dispatch one parsed request to its endpoint; returns the serialized
/// response and records request metrics.
fn handle_request(shared: &Shared, req: &Request, keep_alive: bool, anchor: Instant) -> Vec<u8> {
    let started = Instant::now();
    let (endpoint, outcome) = route(shared, req, anchor);
    let (status, reason, content_type, body) = match outcome {
        Ok((content_type, body)) => (200, "OK", content_type, body),
        Err(failure) => (
            failure.status,
            failure.reason,
            "application/json",
            wire::error_body(failure.code, &failure.detail),
        ),
    };
    if endpoint.name == "query" || endpoint.name == "batch" {
        let class = if status != 200 {
            "error"
        } else {
            endpoint.class
        };
        shared
            .metrics
            .record(endpoint.name, status, class, started.elapsed());
    } else {
        shared.metrics.count(endpoint.name, status);
    }
    response_bytes(status, reason, content_type, body.as_bytes(), keep_alive)
}

/// A non-2xx answer: HTTP line plus the machine-readable error body.
struct Failure {
    status: u16,
    reason: &'static str,
    code: &'static str,
    detail: String,
}

impl Failure {
    fn new(status: u16, reason: &'static str, code: &'static str, detail: String) -> Failure {
        Failure {
            status,
            reason,
            code,
            detail,
        }
    }

    fn bad_request(code: &'static str, detail: String) -> Failure {
        Failure::new(400, "Bad Request", code, detail)
    }

    fn of_serve_error(e: &ServeError) -> Failure {
        let (status, reason, code) = wire::serve_error_parts(e);
        Failure::new(status, reason, code, e.to_string())
    }
}

/// Endpoint identity for metrics: coarse name + latency class of a
/// successful answer (overridden per-response for query/batch).
struct Endpoint {
    name: &'static str,
    class: &'static str,
}

type Routed = Result<(&'static str, String), Failure>;

fn route(shared: &Shared, req: &Request, anchor: Instant) -> (Endpoint, Routed) {
    let mut endpoint = Endpoint {
        name: "other",
        class: "miss",
    };
    let outcome = (|| -> Routed {
        if let Some(graph) = req.path.strip_prefix("/query/") {
            endpoint.name = "query";
            require_post(req)?;
            let (text, class) = handle_query(shared, graph, req, anchor)?;
            endpoint.class = class;
            return Ok(("application/json", text));
        }
        if let Some(graph) = req.path.strip_prefix("/batch/") {
            endpoint.name = "batch";
            require_post(req)?;
            let (text, class) = handle_batch(shared, graph, req, anchor)?;
            endpoint.class = class;
            return Ok(("application/json", text));
        }
        match req.path.as_str() {
            "/healthz" => {
                endpoint.name = "healthz";
                require_get(req)?;
                handle_healthz(shared)
            }
            "/metrics" => {
                endpoint.name = "metrics";
                require_get(req)?;
                Ok((
                    "text/plain; version=0.0.4",
                    render_prometheus(&shared.engine, &shared.metrics),
                ))
            }
            other => Err(Failure::new(
                404,
                "Not Found",
                "unknown_endpoint",
                format!("no endpoint at {other:?}"),
            )),
        }
    })();
    (endpoint, outcome)
}

fn require_post(req: &Request) -> Result<(), Failure> {
    if req.method == "POST" {
        Ok(())
    } else {
        Err(Failure::new(
            405,
            "Method Not Allowed",
            "method_not_allowed",
            format!("{} requires POST", req.path),
        ))
    }
}

fn require_get(req: &Request) -> Result<(), Failure> {
    if req.method == "GET" {
        Ok(())
    } else {
        Err(Failure::new(
            405,
            "Method Not Allowed",
            "method_not_allowed",
            format!("{} requires GET", req.path),
        ))
    }
}

/// Parse the optional `x-deadline-ms` header into an absolute deadline
/// anchored at `anchor` — the instant the request's first bytes arrived.
/// Anchoring at parse time instead would let a client extend its compute
/// budget arbitrarily by dripping the body in slowly (the budget is
/// "from when you started asking", not "from when you finished").
fn deadline_of(req: &Request, anchor: Instant) -> Result<Option<Instant>, Failure> {
    match req.header("x-deadline-ms") {
        None => Ok(None),
        Some(v) => wire::deadline_from_header(v)
            .map(|d| Some(anchor + d))
            .map_err(|e| Failure::bad_request("invalid_deadline", e)),
    }
}

fn parse_body(req: &Request) -> Result<Json, Failure> {
    crate::json::parse(&req.body)
        .map_err(|e| Failure::bad_request("invalid_body", format!("body is not valid JSON: {e}")))
}

/// `POST /query/{graph}` — one blocking query.
fn handle_query(
    shared: &Shared,
    graph: &str,
    req: &Request,
    anchor: Instant,
) -> Result<(String, &'static str), Failure> {
    let body = parse_body(req)?;
    let mut query =
        wire::request_from_json(&body).map_err(|e| Failure::bad_request("invalid_body", e))?;
    query.deadline = deadline_of(req, anchor)?;
    let resp = shared
        .engine
        .query(graph, query)
        .map_err(|e| Failure::of_serve_error(&e))?;
    let class = match &resp.degraded {
        // A push cut short at a certificate checkpoint gets its own
        // latency class: these are the queries that previously failed
        // outright with 408, so their conversion rate is worth watching
        // separately from walk-ladder degradations.
        Some(d) if d.achieved.push_tiers_completed < d.achieved.push_tiers_planned => {
            "degraded_push"
        }
        Some(_) => "degraded",
        None => match wire::outcome_name(&resp) {
            "hit" => "hit",
            "coalesced" => "coalesced",
            "precomputed" => "precomputed",
            // `uncached` full-accuracy answers took the compute path —
            // same cost shape as a miss.
            _ => "miss",
        },
    };
    Ok((
        wire::response_json(graph, query.seed, &resp).render(),
        class,
    ))
}

/// `POST /batch/{graph}` — submit-all-then-wait-all, one answer per
/// seed, RNG stream `rng_seed + i` (the [`hk_serve::run_batch`]
/// layout, so wire answers are bit-comparable against in-process runs).
fn handle_batch(
    shared: &Shared,
    graph: &str,
    req: &Request,
    anchor: Instant,
) -> Result<(String, &'static str), Failure> {
    let body = parse_body(req)?;
    let (seeds, template) =
        wire::batch_from_json(&body).map_err(|e| Failure::bad_request("invalid_body", e))?;
    let deadline = deadline_of(req, anchor)?;
    let tickets: Vec<Result<Ticket, ServeError>> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let mut item = template;
            item.seed = seed;
            item.rng_seed = template.rng_seed + i as u64;
            item.deadline = deadline;
            shared.engine.submit(graph, item)
        })
        .collect();
    // The graph itself missing fails the whole batch (all items would
    // carry the same error); per-item failures stay inline.
    if tickets
        .iter()
        .all(|t| matches!(t, Err(ServeError::UnknownGraph(_))))
    {
        return Err(Failure::of_serve_error(&ServeError::UnknownGraph(
            graph.to_string(),
        )));
    }
    let items: Vec<_> = tickets
        .into_iter()
        .zip(seeds)
        .map(|(ticket, seed)| (seed, ticket.and_then(Ticket::wait)))
        .collect();
    let mut any_degraded = false;
    let mut any_degraded_push = false;
    let mut any_error = false;
    for (_, item) in &items {
        match item {
            Ok(resp) => {
                if let Some(d) = &resp.degraded {
                    any_degraded = true;
                    any_degraded_push |=
                        d.achieved.push_tiers_completed < d.achieved.push_tiers_planned;
                }
            }
            Err(_) => any_error = true,
        }
    }
    let class = if any_error {
        "error"
    } else if any_degraded_push {
        "degraded_push"
    } else if any_degraded {
        "degraded"
    } else {
        "miss"
    };
    Ok((wire::batch_body(graph, &items), class))
}

/// `GET /healthz` — `200` iff every configured scheduler worker is
/// alive; reports registry residency alongside.
fn handle_healthz(shared: &Shared) -> Routed {
    let engine = &shared.engine;
    let workers = engine.stats().workers;
    let live = engine.live_workers() as u64;
    let registry = engine.registry();
    let resident = registry.resident();
    let body = Json::Obj(vec![
        (
            "status".into(),
            Json::Str(
                if live == workers && workers > 0 {
                    "ok"
                } else {
                    "degraded"
                }
                .into(),
            ),
        ),
        ("workers".into(), Json::Num(workers as f64)),
        ("live_workers".into(), Json::Num(live as f64)),
        ("graphs".into(), Json::Num(registry.names().len() as f64)),
        ("resident".into(), Json::Num(resident.len() as f64)),
        (
            "resident_bytes".into(),
            Json::Num(resident.iter().map(|(_, b)| *b as u64).sum::<u64>() as f64),
        ),
    ])
    .render();
    if live == workers && workers > 0 {
        Ok(("application/json", body))
    } else {
        Err(Failure::new(
            503,
            "Service Unavailable",
            "workers_dead",
            format!("{live}/{workers} scheduler workers alive"),
        ))
    }
}
