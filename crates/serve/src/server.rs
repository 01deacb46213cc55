//! The recommendation server: a pool of identical threads that each
//! accept and serve connections, their admission control, and the three
//! endpoint handlers.
//!
//! Threading model (DESIGN.md §5c): `max_conns + 1` threads each block in
//! `accept()` and serve the connection they accept themselves, one
//! request per connection (`Connection: close`), so a request wakes one
//! server thread. One admission lock keeps at most `max_conns`
//! connections in service and at most `max_conns` more waiting, oldest
//! first; a thread that finishes a response serves the oldest waiting
//! connection before it accepts again. Beyond that the connection is
//! shed at once with `503` + `Retry-After`, so a saturated server
//! degrades to fast rejections instead of unbounded queueing. At most
//! `max_conns` threads serve, so one is always free to accept and shed.
//!
//! Concurrent `POST /recommend` requests for the same
//! `(zoo fingerprint, target, strategy)` key coalesce into a single
//! Workbench pass via [`transfergraph::Coalescer`]; the optional batch
//! window (`TG_SERVE_BATCH_WINDOW_MS`) widens each burst.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use tg_json::{JsonObject, JsonValue};
use tg_sync::{hold_lock, unpoisoned};
use tg_zoo::{DatasetRole, Modality, ModelId, ModelZoo, ZooConfig};
use transfergraph::{
    CoalesceStats, Coalescer, EvalOptions, EvalOutcome, RegistryStats, Strategy, ZooRegistry,
};

use crate::http::{parse_request, Response};

/// Env var overriding the listen address (default `127.0.0.1:7878`).
pub const ADDR_ENV: &str = "TG_SERVE_ADDR";
/// Env var overriding the serving-slot and queue capacity (default 64).
pub const MAX_CONNS_ENV: &str = "TG_SERVE_MAX_CONNS";
/// Env var overriding the coalescing batch window in ms (default 0).
pub const BATCH_WINDOW_ENV: &str = "TG_SERVE_BATCH_WINDOW_MS";

/// Zoo seed assumed when a request body omits `"seed"`.
pub const DEFAULT_SEED: u64 = 2024;

/// Read timeout of the drain that ends a shed or `4xx` reply. The thread
/// that accepts a shed connection runs that drain itself, so a shed that
/// holds it this long means the client waited out the drain.
pub const DRAIN_TIMEOUT: Duration = Duration::from_millis(10);

/// Server configuration; every field has an env-var override.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks one).
    pub addr: String,
    /// Serving slots and queue capacity: at most `max_conns`
    /// connections are served concurrently with `max_conns` more
    /// queued; anything beyond is shed with `503`. The server runs
    /// `max_conns + 1` threads, so one is always free to accept and shed.
    pub max_conns: usize,
    /// Coalescing batch window in milliseconds: how long a pass leader
    /// waits for same-key requests to pile on before computing.
    pub batch_window_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            max_conns: 64,
            batch_window_ms: 0,
        }
    }
}

impl ServeOptions {
    /// Reads the options from `TG_SERVE_ADDR`, `TG_SERVE_MAX_CONNS`
    /// and `TG_SERVE_BATCH_WINDOW_MS`, falling back to the defaults
    /// for unset or unparseable values.
    pub fn from_env() -> ServeOptions {
        let defaults = ServeOptions::default();
        ServeOptions {
            addr: std::env::var(ADDR_ENV).unwrap_or(defaults.addr),
            max_conns: std::env::var(MAX_CONNS_ENV)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(defaults.max_conns)
                .max(1),
            batch_window_ms: std::env::var(BATCH_WINDOW_ENV)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(defaults.batch_window_ms),
        }
    }
}

/// Point-in-time server telemetry, surfaced by `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted by the listener (including ones later shed).
    pub accepted: u64,
    /// Requests that received a response from a serving thread.
    pub served: u64,
    /// Connections rejected with `503` because the queue was full.
    pub shed: u64,
    /// Responses in the `4xx` range (parse failures, bad routes, bad
    /// request bodies).
    pub client_errors: u64,
    /// Successful `POST /recommend` evaluations.
    pub recommends: u64,
    /// Successful `POST /score` evaluations.
    pub scores: u64,
}

impl ServerStats {
    /// One-line rendering for logs and run summaries.
    pub fn render(&self) -> String {
        format!(
            "serve: {} accepted, {} served, {} shed, {} client errors, {} recommends, {} scores",
            self.accepted, self.served, self.shed, self.client_errors, self.recommends, self.scores,
        )
    }
}

/// Admission state: the connections in service and the ones waiting for
/// a slot. A connection waits only while every slot is taken, and a slot
/// is given back only when nothing waits, so whenever `waiting` is
/// non-empty `serving == max_conns` and the serving threads drain it.
struct Admission {
    /// Connections in service, at most `max_conns`.
    serving: usize,
    /// Admitted connections waiting for a slot, oldest first, at most
    /// `max_conns`.
    waiting: VecDeque<TcpStream>,
}

struct Shared {
    registry: Arc<ZooRegistry>,
    coalescer: Coalescer,
    max_conns: usize,
    /// The admission lock (class `conn_queue` in tg-check.toml): held
    /// only to take or give back a slot and to queue or pop a connection,
    /// never across I/O, a wait or another lock.
    queue: Mutex<Admission>,
    running: AtomicBool,
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    client_errors: AtomicU64,
    recommends: AtomicU64,
    scores: AtomicU64,
}

impl Shared {
    /// One pool thread: accepts connections and serves the ones it admits
    /// until shutdown. The listener is upgraded only for the `accept()`
    /// call, so once `stop()` drops the server's handle it closes as soon
    /// as no thread is inside `accept()`, even while others still serve.
    fn run(&self, listener: &Weak<TcpListener>) {
        // Acquire: pairs with the Release `swap(false)` in `stop()`.
        while self.running.load(Ordering::Acquire) {
            let Some(accepted) = listener.upgrade().map(|listener| listener.accept()) else {
                break;
            };
            // Acquire: as above, so a thread woken by a shutdown connect
            // sees the flag and drops that connection unserved.
            if !self.running.load(Ordering::Acquire) {
                break;
            }
            let Ok((conn, _)) = accepted else { continue };
            // Relaxed: independent telemetry counter.
            self.accepted.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self.admit(conn) {
                self.serve(conn);
            }
        }
    }

    /// Takes a serving slot for `conn` and returns it to the caller to
    /// serve, or queues it when every slot is taken, or sheds it when the
    /// queue is full too.
    fn admit(&self, conn: TcpStream) -> Option<TcpStream> {
        {
            let _held = hold_lock();
            let mut queue = unpoisoned(self.queue.lock());
            if queue.serving < self.max_conns {
                queue.serving += 1;
                return Some(conn);
            }
            if queue.waiting.len() < self.max_conns {
                queue.waiting.push_back(conn);
                return None;
            }
        }
        self.shed_conn(conn);
        None
    }

    /// Serves `conn`, then the oldest waiting connection after each
    /// response, and gives the slot back once nothing waits. On shutdown
    /// this is what serves the queue: a connection waits only while
    /// every slot is taken, so the serving threads drain it.
    fn serve(&self, conn: TcpStream) {
        let mut next = Some(conn);
        while let Some(conn) = next {
            self.handle(conn);
            let _held = hold_lock();
            let mut queue = unpoisoned(self.queue.lock());
            next = queue.waiting.pop_front();
            if next.is_none() {
                queue.serving -= 1;
            }
        }
    }

    /// Writes the load-shed `503 + Retry-After` response from the thread
    /// that accepted the connection, outside the admission lock, and
    /// drops the connection.
    fn shed_conn(&self, conn: TcpStream) {
        // Relaxed: independent telemetry counter, read only by snapshots.
        self.shed.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort courtesy reply to a shed conn"
        )]
        let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
        let mut resp = Response::error(503, "server saturated; retry shortly");
        resp.retry_after = Some(1);
        let mut w = &conn;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort courtesy reply to a shed conn"
        )]
        let _ = resp.write_to(&mut w);
        drain_briefly(&conn);
    }

    /// Serves one connection end to end: parse, route, respond.
    fn handle(&self, conn: TcpStream) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "timeouts are defense in depth; serving without them is still correct"
        )]
        let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
        #[expect(
            clippy::let_underscore_must_use,
            reason = "timeouts are defense in depth; serving without them is still correct"
        )]
        let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));
        let response = match parse_request(&mut BufReader::new(&conn)) {
            Ok(request) => self.route(&request),
            Err(err) => Response::error(err.status(), err.message()),
        };
        if (400..500).contains(&response.status) {
            // Relaxed: independent telemetry counter.
            self.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        // Relaxed: independent telemetry counter.
        self.served.fetch_add(1, Ordering::Relaxed);
        let is_client_error = (400..500).contains(&response.status);
        let mut w = &conn;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "client may have hung up; nothing to do with a failed reply"
        )]
        let _ = response.write_to(&mut w);
        if is_client_error {
            // A 4xx may leave request bytes unread (parse errors bail
            // early); drain them so close sends FIN, not RST.
            drain_briefly(&conn);
        }
    }

    fn route(&self, request: &crate::http::Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/recommend") => self.recommend(request),
            ("POST", "/score") => self.score(request),
            ("GET", "/stats") => self.stats_response(),
            (_, "/recommend") | (_, "/score") => {
                Response::error(405, "this endpoint only accepts POST")
            }
            (_, "/stats") => Response::error(405, "this endpoint only accepts GET"),
            _ => Response::error(
                404,
                "unknown path; the server exposes POST /recommend, POST /score and GET /stats",
            ),
        }
    }

    /// `POST /recommend` — route to the requested zoo, evaluate the
    /// strategy on the target (coalescing concurrent same-key bursts)
    /// and return the full score vector plus a top-k ranking.
    fn recommend(&self, request: &crate::http::Request) -> Response {
        let json = match parse_body(request) {
            Ok(json) => json,
            Err(resp) => return resp,
        };
        let config = match zoo_config(&json) {
            Ok(config) => config,
            Err(resp) => return resp,
        };
        let strategy_name = json
            .get("strategy")
            .and_then(JsonValue::as_str)
            .unwrap_or("tg");
        let Some(strategy) = strategy_from_name(strategy_name) else {
            return Response::error(
                400,
                "unknown strategy; expected one of random, logme, history-nn, lr, lr-all-logme, tg",
            );
        };
        let Some(target_name) = json.get("target").and_then(JsonValue::as_str) else {
            return Response::error(400, "missing required string field \"target\"");
        };
        let top_k = json
            .get("top_k")
            .and_then(JsonValue::as_u64)
            .unwrap_or(5)
            .max(1) as usize;

        let handle = self.registry.get_or_build(&config);
        let zoo = handle.zoo();
        let Some(target) = zoo.find_dataset(target_name) else {
            return Response::error(400, "unknown target dataset for this zoo");
        };
        if zoo.dataset(target).role != DatasetRole::Target {
            return Response::error(400, "dataset exists but is a source, not a target");
        }

        let outcome = self
            .coalescer
            .evaluate(&handle, &strategy, target, &EvalOptions::default());
        // Relaxed: independent telemetry counter.
        self.recommends.fetch_add(1, Ordering::Relaxed);
        Response::json(
            200,
            recommend_body(zoo, config.fingerprint(), &outcome, top_k).render(),
        )
    }

    /// `POST /score` — a single (model, target) LogME transferability
    /// score straight off the zoo's shared Workbench cache.
    fn score(&self, request: &crate::http::Request) -> Response {
        let json = match parse_body(request) {
            Ok(json) => json,
            Err(resp) => return resp,
        };
        let config = match zoo_config(&json) {
            Ok(config) => config,
            Err(resp) => return resp,
        };
        let Some(model_name) = json.get("model").and_then(JsonValue::as_str) else {
            return Response::error(400, "missing required string field \"model\"");
        };
        let Some(target_name) = json.get("target").and_then(JsonValue::as_str) else {
            return Response::error(400, "missing required string field \"target\"");
        };

        let handle = self.registry.get_or_build(&config);
        let zoo = handle.zoo();
        let Some(model) = find_model(zoo, model_name) else {
            return Response::error(400, "unknown model for this zoo");
        };
        let Some(dataset) = zoo.find_dataset(target_name) else {
            return Response::error(400, "unknown target dataset for this zoo");
        };
        if zoo.model(model).modality != zoo.dataset(dataset).modality {
            return Response::error(400, "model and target modalities do not match");
        }

        let logme = handle.workbench().logme(model, dataset);
        // Relaxed: independent telemetry counter.
        self.scores.fetch_add(1, Ordering::Relaxed);
        Response::json(
            200,
            score_body(config.fingerprint(), model_name, target_name, logme).render(),
        )
    }

    /// `GET /stats` — server, coalescing and registry telemetry.
    fn stats_response(&self) -> Response {
        let stats = self.snapshot();
        let coalesce = self.coalescer.stats();
        let registry = self.registry.stats();
        Response::json(200, stats_body(&stats, &coalesce, &registry).render())
    }

    fn snapshot(&self) -> ServerStats {
        // Relaxed throughout: the counters are independent; a snapshot
        // is a monitoring convenience, not a synchronisation point.
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            recommends: self.recommends.load(Ordering::Relaxed),
            scores: self.scores.load(Ordering::Relaxed),
        }
    }
}

/// Half-closes `conn` after its response, then reads and discards any
/// request bytes still pending. The half-close sends FIN right behind
/// the response, so the client reads to EOF and closes without waiting
/// for the server. Closing a socket with unread receive data makes the
/// kernel send RST instead of FIN, which can destroy the response before
/// the client reads it; the drain reads until the client's close, so the
/// final close is orderly. A client that never closes holds the caller
/// for at most four reads of [`DRAIN_TIMEOUT`].
fn drain_briefly(conn: &TcpStream) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the half-close is best-effort; without it the drain waits out its timeout"
    )]
    let _ = conn.shutdown(Shutdown::Write);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the drain is best-effort by design; a failed timeout only shortens it"
    )]
    let _ = conn.set_read_timeout(Some(DRAIN_TIMEOUT));
    let mut sink = [0u8; 4096];
    let mut reader = conn;
    for _ in 0..4 {
        match std::io::Read::read(&mut reader, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Parses a request body as a JSON object, mapping every failure to a
/// ready-made `400` response.
fn parse_body(request: &crate::http::Request) -> Result<JsonValue, Response> {
    let body = request
        .body_utf8()
        .map_err(|e| Response::error(400, e.message()))?;
    if body.trim().is_empty() {
        return Err(Response::error(400, "empty body; expected a JSON object"));
    }
    JsonValue::parse(body).map_err(|e| Response::error(400, &format!("invalid JSON body: {e}")))
}

/// Resolves the `seed`/`scale` fields of a request body into the
/// [`ZooConfig`] the registry routes on.
fn zoo_config(json: &JsonValue) -> Result<ZooConfig, Response> {
    let seed = match json.get("seed") {
        None => DEFAULT_SEED,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| Response::error(400, "\"seed\" must be a non-negative integer"))?,
    };
    match json
        .get("scale")
        .and_then(JsonValue::as_str)
        .unwrap_or("small")
    {
        "small" => Ok(ZooConfig::small(seed)),
        "paper" => Ok(ZooConfig::paper(seed)),
        _ => Err(Response::error(
            400,
            "\"scale\" must be \"small\" or \"paper\"",
        )),
    }
}

/// Maps a wire strategy name to a [`Strategy`]. Wire names are the
/// short lower-case forms documented in DESIGN.md §5.
pub fn strategy_from_name(name: &str) -> Option<Strategy> {
    match name {
        "random" => Some(Strategy::Random),
        "logme" => Some(Strategy::LogMe),
        "history-nn" => Some(Strategy::HistoryNn),
        "lr" => Some(Strategy::lr_baseline()),
        "lr-all-logme" => Some(Strategy::lr_all_logme()),
        "tg" => Some(Strategy::transfer_graph_default()),
        _ => None,
    }
}

/// Finds a model by name across both modalities.
fn find_model(zoo: &ModelZoo, name: &str) -> Option<ModelId> {
    [Modality::Image, Modality::Text]
        .into_iter()
        .flat_map(|m| zoo.models_of(m))
        .find(|&m| zoo.model(m).name == name)
}

/// Renders the `POST /recommend` response body. Public so the loadgen
/// bench can build its expected responses through the same renderer and
/// assert bit-identity against direct Workbench evaluations.
pub fn recommend_body(
    zoo: &ModelZoo,
    fingerprint: u64,
    outcome: &EvalOutcome,
    top_k: usize,
) -> JsonObject {
    let mut order: Vec<usize> = (0..outcome.predictions.len()).collect();
    order.sort_by(|&a, &b| {
        outcome.predictions[b]
            .total_cmp(&outcome.predictions[a])
            .then(a.cmp(&b))
    });
    let k = top_k.min(order.len());
    let ranking = order[..k]
        .iter()
        .map(|&i| {
            JsonObject::new()
                .str("model", &zoo.model(outcome.models[i]).name)
                .f64("score", outcome.predictions[i])
        })
        .collect();
    JsonObject::new()
        .str("fingerprint", &format!("{fingerprint:016x}"))
        .str("target", &zoo.dataset(outcome.dataset).name)
        .str("strategy", &outcome.strategy)
        .usize("models", outcome.models.len())
        .objects("ranking", ranking)
        .f64s("scores", &outcome.predictions)
}

/// Renders the `POST /score` response body. Public for the same reason
/// as [`recommend_body`]: the loadgen bench renders its expected
/// responses through this exact function.
pub fn score_body(fingerprint: u64, model: &str, target: &str, logme: f64) -> JsonObject {
    JsonObject::new()
        .str("fingerprint", &format!("{fingerprint:016x}"))
        .str("model", model)
        .str("target", target)
        .f64("logme", logme)
}

/// Renders the `GET /stats` response body.
pub fn stats_body(
    server: &ServerStats,
    coalesce: &CoalesceStats,
    registry: &RegistryStats,
) -> JsonObject {
    JsonObject::new()
        .object(
            "server",
            JsonObject::new()
                .u64("accepted", server.accepted)
                .u64("served", server.served)
                .u64("shed", server.shed)
                .u64("client_errors", server.client_errors)
                .u64("recommends", server.recommends)
                .u64("scores", server.scores),
        )
        .object(
            "coalesce",
            JsonObject::new()
                .u64("leaders", coalesce.leaders)
                .u64("followers", coalesce.followers),
        )
        .object(
            "registry",
            JsonObject::new()
                .u64("resident", registry.resident)
                .u64("resident_bytes", registry.resident_bytes)
                .u64("route_hits", registry.route_hits)
                .u64("route_misses", registry.route_misses)
                .u64("builds", registry.builds)
                .u64("evictions", registry.evictions),
        )
}

/// A running recommendation server: `max_conns + 1` threads that each
/// accept and serve connections over a process-wide [`ZooRegistry`].
///
/// ```
/// use std::io::{Read, Write};
/// use std::sync::Arc;
/// use tg_serve::{ServeOptions, Server};
/// use transfergraph::ZooRegistry;
///
/// let opts = ServeOptions { addr: "127.0.0.1:0".into(), max_conns: 2, batch_window_ms: 0 };
/// let server = Server::start(Arc::new(ZooRegistry::from_env()), &opts).unwrap();
/// let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
/// conn.write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
/// let mut reply = String::new();
/// conn.read_to_string(&mut reply).unwrap();
/// assert!(reply.starts_with("HTTP/1.1 200 OK"));
/// server.shutdown();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    /// Keeps the listener open while the server runs; the threads hold
    /// it only inside `accept()`.
    listener: Option<Arc<TcpListener>>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `opts.addr` and starts `opts.max_conns + 1` threads that
    /// each accept and serve connections. Returns once the socket is
    /// live, or the error of a bind or of a thread the OS refused, after
    /// stopping the threads already started.
    pub fn start(registry: Arc<ZooRegistry>, opts: &ServeOptions) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(&opts.addr)?);
        let addr = listener.local_addr()?;
        let max_conns = opts.max_conns.max(1);
        let mut server = Server {
            shared: Arc::new(Shared {
                registry,
                coalescer: Coalescer::new(Duration::from_millis(opts.batch_window_ms)),
                max_conns,
                queue: Mutex::new(Admission {
                    serving: 0,
                    waiting: VecDeque::with_capacity(max_conns),
                }),
                running: AtomicBool::new(true),
                accepted: AtomicU64::new(0),
                served: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                client_errors: AtomicU64::new(0),
                recommends: AtomicU64::new(0),
                scores: AtomicU64::new(0),
            }),
            addr,
            listener: Some(Arc::clone(&listener)),
            threads: Vec::with_capacity(max_conns + 1),
        };
        for i in 0..=max_conns {
            let shared = Arc::clone(&server.shared);
            let listener = Arc::downgrade(&listener);
            let thread = std::thread::Builder::new()
                .name(format!("tg-serve-{i}"))
                .spawn(move || shared.run(&listener))?;
            server.threads.push(thread);
        }
        Ok(server)
    }

    /// The bound socket address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.snapshot()
    }

    /// Current request-coalescing counters.
    pub fn coalesce_stats(&self) -> CoalesceStats {
        self.shared.coalescer.stats()
    }

    /// Stops accepting, drains the queue, and joins every thread.
    /// Queued connections are still served before their threads exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Release: pairs with the Acquire loads in `Shared::run` so a
        // thread observes the flag after its accept() call returns.
        if self.shared.running.swap(false, Ordering::Release) {
            // Only threads inside accept() hold the listener from here on:
            // it closes when the last of them returns, even while others
            // still serve.
            self.listener = None;
            // Wake every thread that may be blocked in accept().
            for _ in 0..self.threads.len() {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a wake-up connection's only job is the accept() return; \
                              once the listener has closed there is nothing to wake"
                )]
                let _ = TcpStream::connect(self.addr);
            }
        }
        for handle in self.threads.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked thread is already dead; joining the rest matters more"
            )]
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    /// Best-effort shutdown so tests that panic still release the port.
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_and_env_names_are_stable() {
        let opts = ServeOptions::default();
        assert_eq!(opts.addr, "127.0.0.1:7878");
        assert_eq!(opts.max_conns, 64);
        assert_eq!(opts.batch_window_ms, 0);
        assert_eq!(ADDR_ENV, "TG_SERVE_ADDR");
        assert_eq!(MAX_CONNS_ENV, "TG_SERVE_MAX_CONNS");
        assert_eq!(BATCH_WINDOW_ENV, "TG_SERVE_BATCH_WINDOW_MS");
    }

    #[test]
    fn strategy_wire_names_round_trip() {
        for (name, label) in [
            ("random", "Random"),
            ("logme", "LogME"),
            ("history-nn", "HistoryNN"),
            ("lr", "LR"),
            ("tg", "TG:XGB,N2V+,all"),
        ] {
            let strategy = strategy_from_name(name).unwrap();
            assert_eq!(strategy.label(), label, "wire name {name}");
        }
        assert!(strategy_from_name("lr-all-logme").is_some());
        assert!(strategy_from_name("gradient-descent").is_none());
    }

    #[test]
    fn recommend_body_ranks_scores_descending() {
        let zoo = ModelZoo::build(&ZooConfig::small(7));
        let models = zoo.models_of(Modality::Image);
        let target = zoo.targets_of(Modality::Image)[0];
        let outcome = EvalOutcome {
            dataset: target,
            strategy: "test".to_string(),
            predictions: (0..models.len()).map(|i| i as f64 * 0.1).collect(),
            ground_truth: vec![0.0; models.len()],
            models: models.clone(),
            pearson: None,
            spearman: None,
            top5_accuracy: 0.0,
        };
        let body = recommend_body(&zoo, 0xabcd, &outcome, 3).render();
        let parsed = JsonValue::parse(&body).unwrap();
        assert_eq!(
            parsed.get("fingerprint").and_then(JsonValue::as_str),
            Some("000000000000abcd")
        );
        let ranking = parsed.get("ranking").and_then(JsonValue::as_array).unwrap();
        assert_eq!(ranking.len(), 3);
        let top = ranking[0].get("score").and_then(JsonValue::as_f64).unwrap();
        let second = ranking[1].get("score").and_then(JsonValue::as_f64).unwrap();
        assert!(top >= second, "ranking must be score-descending");
        let scores = parsed.get("scores").and_then(JsonValue::as_array).unwrap();
        assert_eq!(scores.len(), models.len());
    }

    /// End-to-end smoke over the real accept, admission, stats and
    /// shutdown paths: in debug builds every lock acquisition runs under
    /// the runtime tracker, so a served request proves that no lock is
    /// taken under another.
    #[test]
    fn server_paths_never_nest_locks() {
        use std::io::{Read, Write};

        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            max_conns: 2,
            batch_window_ms: 0,
        };
        let server = Server::start(Arc::new(ZooRegistry::from_env()), &opts).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "got: {reply}");
        server.shutdown();
    }

    #[test]
    fn stats_body_nests_all_three_sections() {
        let body = stats_body(
            &ServerStats {
                accepted: 3,
                served: 2,
                shed: 1,
                ..ServerStats::default()
            },
            &CoalesceStats::default(),
            &RegistryStats {
                resident: 2,
                evictions: 5,
                ..RegistryStats::default()
            },
        )
        .render();
        let parsed = JsonValue::parse(&body).unwrap();
        for section in ["server", "coalesce", "registry"] {
            assert!(parsed.get(section).is_some(), "missing section {section}");
        }
        assert!(parsed.get("shard").is_none());
        let field = |section: &str, name: &str| {
            parsed
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(JsonValue::as_u64)
        };
        assert_eq!(field("server", "shed"), Some(1));
        assert_eq!(field("registry", "resident"), Some(2));
        assert_eq!(field("registry", "evictions"), Some(5));
    }
}
