//! `serve_mix` and `zoo_churn`: closed-loop HTTP load from two client
//! connections against an in-process `tg-serve` with two workers on an
//! ephemeral loopback port. The request sequence is fixed by the seed:
//! in every block of ten, eight `POST /score`, one `POST /recommend`
//! (`"strategy": "lr"`) and one `GET /stats`, shuffled, round-robin over
//! the zoo fingerprints.
//!
//! * `serve_mix` serves three resident `ZooConfig::small` zoos from the
//!   memory tier. A request costs 0.1–0.5 ms of compute, so its latency is
//!   mostly `tg-serve` accept/parse/write, `tg-json`, registry route hits
//!   and `Workbench` cache hits; graph learning does nothing. Small zoos
//!   keep it that way: on paper-scale zoos the memory-bound `/recommend`
//!   regression took 60% of all client time, and throughput swung up to
//!   twofold between runs on a shared 2-vCPU host.
//! * `zoo_churn` cycles four paper-scale zoos through a registry bounded to
//!   two residents with an artifact directory, so nearly every routed
//!   request pays `ModelZoo::build`, a TGARTv2 warm (reads) and a
//!   persist-on-evict merge-rewrite under the file lock (writes).
//!
//! Server worker threads cannot be wrapped from outside, so the traced run
//! replays the same sequence in-process through the public functions a
//! worker calls, with a span around each.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tg_json::JsonValue;
use tg_rng::Rng;
use tg_serve::http::{parse_request, Response};
use tg_serve::{recommend_body, score_body, stats_body, strategy_from_name, ServeOptions, Server};
use tg_zoo::{DatasetId, Modality, ModelId, ModelZoo, ZooConfig};
use transfergraph::{
    evaluate, ArtifactStore, Coalescer, DiskStats, EvalOptions, RegistryOptions, Stage,
    StoreOptions, Strategy, Workbench, ZooHandle, ZooRegistry,
};

use crate::answers::Answers;
use crate::report::{
    median_us, ratio, setup_layers, time_setup, timed, zoo_build_us, Layers, Outcome, Slots,
};
use crate::trace::{layer_times, merge, root_ns, Span, Tracer};
use crate::{alloc, Traced};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Mix,
    Churn,
}

impl Shape {
    fn zoos(self) -> u64 {
        match self {
            Shape::Mix => 3,
            Shape::Churn => 4,
        }
    }

    /// The `"scale"` of the zoos served.
    fn scale(self) -> &'static str {
        match self {
            Shape::Mix => "small",
            Shape::Churn => "paper",
        }
    }
}

/// The zoo a request's `"scale"` and `"seed"` name, as the server maps them.
fn zoo_config(scale: Option<&str>, seed: u64) -> ZooConfig {
    match scale {
        Some("paper") => ZooConfig::paper(seed),
        _ => ZooConfig::small(seed),
    }
}

/// Client connections, and the server's `max_conns` (its worker count):
/// one per core of the 2-vCPU reference host.
const CLIENTS: usize = 2;
const TOP_K: usize = 5;
/// Resident-zoo bound of `zoo_churn`: half its fingerprints.
const CHURN_RESIDENT: usize = 2;

pub struct Size {
    pub requests: usize,
    /// Setup repetitions before the timed phase, and again after it.
    pub setups: usize,
    /// Distinct `/score` (model, target) pairs per zoo.
    pub score_picks: usize,
    /// Distinct `/recommend` targets per zoo.
    pub recommend_picks: usize,
    /// Alters one expected body, to prove the check fires.
    pub corrupt: bool,
}

impl Size {
    /// Nominal closed-loop rates on the reference host: ~9,000 req/s from
    /// memory, ~800 req/s when routed requests find their zoo evicted.
    pub fn for_seconds(shape: Shape, seconds: u64) -> Size {
        let rate = match shape {
            Shape::Mix => 9000,
            Shape::Churn => 800,
        };
        Size {
            requests: seconds as usize * rate,
            setups: 5,
            score_picks: 64,
            recommend_picks: 4,
            corrupt: false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Score,
    Recommend,
    Stats,
}

/// One distinct request of the plan, with the inputs of its direct
/// computation.
struct Request {
    kind: Kind,
    zoo: usize,
    model: Option<ModelId>,
    target: Option<DatasetId>,
    wire: Vec<u8>,
}

/// The seed-derived inputs: zoo configurations, the distinct requests
/// (the last is `GET /stats`) and the request index of every operation.
struct Plan {
    configs: Vec<ZooConfig>,
    requests: Vec<Request>,
    sequence: Vec<usize>,
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn plan(shape: Shape, seed: u64, size: &Size) -> Plan {
    let scale = shape.scale();
    let configs: Vec<ZooConfig> = (0..shape.zoos())
        .map(|i| zoo_config(Some(scale), seed + i))
        .collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x7365_7276_6521);
    let mut requests = Vec::new();
    for (z, config) in configs.iter().enumerate() {
        let zoo = ModelZoo::build(config);
        let models = zoo.models_of(Modality::Image);
        let targets = zoo.targets_of(Modality::Image);
        for p in rng.sample_indices(models.len() * targets.len(), size.score_picks) {
            let (m, t) = (models[p / targets.len()], targets[p % targets.len()]);
            let body = format!(
                r#"{{"seed": {}, "scale": "{scale}", "model": "{}", "target": "{}"}}"#,
                config.seed,
                zoo.model(m).name,
                zoo.dataset(t).name
            );
            requests.push(Request {
                kind: Kind::Score,
                zoo: z,
                model: Some(m),
                target: Some(t),
                wire: post("/score", &body),
            });
        }
        for p in rng.sample_indices(targets.len(), size.recommend_picks) {
            let body = format!(
                r#"{{"seed": {}, "scale": "{scale}", "target": "{}", "strategy": "lr", "top_k": {TOP_K}}}"#,
                config.seed,
                zoo.dataset(targets[p]).name
            );
            requests.push(Request {
                kind: Kind::Recommend,
                zoo: z,
                model: None,
                target: Some(targets[p]),
                wire: post("/recommend", &body),
            });
        }
    }
    requests.push(Request {
        kind: Kind::Stats,
        zoo: 0,
        model: None,
        target: None,
        wire: b"GET /stats HTTP/1.1\r\nHost: perfbench\r\n\r\n".to_vec(),
    });

    // Fingerprints advance per routed request, so between two requests for
    // one zoo every other zoo is routed once: with two connections in
    // flight, `zoo_churn` then finds the zoo evicted whatever the timing.
    let per_zoo = size.score_picks + size.recommend_picks;
    let mut sequence = Vec::with_capacity(size.requests);
    let mut routed = 0;
    while sequence.len() < size.requests {
        let mut block = [Kind::Score; 10];
        block[0] = Kind::Recommend;
        block[1] = Kind::Stats;
        rng.shuffle(&mut block);
        for kind in block {
            let zoo = routed % configs.len();
            sequence.push(match kind {
                Kind::Score => zoo * per_zoo + rng.index(size.score_picks),
                Kind::Recommend => {
                    zoo * per_zoo + size.score_picks + rng.index(size.recommend_picks)
                }
                Kind::Stats => requests.len() - 1,
            });
            routed += usize::from(kind != Kind::Stats);
        }
    }
    sequence.truncate(size.requests);
    Plan {
        configs,
        requests,
        sequence,
    }
}

/// One HTTP exchange over a fresh connection: `(status, body)`.
fn exchange(addr: SocketAddr, wire: &[u8]) -> std::io::Result<(u16, String)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    conn.write_all(wire)?;
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply)?;
    let text = String::from_utf8(reply).map_err(|_| bad("reply is not UTF-8"))?;
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let (_, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    Ok((status, body.to_string()))
}

/// A started server with caches filled by one pass over the distinct
/// requests.
struct Live {
    registry: Arc<ZooRegistry>,
    server: Server,
    /// Each zoo's handle, taken right after its requests of the setup pass
    /// (a route hit). `serve_mix` keeps them for cache deltas; `zoo_churn`
    /// drops them once the setup counters are read.
    handles: Vec<Arc<ZooHandle>>,
}

fn setup(shape: Shape, plan: &Plan, dir: Option<PathBuf>) -> Result<Live, String> {
    let registry = Arc::new(ZooRegistry::new(RegistryOptions {
        artifact_dir: dir,
        max_zoos: (shape == Shape::Churn).then_some(CHURN_RESIDENT),
        ..RegistryOptions::default()
    }));
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_conns: CLIENTS,
        batch_window_ms: 0,
    };
    let server = Server::start(Arc::clone(&registry), &opts).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut handles = Vec::new();
    for (z, config) in plan.configs.iter().enumerate() {
        let mine = plan
            .requests
            .iter()
            .filter(|r| r.kind != Kind::Stats && r.zoo == z);
        for r in mine.chain(plan.requests.iter().filter(|r| r.kind == Kind::Stats)) {
            match exchange(addr, &r.wire) {
                Ok((200, _)) => {}
                Ok((status, body)) => return Err(format!("setup request got {status}: {body}")),
                Err(e) => return Err(format!("setup request failed: {e}")),
            }
        }
        handles.push(registry.get_or_build(config));
    }
    Ok(Live {
        registry,
        server,
        handles,
    })
}

struct Drive {
    wall: Duration,
    answers: Answers<String>,
    bad_status: u64,
    io_errors: u64,
    spans: Vec<Span>,
}

/// The timed phase: `CLIENTS` closed-loop connections drain the sequence,
/// recording each 200 response's latency in `slots`.
fn drive(addr: SocketAddr, plan: &Plan, slots: &Slots, trace: bool) -> Drive {
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let merged = Mutex::new(Drive {
        wall: Duration::ZERO,
        answers: Answers::new(plan.requests.len()),
        bad_status: 0,
        io_errors: 0,
        spans: Vec::new(),
    });
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut tracer = Tracer::new(epoch, trace);
                let mut answers = Answers::new(plan.requests.len());
                let (mut bad_status, mut io_errors) = (0, 0);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&key) = plan.sequence.get(i) else {
                        break;
                    };
                    let request = &plan.requests[key];
                    let start = Instant::now();
                    let reply = tracer.span("client.exchange", i as u64, |_| {
                        exchange(addr, &request.wire)
                    });
                    let took = start.elapsed();
                    match reply {
                        Ok((200, body)) => {
                            slots.record(i, took);
                            if request.kind != Kind::Stats {
                                answers.record(key, body);
                            }
                        }
                        Ok(_) => bad_status += 1,
                        Err(_) => io_errors += 1,
                    }
                }
                let mut all = merged.lock().expect("a client thread panicked");
                all.answers.merge(answers);
                all.bad_status += bad_status;
                all.io_errors += io_errors;
                merge(&mut all.spans, tracer.into_spans());
            });
        }
    });
    let mut drive = merged.into_inner().expect("a client thread panicked");
    drive.wall = epoch.elapsed();
    drive
}

/// Compares every recorded body byte-for-byte with a direct, registry-free
/// `Workbench` computation rendered through the server's body functions.
/// A differing body that lacks the requested fingerprint came from another
/// zoo: a wrong route.
fn check_bodies(plan: &Plan, answers: &Answers<String>, corrupt: bool, out: &mut Outcome) {
    let opts = EvalOptions::default();
    let lr = Strategy::lr_baseline();
    let (mut impure, mut wrong_routes) = (0, 0);
    let mut corrupt_next = corrupt;
    for (z, config) in plan.configs.iter().enumerate() {
        let zoo = ModelZoo::build(config);
        let wb = Workbench::new(&zoo);
        let fp = config.fingerprint();
        let fp_hex = format!("{fp:016x}");
        for key in answers.keys().filter(|&k| plan.requests[k].zoo == z) {
            let request = &plan.requests[key];
            let target = request.target.expect("scored requests name a target");
            let mut expected = match request.kind {
                Kind::Score => {
                    let m = request.model.expect("/score names a model");
                    let logme = wb.logme(m, target);
                    score_body(fp, &zoo.model(m).name, &zoo.dataset(target).name, logme).render()
                }
                Kind::Recommend => {
                    recommend_body(&zoo, fp, &evaluate(&wb, &lr, target, &opts), TOP_K).render()
                }
                Kind::Stats => continue,
            };
            if std::mem::take(&mut corrupt_next) {
                expected.push(' ');
            }
            for (body, count) in answers.seen(key) {
                if *body == expected {
                } else if body.contains(&fp_hex) {
                    impure += count;
                } else {
                    wrong_routes += count;
                }
            }
        }
    }
    out.fail(
        impure,
        format!("{impure} bodies differ from the direct Workbench computation"),
    );
    out.fail(
        wrong_routes,
        format!("{wrong_routes} bodies came from a foreign fingerprint"),
    );
}

/// `zoo_churn`: no artifact file may be rejected. `corrupt` overwrites
/// one artifact file first, to prove the check fires.
fn check_store(plan: &Plan, dir: &Path, corrupt: bool, out: &mut Outcome) {
    if corrupt {
        let name = format!("{:016x}.logme.bin", plan.configs[0].fingerprint());
        std::fs::write(dir.join(name), b"not an artifact file")
            .expect("overwrite an artifact file");
    }
    for config in &plan.configs {
        let store = ArtifactStore::open(
            config.fingerprint(),
            StoreOptions::in_dir(dir).read_only(true),
        );
        let rejected = store.disk_stats().rejected;
        out.fail(
            rejected,
            format!(
                "{rejected} artifact files of {:016x} rejected",
                config.fingerprint()
            ),
        );
    }
}

/// Removes the run's artifact directories when the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(
    shape: Shape,
    seed: u64,
    size: &Size,
    trace: bool,
) -> Result<(Outcome, Option<Traced>), String> {
    let plan = plan(shape, seed, size);
    let name = match shape {
        Shape::Mix => "serve_mix",
        Shape::Churn => "zoo_churn",
    };
    let temp = TempDir(PathBuf::from(format!(
        ".perfbench/tmp/{name}-{}",
        std::process::id()
    )));
    let slots = Slots::new(plan.sequence.len());
    alloc::reset_peak();
    let mut out = Outcome::default();
    let mut live = None;
    let mut dir = None;
    let rep_dir = |rep: usize| (shape == Shape::Churn).then(|| temp.0.join(format!("setup-{rep}")));
    for rep in 0..size.setups {
        drop(live.take());
        dir = rep_dir(rep);
        live = Some(time_setup(&mut out.setups, || {
            setup(shape, &plan, dir.clone())
        })?);
    }
    let mut live = live.ok_or("no setup ran")?;
    let mut setup_counters = Layers::new();
    for handle in &live.handles {
        setup_layers(&handle.workbench().stats(), &mut setup_counters);
    }
    if shape == Shape::Churn {
        live.handles.clear();
    }

    let pass = drive(live.server.local_addr(), &plan, &slots, false);
    out.peak_heap = alloc::peak_bytes();
    out.wall = pass.wall;
    out.attempted = plan.sequence.len() as u64;
    out.latencies = slots.take();
    out.fail(
        pass.bad_status,
        format!("{} non-200 responses", pass.bad_status),
    );
    out.fail(pass.io_errors, format!("{} I/O errors", pass.io_errors));
    check_bodies(&plan, &pass.answers, size.corrupt, &mut out);
    if let Some(dir) = &dir {
        check_store(&plan, dir, size.corrupt, &mut out);
    }
    for rep in size.setups..2 * size.setups {
        drop(time_setup(&mut out.setups, || {
            setup(shape, &plan, rep_dir(rep))
        })?);
    }
    if !trace {
        return Ok((out, None));
    }
    let traced = traced_run(
        shape,
        size,
        &plan,
        &live,
        &slots,
        dir.as_deref(),
        setup_counters,
    );
    Ok((out, Some(traced)))
}

/// Cumulative counters of one handle, read outside any span.
#[derive(Clone, Copy, Default)]
struct HandleCounters {
    disk: DiskStats,
    logme: (u64, u64),
    similarity: (u64, u64),
    regression: Duration,
}

impl HandleCounters {
    fn of(handle: &ZooHandle) -> HandleCounters {
        let stats = handle.workbench().stats();
        HandleCounters {
            disk: stats.disk,
            logme: stats.logme,
            similarity: stats.similarity,
            regression: stats.stage(Stage::Regression),
        }
    }

    fn add_delta(&mut self, now: &HandleCounters, base: &HandleCounters) {
        let d = now.disk.delta_since(&base.disk);
        self.disk.hits += d.hits;
        self.disk.misses += d.misses;
        self.disk.bytes_read += d.bytes_read;
        self.disk.bytes_written += d.bytes_written;
        self.disk.rejected += d.rejected;
        self.logme.0 += now.logme.0 - base.logme.0;
        self.logme.1 += now.logme.1 - base.logme.1;
        self.similarity.0 += now.similarity.0 - base.similarity.0;
        self.similarity.1 += now.similarity.1 - base.similarity.1;
        self.regression += now.regression - base.regression;
    }
}

fn config_of(json: &JsonValue) -> ZooConfig {
    let seed = json
        .get("seed")
        .and_then(JsonValue::as_u64)
        .unwrap_or(tg_serve::DEFAULT_SEED);
    zoo_config(json.get("scale").and_then(JsonValue::as_str), seed)
}

fn find_dataset(zoo: &ModelZoo, name: &str) -> Option<DatasetId> {
    zoo.datasets.iter().find(|d| d.name == name).map(|d| d.id)
}

fn find_model(zoo: &ModelZoo, name: &str) -> Option<ModelId> {
    zoo.models.iter().find(|m| m.name == name).map(|m| m.id)
}

/// What a server worker does with one connection's bytes, through the
/// same public functions, each in its own span. Returns the response body
/// and the routed handle.
fn handle_request(
    t: &mut Tracer,
    op: u64,
    wire: &[u8],
    live: &Live,
    coalescer: &Coalescer,
) -> Result<(String, Option<Arc<ZooHandle>>), String> {
    let request = t
        .span("http.parse_request", op, |_| {
            parse_request(&mut BufReader::new(wire))
        })
        .map_err(|e| e.message().to_string())?;
    let (body, handle) = if request.method == "GET" {
        let body = t.span("serve.stats_body", op, |_| {
            stats_body(
                &live.server.stats(),
                &coalescer.stats(),
                &live.registry.stats(),
            )
        });
        (t.span("json.render", op, |_| body.render()), None)
    } else {
        let text = request.body_utf8().map_err(|e| e.message().to_string())?;
        let json = t
            .span("json.parse", op, |_| JsonValue::parse(text))
            .map_err(|e| e.to_string())?;
        let field = |key: &str| {
            json.get(key)
                .and_then(JsonValue::as_str)
                .ok_or(format!("no {key}"))
        };
        let config = config_of(&json);
        let handle = t.span("registry.get_or_build", op, |_| {
            live.registry.get_or_build(&config)
        });
        let zoo = handle.zoo();
        let target_name = field("target")?;
        let target = find_dataset(zoo, target_name).ok_or("unknown target")?;
        let body = if request.path == "/score" {
            let model_name = field("model")?;
            let model = find_model(zoo, model_name).ok_or("unknown model")?;
            let logme = t.span("workbench.logme", op, |_| {
                handle.workbench().logme(model, target)
            });
            t.span("serve.score_body", op, |_| {
                score_body(config.fingerprint(), model_name, target_name, logme)
            })
        } else {
            let strategy = strategy_from_name(field("strategy")?).ok_or("unknown strategy")?;
            let top_k = json
                .get("top_k")
                .and_then(JsonValue::as_u64)
                .unwrap_or(5)
                .max(1) as usize;
            let outcome = t.span("coalesce.evaluate", op, |_| {
                coalescer.evaluate(&handle, &strategy, target, &EvalOptions::default())
            });
            t.span("serve.recommend_body", op, |_| {
                recommend_body(zoo, config.fingerprint(), &outcome, top_k)
            })
        };
        (t.span("json.render", op, |_| body.render()), Some(handle))
    };
    let response = Response::json(200, body);
    let mut sink = Vec::with_capacity(response.body.len() + 128);
    t.span("http.write_to", op, |_| response.write_to(&mut sink))
        .map_err(|e| e.to_string())?;
    Ok((response.body, handle))
}

struct Replay {
    spans: Vec<Span>,
    wall: Duration,
    handler: Vec<Duration>,
    answers: Answers<String>,
    failed: u64,
    counters: HandleCounters,
}

/// Replays the sequence on one thread through [`handle_request`]. Handle
/// counters are summed per handle as deltas from when the replay first
/// routed to it (from zero for handles the replay itself built).
fn replay(plan: &Plan, live: &Live) -> Replay {
    let coalescer = Coalescer::new(Duration::ZERO);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, true);
    let mut handler = Vec::with_capacity(plan.sequence.len());
    let mut answers = Answers::new(plan.requests.len());
    let mut failed = 0;
    let mut counters = HandleCounters::default();
    let mut current: Vec<Option<(Arc<ZooHandle>, HandleCounters)>> =
        plan.configs.iter().map(|_| None).collect();
    for (i, &key) in plan.sequence.iter().enumerate() {
        let request = &plan.requests[key];
        let builds = live.registry.stats().builds;
        let start = Instant::now();
        let result = tracer.span("worker.handle", i as u64, |t| {
            handle_request(t, i as u64, &request.wire, live, &coalescer)
        });
        handler.push(start.elapsed());
        let (body, handle) = match result {
            Ok(done) => done,
            Err(_) => {
                failed += 1;
                continue;
            }
        };
        if request.kind != Kind::Stats {
            answers.record(key, body);
        }
        let Some(handle) = handle else { continue };
        let slot = &mut current[request.zoo];
        if slot.as_ref().is_some_and(|(h, _)| Arc::ptr_eq(h, &handle)) {
            continue;
        }
        if let Some((old, base)) = slot.take() {
            counters.add_delta(&HandleCounters::of(&old), &base);
        }
        let built_here = live.registry.stats().builds > builds;
        let base = if built_here {
            HandleCounters::default()
        } else {
            HandleCounters::of(&handle)
        };
        *slot = Some((handle, base));
    }
    let wall = epoch.elapsed();
    for (handle, base) in current.into_iter().flatten() {
        counters.add_delta(&HandleCounters::of(&handle), &base);
    }
    Replay {
        spans: tracer.into_spans(),
        wall,
        handler,
        answers,
        failed,
        counters,
    }
}

fn traced_run(
    shape: Shape,
    size: &Size,
    plan: &Plan,
    live: &Live,
    slots: &Slots,
    dir: Option<&Path>,
    setup_counters: Layers,
) -> Traced {
    let registry_before = live.registry.stats();
    let server_before = live.server.stats();
    let coalesce_before = live.server.coalesce_stats();
    let handles_before: Vec<HandleCounters> =
        live.handles.iter().map(|h| HandleCounters::of(h)).collect();
    alloc::reset_peak();
    let pass = drive(live.server.local_addr(), plan, slots, true);
    let peak = alloc::peak_bytes();
    let latencies = slots.take();
    let registry_after = live.registry.stats();
    let server_after = live.server.stats();
    let coalesce_after = live.server.coalesce_stats();
    let mut wire = HandleCounters::default();
    for (h, base) in live.handles.iter().zip(&handles_before) {
        wire.add_delta(&HandleCounters::of(h), base);
    }

    let mut t_out = Outcome {
        wall: pass.wall,
        latencies,
        peak_heap: peak,
        attempted: plan.sequence.len() as u64,
        ..Outcome::default()
    };
    t_out.fail(
        pass.bad_status + pass.io_errors,
        "non-200 responses or I/O errors".into(),
    );
    check_bodies(plan, &pass.answers, size.corrupt, &mut t_out);

    let replay = replay(plan, live);
    t_out.fail(
        replay.failed,
        format!("{} replayed requests failed", replay.failed),
    );
    check_bodies(plan, &replay.answers, false, &mut t_out);
    t_out.fail(
        replay.counters.disk.rejected,
        format!(
            "{} artifact files rejected during the replay",
            replay.counters.disk.rejected
        ),
    );

    // Probes of the steps a route miss takes inside `get_or_build`.
    let mut probe = Tracer::new(Instant::now(), true);
    let zoo_build_us = zoo_build_us(&plan.configs[0], &mut probe);
    let (mut warm_us, mut persist_us) = (0.0, 0.0);
    if let Some(dir) = dir {
        let fps: Vec<u64> = plan.configs.iter().map(ZooConfig::fingerprint).collect();
        let mut k = 0;
        warm_us = median_us(4 * fps.len(), || {
            k += 1;
            let options = StoreOptions::in_dir(dir).read_only(true);
            timed(|| {
                probe.span("store.open_warm", 0, |_| {
                    ArtifactStore::open(fps[k % fps.len()], options)
                })
            })
        });
        persist_us = median_us(4 * fps.len(), || {
            k += 1;
            let store = ArtifactStore::open(fps[k % fps.len()], StoreOptions::in_dir(dir));
            timed(|| {
                probe.span("store.persist", 0, |_| {
                    store.persist().expect("persist probe")
                })
            })
        });
    }

    let ops = plan.sequence.len() as f64;
    let replay_layers = layer_times(&replay.spans);
    let layer = |name: &str| replay_layers.iter().find(|l| l.name == name).cloned();
    let layer_us =
        |name: &str| layer(name).map_or(0.0, |l| l.total_ns as f64 / 1e3 / l.count as f64);
    // The handler's own time outside every layer span it encloses.
    let handler = layer("worker.handle").expect("the replay records worker.handle spans");
    let mean_us =
        |xs: &[Duration]| xs.iter().sum::<Duration>().as_secs_f64() * 1e6 / xs.len().max(1) as f64;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let routes = (registry_after.route_hits - registry_before.route_hits)
        + (registry_after.route_misses - registry_before.route_misses);
    let followers = coalesce_after.followers - coalesce_before.followers;
    let leaders = coalesce_after.leaders - coalesce_before.leaders;
    let recommends = server_after.recommends - server_before.recommends;
    let cache = if shape == Shape::Mix {
        wire
    } else {
        replay.counters
    };
    let disk = replay.counters.disk;

    let mut layers = setup_counters;
    for (name, value) in [
        ("serve.parse_us", layer_us("http.parse_request")),
        ("serve.write_us", layer_us("http.write_to")),
        (
            "serve.transport_us",
            mean_us(&t_out.latencies) - mean_us(&replay.handler),
        ),
        (
            "serve.shed",
            (server_after.shed - server_before.shed) as f64,
        ),
        (
            "serve.client_errors",
            (server_after.client_errors - server_before.client_errors) as f64,
        ),
        ("json.parse_us", layer_us("json.parse")),
        ("json.render_us", layer_us("json.render")),
        ("registry.route_us", layer_us("registry.get_or_build")),
        (
            "registry.hit_ratio",
            share(
                registry_after.route_hits - registry_before.route_hits,
                routes,
            ),
        ),
        (
            "registry.builds_per_op",
            (registry_after.builds - registry_before.builds) as f64 / ops,
        ),
        (
            "registry.evictions_per_op",
            (registry_after.evictions - registry_before.evictions) as f64 / ops,
        ),
        (
            "registry.resident_mb",
            registry_after.resident_bytes as f64 / 1e6,
        ),
        ("coalesce.evaluate_us", layer_us("coalesce.evaluate")),
        (
            "coalesce.follower_ratio",
            share(followers, followers + leaders),
        ),
        ("zoo.build_us", zoo_build_us),
        ("store.warm_us", warm_us),
        ("store.bytes_read", disk.bytes_read as f64 / ops),
        (
            "store.disk_hit_ratio",
            share(disk.hits, disk.hits + disk.misses),
        ),
        ("store.persist_us", persist_us),
        ("store.bytes_written", disk.bytes_written as f64 / ops),
        ("store.rejected", disk.rejected as f64),
        (
            "artifacts.logme_hit_ratio",
            ratio(cache.logme.0, cache.logme.1),
        ),
        (
            "artifacts.sim_hit_ratio",
            ratio(cache.similarity.0, cache.similarity.1),
        ),
        (
            "evaluate.regression_ms",
            if shape == Shape::Mix {
                wire.regression.as_secs_f64() * 1e3 / recommends.max(1) as f64
            } else {
                0.0
            },
        ),
        (
            "trace.unattributed_pct",
            100.0 * handler.self_ns as f64 / handler.total_ns.max(1) as f64,
        ),
    ] {
        layers.insert(name, value);
    }
    let wire_outside =
        1.0 - root_ns(&pass.spans) as f64 / (pass.wall.as_nanos() as f64 * CLIENTS as f64);
    let mut spans = pass.spans;
    merge(&mut spans, replay.spans);
    merge(&mut spans, probe.into_spans());
    let notes = vec![
        format!(
            "replay: {} requests on 1 thread in {:.3} s, mean handler {:.1} us; wire: mean client latency {:.1} us",
            plan.sequence.len(),
            replay.wall.as_secs_f64(),
            mean_us(&replay.handler),
            mean_us(&t_out.latencies),
        ),
        format!(
            "wire pass: {:.1}% of client thread time outside client.exchange spans",
            100.0 * wire_outside
        ),
    ];
    Traced {
        timed: t_out,
        layers,
        spans,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(corrupt: bool) -> Size {
        Size {
            requests: 120,
            setups: 1,
            score_picks: 3,
            recommend_picks: 2,
            corrupt,
        }
    }

    fn smoke(shape: Shape) {
        let (out, traced) = run(shape, 9, &tiny(false), true).expect("the server starts");
        let traced = traced.expect("a traced run");
        assert_eq!(
            (out.attempted, out.failed, traced.timed.failed),
            (120, 0, 0),
            "{:?}",
            out.failures
        );
        assert_eq!(traced.layers["serve.shed"], 0.0);
        let (out, _) = run(shape, 9, &tiny(true), false).expect("the server starts");
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("differ from the direct")),
            "{:?}",
            out.failures
        );
        if shape == Shape::Churn {
            assert!(
                out.failures.iter().any(|f| f.contains("rejected")),
                "{:?}",
                out.failures
            );
        }
    }

    #[test]
    fn serve_mix_smoke_run_passes_and_its_check_fires_on_a_corrupted_expected_value() {
        smoke(Shape::Mix);
    }

    #[test]
    fn zoo_churn_smoke_run_passes_and_its_checks_fire_on_corrupted_expected_values() {
        smoke(Shape::Churn);
    }

    #[test]
    fn churn_sequence_routes_round_robin_over_routed_requests() {
        let size = tiny(false);
        let plan = plan(Shape::Churn, 3, &size);
        let zoos: Vec<usize> = plan
            .sequence
            .iter()
            .map(|&k| &plan.requests[k])
            .filter(|r| r.kind != Kind::Stats)
            .map(|r| r.zoo)
            .collect();
        assert!(zoos.iter().enumerate().all(|(i, &z)| z == i % 4));
        let stats = plan
            .sequence
            .iter()
            .filter(|&&k| plan.requests[k].kind == Kind::Stats)
            .count();
        assert_eq!(stats, 12);
    }
}
