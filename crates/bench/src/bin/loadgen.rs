//! `loadgen` — wire-level load generator for the `tg-serve` front-end.
//!
//! Starts a real server in-process, then drives thousands of raw-TCP
//! HTTP/1.1 requests at it from concurrent client threads, round-robin
//! across three zoo fingerprints (seeds `s`, `s+1`, `s+2`). Two phases:
//!
//! 1. **steady state** — `max_conns` sized for the client count; a
//!    80/10/10 mix of `POST /score`, `POST /recommend` and `GET /stats`.
//!    Gates: 0 wrong routes (every response's fingerprint matches the
//!    request's), 0 impure responses (`/recommend` and `/score` bodies
//!    bit-identical to direct registry-free Workbench computations
//!    rendered through the same functions), and sane p50/p99 latency.
//! 2. **overload** — a fresh 2-slot server with a coalescing batch
//!    window, hit with one same-key burst of concurrent `/recommend`s.
//!    Gates: at least one request shed with `503 + Retry-After`, sheds
//!    that hold the shedding thread for less than the server's drain
//!    timeout (median interval between consecutive shed replies: a shed
//!    client must not wait out the drain), at least one request coalesced
//!    onto another's pass, and every `200` still bit-identical.
//!
//! Prints one greppable `[loadgen]` summary line, writes
//! `results/BENCH_loadgen.json` (override with `TG_BENCH_JSON`), and
//! exits nonzero on any gate violation. Respects `TG_SEED`, `TG_SCALE`
//! and `TG_LOADGEN_REQUESTS` (steady-state request count, default 3000).

#![allow(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "benchmark binary: times its own run and aborts loudly on a failed step"
)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tg_bench::json::JsonObject;
use tg_serve::{recommend_body, score_body, ServeOptions, Server, DRAIN_TIMEOUT};
use tg_zoo::{Modality, ModelZoo, ZooConfig};
use transfergraph::{evaluate, EvalOptions, Strategy, Workbench, ZooRegistry};

/// Client threads in the steady-state phase.
const CLIENTS: usize = 16;
/// Concurrent connections fired in the overload burst.
const BURST: usize = 64;

fn scale_from_env() -> &'static str {
    match std::env::var("TG_SCALE").as_deref() {
        Ok("small") => "small",
        _ => "paper",
    }
}

fn requests_from_env() -> usize {
    std::env::var("TG_LOADGEN_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3000)
}

fn config_of(scale: &str, seed: u64) -> ZooConfig {
    match scale {
        "small" => ZooConfig::small(seed),
        _ => ZooConfig::paper(seed),
    }
}

/// One HTTP exchange over a fresh connection: returns (status, body,
/// elapsed micros), or `None` on a connection-level failure.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Option<(u16, String, u64)> {
    let start = Instant::now();
    let mut conn = TcpStream::connect(addr).ok()?;
    conn.write_all(raw).ok()?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply).ok()?;
    let micros = start.elapsed().as_micros() as u64;
    let status: u16 = reply.split(' ').nth(1)?.parse().ok()?;
    let body = reply.split_once("\r\n\r\n")?.1.to_string();
    Some((status, body, micros))
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn percentile(sorted_micros: &[u64], q: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_micros.len() - 1) as f64 * q).round() as usize;
    sorted_micros[idx] as f64 / 1000.0
}

/// Everything the clients need to know about one zoo fingerprint:
/// request bodies plus the expected (bit-exact) response bodies.
struct Expected {
    fingerprint: u64,
    recommend_req: String,
    recommend_body: String,
    score_req: String,
    score_body: String,
}

fn build_expected(scale: &str, seed: u64) -> Expected {
    let config = config_of(scale, seed);
    let zoo = ModelZoo::build(&config);
    let target = zoo.targets_of(Modality::Image)[0];
    let target_name = zoo.dataset(target).name.clone();
    let model = zoo.models_of(Modality::Image)[0];
    let model_name = zoo.model(model).name.clone();

    // The direct, registry-free baseline the server must match bitwise.
    let wb = Workbench::new(&zoo);
    let outcome = evaluate(
        &wb,
        &Strategy::lr_baseline(),
        target,
        &EvalOptions::default(),
    );
    let recommend = recommend_body(&zoo, config.fingerprint(), &outcome, 5).render();
    let logme = wb.logme(model, target);
    let score = score_body(config.fingerprint(), &model_name, &target_name, logme).render();

    Expected {
        fingerprint: config.fingerprint(),
        recommend_req: format!(
            r#"{{"seed": {seed}, "scale": "{scale}", "target": "{target_name}", "strategy": "lr", "top_k": 5}}"#
        ),
        recommend_body: recommend,
        score_req: format!(
            r#"{{"seed": {seed}, "scale": "{scale}", "model": "{model_name}", "target": "{target_name}"}}"#
        ),
        score_body: score,
    }
}

fn main() {
    let seed = tg_bench::seed_from_env();
    let scale = scale_from_env();
    let total = requests_from_env();

    eprintln!(
        "[loadgen] building expected responses for 3 {scale} zoos (seeds {seed}..{})",
        seed + 2
    );
    let expected: Vec<Expected> = (0..3).map(|i| build_expected(scale, seed + i)).collect();

    // ---- phase 1: steady state -------------------------------------------
    let registry = Arc::new(ZooRegistry::from_env());
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_conns: CLIENTS,
        batch_window_ms: 0,
    };
    let server = Server::start(Arc::clone(&registry), &opts).expect("bind loadgen server");
    let addr = server.local_addr();

    // Warm-up: one recommend per fingerprint so zoo builds are not
    // attributed to steady-state latency.
    let warmup_start = Instant::now();
    for exp in &expected {
        let (status, body, _) =
            exchange(addr, &post("/recommend", &exp.recommend_req)).expect("warmup exchange");
        assert_eq!(status, 200, "warmup must succeed: {body}");
    }
    let warmup_s = warmup_start.elapsed().as_secs_f64();

    let wrong_routes = AtomicUsize::new(0);
    let impure = AtomicUsize::new(0);
    let io_errors = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let mut all_latencies: Vec<Vec<u64>> = Vec::new();
    let steady_start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut latencies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return latencies;
                        }
                        let exp = &expected[i % expected.len()];
                        let (kind, raw) = match i % 10 {
                            0 => ("recommend", post("/recommend", &exp.recommend_req)),
                            9 => ("stats", b"GET /stats HTTP/1.1\r\nHost: l\r\n\r\n".to_vec()),
                            _ => ("score", post("/score", &exp.score_req)),
                        };
                        let Some((status, body, micros)) = exchange(addr, &raw) else {
                            io_errors.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        latencies.push(micros);
                        if status != 200 {
                            impure.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let expected = match kind {
                            "recommend" => Some(&exp.recommend_body),
                            "score" => Some(&exp.score_body),
                            _ => None, // /stats: structure checked at the end
                        };
                        if let Some(expected) = expected {
                            if body != *expected {
                                // A mismatched body that still carries the
                                // requested fingerprint reached the right zoo
                                // but computed something else (impurity); a
                                // body without it was routed to a wrong zoo.
                                if body.contains(&format!("{:016x}", exp.fingerprint)) {
                                    impure.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    wrong_routes.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            all_latencies.push(handle.join().expect("client thread"));
        }
    });
    let steady_s = steady_start.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = all_latencies.into_iter().flatten().collect();
    latencies.sort_unstable();
    let p50_ms = percentile(&latencies, 0.50);
    let p99_ms = percentile(&latencies, 0.99);
    let max_ms = percentile(&latencies, 1.0);
    let steady_stats = server.stats();
    server.shutdown();

    // ---- phase 2: overload ------------------------------------------------
    let overload_opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_conns: 2,
        batch_window_ms: 50,
    };
    let overload_server =
        Server::start(Arc::clone(&registry), &overload_opts).expect("bind overload server");
    let overload_addr = overload_server.local_addr();
    let burst_exp = &expected[0];

    let raw = post("/recommend", &burst_exp.recommend_req);
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| scope.spawn(|| (exchange(overload_addr, &raw), Instant::now())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst client"))
            .collect()
    });
    let (mut burst_ok, mut burst_impure, mut burst_dropped) = (0, 0, 0);
    let (mut shed_latencies, mut shed_done) = (Vec::new(), Vec::new());
    for (reply, done) in replies {
        match reply {
            Some((200, body, _)) if body == burst_exp.recommend_body => burst_ok += 1,
            Some((503, _, micros)) => {
                shed_latencies.push(micros);
                shed_done.push(done);
            }
            Some(_) => burst_impure += 1,
            None => burst_dropped += 1,
        }
    }
    shed_latencies.sort_unstable();
    let shed_p50_ms = percentile(&shed_latencies, 0.50);
    let shed_max_ms = percentile(&shed_latencies, 1.0);
    // With both slots serving, one server thread is left to accept, and
    // it sheds one connection at a time, so the interval between
    // consecutive shed replies is how long each shed held it.
    shed_done.sort_unstable();
    let mut shed_intervals: Vec<u64> = shed_done
        .windows(2)
        .map(|pair| (pair[1] - pair[0]).as_micros() as u64)
        .collect();
    shed_intervals.sort_unstable();
    let shed_hold_p50_ms = percentile(&shed_intervals, 0.50);
    let coalesce = overload_server.coalesce_stats();
    let overload_stats = overload_server.stats();
    overload_server.shutdown();

    // ---- report -----------------------------------------------------------
    let wrong = wrong_routes.load(Ordering::Relaxed);
    let impure = impure.load(Ordering::Relaxed) + burst_impure;
    let shed = shed_latencies.len();
    let registry_stats = registry.stats();
    println!(
        "[loadgen] requests={} wrong_routes={wrong} impure={impure} shed={shed} \
         shed_p50_ms={shed_p50_ms:.3} shed_hold_p50_ms={shed_hold_p50_ms:.3} coalesced={} \
         p50_ms={p50_ms:.3} p99_ms={p99_ms:.3} | {} | {}",
        latencies.len(),
        coalesce.followers,
        steady_stats.render(),
        registry_stats.render(),
    );

    let json = JsonObject::new()
        .str("scale", scale)
        .u64("seed", seed)
        .object(
            "steady",
            JsonObject::new()
                .usize("requests", latencies.len())
                .usize("clients", CLIENTS)
                .str(
                    "mix",
                    "80% POST /score, 10% POST /recommend, 10% GET /stats",
                )
                .u64("zoo_fingerprints", 3)
                .f64("warmup_s", warmup_s)
                .f64("wall_s", steady_s)
                .f64(
                    "throughput_rps",
                    latencies.len() as f64 / steady_s.max(1e-9),
                )
                .f64("p50_ms", p50_ms)
                .f64("p99_ms", p99_ms)
                .f64("max_ms", max_ms)
                .u64("served", steady_stats.served)
                .usize("io_errors", io_errors.load(Ordering::Relaxed)),
        )
        .object(
            "overload",
            JsonObject::new()
                .usize("burst", BURST)
                .usize("max_conns", overload_opts.max_conns)
                .u64("batch_window_ms", overload_opts.batch_window_ms)
                .usize("ok", burst_ok)
                .usize("shed", shed)
                .f64("shed_p50_ms", shed_p50_ms)
                .f64("shed_max_ms", shed_max_ms)
                .f64("shed_hold_p50_ms", shed_hold_p50_ms)
                .usize("dropped", burst_dropped)
                .u64("coalesce_leaders", coalesce.leaders)
                .u64("coalesce_followers", coalesce.followers)
                .u64("server_shed", overload_stats.shed),
        )
        .object(
            "correctness",
            JsonObject::new()
                .usize("wrong_routes", wrong)
                .usize("impure", impure)
                .bool("bit_identical", wrong == 0 && impure == 0),
        );
    let path =
        std::env::var("TG_BENCH_JSON").unwrap_or_else(|_| "results/BENCH_loadgen.json".into());
    if let Err(e) = std::fs::write(&path, json.render() + "\n") {
        eprintln!("[loadgen] could not write {path}: {e}");
    } else {
        eprintln!("[loadgen] wrote {path}");
    }

    let mut failed = false;
    if wrong > 0 {
        eprintln!("[loadgen] FAIL: {wrong} response(s) carried the wrong zoo fingerprint");
        failed = true;
    }
    if impure > 0 {
        eprintln!(
            "[loadgen] FAIL: {impure} response(s) diverged from the direct Workbench baseline"
        );
        failed = true;
    }
    if shed == 0 {
        eprintln!("[loadgen] FAIL: overload burst of {BURST} against 2 slots shed nothing");
        failed = true;
    }
    let drain_ms = DRAIN_TIMEOUT.as_secs_f64() * 1e3;
    if shed_hold_p50_ms >= drain_ms {
        eprintln!(
            "[loadgen] FAIL: each shed holds the shedding thread {shed_hold_p50_ms:.3}ms (median), \
             reaching the {drain_ms}ms drain timeout: shed clients wait out the server's drain"
        );
        failed = true;
    }
    if coalesce.followers == 0 {
        eprintln!("[loadgen] FAIL: same-key burst with a 50ms window coalesced nothing");
        failed = true;
    }
    if !(p50_ms > 0.0 && p50_ms < 10_000.0 && p99_ms < 60_000.0) {
        eprintln!("[loadgen] FAIL: implausible latency profile p50={p50_ms}ms p99={p99_ms}ms");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
