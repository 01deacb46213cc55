//! End-to-end tests: a real server on an ephemeral port, raw TCP
//! clients, all three endpoints round-tripped, plus the overload path.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tg_json::JsonValue;
use tg_serve::{recommend_body, ServeOptions, Server, DRAIN_TIMEOUT};
use tg_zoo::{ModelZoo, ZooConfig};
use transfergraph::{evaluate, EvalOptions, Strategy, Workbench, ZooRegistry};

fn start(max_conns: usize, batch_window_ms: u64) -> Server {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_conns,
        batch_window_ms,
    };
    Server::start(Arc::new(ZooRegistry::from_env()), &opts).expect("bind ephemeral port")
}

fn send(addr: SocketAddr, raw: &[u8]) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw).expect("write request");
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("read response");
    reply
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    send(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn get(addr: SocketAddr, path: &str) -> String {
    send(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn status_of(reply: &str) -> u16 {
    reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line in {reply:?}"))
}

fn body_of(reply: &str) -> &str {
    reply.split_once("\r\n\r\n").expect("header/body split").1
}

#[test]
fn round_trips_all_three_endpoints() {
    let server = start(4, 0);
    let addr = server.local_addr();
    let zoo = ModelZoo::build(&ZooConfig::small(2024));
    let target = zoo
        .dataset(zoo.targets_of(tg_zoo::Modality::Image)[0])
        .name
        .clone();
    let model = zoo
        .model(zoo.models_of(tg_zoo::Modality::Image)[0])
        .name
        .clone();

    let reply = post(
        addr,
        "/recommend",
        &format!(
            r#"{{"seed": 2024, "scale": "small", "target": "{target}", "strategy": "lr", "top_k": 3}}"#
        ),
    );
    assert_eq!(status_of(&reply), 200, "recommend: {reply}");
    let parsed = JsonValue::parse(body_of(&reply)).expect("recommend body is JSON");
    let ranking = parsed
        .get("ranking")
        .and_then(JsonValue::as_array)
        .expect("ranking");
    assert_eq!(ranking.len(), 3);
    assert!(parsed.get("scores").and_then(JsonValue::as_array).is_some());

    let reply = post(
        addr,
        "/score",
        &format!(r#"{{"seed": 2024, "scale": "small", "model": "{model}", "target": "{target}"}}"#),
    );
    assert_eq!(status_of(&reply), 200, "score: {reply}");
    let parsed = JsonValue::parse(body_of(&reply)).expect("score body is JSON");
    let logme = parsed
        .get("logme")
        .and_then(JsonValue::as_f64)
        .expect("logme field");
    assert!(logme.is_finite());

    let reply = get(addr, "/stats");
    assert_eq!(status_of(&reply), 200, "stats: {reply}");
    let parsed = JsonValue::parse(body_of(&reply)).expect("stats body is JSON");
    let served = parsed
        .get("server")
        .and_then(|s| s.get("served"))
        .and_then(JsonValue::as_u64)
        .expect("server.served");
    assert!(
        served >= 2,
        "both prior requests must be counted, got {served}"
    );
    assert_eq!(
        parsed
            .get("server")
            .and_then(|s| s.get("recommends"))
            .and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(
        parsed
            .get("server")
            .and_then(|s| s.get("scores"))
            .and_then(JsonValue::as_u64),
        Some(1)
    );
    assert!(parsed.get("coalesce").is_some());
    assert!(parsed.get("registry").is_some());
    server.shutdown();
}

#[test]
fn recommend_response_is_bit_identical_to_direct_evaluate() {
    let server = start(2, 0);
    let addr = server.local_addr();

    let config = ZooConfig::small(7);
    let zoo = ModelZoo::build(&config);
    let target = zoo.targets_of(tg_zoo::Modality::Text)[0];
    let target_name = zoo.dataset(target).name.clone();
    let wb = Workbench::new(&zoo);
    let outcome = evaluate(
        &wb,
        &Strategy::lr_baseline(),
        target,
        &EvalOptions::default(),
    );
    let expected = recommend_body(&zoo, config.fingerprint(), &outcome, 5).render();

    let reply = post(
        addr,
        "/recommend",
        &format!(r#"{{"seed": 7, "scale": "small", "target": "{target_name}", "strategy": "lr"}}"#),
    );
    assert_eq!(status_of(&reply), 200, "recommend: {reply}");
    assert_eq!(
        body_of(&reply),
        expected,
        "server response must be bit-identical to a direct Workbench evaluation"
    );
    server.shutdown();
}

#[test]
fn coalesced_burst_returns_identical_bodies() {
    let server = start(8, 150);
    let addr = server.local_addr();
    let zoo = ModelZoo::build(&ZooConfig::small(11));
    let target = zoo
        .dataset(zoo.targets_of(tg_zoo::Modality::Image)[0])
        .name
        .clone();
    let body =
        format!(r#"{{"seed": 11, "scale": "small", "target": "{target}", "strategy": "lr"}}"#);

    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| post(addr, "/recommend", &body)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for reply in &replies {
        assert_eq!(status_of(reply), 200);
        assert_eq!(
            body_of(reply),
            body_of(&replies[0]),
            "burst must agree bitwise"
        );
    }
    let stats = server.coalesce_stats();
    assert!(
        stats.followers > 0,
        "a 150ms batch window with 4 concurrent same-key requests must coalesce, got {stats:?}"
    );
    server.shutdown();
}

#[test]
fn protocol_errors_map_to_documented_statuses() {
    let server = start(2, 0);
    let addr = server.local_addr();
    assert_eq!(status_of(&get(addr, "/nope")), 404);
    assert_eq!(status_of(&get(addr, "/recommend")), 405);
    assert_eq!(status_of(&post(addr, "/stats", "{}")), 405);
    assert_eq!(status_of(&post(addr, "/recommend", "not json")), 400);
    assert_eq!(
        status_of(&post(
            addr,
            "/recommend",
            r#"{"scale": "huge", "target": "x"}"#
        )),
        400
    );
    assert_eq!(
        status_of(&post(
            addr,
            "/recommend",
            r#"{"target": "no-such-dataset"}"#
        )),
        400
    );
    assert_eq!(
        status_of(&send(addr, b"BREW /stats HTTP/1.1\r\n\r\n")),
        405,
        "well-formed unknown methods parse and route to 405 on known paths"
    );
    assert_eq!(
        status_of(&send(addr, b"br@w /stats HTTP/1.1\r\n\r\n")),
        400,
        "malformed method tokens are rejected at the parser"
    );
    let reply = send(addr, b"GET /stats HTTP/2.0\r\n\r\n");
    assert_eq!(status_of(&reply), 400);
    server.shutdown();
}

/// Saturates a one-slot server (queue capacity one): parks a connection
/// in the slot, whose thread blocks reading it until it is dropped, and
/// fills the queue behind it. Every later connection is shed.
fn saturate(addr: SocketAddr) -> [TcpStream; 2] {
    let parked = TcpStream::connect(addr).expect("park worker");
    std::thread::sleep(Duration::from_millis(200)); // let the slot take it
    let queued = TcpStream::connect(addr).expect("fill queue");
    std::thread::sleep(Duration::from_millis(100));
    [parked, queued]
}

#[test]
fn saturated_server_sheds_with_retry_after() {
    // Watch connections to a saturated server bounce with 503 +
    // Retry-After.
    let server = start(1, 0);
    let addr = server.local_addr();
    let held = saturate(addr);

    let mut shed = 0;
    for _ in 0..5 {
        let reply = send(addr, b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
        if status_of(&reply) == 503 {
            assert!(
                reply.contains("Retry-After: 1\r\n"),
                "shed response must advertise Retry-After: {reply:?}"
            );
            shed += 1;
        }
    }
    assert!(shed > 0, "an overloaded single-worker server must shed");
    drop(held); // unblock the serving thread so shutdown joins promptly
    assert!(server.stats().shed > 0);
    server.shutdown();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the test times the shed path")]
fn sheds_never_wait_out_the_drain_timeout() {
    // The thread that accepts a shed connection writes the 503 and drains
    // the connection itself. A client still waiting for the server's FIN
    // when that drain starts stalls it for a full read timeout, and that
    // thread, the only one free to accept, with it: 20 sheds would then
    // take at least 20 drain timeouts.
    const SHEDS: u32 = 20;
    let server = start(1, 0);
    let addr = server.local_addr();
    let held = saturate(addr);

    let started = Instant::now();
    for _ in 0..SHEDS {
        let reply = get(addr, "/stats");
        assert_eq!(
            status_of(&reply),
            503,
            "a saturated server sheds: {reply:?}"
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < SHEDS * DRAIN_TIMEOUT / 2,
        "{SHEDS} sheds took {elapsed:?}; each must end well inside the {DRAIN_TIMEOUT:?} drain"
    );
    drop(held);
    assert_eq!(server.stats().shed, u64::from(SHEDS));
    server.shutdown();
}

#[test]
fn shutdown_serves_queued_connections_before_workers_exit() {
    // One serving slot, queue capacity one. Park a connection in the slot,
    // queue a request behind it, then shut down: the queued request must
    // still be answered after the listener has closed.
    let server = start(1, 0);
    let addr = server.local_addr();

    let parked = TcpStream::connect(addr).expect("park worker");
    std::thread::sleep(Duration::from_millis(200)); // let the slot take it
    let mut queued = TcpStream::connect(addr).expect("queue behind it");
    queued
        .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write queued request");
    queued
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Counted once the accepting thread is past its shutdown check for
    // this connection, so it will be queued whenever shutdown starts.
    await_accepted(&server, 2);

    let (stopped_tx, stopped) = std::sync::mpsc::channel();
    let stopping = std::thread::spawn(move || {
        server.shutdown();
        stopped_tx.send(()).expect("report shutdown");
    });
    // The listener closes once no thread is left in accept(). Release the
    // slot only then, so it reaches the queued connection after shutdown
    // began.
    while TcpStream::connect(addr).is_ok() {
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(parked);

    let mut reply = String::new();
    queued
        .read_to_string(&mut reply)
        .expect("queued request answered");
    assert_eq!(status_of(&reply), 200, "queued request: {reply:?}");
    stopped
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown returns once the queue is drained");
    stopping.join().expect("shutdown thread");
}

/// Waits until the server has counted `n` accepted connections.
fn await_accepted(server: &Server, n: u64) {
    while server.stats().accepted < n {
        std::thread::yield_now();
    }
}

/// Asserts that nothing arrives on `conn` for 200 ms.
fn assert_silent(conn: &mut TcpStream, what: &str) {
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    let mut byte = [0u8; 1];
    match conn.read(&mut byte) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("{what} must still be waiting, got {other:?}"),
    }
}

/// Reads `conn`'s whole reply to a `GET /stats`, checks its status is
/// `200` and returns the `served` count the reply carries.
fn served_in_stats_reply(mut conn: TcpStream) -> u64 {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("read reply");
    assert_eq!(status_of(&reply), 200, "queued request: {reply:?}");
    JsonValue::parse(body_of(&reply))
        .expect("stats body is JSON")
        .get("server")
        .and_then(|s| s.get("served"))
        .and_then(JsonValue::as_u64)
        .expect("server.served")
}

#[test]
fn two_slots_serve_two_queue_two_in_order_and_shed_the_fifth() {
    // `max_conns: 2`, as `serve_mix` and loadgen run it: at most two
    // connections in service, two more waiting, the fifth shed, and the
    // queue answered oldest first once a slot frees up.
    let server = start(2, 0);
    let addr = server.local_addr();

    let first_parked = TcpStream::connect(addr).expect("park slot 1");
    let second_parked = TcpStream::connect(addr).expect("park slot 2");
    await_accepted(&server, 2);
    std::thread::sleep(Duration::from_millis(200)); // let both slots take them

    let stats_request = b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut older = TcpStream::connect(addr).expect("queue the older request");
    older.write_all(stats_request).expect("write older request");
    await_accepted(&server, 3);
    let mut newer = TcpStream::connect(addr).expect("queue the newer request");
    newer.write_all(stats_request).expect("write newer request");
    await_accepted(&server, 4);
    assert_silent(&mut older, "the older queued request");
    assert_silent(&mut newer, "the newer queued request");

    let reply = get(addr, "/stats");
    assert_eq!(
        status_of(&reply),
        503,
        "a fifth connection is shed: {reply:?}"
    );
    assert!(reply.contains("Retry-After: 1\r\n"), "{reply:?}");

    // The freed slot answers the parked connection's EOF, then the older
    // request, whose stats count that one response, then the newer one.
    drop(first_parked);
    assert_eq!(
        (served_in_stats_reply(older), served_in_stats_reply(newer)),
        (1, 2),
        "one freed slot serves the queue oldest first"
    );

    drop(second_parked);
    let stats = server.stats();
    assert_eq!((stats.accepted, stats.shed), (5, 1), "{stats:?}");
    server.shutdown();
}
