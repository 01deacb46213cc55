//! The `tg-serve` binary: bind, print the knobs, serve forever.

use std::sync::Arc;

use tg_serve::{ServeOptions, Server};
use transfergraph::ZooRegistry;

fn main() {
    let opts = ServeOptions::from_env();
    let registry = Arc::new(ZooRegistry::from_env());
    match Server::start(registry, &opts) {
        Ok(server) => {
            println!("[tg-serve] listening on http://{}", server.local_addr());
            println!(
                "[tg-serve] max_conns={} batch_window_ms={} (override via TG_SERVE_ADDR, \
                 TG_SERVE_MAX_CONNS, TG_SERVE_BATCH_WINDOW_MS)",
                opts.max_conns, opts.batch_window_ms
            );
            println!("[tg-serve] endpoints: POST /recommend, POST /score, GET /stats");
            loop {
                std::thread::park();
            }
        }
        Err(err) => {
            eprintln!("[tg-serve] failed to start on {}: {err}", opts.addr);
            std::process::exit(1);
        }
    }
}
