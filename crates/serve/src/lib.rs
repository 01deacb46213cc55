//! # tg-serve — the recommendation server
//!
//! A hand-rolled HTTP/1.1 front-end over the process-wide
//! [`transfergraph::ZooRegistry`]: std `TcpListener`, a bounded
//! connection queue, and a fixed pool of threads that each accept and
//! serve connections — no async runtime, fully offline. The wire protocol
//! is documented in DESIGN.md §5; in short:
//!
//! | endpoint          | body                                          | returns |
//! |-------------------|-----------------------------------------------|---------|
//! | `POST /recommend` | `{seed, scale, target, strategy, top_k}`      | full score vector + top-k ranking |
//! | `POST /score`     | `{seed, scale, model, target}`                | one LogME transferability score |
//! | `GET /stats`      | —                                             | server + coalescing + registry counters |
//!
//! Concurrent `/recommend` requests for the same
//! `(zoo fingerprint, target, strategy)` coalesce into one Workbench
//! pass; when the connection queue saturates the server sheds load with
//! `503` + `Retry-After` instead of queueing without bound.
//!
//! Start one in-process (or run the `tg-serve` binary):
//!
//! ```
//! use std::sync::Arc;
//! use tg_serve::{ServeOptions, Server};
//! use transfergraph::ZooRegistry;
//!
//! let opts = ServeOptions { addr: "127.0.0.1:0".into(), max_conns: 2, batch_window_ms: 0 };
//! let server = Server::start(Arc::new(ZooRegistry::from_env()), &opts).unwrap();
//! assert_ne!(server.local_addr().port(), 0);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod http;
pub mod server;

pub use server::{
    recommend_body, score_body, stats_body, strategy_from_name, ServeOptions, Server, ServerStats,
    ADDR_ENV, BATCH_WINDOW_ENV, DEFAULT_SEED, DRAIN_TIMEOUT, MAX_CONNS_ENV,
};
