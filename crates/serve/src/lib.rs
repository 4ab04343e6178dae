//! `cc-serve`: the compression/evaluation service layer.
//!
//! A dependency-free (`std::net`) TCP daemon speaking the framed binary
//! protocol **cc-wire/2** ([`wire`]), with an acceptor → reactor shards
//! → compute pool core ([`server`], backed by `cc_par::BoundedQueue` /
//! `run_pool`) and a blocking client library ([`client`]). Each reactor
//! shard owns its connections via nonblocking sockets and blocks in
//! `poll(2)` until one of them, or its wake socket, is ready, so idle or
//! slow connections cost nothing until they move rather than a parked
//! thread; large `Compress` replies stream back in chunk-level pieces
//! before the last chunk is encoded. The `poll(2)` binding makes the
//! crate unix-only. The service exposes the repo's
//! compression pipeline over the network: compress / decompress any
//! named codec variant, run a quick-scale four-test evaluation
//! (`cc_core::evaluation`), and read live counters.
//!
//! Design invariants (DESIGN.md §11–§12):
//! - every frame decode is **total** over untrusted bytes — corrupt
//!   input yields a typed error frame or a clean close, never a panic,
//!   and allocation is bounded by bytes actually received;
//! - backpressure is explicit — accepts beyond the connection cap
//!   answer `Busy`, a full compute queue delays submission, and
//!   per-connection pending windows bound read-ahead; nothing queues
//!   unboundedly;
//! - responses echo request ids and arrive in request order, so clients
//!   may pipeline; streamed replies reassemble by concatenation;
//! - byte determinism — server responses are identical to what the
//!   sequential in-process pipeline produces, at any shard × worker
//!   count, streamed or not.

#![warn(missing_docs)]

mod archive_cache;
pub mod client;
mod poll;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError, StatsReport};
pub use server::{EvalLimits, Server, ServerConfig};
