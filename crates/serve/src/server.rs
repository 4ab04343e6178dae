//! The `cc-serve` daemon: acceptor → reactor shards → compute pool.
//!
//! One acceptor thread accepts TCP connections and deals them
//! round-robin to N **reactor shards**. Each shard owns its connections
//! outright: sockets are nonblocking, and a std-only poll loop drives a
//! per-connection read state machine (an incremental
//! [`wire::FrameDecoder`] sharing the total header validation with the
//! blocking path) and a write state machine (an outbound frame queue
//! with partial-write resumption — writes go out in
//! [`ServerConfig::write_chunk`]-sized slices and pick up exactly where
//! a short write left off). A shard blocks in `poll(2)` on the sockets
//! that want I/O plus its wake socket, and steps only the connections
//! that are ready, so a slow or idle connection costs nothing until its
//! socket moves, not a parked thread: concurrency is capped by
//! [`ServerConfig::max_conns`], not pool width.
//!
//! Parsed requests are handed to the compute pool (`cc_par::run_pool`
//! over a **bounded** [`cc_par::BoundedQueue`], so every worker carries
//! the nested-context guard and codec calls inside a request never fan
//! out a second thread pool). Each connection has at most one request
//! in flight at a time — pipelined requests queue on the connection and
//! submit in arrival order, which is what keeps responses in request
//! order without reorder buffers. A full compute queue is backpressure,
//! not failure: the shard retries the submit a millisecond later (nothing
//! signals when the shared queue drains) and stops reading that
//! connection once its pending window fills.
//!
//! **Waking.** Whoever posts to a shard — the acceptor handing over a
//! connection, a compute worker returning a reply or a streamed piece,
//! shutdown — pushes the message onto the shard's inbox and then writes
//! one byte to the shard's wake socket; the acceptor blocks the same way
//! on its listener and its own wake socket. A shard's poll timeout is
//! zero while a connection has used up its pass budget with work left,
//! and otherwise the time to the nearest read or write deadline.
//!
//! **Streaming replies.** A large `Compress` reply does not wait for
//! the last chunk: the handler emits the stream through
//! `compress_chunked_stream`, and every time the accumulated bytes
//! cross [`ServerConfig::stream_threshold`] a [`wire::OP_STREAM`]
//! continuation frame is posted back to the owning shard and starts
//! flowing while later chunks are still being compressed. The terminal
//! frame (the normal reply opcode) carries the remainder; the client
//! reassembles by concatenation, so the response payload stays
//! byte-identical to the sequential in-process reference at any shard ×
//! worker count — the correctness pin every loopback test enforces.
//!
//! **Admission and backpressure.** Accepts beyond `max_conns` answer a
//! typed `Busy` frame and close — bounded memory, never an unbounded
//! connection table. Inside a connection, at most [`PENDING_CAP`]
//! parsed-but-unserved requests are held before the shard stops reading
//! more bytes from that socket.
//!
//! **Timeouts.** `read_timeout` is a frame-progress deadline: a
//! complete frame must arrive within it (measured from the previous
//! frame, or accept). That single rule covers both the idle connection
//! and the slow-loris client trickling header bytes — dribbling resets
//! nothing. `write_timeout` bounds time without write progress while
//! output is queued.
//!
//! Shutdown is a graceful drain: the stop flag halts the acceptor and
//! stops shards reading; in-flight requests finish, their replies
//! flush, connections close, shards exit, and only then does the
//! compute queue close and the pool join. The `Shutdown` opcode
//! triggers the same path remotely.
//!
//! **Archives.** With an archive directory, `ArchivePut` stores a
//! validated container durably (temp file, fsync, rename, directory
//! fsync) and `FetchSlice` serves from an open-once cache of the stored
//! archives — descriptor, parsed index and decoded keyframes, keyed by
//! the held descriptor's (device, inode) — bounded by
//! [`ARCHIVE_CACHE_ENTRIES`] and [`ARCHIVE_CACHE_BYTES`].
//!
//! Every stage is instrumented through `cc-obs`: the global counters
//! (`serve.accept`, `serve.busy`, `serve.requests`, `serve.req_us`,
//! per-opcode byte counters, `archive.cache.*`, …) plus per-shard counters
//! (`serve.shard{i}.frames`, `.wakes`, `.bytes_in`, `.bytes_out`,
//! `.conns`) and a per-shard `serve.shard{i}.wake_msgs` histogram — all
//! exportable through the usual `--trace` / `TRACE.json` path.

use crate::wire::{
    self, encode_error, encode_frame, encode_span_tree, try_encode_frame, ArchivePutRequest,
    ArchivePutResponse, CompressRequest, DecompressRequest, ErrCode, EvalRequest, EvalResponse,
    FetchSliceRequest, Frame, FrameDecoder, Opcode, WireError, MAX_TELEMETRY_NODES, OP_BUSY,
    OP_ERROR, OP_STREAM, OP_TELEMETRY,
};
use crate::archive_cache::{ArchiveCache, OpenError};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use cc_archive::{ArchiveError, ArchiveReader};
use cc_obs::SpanNode;
use std::cell::RefCell;
use cc_codecs::chunked::{compress_chunked_stream, decompress_chunked};
use cc_codecs::Variant;
use cc_core::evaluation::{verdict_for, EvalConfig, Evaluation};
use cc_grid::Resolution;
use cc_model::Model;
use cc_par::BoundedQueue;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resource caps on `Evaluate` requests (each one synthesizes an
/// ensemble server-side, so untrusted parameters must be bounded).
#[derive(Debug, Clone, Copy)]
pub struct EvalLimits {
    /// Maximum ensemble size.
    pub max_members: u16,
    /// Maximum grid `ne`.
    pub max_ne: u16,
    /// Maximum vertical levels.
    pub max_nlev: u16,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits { max_members: 16, max_ne: 6, max_nlev: 8 }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Reactor shards, each owning a slice of the connections.
    pub shards: usize,
    /// Compute-pool worker threads draining the request queue.
    pub workers: usize,
    /// Bounded compute-queue depth; a full queue delays submission
    /// (backpressure by retry), it does not reject connections.
    pub queue_depth: usize,
    /// Live-connection cap; accepts beyond it answer `Busy` and close.
    pub max_conns: usize,
    /// Per-connection payload cap; larger declared frames are rejected.
    pub max_payload: usize,
    /// Requests served per connection before the server closes it.
    pub max_requests_per_conn: u64,
    /// Frame-progress deadline: a complete frame must arrive within
    /// this of the previous one (also the idle timeout, and the
    /// slow-loris kill switch — trickled bytes do not reset it).
    pub read_timeout: Duration,
    /// Write-progress deadline while output is queued.
    pub write_timeout: Duration,
    /// Replies at or above this many bytes stream as `OP_STREAM`
    /// continuation frames instead of one terminal frame.
    pub stream_threshold: usize,
    /// Largest slice handed to one socket write. Lowering it (tests use
    /// 7) forces many partial writes through the resumption path.
    pub write_chunk: usize,
    /// Caps on `Evaluate` work.
    pub eval_limits: EvalLimits,
    /// Directory holding stored `cc-arch/1` archives (`<name>.ccarch`).
    /// `None` disables `ArchivePut`/`FetchSlice` with a typed error.
    pub archive_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            workers: 2,
            queue_depth: 64,
            max_conns: 1024,
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
            max_requests_per_conn: 100_000,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            stream_threshold: 256 << 10,
            write_chunk: 64 << 10,
            eval_limits: EvalLimits::default(),
            archive_dir: None,
        }
    }
}

/// Parsed-but-unserved requests a connection may hold before its shard
/// stops reading more bytes from it (per-connection flow control).
pub const PENDING_CAP: usize = 32;

/// Stored archives kept open for `FetchSlice`: each cached archive holds
/// one file descriptor, so this bounds the descriptors the cache pins.
pub const ARCHIVE_CACHE_ENTRIES: usize = 64;

/// Budget for decoded keyframes across the cached archives, counted as
/// each admitted archive's worst case from its index (keyframes ×
/// layout elements × 4 B), so the cache's keyframe memory can never
/// exceed it. An archive larger than this alone is served uncached.
pub const ARCHIVE_CACHE_BYTES: u64 = 256 << 20;

/// Nonblocking read attempts per connection per wake (fairness bound).
const READ_PASSES: usize = 4;
/// Write slices attempted per connection per wake (fairness bound).
const WRITE_PASSES: usize = 8;
/// How soon a shard retries a submit the full compute queue refused:
/// nothing signals a shard when the shared queue drains.
const SUBMIT_RETRY: Duration = Duration::from_micros(1_000);

/// Counters registered at server start, so the `Stats` reply (and
/// `TRACE.json`) lists them before they first move; `ccc remote stats`
/// prints these as `name value` lines. `archive.cache.entries` and
/// `archive.cache.bytes` are gauges (archives held open, decoded keyframe
/// bytes resident), set each time a `Stats` reply is built and when the
/// server drains.
pub const STAT_COUNTERS: &[&str] = &[
    "serve.accept",
    "serve.busy",
    "serve.requests",
    "serve.errors",
    "serve.frame_corrupt",
    "serve.conn_closed",
    "serve.request_cap_hit",
    "serve.panic",
    "serve.queue_full_retry",
    "serve.stream.frames",
    "serve.traced_requests",
    "serve.op.ping.bytes_in",
    "serve.op.compress.bytes_in",
    "serve.op.compress.bytes_out",
    "serve.op.decompress.bytes_in",
    "serve.op.decompress.bytes_out",
    "serve.op.evaluate.bytes_in",
    "serve.op.stats.bytes_out",
    "serve.op.archive-put.bytes_in",
    "serve.op.fetch-slice.bytes_out",
    "archive.cache.hit",
    "archive.cache.miss",
    "archive.cache.evict",
    "archive.cache.entries",
    "archive.cache.bytes",
];

/// Timing context a traced request accumulates on its way to the pool
/// (all on [`cc_obs::now_ns`]'s clock).
struct JobTrace {
    /// Socket read of the frame began (decoder left a boundary).
    read_start_ns: u64,
    /// The frame completed decoding.
    decoded_ns: u64,
}

/// One parsed request travelling to the compute pool.
struct Job {
    shard: usize,
    conn: u64,
    frame: Frame,
    trace: Option<JobTrace>,
}

/// Server-side span tree parts for one traced request, posted with the
/// terminal reply; the shard closes the root after enqueueing the
/// reply so the tree also covers reply encode + enqueue.
struct ReqTelemetry {
    root_start_ns: u64,
    children: Vec<SpanNode>,
}

/// Messages a reactor shard takes from its inbox when its bell rings.
enum ShardMsg {
    /// A freshly accepted (already nonblocking) connection.
    Accept(TcpStream),
    /// A piece of a streaming reply, to go out as an `OP_STREAM` frame.
    Partial { conn: u64, req_id: u64, bytes: Vec<u8> },
    /// The terminal reply for a request; clears the in-flight slot.
    Done { conn: u64, req_id: u64, opcode: u8, payload: Vec<u8>, telemetry: Option<ReqTelemetry> },
}

/// A wake socket: any thread rings it by writing one byte, and its
/// owner polls the read end. Unread bytes keep the read end readable, so
/// a ring that finds the buffer full (`WouldBlock`) still wakes.
struct Bell {
    tx: UnixStream,
    rx: UnixStream,
}

impl Bell {
    fn new() -> std::io::Result<Bell> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Bell { tx, rx })
    }

    fn ring(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consume every pending ring.
    fn clear(&self) {
        let mut buf = [0u8; 256];
        while (&self.rx).read(&mut buf).is_ok_and(|n| n == buf.len()) {}
    }

    fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

/// A reactor shard's inbox: posted messages plus the bell announcing
/// them.
struct Inbox {
    msgs: Mutex<Vec<ShardMsg>>,
    bell: Bell,
}

impl Inbox {
    fn new() -> std::io::Result<Inbox> {
        Ok(Inbox { msgs: Mutex::new(Vec::new()), bell: Bell::new()? })
    }

    /// Queue `msg`, then ring. [`Inbox::take`] clears the bell before it
    /// takes, so every message is either taken or still rung.
    fn post(&self, msg: ShardMsg) {
        self.msgs.lock().unwrap_or_else(|p| p.into_inner()).push(msg);
        self.bell.ring();
    }

    /// Clear the bell, then take every queued message in post order.
    fn take(&self) -> Vec<ShardMsg> {
        self.bell.clear();
        std::mem::take(&mut *self.msgs.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

struct Shared {
    cfg: ServerConfig,
    stop: AtomicBool,
    queue: BoundedQueue<Job>,
    inboxes: Vec<Inbox>,
    /// Rung only by shutdown, to wake the acceptor out of its poll.
    acceptor_bell: Bell,
    conns: AtomicUsize,
    started: Instant,
    archives: ArchiveCache,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.acceptor_bell.ring();
        for inbox in &self.inboxes {
            inbox.bell.ring();
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping it triggers a graceful drain and joins
/// every thread; [`Server::shutdown`] does the same explicitly.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    pool: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Metric recording is enabled process-wide
    /// (the server's `Stats` opcode and backpressure counters are part
    /// of its contract, not an opt-in).
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        cc_obs::set_metrics_enabled(true);
        // Pre-register the contract counters so `cc-stats/1` bodies
        // (built from the registry) list them even before first
        // increment.
        for name in STAT_COUNTERS {
            cc_obs::counter(name);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let nshards = cfg.shards.max(1);
        let inboxes = (0..nshards).map(|_| Inbox::new()).collect::<std::io::Result<_>>()?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_depth),
            cfg,
            stop: AtomicBool::new(false),
            inboxes,
            acceptor_bell: Bell::new()?,
            conns: AtomicUsize::new(0),
            started: Instant::now(),
            archives: ArchiveCache::new(ARCHIVE_CACHE_ENTRIES, ARCHIVE_CACHE_BYTES),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cc-serve-acceptor".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        let mut shards = Vec::with_capacity(nshards);
        for idx in 0..nshards {
            let shared = Arc::clone(&shared);
            shards.push(
                std::thread::Builder::new()
                    .name(format!("cc-serve-shard{idx}"))
                    .spawn(move || shard_loop(idx, &shared))?,
            );
        }
        let pool = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name("cc-serve-pool".into()).spawn(move || {
                cc_par::run_pool(shared.cfg.workers, &shared.queue, |job| {
                    handle_job(job, &shared);
                });
            })?
        };
        Ok(Server { addr, shared, acceptor: Some(acceptor), shards, pool: Some(pool) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain without blocking: stop accepting and stop
    /// shards reading; in-flight requests finish and their replies
    /// flush before connections close.
    pub fn trigger_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the server has fully drained (either after
    /// [`Server::trigger_shutdown`] or a remote `Shutdown` request).
    pub fn join(mut self) {
        self.join_inner();
    }

    /// Graceful drain: trigger shutdown and join every thread.
    pub fn shutdown(mut self) {
        self.trigger_shutdown();
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        // Shards are gone, so nothing submits anymore: close the compute
        // queue (drain-then-stop) and the pool exits.
        self.shared.queue.close();
        if let Some(h) = self.pool.take() {
            let _ = h.join();
        }
        // A trace written at exit then carries the final gauges.
        self.shared.archives.publish();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    let cfg = &shared.cfg;
    let nshards = shared.inboxes.len();
    let mut next_shard = 0usize;
    let mut fds = [
        PollFd::new(listener.as_raw_fd(), POLLIN),
        PollFd::new(shared.acceptor_bell.fd(), POLLIN),
    ];
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                cc_obs::counter_inc("serve.accept");
                let _ = stream.set_nodelay(true);
                if shared.conns.load(Ordering::SeqCst) >= cfg.max_conns {
                    // Admission control: a typed Busy frame, then close.
                    cc_obs::counter_inc("serve.busy");
                    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
                    let mut stream = stream;
                    let _ = stream.write_all(&encode_frame(OP_BUSY, 0, &[]));
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                shared.inboxes[next_shard].post(ShardMsg::Accept(stream));
                next_shard = (next_shard + 1) % nshards;
            }
            // Backlog empty: sleep until a connection arrives or
            // shutdown rings the bell.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => poll::wait(&mut fds, None),
            // Errors like EMFILE leave the listener readable; back off
            // instead of spinning on it.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Per-shard interned metric handles, resolved once at shard start so
/// the poll loop never takes the registry lock.
struct ShardStats {
    frames: &'static AtomicU64,
    /// Returns from `poll(2)`, whatever woke it.
    wakes: &'static AtomicU64,
    bytes_in: &'static AtomicU64,
    bytes_out: &'static AtomicU64,
    conns: &'static AtomicU64,
    wake_msgs: &'static cc_obs::Histogram,
}

impl ShardStats {
    fn new(idx: usize) -> ShardStats {
        ShardStats {
            frames: cc_obs::counter(&format!("serve.shard{idx}.frames")),
            wakes: cc_obs::counter(&format!("serve.shard{idx}.wakes")),
            bytes_in: cc_obs::counter(&format!("serve.shard{idx}.bytes_in")),
            bytes_out: cc_obs::counter(&format!("serve.shard{idx}.bytes_out")),
            conns: cc_obs::counter(&format!("serve.shard{idx}.conns")),
            wake_msgs: cc_obs::histogram(&format!("serve.shard{idx}.wake_msgs")),
        }
    }
}

/// A parsed request waiting for compute-pool submission, with the
/// decode-side timestamps a traced request carries into its span tree.
struct Pending {
    frame: Frame,
    read_start_ns: u64,
    decoded_ns: u64,
}

/// One connection owned by a reactor shard.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// When the decoder last left a frame boundary (the decode span's
    /// start for traced requests).
    read_start_ns: u64,
    /// Parsed requests not yet submitted to the compute pool.
    pending: VecDeque<Pending>,
    /// A request of this connection is in the pool or queue (at most
    /// one — this is what keeps responses in request order).
    inflight: bool,
    /// Encoded frames awaiting write, resumed mid-buffer after short
    /// writes via `out_pos`.
    outq: VecDeque<Vec<u8>>,
    out_pos: usize,
    /// Terminal error frame to send once pending work drains, after
    /// which the connection closes.
    fatal: Option<Vec<u8>>,
    served: u64,
    /// Stop reading; serve what is pending, flush, close.
    closing: bool,
    /// Peer half-closed its write side (EOF on our reads). Pending
    /// requests still get answers — the fuzz harness half-closes after
    /// writing and then reads the response.
    read_closed: bool,
    /// Remove immediately (I/O error or deadline hit).
    dead: bool,
    /// Last frame completion (or accept): the frame-progress clock.
    last_progress: Instant,
    write_stalled_since: Option<Instant>,
    /// Step the socket on the next pass: poll reported it, a message
    /// touched it, or it used its whole pass budget with work left.
    ready: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_payload: usize) -> Conn {
        Conn {
            ready: true,
            stream,
            dec: FrameDecoder::new(max_payload),
            read_start_ns: 0,
            pending: VecDeque::new(),
            inflight: false,
            outq: VecDeque::new(),
            out_pos: 0,
            fatal: None,
            served: 0,
            closing: false,
            read_closed: false,
            dead: false,
            last_progress: Instant::now(),
            write_stalled_since: None,
        }
    }

    /// All output (including a deferred fatal frame) has left.
    fn flushed(&self) -> bool {
        self.outq.is_empty() && self.fatal.is_none()
    }

    /// No request of this connection is anywhere in the pipeline.
    fn quiesced(&self) -> bool {
        self.pending.is_empty() && !self.inflight
    }

    /// Reading is allowed: not closing, read-closed or dead, and the
    /// pending window has room.
    fn may_read(&self) -> bool {
        !(self.closing || self.read_closed || self.dead) && self.pending.len() < PENDING_CAP
    }

    /// What the next poll watches: input only while the connection may
    /// read, output only while some is queued. With neither the entry
    /// is skipped: a half-closed peer would otherwise report readable or
    /// hang-up on every poll while its request is in flight.
    fn poll_fd(&self) -> PollFd {
        let events = if self.may_read() { POLLIN } else { 0 }
            | if self.outq.is_empty() { 0 } else { POLLOUT };
        PollFd::new(if events == 0 { -1 } else { self.stream.as_raw_fd() }, events)
    }
}

fn shard_loop(idx: usize, shared: &Shared) {
    let cfg = &shared.cfg;
    let inbox = &shared.inboxes[idx];
    let stats = ShardStats::new(idx);
    // Ordered by id, so connections are stepped in accept order.
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_id = 0u64;
    let mut scratch = vec![0u8; wire::READ_CHUNK];
    let mut frames: Vec<Frame> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // `None` sleeps until a socket or the bell wakes the shard.
    let mut timeout: Option<Duration> = None;
    loop {
        fds.clear();
        fds.push(PollFd::new(inbox.bell.fd(), POLLIN));
        fds.extend(conns.values().map(Conn::poll_fd));
        poll::wait(&mut fds, timeout);
        let metrics = cc_obs::metrics_enabled();
        if metrics {
            stats.wakes.fetch_add(1, Ordering::Relaxed);
        }
        for (c, fd) in conns.values_mut().zip(&fds[1..]) {
            c.ready |= fd.ready();
        }
        // Posters ring after queueing, so a bell that was quiet when
        // polled has no message to take yet; a later ring wakes the
        // next poll.
        let msgs = if fds[0].ready() { inbox.take() } else { Vec::new() };
        if metrics && !msgs.is_empty() {
            stats.wake_msgs.observe(msgs.len() as u64);
        }
        for msg in msgs {
            match msg {
                ShardMsg::Accept(stream) => {
                    conns.insert(next_id, Conn::new(stream, cfg.max_payload));
                    next_id += 1;
                    if metrics {
                        stats.conns.fetch_add(1, Ordering::Relaxed);
                    }
                }
                ShardMsg::Partial { conn, req_id, bytes } => {
                    if let Some(c) = conns.get_mut(&conn) {
                        // A streamed piece: encode and queue immediately
                        // so it starts flowing before the terminal frame
                        // (or even the next piece) exists.
                        c.outq.push_back(encode_frame(OP_STREAM, req_id, &bytes));
                        c.ready = true;
                    }
                }
                ShardMsg::Done { conn, req_id, opcode, payload, telemetry } => {
                    if let Some(c) = conns.get_mut(&conn) {
                        c.ready = true;
                        c.inflight = false;
                        c.last_progress = Instant::now();
                        let recv_ns = cc_obs::now_ns();
                        let frame = try_encode_frame(None, opcode, req_id, &payload)
                            .unwrap_or_else(|_| {
                                encode_frame(
                                    OP_ERROR,
                                    req_id,
                                    &encode_error(
                                        ErrCode::TooLarge,
                                        "reply exceeds the frame length field",
                                    ),
                                )
                            });
                        c.outq.push_back(frame);
                        if let Some(t) = telemetry {
                            // Close the request's span tree around the
                            // reply enqueue and send it as one trailing
                            // telemetry frame, after the terminal reply.
                            let mut children = t.children;
                            let end_ns = cc_obs::now_ns();
                            children.push(SpanNode {
                                name: "srv.reply.enqueue",
                                start_ns: recv_ns,
                                dur_ns: end_ns.saturating_sub(recv_ns),
                                children: Vec::new(),
                            });
                            let mut root = SpanNode {
                                name: "srv.request",
                                start_ns: t.root_start_ns,
                                dur_ns: end_ns.saturating_sub(t.root_start_ns),
                                children,
                            };
                            // Thread-to-thread timestamp handoffs can be
                            // momentarily inconsistent; clamping restores
                            // the containment invariant cheaply.
                            cc_obs::trace::clamp_into(&mut root, t.root_start_ns, end_ns);
                            c.outq.push_back(encode_frame(
                                OP_TELEMETRY,
                                req_id,
                                &encode_span_tree(&root),
                            ));
                        }
                    }
                }
            }
        }

        let stopping = shared.stopping();
        let now = Instant::now();
        let mut reap = Vec::new();
        timeout = None;
        for (&id, c) in conns.iter_mut() {
            // Only a ready connection costs socket syscalls; submits,
            // deadlines and reaping below run for every connection.
            let step = std::mem::take(&mut c.ready);
            let mut more = step && step_read(c, &mut scratch, &mut frames, cfg, &stats, metrics);
            if stopping {
                // Draining: answer nothing new; what is in flight
                // finishes and flushes.
                c.pending.clear();
                c.closing = true;
            }
            // Submit the next pending request unless one is already in
            // flight. A full queue is backpressure — retry shortly.
            let mut refused = false;
            while !c.inflight && !c.dead {
                let Some(p) = c.pending.pop_front() else { break };
                let trace = p.frame.trace.is_some().then_some(JobTrace {
                    read_start_ns: p.read_start_ns,
                    decoded_ns: p.decoded_ns,
                });
                match shared.queue.try_push(Job { shard: idx, conn: id, frame: p.frame, trace }) {
                    Ok(depth) => {
                        cc_obs::observe("serve.queue_depth", depth as u64);
                        c.inflight = true;
                    }
                    Err(job) => {
                        cc_obs::counter_inc("serve.queue_full_retry");
                        c.pending.push_front(Pending {
                            read_start_ns: job.trace.as_ref().map_or(0, |t| t.read_start_ns),
                            decoded_ns: job.trace.as_ref().map_or(0, |t| t.decoded_ns),
                            frame: job.frame,
                        });
                        refused = true;
                        break;
                    }
                }
            }
            // A deferred fatal frame goes out only after every earlier
            // request got its reply, preserving response order.
            if c.fatal.is_some() && c.quiesced() {
                let frame = c.fatal.take().expect("fatal present");
                c.outq.push_back(frame);
                c.closing = true;
            }
            if step {
                more |= step_write(c, cfg, &stats, metrics);
            }

            // Deadlines. The frame-progress clock runs while waiting
            // for bytes (idle or mid-frame — the loris case); it pauses
            // while we owe the peer work. The write clock runs while
            // output is queued but nothing leaves.
            let waiting = (!c.dec.at_boundary() || (c.quiesced() && c.flushed()))
                && !c.read_closed;
            if waiting && now.duration_since(c.last_progress) > cfg.read_timeout {
                c.dead = true;
            }
            if let Some(t) = c.write_stalled_since {
                if now.duration_since(t) > cfg.write_timeout {
                    c.dead = true;
                }
            }

            let done_gracefully = c.quiesced() && c.flushed() && (c.closing || c.read_closed);
            if c.dead || done_gracefully {
                reap.push(id);
                continue;
            }

            // The next poll returns at once for a used-up budget, soon
            // for a refused submit, and by the nearest deadline.
            c.ready = more;
            let mut due = |d: Duration| timeout = Some(timeout.map_or(d, |t| t.min(d)));
            if more {
                due(Duration::ZERO);
            }
            if refused {
                due(SUBMIT_RETRY);
            }
            if waiting {
                due((c.last_progress + cfg.read_timeout).saturating_duration_since(now));
            }
            if let Some(t) = c.write_stalled_since {
                due((t + cfg.write_timeout).saturating_duration_since(now));
            }
        }
        for id in reap {
            conns.remove(&id);
            cc_obs::counter_inc("serve.conn_closed");
            shared.conns.fetch_sub(1, Ordering::SeqCst);
        }
        if stopping && conns.is_empty() {
            break;
        }
    }
}

/// Drain readable bytes into the connection's frame decoder and promote
/// completed frames to the pending queue, enforcing the request cap.
/// True when every pass read a full buffer, so bytes may be left.
fn step_read(
    c: &mut Conn,
    scratch: &mut [u8],
    frames: &mut Vec<Frame>,
    cfg: &ServerConfig,
    stats: &ShardStats,
    metrics: bool,
) -> bool {
    if !c.may_read() {
        return false;
    }
    let mut more = false;
    for _ in 0..READ_PASSES {
        more = false;
        let at_boundary = c.dec.at_boundary();
        match (&c.stream).read(scratch) {
            Ok(0) => {
                c.read_closed = true;
                if !c.dec.at_boundary() {
                    // EOF inside a frame: same truncation error the
                    // blocking path reported.
                    cc_obs::counter_inc("serve.frame_corrupt");
                    c.fatal = Some(encode_frame(
                        OP_ERROR,
                        0,
                        &encode_error(ErrCode::BadPayload, &WireError::Truncated.to_string()),
                    ));
                }
                break;
            }
            Ok(n) => {
                if at_boundary {
                    // A new frame starts in this read: the decode span
                    // of any traced request it carries opens here.
                    c.read_start_ns = cc_obs::now_ns();
                }
                if metrics {
                    stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                }
                match c.dec.feed(&scratch[..n], frames) {
                    Ok(()) => {}
                    Err(e) => {
                        // Frame boundaries are lost after damage —
                        // answer one well-formed error frame (after any
                        // requests completed earlier) and close.
                        cc_obs::counter_inc("serve.frame_corrupt");
                        c.fatal = Some(encode_frame(
                            OP_ERROR,
                            0,
                            &encode_error(ErrCode::BadPayload, &e.to_string()),
                        ));
                        c.closing = true;
                        break;
                    }
                }
                more = n == scratch.len();
                if !more {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                break;
            }
        }
    }
    for frame in frames.drain(..) {
        if c.closing {
            break;
        }
        c.last_progress = Instant::now();
        if metrics {
            stats.frames.fetch_add(1, Ordering::Relaxed);
        }
        c.served += 1;
        if c.served > cfg.max_requests_per_conn {
            cc_obs::counter_inc("serve.request_cap_hit");
            c.fatal = Some(encode_frame(
                OP_ERROR,
                frame.req_id,
                &encode_error(ErrCode::RequestCap, "per-connection request cap reached"),
            ));
            c.closing = true;
            break;
        }
        let decoded_ns = if frame.trace.is_some() { cc_obs::now_ns() } else { 0 };
        c.pending.push_back(Pending { read_start_ns: c.read_start_ns, decoded_ns, frame });
    }
    frames.clear();
    more
}

/// Push queued output, at most `write_chunk` bytes per syscall, resuming
/// mid-buffer after short writes. True when every pass wrote and output
/// is still queued.
fn step_write(c: &mut Conn, cfg: &ServerConfig, stats: &ShardStats, metrics: bool) -> bool {
    if c.dead {
        return false;
    }
    let chunk_cap = cfg.write_chunk.max(1);
    for _ in 0..WRITE_PASSES {
        let Some(front) = c.outq.front() else {
            c.write_stalled_since = None;
            return false;
        };
        let end = (c.out_pos + chunk_cap).min(front.len());
        match (&c.stream).write(&front[c.out_pos..end]) {
            Ok(0) => {
                c.dead = true;
                return false;
            }
            Ok(n) => {
                c.out_pos += n;
                c.write_stalled_since = None;
                if metrics {
                    stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                }
                if c.out_pos == front.len() {
                    c.outq.pop_front();
                    c.out_pos = 0;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                c.write_stalled_since.get_or_insert_with(Instant::now);
                return false;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                return false;
            }
        }
    }
    !c.outq.is_empty()
}

/// Most worker-side child spans one traced request may record (chunk
/// encodes, stream emits) — keeps a huge streamed compress within the
/// telemetry frame's decode budget ([`MAX_TELEMETRY_NODES`]).
const SPAN_REC_CAP: usize = MAX_TELEMETRY_NODES - 8;

/// Sequential child-span recorder for one traced request on a pool
/// worker: `mark(name)` closes a span from the previous mark (or the
/// compute start) to now. Marks never overlap, so the children
/// partition the compute interval and self-time attribution in the
/// stitched flamegraph stays exact.
struct SpanRec {
    spans: Vec<SpanNode>,
    last_ns: u64,
}

impl SpanRec {
    fn new(start_ns: u64) -> SpanRec {
        SpanRec { spans: Vec::new(), last_ns: start_ns }
    }

    fn mark(&mut self, name: &'static str) {
        let now = cc_obs::now_ns();
        if self.spans.len() < SPAN_REC_CAP {
            self.spans.push(SpanNode {
                name,
                start_ns: self.last_ns,
                dur_ns: now.saturating_sub(self.last_ns),
                children: Vec::new(),
            });
        }
        self.last_ns = now;
    }
}

/// Execute one request on a compute-pool worker and post the reply (and
/// any streamed pieces) back to the owning shard.
fn handle_job(job: Job, shared: &Shared) {
    let inbox = &shared.inboxes[job.shard];
    let conn = job.conn;
    let req_id = job.frame.req_id;
    let t0 = cc_obs::now_ns();
    let rec = job.trace.as_ref().map(|_| RefCell::new(SpanRec::new(t0)));
    let result = {
        let rec = rec.as_ref();
        let mut emit = |bytes: Vec<u8>| {
            cc_obs::counter_inc("serve.stream.frames");
            inbox.post(ShardMsg::Partial { conn, req_id, bytes });
            if let Some(r) = rec {
                r.borrow_mut().mark("srv.stream.emit");
            }
        };
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            handle_request(&job.frame, shared, &mut emit, rec)
        }))
        .unwrap_or_else(|_| {
            cc_obs::counter_inc("serve.panic");
            Err((ErrCode::Internal, "request handler panicked".into()))
        })
    };
    let t_end = cc_obs::now_ns();
    let req_us = t_end.saturating_sub(t0) / 1_000;
    cc_obs::observe("serve.req_us", req_us);
    if let Some(op) = Opcode::from_u8(job.frame.opcode) {
        cc_obs::observe(op.latency_histogram(), req_us);
    }
    cc_obs::counter_inc("serve.requests");
    let (opcode, payload) = match result {
        Ok((op, payload)) => (op, payload),
        Err((code, msg)) => {
            cc_obs::counter_inc("serve.errors");
            (OP_ERROR, encode_error(code, &msg))
        }
    };
    let telemetry = job.trace.map(|t| {
        cc_obs::counter_inc("serve.traced_requests");
        let children = vec![
            SpanNode {
                name: "srv.decode",
                start_ns: t.read_start_ns,
                dur_ns: t.decoded_ns.saturating_sub(t.read_start_ns),
                children: Vec::new(),
            },
            SpanNode {
                name: "srv.queue",
                start_ns: t.decoded_ns,
                dur_ns: t0.saturating_sub(t.decoded_ns),
                children: Vec::new(),
            },
            SpanNode {
                name: "srv.compute",
                start_ns: t0,
                dur_ns: t_end.saturating_sub(t0),
                children: rec.map(|r| r.into_inner().spans).unwrap_or_default(),
            },
        ];
        ReqTelemetry { root_start_ns: t.read_start_ns, children }
    });
    inbox.post(ShardMsg::Done { conn, req_id, opcode, payload, telemetry });
}

type HandlerResult = Result<(u8, Vec<u8>), (ErrCode, String)>;

fn handle_request(
    frame: &Frame,
    shared: &Shared,
    emit: &mut dyn FnMut(Vec<u8>),
    rec: Option<&RefCell<SpanRec>>,
) -> HandlerResult {
    let Some(op) = Opcode::from_u8(frame.opcode) else {
        return Err((ErrCode::BadPayload, format!("unknown opcode 0x{:02x}", frame.opcode)));
    };
    let _span = cc_obs::span_dyn(&format!("serve.req.{}", op.name()));
    cc_obs::counter_add(&format!("serve.op.{}.bytes_in", op.name()), frame.payload.len() as u64);
    // A reply's bytes out are its streamed pieces plus the terminal
    // remainder, booked once under the request's own opcode.
    let mut streamed = 0u64;
    let emit = &mut |bytes: Vec<u8>| {
        streamed += bytes.len() as u64;
        emit(bytes)
    };
    let out: HandlerResult = match op {
        Opcode::Ping => Ok((op.reply(), Vec::new())),
        Opcode::Compress => {
            handle_compress(&frame.payload, shared, emit, rec).map(|p| (op.reply(), p))
        }
        Opcode::Decompress => {
            handle_decompress(&frame.payload, shared).map(|p| (op.reply(), p))
        }
        Opcode::Evaluate => handle_evaluate(&frame.payload, shared).map(|p| (op.reply(), p)),
        Opcode::ArchivePut => {
            handle_archive_put(&frame.payload, shared).map(|p| (op.reply(), p))
        }
        Opcode::FetchSlice => {
            handle_fetch_slice(&frame.payload, shared, emit).map(|p| (op.reply(), p))
        }
        Opcode::Stats => {
            shared.archives.publish();
            Ok((op.reply(), stats_json(shared.started.elapsed().as_micros() as u64).into_bytes()))
        }
        Opcode::Shutdown => {
            shared.begin_shutdown();
            Ok((op.reply(), Vec::new()))
        }
    };
    if let Ok((_, payload)) = &out {
        let bytes_out = streamed + payload.len() as u64;
        cc_obs::counter_add(&format!("serve.op.{}.bytes_out", op.name()), bytes_out);
    }
    out
}

fn resolve_variant(name: &str) -> Result<Variant, (ErrCode, String)> {
    Variant::by_name(name)
        .ok_or_else(|| (ErrCode::UnknownVariant, format!("unknown codec variant {name:?}")))
}

/// Compress, streaming the reply: whenever the accumulated encoded
/// bytes cross the stream threshold they are emitted as an `OP_STREAM`
/// piece while later chunks are still compressing. The returned bytes
/// are the remainder, carried by the terminal reply frame; the
/// concatenation of pieces + remainder is exactly
/// `compress_chunked(codec, data, layout, 1)`.
fn handle_compress(
    payload: &[u8],
    shared: &Shared,
    emit: &mut dyn FnMut(Vec<u8>),
    rec: Option<&RefCell<SpanRec>>,
) -> Result<Vec<u8>, (ErrCode, String)> {
    let req = CompressRequest::decode(payload)
        .map_err(|_| (ErrCode::BadPayload, "malformed Compress payload".into()))?;
    let variant = resolve_variant(&req.variant)?;
    let codec = variant.codec();
    let threshold = shared.cfg.stream_threshold.max(1);
    let mut buf: Vec<u8> = Vec::new();
    // Sequential chunk encode on this worker (already inside the pool;
    // the nested-context guard would degrade fan-out anyway) — which is
    // exactly what makes the emitted byte order the workers=1 reference.
    compress_chunked_stream(codec.as_ref(), &req.data, req.layout, &mut |piece| {
        if let Some(r) = rec {
            r.borrow_mut().mark("srv.chunk.encode");
        }
        buf.extend_from_slice(piece);
        if buf.len() >= threshold {
            emit(std::mem::take(&mut buf));
        }
    });
    Ok(buf)
}

fn handle_decompress(payload: &[u8], shared: &Shared) -> Result<Vec<u8>, (ErrCode, String)> {
    let req = DecompressRequest::decode(payload)
        .map_err(|_| (ErrCode::BadPayload, "malformed Decompress payload".into()))?;
    // The declared layout drives the output allocation; cap it at 4× the
    // payload cap in *elements* (16× in bytes), mirroring the decode
    // prealloc discipline of DESIGN.md §7.
    if req.layout.len() > shared.cfg.max_payload * 4 {
        return Err((
            ErrCode::TooLarge,
            format!("layout declares {} elements, above the cap", req.layout.len()),
        ));
    }
    let variant = resolve_variant(&req.variant)?;
    let codec = variant.codec();
    let data = decompress_chunked(codec.as_ref(), &req.stream, req.layout, 1)
        .map_err(|e| (ErrCode::Codec, e.to_string()))?;
    Ok(wire::encode_f32_payload(&data))
}

fn handle_evaluate(payload: &[u8], shared: &Shared) -> Result<Vec<u8>, (ErrCode, String)> {
    let req = EvalRequest::decode(payload)
        .map_err(|_| (ErrCode::BadPayload, "malformed Evaluate payload".into()))?;
    let lim = shared.cfg.eval_limits;
    if req.members < 3 || req.ne < 3 || req.nlev < 2 {
        return Err((
            ErrCode::BadPayload,
            "Evaluate needs members >= 3, ne >= 3, nlev >= 2".into(),
        ));
    }
    if req.members > lim.max_members || req.ne > lim.max_ne || req.nlev > lim.max_nlev {
        return Err((
            ErrCode::TooLarge,
            format!(
                "Evaluate caps: members <= {}, ne <= {}, nlev <= {}",
                lim.max_members, lim.max_ne, lim.max_nlev
            ),
        ));
    }
    let variant = resolve_variant(&req.variant)?;
    let model = Model::new(Resolution::reduced(req.ne as usize, req.nlev as usize), req.seed);
    let Some(var) = model.var_id(&req.var) else {
        return Err((ErrCode::UnknownVariable, format!("unknown variable {:?}", req.var)));
    };
    // Workers = 1: already inside a pool worker (the nested-context
    // guard would force it anyway).
    let eval = Evaluation::new(
        model,
        EvalConfig { members: req.members as usize, samples: 3, workers: 1 },
    );
    let ctx = eval.context(var);
    let v = verdict_for(&ctx, variant);
    Ok(EvalResponse {
        cr: v.cr,
        pearson_pass: v.pearson_pass(),
        rmsz_pass: v.rmsz_pass(),
        enmax_pass: v.enmax_pass(),
        bias_pass: v.bias_pass(),
    }
    .encode())
}

/// Resolve a validated archive name against the configured archive
/// directory, or reject when the server runs without one.
fn archive_path(shared: &Shared, name: &str) -> Result<PathBuf, (ErrCode, String)> {
    let Some(dir) = &shared.cfg.archive_dir else {
        return Err((
            ErrCode::BadPayload,
            "server has no archive directory (start with --archive-dir)".into(),
        ));
    };
    Ok(dir.join(format!("{name}.ccarch")))
}

/// Map an archive-layer failure onto the wire error vocabulary: lookups
/// that miss become `NotFound`, everything structural is `Codec`.
fn archive_err(e: ArchiveError) -> (ErrCode, String) {
    match &e {
        ArchiveError::NoSuchVariable(_) | ArchiveError::BadRequest(_) => {
            (ErrCode::NotFound, e.to_string())
        }
        ArchiveError::Io(_) => (ErrCode::Internal, e.to_string()),
        _ => (ErrCode::Codec, e.to_string()),
    }
}

/// Validate and store a client-supplied archive. The container is fully
/// parsed (footer, index, chain invariants) *before* anything touches
/// disk, and it replaces any earlier archive of that name in one rename,
/// so every archive a request can name is a whole, well-formed file. The
/// name's cache entry goes with the old file; a fetch would miss on it
/// anyway, since the renamed file has another inode.
fn handle_archive_put(payload: &[u8], shared: &Shared) -> Result<Vec<u8>, (ErrCode, String)> {
    let req = ArchivePutRequest::decode(payload)
        .map_err(|_| (ErrCode::BadPayload, "malformed ArchivePut payload".into()))?;
    let path = archive_path(shared, &req.name)?;
    let reader = ArchiveReader::open(req.bytes)
        .map_err(|e| (ErrCode::BadPayload, format!("invalid archive: {e}")))?;
    let vars = reader.index().vars.len() as u32;
    let frames: u32 = reader.index().vars.iter().map(|v| v.frames.len() as u32).sum();
    let stored = replace_file(&path, req.bytes);
    shared.archives.evict(&req.name);
    stored.map_err(|e| (ErrCode::Internal, format!("archive store failed: {e}")))?;
    Ok(ArchivePutResponse { bytes: req.bytes.len() as u64, vars, frames }.encode())
}

/// Write `bytes` to a temp file beside `path`, then rename it over
/// `path`: a concurrent reader opens either the old file or the new one,
/// never a partial write. The temp file is synced before the rename and
/// the directory after it, so once this returns `Ok` a crash leaves the
/// new archive whole under `path`. The temp name starts with `.`, which
/// no archive name may ([`wire::archive_name_ok`]), so no request can
/// address it; it is removed again if any step fails.
fn replace_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let stored = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path))
        .and_then(|()| std::fs::File::open(dir)?.sync_all());
    if stored.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    stored
}

/// Fetch one (variable, timestep, level) slice from a stored archive,
/// decoding only the keyframe chain the footer index points at. The
/// archive comes from the open-once cache, so a repeat fetch reads only
/// the chain's delta frames once its keyframe has been decoded. Large
/// slices stream as `OP_STREAM` pieces like `Compress` replies.
fn handle_fetch_slice(
    payload: &[u8],
    shared: &Shared,
    emit: &mut dyn FnMut(Vec<u8>),
) -> Result<Vec<u8>, (ErrCode, String)> {
    let req = FetchSliceRequest::decode(payload)
        .map_err(|_| (ErrCode::BadPayload, "malformed FetchSlice payload".into()))?;
    let path = archive_path(shared, &req.name)?;
    // Workers = 1: already inside a pool worker (the nested-context
    // guard would force it anyway).
    let mut reader = shared.archives.reader(&req.name, &path).map_err(|e| match e {
        OpenError::Missing => (ErrCode::NotFound, format!("no archive named {:?}", req.name)),
        OpenError::Archive(e) => archive_err(e),
    })?;
    let slice = reader
        .fetch_slice(&req.var, req.t as usize, req.lev as usize)
        .map_err(archive_err)?;
    let mut encoded = wire::encode_f32_payload(&slice);
    let threshold = shared.cfg.stream_threshold.max(1);
    // Same reassembly contract as streamed Compress replies: the
    // concatenation of pieces + remainder is the whole payload.
    while encoded.len() >= threshold * 2 {
        let rest = encoded.split_off(threshold);
        emit(std::mem::replace(&mut encoded, rest));
    }
    Ok(encoded)
}

/// The `cc-stats/1` structured `Stats` body: every registered counter
/// and histogram (full sparse log2 buckets) plus server uptime. Shapes
/// match the `counters`/`histograms` sections of `cc-trace/1` so the
/// same readers work on both.
pub fn stats_json(uptime_us: u64) -> String {
    let snap = cc_obs::metrics_snapshot();
    let mut out = String::new();
    out.push_str("{\"schema\":\"cc-stats/1\",\"uptime_us\":");
    out.push_str(&uptime_us.to_string());
    out.push_str(",\"counters\":[");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        out.push_str(&cc_obs::json::escape(name));
        out.push_str("\",\"value\":");
        out.push_str(&value.to_string());
        out.push('}');
    }
    out.push_str("],\"histograms\":[");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        out.push_str(&cc_obs::json::escape(name));
        out.push_str("\",\"count\":");
        out.push_str(&h.count.to_string());
        out.push_str(",\"sum\":");
        out.push_str(&h.sum.to_string());
        out.push_str(",\"buckets\":[");
        for (j, (idx, n)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&idx.to_string());
            out.push(',');
            out.push_str(&n.to_string());
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}
