//! Blocking client for the `cc-wire/2` protocol.
//!
//! [`Client::connect`] retries with jittered exponential backoff (the
//! jitter is derived from a splitmix of the attempt counter and the
//! address hash — deterministic per call site, no clock entropy), then
//! issues requests over one connection. Request ids are assigned
//! monotonically; because the server echoes them, [`Client::pipeline`]
//! can write a whole batch before reading any response and still match
//! replies to requests.
//!
//! **Deadlines.** Every response is read under one overall
//! [`ClientConfig::request_deadline`]: the socket read timeout is
//! re-armed with the *remaining* budget before each `read()`, so a
//! server dribbling one byte per timeout window cannot stall a request
//! (or a pipelined batch) indefinitely — the failure surfaces as the
//! typed [`ClientError::Timeout`].
//!
//! **Streamed replies.** A server may split a large response into
//! [`OP_STREAM`] continuation frames followed by the terminal reply.
//! The client reassembles by concatenation (bounded by
//! [`ClientConfig::max_payload`]), so callers always see the complete
//! payload, byte-identical to an unstreamed reply.
//!
//! **Distributed tracing.** When span recording is on
//! ([`cc_obs::spans_enabled`]), every single request goes out with a
//! cc-wire/2 trace extension and the client opens a `client.req.{op}`
//! span around it. The server answers a traced request with one
//! trailing [`OP_TELEMETRY`] frame carrying its own span subtree
//! (decode → queue → compute → reply); the client rebases those
//! timestamps into its open request span (the two processes do not
//! share a clock) and grafts the subtree under it, so one `TRACE.json`
//! shows the request crossing the process boundary. Telemetry is
//! advisory: a missing or malformed telemetry frame never fails the
//! request itself.

use crate::wire::{
    self, decode_error, decode_span_tree, try_encode_frame, ArchivePutRequest,
    ArchivePutResponse, CompressRequest, DecompressRequest, ErrCode, EvalRequest, EvalResponse,
    FetchSliceRequest, Frame, FrameDecoder, Opcode, TraceContext, WireError, OP_BUSY, OP_ERROR,
    OP_STREAM, OP_TELEMETRY,
};
use cc_codecs::Layout;
use cc_obs::{HistogramSnapshot, MetricsSnapshot, SpanNode};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Typed client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed after every retry.
    Connect(std::io::Error),
    /// The connection died mid-request.
    Wire(WireError),
    /// The overall per-request deadline expired before the full
    /// response arrived (carries the configured deadline).
    Timeout(Duration),
    /// The server answered `Busy` (connection cap reached) — retry later.
    Busy,
    /// The server answered a typed error frame.
    Server(ErrCode, String),
    /// The server replied with an unexpected opcode or request id.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Timeout(d) => {
                write!(f, "request deadline ({d:?}) expired before the response completed")
            }
            ClientError::Busy => write!(f, "server busy (connection cap reached)"),
            ClientError::Server(code, msg) => write!(f, "server error ({code:?}): {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Connection options.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connect attempts before giving up.
    pub connect_attempts: u32,
    /// Base backoff between attempts (doubled each retry, ±50% jitter).
    pub backoff: Duration,
    /// Overall deadline for one complete response (all of its frames).
    /// Enforced by re-arming the socket timeout with the remaining
    /// budget before every read, so it cannot be defeated by a server
    /// that keeps trickling bytes.
    pub request_deadline: Duration,
    /// Per-request write deadline.
    pub write_timeout: Duration,
    /// Largest response payload this client will accept (streamed
    /// responses are capped on their reassembled size).
    pub max_payload: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_attempts: 5,
            backoff: Duration::from_millis(20),
            request_deadline: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// A blocking connection to a `cc-serve` daemon.
pub struct Client {
    stream: TcpStream,
    cfg: ClientConfig,
    next_id: u64,
}

fn jitter_mix(x: u64) -> u64 {
    // splitmix64 finalizer — cheap, deterministic jitter source.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shift every start timestamp in a span tree by a signed offset,
/// saturating at the u64 range — the clock-rebasing step for telemetry
/// recorded on another process's monotonic clock.
fn shift_span(node: &mut SpanNode, off: i128) {
    node.start_ns = (node.start_ns as i128 + off).clamp(0, u64::MAX as i128) as u64;
    for child in &mut node.children {
        shift_span(child, off);
    }
}

/// A `Read` adapter that re-arms the socket read timeout with the time
/// remaining until a fixed deadline before every read — the mechanism
/// that turns a per-read timeout into an overall per-response deadline.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        let mut s = self.stream;
        s.read(buf)
    }
}

impl Client {
    /// Connect with defaults.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect, retrying `connect_attempts` times with jittered
    /// exponential backoff.
    pub fn connect_with(addr: &str, cfg: ClientConfig) -> Result<Client, ClientError> {
        let addr_hash: u64 =
            addr.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            });
        let mut last_err = None;
        for attempt in 0..cfg.connect_attempts.max(1) {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(cfg.request_deadline));
                    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
                    return Ok(Client { stream, cfg, next_id: 1 });
                }
                Err(e) => {
                    last_err = Some(e);
                    // base · 2^attempt, scaled by a jitter in [0.5, 1.5).
                    let base = cfg.backoff.as_micros() as u64;
                    let exp = base.saturating_mul(1u64 << attempt.min(10));
                    let jitter = jitter_mix(addr_hash ^ attempt as u64) % 1000;
                    let us = exp / 2 + exp.saturating_mul(jitter) / 1000;
                    std::thread::sleep(Duration::from_micros(us));
                }
            }
        }
        Err(ClientError::Connect(
            last_err.unwrap_or_else(|| std::io::Error::other("no connect attempts made")),
        ))
    }

    fn send(
        &mut self,
        opcode: Opcode,
        payload: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<u64, ClientError> {
        let req_id = self.next_id;
        self.next_id += 1;
        let frame = try_encode_frame(trace, opcode as u8, req_id, payload)
            .map_err(ClientError::Wire)?;
        self.stream
            .write_all(&frame)
            .map_err(|e| ClientError::Wire(WireError::Io(e)))?;
        Ok(req_id)
    }

    /// Read one frame under `deadline`; an expiring read surfaces as
    /// the typed [`ClientError::Timeout`].
    fn recv_frame(&mut self, deadline: Instant) -> Result<Frame, ClientError> {
        let mut ds = DeadlineStream { stream: &self.stream, deadline };
        FrameDecoder::new(self.cfg.max_payload).read_frame(&mut ds).map_err(|e| {
            if e.is_timeout() {
                ClientError::Timeout(self.cfg.request_deadline)
            } else {
                ClientError::Wire(e)
            }
        })
    }

    /// Check one terminal response frame against the request it answers.
    fn expect(frame: Frame, opcode: Opcode, req_id: u64) -> Result<Vec<u8>, ClientError> {
        if frame.opcode == OP_BUSY {
            return Err(ClientError::Busy);
        }
        if frame.opcode == OP_ERROR {
            let (code, msg) = decode_error(&frame.payload);
            return Err(ClientError::Server(code, msg));
        }
        if frame.opcode != opcode.reply() {
            return Err(ClientError::Protocol(format!(
                "expected reply to {}, got opcode 0x{:02x}",
                opcode.name(),
                frame.opcode
            )));
        }
        if frame.req_id != req_id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {req_id}",
                frame.req_id
            )));
        }
        Ok(frame.payload)
    }

    /// Receive one complete response — zero or more `OP_STREAM` pieces
    /// plus the terminal frame — reassembled by concatenation, all
    /// under a single per-request deadline.
    fn recv_response(&mut self, opcode: Opcode, req_id: u64) -> Result<Vec<u8>, ClientError> {
        let deadline = Instant::now() + self.cfg.request_deadline;
        let mut acc: Option<Vec<u8>> = None;
        loop {
            let frame = self.recv_frame(deadline)?;
            if frame.opcode == OP_STREAM {
                if frame.req_id != req_id {
                    return Err(ClientError::Protocol(format!(
                        "stream piece for id {}, expected {req_id}",
                        frame.req_id
                    )));
                }
                let acc = acc.get_or_insert_with(Vec::new);
                if acc.len().saturating_add(frame.payload.len()) > self.cfg.max_payload {
                    return Err(ClientError::Protocol(
                        "streamed response exceeds the payload cap".into(),
                    ));
                }
                acc.extend_from_slice(&frame.payload);
                continue;
            }
            let terminal = Self::expect(frame, opcode, req_id)?;
            return Ok(match acc {
                Some(mut assembled) => {
                    assembled.extend_from_slice(&terminal);
                    assembled
                }
                None => terminal,
            });
        }
    }

    fn call(&mut self, opcode: Opcode, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        if !cc_obs::spans_enabled() {
            let req_id = self.send(opcode, payload, None)?;
            return self.recv_response(opcode, req_id);
        }
        // Traced request: open the client-side span, send the trace
        // extension, and stitch the server's telemetry subtree under
        // the span before it closes.
        let _span = cc_obs::span_dyn(&format!("client.req.{}", opcode.name()));
        let t_start = cc_obs::now_ns();
        let trace = TraceContext {
            trace_id: ((jitter_mix(t_start ^ 0x6363_2d77_6972_6532) as u128) << 64)
                | jitter_mix(t_start.wrapping_add(self.next_id)) as u128,
            parent_span: jitter_mix(self.next_id),
        };
        let req_id = self.send(opcode, payload, Some(trace))?;
        let result = self.recv_response(opcode, req_id);
        // The server sends the trailing telemetry frame after every
        // reply it computed — including typed error replies. The only
        // terminal frames *not* followed by telemetry (busy, wire
        // damage, pre-dispatch fatal errors) also close the
        // connection, so the recovery read below ends at EOF instead
        // of desynchronizing the stream.
        if matches!(result, Ok(_) | Err(ClientError::Server(..))) {
            self.recv_telemetry(req_id, t_start);
        }
        result
    }

    /// Best-effort receive of the trailing [`OP_TELEMETRY`] frame of a
    /// traced request; graft the server's span subtree under the
    /// currently open client span. Never fails the request: telemetry
    /// problems are dropped, not surfaced.
    fn recv_telemetry(&mut self, req_id: u64, t_start: u64) {
        let deadline = Instant::now() + self.cfg.request_deadline;
        let Ok(frame) = self.recv_frame(deadline) else { return };
        if frame.opcode != OP_TELEMETRY || frame.req_id != req_id {
            return;
        }
        let Ok(mut root) = decode_span_tree(&frame.payload) else { return };
        let t_end = cc_obs::now_ns();
        // Server timestamps are on the server's own monotonic clock
        // (each process anchors now_ns at first use): rebase the tree
        // to start just inside this request's client span, then clamp
        // so validator containment holds even if the server-side wall
        // time exceeds what the client observed.
        let off = t_start as i128 + 1 - root.start_ns as i128;
        shift_span(&mut root, off);
        cc_obs::trace::clamp_into(&mut root, t_start + 1, t_end.max(t_start + 1));
        cc_obs::adopt(vec![root]);
    }

    /// Round-trip an empty `Ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(Opcode::Ping, &[]).map(|_| ())
    }

    /// Compress `data` (shaped by `layout`) with the named variant;
    /// returns the compressed stream.
    pub fn compress(
        &mut self,
        variant: &str,
        layout: Layout,
        data: &[f32],
    ) -> Result<Vec<u8>, ClientError> {
        let req =
            CompressRequest { variant: variant.to_string(), layout, data: data.to_vec() };
        let payload = req.encode().map_err(ClientError::Wire)?;
        self.call(Opcode::Compress, &payload)
    }

    /// Decompress `stream` back into `layout.len()` f32 values.
    pub fn decompress(
        &mut self,
        variant: &str,
        layout: Layout,
        stream: &[u8],
    ) -> Result<Vec<f32>, ClientError> {
        let req = DecompressRequest {
            variant: variant.to_string(),
            layout,
            stream: stream.to_vec(),
        };
        let payload = req.encode().map_err(ClientError::Wire)?;
        let payload = self.call(Opcode::Decompress, &payload)?;
        wire::decode_f32_payload(&payload)
            .map_err(|_| ClientError::Protocol("odd-length f32 response".into()))
    }

    /// Run a quick-scale evaluation of `variant` on variable `var`
    /// server-side; returns the verdict summary.
    pub fn evaluate(&mut self, req: &EvalRequest) -> Result<EvalResponse, ClientError> {
        let payload = req.encode().map_err(ClientError::Wire)?;
        let payload = self.call(Opcode::Evaluate, &payload)?;
        EvalResponse::decode(&payload)
            .map_err(|_| ClientError::Protocol("malformed Evaluate response".into()))
    }

    /// Upload a complete `cc-arch/1` archive for server-side storage
    /// under `name`; returns the server's acceptance summary.
    pub fn archive_put(
        &mut self,
        name: &str,
        bytes: &[u8],
    ) -> Result<ArchivePutResponse, ClientError> {
        let req = ArchivePutRequest { name: name.to_string(), bytes };
        let payload = req.encode().map_err(ClientError::Wire)?;
        let payload = self.call(Opcode::ArchivePut, &payload)?;
        ArchivePutResponse::decode(&payload)
            .map_err(|_| ClientError::Protocol("malformed ArchivePut response".into()))
    }

    /// Fetch one (variable, timestep, level) slice from a stored
    /// archive. The server decodes only that slice's keyframe chain;
    /// large slices arrive as `OP_STREAM` pieces and reassemble here.
    pub fn fetch_slice(
        &mut self,
        name: &str,
        var: &str,
        t: u32,
        lev: u32,
    ) -> Result<Vec<f32>, ClientError> {
        let req = FetchSliceRequest {
            name: name.to_string(),
            var: var.to_string(),
            t,
            lev,
        };
        let payload = req.encode().map_err(ClientError::Wire)?;
        let payload = self.call(Opcode::FetchSlice, &payload)?;
        wire::decode_f32_payload(&payload)
            .map_err(|_| ClientError::Protocol("odd-length f32 response".into()))
    }

    /// Fetch the server's metrics as a typed [`StatsReport`] parsed
    /// from the `cc-stats/1` body.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        let payload = self.call(Opcode::Stats, &[])?;
        let body = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("non-UTF-8 stats response".into()))?;
        StatsReport::parse(body).map_err(ClientError::Protocol)
    }

    /// Ask the server to drain and stop.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.call(Opcode::Shutdown, &[]).map(|_| ())
    }

    /// Pipeline a batch of raw requests: write them all, then read the
    /// responses in order, matching ids. Each result is the reply
    /// payload or the per-request error; transport-level failures
    /// (connection death, deadline expiry) abort the whole batch.
    /// Batches are always sent untraced — telemetry stitching is a
    /// per-request protocol and would interleave with the batched
    /// replies.
    pub fn pipeline(
        &mut self,
        requests: &[(Opcode, Vec<u8>)],
    ) -> Result<Vec<Result<Vec<u8>, ClientError>>, ClientError> {
        let mut ids = Vec::with_capacity(requests.len());
        for (opcode, payload) in requests {
            ids.push(self.send(*opcode, payload, None)?);
        }
        let mut out = Vec::with_capacity(requests.len());
        for (&id, (opcode, _)) in ids.iter().zip(requests) {
            match self.recv_response(*opcode, id) {
                Err(e @ (ClientError::Wire(_) | ClientError::Timeout(_))) => return Err(e),
                result => out.push(result),
            }
        }
        Ok(out)
    }
}

/// A parsed `cc-stats/1` server metrics report: every counter and
/// histogram the server has registered, plus its uptime. The metric
/// payload is an ordinary [`MetricsSnapshot`], so interval rates fall
/// out of [`MetricsSnapshot::delta`] between two polls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Microseconds since the server started accepting connections.
    pub uptime_us: u64,
    /// Counters and full log2 histograms, name-sorted.
    pub metrics: MetricsSnapshot,
}

fn json_u64(v: Option<&cc_obs::json::Value>) -> Option<u64> {
    let n = v?.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64).then_some(n as u64)
}

impl StatsReport {
    /// Parse a `cc-stats/1` body. Total: every malformed input returns
    /// `Err`, never panics.
    pub fn parse(body: &str) -> Result<StatsReport, String> {
        let v = cc_obs::json::parse(body).map_err(|e| format!("bad cc-stats body: {e}"))?;
        match v.get("schema").and_then(|s| s.as_str()) {
            Some("cc-stats/1") => {}
            other => return Err(format!("unsupported stats schema {other:?}")),
        }
        let uptime_us =
            json_u64(v.get("uptime_us")).ok_or("missing or non-integer uptime_us")?;
        let mut counters = Vec::new();
        for c in v.get("counters").and_then(|c| c.as_array()).ok_or("missing counters")? {
            let name = c.get("name").and_then(|n| n.as_str()).ok_or("counter without name")?;
            let value = json_u64(c.get("value")).ok_or("counter without integer value")?;
            counters.push((name.to_string(), value));
        }
        let mut histograms = Vec::new();
        for h in v.get("histograms").and_then(|h| h.as_array()).ok_or("missing histograms")? {
            let name =
                h.get("name").and_then(|n| n.as_str()).ok_or("histogram without name")?;
            let count = json_u64(h.get("count")).ok_or("histogram without count")?;
            let sum = json_u64(h.get("sum")).ok_or("histogram without sum")?;
            let mut buckets = Vec::new();
            for b in h.get("buckets").and_then(|b| b.as_array()).ok_or("missing buckets")? {
                let pair = b.as_array().ok_or("bucket is not a pair")?;
                if pair.len() != 2 {
                    return Err("bucket is not a pair".into());
                }
                let idx = json_u64(Some(&pair[0])).ok_or("non-integer bucket index")?;
                let idx = u32::try_from(idx).map_err(|_| "bucket index out of range")?;
                let n = json_u64(Some(&pair[1])).ok_or("non-integer bucket count")?;
                buckets.push((idx, n));
            }
            histograms.push((name.to_string(), HistogramSnapshot { count, sum, buckets }));
        }
        // MetricsSnapshot invariants: name-sorted sections.
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(StatsReport { uptime_us, metrics: MetricsSnapshot { counters, histograms } })
    }

    /// Value of a counter (0 if the server never registered it).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_report_roundtrips_through_cc_stats_json() {
        let was_on = cc_obs::metrics_enabled();
        cc_obs::set_metrics_enabled(true);
        cc_obs::counter_add("client.test.stats_rt", 7);
        cc_obs::observe("client.test.stats_rt_us", 150);
        cc_obs::set_metrics_enabled(was_on);
        let body = crate::server::stats_json(12_345);
        let report = StatsReport::parse(&body).expect("server-built body parses");
        assert_eq!(report.uptime_us, 12_345);
        assert!(report.counter("client.test.stats_rt") >= 7);
        let h = report
            .metrics
            .histogram("client.test.stats_rt_us")
            .expect("observed histogram present");
        assert!(h.count >= 1);
        assert!(h.sum >= 150);
        assert_eq!(h.buckets.iter().map(|&(_, n)| n).sum::<u64>(), h.count);
        // Sections arrive name-sorted, as MetricsSnapshot requires.
        assert!(report.metrics.counters.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(report.metrics.histograms.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn stats_report_parses_known_body_exactly() {
        let body = r#"{"schema":"cc-stats/1","uptime_us":42,
            "counters":[{"name":"b","value":2},{"name":"a","value":1}],
            "histograms":[{"name":"h","count":3,"sum":9,"buckets":[[0,1],[2,2]]}]}"#;
        let report = StatsReport::parse(body).expect("well-formed body");
        assert_eq!(report.uptime_us, 42);
        assert_eq!(
            report.metrics.counters,
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        assert_eq!(
            report.metrics.histograms,
            vec![(
                "h".to_string(),
                HistogramSnapshot { count: 3, sum: 9, buckets: vec![(0, 1), (2, 2)] }
            )]
        );
    }

    #[test]
    fn stats_report_parse_is_total_on_malformed_bodies() {
        let cases: &[&str] = &[
            "",
            "not json",
            "42",
            "{}",
            r#"{"schema":"cc-stats/2","uptime_us":1,"counters":[],"histograms":[]}"#,
            r#"{"schema":"cc-stats/1","counters":[],"histograms":[]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":-1,"counters":[],"histograms":[]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1.5,"counters":[],"histograms":[]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1,"counters":{},"histograms":[]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1,"counters":[{"value":1}],"histograms":[]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1,"counters":[{"name":"a"}],"histograms":[]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1,"counters":[],"histograms":[{"name":"h"}]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1,"counters":[],
                "histograms":[{"name":"h","count":1,"sum":1,"buckets":[[0]]}]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1,"counters":[],
                "histograms":[{"name":"h","count":1,"sum":1,"buckets":[[0,1,2]]}]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1,"counters":[],
                "histograms":[{"name":"h","count":1,"sum":1,"buckets":[["x",1]]}]}"#,
            r#"{"schema":"cc-stats/1","uptime_us":1,"counters":[],
                "histograms":[{"name":"h","count":1,"sum":1,"buckets":[[5000000000,1]]}]}"#,
        ];
        for case in cases {
            assert!(StatsReport::parse(case).is_err(), "accepted malformed body: {case}");
        }
    }
}
