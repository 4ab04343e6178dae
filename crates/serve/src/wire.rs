//! The `cc-wire/2` framed binary protocol.
//!
//! Every message — request or response — is one frame:
//!
//! | bytes | field | notes |
//! |---|---|---|
//! | 0..4 | magic `b"CCW1"` | protocol identity (unchanged across minor versions) |
//! | 4 | version | low 7 bits: `2`; bit 7 ([`FLAG_TRACE`]): trace extension present |
//! | 5 | opcode | request `0x01..=0x06`, response `op \| 0x80`, `0xFC` Telemetry, `0xFD` Stream, `0xFE` Busy, `0xFF` Error |
//! | 6..14 | request id | `u64` LE, echoed verbatim in the response so clients can pipeline |
//! | 14..18 | payload length | `u32` LE, excludes the trace extension |
//! | 18..42 | trace extension | **only if [`FLAG_TRACE`]**: 128-bit trace id + 64-bit parent span id, LE |
//! | …   | payload | opcode-specific |
//!
//! Every frame carries version 2; any other version byte is
//! [`WireError::BadVersion`]. A frame without the trace flag is the bare
//! 18-byte header plus payload — tracing off costs zero extra bytes.
//! When the flag is set, a traced request additionally receives one
//! trailing [`OP_TELEMETRY`] frame after its terminal reply, carrying
//! the server-side span subtree for stitching.
//!
//! Responses larger than the server's stream threshold are split into
//! zero or more [`OP_STREAM`] continuation frames followed by one
//! terminal frame (the normal reply opcode, or [`OP_ERROR`]), all
//! echoing the same request id. The response payload is the
//! concatenation of every piece in arrival order, so reassembly is pure
//! concatenation and the result is byte-identical to an unstreamed
//! reply.
//!
//! One [`FrameDecoder`] decodes every frame: the server feeds it bytes
//! from nonblocking sockets, the client blocks in
//! [`FrameDecoder::read_frame`]. Frame decode is **total over untrusted
//! bytes**: every read is bounds-checked, a declared payload length
//! above the connection's cap is rejected before any allocation, and a
//! payload buffer starts at no more than [`READ_CHUNK`] and grows only
//! with the bytes actually received, so no allocation ever exceeds a
//! small multiple of them — the same discipline the codec decode paths
//! follow (DESIGN.md §7), enforced end-to-end by the wire
//! fault-injection harness.

use std::io::Read;

/// Frame magic: `cc-wire`, major version 1.
pub const MAGIC: [u8; 4] = *b"CCW1";
/// Protocol version (`cc-wire/2`), the only one accepted.
pub const VERSION: u8 = 2;
/// Version-byte flag: a [`TRACE_EXT_LEN`]-byte trace-context extension
/// follows the header.
pub const FLAG_TRACE: u8 = 0x80;
/// Trace extension length: 128-bit trace id + 64-bit parent span id.
pub const TRACE_EXT_LEN: usize = 24;
/// Fixed header length (magic, version, opcode, request id, payload len).
pub const HEADER_LEN: usize = 18;
/// Payload read granularity: a payload buffer starts at no more than
/// this and a blocking read asks for no more than this, so a corrupt
/// header declaring a huge payload cannot drive a large allocation
/// before the bytes actually arrive.
pub const READ_CHUNK: usize = 64 * 1024;
/// Default per-connection payload cap (64 MiB).
pub const DEFAULT_MAX_PAYLOAD: usize = 64 << 20;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; empty payload, empty response.
    Ping = 0x01,
    /// Compress a field: [`CompressRequest`] payload → compressed stream.
    Compress = 0x02,
    /// Decompress a stream: [`DecompressRequest`] payload → f32 LE field.
    Decompress = 0x03,
    /// Quick-scale four-test verdict: [`EvalRequest`] → [`EvalResponse`].
    Evaluate = 0x04,
    /// Server metrics snapshot; any payload → the `cc-stats/1` JSON body.
    Stats = 0x05,
    /// Graceful drain: stop accepting, finish queued work, exit.
    Shutdown = 0x06,
    /// Store a `cc-arch/1` archive in the server's archive directory:
    /// [`ArchivePutRequest`] → [`ArchivePutResponse`].
    ArchivePut = 0x07,
    /// Random-access read of one (variable, timestep, level) slice from
    /// a stored archive: [`FetchSliceRequest`] → f32 LE slice (streamed
    /// via [`OP_STREAM`] when large).
    FetchSlice = 0x08,
}

impl Opcode {
    /// Decode a request opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            0x01 => Some(Opcode::Ping),
            0x02 => Some(Opcode::Compress),
            0x03 => Some(Opcode::Decompress),
            0x04 => Some(Opcode::Evaluate),
            0x05 => Some(Opcode::Stats),
            0x06 => Some(Opcode::Shutdown),
            0x07 => Some(Opcode::ArchivePut),
            0x08 => Some(Opcode::FetchSlice),
            _ => None,
        }
    }

    /// The success-response opcode for this request.
    pub fn reply(self) -> u8 {
        self as u8 | 0x80
    }

    /// Static span/counter name for this opcode.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Compress => "compress",
            Opcode::Decompress => "decompress",
            Opcode::Evaluate => "evaluate",
            Opcode::Stats => "stats",
            Opcode::Shutdown => "shutdown",
            Opcode::ArchivePut => "archive-put",
            Opcode::FetchSlice => "fetch-slice",
        }
    }

    /// Static per-opcode request-latency histogram name (microseconds).
    /// Static so the observe path stays allocation-free per request.
    pub fn latency_histogram(self) -> &'static str {
        match self {
            Opcode::Ping => "serve.req_us.ping",
            Opcode::Compress => "serve.req_us.compress",
            Opcode::Decompress => "serve.req_us.decompress",
            Opcode::Evaluate => "serve.req_us.evaluate",
            Opcode::Stats => "serve.req_us.stats",
            Opcode::Shutdown => "serve.req_us.shutdown",
            Opcode::ArchivePut => "serve.req_us.archive_put",
            Opcode::FetchSlice => "serve.req_us.fetch_slice",
        }
    }
}

/// Response opcode: server-side telemetry for one traced request,
/// sent as one trailing frame after the terminal reply. Payload is the
/// serialized span subtree ([`encode_span_tree`]). Only ever sent for
/// requests that carried the trace extension.
pub const OP_TELEMETRY: u8 = 0xFC;
/// Response opcode: a continuation piece of a streamed reply. Carries
/// the request id of the response it belongs to; the terminal frame
/// (normal reply opcode or [`OP_ERROR`]) ends the stream.
pub const OP_STREAM: u8 = 0xFD;
/// Response opcode: the server cannot take the request (connection cap
/// reached).
pub const OP_BUSY: u8 = 0xFE;
/// Response opcode: typed error, payload = `u16` code + UTF-8 message.
pub const OP_ERROR: u8 = 0xFF;

/// Typed error codes carried in [`OP_ERROR`] payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// Payload failed to parse or violated a structural invariant.
    BadPayload = 1,
    /// Codec name not in [`cc_codecs::Variant::by_name`]'s set.
    UnknownVariant = 2,
    /// Variable name not in the 170-entry registry.
    UnknownVariable = 3,
    /// The codec rejected the stream (corrupt / layout mismatch).
    Codec = 4,
    /// Request exceeds a server resource cap.
    TooLarge = 5,
    /// Per-connection request cap reached; reconnect to continue.
    RequestCap = 6,
    /// Server is draining; no further requests on this connection.
    ShuttingDown = 7,
    /// Handler panicked or hit an unexpected condition.
    Internal = 8,
    /// Named archive (or archive variable/timestep/level) not found.
    NotFound = 9,
}

impl ErrCode {
    /// Decode a wire error code (unknown values map to `Internal`).
    pub fn from_u16(v: u16) -> ErrCode {
        match v {
            1 => ErrCode::BadPayload,
            2 => ErrCode::UnknownVariant,
            3 => ErrCode::UnknownVariable,
            4 => ErrCode::Codec,
            5 => ErrCode::TooLarge,
            6 => ErrCode::RequestCap,
            7 => ErrCode::ShuttingDown,
            9 => ErrCode::NotFound,
            _ => ErrCode::Internal,
        }
    }
}

/// The trace-context extension a traced request carries: which
/// distributed trace this request belongs to, and which client-side
/// span is the parent of the server's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id, chosen by the originating client.
    pub trace_id: u128,
    /// The client-side span the server subtree will be stitched under.
    pub parent_span: u64,
}

impl TraceContext {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.parent_span.to_le_bytes());
    }

    fn decode(ext: &[u8; TRACE_EXT_LEN]) -> TraceContext {
        TraceContext {
            trace_id: u128::from_le_bytes(ext[0..16].try_into().expect("16 bytes")),
            parent_span: u64::from_le_bytes(ext[16..24].try_into().expect("8 bytes")),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Raw opcode byte (requests validate via [`Opcode::from_u8`]).
    pub opcode: u8,
    /// Request id, echoed in responses.
    pub req_id: u64,
    /// Trace-context extension, if the frame carried one.
    pub trace: Option<TraceContext>,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

/// Frame-level decode failures.
#[derive(Debug)]
pub enum WireError {
    /// Clean EOF at a frame boundary (peer closed).
    Closed,
    /// I/O failure mid-frame (includes read/write timeouts).
    Io(std::io::Error),
    /// First four bytes were not [`MAGIC`].
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Declared payload length exceeds the connection's cap.
    TooLarge {
        /// Length the header declared.
        declared: u64,
        /// The connection's cap.
        cap: usize,
    },
    /// Stream ended inside a frame.
    Truncated,
    /// A u8-length-prefixed wire name exceeds 255 bytes (encode-side).
    NameTooLong(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::TooLarge { declared, cap } => {
                write!(f, "declared payload {declared} exceeds cap {cap}")
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::NameTooLong(len) => {
                write!(f, "wire name is {len} bytes, above the 255-byte cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// True when the failure is a read/write deadline expiring rather
    /// than damage or disconnect.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }

    /// True when the frame itself was damaged (as opposed to transport
    /// conditions): bad magic/version, oversized declaration, truncation.
    pub fn is_corrupt(&self) -> bool {
        matches!(
            self,
            WireError::BadMagic
                | WireError::BadVersion(_)
                | WireError::TooLarge { .. }
                | WireError::Truncated
        )
    }
}

/// Largest payload one frame can carry: the length field is `u32`.
pub const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// Encode one frame with an optional trace extension, rejecting
/// payloads the `u32` length field cannot represent — encoding such a
/// payload with a truncated length would emit a frame whose declared
/// length disagrees with its body.
pub fn try_encode_frame(
    trace: Option<TraceContext>,
    opcode: u8,
    req_id: u64,
    payload: &[u8],
) -> Result<Vec<u8>, WireError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(WireError::TooLarge {
            declared: payload.len() as u64,
            cap: MAX_FRAME_PAYLOAD,
        });
    }
    let ext = if trace.is_some() { TRACE_EXT_LEN } else { 0 };
    let mut out = Vec::with_capacity(HEADER_LEN + ext + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(if trace.is_some() { VERSION | FLAG_TRACE } else { VERSION });
    out.push(opcode);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    if let Some(ctx) = trace {
        ctx.encode_into(&mut out);
    }
    out.extend_from_slice(payload);
    Ok(out)
}

/// Encode one untraced frame. Panics if the payload exceeds
/// [`MAX_FRAME_PAYLOAD`]; callers handling untrusted or unbounded sizes
/// use [`try_encode_frame`].
pub fn encode_frame(opcode: u8, req_id: u64, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "frame payload {} exceeds the u32 length field",
        payload.len()
    );
    try_encode_frame(None, opcode, req_id, payload).expect("length checked")
}

/// A validated frame header.
#[derive(Debug, Clone, Copy)]
struct Header {
    traced: bool,
    opcode: u8,
    req_id: u64,
    declared: usize,
}

/// Validate a raw header: the single place header invariants live.
/// Accepts [`VERSION`] with or without [`FLAG_TRACE`]; every other
/// version byte is damage.
fn parse_header(header: &[u8; HEADER_LEN], max_payload: usize) -> Result<Header, WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let raw = header[4];
    if raw & !FLAG_TRACE != VERSION {
        return Err(WireError::BadVersion(raw));
    }
    let traced = raw & FLAG_TRACE != 0;
    let opcode = header[5];
    let req_id = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let declared = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes")) as usize;
    if declared > max_payload {
        return Err(WireError::TooLarge { declared: declared as u64, cap: max_payload });
    }
    Ok(Header { traced, opcode, req_id, declared })
}

/// Incremental frame decoder: feed whatever bytes arrived, collect
/// whatever frames completed ([`FrameDecoder::feed`], for nonblocking
/// sockets), or block for exactly one frame
/// ([`FrameDecoder::read_frame`]). The declared length is checked
/// against the cap as soon as the header completes, before any payload
/// allocation; the payload buffer then starts at no more than
/// [`READ_CHUNK`] and grows only by the bytes actually fed in.
#[derive(Debug)]
pub struct FrameDecoder {
    max_payload: usize,
    header: [u8; HEADER_LEN],
    header_filled: usize,
    /// Parsed header of the frame in flight (None while header bytes
    /// are still arriving).
    pending: Option<Header>,
    ext: [u8; TRACE_EXT_LEN],
    ext_filled: usize,
    payload: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder enforcing `max_payload` on every frame it parses.
    pub fn new(max_payload: usize) -> FrameDecoder {
        FrameDecoder {
            max_payload,
            header: [0u8; HEADER_LEN],
            header_filled: 0,
            pending: None,
            ext: [0u8; TRACE_EXT_LEN],
            ext_filled: 0,
            payload: Vec::new(),
        }
    }

    /// True when the decoder sits between frames (no partial input).
    pub fn at_boundary(&self) -> bool {
        self.header_filled == 0 && self.pending.is_none()
    }

    /// Bytes buffered for the frame currently in flight.
    pub fn buffered(&self) -> usize {
        self.header_filled + self.ext_filled + self.payload.len()
    }

    /// Consume `bytes`, appending every completed frame to `out`. On a
    /// corrupt header the error is returned after any frames completed
    /// earlier in the buffer were already pushed; the decoder is then
    /// poisoned for that connection (frame boundaries are lost after
    /// damage, so callers must close).
    pub fn feed(&mut self, mut bytes: &[u8], out: &mut Vec<Frame>) -> Result<(), WireError> {
        loop {
            match self.pending {
                None => {
                    if bytes.is_empty() {
                        return Ok(());
                    }
                    let take = (HEADER_LEN - self.header_filled).min(bytes.len());
                    self.header[self.header_filled..self.header_filled + take]
                        .copy_from_slice(&bytes[..take]);
                    self.header_filled += take;
                    bytes = &bytes[take..];
                    if self.header_filled == HEADER_LEN {
                        let h = parse_header(&self.header, self.max_payload)?;
                        // Reserve up to READ_CHUNK now: growth then doubles
                        // from READ_CHUNK (capacity READ_CHUNK·2^k) however
                        // short the reads that fill the payload.
                        self.payload = Vec::with_capacity(h.declared.min(READ_CHUNK));
                        self.pending = Some(h);
                    }
                }
                Some(h) => {
                    if h.traced && self.ext_filled < TRACE_EXT_LEN {
                        let take = (TRACE_EXT_LEN - self.ext_filled).min(bytes.len());
                        self.ext[self.ext_filled..self.ext_filled + take]
                            .copy_from_slice(&bytes[..take]);
                        self.ext_filled += take;
                        bytes = &bytes[take..];
                        if self.ext_filled < TRACE_EXT_LEN {
                            return Ok(());
                        }
                        continue;
                    }
                    let take = (h.declared - self.payload.len()).min(bytes.len());
                    self.payload.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if self.payload.len() < h.declared {
                        return Ok(());
                    }
                    out.push(Frame {
                        opcode: h.opcode,
                        req_id: h.req_id,
                        trace: h.traced.then(|| TraceContext::decode(&self.ext)),
                        payload: std::mem::take(&mut self.payload),
                    });
                    self.pending = None;
                    self.header_filled = 0;
                    self.ext_filled = 0;
                }
            }
        }
    }

    /// Bytes still missing from the header, trace extension or payload
    /// in flight; the payload's share is capped at [`READ_CHUNK`].
    fn missing(&self) -> usize {
        match self.pending {
            None => HEADER_LEN - self.header_filled,
            Some(h) if h.traced && self.ext_filled < TRACE_EXT_LEN => {
                TRACE_EXT_LEN - self.ext_filled
            }
            Some(h) => (h.declared - self.payload.len()).min(READ_CHUNK),
        }
    }

    /// Block until one whole frame has arrived from `r`. Each `read`
    /// asks only for the bytes still missing from the current header,
    /// extension or payload and passes them through [`Self::feed`], so
    /// it never consumes past the frame's last byte: successive calls on
    /// one stream return successive frames. A zero-byte read at a frame
    /// boundary is [`WireError::Closed`]; inside a frame it is
    /// [`WireError::Truncated`].
    pub fn read_frame(&mut self, r: &mut dyn Read) -> Result<Frame, WireError> {
        let mut chunk = Vec::new();
        let mut done = Vec::with_capacity(1);
        loop {
            chunk.resize(self.missing(), 0);
            let n = match r.read(&mut chunk) {
                Ok(0) if self.at_boundary() => return Err(WireError::Closed),
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            };
            self.feed(&chunk[..n], &mut done)?;
            if let Some(frame) = done.pop() {
                return Ok(frame);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Payload codecs. All parsers are total: bounds-checked cursor reads,
// structural invariants validated before any data-sized allocation.
// ---------------------------------------------------------------------

use cc_codecs::Layout;

/// Bounds-checked little-endian payload cursor.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        let end = self.pos.checked_add(n).ok_or(PayloadError)?;
        if end > self.buf.len() {
            return Err(PayloadError);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PayloadError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, PayloadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, PayloadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, PayloadError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// `u8` length-prefixed UTF-8 string (names: codec, variable).
    fn name(&mut self) -> Result<String, PayloadError> {
        let len = self.u8()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PayloadError)
    }

    fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

/// A payload failed to parse (caller maps to [`ErrCode::BadPayload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadError;

/// Append a u8-length-prefixed name. Names above 255 bytes are a hard
/// error in every build: truncating one would silently change which
/// variant or variable the peer resolves.
fn put_name(out: &mut Vec<u8>, name: &str) -> Result<(), WireError> {
    let bytes = name.as_bytes();
    if bytes.len() > u8::MAX as usize {
        return Err(WireError::NameTooLong(bytes.len()));
    }
    out.push(bytes.len() as u8);
    out.extend_from_slice(bytes);
    Ok(())
}

fn push_layout(out: &mut Vec<u8>, layout: Layout) {
    for v in [layout.nlev, layout.npts, layout.rows, layout.cols] {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
}

fn read_layout(c: &mut Cursor) -> Result<Layout, PayloadError> {
    let nlev = c.u32()? as usize;
    let npts = c.u32()? as usize;
    let rows = c.u32()? as usize;
    let cols = c.u32()? as usize;
    // Structural sanity shared by both directions: non-degenerate, the
    // element count can't overflow, and the 2-D embedding covers npts.
    let len = nlev.checked_mul(npts).ok_or(PayloadError)?;
    let embed = rows.checked_mul(cols).ok_or(PayloadError)?;
    if len == 0 || embed < npts {
        return Err(PayloadError);
    }
    Ok(Layout { nlev, npts, rows, cols })
}

/// `Compress` request: codec name, layout, raw f32 field.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressRequest {
    /// Codec display name ([`cc_codecs::Variant::by_name`]).
    pub variant: String,
    /// Field layout.
    pub layout: Layout,
    /// Field values, length `layout.len()`.
    pub data: Vec<f32>,
}

impl CompressRequest {
    /// Serialize to a request payload. Fails with
    /// [`WireError::NameTooLong`] when the variant name exceeds the
    /// u8 length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(1 + self.variant.len() + 16 + self.data.len() * 4);
        put_name(&mut out, &self.variant)?;
        push_layout(&mut out, self.layout);
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Ok(out)
    }

    /// Parse from an untrusted payload. The field length must match the
    /// declared layout exactly, so allocation is bounded by the payload
    /// bytes actually present.
    pub fn decode(payload: &[u8]) -> Result<CompressRequest, PayloadError> {
        let mut c = Cursor::new(payload);
        let variant = c.name()?;
        let layout = read_layout(&mut c)?;
        let rest = c.rest();
        let want = layout.len().checked_mul(4).ok_or(PayloadError)?;
        if rest.len() != want {
            return Err(PayloadError);
        }
        let data = rest
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        Ok(CompressRequest { variant, layout, data })
    }
}

/// `Decompress` request: codec name, layout, compressed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompressRequest {
    /// Codec display name.
    pub variant: String,
    /// Layout the stream was compressed under.
    pub layout: Layout,
    /// The compressed stream.
    pub stream: Vec<u8>,
}

impl DecompressRequest {
    /// Serialize to a request payload. Fails with
    /// [`WireError::NameTooLong`] when the variant name exceeds the
    /// u8 length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(1 + self.variant.len() + 16 + self.stream.len());
        put_name(&mut out, &self.variant)?;
        push_layout(&mut out, self.layout);
        out.extend_from_slice(&self.stream);
        Ok(out)
    }

    /// Parse from an untrusted payload. The declared layout bounds the
    /// decode-side output allocation; the server additionally caps
    /// `layout.len()` against its payload cap before decompressing.
    pub fn decode(payload: &[u8]) -> Result<DecompressRequest, PayloadError> {
        let mut c = Cursor::new(payload);
        let variant = c.name()?;
        let layout = read_layout(&mut c)?;
        let stream = c.rest().to_vec();
        Ok(DecompressRequest { variant, layout, stream })
    }
}

/// `Evaluate` request: run the paper's four acceptance tests for one
/// variable × variant at a quick scale chosen by the client (bounded by
/// the server's [`crate::server::EvalLimits`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalRequest {
    /// Codec display name.
    pub variant: String,
    /// CAM variable name (e.g. `U`, `FSDSC`).
    pub var: String,
    /// Ensemble members to synthesize.
    pub members: u16,
    /// Grid resolution parameter.
    pub ne: u16,
    /// Vertical levels.
    pub nlev: u16,
    /// Model seed.
    pub seed: u64,
}

impl EvalRequest {
    /// Serialize to a request payload. Fails with
    /// [`WireError::NameTooLong`] when either name exceeds the u8
    /// length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        put_name(&mut out, &self.variant)?;
        put_name(&mut out, &self.var)?;
        out.extend_from_slice(&self.members.to_le_bytes());
        out.extend_from_slice(&self.ne.to_le_bytes());
        out.extend_from_slice(&self.nlev.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        Ok(out)
    }

    /// Parse from an untrusted payload.
    pub fn decode(payload: &[u8]) -> Result<EvalRequest, PayloadError> {
        let mut c = Cursor::new(payload);
        let variant = c.name()?;
        let var = c.name()?;
        let members = c.u16()?;
        let ne = c.u16()?;
        let nlev = c.u16()?;
        let seed = c.u64()?;
        if !c.rest().is_empty() {
            return Err(PayloadError);
        }
        Ok(EvalRequest { variant, var, members, ne, nlev, seed })
    }
}

/// `Evaluate` response: compression ratio plus the four test outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResponse {
    /// Compressed / raw bytes, averaged over sampled members.
    pub cr: f64,
    /// Pearson-correlation test.
    pub pearson_pass: bool,
    /// RMSZ ensemble test.
    pub rmsz_pass: bool,
    /// E_nmax ensemble test.
    pub enmax_pass: bool,
    /// Bias regression test.
    pub bias_pass: bool,
}

impl EvalResponse {
    /// All four tests passed ("indistinguishable").
    pub fn all_pass(&self) -> bool {
        self.pearson_pass && self.rmsz_pass && self.enmax_pass && self.bias_pass
    }

    /// Serialize to a response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9);
        out.extend_from_slice(&self.cr.to_le_bytes());
        let flags = (self.pearson_pass as u8)
            | (self.rmsz_pass as u8) << 1
            | (self.enmax_pass as u8) << 2
            | (self.bias_pass as u8) << 3;
        out.push(flags);
        out
    }

    /// Parse from an untrusted payload.
    pub fn decode(payload: &[u8]) -> Result<EvalResponse, PayloadError> {
        let mut c = Cursor::new(payload);
        let cr = c.f64()?;
        let flags = c.u8()?;
        if !c.rest().is_empty() {
            return Err(PayloadError);
        }
        Ok(EvalResponse {
            cr,
            pearson_pass: flags & 1 != 0,
            rmsz_pass: flags & 2 != 0,
            enmax_pass: flags & 4 != 0,
            bias_pass: flags & 8 != 0,
        })
    }
}

/// Whether a client-supplied archive name is safe to use as a file stem
/// in the server's archive directory: 1..=128 bytes of `[A-Za-z0-9._-]`,
/// at least one alphanumeric, no leading dot. Rules out path separators,
/// `.`/`..`, and hidden files by construction.
pub fn archive_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && name.bytes().any(|b| b.is_ascii_alphanumeric())
}

/// `ArchivePut` request: archive name + complete `cc-arch/1` bytes. The
/// server validates the container before storing it. The bytes are
/// borrowed: from the caller's archive on the client, from the frame
/// payload on the server, so a put copies the archive only into its
/// request payload and its frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchivePutRequest<'a> {
    /// Archive name ([`archive_name_ok`]); the server stores the file as
    /// `<name>.ccarch`.
    pub name: String,
    /// The full archive byte stream.
    pub bytes: &'a [u8],
}

impl<'a> ArchivePutRequest<'a> {
    /// Serialize to a request payload.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(1 + self.name.len() + self.bytes.len());
        put_name(&mut out, &self.name)?;
        out.extend_from_slice(self.bytes);
        Ok(out)
    }

    /// Parse from an untrusted payload. The name must satisfy
    /// [`archive_name_ok`]; the archive bytes, borrowed from `payload`,
    /// are validated by the handler via `ArchiveReader::open`.
    pub fn decode(payload: &'a [u8]) -> Result<ArchivePutRequest<'a>, PayloadError> {
        let mut c = Cursor::new(payload);
        let name = c.name()?;
        if !archive_name_ok(&name) {
            return Err(PayloadError);
        }
        Ok(ArchivePutRequest { name, bytes: c.rest() })
    }
}

/// `ArchivePut` response: what the server accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchivePutResponse {
    /// Stored file size in bytes.
    pub bytes: u64,
    /// Variables in the archive.
    pub vars: u32,
    /// Total frames across variables.
    pub frames: u32,
}

impl ArchivePutResponse {
    /// Serialize to a response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.bytes.to_le_bytes());
        out.extend_from_slice(&self.vars.to_le_bytes());
        out.extend_from_slice(&self.frames.to_le_bytes());
        out
    }

    /// Parse from an untrusted payload.
    pub fn decode(payload: &[u8]) -> Result<ArchivePutResponse, PayloadError> {
        let mut c = Cursor::new(payload);
        let bytes = c.u64()?;
        let vars = c.u32()?;
        let frames = c.u32()?;
        if !c.rest().is_empty() {
            return Err(PayloadError);
        }
        Ok(ArchivePutResponse { bytes, vars, frames })
    }
}

/// `FetchSlice` request: one (variable, timestep, level) slice from a
/// stored archive. The response payload is the raw f32 LE slice
/// (`npts` elements), streamed via [`OP_STREAM`] when large.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchSliceRequest {
    /// Archive name ([`archive_name_ok`]).
    pub name: String,
    /// Variable name inside the archive.
    pub var: String,
    /// Timestep index.
    pub t: u32,
    /// Vertical level index.
    pub lev: u32,
}

impl FetchSliceRequest {
    /// Serialize to a request payload.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        put_name(&mut out, &self.name)?;
        put_name(&mut out, &self.var)?;
        out.extend_from_slice(&self.t.to_le_bytes());
        out.extend_from_slice(&self.lev.to_le_bytes());
        Ok(out)
    }

    /// Parse from an untrusted payload.
    pub fn decode(payload: &[u8]) -> Result<FetchSliceRequest, PayloadError> {
        let mut c = Cursor::new(payload);
        let name = c.name()?;
        if !archive_name_ok(&name) {
            return Err(PayloadError);
        }
        let var = c.name()?;
        if var.is_empty() {
            return Err(PayloadError);
        }
        let t = c.u32()?;
        let lev = c.u32()?;
        if !c.rest().is_empty() {
            return Err(PayloadError);
        }
        Ok(FetchSliceRequest { name, var, t, lev })
    }
}

// ---------------------------------------------------------------------
// Telemetry span-tree codec (OP_TELEMETRY payloads).
// ---------------------------------------------------------------------

/// Cap on nodes in one decoded telemetry tree. Server request trees
/// are a handful of spans plus one per streamed chunk; anything past
/// this is hostile or broken.
pub const MAX_TELEMETRY_NODES: usize = 4096;
/// Cap on telemetry tree depth (recursion bound for the total decoder).
pub const MAX_TELEMETRY_DEPTH: usize = 64;

/// Serialize a span subtree for an [`OP_TELEMETRY`] payload. Preorder,
/// per node: u8-length-prefixed name (truncated at 255 bytes — span
/// names are short static strings), `start_ns` u64 LE, `dur_ns` u64
/// LE, child count u16 LE, then the children. Times are on the
/// **server's** clock; the client rebases them while stitching.
pub fn encode_span_tree(root: &cc_obs::SpanNode) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, node: &cc_obs::SpanNode) {
        let name = &node.name.as_bytes()[..node.name.len().min(u8::MAX as usize)];
        out.push(name.len() as u8);
        out.extend_from_slice(name);
        out.extend_from_slice(&node.start_ns.to_le_bytes());
        out.extend_from_slice(&node.dur_ns.to_le_bytes());
        let n = node.children.len().min(u16::MAX as usize);
        out.extend_from_slice(&(n as u16).to_le_bytes());
        for c in &node.children[..n] {
            put(out, c);
        }
    }
    let mut out = Vec::new();
    put(&mut out, root);
    out
}

/// Decode an [`OP_TELEMETRY`] payload back into a span tree. Total
/// over untrusted bytes: bounds-checked cursor reads, a global
/// [`MAX_TELEMETRY_NODES`] budget, a [`MAX_TELEMETRY_DEPTH`] recursion
/// cap, and trailing garbage is rejected. Names are interned (the
/// span-tree node type carries `&'static str`).
pub fn decode_span_tree(payload: &[u8]) -> Result<cc_obs::SpanNode, PayloadError> {
    fn node(
        c: &mut Cursor,
        budget: &mut usize,
        depth: usize,
    ) -> Result<cc_obs::SpanNode, PayloadError> {
        if depth > MAX_TELEMETRY_DEPTH || *budget == 0 {
            return Err(PayloadError);
        }
        *budget -= 1;
        let name = c.name()?;
        if name.is_empty() {
            return Err(PayloadError);
        }
        let start_ns = c.u64()?;
        let dur_ns = c.u64()?;
        start_ns.checked_add(dur_ns).ok_or(PayloadError)?;
        let n_children = c.u16()? as usize;
        if n_children > *budget {
            return Err(PayloadError);
        }
        let mut children = Vec::with_capacity(n_children);
        for _ in 0..n_children {
            children.push(node(c, budget, depth + 1)?);
        }
        Ok(cc_obs::SpanNode { name: cc_obs::intern(&name), start_ns, dur_ns, children })
    }
    let mut c = Cursor::new(payload);
    let mut budget = MAX_TELEMETRY_NODES;
    let root = node(&mut c, &mut budget, 1)?;
    if !c.rest().is_empty() {
        return Err(PayloadError);
    }
    Ok(root)
}

/// Encode an [`OP_ERROR`] payload.
pub fn encode_error(code: ErrCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&(code as u16).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decode an [`OP_ERROR`] payload (lossy UTF-8 on the message).
pub fn decode_error(payload: &[u8]) -> (ErrCode, String) {
    if payload.len() < 2 {
        return (ErrCode::Internal, "malformed error payload".into());
    }
    let code = ErrCode::from_u16(u16::from_le_bytes([payload[0], payload[1]]));
    (code, String::from_utf8_lossy(&payload[2..]).into_owned())
}

/// Decode an f32 LE field payload (the `Decompress` success response).
pub fn decode_f32_payload(payload: &[u8]) -> Result<Vec<f32>, PayloadError> {
    if !payload.len().is_multiple_of(4) {
        return Err(PayloadError);
    }
    Ok(payload
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect())
}

/// Encode a field as an f32 LE payload.
pub fn encode_f32_payload(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One blocking frame read from the front of `bytes`.
    fn read_one(bytes: &[u8], cap: usize) -> Result<Frame, WireError> {
        FrameDecoder::new(cap).read_frame(&mut &*bytes)
    }

    /// A reader handing out at most `step` bytes per `read`, counting
    /// the calls.
    struct Drip<'a> {
        bytes: &'a [u8],
        step: usize,
        reads: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_roundtrips() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let bytes = encode_frame(Opcode::Compress as u8, 42, &payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        let frame = read_one(&bytes, 1 << 20).unwrap();
        assert_eq!(frame.opcode, Opcode::Compress as u8);
        assert_eq!(frame.req_id, 42);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_read_is_clean_close() {
        assert!(matches!(read_one(&[], 1024), Err(WireError::Closed)));
    }

    #[test]
    fn blocking_reads_stop_at_each_frame_boundary() {
        let ctx = TraceContext { trace_id: 0xfeed << 64 | 0xbeef, parent_span: 11 };
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let frame = |opcode, req_id, trace, payload| Frame { opcode, req_id, trace, payload };
        let expect = [
            frame(Opcode::Evaluate as u8, 1, Some(ctx), vec![5; 40]),
            frame(Opcode::Ping as u8, 2, None, vec![]),
            frame(OP_STREAM, 3, None, big),
        ];
        let stream: Vec<u8> = expect
            .iter()
            .flat_map(|f| try_encode_frame(f.trace, f.opcode, f.req_id, &f.payload).unwrap())
            .collect();
        // Whole reads: one per header, extension and READ_CHUNK of payload
        // (3 + 1 + 3), plus the closing zero-byte read. One-byte reads: one
        // per byte plus the close. Either way no read crosses a frame end.
        for (step, reads) in [(usize::MAX, 8), (1, stream.len() + 1)] {
            let mut r = Drip { bytes: &stream, step, reads: 0 };
            for want in &expect {
                let got = FrameDecoder::new(1 << 20).read_frame(&mut r).expect("frame");
                assert_eq!(&got, want, "step {step}");
            }
            assert!(matches!(
                FrameDecoder::new(1 << 20).read_frame(&mut r),
                Err(WireError::Closed)
            ));
            assert_eq!(r.reads, reads, "step {step}");
        }
    }

    #[test]
    fn header_damage_is_detected() {
        let good = encode_frame(Opcode::Ping as u8, 7, &[]);
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(read_one(&bad_magic, 1024), Err(WireError::BadMagic)));
        // Every version byte but 2, traced or not, is damage through both
        // entry points: version 1 plain or flagged, 0, 3, 9, a bare flag.
        for raw in [0u8, 1, 1 | FLAG_TRACE, 3, 9, FLAG_TRACE] {
            let mut bad_version = good.clone();
            bad_version[4] = raw;
            assert!(
                matches!(
                    read_one(&bad_version, 1024),
                    Err(WireError::BadVersion(v)) if v == raw
                ),
                "version byte {raw:#04x} must be BadVersion"
            );
            let mut dec = FrameDecoder::new(1024);
            let mut got = Vec::new();
            assert!(
                matches!(
                    dec.feed(&bad_version, &mut got),
                    Err(WireError::BadVersion(v)) if v == raw
                ),
                "version byte {raw:#04x} must be BadVersion through feed"
            );
            assert!(got.is_empty());
        }
        assert!(matches!(read_one(&good[..HEADER_LEN - 3], 1024), Err(WireError::Truncated)));
    }

    #[test]
    fn oversized_declaration_rejected_before_allocation() {
        let mut bytes = encode_frame(Opcode::Ping as u8, 1, &[]);
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_one(&bytes, 1024) {
            Err(WireError::TooLarge { declared, cap }) => {
                assert_eq!(declared, u32::MAX as u64);
                assert_eq!(cap, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_truncated_not_closed() {
        let bytes = encode_frame(Opcode::Stats as u8, 3, &[9u8; 100]);
        assert!(matches!(read_one(&bytes[..HEADER_LEN + 10], 1024), Err(WireError::Truncated)));
    }

    #[test]
    fn compress_request_roundtrips_and_rejects_length_mismatch() {
        let req = CompressRequest {
            variant: "fpzip-24".into(),
            layout: Layout::linear(100),
            data: (0..100).map(|i| i as f32).collect(),
        };
        let payload = req.encode().unwrap();
        assert_eq!(CompressRequest::decode(&payload).unwrap(), req);
        // One trailing byte breaks the exact-length invariant.
        let mut longer = payload.clone();
        longer.push(0);
        assert!(CompressRequest::decode(&longer).is_err());
        assert!(CompressRequest::decode(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn degenerate_layouts_rejected() {
        let mut bad = Vec::new();
        put_name(&mut bad, "fpzip-24").unwrap();
        // nlev = 0.
        for v in [0u32, 10, 4, 4] {
            bad.extend_from_slice(&v.to_le_bytes());
        }
        assert!(CompressRequest::decode(&bad).is_err());
        // Overflowing nlev × npts.
        let mut huge = Vec::new();
        put_name(&mut huge, "fpzip-24").unwrap();
        for v in [u32::MAX, u32::MAX, 4, 4] {
            huge.extend_from_slice(&v.to_le_bytes());
        }
        assert!(CompressRequest::decode(&huge).is_err());
        // Embedding smaller than npts.
        let mut small_embed = Vec::new();
        put_name(&mut small_embed, "fpzip-24").unwrap();
        for v in [1u32, 100, 2, 2] {
            small_embed.extend_from_slice(&v.to_le_bytes());
        }
        assert!(DecompressRequest::decode(&small_embed).is_err());
    }

    #[test]
    fn oversized_names_are_hard_encode_errors() {
        let long = "x".repeat(256);
        let req = CompressRequest {
            variant: long.clone(),
            layout: Layout::linear(4),
            data: vec![0.0; 4],
        };
        assert!(matches!(req.encode(), Err(WireError::NameTooLong(256))));
        let req = DecompressRequest {
            variant: long.clone(),
            layout: Layout::linear(4),
            stream: vec![],
        };
        assert!(matches!(req.encode(), Err(WireError::NameTooLong(256))));
        let req = EvalRequest {
            variant: "fpzip-24".into(),
            var: long.clone(),
            members: 3,
            ne: 3,
            nlev: 2,
            seed: 0,
        };
        assert!(matches!(req.encode(), Err(WireError::NameTooLong(256))));
        // 255 bytes is the boundary and still legal.
        let mut out = Vec::new();
        put_name(&mut out, &"y".repeat(255)).unwrap();
        assert_eq!(out.len(), 256);
        assert_eq!(out[0], 255);
    }

    #[test]
    fn frame_payloads_beyond_u32_are_rejected() {
        // A 4 GiB buffer is too big to materialize in a test, so check
        // the guard by contract: the boundary below the cap encodes, a
        // synthetic length above it is refused before any copy.
        assert!(try_encode_frame(None, Opcode::Ping as u8, 1, &[]).is_ok());
        match try_encode_frame(None, OP_STREAM, 1, &[0u8; 16]) {
            Ok(frame) => assert_eq!(frame.len(), HEADER_LEN + 16),
            Err(e) => panic!("small frame must encode: {e}"),
        }
        // The cap itself is pinned so a header-layout change can't
        // silently widen it past what the length field can carry.
        assert_eq!(MAX_FRAME_PAYLOAD, u32::MAX as usize);
    }

    #[test]
    fn frame_decoder_frames_identically_at_any_split() {
        let frames = [
            encode_frame(Opcode::Ping as u8, 1, &[]),
            encode_frame(Opcode::Compress as u8, 2, &[7u8; 300]),
            encode_frame(OP_STREAM, 3, &[9u8; 64]),
            encode_frame(Opcode::Shutdown as u8, 4, &[]),
        ];
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        // Feed the byte stream at several pathological granularities —
        // including 1 byte at a time — and require identical framing.
        for step in [1usize, 2, 7, 17, 18, 19, 1024] {
            let mut dec = FrameDecoder::new(1 << 20);
            let mut got = Vec::new();
            for piece in stream.chunks(step) {
                dec.feed(piece, &mut got).expect("well-formed stream");
            }
            assert!(dec.at_boundary(), "step {step} left partial state");
            assert_eq!(got.len(), 4, "step {step}");
            for (frame, bytes) in got.iter().zip(&frames) {
                assert_eq!(&encode_frame(frame.opcode, frame.req_id, &frame.payload), bytes);
            }
        }
    }

    #[test]
    fn frame_decoder_rejects_damage_and_oversize() {
        let mut dec = FrameDecoder::new(1024);
        let mut out = Vec::new();
        let mut bad = encode_frame(Opcode::Ping as u8, 1, &[]);
        bad[0] ^= 0xFF;
        assert!(matches!(dec.feed(&bad, &mut out), Err(WireError::BadMagic)));

        let mut dec = FrameDecoder::new(1024);
        let mut oversized = encode_frame(Opcode::Ping as u8, 1, &[]);
        oversized[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        // Drip the header one byte at a time: the error must surface the
        // moment the header completes, before any payload allocation.
        let mut result = Ok(());
        for (i, b) in oversized.iter().enumerate() {
            result = dec.feed(std::slice::from_ref(b), &mut out);
            if result.is_err() {
                assert_eq!(i, HEADER_LEN - 1, "error must land on the final header byte");
                break;
            }
        }
        assert!(matches!(result, Err(WireError::TooLarge { declared, cap: 1024 })
            if declared == u32::MAX as u64));
        assert!(out.is_empty());
    }

    #[test]
    fn eval_request_and_response_roundtrip() {
        let req = EvalRequest {
            variant: "GRIB2".into(),
            var: "U".into(),
            members: 5,
            ne: 3,
            nlev: 4,
            seed: 2014,
        };
        assert_eq!(EvalRequest::decode(&req.encode().unwrap()).unwrap(), req);
        let resp = EvalResponse {
            cr: 0.25,
            pearson_pass: true,
            rmsz_pass: false,
            enmax_pass: true,
            bias_pass: true,
        };
        let back = EvalResponse::decode(&resp.encode()).unwrap();
        assert_eq!(back, resp);
        assert!(!back.all_pass());
    }

    #[test]
    fn untraced_v2_frame_costs_zero_extra_bytes() {
        // The disabled-path wire pin: without the trace flag a frame is
        // the bare header plus payload.
        let payload = [9u8; 37];
        let v2 = encode_frame(Opcode::Compress as u8, 5, &payload);
        assert_eq!(v2.len(), HEADER_LEN + payload.len());
        assert_eq!(v2[4], VERSION);
        assert_eq!(v2, try_encode_frame(None, Opcode::Compress as u8, 5, &payload).unwrap());
    }

    #[test]
    fn trace_extension_roundtrips_at_any_split() {
        let ctx = TraceContext { trace_id: 0x0123_4567_89ab_cdef_1122_3344_5566_7788, parent_span: 42 };
        let bytes = try_encode_frame(Some(ctx), Opcode::Evaluate as u8, 77, &[1, 2, 3]).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + TRACE_EXT_LEN + 3);
        assert_eq!(bytes[4], VERSION | FLAG_TRACE);
        let frame = Frame {
            opcode: Opcode::Evaluate as u8,
            req_id: 77,
            trace: Some(ctx),
            payload: vec![1, 2, 3],
        };
        assert_eq!(read_one(&bytes, 1024).unwrap(), frame);
        // The incremental decoder must agree at every granularity,
        // including splits inside the extension.
        for step in [1usize, 5, 18, 23, 41, 1024] {
            let mut dec = FrameDecoder::new(1024);
            let mut got = Vec::new();
            for piece in bytes.chunks(step) {
                dec.feed(piece, &mut got).expect("well-formed");
            }
            assert!(dec.at_boundary(), "step {step}");
            assert_eq!(got.len(), 1, "step {step}");
            assert_eq!(got[0], frame, "step {step}");
        }
    }

    #[test]
    fn span_tree_codec_roundtrips() {
        let tree = cc_obs::SpanNode {
            name: "srv.request",
            start_ns: 100,
            dur_ns: 900,
            children: vec![
                cc_obs::SpanNode { name: "srv.decode", start_ns: 100, dur_ns: 40, children: vec![] },
                cc_obs::SpanNode {
                    name: "srv.compute",
                    start_ns: 200,
                    dur_ns: 700,
                    children: vec![cc_obs::SpanNode {
                        name: "srv.chunk.encode",
                        start_ns: 220,
                        dur_ns: 300,
                        children: vec![],
                    }],
                },
            ],
        };
        let payload = encode_span_tree(&tree);
        let back = decode_span_tree(&payload).expect("roundtrip");
        assert_eq!(back, tree);
        // Trailing garbage and truncation are both rejected.
        let mut longer = payload.clone();
        longer.push(0);
        assert!(decode_span_tree(&longer).is_err());
        assert!(decode_span_tree(&payload[..payload.len() - 1]).is_err());
        assert!(decode_span_tree(&[]).is_err());
    }

    #[test]
    fn span_tree_decode_is_bounded() {
        // A node claiming u16::MAX children with no bytes behind the
        // claim must fail fast on the node budget, not allocate wildly.
        let mut hostile = Vec::new();
        hostile.push(1u8);
        hostile.push(b'x');
        hostile.extend_from_slice(&0u64.to_le_bytes());
        hostile.extend_from_slice(&1u64.to_le_bytes());
        hostile.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode_span_tree(&hostile).is_err());
        // A deep chain past MAX_TELEMETRY_DEPTH is rejected.
        let mut deep = Vec::new();
        for _ in 0..(MAX_TELEMETRY_DEPTH + 2) {
            deep.push(1u8);
            deep.push(b'd');
            deep.extend_from_slice(&0u64.to_le_bytes());
            deep.extend_from_slice(&1u64.to_le_bytes());
            deep.extend_from_slice(&1u16.to_le_bytes());
        }
        // Terminate the chain so only depth can fail it.
        deep.truncate(deep.len() - 2);
        deep.extend_from_slice(&0u16.to_le_bytes());
        assert!(decode_span_tree(&deep).is_err());
    }

    #[test]
    fn error_payload_roundtrips() {
        let payload = encode_error(ErrCode::UnknownVariant, "no such codec");
        let (code, msg) = decode_error(&payload);
        assert_eq!(code, ErrCode::UnknownVariant);
        assert_eq!(msg, "no such codec");
        // Short payloads degrade gracefully.
        let (code, _) = decode_error(&[1]);
        assert_eq!(code, ErrCode::Internal);
    }

    #[test]
    fn f32_payload_roundtrips() {
        let data = vec![1.5f32, -2.25, 0.0, f32::MAX];
        let payload = encode_f32_payload(&data);
        assert_eq!(decode_f32_payload(&payload).unwrap(), data);
        assert!(decode_f32_payload(&payload[..payload.len() - 1]).is_err());
    }
}
