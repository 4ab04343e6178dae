//! Wire-level fault injection against a live loopback server.
//!
//! Feeds 1,000+ damaged frames (truncations, bit flips, byte mutations,
//! random streams, oversized length declarations) into a running
//! `cc-serve` daemon over real sockets. The server must never panic,
//! must answer each connection with either a well-formed frame or a
//! clean close, and its peak single allocation must stay proportional
//! to the bytes it actually received — a corrupt header declaring a
//! 4 GiB payload must not allocate 4 GiB. Afterwards the exported
//! TRACE.json must validate and carry the `serve.frame_corrupt` and
//! `serve.busy` counters.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cc_bench::faults;
use climate_compress::codecs::chunked::compress_chunked;
use climate_compress::codecs::{Layout, Variant};
use climate_compress::obs as cc_obs;
use climate_compress::serve::wire::{
    self, encode_frame, CompressRequest, FrameDecoder, Opcode, WireError, MAGIC, OP_BUSY, VERSION,
};
use climate_compress::serve::{Client, Server, ServerConfig};

/// Tracks the largest single heap allocation made by any thread —
/// including the server's worker threads, which is the point: the
/// server runs in-process, so an unbounded `Vec::with_capacity` on a
/// hostile length lands in this gauge.
struct PeakAlloc;

static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

fn smooth_field(npts: usize, nlev: usize) -> (Vec<f32>, Layout) {
    let linear = Layout::linear(npts);
    let layout = Layout { nlev, npts, rows: linear.rows, cols: linear.cols };
    let mut data = Vec::with_capacity(layout.len());
    for lev in 0..nlev {
        for p in 0..npts {
            let x = p as f32 / npts as f32;
            data.push(260.0 + 15.0 * (5.9 * x).sin() + 2.0 * (23.0 * x).cos() + lev as f32);
        }
    }
    (data, layout)
}

/// A frame header declaring `declared` payload bytes, with no payload
/// attached — the "oversized" corpus axis.
fn oversized_header(declared: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(wire::HEADER_LEN);
    h.extend_from_slice(&MAGIC);
    h.push(VERSION);
    h.push(Opcode::Compress as u8);
    h.extend_from_slice(&7u64.to_le_bytes());
    h.extend_from_slice(&declared.to_le_bytes());
    h
}

/// The fuzzer must not be able to gracefully drain the server by
/// accident: a damaged byte can turn an opcode into `Shutdown`, which
/// is a *valid* request. Redirect exactly that byte to an invalid
/// opcode so the case still exercises the error path.
fn defuse_shutdown(case: &mut [u8]) {
    if case.len() > 5 && case[..4] == MAGIC && case[4] == VERSION && case[5] == Opcode::Shutdown as u8
    {
        case[5] = 0x00;
    }
}

/// Drive one damaged case against the server: write it, half-close, and
/// read whatever comes back. Returns an error description on protocol
/// violations (server hung, or sent a malformed frame).
fn poke(addr: &str, case: &[u8]) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("set write timeout");
    // The server may detect corruption and close while we are still
    // writing; a broken pipe here is a legitimate outcome, not an error.
    let _ = stream.write_all(case);
    let _ = stream.shutdown(Shutdown::Write);

    // The server answers with zero or more complete frames and then
    // closes. Anything else — a timeout (hung server) or a frame that
    // does not parse — is a protocol violation.
    for _ in 0..16 {
        match FrameDecoder::new(wire::DEFAULT_MAX_PAYLOAD).read_frame(&mut stream) {
            Ok(_) => continue,
            Err(WireError::Closed) => return Ok(()),
            Err(WireError::Io(e)) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    return Err("server hung: read timed out".into());
                }
                // Reset-on-close races (server closed with unread input
                // still buffered) are a clean close at this layer.
                return Ok(());
            }
            Err(WireError::Truncated) => return Ok(()),
            Err(other) => return Err(format!("malformed response frame: {other:?}")),
        }
    }
    Err("server kept streaming frames at a single damaged request".into())
}

#[test]
fn corrupt_frames_never_panic_never_overallocate() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 64,
        max_payload: 1 << 20,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();

    // Base artifact: one valid Compress frame (~12 KiB payload).
    let (data, layout) = smooth_field(1500, 2);
    let payload = CompressRequest {
        variant: "fpzip-24".to_string(),
        layout,
        data: data.clone(),
    }
    .encode()
    .expect("encode");
    let frame = encode_frame(Opcode::Compress as u8, 42, &payload);

    let mut corpus = faults::corpus(&frame, 2014);
    for declared in [
        (1u32 << 20) + 1,      // one past the server's cap
        64 << 20,              // the default cap, far past this server's
        u32::MAX,              // 4 GiB
    ] {
        corpus.push(oversized_header(declared));
    }
    for case in &mut corpus {
        defuse_shutdown(case);
    }
    assert!(corpus.len() >= 1_000, "need ≥1000 cases, built {}", corpus.len());
    let max_len = corpus.iter().map(Vec::len).max().unwrap_or(0).max(frame.len());
    // Generous constant floor for connection bookkeeping, counter
    // interning, and codec scratch — but far below any hostile declared
    // length (the oversized headers above declare up to 4 GiB).
    let cap = 16 * max_len + (256 << 10);

    let corrupt_before = cc_obs::counter_value("serve.frame_corrupt");
    PEAK.store(0, Ordering::Relaxed);

    for (i, case) in corpus.iter().enumerate() {
        if let Err(why) = poke(&addr, case) {
            panic!("case {i} ({} bytes): {why}", case.len());
        }
        let peak = PEAK.load(Ordering::Relaxed);
        assert!(
            peak <= cap,
            "case {i}: peak single allocation {peak} exceeds cap {cap} \
             (largest corpus case is {max_len} bytes)"
        );
    }

    let corrupt_after = cc_obs::counter_value("serve.frame_corrupt");
    assert!(
        corrupt_after >= corrupt_before + 100,
        "expected the corpus to trip serve.frame_corrupt at least 100 times \
         ({corrupt_before} -> {corrupt_after})"
    );

    // The server must still be fully functional after the barrage.
    let mut client = Client::connect(&addr).expect("connect after fuzz");
    client.ping().expect("ping after fuzz");
    let remote = client.compress("fpzip-24", layout, &data).expect("compress after fuzz");
    let codec = Variant::by_name("fpzip-24").expect("variant").codec();
    let reference = compress_chunked(codec.as_ref(), &data, layout, 1);
    assert_eq!(remote, reference, "post-fuzz stream must match the sequential reference");
    drop(client);
    server.shutdown();

    // Trip serve.busy so the exported trace carries both counters: a
    // connection cap of two, two parked connections, third rejected.
    let busy_server = Server::start(ServerConfig {
        workers: 1,
        max_conns: 2,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind busy server");
    let busy_addr = busy_server.addr().to_string();
    let _occupant = TcpStream::connect(&busy_addr).expect("occupant");
    std::thread::sleep(Duration::from_millis(150));
    let _queued = TcpStream::connect(&busy_addr).expect("queued");
    std::thread::sleep(Duration::from_millis(150));
    let mut rejected = TcpStream::connect(&busy_addr).expect("rejected");
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let busy = FrameDecoder::new(wire::DEFAULT_MAX_PAYLOAD)
        .read_frame(&mut rejected)
        .expect("busy frame");
    assert_eq!(busy.opcode, OP_BUSY);
    drop(rejected);
    drop(_queued);
    drop(_occupant);
    busy_server.shutdown();
    assert!(cc_obs::counter_value("serve.busy") > 0);

    // Export the telemetry exactly like `ccc serve --trace` does and
    // check it validates and names both counters with live values.
    let report = cc_obs::trace::TraceReport::collect();
    let text = report.to_json();
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_faults_trace.json");
    std::fs::write(&out, &text).expect("write TRACE.json");
    let written = std::fs::read_to_string(&out).expect("read TRACE.json back");
    cc_obs::trace::validate(&written).expect("exported trace validates");
    for counter in ["serve.frame_corrupt", "serve.busy"] {
        assert!(
            written.contains(&format!("\"{counter}\"")),
            "exported trace must carry {counter}"
        );
        assert!(cc_obs::counter_value(counter) > 0, "{counter} must be nonzero");
    }
}
