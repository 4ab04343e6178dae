//! Reactor-specific behaviour: partial-write resumption, chunk-level
//! reply streaming, slow-loris isolation, the write deadline, how soon a
//! shard wakes (and that it sleeps otherwise), and the client's
//! per-request deadline. These pin the properties the sharded poll loop
//! exists for, beyond the plain roundtrip/concurrency coverage.
//!
//! Every test holds [`serial`]: the timing tests need the CPU to
//! themselves, and the per-shard counters they read are process-wide,
//! so another test's `shard0` would move them.

use cc_codecs::chunked::compress_chunked;
use cc_codecs::{Layout, Variant};
use cc_serve::wire::{
    encode_frame, CompressRequest, DecompressRequest, FrameDecoder, Opcode, DEFAULT_MAX_PAYLOAD,
    OP_STREAM,
};
use cc_serve::{Client, ClientConfig, ClientError, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Poll `cond` every millisecond for up to 20 s.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn smooth_field(npts: usize, nlev: usize) -> (Vec<f32>, Layout) {
    let linear = Layout::linear(npts);
    let layout = Layout { nlev, npts, rows: linear.rows, cols: linear.cols };
    let mut data = Vec::with_capacity(layout.len());
    for lev in 0..nlev {
        for p in 0..npts {
            let x = p as f32 / npts as f32;
            data.push(255.0 + 18.0 * (6.7 * x).sin() + 4.0 * (27.0 * x).cos() + lev as f32);
        }
    }
    (data, layout)
}

fn reference(name: &str, data: &[f32], layout: Layout) -> Vec<u8> {
    let codec = Variant::by_name(name).expect("known variant").codec();
    compress_chunked(codec.as_ref(), data, layout, 1)
}

/// A 7-byte write chunk forces every reply through thousands of partial
/// writes; the resumed bytes must still be exactly the sequential
/// reference stream.
#[test]
fn partial_writes_resume_to_identical_bytes() {
    let _serial = serial();
    let (data, layout) = smooth_field(2000, 2);
    let server = Server::start(ServerConfig {
        shards: 1,
        workers: 1,
        write_chunk: 7,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    for name in ["fpzip-24", "NetCDF-4"] {
        let remote = client.compress(name, layout, &data).expect("remote compress");
        assert_eq!(
            remote,
            reference(name, &data, layout),
            "{name} bytes diverged through 7-byte partial writes"
        );
    }
    drop(client);
    server.shutdown();
}

/// With a low stream threshold, a large reply must arrive as one or
/// more `OP_STREAM` continuation frames followed by the terminal frame,
/// and the concatenation must equal the unstreamed sequential bytes —
/// both through the raw wire and through the client's reassembly.
#[test]
fn streamed_replies_concatenate_to_sequential_bytes() {
    let _serial = serial();
    let (data, layout) = smooth_field(3000, 2);
    let server = Server::start(ServerConfig {
        shards: 2,
        workers: 2,
        stream_threshold: 1024,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let expect = reference("fpzip-24", &data, layout);
    assert!(expect.len() > 1024, "field too small to stream");

    // Raw wire: count the continuation frames ourselves.
    let req = CompressRequest { variant: "fpzip-24".into(), layout, data: data.clone() }
        .encode()
        .expect("encode");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(&encode_frame(Opcode::Compress as u8, 9, &req)).expect("send");
    let mut acc = Vec::new();
    let mut stream_frames = 0usize;
    loop {
        let frame =
            FrameDecoder::new(DEFAULT_MAX_PAYLOAD).read_frame(&mut stream).expect("reply frame");
        assert_eq!(frame.req_id, 9, "reply frames must echo the request id");
        acc.extend_from_slice(&frame.payload);
        if frame.opcode == OP_STREAM {
            stream_frames += 1;
        } else {
            assert_eq!(frame.opcode, Opcode::Compress.reply());
            break;
        }
    }
    assert!(
        stream_frames >= 1,
        "a {}-byte reply above a 1024-byte threshold must stream",
        expect.len()
    );
    assert_eq!(acc, expect, "streamed frames must concatenate to the sequential bytes");
    drop(stream);

    // Client path: reassembly is invisible, bytes identical.
    let mut client = Client::connect(&addr).expect("connect");
    let remote = client.compress("fpzip-24", layout, &data).expect("remote compress");
    assert_eq!(remote, expect);
    drop(client);
    server.shutdown();
}

/// A connection trickling header bytes slower than the frame-progress
/// deadline must be reaped without blocking other connections on the
/// same shard — the loris never resets the clock by dribbling.
#[test]
fn slow_loris_is_reaped_without_blocking_others() {
    let _serial = serial();
    let (data, layout) = smooth_field(500, 1);
    let server = Server::start(ServerConfig {
        shards: 1,
        workers: 1,
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let closed_before = cc_obs::counter_value("serve.conn_closed");

    let mut loris = TcpStream::connect(&addr).expect("loris connect");
    loris.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let loris_reader = loris.try_clone().expect("clone");

    // Trickle one valid header byte every 100 ms from a helper thread —
    // each byte is progress at the socket level but never completes a
    // frame, so the 400 ms frame-progress deadline must still fire.
    let trickler = std::thread::spawn(move || {
        let header = encode_frame(Opcode::Ping as u8, 1, &[]);
        for b in header {
            if loris.write_all(&[b]).is_err() {
                break;
            }
            let _ = loris.flush();
            std::thread::sleep(Duration::from_millis(100));
        }
    });

    // While the loris dribbles, a well-behaved client on the same shard
    // must complete real work promptly.
    let mut client = Client::connect(&addr).expect("client connect");
    let t0 = Instant::now();
    let remote = client.compress("fpzip-24", layout, &data).expect("compress during loris");
    assert_eq!(remote, reference("fpzip-24", &data, layout));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "victim request stalled behind the loris: {:?}",
        t0.elapsed()
    );

    // The loris connection must be closed by the server: its read side
    // sees EOF (or a reset) well before the trickle would finish a
    // frame's worth of bytes at 100 ms each.
    let mut one = [0u8; 1];
    let mut r = &loris_reader;
    match r.read(&mut one) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("server answered a half-frame dribble with data"),
    }
    trickler.join().expect("trickler");
    let closed_after = cc_obs::counter_value("serve.conn_closed");
    assert!(
        closed_after > closed_before,
        "reaping the loris must count a closed connection \
         ({closed_before} -> {closed_after})"
    );

    // The shard is healthy afterwards. (A fresh connection — the first
    // client has been idle past the 400 ms deadline by now, and idle
    // reaping uses the same frame-progress clock.)
    drop(client);
    let mut fresh = Client::connect(&addr).expect("connect after loris");
    fresh.ping().expect("ping after loris reaped");
    drop(fresh);
    server.shutdown();
}

/// A server dribbling one byte of a valid reply every 50 ms must trip
/// the client's overall per-request deadline as a typed
/// `ClientError::Timeout`, not hang per-`read()` forever.
#[test]
fn client_deadline_fires_on_byte_dribble() {
    let _serial = serial();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr").to_string();

    let dribbler = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        // Drain whatever request arrives, then dribble a valid Ping
        // reply one byte at a time — far slower than the deadline.
        let mut scratch = [0u8; 256];
        let _ = conn.read(&mut scratch);
        let reply = encode_frame(Opcode::Ping.reply(), 1, &[]);
        for b in reply.iter().cycle() {
            if conn.write_all(&[*b]).is_err() {
                break;
            }
            let _ = conn.flush();
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    let deadline = Duration::from_millis(300);
    let mut client = Client::connect_with(
        &addr,
        ClientConfig { request_deadline: deadline, ..ClientConfig::default() },
    )
    .expect("connect");
    let t0 = Instant::now();
    match client.ping() {
        Err(ClientError::Timeout(d)) => assert_eq!(d, deadline),
        other => panic!("expected ClientError::Timeout, got {other:?}"),
    }
    // The deadline is overall, not per byte: with bytes arriving every
    // 50 ms a per-read timeout would never fire, so elapsed time close
    // to the deadline (and far below the 18-byte header's 900 ms) is
    // the signature of the fix.
    assert!(
        t0.elapsed() < Duration::from_millis(800),
        "deadline fired too late: {:?}",
        t0.elapsed()
    );
    drop(client);
    dribbler.join().expect("dribbler");
}

/// A request is picked up as soon as its bytes land: the shard sleeps in
/// `poll(2)` on the socket rather than on a timer, so a ping round trip
/// takes well under the millisecond a timer-paced shard would add.
#[test]
fn ping_round_trip_is_not_paced_by_a_timer() {
    let _serial = serial();
    let server = Server::start(ServerConfig { shards: 1, workers: 1, ..ServerConfig::default() })
        .expect("bind loopback");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    client.ping().expect("warm-up ping");
    let mut rtts: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            client.ping().expect("ping");
            t0.elapsed()
        })
        .collect();
    rtts.sort_unstable();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_micros(500),
        "median ping round trip {median:?}: requests wait for a timer"
    );
    drop(client);
    server.shutdown();
}

/// The shard sleeps while nothing is ready. Eight idle connections wake
/// it at most a handful of times in 300 ms (a timer-paced loop wakes
/// every millisecond), and a half-closed peer whose multi-MB `Compress`
/// is in flight costs a wake per streamed piece, not a spin: a closed
/// read side is never polled for input.
#[test]
fn idle_and_half_closed_connections_do_not_wake_the_shard() {
    let _serial = serial();
    let server = Server::start(ServerConfig {
        shards: 1,
        workers: 1,
        stream_threshold: 64 << 10,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let counter = cc_obs::counter_value;
    let wakes = || counter("serve.shard0.wakes");

    let conns_before = counter("serve.shard0.conns");
    let idle: Vec<TcpStream> =
        (0..8).map(|_| TcpStream::connect(&addr).expect("connect")).collect();
    wait_until("8 accepts", || counter("serve.shard0.conns") >= conns_before + 8);
    std::thread::sleep(Duration::from_millis(50));
    let w0 = wakes();
    std::thread::sleep(Duration::from_millis(300));
    let idle_wakes = wakes() - w0;
    assert!(idle_wakes <= 5, "{idle_wakes} wakes in 300 ms with 8 idle connections");

    // Send a large Compress, half-close, and read nothing until the
    // compute pool has finished it.
    let (data, layout) = smooth_field(1 << 20, 2);
    let expect = reference("fpzip-24", &data, layout);
    let req = CompressRequest { variant: "fpzip-24".into(), layout, data }
        .encode()
        .expect("encode");
    let (frames0, requests0) = (counter("serve.shard0.frames"), counter("serve.requests"));
    let mut peer = TcpStream::connect(&addr).expect("connect");
    peer.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    peer.write_all(&encode_frame(Opcode::Compress as u8, 1, &req)).expect("send");
    peer.shutdown(Shutdown::Write).expect("half-close");
    wait_until("the request frame", || counter("serve.shard0.frames") > frames0);
    let (w0, pieces0) = (wakes(), counter("serve.stream.frames"));
    wait_until("the compress to finish", || counter("serve.requests") > requests0);
    let (inflight_wakes, pieces) = (wakes() - w0, counter("serve.stream.frames") - pieces0);
    assert!(
        inflight_wakes <= pieces + 5,
        "{inflight_wakes} wakes for {pieces} streamed pieces while the request was in flight"
    );
    let mut reply = Vec::new();
    loop {
        let frame = FrameDecoder::new(DEFAULT_MAX_PAYLOAD).read_frame(&mut peer).expect("reply");
        reply.extend_from_slice(&frame.payload);
        if frame.opcode != OP_STREAM {
            break;
        }
    }
    assert_eq!(reply, expect, "half-closed peer got the sequential bytes");

    drop(idle);
    server.shutdown();
}

/// A peer that stops reading a reply larger than the loopback socket
/// buffers is reaped once `write_timeout` passes without write progress,
/// while another connection on the same shard keeps getting replies.
/// The victim then goes quiet, so the shard's poll timeout alone has to
/// fire the deadline.
#[test]
fn stalled_reader_is_reaped_after_write_timeout() {
    let _serial = serial();
    let write_timeout = Duration::from_millis(400);
    let server = Server::start(ServerConfig {
        shards: 1,
        workers: 2,
        write_timeout,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let counter = cc_obs::counter_value;

    // A constant field compresses to almost nothing and decompresses to
    // a 16 MiB reply, several times what loopback buffers hold.
    let layout = Layout::linear(4 << 20);
    let stream = reference("fpzip-24", &vec![1.0f32; layout.len()], layout);
    let req = DecompressRequest { variant: "fpzip-24".into(), layout, stream }
        .encode()
        .expect("encode");
    let (closed0, out0) =
        (counter("serve.conn_closed"), counter("serve.op.decompress.bytes_out"));
    let mut victim = Client::connect(&addr).expect("victim connect");
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled.write_all(&encode_frame(Opcode::Decompress as u8, 1, &req)).expect("send");
    // The reply exists once its bytes are booked; its writes stall from
    // then on.
    wait_until("the decompress reply", || counter("serve.op.decompress.bytes_out") > out0);
    let t0 = Instant::now();
    for _ in 0..20 {
        let t = Instant::now();
        victim.ping().expect("victim ping while the other reader stalls");
        assert!(t.elapsed() < Duration::from_secs(1), "victim stalled: {:?}", t.elapsed());
        std::thread::sleep(Duration::from_millis(5));
    }
    wait_until("the stalled reader to be reaped", || counter("serve.conn_closed") > closed0);
    let reaped_after = t0.elapsed();
    assert!(reaped_after >= write_timeout, "reaped before the write deadline: {reaped_after:?}");

    // The reaped peer finds a cut-off reply followed by end of stream.
    stalled.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let (mut got, mut buf) = (0usize, vec![0u8; 1 << 16]);
    while let Ok(n @ 1..) = stalled.read(&mut buf) {
        got += n;
    }
    assert!(got < 4 * layout.len(), "the whole {got}-byte reply arrived: nothing stalled");
    victim.ping().expect("victim ping after the reap");
    drop(victim);
    server.shutdown();
}
