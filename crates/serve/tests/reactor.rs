//! Reactor-specific behaviour: partial-write resumption, chunk-level
//! reply streaming, slow-loris isolation, and the client's per-request
//! deadline. These pin the properties the sharded poll loop exists for,
//! beyond the plain roundtrip/concurrency coverage.

use cc_codecs::chunked::compress_chunked;
use cc_codecs::{Layout, Variant};
use cc_serve::wire::{
    encode_frame, CompressRequest, FrameDecoder, Opcode, DEFAULT_MAX_PAYLOAD, OP_STREAM,
};
use cc_serve::{Client, ClientConfig, ClientError, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

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
