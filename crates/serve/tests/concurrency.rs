//! Concurrency stress: many pipelined clients hammering one server must
//! produce exactly the bytes of the sequential in-process pipeline at
//! every worker count, and admission control must answer `Busy` (not
//! hang, not drop) when the connection cap is reached.

use cc_codecs::chunked::compress_chunked;
use cc_codecs::{Layout, Variant};
use cc_serve::wire::{CompressRequest, FrameDecoder, Opcode, DEFAULT_MAX_PAYLOAD, OP_BUSY};
use cc_serve::{Client, Server, ServerConfig};
use std::net::TcpStream;
use std::time::Duration;

fn smooth_field(npts: usize, nlev: usize) -> (Vec<f32>, Layout) {
    let linear = Layout::linear(npts);
    let layout = Layout { nlev, npts, rows: linear.rows, cols: linear.cols };
    let mut data = Vec::with_capacity(layout.len());
    for lev in 0..nlev {
        for p in 0..npts {
            let x = p as f32 / npts as f32;
            data.push(250.0 + 20.0 * (7.1 * x).sin() + 3.0 * (29.0 * x).cos() + lev as f32);
        }
    }
    (data, layout)
}

/// 16 clients, each pipelining batches of Compress requests, against
/// servers with 1, 2, and 8 workers: every response must be
/// byte-identical to the sequential reference stream.
#[test]
fn sixteen_pipelined_clients_get_sequential_bytes() {
    const CLIENTS: usize = 16;
    const BATCHES: usize = 3;
    const DEPTH: usize = 4;

    let (data, layout) = smooth_field(2000, 2);
    let variants = ["fpzip-24", "NetCDF-4", "ISA-0.5"];
    let references: Vec<Vec<u8>> = variants
        .iter()
        .map(|name| {
            let codec = Variant::by_name(name).expect("known variant").codec();
            compress_chunked(codec.as_ref(), &data, layout, 1)
        })
        .collect();

    for workers in [1usize, 2, 8] {
        let server = Server::start(ServerConfig {
            workers,
            shards: 2,
            queue_depth: CLIENTS * 2,
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let addr = server.addr().to_string();

        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let addr = &addr;
                let data = &data;
                let references = &references;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Each client rotates through the variants so every
                    // worker count sees a mixed workload.
                    for b in 0..BATCHES {
                        let reqs: Vec<(Opcode, Vec<u8>)> = (0..DEPTH)
                            .map(|i| {
                                let v = (c + b + i) % variants.len();
                                let payload = CompressRequest {
                                    variant: variants[v].to_string(),
                                    layout,
                                    data: data.clone(),
                                }
                                .encode()
                                .expect("encode");
                                (Opcode::Compress, payload)
                            })
                            .collect();
                        let results = client.pipeline(&reqs).expect("pipeline");
                        assert_eq!(results.len(), DEPTH);
                        for (i, r) in results.into_iter().enumerate() {
                            let v = (c + b + i) % variants.len();
                            let bytes = r.expect("compress succeeds");
                            assert_eq!(
                                bytes, references[v],
                                "client {c} batch {b} slot {i} ({}) diverged at \
                                 {workers} workers",
                                variants[v]
                            );
                        }
                    }
                });
            }
        });
        server.shutdown();
    }
}

/// With a connection cap of two, a third connection must be answered
/// with a `Busy` frame and a clean close while the first two are still
/// alive. (Under the reactor, `Busy` is the admission-control answer at
/// the connection cap; a full compute queue merely delays submission.)
#[test]
fn connection_cap_answers_busy() {
    let busy_before = cc_obs::counter_value("serve.busy");
    let server = Server::start(ServerConfig {
        workers: 1,
        max_conns: 2,
        // Keep idle connections short-lived so the drain at the end of
        // the test does not wait out the default 30s read timeout.
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();

    // First two connections occupy the whole cap while sitting idle.
    let _occupant = TcpStream::connect(&addr).expect("first connect");
    std::thread::sleep(Duration::from_millis(150));
    let _queued = TcpStream::connect(&addr).expect("second connect");
    std::thread::sleep(Duration::from_millis(150));

    // Third connection: the acceptor must reject it with a Busy frame
    // followed by a clean close, without ever handing it to a worker.
    let mut rejected = TcpStream::connect(&addr).expect("third connect");
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let frame =
        FrameDecoder::new(DEFAULT_MAX_PAYLOAD).read_frame(&mut rejected).expect("busy frame");
    assert_eq!(frame.opcode, OP_BUSY, "expected OP_BUSY, got {:#04x}", frame.opcode);
    assert_eq!(frame.req_id, 0);
    assert!(
        matches!(
            FrameDecoder::new(DEFAULT_MAX_PAYLOAD).read_frame(&mut rejected),
            Err(cc_serve::wire::WireError::Closed)
        ),
        "busy connection must be closed after the frame"
    );

    let busy_after = cc_obs::counter_value("serve.busy");
    assert!(
        busy_after > busy_before,
        "serve.busy must fire ({busy_before} -> {busy_after})"
    );

    drop(rejected);
    drop(_queued);
    drop(_occupant);
    server.shutdown();
}
