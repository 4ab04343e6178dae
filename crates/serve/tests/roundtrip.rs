//! Loopback round-trips against a live server: responses must be
//! byte-identical to the in-process sequential pipeline for every codec
//! variant and worker count, the `Evaluate` opcode must agree with a
//! local `verdict_for`, and error paths must come back as typed error
//! frames.

use cc_codecs::chunked::{compress_chunked, decompress_chunked};
use cc_codecs::{Layout, Variant};
use cc_core::evaluation::{verdict_for, EvalConfig, Evaluation};
use cc_grid::Resolution;
use cc_model::Model;
use cc_serve::wire::{ErrCode, EvalRequest};
use cc_serve::{Client, ClientError, Server, ServerConfig};

fn smooth_field(npts: usize, nlev: usize) -> (Vec<f32>, Layout) {
    let linear = Layout::linear(npts);
    let layout = Layout { nlev, npts, rows: linear.rows, cols: linear.cols };
    let mut data = Vec::with_capacity(layout.len());
    for lev in 0..nlev {
        for p in 0..npts {
            let x = p as f32 / npts as f32;
            let v = 240.0
                + 30.0 * (6.3 * x).sin()
                + 5.0 * (31.0 * x + lev as f32).cos()
                + lev as f32 * 2.0;
            data.push(v);
        }
    }
    (data, layout)
}

fn start(workers: usize) -> (Server, String) {
    let server = Server::start(ServerConfig { workers, ..ServerConfig::default() })
        .expect("bind loopback");
    let addr = server.addr().to_string();
    (server, addr)
}

#[test]
fn roundtrip_matches_sequential_reference_across_shards_and_workers() {
    let (data, layout) = smooth_field(3000, 2);
    // The full acceptance matrix: shards {1, 2, 4} × workers {1, 8},
    // four variants spanning all families, each response checked for
    // byte equality with the sequential in-process pipeline.
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 8] {
            let server =
                Server::start(ServerConfig { shards, workers, ..ServerConfig::default() })
                    .expect("bind loopback");
            let addr = server.addr().to_string();
            let mut client = Client::connect(&addr).expect("connect");
            for name in ["fpzip-24", "NetCDF-4", "ISA-0.5", "APAX-4"] {
                let variant = Variant::by_name(name).expect("known variant");
                let codec = variant.codec();
                let reference = compress_chunked(codec.as_ref(), &data, layout, 1);
                let remote = client.compress(name, layout, &data).expect("remote compress");
                assert_eq!(
                    remote, reference,
                    "{name} stream differs at {shards} shards x {workers} workers"
                );

                let local = decompress_chunked(codec.as_ref(), &reference, layout, 1)
                    .expect("own stream decodes");
                let back = client.decompress(name, layout, &remote).expect("remote decompress");
                assert_eq!(
                    back, local,
                    "{name} reconstruction differs at {shards} shards x {workers} workers"
                );
            }
            drop(client);
            server.shutdown();
        }
    }
}

#[test]
fn evaluate_opcode_agrees_with_local_verdict() {
    let (server, addr) = start(2);
    let mut client = Client::connect(&addr).expect("connect");
    let req = EvalRequest {
        variant: "fpzip-24".into(),
        var: "U".into(),
        members: 5,
        ne: 3,
        nlev: 2,
        seed: 77,
    };
    let resp = client.evaluate(&req).expect("remote eval");

    let model = Model::new(Resolution::reduced(3, 2), 77);
    let var = model.var_id("U").expect("U exists");
    let eval = Evaluation::new(model, EvalConfig { members: 5, samples: 3, workers: 1 });
    let ctx = eval.context(var);
    let v = verdict_for(&ctx, Variant::Fpzip { bits: 24 });

    assert!((resp.cr - v.cr).abs() < 1e-12, "CR differs: {} vs {}", resp.cr, v.cr);
    assert_eq!(resp.pearson_pass, v.pearson_pass());
    assert_eq!(resp.rmsz_pass, v.rmsz_pass());
    assert_eq!(resp.enmax_pass, v.enmax_pass());
    assert_eq!(resp.bias_pass, v.bias_pass());
    assert_eq!(resp.all_pass(), v.all_pass());
    drop(client);
    server.shutdown();
}

#[test]
fn error_paths_come_back_typed() {
    let (data, layout) = smooth_field(200, 1);
    let (server, addr) = start(1);
    let mut client = Client::connect(&addr).expect("connect");

    match client.compress("no-such-codec", layout, &data) {
        Err(ClientError::Server(ErrCode::UnknownVariant, _)) => {}
        other => panic!("expected UnknownVariant, got {other:?}"),
    }
    // Error frames do not poison the connection — the next request on
    // the same pipe still works.
    client.ping().expect("connection survives an error response");

    let mut eval_req = EvalRequest {
        variant: "fpzip-24".into(),
        var: "U".into(),
        members: 500,
        ne: 3,
        nlev: 2,
        seed: 1,
    };
    match client.evaluate(&eval_req) {
        Err(ClientError::Server(ErrCode::TooLarge, _)) => {}
        other => panic!("expected TooLarge for members=500, got {other:?}"),
    }
    eval_req.members = 5;
    eval_req.var = "NO_SUCH_VAR".into();
    match client.evaluate(&eval_req) {
        Err(ClientError::Server(ErrCode::UnknownVariable, _)) => {}
        other => panic!("expected UnknownVariable, got {other:?}"),
    }

    // A decompress of garbage is a typed Codec error, not a hang or a
    // dropped connection.
    match client.decompress("NetCDF-4", layout, &[0xAB; 64]) {
        Err(ClientError::Server(ErrCode::Codec, _)) => {}
        other => panic!("expected Codec error, got {other:?}"),
    }
    drop(client);
    server.shutdown();
}

#[test]
fn stats_and_remote_shutdown_work() {
    let (server, addr) = start(2);
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");
    let stats = client.stats().expect("stats");
    for needle in ["serve.accept", "serve.requests", "serve.busy", "serve.frame_corrupt"] {
        assert!(
            stats.metrics.counters.iter().any(|(n, _)| n == needle),
            "stats must list {needle}:\n{stats:?}"
        );
    }
    // Remote shutdown acks, then the server drains and join returns.
    client.shutdown_server().expect("shutdown ack");
    drop(client);
    server.join();
}
