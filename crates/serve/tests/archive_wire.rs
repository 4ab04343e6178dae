//! Archive ops against a live server: `ArchivePut` validates and
//! stores, `FetchSlice` answers slices byte-identical to a local
//! sequential full decode (including when the reply streams as
//! `OP_STREAM` pieces, whose bytes are booked under fetch-slice), the
//! open-archive cache never serves a replaced file and never holds more
//! archives than its cap, and the error paths come back as typed frames.

use cc_archive::{ArchiveOptions, ArchiveReader, ArchiveWriter};
use cc_codecs::sz::ErrorBound;
use cc_codecs::{Layout, Variant};
use cc_grid::Resolution;
use cc_model::Model;
use cc_serve::server::ARCHIVE_CACHE_ENTRIES;
use cc_serve::wire::ErrCode;
use cc_serve::{Client, ClientError, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// The counters these tests read are process-wide and every test here
/// moves them, so the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_archive_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cc-archive-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create archive dir");
    dir
}

/// A short correlated model run (model seed `seed`) archived with SZ
/// keyframes + bounded deltas, plus the raw frames for reference
/// decoding.
fn build_archive(nslices: usize, seed: u64) -> (Vec<u8>, Vec<Vec<f32>>, Layout) {
    let model = Model::new(Resolution::reduced(2, 3), seed);
    let id = model.var_id("T").expect("known variable");
    let layout = Layout::for_grid(model.grid(), model.var_nlev(id));
    let frames: Vec<Vec<f32>> = model
        .trajectory(0, nslices, 0.05)
        .iter()
        .map(|m| model.synthesize(m, id).data)
        .collect();
    let opts = ArchiveOptions::new(Variant::Sz { bound: ErrorBound::Abs(1e-2) })
        .with_bound(ErrorBound::Abs(1e-2))
        .with_keyframe_every(6);
    let mut w = ArchiveWriter::new();
    w.add_variable("T", layout, &frames, &opts).expect("encode archive");
    (w.finish(), frames, layout)
}

/// Two archives stored under one name in turn, and the bits of each one's
/// slice (T, t 13, level 1).
fn two_versions() -> ([Vec<u8>; 2], [Vec<u32>; 2]) {
    let versions = [build_archive(20, 7).0, build_archive(20, 8).0];
    let slices = versions.clone().map(|bytes| {
        let mut reader = ArchiveReader::open(bytes.as_slice()).expect("local open");
        let slice = reader.fetch_slice("T", 13, 1).expect("local fetch");
        slice.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    });
    assert_ne!(slices[0], slices[1], "the two versions must differ at the fetched slice");
    (versions, slices)
}

#[test]
fn fetched_slices_match_local_sequential_decode_over_the_wire() {
    let _serial = serial();
    let dir = temp_archive_dir("roundtrip");
    let (bytes, _, layout) = build_archive(20, 7);

    // Local reference: sequential full decode of every frame.
    let mut local = ArchiveReader::open(bytes.as_slice()).expect("local open");
    let reference = local.decode_variable("T").expect("local decode");

    // Tiny stream threshold so every slice reply (218 points, 872 B)
    // streams: a reply splits once it reaches twice the threshold.
    let server = Server::start(ServerConfig {
        archive_dir: Some(dir.clone()),
        stream_threshold: 256,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");

    let summary = client.archive_put("run1", &bytes).expect("archive accepted");
    assert_eq!(summary.bytes, bytes.len() as u64);
    assert_eq!(summary.vars, 1);
    assert_eq!(summary.frames, 20);
    assert!(dir.join("run1.ccarch").is_file(), "server stored the archive");

    let counters = [
        "serve.stream.frames",
        "serve.op.fetch-slice.bytes_out",
        "serve.op.compress.bytes_out",
    ];
    let before = counters.map(cc_obs::counter_value);
    let (mut replies, mut fetched) = (0u64, 0u64);
    for t in [0usize, 1, 5, 6, 11, 19] {
        for lev in 0..layout.nlev {
            let remote = client.fetch_slice("run1", "T", t as u32, lev as u32).expect("fetch");
            replies += 1;
            fetched += 4 * remote.len() as u64;
            let expect = &reference[t][lev * layout.npts..(lev + 1) * layout.npts];
            assert_eq!(
                remote.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "slice (t={t}, lev={lev}) differs over the wire"
            );
        }
    }
    let [frames, fetch_out, compress_out] =
        std::array::from_fn(|i| cc_obs::counter_value(counters[i]) - before[i]);
    assert!(frames >= replies, "{frames} stream pieces for {replies} slice replies");
    assert_eq!(fetch_out, fetched, "fetch-slice bytes_out must count every fetched byte once");
    assert_eq!(compress_out, 0, "streamed fetch bytes booked as compress bytes");
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_error_paths_come_back_typed() {
    let _serial = serial();
    let dir = temp_archive_dir("errors");
    let (bytes, _, _) = build_archive(8, 7);
    let server = Server::start(ServerConfig {
        archive_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");

    // Corrupt container is rejected before it ever reaches disk.
    let mut bad = bytes.clone();
    let n = bad.len();
    bad[n - 1] ^= 0xFF;
    match client.archive_put("mangled", &bad) {
        Err(ClientError::Server(ErrCode::BadPayload, _)) => {}
        other => panic!("corrupt archive accepted: {other:?}"),
    }
    assert!(!dir.join("mangled.ccarch").exists(), "rejected archive must not be stored");

    client.archive_put("run1", &bytes).expect("good archive accepted");

    // Missing archive name → NotFound.
    match client.fetch_slice("nope", "T", 0, 0) {
        Err(ClientError::Server(ErrCode::NotFound, _)) => {}
        other => panic!("missing archive not NotFound: {other:?}"),
    }
    // Unknown variable / out-of-range timestep and level → NotFound.
    match client.fetch_slice("run1", "PSL", 0, 0) {
        Err(ClientError::Server(ErrCode::NotFound, _)) => {}
        other => panic!("unknown variable not NotFound: {other:?}"),
    }
    match client.fetch_slice("run1", "T", 999, 0) {
        Err(ClientError::Server(ErrCode::NotFound, _)) => {}
        other => panic!("timestep out of range not NotFound: {other:?}"),
    }
    match client.fetch_slice("run1", "T", 0, 999) {
        Err(ClientError::Server(ErrCode::NotFound, _)) => {}
        other => panic!("level out of range not NotFound: {other:?}"),
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_ops_require_a_configured_directory() {
    let _serial = serial();
    let (bytes, _, _) = build_archive(8, 7);
    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    match client.archive_put("run1", &bytes) {
        Err(ClientError::Server(ErrCode::BadPayload, msg)) => {
            assert!(msg.contains("archive directory"), "unhelpful message: {msg}");
        }
        other => panic!("put without archive dir: {other:?}"),
    }
    match client.fetch_slice("run1", "T", 0, 0) {
        Err(ClientError::Server(ErrCode::BadPayload, _)) => {}
        other => panic!("fetch without archive dir: {other:?}"),
    }
    drop(client);
    server.shutdown();
}

/// `ArchivePut` replaces a stored archive in one rename. While one client
/// alternately stores archives A and B under one name, every concurrent
/// fetch of a slice answers exactly A's or B's slice, and none fails on
/// a partly written file. No temp file is left behind.
#[test]
fn put_replaces_atomically_under_concurrent_fetch() {
    let _serial = serial();
    let dir = temp_archive_dir("replace");
    let (versions, slices) = two_versions();

    let server = Server::start(ServerConfig {
        archive_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut putter = Client::connect(&addr).expect("connect");
    putter.archive_put("run", &versions[0]).expect("first put");

    let (start, done) = (Barrier::new(2), AtomicBool::new(false));
    std::thread::scope(|s| {
        let fetcher = s.spawn(|| {
            let mut client = Client::connect(&addr).expect("connect");
            start.wait();
            for n in 0.. {
                let got = client.fetch_slice("run", "T", 13, 1).expect("fetch during a replace");
                let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert!(slices.contains(&bits), "fetch {n} matches neither stored version");
                if done.load(Ordering::SeqCst) {
                    break;
                }
            }
        });
        start.wait();
        for i in 1..=60 {
            putter.archive_put("run", &versions[i % 2]).expect("replace");
        }
        done.store(true, Ordering::SeqCst);
        fetcher.join().expect("fetcher");
    });

    let stray: Vec<_> = std::fs::read_dir(&dir)
        .expect("list archive dir")
        .map(|e| e.expect("dir entry").file_name())
        .filter(|n| n != "run.ccarch")
        .collect();
    assert!(stray.is_empty(), "left behind in the archive directory: {stray:?}");
    drop(putter);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every fetch answers the slice of the *last* completed put, whether the
/// server opens the replaced file afresh or serves its cached entry.
#[test]
fn fetch_after_put_serves_the_latest_version() {
    let _serial = serial();
    let dir = temp_archive_dir("latest");
    let (versions, slices) = two_versions();

    let server = Server::start(ServerConfig {
        archive_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for round in 0..20 {
        for (v, bytes) in versions.iter().enumerate() {
            client.archive_put("run", bytes).expect("put");
            // The first fetch after a put opens the new file; the second
            // is served from the cache entry that fetch left.
            for fetch in 0..2 {
                let got = client.fetch_slice("run", "T", 13, 1).expect("fetch");
                let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert!(bits == slices[v], "round {round}, fetch {fetch}: not the last put's");
            }
        }
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fetching more stored archives than the cache holds evicts the least
/// recently used ones: every eviction is counted, the entry gauge never
/// exceeds the cap, and an evicted archive still serves (it reopens).
#[test]
fn archive_cache_holds_at_most_its_cap() {
    let _serial = serial();
    let dir = temp_archive_dir("cap");
    let (bytes, _, layout) = build_archive(4, 7);
    let server = Server::start(ServerConfig {
        archive_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let extra = 6;
    let n = ARCHIVE_CACHE_ENTRIES + extra;
    let evict_before = client.stats().expect("stats").metrics.counter("archive.cache.evict");
    for i in 0..n {
        let name = format!("run{i}");
        client.archive_put(&name, &bytes).expect("put");
        let got = client.fetch_slice(&name, "T", 3, 1).expect("fetch");
        assert_eq!(got.len(), layout.npts);
        let entries = client.stats().expect("stats").metrics.counter("archive.cache.entries");
        assert_eq!(entries as usize, (i + 1).min(ARCHIVE_CACHE_ENTRIES), "after {name}");
    }
    // `run0` was evicted first; fetching it again reopens it.
    assert_eq!(client.fetch_slice("run0", "T", 3, 1).expect("refetch").len(), layout.npts);
    let stats = client.stats().expect("stats").metrics;
    assert_eq!(stats.counter("archive.cache.entries") as usize, ARCHIVE_CACHE_ENTRIES);
    // One eviction per archive admitted past the cap, `run0`'s included.
    let evicted = stats.counter("archive.cache.evict") - evict_before;
    assert_eq!(evicted, extra as u64 + 1);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
