//! Smoke tests: every workload at a tiny scale, untraced and traced,
//! against a live child `ccc serve`. They need the `ccc` binary (see
//! `server::locate_ccc`).

use super::*;
use cc_grid::Resolution;
use std::sync::{Mutex, MutexGuard};

/// Span recording is a process-wide switch, so runs that trace must not
/// overlap runs that expect it off: every test that runs a workload holds
/// this lock.
pub(crate) fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every workload shrunk to run in well under a second.
pub(crate) fn tiny() -> Scales {
    let resolution = Resolution::reduced(2, 2);
    Scales {
        tune: tune::Scale {
            resolution,
            members: 9,
            min_ops: 1,
        },
        ingest: ingest::Scale {
            resolution,
            timesteps: 20,
            min_ops: 2,
        },
        fetch: fetch::Scale {
            resolution,
            timesteps: 20,
            rate: 200.0,
        },
        // 2 MiB: large enough that compress replies stream.
        codec_wire: codec_wire::Scale {
            resolution,
            big: (262_144, 2),
            min_cycles: 1,
        },
    }
}

/// Metric names `BENCHMARK.json` declares in one list.
fn declared(list: &str) -> Vec<String> {
    let doc =
        cc_obs::json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(|l| l.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

fn names(o: &Outcome) -> Vec<String> {
    o.metrics.0.iter().map(|m| m.name.clone()).collect()
}

/// Run `workload` untraced and traced; returns the traced outcome.
fn smoke(workload: &str) -> Outcome {
    let _serial = serial();
    let o = run_untraced(workload, 7, 0.2, &tiny(), Instant::now()).expect("untraced run");
    assert!(o.correct, "{workload}: output checks failed");
    assert_eq!(o.failed, 0, "{workload}: ops failed");
    assert!(o.attempted >= 1);
    assert_eq!(
        names(&o),
        declared("end_to_end"),
        "{workload}: end-to-end metric set"
    );
    for m in &o.metrics.0 {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{workload}: {} = {}",
            m.name,
            m.value
        );
    }

    let path = PathBuf::from(format!(".ccbench_tmp_trace_{workload}.json"));
    let t = run_traced(workload, 7, 0.2, &tiny(), Some(&path)).expect("traced run");
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    assert!(t.correct, "{workload}: traced output checks failed");
    assert_eq!(
        names(&t),
        declared("per_layer"),
        "{workload}: per-layer metric set"
    );
    let stats = cc_obs::trace::validate(&text).expect("trace validates");
    assert!(stats.spans > 0, "{workload}: empty trace");
    assert!(
        metric(&t, "op.traced_p50_ms") > 0.0,
        "{workload}: no traced ops"
    );
    assert!(
        metric(&t, "inproc.p50_ms") > 0.0,
        "{workload}: no in-process calls timed"
    );
    let coverage = metric(&t, "trace.coverage_pct");
    assert!(coverage >= 80.0, "{workload}: trace coverage {coverage}%");
    t
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .0
        .iter()
        .find(|m| m.name == name)
        .expect("metric reported")
        .value
}

#[test]
fn tune_smoke() {
    let t = smoke("tune");
    assert!(metric(&t, "eval.verdicts") >= 20.0);
    assert!(metric(&t, "model.member_synth.self_pct") > 0.0);
}

#[test]
fn ingest_smoke() {
    let t = smoke("ingest");
    assert!(metric(&t, "archive.keyframe_bytes") > 0.0 && metric(&t, "archive.delta_bytes") > 0.0);
    assert!(metric(&t, "archive.add_variable.self_pct") > 0.0);
}

#[test]
fn fetch_smoke() {
    let t = smoke("fetch");
    assert!(metric(&t, "serve.requests") > 0.0);
    assert!(metric(&t, "archive.chain_frames_mean") >= 1.0);
    assert!(metric(&t, "srv.compute.self_pct") > 0.0);
}

#[test]
fn codec_wire_smoke() {
    let t = smoke("codec-wire");
    assert!(
        metric(&t, "serve.stream.frames") > 0.0,
        "no reply was streamed"
    );
    assert!(metric(&t, "codecs.encode.self_pct") > 0.0);
}

#[test]
fn unknown_workload_and_missing_ccc_are_clear_errors() {
    let err = setup("nope", 1, &tiny())
        .err()
        .expect("unknown workload rejected");
    assert!(err.contains("unknown workload"), "{err}");
    let err = server::ChildServer::spawn(Path::new("/nonexistent/ccc"))
        .err()
        .expect("spawn fails");
    assert!(err.contains("cargo build --release --bin ccc"), "{err}");
}
