//! `ccbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! ccbench --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ccbench run [--seed N] [--seconds S] [--reps R] [--out results.json]
//!             [--trace TRACE.json]
//! ccbench compare BASE.json NEW.json [--bench BENCHMARK.json]
//! ```
//!
//! The first form runs one workload in this process and prints one JSON
//! result line last on stdout: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. `run` starts a fresh process of
//! itself per workload and collects their result lines into one file;
//! `compare` judges two such files against the bounds in `BENCHMARK.json`.
//! README.md describes the workloads and every metric.

mod codec_wire;
mod compare;
mod fetch;
mod harness;
mod ingest;
mod layers;
mod server;
mod tune;

use harness::{percentile, Metrics, Phase, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["tune", "ingest", "fetch", "codec-wire"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Timed seconds per run when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Server counters reported as per-layer deltas over the traced phase.
const SERVE_COUNTERS: [&str; 5] = [
    "serve.requests",
    "serve.errors",
    "serve.busy",
    "serve.queue_full_retry",
    "serve.stream.frames",
];

/// How big each workload is; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Scales {
    pub tune: tune::Scale,
    pub ingest: ingest::Scale,
    pub fetch: fetch::Scale,
    pub codec_wire: codec_wire::Scale,
}

impl Scales {
    pub fn default_scale() -> Scales {
        Scales {
            tune: tune::Scale::default_scale(),
            ingest: ingest::Scale::default_scale(),
            fetch: fetch::Scale::default_scale(),
            codec_wire: codec_wire::Scale::default_scale(),
        }
    }
}

/// Set one workload up: spawn its server, synthesize its inputs, compute
/// reference outputs and run its untimed warm-up op.
pub fn setup(workload: &str, seed: u64, scales: &Scales) -> Result<Box<dyn Workload>, String> {
    let ccc = || server::locate_ccc();
    Ok(match workload {
        "tune" => Box::new(tune::Tune::setup(seed, scales.tune)?),
        "ingest" => Box::new(ingest::Ingest::setup(seed, scales.ingest, &ccc()?)?),
        "fetch" => Box::new(fetch::Fetch::setup(seed, scales.fetch, &ccc()?)?),
        "codec-wire" => Box::new(codec_wire::CodecWire::setup(
            seed,
            scales.codec_wire,
            &ccc()?,
        )?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    })
}

/// One workload run's outcome.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Untraced run: set up [`SETUP_REPS`] times, then time `seconds` of ops
/// and report the end-to-end metrics.
pub fn run_untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    scales: &Scales,
    started: Instant,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut w = None;
    for i in 0..SETUP_REPS {
        drop(w.take());
        let t0 = if i == 0 { started } else { Instant::now() };
        w = Some(setup(workload, seed, scales)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one setup");
    let (phase, correct) = match w.run(seconds) {
        Ok(p) => (p, true),
        Err(e) => {
            eprintln!("{e}");
            (Phase::default(), false)
        }
    };
    let server_kb = w.server().map(|s| s.peak_rss_kb()).unwrap_or(0);
    let rss_mb = (harness::peak_rss_kb("self") + server_kb) as f64 / 1024.0;
    let mut m = Metrics::default();
    m.put("setup_s", percentile(&setup_s, 0.5), "s");
    m.put("p25_ms", percentile(&phase.lat_ms, 0.25), "ms");
    m.put("stored_ratio", w.stored_ratio(), "ratio");
    m.put("peak_rss_mb", rss_mb, "MB");
    let (tail_q, tail_ms) = harness::tail(&phase.lat_ms);
    println!(
        "{workload}: {} ops ({} failed, {} open-loop passes rejected): p25 {:.3} ms, \
         p50 {:.3} ms, p{} {tail_ms:.3} ms; set-ups {setup_s:.3?} s",
        phase.lat_ms.len(),
        phase.failed,
        phase.rejected_passes,
        percentile(&phase.lat_ms, 0.25),
        percentile(&phase.lat_ms, 0.5),
        100.0 * tail_q,
    );
    Ok(Outcome {
        correct,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: m,
    })
}

fn stats(w: &mut dyn Workload) -> Result<Option<cc_serve::StatsReport>, String> {
    let Some(server) = w.server() else {
        return Ok(None);
    };
    let mut c = cc_serve::Client::connect(&server.addr).map_err(|e| format!("stats: {e}"))?;
    c.stats().map(Some).map_err(|e| format!("stats: {e}"))
}

/// Traced run: set up once, time an untraced phase (the baseline for the
/// tracing overhead), then repeat it with spans on, replay the picks
/// in-process, and attribute the traced op wall to layers.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    scales: &Scales,
    trace_out: Option<&Path>,
) -> Result<Outcome, String> {
    let mut w = setup(workload, seed, scales)?;
    let fail = |e: String| {
        eprintln!("{e}");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 0,
            metrics: Metrics::default(),
        }
    };
    let base = match w.run(seconds) {
        Ok(p) => p,
        Err(e) => return Ok(fail(e)),
    };
    let mut inproc = base.inproc_ms.clone();
    match w.replay() {
        Ok(ms) => inproc.extend(ms),
        Err(e) => return Ok(fail(e)),
    }
    let before = stats(w.as_mut())?;

    cc_obs::enable_all();
    let traced = {
        let _root = cc_obs::span_dyn(&format!("bench.{workload}"));
        w.run(seconds).and_then(|p| w.replay().map(|_| p))
    };
    cc_obs::set_spans_enabled(false);
    cc_obs::set_metrics_enabled(false);
    let roots = cc_obs::take_local_roots();
    let traced = match traced {
        Ok(p) => p,
        Err(e) => return Ok(fail(e)),
    };
    let after = stats(w.as_mut())?;

    let a = layers::Attribution::of(&roots);
    let mut m = Metrics::default();
    for stage in layers::STAGES {
        m.put(&format!("{stage}.self_pct"), a.share_pct(stage), "%");
    }
    let base_p50 = percentile(&base.lat_ms, 0.5);
    let traced_p50 = percentile(&traced.lat_ms, 0.5);
    m.put("trace.coverage_pct", a.coverage_pct(), "%");
    m.put(
        "trace.overhead_pct",
        100.0 * (traced_p50 / base_p50.max(1e-9) - 1.0),
        "%",
    );
    m.put("op.traced_p50_ms", traced_p50, "ms");
    m.put("op.p50_ms", base_p50, "ms");
    let (tail_q, tail_ms) = harness::tail(&base.lat_ms);
    m.put("tail_ms", tail_ms, "ms");
    m.put("tail.percentile", 100.0 * tail_q, "%");
    m.put("op.samples", base.lat_ms.len() as f64, "count");
    m.put("inproc.p50_ms", percentile(&inproc, 0.50), "ms");
    m.put("gen.late_p99_ms", percentile(&base.late_ms, 0.99), "ms");
    m.put("gen.rejected_passes", base.rejected_passes as f64, "count");
    let c = w.counts();
    m.put("eval.verdicts", c.verdicts as f64, "count");
    m.put("eval.passing", c.passing as f64, "count");
    m.put(
        "eval.pass_ratio",
        c.passing as f64 / c.verdicts.max(1) as f64,
        "ratio",
    );
    m.put("archive.chain_frames_mean", c.chain_frames_mean, "count");
    m.put("archive.bytes_read_mean", c.bytes_read_mean, "B");
    m.put("archive.keyframe_bytes", c.keyframe_bytes as f64, "B");
    m.put("archive.delta_bytes", c.delta_bytes as f64, "B");
    for name in SERVE_COUNTERS {
        let delta = match (&before, &after) {
            (Some(b), Some(a)) => a.counter(name).saturating_sub(b.counter(name)),
            _ => 0,
        };
        // The `before` stats request itself completes inside the window.
        let delta = if name == "serve.requests" {
            delta.saturating_sub(1)
        } else {
            delta
        };
        m.put(name, delta as f64, "count");
    }

    eprintln!(
        "{workload}: traced self-time table ({} ops)\n{}",
        a.ops,
        layers::self_time_table(&roots, 24)
    );
    if let Some(path) = trace_out {
        let report = cc_obs::trace::TraceReport {
            spans: roots,
            metrics: cc_obs::metrics_snapshot(),
        };
        report.write(path)?;
    }
    Ok(Outcome {
        correct: true,
        attempted: base.attempted + traced.attempted,
        failed: base.failed + traced.failed,
        metrics: m,
    })
}

/// Flag parser for `--name value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {a:?}"))?;
        let val = it.next().ok_or(format!("--{key} needs a value"))?;
        out.insert(key.to_string(), val.clone());
    }
    Ok(out)
}

fn num<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match f.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

/// Driver mode: one workload in this process, result line last.
fn single(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let workload = f.get("workload").ok_or("--workload is required")?.clone();
    let seed: u64 = num(&f, "seed", 2014)?;
    let seconds: f64 = num(&f, "seconds", DEFAULT_SECONDS)?;
    let trace = match f.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
    };
    let scales = Scales::default_scale();
    let outcome = if trace {
        run_traced(
            &workload,
            seed,
            seconds,
            &scales,
            f.get("trace-out").map(Path::new),
        )?
    } else {
        run_untraced(&workload, seed, seconds, &scales, started)?
    };
    for m in &outcome.metrics.0 {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        harness::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `run`: every workload in a fresh process of this binary.
fn orchestrate(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let seed: u64 = num(&f, "seed", 2014)?;
    let seconds: f64 = num(&f, "seconds", DEFAULT_SECONDS)?;
    let reps: u64 = num(&f, "reps", 1)?;
    let out = PathBuf::from(f.get("out").map(String::as_str).unwrap_or("results.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = |workload: &str, seed: u64, extra: &[&str]| -> Result<String, String> {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(extra)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default().to_string();
        if !output.status.success() {
            return Err(format!("{workload} (seed {seed}) failed: {line}"));
        }
        Ok(line)
    };
    let mut runs = Vec::new();
    for rep in 0..reps {
        for w in WORKLOADS {
            let s = seed + rep;
            let line = child(w, s, &["--trace", "0"])?;
            println!("{w:<11} seed {s:<6} {line}");
            runs.push(format!(
                "{{\"workload\": \"{w}\", \"seed\": {s}, \"result\": {line}}}"
            ));
        }
    }
    if let Some(trace_path) = f.get("trace") {
        let mut parts = Vec::new();
        for w in WORKLOADS {
            let part = PathBuf::from(format!(".ccbench_tmp_trace_{w}.json"));
            let line = child(
                w,
                seed,
                &["--trace", "1", "--trace-out", &part.to_string_lossy()],
            )?;
            println!("{w:<11} traced      {line}");
            runs.push(format!(
                "{{\"workload\": \"{w}\", \"seed\": {seed}, \"traced\": true, \"result\": {line}}}"
            ));
            parts.push(part);
        }
        merge_traces(&parts, Path::new(trace_path))?;
        for p in &parts {
            let _ = std::fs::remove_file(p);
        }
    }
    let doc = format!(
        "{{\"schema\": \"ccbench-results/1\", \"runs\": [\n{}\n]}}\n",
        runs.join(",\n")
    );
    std::fs::write(&out, doc).map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn parse_span(v: &cc_obs::json::Value) -> Option<cc_obs::SpanNode> {
    let int = |k: &str| v.get(k).and_then(|x| x.as_f64()).map(|x| x as u64);
    Some(cc_obs::SpanNode {
        name: cc_obs::intern(v.get("name")?.as_str()?),
        start_ns: int("start_ns")?,
        dur_ns: int("dur_ns")?,
        children: v
            .get("children")?
            .as_array()?
            .iter()
            .map(parse_span)
            .collect::<Option<_>>()?,
    })
}

/// Merge per-workload `cc-trace/1` documents into one: all span trees,
/// counters and histograms folded together. Each process has its own
/// clock, so the workload roots stay separate trees.
fn merge_traces(parts: &[PathBuf], out: &Path) -> Result<(), String> {
    let mut merged = cc_obs::trace::TraceReport::default();
    for p in parts {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        let mut doc = cc_obs::json::parse(&text)?;
        let spans = doc
            .get("spans")
            .and_then(|s| s.as_array())
            .ok_or("trace without spans")?;
        for s in spans {
            merged
                .spans
                .push(parse_span(s).ok_or(format!("malformed span in {}", p.display()))?);
        }
        // cc-trace/1 metric sections share the cc-stats/1 shapes.
        doc.set("schema", cc_obs::json::Value::Str("cc-stats/1".into()));
        doc.set("uptime_us", cc_obs::json::Value::Num(0.0));
        let metrics = cc_serve::StatsReport::parse(&doc.to_json())?.metrics;
        merged.metrics = merged.metrics.merge(&metrics);
    }
    merged.write(out)?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ccbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--trace-out FILE]\n  \
         ccbench run [--seed N] [--seconds S] [--reps R] [--out FILE] [--trace FILE]\n  \
         ccbench compare BASE.json NEW.json [--bench BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => orchestrate(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(a) if a.starts_with("--") => single(&args, started),
        _ => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ccbench: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests;
