//! `repro bench`: the throughput harness behind `BENCH.json`.
//!
//! Times chunked encode/decode MB/s for one representative configuration
//! of each paper codec family (plus the NetCDF-4 lossless baseline) at
//! several worker counts, and an end-to-end pipeline wall time (encode →
//! container write → serialize → parse → container read → decode) per
//! codec. Results land in the `throughput` section of `BENCH.json` (see
//! [`crate::artifact`]).
//!
//! # The `throughput` section
//!
//! ```json
//! "throughput": {
//!   "preset": "default" | "quick",
//!   "field": {"npts": N, "nlev": N, "elems": N, "bytes": N},
//!   "chunks": N,
//!   "worker_counts": [1, 2, ...],
//!   "codecs": [
//!     {
//!       "name": "fpzip-24",
//!       "ratio": 0.42,
//!       "encode":   [{"workers": 1, "secs": 0.5, "mb_per_s": 8.0}, ...],
//!       "decode":   [{"workers": 1, "secs": 0.3, "mb_per_s": 13.0}, ...],
//!       "pipeline": [{"workers": 1, "secs": 0.9}, ...],
//!       "encode_speedup": 1.8,
//!       "telemetry": {
//!         "encode_bytes_in": N, "encode_bytes_out": N,
//!         "decode_bytes_in": N, "decode_bytes_out": N
//!       }
//!     }, ...
//!   ],
//!   "max_encode_speedup": 1.9
//! }
//! ```
//!
//! `encode`/`decode` carry one entry per worker count (same order as
//! `worker_counts`); `encode_speedup` is the best multi-worker encode
//! rate over the `workers = 1` rate; `max_encode_speedup` is the maximum
//! over codecs. `telemetry` is the delta of the per-codec `cc-obs` byte
//! counters across the sweep — the counters are process-wide, so the
//! deltas are lower-bounded by this run's traffic rather than exactly
//! equal to it when other work shares the process. `validate`
//! machine-checks all of this; `bench-check --against` gates the
//! `workers = 1` encode and decode rates of every codec (`gated`).

use cc_codecs::chunked::{compress_chunked, decompress_chunked, plan};
use cc_codecs::{Layout, Variant};
use cc_ncdf::{DType, Dataset, FilterPipeline};
use cc_obs::json::{self, Value};
use std::time::Instant;

/// Throughput-run configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Horizontal points per level.
    pub npts: usize,
    /// Vertical levels.
    pub nlev: usize,
    /// Worker counts to sweep (always starts at 1).
    pub worker_counts: Vec<usize>,
    /// Timing repetitions (best-of).
    pub reps: usize,
    /// Preset label recorded in the artifact.
    pub preset: String,
}

impl BenchConfig {
    /// Default scale: a 1,048,576-element field (the ≥1M-point target
    /// the roadmap's speedup criterion is stated against).
    pub fn default_scale() -> Self {
        BenchConfig {
            npts: 262_144,
            nlev: 4,
            worker_counts: worker_sweep(),
            reps: 3,
            preset: "default".into(),
        }
    }

    /// Smoke scale for CI: 131,072 elements, single repetition.
    pub fn quick() -> Self {
        BenchConfig {
            npts: 32_768,
            nlev: 4,
            worker_counts: worker_sweep(),
            reps: 1,
            preset: "quick".into(),
        }
    }
}

/// The worker counts to sweep: always 1 and 2, plus the machine width
/// when it exceeds 2.
fn worker_sweep() -> Vec<usize> {
    let mut counts = vec![1, 2];
    let n = cc_par::default_workers();
    if n > 2 {
        counts.push(n);
    }
    counts
}

/// One timed point.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Worker count.
    pub workers: usize,
    /// Best-of-reps wall seconds.
    pub secs: f64,
    /// Raw-data throughput at that time.
    pub mb_per_s: f64,
}

/// Byte-counter deltas for one codec across its sweep, read from the
/// process-wide `codec.<name>.{encode,decode}.{bytes_in,bytes_out}`
/// counters maintained by `cc_codecs::ObsCodec`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecTelemetry {
    /// Raw f32 payload bytes fed to encode.
    pub encode_bytes_in: u64,
    /// Coded stream bytes produced by encode.
    pub encode_bytes_out: u64,
    /// Coded stream bytes fed to decode.
    pub decode_bytes_in: u64,
    /// Raw f32 payload bytes reconstructed by decode.
    pub decode_bytes_out: u64,
}

impl CodecTelemetry {
    /// Read the current counter values for `codec.<name>.*`.
    fn snapshot(name: &str) -> Self {
        let read = |suffix: &str| cc_obs::counter_value(&format!("codec.{name}.{suffix}"));
        CodecTelemetry {
            encode_bytes_in: read("encode.bytes_in"),
            encode_bytes_out: read("encode.bytes_out"),
            decode_bytes_in: read("decode.bytes_in"),
            decode_bytes_out: read("decode.bytes_out"),
        }
    }

    /// Delta against an earlier snapshot.
    fn since(self, before: CodecTelemetry) -> Self {
        CodecTelemetry {
            encode_bytes_in: self.encode_bytes_in.wrapping_sub(before.encode_bytes_in),
            encode_bytes_out: self.encode_bytes_out.wrapping_sub(before.encode_bytes_out),
            decode_bytes_in: self.decode_bytes_in.wrapping_sub(before.decode_bytes_in),
            decode_bytes_out: self.decode_bytes_out.wrapping_sub(before.decode_bytes_out),
        }
    }
}

/// Per-codec results.
#[derive(Debug, Clone)]
pub struct CodecBench {
    /// Codec display name.
    pub name: String,
    /// Compressed / raw size.
    pub ratio: f64,
    /// Encode timings, one per worker count.
    pub encode: Vec<Timing>,
    /// Decode timings, one per worker count.
    pub decode: Vec<Timing>,
    /// End-to-end pipeline seconds, one per worker count.
    pub pipeline: Vec<(usize, f64)>,
    /// Byte-counter deltas over the sweep.
    pub telemetry: CodecTelemetry,
}

impl CodecBench {
    /// Best multi-worker encode rate over the workers=1 rate.
    pub fn encode_speedup(&self) -> f64 {
        let base = self.encode.first().map(|t| t.mb_per_s).unwrap_or(0.0);
        let best = self.encode[1..].iter().map(|t| t.mb_per_s).fold(0.0, f64::max);
        if base > 0.0 { best / base } else { 0.0 }
    }
}

/// A full throughput run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Configuration used.
    pub config: BenchConfig,
    /// Field layout benchmarked.
    pub layout: Layout,
    /// Number of chunks the field splits into.
    pub chunks: usize,
    /// Per-codec results.
    pub codecs: Vec<CodecBench>,
}

/// The five benchmarked codecs: one representative configuration per
/// paper family, plus the NetCDF-4 lossless baseline.
pub fn bench_set() -> Vec<Variant> {
    vec![
        Variant::Grib2 { decimal_scale: None },
        Variant::Apax { rate: 4.0 },
        Variant::Fpzip { bits: 24 },
        Variant::Isabela { rel_err: 0.005 },
        Variant::NetCdf4,
    ]
}

/// Smooth climate-like benchmark field (deterministic, no model build —
/// benchmarking the codecs, not the emulator).
pub fn bench_field(npts: usize, nlev: usize) -> (Vec<f32>, Layout) {
    let linear = Layout::linear(npts);
    let layout = Layout { nlev, npts, rows: linear.rows, cols: linear.cols };
    let mut data = Vec::with_capacity(layout.len());
    for lev in 0..nlev {
        for p in 0..npts {
            let x = p as f32 / npts as f32;
            let v = 240.0
                + 30.0 * (6.3 * x).sin()
                + 5.0 * (31.0 * x + lev as f32).cos()
                + 0.01 * ((p * 31 + lev * 7) % 101) as f32
                + lev as f32 * 2.0;
            data.push(v);
        }
    }
    (data, layout)
}

fn best_of<F: FnMut() -> R, R>(reps: usize, mut f: F) -> (f64, R) {
    let mut best = f64::INFINITY;
    let t0 = Instant::now();
    let mut out = f();
    best = best.min(t0.elapsed().as_secs_f64());
    for _ in 1..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out)
}

/// Run the sweep. `progress` receives one line per codec.
///
/// Enables `cc-obs` metric recording for the rest of the process so the
/// per-codec byte counters behind [`CodecTelemetry`] accumulate; the
/// timed sections are unchanged by this (one relaxed atomic add per
/// chunk).
pub fn run(config: &BenchConfig, progress: &mut dyn FnMut(&str)) -> BenchReport {
    cc_obs::set_metrics_enabled(true);
    let (data, layout) = bench_field(config.npts, config.nlev);
    let raw_mb = (layout.len() * 4) as f64 / (1024.0 * 1024.0);
    let chunks = plan(layout).len();
    let mut codecs = Vec::new();
    for variant in bench_set() {
        let codec = variant.codec();
        let counters_before = CodecTelemetry::snapshot(&variant.name());
        progress(&format!("benching {} ({} chunks, {:.1} MB raw)", variant.name(), chunks, raw_mb));
        let mut encode = Vec::new();
        let mut decode = Vec::new();
        let mut pipeline = Vec::new();
        let mut ratio = 0.0;
        for &w in &config.worker_counts {
            let (enc_secs, bytes) =
                best_of(config.reps, || compress_chunked(codec.as_ref(), &data, layout, w));
            ratio = bytes.len() as f64 / (layout.len() * 4) as f64;
            let (dec_secs, recon) = best_of(config.reps, || {
                decompress_chunked(codec.as_ref(), &bytes, layout, w).expect("own stream decodes")
            });
            assert_eq!(recon.len(), data.len());
            encode.push(Timing { workers: w, secs: enc_secs, mb_per_s: raw_mb / enc_secs.max(1e-12) });
            decode.push(Timing { workers: w, secs: dec_secs, mb_per_s: raw_mb / dec_secs.max(1e-12) });

            // End-to-end: encode, store the stream in a container
            // variable, serialize, parse, read back, decode.
            // End-to-end: field → container variable (shuffle+deflate
            // filters, parallel chunk pipeline) → serialize → parse →
            // read → chunked encode + decode. The write/read legs
            // exercise cc-ncdf's parallel filter path.
            let (pipe_secs, ok) = best_of(1, || {
                let mut ds = Dataset::new();
                let d = ds.add_dim("n", data.len());
                let v = ds
                    .def_var("field", DType::F32, &[d], FilterPipeline::shuffle_deflate())
                    .expect("var");
                ds.put_f32(v, &data).expect("store");
                let ser = ds.to_bytes();
                let back = Dataset::from_bytes(&ser).expect("parse");
                let field = back.get_f32(v).expect("read");
                let stream = compress_chunked(codec.as_ref(), &field, layout, w);
                let recon = decompress_chunked(codec.as_ref(), &stream, layout, w).expect("decode");
                recon.len() == data.len()
            });
            assert!(ok);
            pipeline.push((w, pipe_secs));
        }
        let telemetry = CodecTelemetry::snapshot(&variant.name()).since(counters_before);
        codecs.push(CodecBench { name: variant.name(), ratio, encode, decode, pipeline, telemetry });
    }
    BenchReport { config: config.clone(), layout, chunks, codecs }
}

impl BenchReport {
    /// Maximum per-codec encode speedup.
    pub fn max_encode_speedup(&self) -> f64 {
        self.codecs.iter().map(|c| c.encode_speedup()).fold(0.0, f64::max)
    }

    /// The `throughput` section as a JSON value.
    pub fn to_value(&self) -> Value {
        let timings = |ts: &[Timing]| -> String {
            let items: Vec<String> = ts
                .iter()
                .map(|t| {
                    format!(
                        "{{\"workers\": {}, \"secs\": {:.6}, \"mb_per_s\": {:.3}}}",
                        t.workers, t.secs, t.mb_per_s
                    )
                })
                .collect();
            items.join(", ")
        };
        let codecs: Vec<String> = self
            .codecs
            .iter()
            .map(|c| {
                let pipe: Vec<String> = c
                    .pipeline
                    .iter()
                    .map(|(w, t)| format!("{{\"workers\": {w}, \"secs\": {t:.6}}}"))
                    .collect();
                format!(
                    "{{\"name\": \"{}\", \"ratio\": {:.6}, \"encode\": [{}], \"decode\": [{}], \
                     \"pipeline\": [{}], \"encode_speedup\": {:.3}, \"telemetry\": \
                     {{\"encode_bytes_in\": {}, \"encode_bytes_out\": {}, \
                     \"decode_bytes_in\": {}, \"decode_bytes_out\": {}}}}}",
                    json::escape(&c.name),
                    c.ratio,
                    timings(&c.encode),
                    timings(&c.decode),
                    pipe.join(", "),
                    c.encode_speedup(),
                    c.telemetry.encode_bytes_in,
                    c.telemetry.encode_bytes_out,
                    c.telemetry.decode_bytes_in,
                    c.telemetry.decode_bytes_out
                )
            })
            .collect();
        let workers: Vec<String> =
            self.config.worker_counts.iter().map(|w| w.to_string()).collect();
        let text = format!(
            "{{\"preset\": \"{}\", \"field\": {{\"npts\": {}, \"nlev\": {}, \"elems\": {}, \
             \"bytes\": {}}}, \"chunks\": {}, \"worker_counts\": [{}], \"codecs\": [{}], \
             \"max_encode_speedup\": {:.3}}}",
            json::escape(&self.config.preset),
            self.layout.npts,
            self.layout.nlev,
            self.layout.len(),
            self.layout.len() * 4,
            self.chunks,
            workers.join(", "),
            codecs.join(", "),
            self.max_encode_speedup()
        );
        json::parse(&text).expect("throughput section serializes to valid JSON")
    }
}

/// Check a `throughput` section (the shape documented at the top of this
/// module), pushing every violation onto `errs`.
pub(crate) fn validate(section: &Value, errs: &mut Vec<String>) {
    fn check(errs: &mut Vec<String>, cond: bool, msg: &str) {
        if !cond {
            errs.push(msg.to_string());
        }
    }
    check(
        errs,
        section.get("preset").and_then(Value::as_str).is_some(),
        "throughput.preset missing",
    );
    let field = section.get("field");
    for key in ["npts", "nlev", "elems", "bytes"] {
        check(
            errs,
            field.and_then(|f| f.get(key)).and_then(Value::as_f64).map(|v| v > 0.0) == Some(true),
            &format!("throughput.field.{key} must be a positive number"),
        );
    }
    check(
        errs,
        section.get("chunks").and_then(Value::as_f64).map(|v| v >= 1.0) == Some(true),
        "throughput.chunks must be >= 1",
    );

    let workers: Vec<f64> = section
        .get("worker_counts")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    check(errs, workers.len() >= 2, "throughput.worker_counts must list at least two counts");
    check(errs, workers.first() == Some(&1.0), "throughput.worker_counts must start at 1");

    let Some(list) = section.get("codecs").and_then(Value::as_array) else {
        errs.push("throughput.codecs array missing".into());
        return;
    };
    check(errs, list.len() >= 5, "throughput.codecs must cover the five benchmarked codecs");
    for c in list {
        let name = c.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
        let name = format!("throughput.codecs {name}");
        check(
            errs,
            c.get("ratio").and_then(Value::as_f64).map(|r| r > 0.0 && r < 4.0) == Some(true),
            &format!("{name}: ratio must be in (0, 4)"),
        );
        for dir in ["encode", "decode"] {
            let Some(ts) = c.get(dir).and_then(Value::as_array) else {
                errs.push(format!("{name}: {dir} timings missing"));
                continue;
            };
            if ts.len() != workers.len() {
                errs.push(format!("{name}: {dir} must have one entry per worker count"));
            }
            for t in ts {
                let positive = |key: &str| t.get(key).and_then(Value::as_f64).map(|v| v > 0.0);
                let ok = positive("mb_per_s") == Some(true)
                    && positive("secs") == Some(true)
                    && t.get("workers").and_then(Value::as_f64).is_some();
                if !ok {
                    errs.push(format!("{name}: {dir} entry missing workers/secs/mb_per_s"));
                }
            }
        }
        check(
            errs,
            c.get("pipeline").and_then(Value::as_array).map(|a| !a.is_empty()) == Some(true),
            &format!("{name}: pipeline timings missing"),
        );
        check(
            errs,
            c.get("encode_speedup").and_then(Value::as_f64).is_some(),
            &format!("{name}: encode_speedup missing"),
        );
        // Counters are process-wide deltas: require positive traffic in
        // every direction, not exact byte accounting (concurrent work in
        // the same process may also have incremented them).
        let Some(t) = c.get("telemetry") else {
            errs.push(format!("{name}: telemetry section missing"));
            continue;
        };
        for key in ["encode_bytes_in", "encode_bytes_out", "decode_bytes_in", "decode_bytes_out"] {
            check(
                errs,
                t.get(key).and_then(Value::as_f64).map(|v| v > 0.0) == Some(true),
                &format!("{name}: telemetry.{key} must be positive"),
            );
        }
    }
    check(
        errs,
        section.get("max_encode_speedup").and_then(Value::as_f64).is_some(),
        "throughput.max_encode_speedup missing",
    );
}

/// The gated metrics of a `throughput` section: each codec's
/// `workers = 1` encode and decode MB/s (higher is better).
pub(crate) fn gated(section: &Value) -> Result<Vec<(String, f64)>, String> {
    let codecs = section.get("codecs").and_then(Value::as_array).ok_or("codecs array missing")?;
    let mut out = Vec::new();
    for c in codecs {
        let name = c.get("name").and_then(Value::as_str).ok_or("codec name missing")?;
        for dir in ["encode", "decode"] {
            let rate = c
                .get(dir)
                .and_then(Value::as_array)
                .and_then(|a| a.first())
                .and_then(|t| t.get("mb_per_s"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: {dir} workers=1 rate missing"))?;
            out.push((format!("{name} {dir} MB/s"), rate));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_every_codec() {
        let config = BenchConfig {
            npts: 4_096,
            nlev: 2,
            worker_counts: vec![1, 2],
            reps: 1,
            preset: "quick".into(),
        };
        let report = run(&config, &mut |_| {});
        assert_eq!(report.codecs.len(), 5);
        let raw = (report.layout.len() * 4) as u64;
        for c in &report.codecs {
            assert_eq!(c.encode.len(), 2);
            assert_eq!(c.decode.len(), 2);
            assert!(c.ratio > 0.0 && c.ratio < 2.0, "{}: {}", c.name, c.ratio);
            // Each worker count encodes+decodes the whole field at least
            // once; the counters are process-wide so >= is the contract.
            assert!(c.telemetry.encode_bytes_in >= 2 * raw, "{}: {:?}", c.name, c.telemetry);
            assert!(c.telemetry.encode_bytes_out > 0, "{}: {:?}", c.name, c.telemetry);
            assert!(c.telemetry.decode_bytes_in > 0, "{}: {:?}", c.name, c.telemetry);
            assert!(c.telemetry.decode_bytes_out >= 2 * raw, "{}: {:?}", c.name, c.telemetry);
        }
    }
}
