//! `repro serve-bench`: loopback throughput of the `cc-serve` daemon.
//!
//! Starts an in-process reactor server per worker count, drives it with
//! swept numbers of concurrent client threads issuing pipelined
//! `Compress` requests, and reports requests/second plus latency
//! percentiles read from the server's own `serve.req_us` histogram
//! (log2 buckets, diffed across the run — the same telemetry `--trace`
//! exports; percentiles are conservative bucket upper bounds via
//! [`cc_obs::percentile_upper_bound`]). Each run also reports the
//! per-opcode latency split from the `serve.req_us.{op}` histograms.
//! The result is the `serve` section of `BENCH.json` (see
//! [`crate::artifact`]); it is not gated by `bench-check --against`.
//!
//! ```json
//! "serve": {
//!   "shards": N, "requests_per_client": N, "pipeline_depth": N,
//!   "payload_elems": N, "client_counts": [8, 128, ...],
//!   "runs": [
//!     {"workers": 1, "clients": 8, "requests": N, "req_per_s": X,
//!      "p50_us": N, "p99_us": N, "p999_us": N, "busy_rate": X,
//!      "per_op": [{"op": "compress", "count": N,
//!                  "p50_us": N, "p99_us": N, "p999_us": N}]}, ...
//!   ]
//! }
//! ```
//!
//! The sweep runs at the server's **default** `queue_depth` and
//! connection cap deliberately: the acceptance criterion is that
//! hundreds of pipelined clients complete without a `Busy` storm, so
//! the bench must not widen the queue to hide one.

use crate::throughput::bench_field;
use cc_obs::json::{self, Value};
use cc_serve::wire::{CompressRequest, Opcode};
use cc_serve::{Client, Server, ServerConfig};
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Server worker counts to sweep (the schema requires >= 2).
    pub worker_counts: Vec<usize>,
    /// Reactor shards (fixed across the sweep).
    pub shards: usize,
    /// Concurrent client-thread counts to sweep per worker count.
    pub client_counts: Vec<usize>,
    /// Requests issued by each client.
    pub requests_per_client: usize,
    /// Requests in flight per client (pipelining batch size).
    pub pipeline_depth: usize,
    /// Horizontal points of the compressed payload field.
    pub npts: usize,
    /// Vertical levels of the payload field.
    pub nlev: usize,
}

impl ServeBenchConfig {
    /// CI smoke scale: still reaches 128 concurrent pipelined clients
    /// (the acceptance floor) with a tiny payload.
    pub fn quick() -> Self {
        ServeBenchConfig {
            worker_counts: vec![1, 2],
            shards: 2,
            client_counts: vec![8, 128],
            requests_per_client: 4,
            pipeline_depth: 4,
            npts: 4_096,
            nlev: 1,
        }
    }

    /// Default scale: the worker sweep the acceptance criterion is
    /// stated against (1 and 8 workers), up to 256 clients.
    pub fn default_scale() -> Self {
        ServeBenchConfig {
            worker_counts: vec![1, 2, 8],
            shards: 2,
            client_counts: vec![16, 64, 256],
            requests_per_client: 8,
            pipeline_depth: 4,
            npts: 16_384,
            nlev: 2,
        }
    }
}

/// Opcodes whose latency histograms the sweep splits out.
const LATENCY_OPS: &[&str] = &["ping", "compress", "decompress", "evaluate", "stats", "shutdown"];

/// Latency of one opcode over one run, from the server's own
/// `serve.req_us.{op}` histogram delta.
#[derive(Debug, Clone)]
pub struct OpLatency {
    /// Opcode name.
    pub op: String,
    /// Requests of this opcode completed during the run.
    pub count: u64,
    /// Median latency, µs (log2-bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: u64,
}

/// One (worker count, client count) measurement.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Server worker threads.
    pub workers: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests completed.
    pub requests: u64,
    /// Requests per second (wall clock across all clients).
    pub req_per_s: f64,
    /// Median request-handling latency, µs (log2-bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile request-handling latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile request-handling latency, µs.
    pub p999_us: u64,
    /// `Busy` responses per accepted connection over the run.
    pub busy_rate: f64,
    /// Per-opcode latency split (opcodes that saw traffic only).
    pub per_op: Vec<OpLatency>,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Configuration used.
    pub config: ServeBenchConfig,
    /// One entry per (worker count, client count) pair.
    pub runs: Vec<ServeRun>,
}

/// Dense per-bucket counts of a histogram snapshot.
fn dense_buckets(snap: &cc_obs::HistogramSnapshot) -> Vec<u64> {
    let mut out = vec![0u64; cc_obs::HIST_BUCKETS];
    for &(i, n) in &snap.buckets {
        out[i as usize] = n;
    }
    out
}

/// Run the sweep. `progress` receives one line per run.
pub fn run(config: &ServeBenchConfig, progress: &mut dyn FnMut(&str)) -> ServeBenchReport {
    let (data, layout) = bench_field(config.npts, config.nlev);
    let mut runs = Vec::new();
    for &workers in &config.worker_counts {
        for &clients in &config.client_counts {
            let server = Server::start(ServerConfig {
                workers,
                shards: config.shards,
                ..ServerConfig::default()
            })
            .expect("bind loopback");
            let addr = server.addr().to_string();

            let hist_before = dense_buckets(&cc_obs::histogram("serve.req_us").snapshot());
            let per_op_before: Vec<cc_obs::HistogramSnapshot> = LATENCY_OPS
                .iter()
                .map(|op| cc_obs::histogram(&format!("serve.req_us.{op}")).snapshot())
                .collect();
            let busy_before = cc_obs::counter_value("serve.busy");
            let accept_before = cc_obs::counter_value("serve.accept");

            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..clients {
                    let addr = &addr;
                    let data = &data;
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let req = CompressRequest {
                            variant: "fpzip-24".to_string(),
                            layout,
                            data: data.clone(),
                        };
                        let payload = req.encode().expect("encode");
                        let mut remaining = config.requests_per_client;
                        while remaining > 0 {
                            let batch = remaining.min(config.pipeline_depth.max(1));
                            let reqs: Vec<(Opcode, Vec<u8>)> = (0..batch)
                                .map(|_| (Opcode::Compress, payload.clone()))
                                .collect();
                            let results = client.pipeline(&reqs).expect("pipeline");
                            for r in results {
                                r.expect("compress succeeds");
                            }
                            remaining -= batch;
                        }
                    });
                }
            });
            let secs = t0.elapsed().as_secs_f64();
            server.shutdown();

            let hist_after = dense_buckets(&cc_obs::histogram("serve.req_us").snapshot());
            let delta: Vec<u64> =
                hist_after.iter().zip(&hist_before).map(|(a, b)| a.saturating_sub(*b)).collect();
            let requests = (clients * config.requests_per_client) as u64;
            let accepts = cc_obs::counter_value("serve.accept").saturating_sub(accept_before);
            let busy = cc_obs::counter_value("serve.busy").saturating_sub(busy_before);
            let per_op: Vec<OpLatency> = LATENCY_OPS
                .iter()
                .zip(&per_op_before)
                .filter_map(|(op, before)| {
                    let d = cc_obs::histogram(&format!("serve.req_us.{op}"))
                        .snapshot()
                        .delta(before);
                    (d.count > 0).then(|| OpLatency {
                        op: op.to_string(),
                        count: d.count,
                        p50_us: d.percentile(0.50),
                        p99_us: d.percentile(0.99),
                        p999_us: d.percentile(0.999),
                    })
                })
                .collect();
            let run = ServeRun {
                workers,
                clients,
                requests,
                req_per_s: requests as f64 / secs.max(1e-9),
                p50_us: cc_obs::percentile_upper_bound(&delta, 0.50),
                p99_us: cc_obs::percentile_upper_bound(&delta, 0.99),
                p999_us: cc_obs::percentile_upper_bound(&delta, 0.999),
                busy_rate: busy as f64 / (accepts.max(1)) as f64,
                per_op,
            };
            progress(&format!(
                "workers={:<2} clients={:<4} {:>7.0} req/s  p50 {:>6}us  p99 {:>6}us  p999 {:>6}us  busy {:.3}",
                run.workers, run.clients, run.req_per_s, run.p50_us, run.p99_us, run.p999_us,
                run.busy_rate
            ));
            for o in &run.per_op {
                progress(&format!(
                    "  {:<12} {:>6} reqs  p50 {:>6}us  p99 {:>6}us  p999 {:>6}us",
                    o.op, o.count, o.p50_us, o.p99_us, o.p999_us
                ));
            }
            runs.push(run);
        }
    }
    ServeBenchReport { config: config.clone(), runs }
}

impl ServeBenchReport {
    /// The `serve` section as a JSON value.
    pub fn to_value(&self) -> Value {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                let per_op: Vec<String> = r
                    .per_op
                    .iter()
                    .map(|o| {
                        format!(
                            "{{\"op\": \"{}\", \"count\": {}, \"p50_us\": {}, \
                             \"p99_us\": {}, \"p999_us\": {}}}",
                            o.op, o.count, o.p50_us, o.p99_us, o.p999_us
                        )
                    })
                    .collect();
                format!(
                    "{{\"workers\": {}, \"clients\": {}, \"requests\": {}, \
                     \"req_per_s\": {:.3}, \"p50_us\": {}, \"p99_us\": {}, \
                     \"p999_us\": {}, \"busy_rate\": {:.6}, \"per_op\": [{}]}}",
                    r.workers, r.clients, r.requests, r.req_per_s, r.p50_us, r.p99_us, r.p999_us,
                    r.busy_rate,
                    per_op.join(", ")
                )
            })
            .collect();
        let counts: Vec<String> =
            self.config.client_counts.iter().map(|c| c.to_string()).collect();
        let text = format!(
            "{{\"shards\": {}, \"requests_per_client\": {}, \"pipeline_depth\": {}, \
             \"payload_elems\": {}, \"client_counts\": [{}], \"runs\": [{}]}}",
            self.config.shards,
            self.config.requests_per_client,
            self.config.pipeline_depth,
            self.config.npts * self.config.nlev,
            counts.join(", "),
            runs.join(", ")
        );
        json::parse(&text).expect("serve section serializes to valid JSON")
    }
}

/// Check a `serve` section, pushing every violation onto `errs`. Every
/// run must carry its client count, p50 <= p99 <= p999, and a non-empty
/// `per_op` latency split.
pub(crate) fn validate(serve: &Value, errs: &mut Vec<String>) {
    for key in ["shards", "requests_per_client", "payload_elems"] {
        if serve.get(key).and_then(Value::as_f64).map(|v| v > 0.0) != Some(true) {
            errs.push(format!("serve.{key} must be a positive number"));
        }
    }
    if serve
        .get("client_counts")
        .and_then(Value::as_array)
        .map(|a| a.iter().all(|v| v.as_f64().map(|c| c >= 1.0) == Some(true)) && !a.is_empty())
        != Some(true)
    {
        errs.push("serve.client_counts must be a non-empty array of positive counts".into());
    }
    let runs = serve.get("runs").and_then(Value::as_array).unwrap_or_default();
    if runs.len() < 2 {
        errs.push("serve.runs must cover at least two sweep points".into());
    }
    for (i, r) in runs.iter().enumerate() {
        let num = |key: &str| r.get(key).and_then(Value::as_f64);
        if num("workers").map(|v| v >= 1.0) != Some(true)
            || num("requests").map(|v| v >= 1.0) != Some(true)
            || num("req_per_s").map(|v| v > 0.0) != Some(true)
        {
            errs.push(format!("serve.runs[{i}]: workers/requests/req_per_s must be positive"));
        }
        if num("clients").map(|v| v >= 1.0) != Some(true) {
            errs.push(format!("serve.runs[{i}]: clients must be >= 1"));
        }
        if !matches!(
            (num("p50_us"), num("p99_us"), num("p999_us")),
            (Some(p50), Some(p99), Some(p999)) if p50 >= 0.0 && p99 >= p50 && p999 >= p99
        ) {
            errs.push(format!("serve.runs[{i}]: need p50_us <= p99_us <= p999_us"));
        }
        if num("busy_rate").map(|v| (0.0..=1.0).contains(&v)) != Some(true) {
            errs.push(format!("serve.runs[{i}]: busy_rate must be in [0, 1]"));
        }
        let ops = r.get("per_op").and_then(Value::as_array).unwrap_or_default();
        if ops.is_empty() {
            errs.push(format!("serve.runs[{i}]: per_op latency split missing"));
        }
        for (j, o) in ops.iter().enumerate() {
            let onum = |key: &str| o.get(key).and_then(Value::as_f64);
            let ok = o.get("op").and_then(Value::as_str).is_some()
                && onum("count").map(|v| v >= 1.0) == Some(true)
                && matches!(
                    (onum("p50_us"), onum("p99_us"), onum("p999_us")),
                    (Some(p50), Some(p99), Some(p999))
                        if p50 >= 0.0 && p99 >= p50 && p999 >= p99
                );
            if !ok {
                errs.push(format!(
                    "serve.runs[{i}].per_op[{j}]: need op, count >= 1, p50 <= p99 <= p999"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_every_run() {
        let config = ServeBenchConfig {
            worker_counts: vec![1, 2],
            shards: 2,
            client_counts: vec![2],
            requests_per_client: 3,
            pipeline_depth: 2,
            npts: 512,
            nlev: 1,
        };
        let report = run(&config, &mut |_| {});
        assert_eq!(report.runs.len(), 2);
        for r in &report.runs {
            assert_eq!(r.clients, 2);
            assert_eq!(r.requests, 6);
            assert!(r.req_per_s > 0.0);
            assert!(r.p99_us >= r.p50_us);
            assert!(r.p999_us >= r.p99_us);
            assert!(r.busy_rate >= 0.0);
            // The sweep issues Compress only, so the per-opcode split
            // must contain it (counts are process-wide deltas, so >=).
            let comp = r.per_op.iter().find(|o| o.op == "compress").expect("compress split");
            assert!(comp.count >= 6);
            assert!(comp.p99_us >= comp.p50_us && comp.p999_us >= comp.p99_us);
        }
    }
}
