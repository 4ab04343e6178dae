//! Shared measurement plumbing: what a timed phase records, the
//! statistics over it, and the result line the benchmark prints.

use std::time::{Duration, Instant};

/// What one timed phase of a workload recorded.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-op latency, ms (open loop: from the op's due time).
    pub lat_ms: Vec<f64>,
    /// How late the load generator issued each op, ms. Open loop: wake-up
    /// past the due time on an idle connection. Closed loop: the gap
    /// between one op's completion and the next op's start.
    pub late_ms: Vec<f64>,
    /// The workload's core library call timed in-process, ms (see
    /// [`Workload::replay`]; tune and ingest time it inside each op).
    pub inproc_ms: Vec<f64>,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that returned a typed error, timed out or lost their
    /// connection.
    pub failed: u64,
    /// Open-loop passes measured and then discarded because the generator
    /// ran late.
    pub rejected_passes: u64,
}

impl Phase {
    /// Record one successful or failed op outcome.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another thread's share of the same phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.lat_ms.extend(other.lat_ms);
        self.late_ms.extend(other.late_ms);
        self.inproc_ms.extend(other.inproc_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected_passes += other.rejected_passes;
    }
}

/// Exact per-layer counts a workload knows about its own inputs and
/// outputs (zero where the workload does not touch the layer).
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Candidate verdicts per tune sweep.
    pub verdicts: u64,
    /// Candidates passing all four tests per tune sweep.
    pub passing: u64,
    /// Mean keyframe-chain length (frames decoded) per slice.
    pub chain_frames_mean: f64,
    /// Mean archive bytes read per in-process slice fetch.
    pub bytes_read_mean: f64,
    /// Keyframe blob bytes in the workload's archive.
    pub keyframe_bytes: u64,
    /// Delta-frame blob bytes in the workload's archive.
    pub delta_bytes: u64,
}

/// One benchmark workload, set up and ready to run timed phases.
pub trait Workload {
    /// Run ops until `seconds` have elapsed (at least a few ops), checking
    /// every output. `Err` means an output was wrong: the run aborts.
    fn run(&mut self, seconds: f64) -> Result<Phase, String>;

    /// Replay the workload's picks through the library in-process (no
    /// server), timing each call; returns the per-call ms. Workloads whose
    /// ops are already in-process time the call inside [`Workload::run`].
    fn replay(&mut self) -> Result<Vec<f64>, String> {
        Ok(Vec::new())
    }

    /// Stored bytes / raw bytes of the data this workload handles.
    fn stored_ratio(&self) -> f64;

    /// Exact per-layer counts.
    fn counts(&self) -> Counts;

    /// The child server, for workloads that talk to one.
    fn server(&mut self) -> Option<&mut crate::server::ChildServer> {
        None
    }
}

/// Sleep until `due`; returns how late the wake-up was, ms.
pub fn sleep_until(due: Instant) -> f64 {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
    ms(Instant::now().saturating_duration_since(due))
}

/// A duration in ms.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated percentile (`q` in [0, 1]) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_QUANTILES: [f64; 4] = [0.999, 0.99, 0.9, 0.75];

/// The highest of [`TAIL_QUANTILES`] with at least ten samples beyond it,
/// and its value; the median where no such percentile exists.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let q = TAIL_QUANTILES
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.5);
    (q, percentile(samples, q))
}

/// FNV-1a over bytes: the cheap identity check for archive bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// `VmHWM` (peak resident set) of a process from `/proc`, in kB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_kb(pid: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Bit-for-bit equality of two f32 slices (NaN payloads included).
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with every digit Rust's shortest round-trip form keeps.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_brackets() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.25), 2.0);
        assert!((percentile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(tail(&s(10_000)).0, 0.999);
        assert_eq!(tail(&s(6_000)).0, 0.99);
        assert_eq!(tail(&s(1_000)).0, 0.99);
        assert_eq!(tail(&s(800)).0, 0.9);
        assert_eq!(tail(&s(40)).0, 0.75);
        assert_eq!(tail(&s(7)), (0.5, 4.0));
    }

    #[test]
    fn result_line_is_valid_json_with_every_digit() {
        let mut m = Metrics::default();
        m.put("p50_ms", 1.2345678901234, "ms");
        m.put("setup_s", 0.5, "s");
        let line = result_json(true, 10, 1, &m);
        let v = cc_obs::json::parse(&line).expect("valid JSON");
        let p50 = v
            .get("metrics")
            .and_then(|m| m.get("p50_ms"))
            .and_then(|m| m.get("value"));
        assert_eq!(p50.and_then(|x| x.as_f64()), Some(1.2345678901234));
        assert!(line.contains("\"failed\": 1"));
    }
}
