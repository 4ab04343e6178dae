//! `repro eval-bench`: the verification-engine throughput artifact.
//!
//! Runs the auto-tuner over the focus variables through the pipelined
//! driver (`Evaluation::map_contexts` + the batched candidate sweep)
//! with span recording forced on, and distills the trace into an `eval`
//! JSON section: member-synthesis and verdict rates, per-variable tune
//! wall time, and the per-stage self-time profile — the `eval` section
//! of `BENCH.json` (see [`crate::artifact`]):
//!
//! ```json
//! "eval": {
//!   "preset": "default", "workers": N, "members": N,
//!   "synth_members_per_s": X, "verdicts_per_s": X, "tune_wall_s": X,
//!   "variables": [{"name": "U", "tune_wall_s": X}, ...],
//!   "stages": [{"name": "eval.member_synth", "calls": N, "self_ms": X}, ...]
//! }
//! ```
//!
//! Unlike the `tune` section, the rates here are wall-clock measurements
//! and vary run to run — `bench-check --against` holds them to the same
//! tolerance floor as the codec throughput comparison (`gated`).

use cc_core::evaluation::Evaluation;
use cc_core::tuning::{tune_variable, TuneReport};
use cc_obs::json::{self, Value};
use cc_obs::trace::TraceReport;
use std::time::Instant;

/// Per-stage self-time row, aggregated from the run's span tree.
#[derive(Debug, Clone)]
pub struct EvalStage {
    /// Span name (`eval.member_synth`, `eval.sample`, ...).
    pub name: String,
    /// Number of spans recorded under this name.
    pub calls: u64,
    /// Summed self time (wall minus direct children), in milliseconds.
    pub self_ms: f64,
}

/// Per-variable tuning wall time.
#[derive(Debug, Clone)]
pub struct EvalVariable {
    /// Variable name.
    pub name: String,
    /// Wall-clock seconds spent scoring this variable's candidate space
    /// (context build overlaps the previous variable and is excluded).
    pub tune_wall_s: f64,
}

/// Everything `repro eval-bench` measured, ready to land in `BENCH.json`.
#[derive(Debug, Clone)]
pub struct EvalArtifact {
    /// Preset label ("quick", "default", ...).
    pub preset: String,
    /// Worker-pool width the sweep ran at.
    pub workers: usize,
    /// Ensemble size.
    pub members: usize,
    /// Members synthesized per second of synthesis CPU time (span
    /// self-time, so the rate is comparable across worker counts).
    pub synth_members_per_s: f64,
    /// Candidate verdicts produced per wall-clock second.
    pub verdicts_per_s: f64,
    /// Total wall-clock seconds for the whole tuning sweep, context
    /// builds included.
    pub tune_wall_s: f64,
    /// Per-variable wall times, in sweep order.
    pub variables: Vec<EvalVariable>,
    /// Per-stage self-time profile, largest first.
    pub stages: Vec<EvalStage>,
    /// The tune report the measurement produced (for printing; not part
    /// of the JSON section).
    pub report: TuneReport,
}

/// Run the tuning sweep over `vars` with spans forced on and distill the
/// timings. The sweep runs on a scoped helper thread so its spans land
/// as that thread's roots even when the caller holds an open span (e.g.
/// `repro --trace` wraps experiments in `exp.*`).
pub fn run(eval: &Evaluation, vars: &[usize], preset: &str) -> EvalArtifact {
    let spans_were = cc_obs::spans_enabled();
    cc_obs::set_spans_enabled(true);
    let (tuned, walls, total_wall, spans) = std::thread::scope(|s| {
        s.spawn(|| {
            let t0 = Instant::now();
            let tuned = eval.map_contexts(vars, |ctx| {
                let v0 = Instant::now();
                let tv = tune_variable(ctx);
                (tv, v0.elapsed().as_secs_f64())
            });
            let total = t0.elapsed().as_secs_f64();
            let (tuned, walls): (Vec<_>, Vec<_>) = tuned.into_iter().unzip();
            (tuned, walls, total, cc_obs::take_local_roots())
        })
        .join()
        .expect("eval-bench sweep thread")
    });
    cc_obs::set_spans_enabled(spans_were);

    let report = TraceReport { spans, metrics: Default::default() };
    let mut stages: Vec<EvalStage> = report
        .summary()
        .into_iter()
        .map(|s| EvalStage {
            name: s.name,
            calls: s.calls,
            self_ms: s.self_ns as f64 / 1e6,
        })
        .collect();
    stages.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms).then(a.name.cmp(&b.name)));
    stages.truncate(16);

    let synth = stages.iter().find(|s| s.name == "eval.member_synth");
    let synth_members_per_s = synth
        .filter(|s| s.self_ms > 0.0)
        .map(|s| s.calls as f64 / (s.self_ms / 1e3))
        .unwrap_or(0.0);
    let verdicts: usize = tuned.iter().map(|t| t.candidates).sum();
    let verdicts_per_s =
        if total_wall > 0.0 { verdicts as f64 / total_wall } else { 0.0 };

    let variables = tuned
        .iter()
        .zip(&walls)
        .map(|(t, &w)| EvalVariable { name: t.verdict.name.clone(), tune_wall_s: w.max(1e-9) })
        .collect();
    EvalArtifact {
        preset: preset.to_string(),
        workers: eval.config.workers,
        members: eval.config.members,
        synth_members_per_s,
        verdicts_per_s,
        tune_wall_s: total_wall.max(1e-9),
        variables,
        stages,
        report: TuneReport { variables: tuned },
    }
}

impl EvalArtifact {
    /// The `eval` section as a JSON value.
    pub fn to_value(&self) -> Value {
        let vars: Vec<String> = self
            .variables
            .iter()
            .map(|v| {
                format!(
                    "{{\"name\": \"{}\", \"tune_wall_s\": {:.6}}}",
                    json::escape(&v.name),
                    v.tune_wall_s
                )
            })
            .collect();
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"calls\": {}, \"self_ms\": {:.3}}}",
                    json::escape(&s.name),
                    s.calls,
                    s.self_ms
                )
            })
            .collect();
        let text = format!(
            "{{\"preset\": \"{}\", \"workers\": {}, \"members\": {}, \
             \"synth_members_per_s\": {:.3}, \"verdicts_per_s\": {:.3}, \
             \"tune_wall_s\": {:.6}, \"variables\": [{}], \"stages\": [{}]}}",
            json::escape(&self.preset),
            self.workers,
            self.members,
            self.synth_members_per_s,
            self.verdicts_per_s,
            self.tune_wall_s,
            vars.join(", "),
            stages.join(", ")
        );
        json::parse(&text).expect("eval section serializes to valid JSON")
    }
}

/// Check an `eval` section, pushing every violation onto `errs`.
pub(crate) fn validate(eval: &Value, errs: &mut Vec<String>) {
    if eval.get("preset").and_then(Value::as_str).is_none() {
        errs.push("eval.preset missing".into());
    }
    let num = |key: &str| eval.get(key).and_then(Value::as_f64);
    for key in ["workers", "members"] {
        if num(key).map(|v| v >= 1.0) != Some(true) {
            errs.push(format!("eval.{key} must be >= 1"));
        }
    }
    for key in ["synth_members_per_s", "verdicts_per_s", "tune_wall_s"] {
        if num(key).map(|v| v > 0.0) != Some(true) {
            errs.push(format!("eval.{key} must be positive"));
        }
    }
    let vars = eval.get("variables").and_then(Value::as_array).unwrap_or_default();
    if vars.is_empty() {
        errs.push("eval.variables must be a non-empty array".into());
    }
    for (i, v) in vars.iter().enumerate() {
        let ok = v.get("name").and_then(Value::as_str).is_some()
            && v.get("tune_wall_s").and_then(Value::as_f64).map(|w| w > 0.0) == Some(true);
        if !ok {
            errs.push(format!("eval.variables[{i}]: need name and positive tune_wall_s"));
        }
    }
    let stages = eval.get("stages").and_then(Value::as_array).unwrap_or_default();
    if stages.is_empty() {
        errs.push("eval.stages must be a non-empty per-stage self-time profile".into());
    }
    for (i, st) in stages.iter().enumerate() {
        let snum = |key: &str| st.get(key).and_then(Value::as_f64);
        let ok = st.get("name").and_then(Value::as_str).is_some()
            && snum("calls").map(|c| c >= 1.0) == Some(true)
            && snum("self_ms").map(|s| s >= 0.0) == Some(true);
        if !ok {
            errs.push(format!("eval.stages[{i}]: need name, calls >= 1, self_ms >= 0"));
        }
    }
}

/// The gated metrics of an `eval` section: the synthesis and verdict
/// rates (higher is better). Wall times are machine-dependent and not
/// gated.
pub(crate) fn gated(eval: &Value) -> Result<Vec<(String, f64)>, String> {
    [("synth members/s", "synth_members_per_s"), ("verdicts/s", "verdicts_per_s")]
        .into_iter()
        .map(|(label, key)| {
            let rate = eval.get(key).and_then(Value::as_f64).ok_or(format!("{key} missing"))?;
            Ok((label.to_string(), rate))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::evaluation::EvalConfig;
    use cc_grid::Resolution;
    use cc_model::Model;

    #[test]
    fn eval_bench_measures_rates_and_stages() {
        let model = Model::new(Resolution::reduced(2, 2), 13);
        let eval = Evaluation::new(model, EvalConfig::quick(9));
        let vars = vec![eval.model.var_id("U").unwrap()];
        let artifact = run(&eval, &vars, "quick");
        assert!(artifact.synth_members_per_s > 0.0, "no synthesis rate measured");
        assert!(artifact.verdicts_per_s > 0.0);
        assert_eq!(artifact.variables.len(), 1);
        assert!(
            artifact.stages.iter().any(|s| s.name == "eval.sample"),
            "stage profile missing eval.sample: {:?}",
            artifact.stages
        );
        let stages = artifact.to_value();
        let stages = stages.get("stages").and_then(Value::as_array).expect("eval.stages");
        assert_eq!(stages.len(), artifact.stages.len());
    }
}
