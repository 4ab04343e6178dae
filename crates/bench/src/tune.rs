//! `repro tune`: the per-variable auto-tuning artifact.
//!
//! Wraps [`cc_core::TuneReport`] — the generalized enumerate-filter-
//! minimize search over the (family × parameter) candidate space — as
//! the `tune` section of `BENCH.json` (see [`crate::artifact`]):
//!
//! ```json
//! "tune": {
//!   "preset": "default",
//!   "variables": [
//!     {"name": "U", "chosen": "SZ-rel-1e-3", "cr": 0.19, "passes": true,
//!      "hybrid": "fpzip-24", "hybrid_cr": 0.25, "candidates": 24, "passing": 9}, ...
//!   ]
//! }
//! ```
//!
//! The section is deterministic by construction: the tuner's candidate
//! order is fixed, CRs come from worker-count-independent chunked
//! streams, and no timestamps are recorded — two runs at any worker
//! count produce byte-identical sections. It is not gated by
//! `bench-check --against`.

use cc_core::TuneReport;
use cc_obs::json::{self, Value};

/// A tune report plus the preset it was produced under, ready to land in
/// `BENCH.json`.
#[derive(Debug, Clone)]
pub struct TuneArtifact {
    /// Preset label ("quick", "default", ...).
    pub preset: String,
    /// The per-variable tuning outcomes.
    pub report: TuneReport,
}

impl TuneArtifact {
    /// The `tune` section as a JSON value.
    pub fn to_value(&self) -> Value {
        let vars: Vec<String> = self
            .report
            .variables
            .iter()
            .map(|v| {
                format!(
                    "{{\"name\": \"{}\", \"chosen\": \"{}\", \"cr\": {:.6}, \"passes\": {}, \
                     \"hybrid\": \"{}\", \"hybrid_cr\": {:.6}, \"candidates\": {}, \
                     \"passing\": {}}}",
                    json::escape(&v.verdict.name),
                    json::escape(&v.verdict.variant.name()),
                    v.verdict.cr,
                    v.verdict.all_pass(),
                    json::escape(&v.hybrid.variant.name()),
                    v.hybrid.cr,
                    v.candidates,
                    v.passing
                )
            })
            .collect();
        let text = format!(
            "{{\"preset\": \"{}\", \"variables\": [{}]}}",
            json::escape(&self.preset),
            vars.join(", ")
        );
        json::parse(&text).expect("tune section serializes to valid JSON")
    }
}

/// Check a `tune` section, pushing every violation onto `errs`. Every
/// chosen config must have passed all four ensemble tests, and its CR
/// (compressed/raw, smaller is better) must match or beat the
/// hand-picked hybrid's.
pub(crate) fn validate(tune: &Value, errs: &mut Vec<String>) {
    if tune.get("preset").and_then(Value::as_str).is_none() {
        errs.push("tune.preset missing".into());
    }
    let vars = tune.get("variables").and_then(Value::as_array).unwrap_or_default();
    if vars.is_empty() {
        errs.push("tune.variables must be a non-empty array".into());
    }
    for (i, v) in vars.iter().enumerate() {
        let num = |key: &str| v.get(key).and_then(Value::as_f64);
        if v.get("name").and_then(Value::as_str).is_none()
            || v.get("chosen").and_then(Value::as_str).is_none()
            || v.get("hybrid").and_then(Value::as_str).is_none()
        {
            errs.push(format!("tune.variables[{i}]: name/chosen/hybrid must be strings"));
        }
        if v.get("passes") != Some(&Value::Bool(true)) {
            errs.push(format!("tune.variables[{i}]: chosen config must pass all four tests"));
        }
        match (num("cr"), num("hybrid_cr")) {
            (Some(cr), Some(hcr)) if cr > 0.0 && cr <= 4.0 && hcr > 0.0 => {
                if cr > hcr + 1e-9 {
                    errs.push(format!(
                        "tune.variables[{i}]: tuned CR {cr} worse than hybrid {hcr}"
                    ));
                }
            }
            _ => errs.push(format!(
                "tune.variables[{i}]: cr/hybrid_cr must be positive (cr <= 4)"
            )),
        }
        if num("candidates").map(|c| c >= 1.0) != Some(true)
            || num("passing").map(|p| p >= 1.0) != Some(true)
        {
            errs.push(format!("tune.variables[{i}]: candidates/passing must be >= 1"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::evaluation::EvalConfig;
    use cc_core::Evaluation;
    use cc_grid::Resolution;
    use cc_model::Model;

    fn tiny_report() -> TuneReport {
        let model = Model::new(Resolution::reduced(2, 2), 13);
        let eval = Evaluation::new(model, EvalConfig::quick(9));
        let vars = vec![eval.model.var_id("U").unwrap()];
        TuneReport::build(&eval, &vars)
    }

    #[test]
    fn tune_section_is_deterministic() {
        let a = TuneArtifact { preset: "quick".into(), report: tiny_report() };
        let b = TuneArtifact { preset: "quick".into(), report: tiny_report() };
        let section = a.to_value();
        assert_eq!(section.to_json(), b.to_value().to_json());
        let vars = section.get("variables").and_then(Value::as_array).expect("variables");
        assert_eq!(vars[0].get("name").and_then(Value::as_str), Some("U"));
        assert_eq!(vars[0].get("passes"), Some(&Value::Bool(true)));
    }
}
