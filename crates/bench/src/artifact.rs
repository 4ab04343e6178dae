//! `BENCH.json`: one `cc-bench/1` document whose sections are peers.
//!
//! ```json
//! {
//!   "schema": "cc-bench/1",
//!   "throughput": {...},
//!   "serve": {...},
//!   "tune": {...},
//!   "eval": {...},
//!   "archive": {...}
//! }
//! ```
//!
//! Each `repro` benchmark subcommand owns one section (`bench` →
//! `throughput`, `serve-bench` → `serve`, `tune` → `tune`, `eval-bench`
//! → `eval`, `archive-bench` → `archive`); the shape of each is
//! documented in the module that writes it. Every section is optional,
//! but a document carries at least one, and no other top-level key.
//!
//! [`SECTIONS`] is the only place that knows the section set: for each
//! section it names one validator and one compare rule. [`validate`],
//! [`upsert_section`] and [`compare`] are driven by that table alone.

use crate::{archive_bench, evalbench, serve_bench, throughput, tune};
use cc_obs::json::{self, Value};
use std::path::Path;

/// The document's `schema` string.
pub const SCHEMA: &str = "cc-bench/1";

/// Which direction of a gated metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates: the current value may drop to `(1 - tolerance) ×` baseline.
    Higher,
    /// Sizes and latencies: the mirror image, `current × (1 - tolerance)`
    /// may rise to the baseline.
    Lower,
}

/// Reads a section's gated metrics as `(label, value)` pairs.
pub type Metrics = fn(&Value) -> Result<Vec<(String, f64)>, String>;

/// One entry of [`SECTIONS`].
pub struct Section {
    /// Top-level key.
    pub name: &'static str,
    /// Pushes every violation of the section's shape onto the list.
    pub validate: fn(&Value, &mut Vec<String>),
    /// The compare rule: which direction is better and the metrics it
    /// gates; `None` leaves the section ungated.
    pub gate: Option<(Better, Metrics)>,
}

/// Every section a `cc-bench/1` document may carry; [`compare`] reports
/// them in this order.
pub const SECTIONS: &[Section] = &[
    Section {
        name: "throughput",
        validate: throughput::validate,
        gate: Some((Better::Higher, throughput::gated)),
    },
    Section { name: "serve", validate: serve_bench::validate, gate: None },
    Section { name: "tune", validate: tune::validate, gate: None },
    Section {
        name: "eval",
        validate: evalbench::validate,
        gate: Some((Better::Higher, evalbench::gated)),
    },
    Section {
        name: "archive",
        validate: archive_bench::validate,
        gate: Some((Better::Lower, archive_bench::gated)),
    },
];

/// Validate a `BENCH.json` document. Returns every violation found.
pub fn validate(text: &str) -> Result<(), Vec<String>> {
    let doc = json::parse(text).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let Value::Obj(members) = &doc else {
        return Err(vec!["document must be a JSON object".into()]);
    };
    let mut errs = Vec::new();
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => errs.push(format!("schema must be \"{SCHEMA}\", not \"{other}\"")),
        None => errs.push(format!("schema must be \"{SCHEMA}\"")),
    }
    let mut sections = 0;
    for (key, value) in members.iter().filter(|(k, _)| k != "schema") {
        match SECTIONS.iter().find(|s| s.name == key) {
            Some(section) => {
                sections += 1;
                (section.validate)(value, &mut errs);
            }
            None => errs.push(format!("unknown top-level key \"{key}\"")),
        }
    }
    if sections == 0 {
        errs.push("document carries no section".into());
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Set section `name` of the document at `path` to `value`, creating the
/// file when it is missing. Every other section is kept byte for byte.
/// The merged document is validated before it is written, so a file that
/// cannot carry the section (another schema, a damaged section) is left
/// untouched and its violations are returned.
pub fn upsert_section(path: &Path, name: &str, value: Value) -> Result<(), Vec<String>> {
    let shown = path.display();
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text).map_err(|e| vec![format!("{shown}: not valid JSON: {e}")])?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Value::Obj(vec![("schema".into(), Value::Str(SCHEMA.into()))])
        }
        Err(e) => return Err(vec![format!("cannot read {shown}: {e}")]),
    };
    doc.set(name, value);
    let text = doc.to_json() + "\n";
    validate(&text)?;
    std::fs::write(path, text).map_err(|e| vec![format!("cannot write {shown}: {e}")])
}

/// One gated metric of a [`compare`].
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Section the metric comes from.
    pub section: &'static str,
    /// Metric label (`fpzip-24 encode MB/s`, `U archive CR`, ...).
    pub metric: String,
    /// Direction that counts as better.
    pub better: Better,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Within tolerance of the baseline in the metric's direction.
    pub pass: bool,
}

/// Compare `current` against `baseline` (both `BENCH.json` documents),
/// section by section through each section's compare rule. Sections
/// present on one side only, ungated sections, and metrics present on
/// one side only are skipped. Errors when a document is not JSON, a
/// gated section lacks a metric it must carry, the documents share no
/// gated section, or a shared gated section shares no metric — so a
/// comparison that gates nothing never passes.
pub fn compare(current: &str, baseline: &str, tolerance: f64) -> Result<Vec<CompareRow>, String> {
    let cur = json::parse(current).map_err(|e| format!("not valid JSON: {e}"))?;
    let base = json::parse(baseline).map_err(|e| format!("baseline: not valid JSON: {e}"))?;
    let keep = 1.0 - tolerance;
    let mut rows = Vec::new();
    for section in SECTIONS {
        let Some((better, metrics)) = section.gate else {
            continue;
        };
        let (Some(cur_sec), Some(base_sec)) = (cur.get(section.name), base.get(section.name))
        else {
            continue;
        };
        let cur_metrics = metrics(cur_sec).map_err(|e| format!("{}: {e}", section.name))?;
        let base_metrics =
            metrics(base_sec).map_err(|e| format!("baseline {}: {e}", section.name))?;
        let before = rows.len();
        for (metric, base) in base_metrics {
            let Some(&(_, cur)) = cur_metrics.iter().find(|(m, _)| *m == metric) else {
                continue;
            };
            let pass = match better {
                Better::Higher => cur >= base * keep,
                Better::Lower => cur * keep <= base,
            };
            rows.push(CompareRow { section: section.name, metric, better, base, cur, pass });
        }
        if rows.len() == before {
            return Err(format!("{}: no metric appears in both documents", section.name));
        }
    }
    if rows.is_empty() {
        return Err("the documents share no gated section".into());
    }
    Ok(rows)
}

/// Render comparison rows as a pass/fail table; returns the rendering
/// and the number of failing metrics.
pub fn render_compare(rows: &[CompareRow], tolerance: f64) -> (String, usize) {
    let mut s = format!(
        "{:<10} {:<24} {:>6} {:>12} {:>12} {:>7}  {}\n",
        "section", "metric", "better", "base", "now", "Δ", "status"
    );
    let mut fails = 0;
    for r in rows {
        if !r.pass {
            fails += 1;
        }
        let pct = if r.base > 0.0 {
            format!("{:+.0}%", (r.cur / r.base - 1.0) * 100.0)
        } else {
            "n/a".into()
        };
        s.push_str(&format!(
            "{:<10} {:<24} {:>6} {:>12.4} {:>12.4} {:>7}  {}\n",
            r.section,
            r.metric,
            if r.better == Better::Higher { "higher" } else { "lower" },
            r.base,
            r.cur,
            pct,
            if r.pass { "ok" } else { "REGRESSED" },
        ));
    }
    let keep = 1.0 - tolerance;
    s.push_str(&format!(
        "tolerance: higher-is-better metrics must reach {:.0}% of baseline, \
         lower-is-better ones stay within baseline / {keep:.2}\n",
        keep * 100.0
    ));
    (s, fails)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive_bench::ArchiveBenchConfig;
    use crate::serve_bench::ServeBenchConfig;
    use crate::throughput::BenchConfig;
    use crate::tune::TuneArtifact;
    use cc_core::evaluation::{EvalConfig, Evaluation};
    use cc_grid::Resolution;
    use cc_model::Model;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    /// One freshly produced section per entry of [`SECTIONS`], in table
    /// order, at the smallest scale each harness accepts.
    fn fresh() -> &'static [(&'static str, Value)] {
        static FRESH: OnceLock<Vec<(&'static str, Value)>> = OnceLock::new();
        FRESH.get_or_init(|| {
            let throughput = crate::throughput::run(
                &BenchConfig {
                    npts: 2_048,
                    nlev: 1,
                    worker_counts: vec![1, 2],
                    reps: 1,
                    preset: "quick".into(),
                },
                &mut |_| {},
            );
            let serve = crate::serve_bench::run(
                &ServeBenchConfig {
                    worker_counts: vec![1, 2],
                    shards: 2,
                    client_counts: vec![2],
                    requests_per_client: 3,
                    pipeline_depth: 2,
                    npts: 512,
                    nlev: 1,
                },
                &mut |_| {},
            );
            let eval = Evaluation::new(Model::new(Resolution::reduced(2, 2), 13), EvalConfig::quick(9));
            let vars = vec![eval.model.var_id("U").expect("U is registered")];
            let eval = crate::evalbench::run(&eval, &vars, "quick");
            let tune = TuneArtifact { preset: "quick".into(), report: eval.report.clone() };
            let archive = crate::archive_bench::run(
                &ArchiveBenchConfig {
                    resolution: Resolution::reduced(2, 2),
                    seed: 7,
                    timesteps: 40,
                    interval: 0.02,
                    keyframe_every: 8,
                    fetches: 16,
                    variables: vec!["U".into()],
                    preset: "quick".into(),
                },
                &mut |_| {},
            );
            vec![
                ("throughput", throughput.to_value()),
                ("serve", serve.to_value()),
                ("tune", tune.to_value()),
                ("eval", eval.to_value()),
                ("archive", archive.to_value()),
            ]
        })
    }

    fn section(name: &str) -> Value {
        fresh().iter().find(|(n, _)| *n == name).expect("fresh section").1.clone()
    }

    /// A `cc-bench/1` document carrying exactly `sections`.
    fn doc(sections: &[(&str, Value)]) -> String {
        let mut members = vec![("schema".to_string(), Value::Str(SCHEMA.into()))];
        members.extend(sections.iter().map(|(n, v)| (n.to_string(), v.clone())));
        Value::Obj(members).to_json()
    }

    /// A damaging edit of one section.
    type Damage = fn(&Value) -> Value;

    fn emptied(section: &Value, key: &str) -> Value {
        let mut damaged = section.clone();
        damaged.set(key, Value::Arr(Vec::new()));
        damaged
    }

    /// Damaged copies of each section: the section, a fragment of the
    /// violation its validator must report, and the edit. A section may
    /// have several entries; every section has at least one.
    const DAMAGE: &[(&str, &str, Damage)] = &[
        ("throughput", "five benchmarked codecs", |s| emptied(s, "codecs")),
        ("throughput", "at least two counts", |s| {
            let mut damaged = s.clone();
            damaged.set("worker_counts", Value::Arr(vec![Value::Num(1.0)]));
            damaged
        }),
        ("throughput", "telemetry section missing", |s| {
            let text = s.to_json().replacen("\"telemetry\"", "\"telemetree\"", 1);
            json::parse(&text).expect("renamed telemetry")
        }),
        ("serve", "serve.runs", |s| emptied(s, "runs")),
        ("tune", "tune.variables", |s| emptied(s, "variables")),
        ("eval", "eval.stages", |s| emptied(s, "stages")),
        ("archive", "archive.variables", |s| emptied(s, "variables")),
    ];

    #[test]
    fn every_section_validates_alone_and_together_and_rejects_damage() {
        let fresh = fresh();
        let names: Vec<&str> = fresh.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, SECTIONS.iter().map(|s| s.name).collect::<Vec<_>>());
        validate(&doc(fresh)).expect("a full fresh document validates");
        for (name, value) in fresh {
            validate(&doc(&[(name, value.clone())]))
                .unwrap_or_else(|e| panic!("{name} alone must validate: {e:?}"));
            assert!(DAMAGE.iter().any(|(n, _, _)| n == name), "{name} has no damage entry");
        }
        for (name, expect, damage) in DAMAGE {
            let i = fresh.iter().position(|(n, _)| n == name).expect("damage names a section");
            let damaged = damage(&fresh[i].1);
            let errs = validate(&doc(&[(name, damaged.clone())]))
                .expect_err("a damaged section must be rejected");
            assert!(errs.iter().all(|e| e.starts_with(name)), "{name}: {errs:?}");
            assert!(errs.iter().any(|e| e.contains(expect)), "{name} ({expect}): {errs:?}");
            let mut full = fresh.to_vec();
            full[i].1 = damaged;
            let errs = validate(&doc(&full)).expect_err("damaged inside a full document");
            assert!(errs.iter().any(|e| e.contains(expect)), "{name} ({expect}): {errs:?}");
        }
    }

    #[test]
    fn document_level_violations_are_rejected() {
        let tune = section("tune");
        let good = doc(&[("tune", tune.clone())]);
        validate(&good).expect("tune-only document");

        let errs = validate(&doc(&[("tune", tune), ("kodecs", Value::Arr(Vec::new()))]))
            .expect_err("unknown key");
        assert!(errs.iter().any(|e| e.contains("kodecs")), "{errs:?}");
        let errs = validate(&doc(&[])).expect_err("no sections");
        assert!(errs.iter().any(|e| e.contains("no section")), "{errs:?}");
        // The retired version stack, `/1` through `/8`.
        for n in 1..=8 {
            let old = good.replace(SCHEMA, &format!("cc-bench-{}/{n}", "throughput"));
            assert!(validate(&old).is_err(), "old schema /{n} must be rejected");
        }
        assert!(validate(&good.replace("\"schema\"", "\"skema\"")).is_err());
        assert!(validate("{not json").is_err());
        assert!(validate("[]").is_err());
    }

    fn scratch_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("cc-bench-artifact-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("BENCH.json");
        let _ = std::fs::remove_file(&path);
        path
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).expect("document written")
    }

    /// The document text up to (not including) its closing brace, which
    /// must be a byte prefix of the document after a new section lands.
    fn open_prefix(text: &str) -> &str {
        text.trim_end().strip_suffix('}').expect("object").trim_end()
    }

    #[test]
    fn throughput_upsert_keeps_the_tune_section() {
        let path = scratch_file("tune-survives");
        let tune = section("tune");
        upsert_section(&path, "tune", tune.clone()).expect("creates the missing file");
        let tune_only = read(&path);
        upsert_section(&path, "throughput", section("throughput")).expect("adds throughput");
        upsert_section(&path, "throughput", section("throughput")).expect("replaces throughput");
        let both = read(&path);
        assert!(both.starts_with(open_prefix(&tune_only)), "tune section rewritten");
        let parsed = json::parse(&both).expect("valid JSON");
        assert_eq!(parsed.get("tune"), Some(&tune));
        validate(&both).expect("merged document validates");
        let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
    }

    #[test]
    fn upserts_in_any_order_leave_earlier_sections_byte_identical() {
        let path = scratch_file("any-order");
        for (name, value) in fresh().iter().rev() {
            let before = std::fs::read_to_string(&path).ok();
            upsert_section(&path, name, value.clone()).expect("upsert");
            let after = read(&path);
            validate(&after).expect("every intermediate document validates");
            if let Some(before) = before {
                assert!(after.starts_with(open_prefix(&before)), "{name} rewrote a section");
            }
        }
        // Replacing a section in the middle and restoring it round-trips
        // the file byte for byte.
        let full = read(&path);
        let mut tune = section("tune");
        tune.set("preset", Value::Str("default".into()));
        upsert_section(&path, "tune", tune).expect("replace tune");
        assert_ne!(read(&path), full);
        upsert_section(&path, "tune", section("tune")).expect("restore tune");
        assert_eq!(read(&path), full);

        // A file under another schema, or not JSON at all, is left alone.
        for stale in [full.replace(SCHEMA, "cc-bench/0"), "{not json".to_string()] {
            std::fs::write(&path, &stale).expect("write stale file");
            assert!(upsert_section(&path, "tune", section("tune")).is_err());
            assert_eq!(read(&path), stale);
        }
        let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
    }

    /// Minimal documents each compare rule accepts.
    fn rates(encode: f64, decode: f64) -> (&'static str, Value) {
        let text = format!(
            "{{\"codecs\": [{{\"name\": \"fpzip-24\", \
             \"encode\": [{{\"workers\": 1, \"mb_per_s\": {encode}}}], \
             \"decode\": [{{\"workers\": 1, \"mb_per_s\": {decode}}}]}}]}}"
        );
        ("throughput", json::parse(&text).expect("throughput"))
    }

    fn eval_rates(synth: f64, verdicts: f64) -> (&'static str, Value) {
        let text = format!("{{\"synth_members_per_s\": {synth}, \"verdicts_per_s\": {verdicts}}}");
        ("eval", json::parse(&text).expect("eval"))
    }

    fn archive(cr: f64, p99: f64) -> (&'static str, Value) {
        let text = format!(
            "{{\"variables\": [{{\"name\": \"U\", \"archive_cr\": {cr}, \"slice_p99_us\": {p99}}}]}}"
        );
        ("archive", json::parse(&text).expect("archive"))
    }

    fn passes(cur: &[(&str, Value)], base: &[(&str, Value)], tolerance: f64) -> Vec<bool> {
        compare(&doc(cur), &doc(base), tolerance)
            .expect("comparable")
            .iter()
            .map(|r| r.pass)
            .collect()
    }

    #[test]
    fn compare_gates_each_section_by_its_rule() {
        let base = [rates(100.0, 200.0)];
        // Identical documents pass, down to zero tolerance.
        let rows = compare(&doc(&base), &doc(&base), 0.0).expect("comparable");
        assert_eq!(rows.len(), 2);
        let (text, fails) = render_compare(&rows, 0.0);
        assert_eq!(fails, 0);
        assert!(text.contains("fpzip-24 encode MB/s") && text.contains("ok"));
        let full = doc(fresh());
        let rows = compare(&full, &full, 0.0).expect("full documents compare");
        assert!(rows.iter().all(|r| r.pass));
        let gated: Vec<&str> = rows.iter().map(|r| r.section).collect();
        assert!(!gated.contains(&"serve") && !gated.contains(&"tune"), "{gated:?}");

        // 12% slower encode fails a 10% tolerance but passes 15%.
        let slower = [rates(88.0, 200.0)];
        assert_eq!(passes(&slower, &base, 0.1), [false, true]);
        let (text, fails) = render_compare(&compare(&doc(&slower), &doc(&base), 0.1).unwrap(), 0.1);
        assert_eq!(fails, 1);
        assert!(text.contains("REGRESSED"));
        assert_eq!(passes(&slower, &base, 0.15), [true, true]);
        // A decode-only regression fails; faster always passes.
        assert_eq!(passes(&[rates(100.0, 150.0)], &base, 0.1), [true, false]);
        assert_eq!(passes(&[rates(300.0, 400.0)], &base, 0.0), [true, true]);

        // Eval rates are higher-is-better: a baseline at 10x fails both.
        let eval_base = [eval_rates(500.0, 40.0)];
        assert_eq!(passes(&[eval_rates(50.0, 4.0)], &eval_base, 0.25), [false, false]);
        assert_eq!(passes(&eval_base, &eval_base, 0.0), [true, true]);

        // Archive metrics are lower-is-better, at the mirror-image
        // tolerance: 10% larger CR fails 5% and passes 15%; 2x p99 fails
        // 25%; shrinking always passes.
        let arch_base = [archive(0.20, 1000.0)];
        assert_eq!(passes(&[archive(0.22, 1000.0)], &arch_base, 0.05), [false, true]);
        assert_eq!(passes(&[archive(0.22, 1000.0)], &arch_base, 0.15), [true, true]);
        assert_eq!(passes(&[archive(0.20, 2000.0)], &arch_base, 0.25), [true, false]);
        assert_eq!(passes(&[archive(0.01, 1.0)], &arch_base, 0.0), [true, true]);
    }

    #[test]
    fn compare_skips_one_sided_sections_and_errors_on_garbage() {
        let base = [rates(100.0, 200.0)];
        // Sections present on one side only are skipped.
        let rows = compare(&doc(&[rates(100.0, 200.0), eval_rates(1.0, 1.0)]), &doc(&base), 0.1)
            .expect("comparable");
        assert!(rows.iter().all(|r| r.section == "throughput"));
        let rows = compare(&doc(&base), &doc(&[rates(100.0, 200.0), archive(0.2, 1.0)]), 0.1)
            .expect("comparable");
        assert!(rows.iter().all(|r| r.section == "throughput"));
        // Sharing only ungated sections gates nothing, which is an error.
        let tune = [("tune", section("tune"))];
        assert!(compare(&doc(&tune), &doc(&tune), 0.1).is_err(), "nothing gated");
        let serve_tune = [("serve", section("serve")), ("tune", section("tune"))];
        assert!(compare(&doc(&serve_tune), &doc(&serve_tune), 0.1).is_err(), "nothing gated");

        // Garbage and disjoint documents error instead of passing.
        assert!(compare("{", &doc(&base), 0.1).is_err());
        assert!(compare(&doc(&base), "{", 0.1).is_err());
        let no_codecs = ("throughput", json::parse("{\"codecs\": []}").unwrap());
        assert!(compare(&doc(&base), &doc(&[no_codecs]), 0.1).is_err());
        let other = ("throughput", json::parse("{\"codecs\": [{\"name\": \"other\"}]}").unwrap());
        assert!(compare(&doc(&base), &doc(&[other]), 0.1).is_err(), "rate missing");
        let mut renamed = rates(1.0, 1.0);
        renamed.1 = json::parse(&renamed.1.to_json().replace("fpzip-24", "GRIB2")).unwrap();
        assert!(compare(&doc(&base), &doc(&[renamed]), 0.1).is_err(), "disjoint codec sets");
        assert!(compare(&doc(&base), &doc(&tune), 0.1).is_err(), "no shared section");
    }
}
