//! `ccbench compare BASE.json NEW.json`: judge two sets of `ccbench run`
//! results against the bounds `BENCHMARK.json` fixes.
//!
//! Per (workload, end-to-end metric) it reports each side's median and
//! quartiles. A metric regresses when the new median is worse than the
//! base median by more than the metric's bound; it is `unresolved` when
//! either side's own spread (interquartile range over median) exceeds the
//! bound, unless every new run reads better than every base run.

use cc_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Runs each side needs for quartiles worth comparing.
pub const MIN_RUNS: usize = 5;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Read the `end_to_end` declarations of a `BENCHMARK.json` document.
pub fn declared(text: &str) -> Result<Vec<Declared>, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok(Declared {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// Untraced metric values of a results file, by (workload, metric).
pub fn samples(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let doc = json::parse(text).map_err(|e| format!("results: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("results: no runs array")?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in runs {
        if r.get("traced").is_some() {
            continue;
        }
        let workload = r
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let result = r.get("result").ok_or("run without result")?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("results hold an incorrect {workload} run"));
        }
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err("run without metrics".into());
        };
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method); needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let (ld, n) = (d.len() as i64, 4i64);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        out[slot] = (d[j as usize - 1] * (n as f64 - delta) + d[j as usize] * delta) / n as f64;
    }
    out
}

/// Verdict for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One compared (workload, metric) row.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: [f64; 3],
    pub new: [f64; 3],
    pub change: f64,
    pub verdict: Verdict,
}

/// Compare two sides metric by metric.
pub fn compare(base: &str, new: &str, decl: &[Declared]) -> Result<Vec<Row>, String> {
    let (b, n) = (samples(base)?, samples(new)?);
    let mut rows = Vec::new();
    for ((workload, metric), bv) in &b {
        let Some(d) = decl.iter().find(|d| &d.name == metric) else {
            continue;
        };
        let nv = n
            .get(&(workload.clone(), metric.clone()))
            .ok_or(format!("NEW lacks {workload}/{metric}"))?;
        if bv.len() < MIN_RUNS || nv.len() < MIN_RUNS {
            return Err(format!(
                "{workload}/{metric}: {} base and {} new runs; need {MIN_RUNS} per side",
                bv.len(),
                nv.len()
            ));
        }
        let (bq, nq) = (quartiles(bv), quartiles(nv));
        // Positive `worse` is the relative change in the bad direction.
        let sign = if d.lower_is_better { 1.0 } else { -1.0 };
        let worse = sign * (nq[1] - bq[1]) / bq[1].abs().max(1e-12);
        let spread = |q: &[f64; 3]| (q[2] - q[0]) / q[1].abs().max(1e-12);
        let all_better = nv.iter().all(|&x| bv.iter().all(|&y| sign * (x - y) < 0.0));
        let verdict = if (spread(&bq) > d.bound || spread(&nq) > d.bound) && !all_better {
            Verdict::Unresolved
        } else if worse > d.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            base: bq,
            new: nq,
            change: sign * worse,
            verdict,
        });
    }
    Ok(rows)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (mut files, mut bench) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [base, new] = files.as_slice() else {
        return Err("compare needs BASE.json NEW.json".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let decl = declared(&read(&bench)?)?;
    let rows = compare(&read(base)?, &read(new)?, &decl)?;
    println!(
        "{:<11} {:<16} {:>31} {:>31} {:>8}  verdict",
        "workload", "metric", "base q1 / median / q3", "new q1 / median / q3", "change"
    );
    let fmt = |q: &[f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
    for r in &rows {
        println!(
            "{:<11} {:<16} {:>31} {:>31} {:>+7.2}%  {:?}",
            r.workload,
            r.metric,
            fmt(&r.base),
            fmt(&r.new),
            100.0 * r.change,
            r.verdict
        );
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} compared, {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
    }

    fn results(values: &[f64]) -> String {
        let runs: Vec<String> = values
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"fetch\", \"seed\": 1, \"result\": {{\"correct\": true, \
                     \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"p50_ms\": \
                     {{\"value\": {v}, \"unit\": \"ms\"}}}}}}}}"
                )
            })
            .collect();
        format!("{{\"runs\": [{}]}}", runs.join(","))
    }

    #[test]
    fn flags_regressions_and_unresolved_spreads() {
        let decl = vec![Declared {
            name: "p50_ms".into(),
            lower_is_better: true,
            bound: 0.10,
        }];
        let base = results(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        let same = compare(&base, &base, &decl).unwrap();
        assert_eq!(same[0].verdict, Verdict::Ok);
        let slower = results(&[12.0, 12.1, 11.9, 12.0, 12.05]);
        assert_eq!(
            compare(&base, &slower, &decl).unwrap()[0].verdict,
            Verdict::Regressed
        );
        let faster = results(&[8.0, 8.1, 7.9, 8.0, 8.05]);
        assert_eq!(
            compare(&base, &faster, &decl).unwrap()[0].verdict,
            Verdict::Ok
        );
        let noisy = results(&[5.0, 10.0, 15.0, 10.0, 20.0]);
        assert_eq!(
            compare(&base, &noisy, &decl).unwrap()[0].verdict,
            Verdict::Unresolved
        );
        let few = results(&[10.0, 10.0]);
        assert!(compare(&few, &few, &decl).is_err());
    }
}
