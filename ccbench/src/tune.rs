//! `tune`: the paper's methodology end to end. Each op builds a fresh
//! model and `Evaluation` at the default preset and runs the generalized
//! tuner over the four focus variables through `map_contexts`, so model
//! synthesis, the evaluation engine, the PVT battery and codec encode do
//! the work while serve and archive stay idle.

use crate::harness::{ms, Counts, Phase, Workload};
use cc_core::evaluation::{EvalConfig, Evaluation};
use cc_core::tuning::{tune_variable, TuneReport};
use cc_grid::Resolution;
use cc_model::Model;
use std::time::Instant;

/// Workload scale; the default is the `repro` default preset.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub resolution: Resolution,
    pub members: usize,
    pub min_ops: usize,
}

impl Scale {
    pub fn default_scale() -> Scale {
        let cfg = cc_bench::RunConfig::default();
        Scale {
            resolution: cfg.resolution,
            members: cfg.members,
            min_ops: 3,
        }
    }
}

/// Sweep workers: the parallel verification schedule fans each candidate
/// batch out over both vCPUs of the bench machine, as users run it.
const WORKERS: usize = 2;

pub struct Tune {
    seed: u64,
    scale: Scale,
    /// The warm-up sweep's rendered table + CSV; every op must match it.
    reference: String,
    counts: Counts,
    stored_ratio: f64,
}

/// One sweep: a fresh model and evaluation, then the tuner over the focus
/// variables. Returns the report and each `tune_variable` call's ms.
fn sweep(seed: u64, scale: Scale) -> Result<(TuneReport, Vec<f64>), String> {
    let model = {
        let _s = cc_obs::span("bench.model.new");
        Model::new(scale.resolution, seed)
    };
    let eval = Evaluation::new(
        model,
        EvalConfig {
            members: scale.members,
            samples: 3,
            workers: WORKERS,
        },
    );
    let vars = cc_bench::FOCUS
        .iter()
        .map(|n| {
            eval.model
                .var_id(n)
                .ok_or(format!("registry lacks focus variable {n}"))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let mut call_ms = Vec::with_capacity(vars.len());
    let variables = eval.map_contexts(&vars, |ctx| {
        let _s = cc_obs::span("bench.eval.tune_variable");
        let t0 = Instant::now();
        let tuned = tune_variable(ctx);
        call_ms.push(ms(t0.elapsed()));
        tuned
    });
    Ok((TuneReport { variables }, call_ms))
}

fn render(report: &TuneReport) -> String {
    let table = report.table();
    format!("{}\n{}", table.render(), table.to_csv())
}

/// The tuner's own invariants: every pick passes all four tests and is
/// never worse than the hand-picked hybrid.
fn check(report: &TuneReport) -> Result<(), String> {
    if !report.all_pass() {
        return Err("tune: a chosen configuration fails one of the four tests".into());
    }
    if !report.never_worse_than_hybrid() {
        return Err("tune: a tuned CR is worse than the hand-picked hybrid's".into());
    }
    Ok(())
}

impl Tune {
    /// Setup is the untimed warm-up sweep, whose report is the reference.
    /// It runs with metric recording on so the codec byte counters give
    /// the stored ratio over every candidate encode the tuner makes (the
    /// chosen configurations' own CR jumps whenever a seed moves a pick
    /// across a test threshold).
    pub fn setup(seed: u64, scale: Scale) -> Result<Tune, String> {
        cc_obs::set_metrics_enabled(true);
        let before = cc_obs::metrics_snapshot();
        let swept = sweep(seed, scale);
        let encoded = cc_obs::metrics_snapshot().delta(&before);
        cc_obs::set_metrics_enabled(false);
        let (report, _) = swept?;
        check(&report)?;
        let (mut bytes_in, mut bytes_out) = (0u64, 0u64);
        for (name, n) in &encoded.counters {
            if name.starts_with("codec.") && name.ends_with(".encode.bytes_in") {
                bytes_in += n;
            } else if name.starts_with("codec.") && name.ends_with(".encode.bytes_out") {
                bytes_out += n;
            }
        }
        let counts = Counts {
            verdicts: report.variables.iter().map(|v| v.candidates as u64).sum(),
            passing: report.variables.iter().map(|v| v.passing as u64).sum(),
            ..Counts::default()
        };
        Ok(Tune {
            seed,
            scale,
            reference: render(&report),
            counts,
            stored_ratio: bytes_out as f64 / bytes_in.max(1) as f64,
        })
    }
}

impl Workload for Tune {
    fn run(&mut self, seconds: f64) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let t0 = Instant::now();
        let mut last_end = t0;
        while phase.attempted < self.scale.min_ops as u64 || t0.elapsed().as_secs_f64() < seconds {
            let start = Instant::now();
            phase.late_ms.push(ms(start - last_end));
            let (report, call_ms) = {
                let _op = cc_obs::span(crate::layers::OP_SPAN);
                sweep(self.seed, self.scale)?
            };
            last_end = Instant::now();
            phase.lat_ms.push(ms(last_end - start));
            phase.inproc_ms.extend(call_ms);
            phase.count(true);
            let _c = cc_obs::span("bench.check");
            check(&report)?;
            if render(&report) != self.reference {
                return Err("tune: the report differs from the warm-up sweep's".into());
            }
        }
        Ok(phase)
    }

    fn stored_ratio(&self) -> f64 {
        self.stored_ratio
    }

    fn counts(&self) -> Counts {
        self.counts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_that_differs_from_the_warm_up_fails_the_check() {
        let _serial = crate::tests::serial();
        let mut t = Tune::setup(3, crate::tests::tiny().tune).expect("setup");
        t.reference.push(' ');
        let err = t.run(0.0).expect_err("a differing report must fail");
        assert!(err.contains("differs from the warm-up"), "{err}");
    }
}
