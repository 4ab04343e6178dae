//! Determinism pins for the parallel verification engine.
//!
//! The engine's correctness contract (ROADMAP item 5): verdicts, tune
//! reports, and their rendered tables are byte-identical at workers
//! {1, 2, 8}, and the batched/pipelined drivers (`verdicts_for`,
//! `score_vars`, `TuneReport::build`) match a plain sequential
//! reference exactly. Comparisons go through `Debug` formatting, which
//! prints every `f64` exactly (17 significant digits round-trip), so any
//! reordered accumulation shows up as a failure.

use cc_core::evaluation::{verdict_for, verdicts_for, EvalConfig, Evaluation};
use cc_core::tuning::{candidate_space, report_set, score_vars, TuneReport};
use cc_grid::Resolution;
use cc_model::Model;

fn eval_with_workers(workers: usize) -> Evaluation {
    let model = Model::new(Resolution::reduced(2, 2), 13);
    let mut config = EvalConfig::quick(9);
    config.workers = workers;
    Evaluation::new(model, config)
}

#[test]
fn batched_candidate_sweep_matches_one_at_a_time_at_workers_1_2_8() {
    // Reference: each candidate scored alone, sequentially (workers = 1
    // runs the flattened schedule as a plain in-order loop).
    let reference: Vec<String> = {
        let ev = eval_with_workers(1);
        let ctx = ev.context(ev.model.var_id("FSDSC").unwrap());
        candidate_space(&ctx)
            .into_iter()
            .map(|v| format!("{:?}", verdict_for(&ctx, v)))
            .collect()
    };
    assert!(reference.len() >= 20, "candidate space too small");
    for workers in [1, 2, 8] {
        let ev = eval_with_workers(workers);
        let ctx = ev.context(ev.model.var_id("FSDSC").unwrap());
        let cands = candidate_space(&ctx);
        let got: Vec<String> =
            verdicts_for(&ctx, &cands).iter().map(|v| format!("{v:?}")).collect();
        assert_eq!(got, reference, "batched sweep diverged at workers={workers}");
    }
}

#[test]
fn pipelined_report_set_sweep_matches_sequential_loop_at_workers_1_2_8() {
    // Sequential reference: build each context in a plain loop, no
    // prefetch, and score it against the report set.
    let reference: Vec<String> = {
        let ev = eval_with_workers(1);
        (0..ev.model.registry().len())
            .map(|v| format!("{:?}", verdicts_for(&ev.context(v), &report_set())))
            .collect()
    };
    for workers in [1, 2, 8] {
        let ev = eval_with_workers(workers);
        let vars: Vec<usize> = (0..ev.model.registry().len()).collect();
        let got: Vec<String> = score_vars(&ev, &vars, |_| false)
            .iter()
            .map(|s| format!("{:?}", s.verdicts()))
            .collect();
        assert_eq!(got, reference, "score_vars diverged at workers={workers}");
    }
}

#[test]
fn tune_report_identical_at_workers_1_2_8() {
    let build = |workers: usize| -> String {
        let ev = eval_with_workers(workers);
        let vars =
            vec![ev.model.var_id("U").unwrap(), ev.model.var_id("FSDSC").unwrap()];
        let report = TuneReport::build(&ev, &vars);
        format!(
            "{}\n{}\n{:?}",
            report.table().render(),
            report.table().to_csv(),
            report.variables
        )
    };
    let one = build(1);
    assert_eq!(one, build(2), "tune report diverged at workers=2");
    assert_eq!(one, build(8), "tune report diverged at workers=8");
}
