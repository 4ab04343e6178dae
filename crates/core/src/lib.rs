//! The paper's primary contribution: a verification methodology deciding
//! whether lossily-compressed climate data is statistically
//! indistinguishable from the original.
//!
//! * [`evaluation`] — builds per-variable ensemble contexts and scores any
//!   codec variant with the four acceptance tests (Pearson ρ, RMSZ
//!   ensemble, E_nmax ensemble, bias regression) of Section 4.
//! * [`tuning`] — the one per-variable selection loop: score a candidate
//!   list once, then pick by the Section-5.4 ladder rule (the hybrids and
//!   the RMSZ-ensemble-guided GRIB2 decimal-scale search) or by min CR
//!   (the generalized (family × parameter) auto-tuner).
//! * [`hybrid`] — the Section-5.4 per-variable customization: each method
//!   family's ladder pick per variable (Tables 7 and 8).
//! * [`report`] — text/CSV rendering of every table and figure.
//! * [`cli`] — the flag dialect shared by the `ccc` and `repro`
//!   binaries (`--flag value` parsing, `--workers`, the `--trace` /
//!   `--metrics` / `--quiet` observability bracket).
//!
//! ```no_run
//! use cc_core::evaluation::{EvalConfig, Evaluation, verdict_for};
//! use cc_model::Model;
//! use cc_grid::Resolution;
//! use cc_codecs::Variant;
//!
//! let model = Model::new(Resolution::default(), 42);
//! let eval = Evaluation::new(model, EvalConfig::default());
//! let ctx = eval.context(eval.model.var_id("U").unwrap());
//! let verdict = verdict_for(&ctx, Variant::Fpzip { bits: 24 });
//! println!("fpzip-24 on U: all tests pass = {}", verdict.all_pass());
//! ```

pub mod calibration;
pub mod cli;
pub mod evaluation;
pub mod hybrid;
pub mod report;
pub mod timeseries;
pub mod tuning;
pub mod visual;

pub use evaluation::{
    verdict_for, verdicts_for, EvalConfig, Evaluation, MemberOutcome, TestTally,
    VariableContext, VariableVerdict,
};
pub use hybrid::{hybrid_methods, HybridResult};
pub use tuning::{candidate_space, tune_variable, TuneReport, TunedVariable};
