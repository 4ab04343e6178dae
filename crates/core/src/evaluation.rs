//! The verification pipeline: Section 4's metrics and Section 4.3's four
//! acceptance tests, applied per variable per compression configuration.
//!
//! For each variable the pipeline builds a [`VariableContext`] — the
//! member fields, the leave-one-out ensemble statistics, the 101-score RMSZ
//! and E_nmax distributions — once, then scores any number of codec
//! variants against it. A variant's [`VariableVerdict`] records the four
//! pass/fail outcomes the paper tallies in Table 6:
//!
//! 1. **ρ** — Pearson correlation ≥ 0.99999 on the sampled members;
//! 2. **RMSZ ens.** — reconstruction in-distribution and within 1/10 of the
//!    original score (eq. 8);
//! 3. **E_nmax ens.** — normalized max pointwise error at most 1/10 of the
//!    ensemble's pairwise-difference range (eq. 11);
//! 4. **bias** — 95%-confidence worst-case regression slope within 0.05 of
//!    1 over the full reconstructed ensemble (eq. 9).

use cc_codecs::chunked::{compress_chunked, decompress_chunked};
use cc_codecs::{Layout, Variant};
use cc_metrics::{ErrorMetrics, PEARSON_THRESHOLD};
use cc_model::{Model, VariableSpec};
use cc_par::par_map_with;
use cc_pvt::{
    enmax_test, rmsz_test, BiasRegression, EnmaxOutcome, EnsembleStats, RmszOutcome,
    ScoreDistribution,
};

/// Evaluation configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Ensemble size (101 in the paper; smaller for quick runs).
    pub members: usize,
    /// How many members are sampled for the per-member tests ("generally
    /// three is sufficient").
    pub samples: usize,
    /// Worker threads for the per-variable sweep (member synthesis and
    /// full-ensemble reconstruction). Codec calls made *inside* those
    /// sweeps always run the chunked path at workers = 1 — the nested
    /// pool contexts must not oversubscribe on top of the sweep.
    pub workers: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            members: cc_model::ENSEMBLE_SIZE,
            samples: 3,
            workers: cc_par::default_workers(),
        }
    }
}

impl EvalConfig {
    /// A reduced configuration for tests and smoke runs.
    pub fn quick(members: usize) -> Self {
        EvalConfig { members, samples: 3, workers: cc_par::default_workers() }
    }

    /// Deterministically pick the sampled member indices (the paper picks
    /// three at random; we derive them from the model seed).
    pub fn sample_indices(&self, seed: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.samples);
        let mut h = seed ^ 0x5A4D;
        let mut k = 0usize;
        while out.len() < self.samples.min(self.members) {
            h = cc_model::rng::mix64(h.wrapping_add(k as u64));
            let idx = (h % self.members as u64) as usize;
            if !out.contains(&idx) {
                out.push(idx);
            }
            k += 1;
        }
        out
    }
}

/// Everything the four tests need about one variable, built once.
pub struct VariableContext {
    /// Registry index.
    pub var: usize,
    /// Variable spec.
    pub spec: VariableSpec,
    /// Codec layout for this variable's fields.
    pub layout: Layout,
    /// All member fields (original data).
    pub fields: Vec<Vec<f32>>,
    /// Leave-one-out ensemble statistics over `fields`.
    pub stats: EnsembleStats,
    /// RMSZ score of each original member against its sub-ensemble.
    pub rmsz_orig: ScoreDistribution,
    /// E_nmax of each member against its sub-ensemble (eq. 10).
    pub enmax_dist: ScoreDistribution,
    /// Indices of the sampled members.
    pub sample_idx: Vec<usize>,
    /// Worker threads for codec calls made at context top level.
    pub workers: usize,
}

impl VariableContext {
    /// Build the context for `var`: synthesize every member's field and
    /// derive the ensemble distributions.
    pub fn build(model: &Model, config: &EvalConfig, var: usize) -> Self {
        let _s = cc_obs::span("eval.context");
        let spec = model.registry()[var].clone();
        let nlev = model.var_nlev(var);
        let layout = Layout::for_grid(model.grid(), nlev);
        let npts = layout.len();

        let members: Vec<usize> = (0..config.members).collect();
        // One synthesis plan serves the whole ensemble: the mixing
        // matrix, climatological pattern, and land mask are
        // member-independent (and `model.member` caches the dynamics, so
        // sweeping several variables integrates each member once).
        let plan = model.synth_plan(var);
        let fields: Vec<Vec<f32>> = par_map_with(config.workers, &members, |&m| {
            let _m = cc_obs::span("eval.member_synth");
            let member = model.member(m);
            let mut scratch = cc_model::synth::SynthScratch::new();
            model.synthesize_with(&plan, &member, &mut scratch).data
        });

        let mut stats = EnsembleStats::new(npts);
        for f in &fields {
            stats.add_member(f);
        }
        let rmsz: Vec<f64> = fields
            .iter()
            .map(|f| stats.rmsz_excluding(f, f).unwrap_or(0.0))
            .collect();
        let enmax: Vec<f64> = fields
            .iter()
            .map(|f| stats.enmax_excluding(f).unwrap_or(0.0))
            .collect();

        VariableContext {
            var,
            spec,
            layout,
            fields,
            stats,
            rmsz_orig: ScoreDistribution::new(rmsz),
            enmax_dist: ScoreDistribution::new(enmax),
            sample_idx: config.sample_indices(model.seed()),
            workers: config.workers,
        }
    }

    /// Uncompressed bytes of one member's field.
    pub fn raw_bytes(&self) -> usize {
        self.layout.len() * 4
    }
}

/// One sampled member's outcome under one codec variant: what the codec
/// produced and what each per-member test measured.
#[derive(Debug, Clone)]
pub struct MemberOutcome {
    /// Member index into the context's fields.
    pub member: usize,
    /// Compressed size in bytes (counted towards CR even when the decode
    /// fails).
    pub nbytes: usize,
    /// False when the codec failed to decode its own stream.
    pub decoded: bool,
    /// Error metrics (`None` for a degenerate field or a failed decode).
    pub metrics: Option<ErrorMetrics>,
    /// The RMSZ ensemble test (`None` without metrics).
    pub rmsz: Option<RmszOutcome>,
    /// The E_nmax ensemble test (`None` without metrics).
    pub enmax: Option<EnmaxOutcome>,
}

impl MemberOutcome {
    /// One per-member test on this member: a member that failed to decode
    /// fails it, and a decoded member without `outcome` (a degenerate
    /// field has no metrics) passes it vacuously.
    fn passes<T>(&self, outcome: Option<T>, pass: impl FnOnce(T) -> bool) -> bool {
        self.decoded && outcome.is_none_or(pass)
    }
}

/// One variable's verdict under one codec variant: each sampled member's
/// outcome plus the bias test over the full reconstructed ensemble. Every
/// report reads the four tests and the aggregate metrics from it.
#[derive(Debug, Clone)]
pub struct VariableVerdict {
    /// Registry index.
    pub var: usize,
    /// Variable name.
    pub name: String,
    /// Variant evaluated.
    pub variant: Variant,
    /// Compression ratio (compressed / original), averaged over samples.
    pub cr: f64,
    /// Each sampled member's outcome, in the context's `sample_idx` order.
    pub members: Vec<MemberOutcome>,
    /// The fitted bias regression (for Figure 4).
    pub bias: Option<BiasRegression>,
    /// Test 4's outcome. Stored, because a member outside the sample that
    /// fails to decode in the bias phase fails this test alone.
    bias_pass: bool,
}

impl VariableVerdict {
    /// Test 1: Pearson ρ ≥ 0.99999 on every sampled member (an exact
    /// reconstruction passes whatever its ρ).
    pub fn pearson_pass(&self) -> bool {
        self.members.iter().all(|m| {
            m.passes(m.metrics, |e| e.pearson >= PEARSON_THRESHOLD || e.is_exact())
        })
    }

    /// Test 2: RMSZ ensemble test on every sampled member.
    pub fn rmsz_pass(&self) -> bool {
        self.members.iter().all(|m| m.passes(m.rmsz, |o| o.passed()))
    }

    /// Test 3: E_nmax ensemble test on every sampled member.
    pub fn enmax_pass(&self) -> bool {
        self.members.iter().all(|m| m.passes(m.enmax, |o| o.passed()))
    }

    /// Test 4: bias regression over the full reconstructed ensemble.
    pub fn bias_pass(&self) -> bool {
        self.bias_pass
    }

    /// Pass on all four tests (the "all" column of Table 6).
    pub fn all_pass(&self) -> bool {
        self.pearson_pass() && self.rmsz_pass() && self.enmax_pass() && self.bias_pass()
    }

    /// Aggregate error metrics over the sampled members (`None` when no
    /// member has any). This is a *conservative* aggregate, not a plain
    /// mean: `e_max`, `e_nmax`, `rmse`, and `nrmse` are averaged, but
    /// `psnr` and `pearson` are the worst case (minimum) over the samples,
    /// so the verdict never reports better fidelity than its worst sampled
    /// member.
    pub fn metrics(&self) -> Option<ErrorMetrics> {
        let ms: Vec<ErrorMetrics> = self.members.iter().filter_map(|m| m.metrics).collect();
        if ms.is_empty() {
            return None;
        }
        let n = ms.len() as f64;
        // Unlike `f64::min`, a NaN (a member that fails ρ) wins.
        let worst = |a: f64, b: f64| if b.is_nan() || b < a { b } else { a };
        Some(ErrorMetrics {
            e_max: ms.iter().map(|m| m.e_max).sum::<f64>() / n,
            e_nmax: ms.iter().map(|m| m.e_nmax).sum::<f64>() / n,
            rmse: ms.iter().map(|m| m.rmse).sum::<f64>() / n,
            nrmse: ms.iter().map(|m| m.nrmse).sum::<f64>() / n,
            psnr: ms.iter().map(|m| m.psnr).fold(f64::INFINITY, worst),
            pearson: ms.iter().map(|m| m.pearson).fold(f64::INFINITY, worst),
            count: ms[0].count,
        })
    }
}

/// Compress/decompress one sampled member and run the per-member tests.
/// The reconstruction comes back too when `keep_recon` asks for it (lossy
/// candidates), so the bias phase does not recompress the sampled members.
fn score_sample(
    ctx: &VariableContext,
    codec: &dyn cc_codecs::Codec,
    m: usize,
    keep_recon: bool,
) -> (MemberOutcome, Option<Vec<f32>>) {
    let _sample = cc_obs::span("eval.sample");
    let orig = &ctx.fields[m];
    let bytes = compress_chunked(codec, orig, ctx.layout, ctx.workers);
    let mut out = MemberOutcome {
        member: m,
        nbytes: bytes.len(),
        decoded: false,
        metrics: None,
        rmsz: None,
        enmax: None,
    };
    let Ok(recon) = decompress_chunked(codec, &bytes, ctx.layout, ctx.workers) else {
        // A codec that cannot decode its own stream is a codec bug;
        // surface it as a failed verdict, not a worker panic.
        cc_obs::counter_inc("eval.self_decode_fail");
        return (out, None);
    };
    out.decoded = true;
    if let Some(em) = ErrorMetrics::compare(orig, &recon) {
        {
            let _t = cc_obs::span("eval.test.rmsz");
            // The member's original score was computed identically at
            // context build time; reuse it instead of re-deriving.
            let zo = ctx.rmsz_orig.scores()[m];
            let zr = ctx.stats.rmsz_excluding(orig, &recon).unwrap_or(zo);
            out.rmsz = Some(rmsz_test(&ctx.rmsz_orig, zo, zr));
        }
        {
            let _t = cc_obs::span("eval.test.enmax");
            out.enmax = Some(enmax_test(&ctx.enmax_dist, em.e_nmax));
        }
        out.metrics = Some(em);
    }
    (out, keep_recon.then_some(recon))
}

/// How one member's reconstruction reached the bias phase.
enum ReconSlot {
    /// Sampled member: phase 1 already holds its reconstruction.
    Reused,
    /// Reconstructed here.
    Fresh(Vec<f32>),
    /// The codec failed to decode its own stream.
    Failed,
}

/// Bias regression over the full reconstructed ensemble (Section 4.3's
/// procedure for Figure 4): reconstruct every member, build the
/// reconstructed-ensemble stats Ẽ, score each reconstruction against Ẽ,
/// and regress on the original scores.
fn bias_for(
    ctx: &VariableContext,
    variant: Variant,
    sample_recons: Vec<(usize, Vec<f32>)>,
    x: &[f64],
    spread: f64,
) -> (Option<BiasRegression>, bool) {
    let _t = cc_obs::span("eval.test.bias");
    let codec = variant.codec();
    let layout = ctx.layout;
    let mut slots: Vec<Option<Vec<f32>>> = (0..ctx.fields.len()).map(|_| None).collect();
    for (m, r) in sample_recons {
        slots[m] = Some(r);
    }
    let members: Vec<usize> = (0..ctx.fields.len()).collect();
    // Parallel over members; the inner chunked calls pass workers = 1 so
    // the per-member fan-out is not multiplied by a per-block one. The
    // sampled members reuse their phase-1 reconstruction — the chunked
    // stream is worker-count invariant, so the bytes (and the decode)
    // are identical to recompressing here.
    let fresh: Vec<ReconSlot> = par_map_with(ctx.workers, &members, |&m| {
        if slots[m].is_some() {
            return ReconSlot::Reused;
        }
        let _m = cc_obs::span("eval.member_recon");
        let orig = &ctx.fields[m];
        let bytes = compress_chunked(codec.as_ref(), orig, layout, 1);
        match decompress_chunked(codec.as_ref(), &bytes, layout, 1) {
            Ok(r) => ReconSlot::Fresh(r),
            Err(_) => {
                cc_obs::counter_inc("eval.self_decode_fail");
                ReconSlot::Failed
            }
        }
    });
    let mut recons: Vec<Vec<f32>> = Vec::with_capacity(ctx.fields.len());
    for (m, slot) in fresh.into_iter().enumerate() {
        match slot {
            ReconSlot::Reused => recons.push(slots[m].take().expect("sampled recon retained")),
            ReconSlot::Fresh(r) => recons.push(r),
            ReconSlot::Failed => return (None, false),
        }
    }
    // Order-sensitive f64 accumulation: members must enter in index order.
    let mut recon_stats = EnsembleStats::new(layout.len());
    for r in &recons {
        recon_stats.add_member(r);
    }
    let y: Vec<f64> = par_map_with(ctx.workers, &recons, |r| {
        recon_stats.rmsz_excluding(r, r).unwrap_or(0.0)
    });
    if spread <= 1e-9 {
        // Degenerate: no variance to regress on.
        (None, true)
    } else {
        let reg = BiasRegression::fit(x, &y);
        let pass = reg.passes();
        (Some(reg), pass)
    }
}

/// Score a batch of variants against one prepared context.
///
/// This is the pool-wide schedule of the parallel verification engine:
/// phase 1 flattens (candidate × sampled member) into a single
/// [`par_map_with`] fan-out sharing one context, then each lossy
/// candidate's bias phase fans the remaining ensemble members out in
/// turn. Per-candidate folds run on the calling thread in sample order,
/// so every verdict is bit-identical to the sequential reference at any
/// worker count.
pub fn verdicts_for(ctx: &VariableContext, variants: &[Variant]) -> Vec<VariableVerdict> {
    if variants.is_empty() {
        return Vec::new();
    }
    let _s = cc_obs::span("eval.verdict");
    let nsamp = ctx.sample_idx.len();

    // --- Phase 1: per-sample metrics and tests (ρ, RMSZ, E_nmax, CR),
    // all candidates at once. ------------------------------------------
    let units: Vec<(usize, usize)> = variants
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| ctx.sample_idx.iter().map(move |&m| (ci, m)))
        .collect();
    let outcomes = par_map_with(ctx.workers, &units, |&(ci, m)| {
        let variant = variants[ci];
        score_sample(ctx, variant.codec().as_ref(), m, !variant.is_lossless())
    });

    // Shared across candidates: the original scores and their spread.
    let x = ctx.rmsz_orig.scores().to_vec();
    let spread = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - x.iter().cloned().fold(f64::INFINITY, f64::min);

    let mut rest = outcomes.into_iter();
    let raw = ctx.raw_bytes() as f64;
    variants
        .iter()
        .map(|&variant| {
            let (members, recons): (Vec<MemberOutcome>, Vec<Option<Vec<f32>>>) =
                rest.by_ref().take(nsamp).unzip();
            // Summed in sample order: the same f64 as a serial loop.
            let cr = members.iter().map(|m| m.nbytes as f64 / raw).sum::<f64>()
                / nsamp.max(1) as f64;

            // --- Phase 2: bias test over the full reconstructed ensemble.
            let (bias, bias_pass) = if members.iter().any(|m| !m.decoded) {
                (None, false)
            } else if variant.is_lossless() {
                // Bit-exact reconstruction: slope exactly 1, trivially unbiased.
                (None, true)
            } else {
                let recons = members.iter().zip(recons).filter_map(|(m, r)| Some((m.member, r?)));
                bias_for(ctx, variant, recons.collect(), &x, spread)
            };
            VariableVerdict {
                var: ctx.var,
                name: ctx.spec.name.to_string(),
                variant,
                cr,
                members,
                bias,
                bias_pass,
            }
        })
        .collect()
}

/// Score one variant against a prepared variable context.
pub fn verdict_for(ctx: &VariableContext, variant: Variant) -> VariableVerdict {
    verdicts_for(ctx, std::slice::from_ref(&variant))
        .pop()
        .expect("one variant in, one verdict out")
}

/// The full evaluation driver: a model plus a config.
pub struct Evaluation {
    /// The data source.
    pub model: Model,
    /// Ensemble/sampling configuration.
    pub config: EvalConfig,
}

impl Evaluation {
    /// Create an evaluation over `model`.
    pub fn new(model: Model, config: EvalConfig) -> Self {
        Evaluation { model, config }
    }

    /// Build the context for one variable.
    pub fn context(&self, var: usize) -> VariableContext {
        VariableContext::build(&self.model, &self.config, var)
    }

    /// Build each variable's context and apply `f`, prefetching the next
    /// variable's context (member synthesis — the dominant stage) on a
    /// helper thread while `f` runs on the current one. Peak residency is
    /// bounded at two contexts, and `f` runs on the calling thread in
    /// `vars` order, so order-sensitive consumers see the sequential
    /// schedule.
    pub fn map_contexts<R>(
        &self,
        vars: &[usize],
        mut f: impl FnMut(&VariableContext) -> R,
    ) -> Vec<R> {
        cc_par::prefetch_map(vars, |&v| self.context(v), |ctx, _| f(&ctx))
    }

    /// Tally a Table 6 row: passes per test plus the all-four count.
    pub fn tally<'a>(verdicts: impl IntoIterator<Item = &'a VariableVerdict>) -> TestTally {
        let verdicts: Vec<&VariableVerdict> = verdicts.into_iter().collect();
        TestTally {
            pearson: verdicts.iter().filter(|v| v.pearson_pass()).count(),
            rmsz: verdicts.iter().filter(|v| v.rmsz_pass()).count(),
            enmax: verdicts.iter().filter(|v| v.enmax_pass()).count(),
            bias: verdicts.iter().filter(|v| v.bias_pass()).count(),
            all: verdicts.iter().filter(|v| v.all_pass()).count(),
            total: verdicts.len(),
        }
    }
}

/// A Table 6 row: number of variables passing each test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestTally {
    /// Pearson-correlation passes.
    pub pearson: usize,
    /// RMSZ-ensemble passes.
    pub rmsz: usize,
    /// E_nmax-ensemble passes.
    pub enmax: usize,
    /// Bias-test passes.
    pub bias: usize,
    /// Variables passing all four.
    pub all: usize,
    /// Total variables evaluated.
    pub total: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_grid::Resolution;

    fn tiny_eval() -> Evaluation {
        let model = Model::new(Resolution::reduced(2, 2), 13);
        Evaluation::new(model, EvalConfig::quick(9))
    }

    #[test]
    fn context_builds_distributions() {
        let ev = tiny_eval();
        let u = ev.model.var_id("U").unwrap();
        let ctx = ev.context(u);
        assert_eq!(ctx.fields.len(), 9);
        assert_eq!(ctx.rmsz_orig.scores().len(), 9);
        assert_eq!(ctx.enmax_dist.scores().len(), 9);
        // RMSZ of in-ensemble members is O(1).
        for &z in ctx.rmsz_orig.scores() {
            assert!(z > 0.1 && z < 5.0, "RMSZ {z}");
        }
        assert_eq!(ctx.sample_idx.len(), 3);
    }

    #[test]
    fn lossless_variant_passes_everything() {
        let ev = tiny_eval();
        let u = ev.model.var_id("U").unwrap();
        let ctx = ev.context(u);
        let v = verdict_for(&ctx, Variant::NetCdf4);
        assert!(v.all_pass(), "{v:?}");
        assert!(v.metrics().unwrap().is_exact());
    }

    #[test]
    fn gentle_compression_passes_smooth_variable() {
        let ev = tiny_eval();
        let u = ev.model.var_id("U").unwrap();
        let ctx = ev.context(u);
        let v = verdict_for(&ctx, Variant::Apax { rate: 2.0 });
        assert!(v.pearson_pass(), "APAX-2 on U: rho failed");
        assert!(v.rmsz_pass(), "APAX-2 on U: rmsz failed");
        assert!(v.cr < 0.55 && v.cr > 0.45, "fixed rate 2 ⇒ CR ≈ 0.5: {}", v.cr);
    }

    #[test]
    fn brutal_quantization_fails_tests() {
        let ev = tiny_eval();
        let ts = ev.model.var_id("TS").unwrap();
        let ctx = ev.context(ts);
        // D = -2 quantizes temperature to ~100 K steps: catastrophic.
        let v = verdict_for(&ctx, Variant::Grib2 { decimal_scale: Some(-2) });
        assert!(!v.all_pass(), "coarse quantization must fail");
    }

    /// A verdict over hand-built members, with a passing bias test.
    fn verdict_of(members: Vec<MemberOutcome>) -> VariableVerdict {
        let (name, variant) = ("X".to_string(), Variant::NetCdf4);
        VariableVerdict { var: 0, name, variant, cr: 1.0, members, bias: None, bias_pass: true }
    }

    /// A decoded member with exact metrics and passing RMSZ and E_nmax tests.
    fn exact_member() -> MemberOutcome {
        let field = [1.0, 2.0, 3.0, 4.0, 5.0];
        let dist = ScoreDistribution::new(vec![0.5, 1.0, 1.5]);
        MemberOutcome {
            member: 0,
            nbytes: 20,
            decoded: true,
            metrics: ErrorMetrics::compare(&field, &field),
            rmsz: Some(rmsz_test(&dist, 1.0, 1.0)),
            enmax: Some(enmax_test(&dist, 0.0)),
        }
    }

    fn per_member_tests(v: &VariableVerdict) -> [bool; 3] {
        [v.pearson_pass(), v.rmsz_pass(), v.enmax_pass()]
    }

    #[test]
    fn undecoded_member_fails_the_per_member_tests() {
        assert_eq!(per_member_tests(&verdict_of(vec![exact_member()])), [true; 3]);
        // As `score_sample` records a failed decode: no metrics, no tests.
        let (metrics, rmsz, enmax) = (None, None, None);
        let undecoded = MemberOutcome { decoded: false, metrics, rmsz, enmax, ..exact_member() };
        let v = verdict_of(vec![exact_member(), undecoded]);
        assert_eq!(per_member_tests(&v), [false; 3], "{v:?}");
        assert!(!v.all_pass());
    }

    #[test]
    fn decoded_member_without_metrics_passes_vacuously() {
        let degenerate = MemberOutcome { metrics: None, rmsz: None, enmax: None, ..exact_member() };
        let v = verdict_of(vec![exact_member(), degenerate]);
        assert_eq!(per_member_tests(&v), [true; 3], "{v:?}");
        assert!(v.all_pass());
    }

    #[test]
    fn member_with_nan_pearson_fails_rho() {
        let exact = exact_member().metrics.unwrap();
        let noisy = ErrorMetrics { e_max: 0.5, e_nmax: 0.125, pearson: f64::NAN, ..exact };
        let nan_rho = MemberOutcome { metrics: Some(noisy), ..exact_member() };
        assert!(!verdict_of(vec![nan_rho.clone()]).pearson_pass());
        // The aggregate reports that member's ρ, not a better one.
        let v = verdict_of(vec![exact_member(), nan_rho]);
        assert!(v.metrics().unwrap().pearson.is_nan(), "{v:?}");
        // A non-finite reconstruction gives that member.
        let field = [1.0, 2.0, 3.0, 4.0, 5.0];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let metrics = ErrorMetrics::compare(&field, &[1.0, 2.0, bad, 4.0, 5.0]);
            let member = MemberOutcome { metrics, ..exact_member() };
            assert!(!verdict_of(vec![member]).pearson_pass(), "reconstruction with {bad}");
        }
    }

    #[test]
    fn sample_indices_deterministic_and_distinct() {
        let c = EvalConfig::quick(20);
        let a = c.sample_indices(42);
        let b = c.sample_indices(42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a[0] != a[1] && a[1] != a[2] && a[0] != a[2]);
        assert!(a.iter().all(|&i| i < 20));
    }

    #[test]
    fn tally_counts() {
        let ev = tiny_eval();
        let u = ev.model.var_id("U").unwrap();
        let fsdsc = ev.model.var_id("FSDSC").unwrap();
        let verdicts = vec![
            verdict_for(&ev.context(u), Variant::NetCdf4),
            verdict_for(&ev.context(fsdsc), Variant::NetCdf4),
        ];
        let t = Evaluation::tally(&verdicts);
        assert_eq!(t.total, 2);
        assert_eq!(t.all, 2);
        assert_eq!(t.pearson, 2);
    }
}
