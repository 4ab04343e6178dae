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
use cc_pvt::{enmax_test, rmsz_test, BiasRegression, EnsembleStats, ScoreDistribution};

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

/// The four test outcomes (and supporting measurements) for one variable
/// under one codec variant.
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
    /// Aggregate error metrics over the sampled members (`None` for a
    /// degenerate/constant field). This is a *conservative* aggregate,
    /// not a plain mean: `e_max`, `e_nmax`, `rmse`, and `nrmse` are
    /// averaged, but `psnr` and `pearson` are the worst case (minimum)
    /// over the samples, so the verdict never reports better fidelity
    /// than its worst sampled member.
    pub metrics: Option<ErrorMetrics>,
    /// Test 1: Pearson ρ ≥ 0.99999 on every sampled member.
    pub pearson_pass: bool,
    /// Test 2: RMSZ ensemble test on every sampled member.
    pub rmsz_pass: bool,
    /// Test 3: E_nmax ensemble test on every sampled member.
    pub enmax_pass: bool,
    /// Test 4: bias regression over the full reconstructed ensemble.
    pub bias_pass: bool,
    /// The fitted bias regression (for Figure 4).
    pub bias: Option<BiasRegression>,
    /// Per-sample (original RMSZ, reconstructed RMSZ) pairs (Figure 2).
    pub sample_rmsz: Vec<(f64, f64)>,
    /// Per-sample e_nmax values (Figure 3).
    pub sample_enmax: Vec<f64>,
}

impl VariableVerdict {
    /// Pass on all four tests (the "all" column of Table 6).
    pub fn all_pass(&self) -> bool {
        self.pearson_pass && self.rmsz_pass && self.enmax_pass && self.bias_pass
    }
}

/// One sampled member's measurements for one candidate, produced on the
/// pool by [`verdicts_for`] phase 1.
struct SampleOutcome {
    /// Compressed size (counted towards CR even when the decode fails).
    nbytes: usize,
    /// False when the codec failed to decode its own stream.
    decode_ok: bool,
    /// Metrics (`None` for a degenerate/incomparable field).
    em: Option<ErrorMetrics>,
    /// `(zo, zr, passed)` of the RMSZ ensemble test.
    rmsz: Option<(f64, f64, bool)>,
    /// `(e_nmax, passed)` of the E_nmax ensemble test.
    enmax: Option<(f64, bool)>,
    /// Pearson ρ within threshold (vacuously true when degenerate).
    pearson_ok: bool,
    /// Reconstruction, retained for lossy candidates so the bias phase
    /// does not recompress the sampled members.
    recon: Option<Vec<f32>>,
}

/// Compress/decompress one sampled member and run the per-member tests.
fn score_sample(
    ctx: &VariableContext,
    codec: &dyn cc_codecs::Codec,
    m: usize,
    keep_recon: bool,
) -> SampleOutcome {
    let _sample = cc_obs::span("eval.sample");
    let orig = &ctx.fields[m];
    let bytes = compress_chunked(codec, orig, ctx.layout, ctx.workers);
    let nbytes = bytes.len();
    let recon = match decompress_chunked(codec, &bytes, ctx.layout, ctx.workers) {
        Ok(r) => r,
        Err(_) => {
            // A codec that cannot decode its own stream is a codec bug;
            // surface it as a failed verdict, not a worker panic.
            cc_obs::counter_inc("eval.self_decode_fail");
            return SampleOutcome {
                nbytes,
                decode_ok: false,
                em: None,
                rmsz: None,
                enmax: None,
                pearson_ok: false,
                recon: None,
            };
        }
    };
    let mut out = SampleOutcome {
        nbytes,
        decode_ok: true,
        em: None,
        rmsz: None,
        enmax: None,
        pearson_ok: true,
        recon: None,
    };
    if let Some(em) = ErrorMetrics::compare(orig, &recon) {
        if em.pearson < PEARSON_THRESHOLD && !em.is_exact() {
            out.pearson_ok = false;
        }
        {
            let _t = cc_obs::span("eval.test.rmsz");
            // The member's original score was computed identically at
            // context build time; reuse it instead of re-deriving.
            let zo = ctx.rmsz_orig.scores()[m];
            let zr = ctx.stats.rmsz_excluding(orig, &recon).unwrap_or(zo);
            out.rmsz = Some((zo, zr, rmsz_test(&ctx.rmsz_orig, zo, zr).passed()));
        }
        {
            let _t = cc_obs::span("eval.test.enmax");
            out.enmax = Some((em.e_nmax, enmax_test(&ctx.enmax_dist, em.e_nmax).passed()));
        }
        out.em = Some(em);
    }
    // Degenerate fields (no comparable points / zero range) have
    // nothing to distinguish: tests vacuously pass.
    if keep_recon {
        out.recon = Some(recon);
    }
    out
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
    let _s = cc_obs::span("eval.verdict");
    if variants.is_empty() {
        return Vec::new();
    }
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
    let mut verdicts = Vec::with_capacity(variants.len());
    for &variant in variants {
        let mut pearson_pass = true;
        let mut rmsz_pass = true;
        let mut enmax_pass = true;
        let mut decode_ok = true;
        let mut cr_sum = 0.0;
        let mut sample_rmsz = Vec::new();
        let mut sample_enmax = Vec::new();
        let mut metric_acc: Vec<ErrorMetrics> = Vec::new();
        let mut sample_recons: Vec<(usize, Vec<f32>)> = Vec::new();
        // Fold in sample order — identical accumulation to a serial loop.
        for (si, o) in rest.by_ref().take(nsamp).enumerate() {
            cr_sum += o.nbytes as f64 / ctx.raw_bytes() as f64;
            decode_ok &= o.decode_ok;
            pearson_pass &= o.pearson_ok;
            if let Some((zo, zr, ok)) = o.rmsz {
                sample_rmsz.push((zo, zr));
                rmsz_pass &= ok;
            }
            if let Some((e, ok)) = o.enmax {
                sample_enmax.push(e);
                enmax_pass &= ok;
            }
            if let Some(em) = o.em {
                metric_acc.push(em);
            }
            if let Some(r) = o.recon {
                sample_recons.push((ctx.sample_idx[si], r));
            }
        }
        let cr = cr_sum / ctx.sample_idx.len().max(1) as f64;

        // --- Phase 2: bias test over the full reconstructed ensemble. --
        let (bias, bias_pass) = if !decode_ok {
            (None, false)
        } else if variant.is_lossless() {
            // Bit-exact reconstruction: slope exactly 1, trivially unbiased.
            (None, true)
        } else {
            bias_for(ctx, variant, sample_recons, &x, spread)
        };
        if !decode_ok {
            rmsz_pass = false;
            enmax_pass = false;
        }

        verdicts.push(VariableVerdict {
            var: ctx.var,
            name: ctx.spec.name.to_string(),
            variant,
            cr,
            metrics: average_metrics(&metric_acc),
            pearson_pass,
            rmsz_pass,
            enmax_pass,
            bias_pass,
            bias,
            sample_rmsz,
            sample_enmax,
        });
    }
    verdicts
}

/// Score one variant against a prepared variable context.
pub fn verdict_for(ctx: &VariableContext, variant: Variant) -> VariableVerdict {
    verdicts_for(ctx, std::slice::from_ref(&variant))
        .pop()
        .expect("one variant in, one verdict out")
}

/// Conservative aggregate of per-sample metrics: mean-like quantities
/// (`e_max`, `e_nmax`, `rmse`, `nrmse`) are averaged, while `psnr` and
/// `pearson` take the worst case (minimum) over the samples — a variant
/// is only as good as its worst sampled member.
fn average_metrics(ms: &[ErrorMetrics]) -> Option<ErrorMetrics> {
    if ms.is_empty() {
        return None;
    }
    let n = ms.len() as f64;
    Some(ErrorMetrics {
        e_max: ms.iter().map(|m| m.e_max).sum::<f64>() / n,
        e_nmax: ms.iter().map(|m| m.e_nmax).sum::<f64>() / n,
        rmse: ms.iter().map(|m| m.rmse).sum::<f64>() / n,
        nrmse: ms.iter().map(|m| m.nrmse).sum::<f64>() / n,
        psnr: ms.iter().map(|m| m.psnr).fold(f64::INFINITY, f64::min),
        pearson: ms.iter().map(|m| m.pearson).fold(f64::INFINITY, f64::min),
        count: ms[0].count,
    })
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

    /// Evaluate one variant over every registry variable (Table 6 row).
    /// Contexts are built one variable ahead of the verdict computation
    /// and dropped immediately after scoring, so at most two variables'
    /// ensembles are ever resident.
    pub fn evaluate_all(&self, variant: Variant) -> Vec<VariableVerdict> {
        let vars: Vec<usize> = (0..self.model.registry().len()).collect();
        self.map_contexts(&vars, |ctx| verdict_for(ctx, variant))
    }

    /// Tally a Table 6 row: passes per test plus the all-four count.
    pub fn tally(verdicts: &[VariableVerdict]) -> TestTally {
        TestTally {
            pearson: verdicts.iter().filter(|v| v.pearson_pass).count(),
            rmsz: verdicts.iter().filter(|v| v.rmsz_pass).count(),
            enmax: verdicts.iter().filter(|v| v.enmax_pass).count(),
            bias: verdicts.iter().filter(|v| v.bias_pass).count(),
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
        assert!(v.metrics.unwrap().is_exact());
    }

    #[test]
    fn gentle_compression_passes_smooth_variable() {
        let ev = tiny_eval();
        let u = ev.model.var_id("U").unwrap();
        let ctx = ev.context(u);
        let v = verdict_for(&ctx, Variant::Apax { rate: 2.0 });
        assert!(v.pearson_pass, "APAX-2 on U: rho failed");
        assert!(v.rmsz_pass, "APAX-2 on U: rmsz failed");
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
