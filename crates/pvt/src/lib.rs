//! The CESM port-verification tool (CESM-PVT), Section 4.3 of the paper.
//!
//! The PVT answers one question: is a non-bit-for-bit change to CESM output
//! *climate-changing*, or does it sit within the natural variability of the
//! model? It builds a 101-member ensemble whose members differ only by an
//! `O(1e-14)` initial-condition perturbation and tests new data against the
//! ensemble's distributions. The paper repurposes it to verify compressed
//! data: reconstruct a member, and ask whether the reconstruction is
//! statistically distinguishable from the original.
//!
//! This crate implements the full battery:
//!
//! * per-gridpoint leave-one-out ensemble statistics ([`EnsembleStats`]) —
//!   eqs. (6)-(7): Z-scores against the sub-ensemble `{E \ m}` and the RMSZ
//!   aggregate;
//! * the **RMSZ ensemble test** — the reconstructed member's RMSZ must fall
//!   inside the 101-score distribution *and* differ from the original's by
//!   at most 1/10 (eq. 8);
//! * the **E_nmax ensemble test** — the normalized maximum pointwise error
//!   must be at most 1/10 of the ensemble's own pairwise-difference range
//!   (eqs. 10-11);
//! * the **bias test** — regress reconstructed-ensemble RMSZ on original
//!   RMSZ over all 101 members; the 95%-confidence worst-case slope must
//!   stay within 0.05 of the ideal slope 1 (eq. 9).

mod regression;

pub use regression::BiasRegression;

use cc_metrics::is_special;

/// Eq. (8): maximum allowed |RMSZ(orig) − RMSZ(recon)|.
pub const RMSZ_DIFF_MAX: f64 = 0.1;
/// Eq. (11): maximum allowed e_nmax / range(E_nmax distribution).
pub const ENMAX_RATIO_MAX: f64 = 0.1;
/// Eq. (9): maximum allowed |s_I − s_WC| for the bias test.
pub const SLOPE_DIST_MAX: f64 = 0.05;
/// Points whose sub-ensemble standard deviation falls below this are
/// excluded from Z-scores (static boundary fields have σ = 0 at f32
/// precision; a Z-score there is undefined).
pub const MIN_SIGMA: f64 = 1.0e-12;

/// Streaming per-gridpoint ensemble statistics with leave-one-out support.
///
/// Accumulates sums, squared sums, and the two extreme values per grid
/// point so that, for any member `m` whose own field is re-supplied, the
/// statistics of the sub-ensemble `{E \ m}` are recovered exactly — without
/// ever holding the whole ensemble in memory.
#[derive(Debug, Clone)]
pub struct EnsembleStats {
    npts: usize,
    n_members: usize,
    sum: Vec<f64>,
    sumsq: Vec<f64>,
    /// Two smallest values per point (for max-difference queries that must
    /// exclude one member).
    min1: Vec<f32>,
    min2: Vec<f32>,
    max1: Vec<f32>,
    max2: Vec<f32>,
    /// Per-point special-value flag (any member special ⇒ point excluded).
    special: Vec<bool>,
}

impl EnsembleStats {
    /// New accumulator for fields of `npts` values.
    pub fn new(npts: usize) -> Self {
        EnsembleStats {
            npts,
            n_members: 0,
            sum: vec![0.0; npts],
            sumsq: vec![0.0; npts],
            min1: vec![f32::INFINITY; npts],
            min2: vec![f32::INFINITY; npts],
            max1: vec![f32::NEG_INFINITY; npts],
            max2: vec![f32::NEG_INFINITY; npts],
            special: vec![false; npts],
        }
    }

    /// Number of members accumulated.
    pub fn members(&self) -> usize {
        self.n_members
    }

    /// Field size.
    pub fn len(&self) -> usize {
        self.npts
    }

    /// True before any member is added.
    pub fn is_empty(&self) -> bool {
        self.n_members == 0
    }

    /// Accumulate one member's field.
    pub fn add_member(&mut self, data: &[f32]) {
        assert_eq!(data.len(), self.npts, "field length mismatch");
        for (p, &v) in data.iter().enumerate() {
            if is_special(v) {
                self.special[p] = true;
                continue;
            }
            let x = v as f64;
            self.sum[p] += x;
            self.sumsq[p] += x * x;
            if v < self.min1[p] {
                self.min2[p] = self.min1[p];
                self.min1[p] = v;
            } else if v < self.min2[p] {
                self.min2[p] = v;
            }
            if v > self.max1[p] {
                self.max2[p] = self.max1[p];
                self.max1[p] = v;
            } else if v > self.max2[p] {
                self.max2[p] = v;
            }
        }
        self.n_members += 1;
    }

    /// Eq. (7): RMSZ of `eval` against the sub-ensemble that excludes
    /// `member_orig` (the member's own original field, eq. 6). Pass the
    /// original itself as `eval` to score the original member; pass the
    /// reconstruction to score compressed data. Returns `None` when no
    /// point has usable variance.
    pub fn rmsz_excluding(&self, member_orig: &[f32], eval: &[f32]) -> Option<f64> {
        assert_eq!(member_orig.len(), self.npts);
        assert_eq!(eval.len(), self.npts);
        assert!(self.n_members >= 3, "need at least 3 members for leave-one-out Z");
        let nm1 = (self.n_members - 1) as f64;
        let mut acc = 0.0f64;
        let mut count = 0usize;
        for p in 0..self.npts {
            if self.special[p] {
                continue;
            }
            let xm = member_orig[p] as f64;
            let mean = (self.sum[p] - xm) / nm1;
            let var = ((self.sumsq[p] - xm * xm) / nm1 - mean * mean).max(0.0);
            let sigma = var.sqrt();
            if sigma < MIN_SIGMA {
                continue;
            }
            let z = (eval[p] as f64 - mean) / sigma;
            acc += z * z;
            count += 1;
        }
        if count == 0 {
            None
        } else {
            Some((acc / count as f64).sqrt())
        }
    }

    /// Eq. (10): the normalized maximum pointwise difference between
    /// `member_orig` (member `m`) and every other member — computed from
    /// the per-point extremes with member `m`'s own contribution removed.
    /// `range` is `R_X^m`, member m's own data range.
    pub fn enmax_excluding(&self, member_orig: &[f32]) -> Option<f64> {
        assert_eq!(member_orig.len(), self.npts);
        assert!(self.n_members >= 3, "need at least 3 members");
        let mut stats_min = f64::INFINITY;
        let mut stats_max = f64::NEG_INFINITY;
        for &v in member_orig {
            if !is_special(v) {
                stats_min = stats_min.min(v as f64);
                stats_max = stats_max.max(v as f64);
            }
        }
        let range = stats_max - stats_min;
        if !range.is_finite() || range <= 0.0 {
            return None;
        }
        let mut emax = 0.0f64;
        for (p, &v) in member_orig.iter().enumerate().take(self.npts) {
            if self.special[p] {
                continue;
            }
            // Extremes of {E \ m}: if v is the recorded extreme, fall back
            // to the second-best. (If v appears twice, using the second
            // value is still correct — the other copy belongs to another
            // member.)
            let lo = if v == self.min1[p] { self.min2[p] } else { self.min1[p] };
            let hi = if v == self.max1[p] { self.max2[p] } else { self.max1[p] };
            if lo.is_finite() {
                emax = emax.max((v as f64 - lo as f64).abs());
            }
            if hi.is_finite() {
                emax = emax.max((hi as f64 - v as f64).abs());
            }
        }
        Some(emax / range)
    }
}

/// A distribution of per-member scores (101 RMSZ values, or 101 E_nmax
/// values) with the acceptance queries the PVT poses.
#[derive(Debug, Clone, Default)]
pub struct ScoreDistribution {
    scores: Vec<f64>,
}

impl ScoreDistribution {
    /// Collect scores (one per ensemble member).
    pub fn new(scores: Vec<f64>) -> Self {
        ScoreDistribution { scores }
    }

    /// The raw scores.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Distribution minimum.
    pub fn min(&self) -> f64 {
        self.scores.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Distribution maximum.
    pub fn max(&self) -> f64 {
        self.scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// `max − min`.
    pub fn range(&self) -> f64 {
        self.max() - self.min()
    }

    /// True when `value` lies within `[min, max]`, with 1%-of-range slack.
    ///
    /// The slack matters when the sampled member is itself the
    /// distribution's extreme scorer: any epsilon-level reconstruction
    /// perturbation would then land nominally "outside" even though the
    /// test is only meant to catch order-0.1 excursions (eq. 8's
    /// threshold). One percent of the range sits far below that scale.
    pub fn contains(&self, value: f64) -> bool {
        if self.scores.is_empty() {
            return false;
        }
        let slack = 0.01 * self.range();
        value >= self.min() - slack && value <= self.max() + slack
    }

    /// Histogram over `bins` equal-width buckets (used by the Figure-2
    /// reproductions).
    pub fn histogram(&self, bins: usize) -> Vec<usize> {
        let mut h = vec![0usize; bins.max(1)];
        let (lo, hi) = (self.min(), self.max());
        let width = (hi - lo).max(f64::MIN_POSITIVE);
        for &s in &self.scores {
            let b = (((s - lo) / width) * (bins as f64 - 1e-9)) as usize;
            h[b.min(bins - 1)] += 1;
        }
        h
    }

    /// Quartiles `(q1, median, q3)` for box plots (Figure 3).
    pub fn quartiles(&self) -> (f64, f64, f64) {
        let mut s = self.scores.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let q = |f: f64| -> f64 {
            if s.is_empty() {
                return f64::NAN;
            }
            let idx = f * (s.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let w = idx - lo as f64;
            s[lo] * (1.0 - w) + s[hi] * w
        };
        (q(0.25), q(0.5), q(0.75))
    }
}

/// Outcome of the RMSZ ensemble test for one reconstructed member (eq. 8
/// plus the in-distribution requirement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmszOutcome {
    /// RMSZ of the original member.
    pub rmsz_orig: f64,
    /// RMSZ of the reconstruction.
    pub rmsz_recon: f64,
    /// Reconstruction's RMSZ falls within the ensemble distribution.
    pub in_distribution: bool,
    /// |RMSZ_orig − RMSZ_recon| ≤ 1/10 (eq. 8).
    pub close_to_original: bool,
}

impl RmszOutcome {
    /// Overall pass: both requirements.
    pub fn passed(&self) -> bool {
        self.in_distribution && self.close_to_original
    }
}

/// Run the RMSZ ensemble test for one member.
pub fn rmsz_test(
    dist: &ScoreDistribution,
    rmsz_orig: f64,
    rmsz_recon: f64,
) -> RmszOutcome {
    RmszOutcome {
        rmsz_orig,
        rmsz_recon,
        in_distribution: dist.contains(rmsz_recon),
        close_to_original: (rmsz_orig - rmsz_recon).abs() <= RMSZ_DIFF_MAX,
    }
}

/// Outcome of the E_nmax ensemble test (eq. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnmaxOutcome {
    /// e_nmax between original and reconstruction (eq. 2).
    pub e_nmax: f64,
    /// Range of the ensemble E_nmax distribution.
    pub dist_range: f64,
    /// e_nmax ≤ distribution range (the minimal requirement).
    pub within_range: bool,
    /// e_nmax / range ≤ 1/10 (eq. 11).
    pub order_smaller: bool,
}

impl EnmaxOutcome {
    /// Overall pass: the strict eq. (11) criterion.
    pub fn passed(&self) -> bool {
        self.order_smaller
    }
}

/// Run the E_nmax ensemble test for one member.
pub fn enmax_test(dist: &ScoreDistribution, e_nmax: f64) -> EnmaxOutcome {
    let range = dist.range();
    EnmaxOutcome {
        e_nmax,
        dist_range: range,
        within_range: e_nmax <= range,
        order_smaller: range > 0.0 && e_nmax / range <= ENMAX_RATIO_MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic synthetic "ensemble": member m, point p.
    fn member_field(m: usize, npts: usize) -> Vec<f32> {
        (0..npts)
            .map(|p| {
                let base = (p as f32 * 0.37).sin() * 10.0;
                let wiggle = ((m * 7919 + p * 104729) % 1000) as f32 / 1000.0 - 0.5;
                base + wiggle
            })
            .collect()
    }

    fn build_stats(n: usize, npts: usize) -> EnsembleStats {
        let mut s = EnsembleStats::new(npts);
        for m in 0..n {
            s.add_member(&member_field(m, npts));
        }
        s
    }

    #[test]
    fn rmsz_of_members_is_order_one() {
        // Members drawn from the ensemble's own distribution must score
        // RMSZ ≈ 1 (the paper observes the range is O(1)).
        let stats = build_stats(30, 500);
        for m in 0..5 {
            let f = member_field(m, 500);
            let z = stats.rmsz_excluding(&f, &f).unwrap();
            assert!(z > 0.3 && z < 3.0, "member {m}: RMSZ {z}");
        }
    }

    #[test]
    fn points_below_min_sigma_do_not_count() {
        // Point 0 spreads by about 5e-13 across members: below MIN_SIGMA,
        // above 1e-13. A reconstruction that moves only that point keeps
        // the member's RMSZ.
        let npts = 40;
        let field = |m: usize| {
            let mut f = member_field(m, npts);
            f[0] = if m.is_multiple_of(2) { 1.0e-12 } else { 2.0e-12 };
            f
        };
        let mut stats = EnsembleStats::new(npts);
        for m in 0..12 {
            stats.add_member(&field(m));
        }
        let f = field(3);
        let mut moved = f.clone();
        moved[0] = 0.0;
        assert_eq!(stats.rmsz_excluding(&f, &moved), stats.rmsz_excluding(&f, &f));
    }

    #[test]
    fn rmsz_naive_leave_one_out_agrees() {
        // Cross-check the streaming algebra against a naive recomputation.
        let n = 12;
        let npts = 40;
        let stats = build_stats(n, npts);
        let m = 3usize;
        let fm = member_field(m, npts);
        let fast = stats.rmsz_excluding(&fm, &fm).unwrap();

        let mut acc = 0.0f64;
        let mut count = 0usize;
        for (p, &vp) in fm.iter().enumerate().take(npts) {
            let others: Vec<f64> = (0..n)
                .filter(|&k| k != m)
                .map(|k| member_field(k, npts)[p] as f64)
                .collect();
            let mean = others.iter().sum::<f64>() / others.len() as f64;
            let var =
                others.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / others.len() as f64;
            if var.sqrt() < MIN_SIGMA {
                continue;
            }
            let z = (vp as f64 - mean) / var.sqrt();
            acc += z * z;
            count += 1;
        }
        let naive = (acc / count as f64).sqrt();
        assert!((fast - naive).abs() < 1e-9, "fast {fast} vs naive {naive}");
    }

    #[test]
    fn rmsz_detects_biased_reconstruction() {
        let stats = build_stats(40, 800);
        let f = member_field(1, 800);
        let clean = stats.rmsz_excluding(&f, &f).unwrap();
        // Shift by several ensemble sigmas (member wiggle σ ≈ 0.29).
        let biased: Vec<f32> = f.iter().map(|&v| v + 3.0).collect();
        let dirty = stats.rmsz_excluding(&f, &biased).unwrap();
        assert!(dirty > clean * 3.0, "clean {clean} dirty {dirty}");
    }

    #[test]
    fn rmsz_skips_special_points() {
        let npts = 100;
        let mut stats = EnsembleStats::new(npts);
        for m in 0..10 {
            let mut f = member_field(m, npts);
            f[0] = 1.0e35; // always special
            stats.add_member(&f);
        }
        let mut f = member_field(0, npts);
        f[0] = 1.0e35;
        let z = stats.rmsz_excluding(&f, &f).unwrap();
        assert!(z.is_finite());
    }

    #[test]
    fn enmax_excluding_matches_naive() {
        let n = 10;
        let npts = 60;
        let stats = build_stats(n, npts);
        let m = 2usize;
        let fm = member_field(m, npts);
        let fast = stats.enmax_excluding(&fm).unwrap();

        let mut emax = 0.0f64;
        for (p, &vp) in fm.iter().enumerate().take(npts) {
            for k in 0..n {
                if k == m {
                    continue;
                }
                let d = (vp as f64 - member_field(k, npts)[p] as f64).abs();
                emax = emax.max(d);
            }
        }
        let min = fm.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
        let max = fm.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
        let naive = emax / (max - min);
        assert!(
            (fast - naive).abs() < 1e-9,
            "fast {fast} vs naive {naive}"
        );
    }

    #[test]
    fn score_distribution_queries() {
        let d = ScoreDistribution::new(vec![1.0, 1.2, 0.9, 1.5, 1.1]);
        assert_eq!(d.min(), 0.9);
        assert_eq!(d.max(), 1.5);
        assert!((d.range() - 0.6).abs() < 1e-12);
        assert!(d.contains(1.3));
        assert!(!d.contains(1.6));
        assert!(!d.contains(0.8));
        let h = d.histogram(3);
        assert_eq!(h.iter().sum::<usize>(), 5);
    }

    #[test]
    fn quartiles_of_known_data() {
        let d = ScoreDistribution::new((1..=9).map(|i| i as f64).collect());
        let (q1, q2, q3) = d.quartiles();
        assert_eq!(q2, 5.0);
        assert_eq!(q1, 3.0);
        assert_eq!(q3, 7.0);
    }

    #[test]
    fn rmsz_test_passes_close_in_distribution() {
        let d = ScoreDistribution::new(vec![0.8, 0.9, 1.0, 1.1, 1.2]);
        let ok = rmsz_test(&d, 1.0, 1.05);
        assert!(ok.passed());
        // In distribution but too far from the original (eq. 8).
        let far = rmsz_test(&d, 0.85, 1.15);
        assert!(far.in_distribution);
        assert!(!far.close_to_original);
        assert!(!far.passed());
        // Close but out of distribution.
        let out = rmsz_test(&d, 1.2, 1.25);
        assert!(!out.in_distribution);
        assert!(out.close_to_original);
        assert!(!out.passed());
    }

    #[test]
    fn enmax_test_thresholds() {
        let d = ScoreDistribution::new(vec![0.0, 1.0]); // range 1
        assert!(enmax_test(&d, 0.05).passed());
        let marginal = enmax_test(&d, 0.5);
        assert!(marginal.within_range);
        assert!(!marginal.order_smaller);
        assert!(!marginal.passed());
    }

    #[test]
    #[should_panic(expected = "at least 3 members")]
    fn rmsz_requires_enough_members() {
        let mut s = EnsembleStats::new(10);
        s.add_member(&[0.0; 10]);
        s.rmsz_excluding(&[0.0; 10], &[0.0; 10]);
    }
}
