//! Field statistics and compression-quality metrics.
//!
//! Implements Sections 4.1 and 4.2 of Baker et al. (HPDC'14):
//!
//! * characterization of the original data — min, max, mean, standard
//!   deviation ([`FieldStats`]) and the lossless compression ratio (eq. 1,
//!   [`compression_ratio`]);
//! * original-vs-reconstructed comparison — pointwise error, maximum norm
//!   `e_max`, normalized maximum pointwise error `e_nmax` (eq. 2), RMSE
//!   (eq. 3), NRMSE (eq. 4), PSNR, and the Pearson correlation coefficient ρ
//!   (eq. 5) — bundled in [`ErrorMetrics`];
//! * the structural-similarity index ([`ssim`]) the paper names as future
//!   work for image-quality verification.
//!
//! All metrics skip *special values* (the `1e35` fill CESM writes at
//! undefined points, e.g. sea-surface temperature over land): "we are
//! careful not to include any special values … when calculating our
//! metrics" (Section 4.3). Accumulation is in `f64` regardless of data
//! precision.

mod ssim;

pub use ssim::ssim;

/// The CESM fill value for undefined grid points (Section 3.1).
pub const FILL_VALUE: f32 = 1.0e35;

/// Threshold above which a magnitude is treated as a special value.
/// Real CAM data never reaches 1e30; the fill is 1e35.
pub const SPECIAL_THRESHOLD: f32 = 1.0e30;

/// True if `v` is a special/missing value (fill, NaN, or infinity).
#[inline]
pub fn is_special(v: f32) -> bool {
    !v.is_finite() || v.abs() >= SPECIAL_THRESHOLD
}

/// Eq. (1): `CR = filesize(compressed) / filesize(original)`.
/// Smaller is better; 1.0 means no reduction.
pub fn compression_ratio(compressed_bytes: usize, original_bytes: usize) -> f64 {
    assert!(original_bytes > 0, "original size must be positive");
    compressed_bytes as f64 / original_bytes as f64
}

/// Summary statistics of a field, excluding special values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    /// Minimum over non-special points.
    pub min: f64,
    /// Maximum over non-special points.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Number of non-special points.
    pub count: usize,
}

impl FieldStats {
    /// Compute stats over `data`, skipping special values.
    /// Returns `None` if every point is special (or `data` is empty).
    pub fn compute(data: &[f32]) -> Option<FieldStats> {
        // Welford's online algorithm for numerically stable mean/variance.
        let mut count = 0usize;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in data {
            if is_special(v) {
                continue;
            }
            let x = v as f64;
            count += 1;
            let d = x - mean;
            mean += d / count as f64;
            m2 += d * (x - mean);
            if x < min {
                min = x;
            }
            if x > max {
                max = x;
            }
        }
        if count == 0 {
            return None;
        }
        Some(FieldStats { min, max, mean, std: (m2 / count as f64).sqrt(), count })
    }

    /// The range `R_X = x_max − x_min` used to normalize error metrics.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// All Section-4.2 error metrics between an original and a reconstructed
/// field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorMetrics {
    /// Maximum absolute pointwise error `e_max = max|x_i − x̃_i|`.
    pub e_max: f64,
    /// Eq. (2): `e_nmax = e_max / R_X`.
    pub e_nmax: f64,
    /// Eq. (3): root mean squared error.
    pub rmse: f64,
    /// Eq. (4): `nrmse = rmse / R_X`.
    pub nrmse: f64,
    /// Peak signal-to-noise ratio in dB (infinite for exact reconstruction).
    pub psnr: f64,
    /// Eq. (5): Pearson correlation coefficient ρ ∈ [−1, 1].
    pub pearson: f64,
    /// Points compared (non-special in the original).
    pub count: usize,
}

impl ErrorMetrics {
    /// Compare `recon` against `orig`, skipping points that are special in
    /// the original. Panics if lengths differ; returns `None` if no
    /// comparable points exist or the original range is zero (a constant
    /// field has no meaningful normalized error — callers treat constant
    /// fields as trivially losslessly compressible).
    pub fn compare(orig: &[f32], recon: &[f32]) -> Option<ErrorMetrics> {
        assert_eq!(orig.len(), recon.len(), "field lengths differ");
        let stats = FieldStats::compute(orig)?;
        let range = stats.range();

        let mut count = 0usize;
        let mut e_max = 0.0f64;
        let mut sq_sum = 0.0f64;
        // Pearson via shifted co-moments (shift by the original mean for
        // stability at large offsets, e.g. Z3 ~ 1e4).
        let shift = stats.mean;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        let mut peak = 0.0f64;
        for (&a, &b) in orig.iter().zip(recon) {
            if is_special(a) {
                continue;
            }
            let x = a as f64;
            let y = b as f64;
            count += 1;
            // A non-finite reconstruction of a real point is an infinite
            // error (NaN would slip past the `e > e_max` comparison).
            let e = if y.is_finite() { (x - y).abs() } else { f64::INFINITY };
            if e > e_max {
                e_max = e;
            }
            sq_sum += e * e;
            let xs = x - shift;
            let ys = y - shift;
            sx += xs;
            sy += ys;
            sxx += xs * xs;
            syy += ys * ys;
            sxy += xs * ys;
            if x.abs() > peak {
                peak = x.abs();
            }
        }
        if count == 0 {
            return None;
        }
        let n = count as f64;
        let rmse = (sq_sum / n).sqrt();
        let cov = sxy / n - (sx / n) * (sy / n);
        let var_x = sxx / n - (sx / n) * (sx / n);
        let var_y = syy / n - (sy / n) * (sy / n);
        let pearson = if var_x <= 0.0 || var_y <= 0.0 {
            // A constant field (either side): perfectly correlated iff equal.
            if rmse == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            (cov / (var_x.sqrt() * var_y.sqrt())).clamp(-1.0, 1.0)
        };
        if range <= 0.0 {
            return None;
        }
        let psnr = if rmse == 0.0 {
            f64::INFINITY
        } else {
            20.0 * (peak / rmse).log10()
        };
        Some(ErrorMetrics {
            e_max,
            e_nmax: e_max / range,
            rmse,
            nrmse: rmse / range,
            psnr,
            pearson,
            count,
        })
    }

    /// True when the reconstruction is bit-exact on all comparable points.
    pub fn is_exact(&self) -> bool {
        self.e_max == 0.0
    }
}

/// Pearson correlation of two slices (no special-value handling); exposed
/// for the PVT bias regression and tests.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    if x.is_empty() {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// The paper's correlation acceptance threshold (Section 4.2): the APAX
/// profiler recommends ρ ≥ 0.99999 and the paper adopts it.
pub const PEARSON_THRESHOLD: f64 = 0.99999;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_hand_computed() {
        let s = FieldStats::compute(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.count, 4);
        assert_eq!(s.range(), 3.0);
    }

    #[test]
    fn stats_skip_special_values() {
        let s = FieldStats::compute(&[1.0, FILL_VALUE, 3.0, f32::NAN, -FILL_VALUE]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn stats_all_special_is_none() {
        assert!(FieldStats::compute(&[FILL_VALUE, f32::INFINITY]).is_none());
        assert!(FieldStats::compute(&[]).is_none());
    }

    #[test]
    fn error_metrics_exact_reconstruction() {
        let x = [1.0f32, 2.0, 5.0, -3.0];
        let m = ErrorMetrics::compare(&x, &x).unwrap();
        assert_eq!(m.e_max, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.pearson, 1.0);
        assert!(m.psnr.is_infinite());
        assert!(m.is_exact());
    }

    #[test]
    fn error_metrics_hand_computed() {
        let x = [0.0f32, 1.0, 2.0, 3.0];
        let y = [0.0f32, 1.0, 2.0, 4.0]; // one point off by 1
        let m = ErrorMetrics::compare(&x, &y).unwrap();
        assert_eq!(m.e_max, 1.0);
        assert!((m.e_nmax - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.rmse - 0.5).abs() < 1e-12); // sqrt(1/4)
        assert!((m.nrmse - 0.5 / 3.0).abs() < 1e-12);
        assert!(m.pearson > 0.9 && m.pearson < 1.0);
    }

    #[test]
    fn error_metrics_skip_special_points() {
        let x = [1.0f32, FILL_VALUE, 3.0];
        let y = [1.0f32, 0.0, 3.0]; // reconstruction differs only at the fill
        let m = ErrorMetrics::compare(&x, &y).unwrap();
        assert_eq!(m.count, 2);
        assert!(m.is_exact());
    }

    #[test]
    fn non_finite_reconstruction_is_an_infinite_error() {
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let m = ErrorMetrics::compare(&x, &[1.0, 2.0, bad, 4.0, 5.0]).unwrap();
            assert_eq!(m.e_max, f64::INFINITY, "reconstruction with {bad}");
            assert_eq!(m.e_nmax, f64::INFINITY, "reconstruction with {bad}");
            assert!(!m.is_exact(), "reconstruction with {bad}");
            assert!(m.pearson.is_nan(), "reconstruction with {bad}");
        }
    }

    #[test]
    fn error_metrics_constant_field_is_none() {
        let x = [2.0f32; 10];
        assert!(ErrorMetrics::compare(&x, &x).is_none());
    }

    #[test]
    fn nrmse_smaller_than_enmax() {
        // NRMSE ≤ e_nmax always (mean ≤ max); paper notes roughly 10×.
        let x: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        let y: Vec<f32> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| v + if i == 7 { 0.1 } else { 1e-4 })
            .collect();
        let m = ErrorMetrics::compare(&x, &y).unwrap();
        assert!(m.nrmse <= m.e_nmax);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_orthogonal() {
        let x = [1.0, -1.0, 1.0, -1.0];
        let y = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn pearson_large_offset_stable() {
        // Z3-like data: large mean, small fluctuations.
        let x: Vec<f32> = (0..10_000).map(|i| 1.0e4 + (i as f32 * 0.01).sin()).collect();
        let y: Vec<f32> = x.iter().map(|&v| v + 1e-4).collect();
        let m = ErrorMetrics::compare(&x, &y).unwrap();
        assert!(m.pearson > 0.999_999, "rho {}", m.pearson);
    }

    #[test]
    fn compression_ratio_definition() {
        assert_eq!(compression_ratio(25, 100), 0.25);
        assert_eq!(compression_ratio(100, 100), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn compression_ratio_zero_original_panics() {
        compression_ratio(1, 0);
    }

    #[test]
    fn is_special_classifies() {
        assert!(is_special(FILL_VALUE));
        assert!(is_special(-FILL_VALUE));
        assert!(is_special(f32::NAN));
        assert!(is_special(f32::INFINITY));
        assert!(!is_special(1.0e20));
        assert!(!is_special(0.0));
        assert!(!is_special(-123.0));
    }

    #[test]
    fn psnr_matches_definition() {
        let x = [0.0f32, 10.0];
        let y = [1.0f32, 10.0];
        let m = ErrorMetrics::compare(&x, &y).unwrap();
        // rmse = sqrt(0.5), peak = 10.
        let expect = 20.0 * (10.0 / 0.5f64.sqrt()).log10();
        assert!((m.psnr - expect).abs() < 1e-12);
    }
}
