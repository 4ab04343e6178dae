//! GRIB2-style packing with JPEG2000-class transform coding.
//!
//! Reproduces the pipeline the paper evaluates as "GRIB2 + jpeg2000":
//!
//! 1. **Decimal scaling** (WMO GRIB2 packing): each 2-D level is mapped to
//!    non-negative integers `y = round((x − R) · 10^D)` with reference
//!    value `R` = level minimum and decimal scale factor `D`. This is the
//!    lossy step; the absolute error is bounded by `0.5 · 10^−D`. As the
//!    paper stresses, `D` must be customized per variable — a single global
//!    `D` performs terribly across variables whose magnitudes differ by
//!    eleven orders.
//! 2. **Bitmap section**: missing points (the 1e35 fill) are recorded in a
//!    present/absent bitmap exactly as GRIB2 does — making this the only
//!    evaluated method with native special-value support (Table 1).
//! 3. **JPEG2000-class coding**: the integer level is embedded in the
//!    grid's latitude-major 2-D layout, transformed with the reversible
//!    CDF 5/3 wavelet ([`crate::wavelet`]), and the coefficients are
//!    entropy-coded with adaptive Golomb-Rice blocks. The transform stage
//!    is exactly invertible, so quantization remains the only loss.

use crate::{Codec, CodecError, CodecProperties, Layout};
use cc_lossless::bitio::{BitReader, BitWriter};

/// Magnitude at which a value counts as missing (CESM fill is 1e35).
const SPECIAL_THRESHOLD: f32 = 1.0e30;
/// The fill value written back for missing points.
const FILL: f32 = 1.0e35;

/// Wavelet decomposition levels.
const WAVELET_LEVELS: usize = 3;
/// Rice coding block size for coefficients.
const RICE_BLOCK: usize = 512;

/// The decimal scale factors [`Grib2::fixed`] accepts.
pub const DECIMAL_SCALES: std::ops::RangeInclusive<i32> = -30..=30;

/// Decimal-scale policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DScale {
    /// Choose `D` from each level's range so the scaled integers use about
    /// 16 bits — the "specify a D for each variable depending on its
    /// magnitude" customization the paper describes.
    Auto,
    /// A fixed `D` (the paper's initial, poorly performing global setting,
    /// or the output of the RMSZ-ensemble-guided search).
    Fixed(i32),
}

/// The GRIB2+JPEG2000 codec.
#[derive(Debug, Clone, Copy)]
pub struct Grib2 {
    dscale: DScale,
}

impl Grib2 {
    /// Magnitude-adaptive decimal scaling (the paper's presented variant).
    pub fn auto() -> Self {
        Grib2 { dscale: DScale::Auto }
    }

    /// Fixed decimal scale factor `D`.
    pub fn fixed(d: i32) -> Self {
        assert!(DECIMAL_SCALES.contains(&d), "decimal scale out of range");
        Grib2 { dscale: DScale::Fixed(d) }
    }

    /// The policy in use.
    pub fn dscale(&self) -> DScale {
        self.dscale
    }

    /// Magnitude-based choice of `D` for a level with the given range:
    /// scale so the quantized range occupies roughly 13 bits. (WMO
    /// practice keeps packed fields near 12-16 bits; the paper tuned each
    /// variable's D by magnitude and then by the RMSZ ensemble test.)
    pub fn auto_decimal_scale(range: f64) -> i32 {
        if range <= 0.0 {
            return 0;
        }
        ((8_192.0 / range).log10().floor() as i32).clamp(-30, 30)
    }

    fn level_d(&self, range: f64) -> i32 {
        match self.dscale {
            DScale::Auto => Self::auto_decimal_scale(range),
            DScale::Fixed(d) => d,
        }
    }
}

fn rice_k_for(values: &[u64]) -> u32 {
    let mean = values.iter().map(|&v| v as u128).sum::<u128>() / values.len().max(1) as u128;
    let mut k = 0u32;
    while (1u128 << (k + 1)) <= mean + 1 && k < 40 {
        k += 1;
    }
    k
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

impl Codec for Grib2 {
    fn name(&self) -> String {
        match self.dscale {
            DScale::Auto => "GRIB2".to_string(),
            DScale::Fixed(d) => format!("GRIB2(D={d})"),
        }
    }

    fn properties(&self) -> CodecProperties {
        // Table 1 row "GRIB2 + jpeg2000": lossless N (format conversion is
        // itself lossy), special Y (bitmap), free Y, fixed quality N,
        // fixed CR N, 32-&64-bit N (GRIB2 packs to its own integer format).
        CodecProperties {
            lossless_mode: false,
            special_values: true,
            freely_available: true,
            fixed_quality: false,
            fixed_cr: false,
            bits_32_and_64: false,
        }
    }

    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8> {
        assert_eq!(data.len(), layout.len(), "data length must match layout");
        let (npts, rows, cols) = (layout.npts, layout.rows, layout.cols);
        assert!(rows * cols >= npts, "2-D embedding smaller than point list");
        let mut out = Vec::new();
        crate::write_layout_header(&mut out, layout);
        let mut w = BitWriter::new();
        for lev in 0..layout.nlev {
            let level = &data[lev * npts..(lev + 1) * npts];

            // Bitmap section (only when anything is missing).
            let missing: Vec<bool> = level.iter().map(|&v| !v.is_finite() || v.abs() >= SPECIAL_THRESHOLD).collect();
            let any_missing = missing.iter().any(|&m| m);
            w.write_bit(any_missing);
            if any_missing {
                for &m in &missing {
                    w.write_bit(m);
                }
            }

            // Reference value and decimal scale.
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for (&v, &m) in level.iter().zip(&missing) {
                if !m {
                    min = min.min(v as f64);
                    max = max.max(v as f64);
                }
            }
            let present_any = min.is_finite();
            w.write_bit(present_any);
            if !present_any {
                continue; // fully missing level: bitmap says it all
            }
            let d = self.level_d(max - min);
            let scale = 10f64.powi(d);
            w.write_bits((d + 64) as u64, 8);
            w.write_bits(min.to_bits() & ((1u64 << 57) - 1), 57);
            w.write_bits(min.to_bits() >> 57, 7);

            // Quantize into the 2-D embedding (missing and padding → 0).
            let mut field = vec![0i64; rows * cols];
            for (p, (&v, &m)) in level.iter().zip(&missing).enumerate() {
                if !m {
                    field[p] = ((v as f64 - min) * scale).round() as i64;
                }
            }

            // Second stage: the JPEG2000-class wavelet, exactly invertible.
            crate::wavelet::fwd53_2d(&mut field, rows, cols, WAVELET_LEVELS);
            for block in field.chunks(RICE_BLOCK) {
                let zz: Vec<u64> = block.iter().map(|&v| zigzag(v)).collect();
                let k = rice_k_for(&zz);
                w.write_bits(k as u64, 6);
                for &z in &zz {
                    w.write_rice(z, k);
                }
            }
        }
        out.extend(w.finish());
        out
    }

    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        let bytes = crate::check_layout_header(bytes, layout)?;
        let (npts, rows, cols) = (layout.npts, layout.rows, layout.cols);
        if rows.checked_mul(cols).is_none_or(|rc| rc < npts) {
            return Err(CodecError::LayoutMismatch);
        }
        let mut r = BitReader::new(bytes);
        let mut out = Vec::with_capacity(layout.len());
        for _lev in 0..layout.nlev {
            let any_missing = r.read_bit()?;
            let mut missing = vec![false; npts];
            if any_missing {
                for m in missing.iter_mut() {
                    *m = r.read_bit()?;
                }
            }
            let present_any = r.read_bit()?;
            if !present_any {
                out.extend(std::iter::repeat_n(FILL, npts));
                continue;
            }
            let d = r.read_bits(8)? as i32 - 64;
            if !(-40..=40).contains(&d) {
                return Err(CodecError::Corrupt("bad decimal scale"));
            }
            let lo = r.read_bits(57)?;
            let hi = r.read_bits(7)?;
            let min = f64::from_bits(lo | (hi << 57));
            if !min.is_finite() {
                return Err(CodecError::Corrupt("bad reference value"));
            }
            let inv_scale = 10f64.powi(-d);

            let mut field = vec![0i64; rows * cols];
            let mut i = 0usize;
            while i < field.len() {
                let n = RICE_BLOCK.min(field.len() - i);
                let k = r.read_bits(6)?;
                if k > 40 {
                    return Err(CodecError::Corrupt("bad rice parameter"));
                }
                for slot in field[i..i + n].iter_mut() {
                    *slot = unzigzag(r.read_rice(k as u32)?);
                }
                i += n;
            }
            crate::wavelet::inv53_2d(&mut field, rows, cols, WAVELET_LEVELS);
            for (p, &m) in missing.iter().enumerate() {
                if m {
                    out.push(FILL);
                } else {
                    out.push((min + field[p] as f64 * inv_scale) as f32);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roundtrip;
    use crate::testdata::{noisy_field, smooth_field};

    #[test]
    fn error_bounded_by_decimal_scale() {
        let (data, layout) = smooth_field(3000, 2);
        for d in [0i32, 1, 2] {
            let codec = Grib2::fixed(d);
            let (back, _) = roundtrip(&codec, &data, layout);
            let bound = 0.5 * 10f64.powi(-d) + 1e-4; // + f32 cast slack
            for (&a, &b) in data.iter().zip(&back) {
                let err = (a as f64 - b as f64).abs();
                assert!(err <= bound, "D={d}: err {err} > {bound}");
            }
        }
    }

    #[test]
    fn auto_scale_tracks_magnitude() {
        // Range 450 (FSDSC-like) → D ≈ 2; range 1e-8 (SO2-like) → large D.
        let d_flux = Grib2::auto_decimal_scale(450.0);
        let d_chem = Grib2::auto_decimal_scale(1e-8);
        assert!((1..=3).contains(&d_flux), "flux D {d_flux}");
        assert!(d_chem > 10, "chem D {d_chem}");
        assert_eq!(Grib2::auto_decimal_scale(0.0), 0);
    }

    #[test]
    fn auto_mode_roundtrips_with_relative_accuracy() {
        let (data, layout) = smooth_field(4000, 1);
        let codec = Grib2::auto();
        let (back, _) = roundtrip(&codec, &data, layout);
        let range = 330.0 - 150.0;
        for (&a, &b) in data.iter().zip(&back) {
            let err = (a as f64 - b as f64).abs() / range;
            assert!(err < 1e-3, "normalized err {err}");
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let (data, layout) = smooth_field(8192, 1);
        let bytes = Grib2::auto().compress(&data, layout);
        let cr = bytes.len() as f64 / (data.len() * 4) as f64;
        assert!(cr < 0.5, "smooth-field CR {cr}");
    }

    #[test]
    fn special_values_roundtrip_natively() {
        let (mut data, layout) = smooth_field(2000, 1);
        for i in (0..2000).step_by(7) {
            data[i] = 1.0e35;
        }
        let codec = Grib2::auto();
        let (back, _) = roundtrip(&codec, &data, layout);
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            if a == 1.0e35 {
                assert_eq!(b, 1.0e35, "fill lost at {i}");
            } else {
                assert!((a - b).abs() < 0.1, "value at {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fully_missing_level() {
        let data = vec![1.0e35f32; 500];
        let layout = Layout::linear(500);
        let (back, _) = roundtrip(&Grib2::auto(), &data, layout);
        assert!(back.iter().all(|&v| v == 1.0e35));
    }

    #[test]
    fn constant_level() {
        let data = vec![42.0f32; 1000];
        let layout = Layout::linear(1000);
        let (back, n) = roundtrip(&Grib2::auto(), &data, layout);
        for &v in &back {
            assert!((v - 42.0).abs() < 1e-3);
        }
        assert!(n < 1000, "constant field should compress to almost nothing: {n}");
    }

    #[test]
    fn large_range_lognormal_data_quantizes_coarsely() {
        // The paper's CCN3 observation: with magnitude-based D, a huge
        // range forces coarse *relative* quantization of small values.
        let (data, layout) = noisy_field(4096);
        let codec = Grib2::auto();
        let (back, _) = roundtrip(&codec, &data, layout);
        let mut worst_rel: f64 = 0.0;
        for (&a, &b) in data.iter().zip(&back) {
            if a.abs() > 0.0 {
                worst_rel = worst_rel.max(((a as f64 - b as f64) / a as f64).abs());
            }
        }
        // Small values get large relative errors — the failure mode GRIB2
        // shows on CCN3 in Figures 2-4.
        assert!(worst_rel > 1e-3, "expected coarse relative error, got {worst_rel}");
    }

    #[test]
    fn negative_values_handled() {
        let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin() * 50.0 - 10.0).collect();
        let layout = Layout::linear(2048);
        let (back, _) = roundtrip(&Grib2::fixed(2), &data, layout);
        for (&a, &b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 0.005 + 1e-4);
        }
    }

    #[test]
    fn multi_level_fields() {
        let (data, layout) = smooth_field(1500, 4);
        let (back, _) = roundtrip(&Grib2::auto(), &data, layout);
        assert_eq!(back.len(), data.len());
    }

    #[test]
    fn corrupt_stream_is_error() {
        let (data, layout) = smooth_field(1000, 1);
        let codec = Grib2::auto();
        let bytes = codec.compress(&data, layout);
        assert!(codec.decompress(&bytes[..4], layout).is_err());
    }

    #[test]
    fn properties_match_table1() {
        let p = Grib2::auto().properties();
        assert!(!p.lossless_mode);
        assert!(p.special_values, "GRIB2 is the only method with a bitmap");
        assert!(p.freely_available);
        assert!(!p.fixed_quality);
        assert!(!p.fixed_cr);
        assert!(!p.bits_32_and_64);
    }
}
