//! fpzip-style predictive floating-point compression.
//!
//! Follows the published fpzip design (Lindstrom & Isenburg, 2006):
//!
//! 1. map each float to an order-preserving unsigned integer (sign bit
//!    flipped for non-negative values, all bits inverted for negatives);
//! 2. in lossy mode, truncate the low `32 − p` bits, keeping `p` bits of
//!    precision — `p` must be a multiple of 8 (8/16/24/32; 32 is lossless
//!    for single-precision data), exactly the restriction the paper calls
//!    fpzip's "biggest drawback";
//! 3. predict each value with the 2-D Lorenzo predictor over the
//!    (level × horizontal) layout and entropy-code the residuals with
//!    adaptive Golomb-Rice codes.
//!
//! Truncating the *integer mapping* bounds the error at `< 2^(32−p)` ulps
//! of the value's exponent, i.e. a bounded **relative** error — the
//! property the paper contrasts with APAX's bounded absolute error.

use crate::{Codec, CodecError, CodecProperties, Layout};
use cc_lossless::bitio::{BitReader, BitWriter};

/// fpzip with `p` bits of retained precision (8, 16, 24, or 32).
#[derive(Debug, Clone, Copy)]
pub struct Fpzip {
    precision: u8,
}

impl Fpzip {
    /// Create an fpzip codec with `precision ∈ {8, 16, 24, 32}`.
    pub fn new(precision: u8) -> Self {
        assert!(
            matches!(precision, 8 | 16 | 24 | 32),
            "fpzip precision must be a multiple of 8 in 8..=32, got {precision}"
        );
        Fpzip { precision }
    }

    /// The lossless configuration (fpzip-32 for single-precision data).
    pub fn lossless() -> Self {
        Fpzip::new(32)
    }

    fn dropped_bits(&self) -> u32 {
        32 - self.precision as u32
    }
}

/// Order-preserving map from f32 bits to u32: non-negative floats map to
/// `bits | 0x8000_0000`, negatives to `!bits`. Monotone in the float value.
#[inline]
fn forward_map(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits & 0x8000_0000 == 0 {
        bits | 0x8000_0000
    } else {
        !bits
    }
}

/// Inverse of [`forward_map`].
#[inline]
fn inverse_map(m: u32) -> f32 {
    let bits = if m & 0x8000_0000 != 0 { m & 0x7FFF_FFFF } else { !m };
    f32::from_bits(bits)
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Residuals are Rice-coded in blocks with a per-block parameter chosen
/// from the mean residual magnitude.
const RICE_BLOCK: usize = 512;

fn rice_k_for(values: &[u64]) -> u32 {
    let mean =
        values.iter().map(|&v| v as u128).sum::<u128>() / values.len().max(1) as u128;
    // Optimal k for geometric sources ≈ log2(mean).
    let mut k = 0u32;
    while (1u128 << (k + 1)) <= mean + 1 && k < 40 {
        k += 1;
    }
    k
}

impl Codec for Fpzip {
    fn name(&self) -> String {
        format!("fpzip-{}", self.precision)
    }

    fn properties(&self) -> CodecProperties {
        // Table 1 row "fpzip": lossless Y, special N, free Y, fixed quality
        // N, fixed CR N, 32-&64-bit Y.
        CodecProperties {
            lossless_mode: true,
            special_values: false,
            freely_available: true,
            fixed_quality: false,
            fixed_cr: false,
            bits_32_and_64: true,
        }
    }

    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8> {
        assert_eq!(data.len(), layout.len(), "data length must match layout");
        let drop = self.dropped_bits();
        let mask = if drop == 0 { u32::MAX } else { u32::MAX << drop };
        let npts = layout.npts;

        // Truncated monotone integers (the values actually encoded).
        let ints: Vec<u32> = data.iter().map(|&v| forward_map(v) & mask).collect();

        // Lorenzo prediction over (level, horizontal-index): for interior
        // points pred = left + above − above-left, where "above" is the
        // same horizontal point on the previous level.
        let mut residuals: Vec<u64> = Vec::with_capacity(ints.len());
        for (i, &cur) in ints.iter().enumerate() {
            let lev = i / npts;
            let p = i % npts;
            let pred: i64 = match (lev > 0, p > 0) {
                (true, true) => {
                    ints[i - 1] as i64 + ints[i - npts] as i64 - ints[i - npts - 1] as i64
                }
                (true, false) => ints[i - npts] as i64,
                (false, true) => ints[i - 1] as i64,
                (false, false) => 0,
            };
            let r = cur as i64 - pred;
            // Residuals inherit the 2^drop divisibility of the inputs —
            // shift them out before coding.
            residuals.push(zigzag(r >> drop));
        }

        let mut out = Vec::new();
        crate::write_layout_header(&mut out, layout);
        let mut w = BitWriter::new();
        w.write_bits(self.precision as u64, 8);
        w.write_bits(0, 8); // entropy tag: always 0 (Rice)
        for block in residuals.chunks(RICE_BLOCK) {
            let k = rice_k_for(block);
            w.write_bits(k as u64, 6);
            for &r in block {
                w.write_rice(r, k);
            }
        }
        out.extend(w.finish());
        out
    }

    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        let bytes = crate::check_layout_header(bytes, layout)?;
        if bytes.len() < 2 {
            return Err(CodecError::Corrupt("truncated fpzip header"));
        }
        let precision = bytes[0];
        if precision != self.precision {
            return Err(CodecError::Corrupt("precision header mismatch"));
        }
        if bytes[1] != 0 {
            return Err(CodecError::Corrupt("unknown fpzip entropy tag"));
        }
        let drop = self.dropped_bits();
        let n = layout.len();
        let npts = layout.npts;
        let mut ints = vec![0u32; n];

        let mut r = BitReader::new(bytes);
        r.read_bits(16)?; // header
        let mut i = 0usize;
        while i < n {
            let block_len = RICE_BLOCK.min(n - i);
            let k = r.read_bits(6)? as u32;
            if k > 40 {
                return Err(CodecError::Corrupt("bad rice parameter"));
            }
            for _ in 0..block_len {
                let zz = r.read_rice(k)?;
                // Honest residuals fit 35 bits zigzagged (difference of u32s
                // against a 3-term Lorenzo prediction); anything bigger is
                // corrupt and would overflow the shift below.
                if zz > 1u64 << 36 {
                    return Err(CodecError::Corrupt("residual out of range"));
                }
                let res = unzigzag(zz) << drop;
                let lev = i / npts;
                let p = i % npts;
                let pred: i64 = match (lev > 0, p > 0) {
                    (true, true) => {
                        ints[i - 1] as i64 + ints[i - npts] as i64 - ints[i - npts - 1] as i64
                    }
                    (true, false) => ints[i - npts] as i64,
                    (false, true) => ints[i - 1] as i64,
                    (false, false) => 0,
                };
                let v = pred + res;
                if !(0..=u32::MAX as i64).contains(&v) {
                    return Err(CodecError::Corrupt("reconstructed int out of range"));
                }
                ints[i] = v as u32;
                i += 1;
            }
        }
        Ok(ints.into_iter().map(inverse_map).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{noisy_field, smooth_field};
    use crate::roundtrip;

    #[test]
    fn monotone_map_roundtrip_and_order() {
        let vals = [
            -1.0e30f32, -5.5, -1e-20, -0.0, 0.0, 1e-20, 0.5, 1.0, 2.0, 3.4e38,
        ];
        let mut prev = None;
        for &v in &vals {
            assert_eq!(inverse_map(forward_map(v)).to_bits(), v.to_bits());
            let m = forward_map(v);
            if let Some(p) = prev {
                assert!(m >= p, "map must be monotone at {v}");
            }
            prev = Some(m);
        }
    }

    #[test]
    fn lossless_mode_is_bit_exact() {
        let (data, layout) = smooth_field(2000, 3);
        let codec = Fpzip::lossless();
        let (back, n) = roundtrip(&codec, &data, layout);
        assert_eq!(back, data);
        assert!(n < data.len() * 4, "smooth data should compress: {n}");
    }

    #[test]
    fn lossless_on_noisy_data() {
        let (data, layout) = noisy_field(5000);
        let (back, _) = roundtrip(&Fpzip::lossless(), &data, layout);
        assert_eq!(back, data);
    }

    #[test]
    fn truncation_bounds_relative_error() {
        let (data, layout) = smooth_field(3000, 2);
        for precision in [16u8, 24] {
            let codec = Fpzip::new(precision);
            let (back, _) = roundtrip(&codec, &data, layout);
            let drop = 32 - precision as u32;
            for (&a, &b) in data.iter().zip(&back) {
                // Error below 2^drop ulps of the original's exponent:
                // relative error < 2^(drop − 23).
                let rel_bound = 2f64.powi(drop as i32 - 23);
                let rel = ((a as f64 - b as f64) / (a as f64).abs().max(1e-30)).abs();
                assert!(
                    rel <= rel_bound,
                    "p={precision}: {a} -> {b}, rel {rel} > {rel_bound}"
                );
            }
        }
    }

    #[test]
    fn lower_precision_compresses_more() {
        let (data, layout) = smooth_field(8000, 2);
        let n16 = Fpzip::new(16).compress(&data, layout).len();
        let n24 = Fpzip::new(24).compress(&data, layout).len();
        let n32 = Fpzip::new(32).compress(&data, layout).len();
        assert!(n16 < n24, "fpzip-16 {n16} vs fpzip-24 {n24}");
        assert!(n24 < n32, "fpzip-24 {n24} vs fpzip-32 {n32}");
    }

    #[test]
    fn truncated_reconstruction_is_idempotent() {
        // Compressing the reconstruction again must be lossless (values
        // already on the truncation lattice).
        let (data, layout) = smooth_field(1000, 1);
        let codec = Fpzip::new(16);
        let (once, _) = roundtrip(&codec, &data, layout);
        let (twice, _) = roundtrip(&codec, &once, layout);
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_field() {
        let layout = Layout::linear(0);
        let codec = Fpzip::lossless();
        let bytes = codec.compress(&[], layout);
        assert!(codec.decompress(&bytes, layout).unwrap().is_empty());
    }

    #[test]
    fn single_value() {
        let layout = Layout::linear(1);
        let codec = Fpzip::lossless();
        let (back, _) = roundtrip(&codec, &[42.5], layout);
        assert_eq!(back, vec![42.5]);
    }

    #[test]
    fn negative_and_mixed_sign_data() {
        let data: Vec<f32> = (0..4000).map(|i| ((i as f32) * 0.01).sin() * 25.0 - 5.0).collect();
        let layout = Layout::linear(4000);
        let (back, _) = roundtrip(&Fpzip::lossless(), &data, layout);
        assert_eq!(back, data);
    }

    #[test]
    fn corrupt_stream_is_error_not_panic() {
        let (data, layout) = smooth_field(500, 1);
        let codec = Fpzip::new(16);
        let mut bytes = codec.compress(&data, layout);
        bytes.truncate(bytes.len() / 2);
        assert!(codec.decompress(&bytes, layout).is_err());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn invalid_precision_rejected() {
        Fpzip::new(20);
    }

    #[test]
    fn nonzero_entropy_tag_is_corrupt() {
        // Byte 1 after the layout header tags the entropy coder; Rice (0)
        // is the only one, so any other tag is a damaged stream.
        let (data, layout) = smooth_field(1000, 1);
        let codec = Fpzip::new(24);
        let mut bytes = codec.compress(&data, layout);
        assert_eq!(bytes[crate::LAYOUT_HEADER_LEN + 1], 0);
        bytes[crate::LAYOUT_HEADER_LEN + 1] = 1;
        assert_eq!(
            codec.decompress(&bytes, layout),
            Err(CodecError::Corrupt("unknown fpzip entropy tag"))
        );
    }

    #[test]
    fn properties_match_table1() {
        let p = Fpzip::lossless().properties();
        assert!(p.lossless_mode);
        assert!(!p.special_values);
        assert!(p.freely_available);
        assert!(!p.fixed_quality);
        assert!(!p.fixed_cr);
        assert!(p.bits_32_and_64);
    }
}
