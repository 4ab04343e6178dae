//! APAX-style adaptive block-floating-point compression.
//!
//! Reimplements the observable behaviour of Samplify's APAX encoder as
//! described in the paper and its references (Hübbe et al. ISC'13, Laney
//! et al. SC'13, and US patent 7,009,533): the signal is cut into blocks,
//! an *adaptive pre-filter*
//! chooses a derivative order (0, 1, or 2) per block according to the
//! block's dominant frequency content, samples are represented in
//! block-floating-point form (shared exponent + mantissas), and mantissas
//! are packed with either
//!
//! * **fixed-rate** operation — an exact bit budget per block, so the
//!   overall compression ratio is exactly `1/rate` ("the only method that
//!   allows for the specification of fixed compression rates", Section
//!   3.2.4), quality varying; or
//! * **fixed-quality** operation — a per-block quantization chosen to meet
//!   an absolute error target, rate varying.
//!
//! Quantization bounds the **absolute** error (the paper's fpzip/APAX
//! contrast). [`Profiler`] reproduces the APAX profiler tool: it sweeps
//! encoding rates and recommends the highest rate whose reconstruction
//! keeps the Pearson correlation above 0.99999.

use crate::{Codec, CodecError, CodecProperties, Layout};
use cc_lossless::bitio::{BitReader, BitWriter};

/// Samples per block.
pub const BLOCK: usize = 256;

/// Mantissa bits used for the block-floating-point representation before
/// rate reduction (f32 has 24 significant bits; +2 headroom for the
/// second derivative).
const BFP_BITS: u32 = 26;

/// Operating mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Exact compression rate (e.g. 2.0, 4.0, 5.0): output bits per sample
    /// = 32/rate, enforced per block.
    FixedRate(f64),
    /// Absolute error target in units of the data: quantization step is
    /// chosen per block so `|x − x̃| ≤ target`.
    FixedQuality(f64),
    /// Lossless (rate 1): full-precision mantissas.
    Lossless,
}

/// The APAX-style codec.
#[derive(Debug, Clone, Copy)]
pub struct Apax {
    mode: Mode,
}

impl Apax {
    /// Fixed-rate encoder (`rate > 1`), e.g. `Apax::fixed_rate(4.0)` for
    /// the paper's APAX-4.
    pub fn fixed_rate(rate: f64) -> Self {
        assert!(rate > 1.0 && rate <= 32.0, "rate must be in (1, 32]");
        Apax { mode: Mode::FixedRate(rate) }
    }

    /// Fixed-quality encoder with an absolute error target.
    pub fn fixed_quality(max_abs_err: f64) -> Self {
        assert!(max_abs_err > 0.0, "error target must be positive");
        Apax { mode: Mode::FixedQuality(max_abs_err) }
    }

    /// Lossless mode (32-bit data only, as Table 1 footnotes).
    pub fn lossless() -> Self {
        Apax { mode: Mode::Lossless }
    }

    /// The mode this encoder runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The paper's fixed rates: APAX-2, APAX-4, APAX-5.
    pub fn paper_variants() -> [Apax; 3] {
        [Apax::fixed_rate(2.0), Apax::fixed_rate(4.0), Apax::fixed_rate(5.0)]
    }
}

/// Choose the derivative order whose differenced signal has the smallest
/// mean magnitude — APAX's adaptive pre-filter ("center frequency"
/// detection): smooth low-frequency blocks benefit from differencing,
/// noisy blocks do not.
fn choose_derivative(q: &[i64]) -> u32 {
    let sum_abs = |v: &[i64]| v.iter().map(|&x| x.unsigned_abs() as u128).sum::<u128>();
    let d0 = sum_abs(q);
    let d1v: Vec<i64> = q.windows(2).map(|w| w[1] - w[0]).collect();
    let d1 = sum_abs(&d1v);
    let d2v: Vec<i64> = d1v.windows(2).map(|w| w[1] - w[0]).collect();
    let d2 = sum_abs(&d2v);
    if d0 <= d1 && d0 <= d2 {
        0
    } else if d1 <= d2 {
        1
    } else {
        2
    }
}

// Differencing and its inverse wrap: corrupt streams can decode mantissas
// near the i64 extremes, and wrapping keeps the pair exactly inverse while
// never trapping on overflow.
fn apply_derivative(q: &mut [i64], order: u32) {
    for _ in 0..order {
        for i in (1..q.len()).rev() {
            q[i] = q[i].wrapping_sub(q[i - 1]);
        }
    }
}

fn integrate(q: &mut [i64], order: u32) {
    for _ in 0..order {
        for i in 1..q.len() {
            q[i] = q[i].wrapping_add(q[i - 1]);
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bits needed for the largest zigzagged magnitude in `q`.
fn bits_needed(q: &[i64]) -> u32 {
    let max = q.iter().map(|&v| zigzag(v)).max().unwrap_or(0);
    64 - max.leading_zeros()
}

/// Rice parameter minimizing the exact coded size: start from the
/// log2(mean) estimate and descend the (convex) size curve.
fn rice_k_for(zz: &[u64]) -> u32 {
    let mean = zz.iter().map(|&v| v as u128).sum::<u128>() / zz.len().max(1) as u128;
    let mut k = 0u32;
    while (1u128 << (k + 1)) <= mean + 1 && k < 40 {
        k += 1;
    }
    let mut best = (rice_size(zz, k), k);
    for cand in k.saturating_sub(2)..=(k + 2).min(40) {
        let size = rice_size(zz, cand);
        if size < best.0 {
            best = (size, cand);
        }
    }
    best.1
}

/// Split a residual stream into (up to) four equal quarters, each of which
/// carries its own Rice parameter.
fn quarters(zz: &[u64]) -> impl Iterator<Item = &[u64]> {
    let chunk = zz.len().div_ceil(4).max(1);
    zz.chunks(chunk)
}

/// Exact bit count `write_rice` will produce for `zz` at parameter `k`
/// (including the 48-one escape used for huge quotients).
fn rice_size(zz: &[u64], k: u32) -> u64 {
    let mut bits = 0u64;
    for &v in zz {
        let q = v >> k;
        if q < 48 {
            bits += q + 1 + k as u64;
        } else {
            bits += 48 + 64;
        }
    }
    bits
}

/// Exact bits of `zz` Rice-coded the way the fixed-rate writer codes it:
/// each quarter at its own best parameter.
fn rice_bits(zz: &[u64]) -> u64 {
    quarters(zz).map(|quarter| rice_size(quarter, rice_k_for(quarter))).sum()
}

/// Block header: exp(16) + order(2) + shift s(6) + width W(6) bits.
const HEADER_BITS: u64 = 30;

/// Fixed-rate bit budget for a block of `n` samples. The floor covers the
/// worst-case framing (header + three extra Rice parameters + two verbatim
/// warm-up samples + one bit per sample) so tiny trailing blocks stay
/// representable; it only lifts the budget for blocks far smaller than
/// [`BLOCK`].
fn block_budget_bits(n: usize, rate: f64) -> u64 {
    (((n as f64) * 32.0 / rate).floor() as u64).max(HEADER_BITS + 18 + 2 * 28 + n as u64)
}

/// Block floating point: the shared exponent from the block's max
/// magnitude, the scale it implies, and the samples as signed mantissas of
/// BFP_BITS precision.
fn block_mantissas(block: &[f32]) -> (i32, f64, Vec<i64>) {
    let max_abs = block.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let exp = if max_abs == 0.0 { -126 } else { max_abs.log2().floor() as i32 };
    let scale = 2f64.powi(BFP_BITS as i32 - 2 - exp);
    (exp, scale, block.iter().map(|&v| (v as f64 * scale).round() as i64).collect())
}

impl Apax {
    /// Quantize mantissas by `s` bits (round-to-nearest, in the original
    /// domain so the error is bounded per sample with no integration
    /// amplification), then apply the derivative pre-filter losslessly,
    /// into `out`.
    fn quantize_and_filter(q: &[i64], s: u32, order: u32, out: &mut Vec<i64>) {
        out.clear();
        out.extend(q.iter().map(|&v| round_shift(v, s)));
        apply_derivative(out, order);
    }

    /// The smallest quantization shift (at most 40) whose Rice-coded
    /// residuals fit `payload` bits, so smooth blocks spend the rate on
    /// extra precision instead of padding. `filtered` ends up holding that
    /// shift's filtered mantissas.
    ///
    /// A Rice code of v costs at least bitlen(v) + 1 bits at any k: k ≥ b
    /// costs 1 + k, k < b costs 2^(b−1−k) + 1 + k ≥ b + 1, and the escape
    /// 112. A shift whose sum of those floors exceeds the payload cannot
    /// fit, so the zigzag pass rejects it without sizing the Rice codes.
    fn fit_shift(q: &[i64], order: usize, payload: u64, filtered: &mut Vec<i64>) -> u32 {
        let mut zz = Vec::with_capacity(q.len());
        let mut s = 0u32;
        loop {
            Self::quantize_and_filter(q, s, order as u32, filtered);
            zz.clear();
            let mut floor = 0u64;
            for &v in &filtered[order..] {
                let z = zigzag(v);
                floor += u64::from(64 - z.leading_zeros()) + 1;
                zz.push(z);
            }
            if s >= 40 || (floor <= payload && rice_bits(&zz) <= payload) {
                return s;
            }
            s += 1;
        }
    }

    fn compress_block(&self, block: &[f32], w: &mut BitWriter) {
        let n = block.len();
        let (exp, scale, q) = block_mantissas(block);

        // Adaptive derivative pre-filter (chosen on unquantized mantissas).
        let order = (choose_derivative(&q) as usize).min(n);
        // The first `order` filtered samples are derivative warm-ups that
        // still carry the block's full (DC) magnitude; coding them verbatim
        // keeps the quantization shift `s` from being forced up by them.
        const WARMUP_BITS: u64 = 28; // zigzagged 26-bit BFP mantissas

        // Choose the quantization shift `s`.
        let mut filtered = Vec::with_capacity(n);
        let s = match self.mode {
            Mode::Lossless => {
                Self::quantize_and_filter(&q, 0, order as u32, &mut filtered);
                0
            }
            Mode::FixedQuality(target) => {
                // Quantizing mantissas by s bits gives |err| ≤ 2^(s−1)/scale.
                let max_step = (target * scale).max(1.0);
                let s = (max_step.log2().floor().max(0.0) as u32).min(40);
                Self::quantize_and_filter(&q, s, order as u32, &mut filtered);
                s
            }
            Mode::FixedRate(rate) => {
                let budget = block_budget_bits(n, rate);
                let payload = budget.saturating_sub(
                    HEADER_BITS + 3 * 6 + order as u64 * WARMUP_BITS,
                );
                Self::fit_shift(&q, order, payload, &mut filtered)
            }
        };

        let start_bits = w.bit_len();
        w.write_bits(exp as i64 as u64 & 0xFFFF, 16);
        w.write_bits(order as u64, 2);
        w.write_bits(s as u64, 6);
        match self.mode {
            Mode::FixedRate(rate) => {
                // Rice-coded payload padded to the exact block budget —
                // fixed rate means fixed size. Each quarter of the block
                // carries its own Rice parameter (values spanning decades
                // within a block are common for lognormal variables); the
                // 6-bit header field holds the first.
                let zz: Vec<u64> = filtered[order..].iter().map(|&v| zigzag(v)).collect();
                let mut ks: Vec<u32> = quarters(&zz).map(rice_k_for).collect();
                ks.resize(4, 0);
                for &k in &ks {
                    w.write_bits(k as u64, 6);
                }
                for &v in &filtered[..order] {
                    w.write_bits(zigzag(v), WARMUP_BITS as u32);
                }
                for (quarter, &k) in quarters(&zz).zip(&ks) {
                    for &z in quarter {
                        w.write_rice(z, k);
                    }
                }
                let target = block_budget_bits(n, rate) as usize;
                let used = w.bit_len() - start_bits;
                debug_assert!(used <= target, "block overran its budget: {used} > {target}");
                let mut pad = target - used;
                while pad > 0 {
                    let chunk = pad.min(48);
                    w.write_bits(0, chunk as u32);
                    pad -= chunk;
                }
            }
            _ => {
                // Uniform-width packing (after verbatim warm-ups) for
                // lossless / fixed-quality modes.
                let width = bits_needed(&filtered[order..]).clamp(1, 56);
                w.write_bits(width as u64, 6);
                for &v in &filtered[..order] {
                    w.write_bits(zigzag(v), WARMUP_BITS as u32);
                }
                let maxv = if width >= 63 { u64::MAX } else { (1u64 << width) - 1 };
                for &v in &filtered[order..] {
                    w.write_bits(zigzag(v).min(maxv), width);
                }
            }
        }
    }

    fn decompress_block(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
    ) -> Result<Vec<f32>, CodecError> {
        let start = r.bits_consumed();
        let exp = (r.read_bits(16)? as u16) as i16 as i32;
        let order = r.read_bits(2)? as u32;
        let s = r.read_bits(6)? as u32;
        let field = r.read_bits(6)? as u32; // Rice k (fixed-rate) or width
        if order > 2 {
            return Err(CodecError::Corrupt("bad APAX block header"));
        }
        let warmup = (order as usize).min(n);
        let mut q = Vec::with_capacity(n);
        if let Mode::FixedRate(rate) = self.mode {
            let mut ks = [field, 0, 0, 0];
            for slot in ks.iter_mut().skip(1) {
                *slot = r.read_bits(6)? as u32;
            }
            if ks.iter().any(|&k| k > 40) {
                return Err(CodecError::Corrupt("bad APAX rice parameter"));
            }
            for _ in 0..warmup {
                q.push(unzigzag(r.read_bits(28)?));
            }
            let rest = n - warmup;
            let chunk = rest.div_ceil(4).max(1);
            for i in 0..rest {
                let k = ks[(i / chunk).min(3)];
                q.push(unzigzag(r.read_rice(k)?));
            }
            integrate(&mut q, order);
            // Skip the block's padding.
            let target = block_budget_bits(n, rate) as usize;
            let used = r.bits_consumed() - start;
            if used > target {
                return Err(CodecError::Corrupt("APAX block exceeds fixed-rate budget"));
            }
            let mut pad = target - used;
            while pad > 0 {
                let chunk = pad.min(48);
                r.read_bits(chunk as u32)?;
                pad -= chunk;
            }
        } else {
            let width = field;
            if width == 0 || width > 56 {
                return Err(CodecError::Corrupt("bad APAX block header"));
            }
            for _ in 0..warmup {
                q.push(unzigzag(r.read_bits(28)?));
            }
            for _ in warmup..n {
                let zz = r.read_bits(width)?;
                q.push(unzigzag(zz));
            }
            integrate(&mut q, order);
        }
        let shift = BFP_BITS as i32 - 2 - exp;
        let inv_scale = 2f64.powi(-(shift - s as i32));
        Ok(q.into_iter().map(|v| (v as f64 * inv_scale) as f32).collect())
    }
}

/// Round-to-nearest arithmetic right shift.
#[inline]
fn round_shift(v: i64, s: u32) -> i64 {
    if s == 0 {
        v
    } else {
        (v + (1i64 << (s - 1))) >> s
    }
}

impl Codec for Apax {
    fn name(&self) -> String {
        match self.mode {
            Mode::FixedRate(r) => format!("APAX-{}", r),
            Mode::FixedQuality(q) => format!("APAX-q{q:.0e}"),
            Mode::Lossless => "APAX-lossless".to_string(),
        }
    }

    fn properties(&self) -> CodecProperties {
        // Table 1 row "APAX": lossless Y (32-bit only), special N, freely
        // available N (commercial), fixed quality Y, fixed CR Y, 32&64 Y.
        CodecProperties {
            lossless_mode: true,
            special_values: false,
            freely_available: false,
            fixed_quality: true,
            fixed_cr: true,
            bits_32_and_64: true,
        }
    }

    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8> {
        assert_eq!(data.len(), layout.len(), "data length must match layout");
        let mut out = Vec::new();
        crate::write_layout_header(&mut out, layout);
        let mut w = BitWriter::new();
        for block in data.chunks(BLOCK) {
            self.compress_block(block, &mut w);
        }
        out.extend(w.finish());
        out
    }

    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        let bytes = crate::check_layout_header(bytes, layout)?;
        let n = layout.len();
        let mut r = BitReader::new(bytes);
        let mut out = Vec::with_capacity(n);
        let mut done = 0usize;
        while done < n {
            let len = BLOCK.min(n - done);
            out.extend(self.decompress_block(&mut r, len)?);
            done += len;
        }
        Ok(out)
    }
}

/// The APAX profiler: sweeps fixed rates, reports quality per rate, and
/// recommends the highest rate meeting the correlation threshold the paper
/// adopts (ρ ≥ 0.99999).
#[derive(Debug)]
pub struct Profiler {
    /// Rates to sweep, descending aggressiveness.
    pub rates: Vec<f64>,
    /// Correlation threshold for the recommendation.
    pub rho_threshold: f64,
}

/// One profiler measurement.
#[derive(Debug, Clone, Copy)]
pub struct ProfileEntry {
    /// Encoding rate (CR = 1/rate).
    pub rate: f64,
    /// Pearson correlation of reconstruction vs original.
    pub pearson: f64,
    /// Maximum absolute error.
    pub max_abs_err: f64,
    /// Compressed size in bytes.
    pub bytes: usize,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler { rates: vec![8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0], rho_threshold: 0.99999 }
    }
}

impl Profiler {
    /// Profile `data`, returning per-rate quality and the recommended rate
    /// (the most aggressive meeting the threshold; `None` if none does).
    pub fn profile(&self, data: &[f32], layout: Layout) -> (Vec<ProfileEntry>, Option<f64>) {
        let mut entries = Vec::new();
        let mut recommended = None;
        for &rate in &self.rates {
            let codec = Apax::fixed_rate(rate);
            let bytes = codec.compress(data, layout);
            let back = codec.decompress(&bytes, layout).expect("own stream");
            let (rho, max_err) = quality(data, &back);
            entries.push(ProfileEntry { rate, pearson: rho, max_abs_err: max_err, bytes: bytes.len() });
            if recommended.is_none() && rho >= self.rho_threshold {
                recommended = Some(rate);
            }
        }
        (entries, recommended)
    }
}

fn quality(a: &[f32], b: &[f32]) -> (f64, f64) {
    let n = a.len() as f64;
    if a.is_empty() {
        return (1.0, 0.0);
    }
    let ma = a.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mb = b.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut sab = 0.0;
    let mut saa = 0.0;
    let mut sbb = 0.0;
    let mut emax = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let (x, y) = (x as f64, y as f64);
        sab += (x - ma) * (y - mb);
        saa += (x - ma) * (x - ma);
        sbb += (y - mb) * (y - mb);
        emax = emax.max((x - y).abs());
    }
    let rho = if saa <= 0.0 || sbb <= 0.0 { 1.0 } else { sab / (saa.sqrt() * sbb.sqrt()) };
    (rho, emax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roundtrip;
    use crate::testdata::{noisy_field, smooth_field};

    #[test]
    fn fixed_rate_hits_exact_budget() {
        let (data, layout) = smooth_field(BLOCK * 8, 1);
        for rate in [2.0f64, 4.0, 5.0] {
            let codec = Apax::fixed_rate(rate);
            let bytes = codec.compress(&data, layout);
            let expect = (data.len() as f64 * 4.0 / rate).ceil();
            let got = bytes.len() as f64;
            assert!(
                (got - expect).abs() <= expect * 0.01 + 16.0,
                "rate {rate}: {got} bytes vs expected {expect}"
            );
        }
    }

    #[test]
    fn fixed_rate_roundtrips_with_small_error() {
        let (data, layout) = smooth_field(BLOCK * 4 + 57, 2);
        for rate in [2.0f64, 4.0, 5.0] {
            let codec = Apax::fixed_rate(rate);
            let (back, _) = roundtrip(&codec, &data, layout);
            assert_eq!(back.len(), data.len());
            let range = 330.0f64;
            for (&a, &b) in data.iter().zip(&back) {
                let err = (a as f64 - b as f64).abs() / range;
                assert!(err < 0.05, "rate {rate}: normalized err {err}");
            }
        }
    }

    #[test]
    fn higher_rate_means_higher_error() {
        let (data, layout) = smooth_field(BLOCK * 8, 1);
        let err = |rate: f64| -> f64 {
            let (back, _) = roundtrip(&Apax::fixed_rate(rate), &data, layout);
            data.iter()
                .zip(&back)
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .fold(0.0, f64::max)
        };
        let e2 = err(2.0);
        let e5 = err(5.0);
        assert!(e5 > e2, "rate 5 err {e5} must exceed rate 2 err {e2}");
    }

    #[test]
    fn lossless_mode_is_block_exact() {
        // Block floating point is exact relative to the block's shared
        // exponent: |err| ≤ block_max · 2^-24. Samples much smaller than
        // their block's max necessarily lose trailing mantissa bits — the
        // reason Table 1 footnotes APAX's lossless mode.
        let (data, layout) = noisy_field(BLOCK * 3 + 11);
        let (back, _) = roundtrip(&Apax::lossless(), &data, layout);
        for (block_a, block_b) in data.chunks(BLOCK).zip(back.chunks(BLOCK)) {
            let max = block_a.iter().fold(0.0f64, |m, &v| m.max(v.abs() as f64));
            let tol = max.max(1e-300) * 2f64.powi(-23);
            for (&a, &b) in block_a.iter().zip(block_b) {
                let err = (a as f64 - b as f64).abs();
                assert!(err <= tol, "{a} -> {b} (err {err}, tol {tol})");
            }
        }
    }

    /// The fixed-rate search before the Rice-size floor: each shift from
    /// 0 up is quantized, filtered, zigzagged and Rice-sized until one
    /// fits. Kept as the oracle for `fit_shift`.
    fn linear_shift(q: &[i64], order: usize, payload: u64) -> (u32, Vec<i64>) {
        let mut s = 0u32;
        loop {
            let mut f = Vec::new();
            Apax::quantize_and_filter(q, s, order as u32, &mut f);
            let zz: Vec<u64> = f[order..].iter().map(|&v| zigzag(v)).collect();
            if rice_bits(&zz) <= payload || s >= 40 {
                return (s, f);
            }
            s += 1;
        }
    }

    #[test]
    fn floored_shift_search_matches_the_linear_scan() {
        let golden = |npts: usize, lev: usize| -> Vec<f32> {
            (0..npts)
                .map(|p| {
                    let x = p as f32 / npts as f32;
                    250.0
                        + 40.0 * (7.1 * x).sin()
                        + 3.0 * (53.0 * x + lev as f32 * 0.7).cos()
                        + 0.05 * ((p * 37 + lev * 11) % 97) as f32
                })
                .collect()
        };
        let mut state = 0xA9A7u64;
        let random: Vec<f32> = (0..BLOCK * 16)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                u * 10f32.powi((i / BLOCK) as i32 % 7 - 3)
            })
            .collect();
        let fields = [
            golden(9_000, 0),
            golden(9_000, 1),
            golden(40_000, 0),
            smooth_field(BLOCK * 8, 2).0,
            noisy_field(BLOCK * 8 + 57).0,
            random,
        ];
        let (mut floored, mut probes) = (0usize, 0usize);
        for data in &fields {
            for block in data.chunks(BLOCK) {
                let (_, _, q) = block_mantissas(block);
                let order = (choose_derivative(&q) as usize).min(block.len());
                for rate in [2.0, 3.0, 4.0, 5.0, 8.0] {
                    let payload = block_budget_bits(block.len(), rate)
                        .saturating_sub(HEADER_BITS + 18 + order as u64 * 28);
                    let mut filtered = Vec::new();
                    let s = Apax::fit_shift(&q, order, payload, &mut filtered);
                    let (s_lin, f_lin) = linear_shift(&q, order, payload);
                    assert_eq!((s, &filtered), (s_lin, &f_lin), "rate {rate}");
                    // How many rejected shifts the floor alone settles.
                    for below in 0..s {
                        Apax::quantize_and_filter(&q, below, order as u32, &mut filtered);
                        let floor: u64 = filtered[order..]
                            .iter()
                            .map(|&v| u64::from(64 - zigzag(v).leading_zeros()) + 1)
                            .sum();
                        floored += usize::from(floor > payload);
                        probes += 1;
                    }
                }
            }
        }
        assert!(floored * 2 > probes, "the floor settles {floored} of {probes} rejected shifts");
    }

    #[test]
    fn fixed_quality_meets_absolute_target() {
        let (data, layout) = smooth_field(BLOCK * 6, 1);
        for target in [1.0f64, 0.1, 0.01] {
            let codec = Apax::fixed_quality(target);
            let (back, _) = roundtrip(&codec, &data, layout);
            for (&a, &b) in data.iter().zip(&back) {
                let err = (a as f64 - b as f64).abs();
                assert!(err <= target * 1.5 + 1e-6, "target {target}: err {err}");
            }
        }
    }

    #[test]
    fn fixed_quality_rate_varies_with_target() {
        let (data, layout) = smooth_field(BLOCK * 6, 1);
        let loose = Apax::fixed_quality(1.0).compress(&data, layout).len();
        let tight = Apax::fixed_quality(0.001).compress(&data, layout).len();
        assert!(tight > loose, "tight {tight} loose {loose}");
    }

    #[test]
    fn derivative_filter_chooses_sensibly() {
        // A linear ramp should prefer differencing.
        let ramp: Vec<i64> = (0..256).map(|i| i * 1000).collect();
        assert!(choose_derivative(&ramp) >= 1);
        // White noise should prefer order 0.
        let mut state = 99u64;
        let noise: Vec<i64> = (0..256)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 40) as i64 - (1 << 23)
            })
            .collect();
        assert_eq!(choose_derivative(&noise), 0);
    }

    #[test]
    fn derivative_integrate_roundtrip() {
        let q: Vec<i64> = (0..100).map(|i| (i * i) as i64 - 50).collect();
        for order in 0..3u32 {
            let mut f = q.clone();
            apply_derivative(&mut f, order);
            integrate(&mut f, order);
            assert_eq!(f, q, "order {order}");
        }
    }

    #[test]
    fn blocks_with_zeros_and_constants() {
        let mut data = vec![0.0f32; BLOCK];
        data.extend(vec![7.25f32; BLOCK]);
        let layout = Layout::linear(data.len());
        let (back, _) = roundtrip(&Apax::fixed_rate(4.0), &data, layout);
        for (&a, &b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_final_block() {
        let (data, layout) = smooth_field(BLOCK + 37, 1);
        let (back, _) = roundtrip(&Apax::fixed_rate(2.0), &data, layout);
        assert_eq!(back.len(), data.len());
    }

    #[test]
    fn profiler_recommends_reasonable_rate() {
        let (data, layout) = smooth_field(BLOCK * 16, 1);
        let profiler = Profiler::default();
        let (entries, rec) = profiler.profile(&data, layout);
        assert_eq!(entries.len(), 7);
        // Smooth data must admit at least rate 2 at five-nines correlation.
        let rec = rec.expect("profiler should find an acceptable rate");
        assert!(rec >= 2.0);
        // Entries must show monotone-ish quality degradation with rate.
        let rho2 = entries.iter().find(|e| e.rate == 2.0).unwrap().pearson;
        let rho8 = entries.iter().find(|e| e.rate == 8.0).unwrap().pearson;
        assert!(rho2 >= rho8);
    }

    #[test]
    fn corrupt_stream_is_error() {
        let (data, layout) = smooth_field(BLOCK * 2, 1);
        let codec = Apax::fixed_rate(4.0);
        let bytes = codec.compress(&data, layout);
        assert!(codec.decompress(&bytes[..8], layout).is_err());
    }

    #[test]
    fn properties_match_table1() {
        let p = Apax::fixed_rate(2.0).properties();
        assert!(p.lossless_mode);
        assert!(!p.special_values);
        assert!(!p.freely_available, "APAX is the one commercial product");
        assert!(p.fixed_quality);
        assert!(p.fixed_cr);
        assert!(p.bits_32_and_64);
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn bad_rate_rejected() {
        Apax::fixed_rate(1.0);
    }
}
