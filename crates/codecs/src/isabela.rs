//! ISABELA-style sort-and-spline compression.
//!
//! Follows the published ISABELA design (Lakshminarasimhan et al., 2011):
//! the data is cut into fixed windows (the recommended — and paper-used —
//! size of 1024 points), each window is *sorted* so the sequence becomes
//! monotone and extremely smooth, a cubic B-spline is least-squares fitted
//! to the sorted curve, and the sorting permutation index is stored so the
//! original order can be restored. Points whose reconstruction misses the
//! user's per-point relative-error bound get exact corrections.
//!
//! The permutation index costs `log2(1024) = 10` bits per point — 31% of a
//! 32-bit value before anything else is stored. That floor is why the paper
//! observes ISABELA's compression ratios cluster around 0.36-0.57 on
//! single-precision data and notes it "would obtain better compression
//! ratios on double-precision data".
//!
//! Windows decode independently (`decompress_window`), reproducing
//! ISABELA's random-access selling point.

use crate::{Codec, CodecError, CodecProperties, Layout};
use cc_lossless::bitio::{BitReader, BitWriter};

/// Window size recommended by the ISABELA authors and used in the paper.
pub const WINDOW: usize = 1024;

/// Number of B-spline coefficients per window.
const NCOEFF: usize = 30;

/// Windows smaller than this are stored raw (spline fit is pointless).
const MIN_FIT: usize = 16;

/// ISABELA with a per-point relative error bound (e.g. `0.01` = 1.0%,
/// matching the paper's ISA-1.0 variant).
#[derive(Debug, Clone, Copy)]
pub struct Isabela {
    rel_err: f64,
}

impl Isabela {
    /// Create with a relative-error bound (fraction, not percent); uses
    /// the paper's B-spline fit ("We apply the B-spline variant of
    /// ISABELA").
    pub fn new(rel_err: f64) -> Self {
        assert!(rel_err > 0.0 && rel_err < 1.0, "rel_err must be in (0,1)");
        Isabela { rel_err }
    }

    /// The paper's three variants: ISA-1.0, ISA-0.5, ISA-0.1 (percent).
    pub fn paper_variants() -> [Isabela; 3] {
        [Isabela::new(0.001), Isabela::new(0.005), Isabela::new(0.01)]
    }

    /// The relative error bound (fraction).
    pub fn rel_err(&self) -> f64 {
        self.rel_err
    }

    fn compress_window(&self, window: &[f32], w: &mut BitWriter, scratch: &mut WindowScratch) {
        let n = window.len();
        let idx_bits = bits_for(n);

        if n < MIN_FIT {
            w.write_bits(0, 1); // raw marker
            for &v in window {
                w.write_bits(v.to_bits() as u64, 32);
            }
            w.align_byte();
            return;
        }
        w.write_bits(1, 1); // fitted marker

        // Sort positions by value, ties by index: a stable LSD radix sort
        // on a total-order u32 key packed above the index. No per-window
        // allocation — the key buffers live in the caller's scratch.
        scratch.packed.clear();
        scratch
            .packed
            .extend(window.iter().enumerate().map(|(i, &v)| ((sort_key(v) as u64) << 32) | i as u64));
        radix_sort_by_high32(&mut scratch.packed, &mut scratch.radix_tmp);
        scratch.sorted.clear();
        scratch
            .sorted
            .extend(scratch.packed.iter().map(|&p| window[(p & 0xFFFF_FFFF) as usize] as f64));
        let sorted = &scratch.sorted;

        // Fit the sorted, monotone curve with a cubic B-spline.
        // Coefficients are rounded to f32 *before* the correction pass so
        // encoder and decoder evaluate the identical curve.
        let ncoeff = NCOEFF.min(n / 2).max(4);
        scratch.basis.ensure(n, ncoeff);
        fit_bspline_cached(sorted, ncoeff, &scratch.basis, &mut scratch.ata, &mut scratch.coeffs);
        for c in scratch.coeffs.iter_mut() {
            *c = *c as f32 as f64;
        }
        let coeffs = &scratch.coeffs;

        // Permutation index: 10 bits per point at the standard window size.
        for &p in &scratch.packed {
            w.write_bits(p & 0xFFFF_FFFF, idx_bits);
        }
        // Spline coefficients as f32.
        w.write_bits(ncoeff as u64, 8);
        for &c in coeffs.iter() {
            w.write_bits((c as f32).to_bits() as u64, 32);
        }
        // Error-compensation stream (ISABELA's "error quantization"): a
        // quantized correction per point, step = rel_err·|fit| so the
        // reconstruction lands within the bound. Mostly zeros on sorted
        // data, so the Rice stream stays small. Points the quantized
        // correction cannot rescue (|fit| ≪ |v|, sign flips, exact zeros)
        // fall back to exact f32 escapes.
        scratch.qs.clear();
        scratch.escapes.clear();
        for (s, &v) in sorted.iter().enumerate() {
            let fit = scratch.basis.eval(coeffs, s);
            let step = self.rel_err * fit.abs().max(1e-300);
            let q = ((v - fit) / step).round();
            let recon = (fit + q * step) as f32;
            let ok = q.abs() < 1e9
                && ((recon as f64 - v) / v.abs().max(1e-30)).abs() <= self.rel_err;
            if ok {
                scratch.qs.push(zigzag_i64(q as i64));
            } else {
                scratch.qs.push(0);
                scratch.escapes.push((s as u32, v as f32));
            }
        }
        let mean = scratch.qs.iter().sum::<u64>() / n as u64;
        let mut k = 0u32;
        while (1u64 << (k + 1)) <= mean + 1 && k < 30 {
            k += 1;
        }
        w.write_bits(k as u64, 6);
        for &q in &scratch.qs {
            w.write_rice(q, k);
        }
        w.write_bits(scratch.escapes.len() as u64, 32);
        for &(pos, val) in &scratch.escapes {
            w.write_bits(pos as u64, idx_bits);
            w.write_bits(val.to_bits() as u64, 32);
        }
        w.align_byte();
    }

    fn decompress_window_inner(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
        basis: &mut BasisCache,
    ) -> Result<Vec<f32>, CodecError> {
        let idx_bits = bits_for(n);
        let fitted = r.read_bits(1)? == 1;
        if !fitted {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(f32::from_bits(r.read_bits(32)? as u32));
            }
            r.align_byte();
            return Ok(out);
        }
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.read_bits(idx_bits)? as usize;
            if i >= n {
                return Err(CodecError::Corrupt("permutation index out of range"));
            }
            order.push(i);
        }
        let ncoeff = r.read_bits(8)? as usize;
        if !(4..=255).contains(&ncoeff) {
            return Err(CodecError::Corrupt("bad coefficient count"));
        }
        let mut coeffs = Vec::with_capacity(ncoeff);
        for _ in 0..ncoeff {
            coeffs.push(f32::from_bits(r.read_bits(32)? as u32) as f64);
        }
        let k = r.read_bits(6)? as u32;
        if k > 40 {
            return Err(CodecError::Corrupt("bad rice parameter"));
        }
        basis.ensure(n, ncoeff);
        let mut sorted: Vec<f32> = Vec::with_capacity(n);
        for s in 0..n {
            let fit = basis.eval(&coeffs, s);
            let q = unzigzag_i64(r.read_rice(k)?) as f64;
            let step = self.rel_err * fit.abs().max(1e-300);
            sorted.push((fit + q * step) as f32);
        }
        let ncorr = r.read_bits(32)? as usize;
        if ncorr > n {
            return Err(CodecError::Corrupt("too many corrections"));
        }
        for _ in 0..ncorr {
            let pos = r.read_bits(idx_bits)? as usize;
            let val = f32::from_bits(r.read_bits(32)? as u32);
            if pos >= n {
                return Err(CodecError::Corrupt("correction index out of range"));
            }
            sorted[pos] = val;
        }
        r.align_byte();
        // Un-permute: sorted position s holds original index order[s].
        let mut out = vec![0.0f32; n];
        for (s, &orig) in order.iter().enumerate() {
            out[orig] = sorted[s];
        }
        Ok(out)
    }

    /// Decode a single window (`window_idx`) without touching the rest of
    /// the stream — ISABELA's random-access feature.
    pub fn decompress_window(
        &self,
        bytes: &[u8],
        layout: Layout,
        window_idx: usize,
    ) -> Result<Vec<f32>, CodecError> {
        let body = crate::check_layout_header(bytes, layout)?;
        let n_total = layout.len();
        let n_windows = n_total.div_ceil(WINDOW);
        if window_idx >= n_windows {
            return Err(CodecError::Corrupt("window index out of range"));
        }
        let window = window_table(body, n_windows)?;
        let n = WINDOW.min(n_total - window_idx * WINDOW);
        let mut r = BitReader::new(window(window_idx)?);
        self.decompress_window_inner(&mut r, n, &mut BasisCache::default())
    }
}

/// Check the random-access window table at the head of the post-header
/// `body` — a u32 window count, which must equal `n_windows`, then one u32
/// byte offset per window — and return the lookup from a window index
/// (`< n_windows`) to the bytes from that window's offset on.
fn window_table<'a>(
    body: &'a [u8],
    n_windows: usize,
) -> Result<impl Fn(usize) -> Result<&'a [u8], CodecError>, CodecError> {
    if body.len() < 4 + 4 * n_windows {
        return Err(CodecError::Corrupt("truncated window table"));
    }
    let u32_at = move |p: usize| {
        u32::from_le_bytes([body[p], body[p + 1], body[p + 2], body[p + 3]]) as usize
    };
    if u32_at(0) != n_windows {
        return Err(CodecError::LayoutMismatch);
    }
    Ok(move |widx: usize| {
        body.get(u32_at(4 + 4 * widx)..).ok_or(CodecError::Corrupt("window offset out of range"))
    })
}

/// Per-field scratch threaded through [`Isabela::compress_window`]: the
/// sort buffers, the fit workspace, and the quantization streams are
/// allocated once per field instead of twice per 1024-point window.
#[derive(Debug, Default)]
struct WindowScratch {
    /// `(sort_key << 32) | index`, radix-sorted by the high half.
    packed: Vec<u64>,
    /// Radix ping-pong buffer.
    radix_tmp: Vec<u64>,
    /// Window values in sorted order.
    sorted: Vec<f64>,
    /// Fitted coefficients (f32-rounded).
    coeffs: Vec<f64>,
    /// Zigzagged quantized corrections.
    qs: Vec<u64>,
    /// Exact-value escapes `(sorted position, value)`.
    escapes: Vec<(u32, f32)>,
    /// Normal-equation matrix workspace for the B-spline fit.
    ata: Vec<f64>,
    /// Memoized B-spline basis rows.
    basis: BasisCache,
}

/// Memoized cubic B-spline basis: row `s` holds `bspline_basis(u_s, c)`
/// for `u_s = s/(n-1)`. Both the least-squares fit and curve evaluation
/// sample the basis at exactly these parameters, so one table serves the
/// fit, the encoder's correction pass, and the decoder — and memoization
/// changes no arithmetic, keeping streams bit-identical. All full
/// windows share `(n, c) = (1024, 30)`, so the table is built once per
/// field.
#[derive(Debug, Default)]
struct BasisCache {
    n: usize,
    c: usize,
    entries: Vec<(u32, [f64; 4])>,
}

impl BasisCache {
    /// Recompute the table iff the `(n, c)` signature changed.
    fn ensure(&mut self, n: usize, c: usize) {
        if self.n == n && self.c == c && !self.entries.is_empty() {
            return;
        }
        self.n = n;
        self.c = c;
        self.entries.clear();
        self.entries.reserve(n);
        for s in 0..n {
            let u = if n <= 1 { 0.0 } else { s as f64 / (n - 1) as f64 };
            let (first, wts) = bspline_basis(u, c);
            self.entries.push((first as u32, wts));
        }
    }

    /// Basis row for sorted position `s`.
    #[inline]
    fn at(&self, s: usize) -> (usize, &[f64; 4]) {
        let (first, ref wts) = self.entries[s];
        (first as usize, wts)
    }

    /// Evaluate the spline with `coeffs` at sorted position `s` (the table
    /// must be `ensure`d for this `(n, coeffs.len())`).
    #[inline]
    fn eval(&self, coeffs: &[f64], s: usize) -> f64 {
        let (first, wts) = self.at(s);
        let mut v = 0.0;
        for a in 0..4 {
            if first + a < coeffs.len() {
                v += wts[a] * coeffs[first + a];
            }
        }
        v
    }
}

/// Map an `f32` to a `u32` whose unsigned order matches `<` on all
/// non-NaN values, with `-0.0` collapsed onto `+0.0` so the two zeros
/// stay tied (resolved by index, as the old comparator did). NaNs get a
/// consistent position past the infinities — deterministic, and never
/// reached through [`crate::guard::SpecialValueGuard`], which fills
/// non-finite values before the inner codec runs.
#[inline]
fn sort_key(v: f32) -> u32 {
    let b = v.to_bits();
    if b == 0x8000_0000 {
        0x8000_0000 // -0.0 → same key as +0.0
    } else if b & 0x8000_0000 != 0 {
        !b
    } else {
        b ^ 0x8000_0000
    }
}

/// Stable LSD radix sort of `packed` by its high 32 bits (four 8-bit
/// passes). Stability plus index-major packing reproduces the old
/// `sort_by(value, then index)` order exactly. Passes whose byte is
/// constant across the slice are skipped — on climate-like data the top
/// (sign/exponent) byte almost always is.
fn radix_sort_by_high32(packed: &mut Vec<u64>, tmp: &mut Vec<u64>) {
    let len = packed.len();
    tmp.resize(len, 0);
    for pass in 0..4 {
        let shift = 32 + pass * 8;
        let mut hist = [0u32; 256];
        for &v in packed.iter() {
            hist[((v >> shift) & 0xFF) as usize] += 1;
        }
        if hist.iter().any(|&h| h as usize == len) {
            continue; // single bucket: the pass is the identity
        }
        let mut starts = [0u32; 256];
        let mut acc = 0u32;
        for (b, &h) in hist.iter().enumerate() {
            starts[b] = acc;
            acc += h;
        }
        for &v in packed.iter() {
            let b = ((v >> shift) & 0xFF) as usize;
            tmp[starts[b] as usize] = v;
            starts[b] += 1;
        }
        std::mem::swap(packed, tmp);
    }
}

#[inline]
fn zigzag_i64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag_i64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn bits_for(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// Clamped cubic B-spline basis at parameter `u ∈ [0,1]` with `c` control
/// points: returns `(first_control_index, 4 weights)` via Cox-de Boor.
fn bspline_basis(u: f64, c: usize) -> (usize, [f64; 4]) {
    let degree = 3usize;
    let nknots = c + degree + 1;
    // Clamped uniform knot vector: degree+1 zeros, interior uniform, degree+1 ones.
    let interior = nknots - 2 * (degree + 1);
    let knot = |i: usize| -> f64 {
        if i <= degree {
            0.0
        } else if i >= nknots - degree - 1 {
            1.0
        } else {
            (i - degree) as f64 / (interior + 1) as f64
        }
    };
    // Find the knot span.
    let u = u.clamp(0.0, 1.0);
    let mut span = degree;
    while span < c - 1 && u >= knot(span + 1) {
        span += 1;
    }
    // Cox-de Boor triangular scheme for the 4 nonzero basis functions.
    let mut left = [0.0f64; 4];
    let mut right = [0.0f64; 4];
    let mut nvals = [0.0f64; 4];
    nvals[0] = 1.0;
    for j in 1..=degree {
        left[j] = u - knot(span + 1 - j);
        right[j] = knot(span + j) - u;
        let mut saved = 0.0;
        for r in 0..j {
            let denom = right[r + 1] + left[j - r];
            let temp = if denom != 0.0 { nvals[r] / denom } else { 0.0 };
            nvals[r] = saved + right[r + 1] * temp;
            saved = left[j - r] * temp;
        }
        nvals[j] = saved;
    }
    (span - degree, nvals)
}

/// Least-squares fit of `c` B-spline coefficients to `data` sampled at
/// `u_i = i/(n-1)`: normal equations + Cholesky (c ≤ 255, dense is fine).
/// The basis rows come from the memoized cache; `ata` is the caller's
/// reusable `c × c` workspace and the solution lands in `coeffs`.
fn fit_bspline_cached(
    data: &[f64],
    c: usize,
    basis: &BasisCache,
    ata: &mut Vec<f64>,
    coeffs: &mut Vec<f64>,
) {
    debug_assert_eq!(basis.n, data.len());
    debug_assert_eq!(basis.c, c);
    ata.clear();
    ata.resize(c * c, 0.0);
    coeffs.clear();
    coeffs.resize(c, 0.0);
    for (i, &y) in data.iter().enumerate() {
        let (first, wts) = basis.at(i);
        for a in 0..4 {
            let ia = first + a;
            if ia >= c {
                continue;
            }
            coeffs[ia] += wts[a] * y;
            for b in 0..4 {
                let ib = first + b;
                if ib < c {
                    ata[ia * c + ib] += wts[a] * wts[b];
                }
            }
        }
    }
    // Tikhonov ridge keeps the system well-posed when some basis functions
    // see few samples.
    for i in 0..c {
        ata[i * c + i] += 1e-9 * (1.0 + ata[i * c + i]);
    }
    cholesky_solve(ata, coeffs, c);
}

/// Convenience wrapper over [`fit_bspline_cached`] with a fresh cache
/// (tests and one-off fits).
#[cfg(test)]
fn fit_bspline(data: &[f64], c: usize) -> Vec<f64> {
    let mut basis = BasisCache::default();
    basis.ensure(data.len(), c);
    let (mut ata, mut coeffs) = (Vec::new(), Vec::new());
    fit_bspline_cached(data, c, &basis, &mut ata, &mut coeffs);
    coeffs
}

/// Evaluate the fitted spline at sorted position `s` of `n` (test oracle
/// for the cached path).
#[cfg(test)]
fn eval_bspline(coeffs: &[f64], s: usize, n: usize) -> f64 {
    let u = if n <= 1 { 0.0 } else { s as f64 / (n - 1) as f64 };
    let (first, wts) = bspline_basis(u, coeffs.len());
    let mut v = 0.0;
    for a in 0..4 {
        if first + a < coeffs.len() {
            v += wts[a] * coeffs[first + a];
        }
    }
    v
}

/// In-place Cholesky solve of `A x = b` for symmetric positive-definite `A`
/// (`c × c`, row-major). Overwrites `b` with the solution.
fn cholesky_solve(a: &mut [f64], b: &mut [f64], c: usize) {
    // Decompose A = L Lᵀ (lower triangle stored in place).
    for i in 0..c {
        for j in 0..=i {
            let mut sum = a[i * c + j];
            for k in 0..j {
                sum -= a[i * c + k] * a[j * c + k];
            }
            if i == j {
                a[i * c + j] = sum.max(1e-300).sqrt();
            } else {
                a[i * c + j] = sum / a[j * c + j];
            }
        }
    }
    // Forward substitution L y = b.
    for i in 0..c {
        let mut sum = b[i];
        for k in 0..i {
            sum -= a[i * c + k] * b[k];
        }
        b[i] = sum / a[i * c + i];
    }
    // Back substitution Lᵀ x = y.
    for i in (0..c).rev() {
        let mut sum = b[i];
        for k in i + 1..c {
            sum -= a[k * c + i] * b[k];
        }
        b[i] = sum / a[i * c + i];
    }
}

impl Codec for Isabela {
    fn name(&self) -> String {
        format!("ISA-{:.1}", self.rel_err * 100.0)
    }

    fn properties(&self) -> CodecProperties {
        // Table 1 row "ISABELA": lossless N, special N, free Y, fixed
        // quality N, fixed CR N, 32-&64-bit Y.
        CodecProperties {
            lossless_mode: false,
            special_values: false,
            freely_available: true,
            fixed_quality: false,
            fixed_cr: false,
            bits_32_and_64: true,
        }
    }

    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8> {
        assert_eq!(data.len(), layout.len(), "data length must match layout");
        let n_windows = data.len().div_ceil(WINDOW);
        // Every window ends byte-aligned, so all windows stream into one
        // contiguous buffer and the random-access offset table is read off
        // the writer's length — no per-window Vec, same bytes as the old
        // block-per-window assembly.
        let mut scratch = WindowScratch::default();
        let mut w = BitWriter::new();
        let body_base = 4 + 4 * n_windows;
        let mut offsets: Vec<u32> = Vec::with_capacity(n_windows);
        for window in data.chunks(WINDOW) {
            debug_assert_eq!(w.bit_len() % 8, 0);
            offsets.push((body_base + w.bit_len() / 8) as u32);
            self.compress_window(window, &mut w, &mut scratch);
        }
        let body = w.finish();
        let mut out =
            Vec::with_capacity(crate::LAYOUT_HEADER_LEN + body_base + body.len());
        crate::write_layout_header(&mut out, layout);
        // Window offsets are relative to the start of the post-header body.
        out.extend_from_slice(&(n_windows as u32).to_le_bytes());
        for off in &offsets {
            out.extend_from_slice(&off.to_le_bytes());
        }
        out.extend_from_slice(&body);
        out
    }

    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        let body = crate::check_layout_header(bytes, layout)?;
        let n_total = layout.len();
        let n_windows = n_total.div_ceil(WINDOW);
        let window = window_table(body, n_windows)?;
        // One basis cache serves every window of the field (they share
        // `(n, ncoeff)` except possibly the final partial window).
        let mut basis = BasisCache::default();
        let mut out = Vec::with_capacity(n_total);
        for widx in 0..n_windows {
            let n = WINDOW.min(n_total - widx * WINDOW);
            let mut r = BitReader::new(window(widx)?);
            out.extend(self.decompress_window_inner(&mut r, n, &mut basis)?);
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
    fn error_bound_holds_on_smooth_data() {
        let (data, layout) = smooth_field(4000, 1);
        for codec in Isabela::paper_variants() {
            let (back, _) = roundtrip(&codec, &data, layout);
            for (&a, &b) in data.iter().zip(&back) {
                let rel = ((a as f64 - b as f64) / (a as f64).abs().max(1e-30)).abs();
                assert!(
                    rel <= codec.rel_err() + 1e-9,
                    "{}: rel err {rel}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn error_bound_holds_on_noisy_lognormal_data() {
        let (data, layout) = noisy_field(3000);
        let codec = Isabela::new(0.005);
        let (back, _) = roundtrip(&codec, &data, layout);
        for (&a, &b) in data.iter().zip(&back) {
            let rel = ((a as f64 - b as f64) / (a as f64).abs().max(1e-30)).abs();
            assert!(rel <= 0.005 + 1e-9, "rel err {rel}");
        }
    }

    #[test]
    fn index_floor_limits_compression() {
        // The 10-bit/point sort index means CR can never beat ~0.31 plus
        // coefficients; check we are in the paper's observed band.
        let (data, layout) = smooth_field(8192, 1);
        let codec = Isabela::new(0.01);
        let bytes = codec.compress(&data, layout);
        let cr = bytes.len() as f64 / (data.len() * 4) as f64;
        assert!(cr > 0.30, "CR {cr} beats the sort-index floor?!");
        assert!(cr < 0.65, "CR {cr} worse than the paper's band");
    }

    #[test]
    fn tighter_error_costs_more() {
        let (data, layout) = noisy_field(8192);
        let loose = Isabela::new(0.01).compress(&data, layout).len();
        let tight = Isabela::new(0.001).compress(&data, layout).len();
        assert!(tight >= loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn random_access_window_decode() {
        let (data, layout) = smooth_field(WINDOW * 3 + 100, 1);
        let codec = Isabela::new(0.005);
        let bytes = codec.compress(&data, layout);
        let full = codec.decompress(&bytes, layout).unwrap();
        for widx in 0..4 {
            let win = codec.decompress_window(&bytes, layout, widx).unwrap();
            let start = widx * WINDOW;
            let end = (start + WINDOW).min(data.len());
            assert_eq!(win, &full[start..end], "window {widx}");
        }
        assert!(codec.decompress_window(&bytes, layout, 4).is_err());
    }

    #[test]
    fn tiny_windows_stored_raw() {
        let data = vec![1.0f32, -2.0, 3.0];
        let layout = Layout::linear(3);
        let codec = Isabela::new(0.01);
        let (back, _) = roundtrip(&codec, &data, layout);
        assert_eq!(back, data, "raw windows are exact");
    }

    #[test]
    fn constant_window() {
        let data = vec![5.0f32; 2000];
        let layout = Layout::linear(2000);
        let codec = Isabela::new(0.001);
        let (back, _) = roundtrip(&codec, &data, layout);
        for &v in &back {
            assert!((v - 5.0).abs() / 5.0 < 0.001 + 1e-9);
        }
    }

    #[test]
    fn sorted_input_is_ideal_case() {
        let data: Vec<f32> = (0..WINDOW).map(|i| i as f32).collect();
        let layout = Layout::linear(WINDOW);
        let codec = Isabela::new(0.01);
        let bytes = codec.compress(&data, layout);
        let back = codec.decompress(&bytes, layout).unwrap();
        for (&a, &b) in data.iter().zip(&back) {
            let rel = ((a - b) / a.abs().max(1.0)).abs();
            assert!(rel <= 0.01 + 1e-6);
        }
    }

    #[test]
    fn corrupt_stream_is_error() {
        let (data, layout) = smooth_field(2000, 1);
        let codec = Isabela::new(0.01);
        let bytes = codec.compress(&data, layout);
        assert!(codec.decompress(&bytes[..10], layout).is_err());
        let mut bad = bytes.clone();
        bad[2] ^= 0xFF; // corrupt window count
        assert!(codec.decompress(&bad, layout).is_err());
    }

    #[test]
    fn bspline_fit_reproduces_line() {
        let data: Vec<f64> = (0..100).map(|i| 3.0 + 0.5 * i as f64).collect();
        let coeffs = fit_bspline(&data, 10);
        for (i, &y) in data.iter().enumerate() {
            let f = eval_bspline(&coeffs, i, data.len());
            assert!((f - y).abs() < 1e-6, "at {i}: {f} vs {y}");
        }
    }

    #[test]
    fn bspline_basis_partition_of_unity() {
        for c in [4usize, 10, 30] {
            for &u in &[0.0, 0.1, 0.33, 0.5, 0.77, 0.999, 1.0] {
                let (_, w) = bspline_basis(u, c);
                let s: f64 = w.iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "c={c} u={u}: {s}");
                assert!(w.iter().all(|&x| x >= -1e-12), "negative weight");
            }
        }
    }

    #[test]
    fn cholesky_solves_known_system() {
        // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
        let mut a = vec![4.0, 2.0, 2.0, 3.0];
        let mut b = vec![10.0, 9.0];
        cholesky_solve(&mut a, &mut b, 2);
        assert!((b[0] - 1.5).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn properties_match_table1() {
        let p = Isabela::new(0.01).properties();
        assert!(!p.lossless_mode);
        assert!(!p.special_values);
        assert!(p.freely_available);
        assert!(!p.fixed_quality);
        assert!(!p.fixed_cr);
        assert!(p.bits_32_and_64);
    }
}
