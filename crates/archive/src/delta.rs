//! Delta-frame residual coding.
//!
//! A delta frame predicts each element from the **reconstructed**
//! previous frame. Three blob modes exist behind a one-byte tag:
//!
//! ```text
//! mode 0 (quantized): [0x00][f64 effective-bound bits][deflate(body)]
//!     body = [u32 n_escapes][u32 code_len][codes: code_len][escapes: 4·n_escapes]
//!     exact equation: body.len() == 8 + code_len + 4·n_escapes
//! mode 1 (exact):     [0x01][deflate(shuffle(raw f32 LE bytes))]
//! mode 2 (xor):       [0x02][deflate(shuffle(x.bits ^ prev.bits LE bytes))]
//! ```
//!
//! Mode 0 quantizes `q = round((x − prev')/2e)` against the previous
//! reconstruction `prev'`, mirroring the decoder exactly, and escapes to
//! the raw bits whenever the reconstruction would miss the bound (or the
//! value is non-finite, or `|q|` exceeds the SZ token cap). Codes are the
//! SZ token convention: `0` = escape, else `zigzag(q) + 1` as LEB128.
//! Mode 1 is the degenerate fallback when no effective bound exists for
//! the frame (constant field under a relative bound). Mode 2 carries no
//! bound at all: XOR against the previous reconstruction is exactly
//! invertible, so the original bits round-trip even under a lossy
//! keyframe codec.
//!
//! The writer runs one `ChainEncoder` per keyframe chain. It holds the
//! chain's running reconstruction and reuses its code, escape and body
//! buffers from frame to frame, appending each blob to the chain's byte
//! buffer.
//!
//! Every decode allocation is capped before it happens: the body cap is
//! the exact worst case for `n` elements (`8 + 5n` code bytes `+ 4n`
//! escape bytes), enforced by [`cc_lossless::decompress_capped`].

use cc_codecs::varint::{push_varint, read_varint, unzigzag, zigzag};
use cc_lossless::{shuffle, unshuffle, Level};

use crate::ArchiveError;

/// Blob mode tags.
pub const MODE_QUANTIZED: u8 = 0;
pub const MODE_EXACT: u8 = 1;
pub const MODE_XOR: u8 = 2;

/// Largest admissible quantization-code magnitude (same cap as SZ).
const QMAX: i64 = 1 << 30;

/// One keyframe chain's delta encoder: the reconstruction the next frame
/// predicts from, and the buffers every frame of the chain reuses.
/// Each blob is appended to the caller's chain buffer.
#[derive(Default)]
pub(crate) struct ChainEncoder {
    /// The reconstruction a decoder will hold for the last frame.
    prev: Vec<f32>,
    /// Scratch for the frame being encoded; swapped into `prev` after.
    next: Vec<f32>,
    codes: Vec<u8>,
    escapes: Vec<u8>,
    body: Vec<u8>,
}

impl ChainEncoder {
    /// Start a chain at its keyframe's reconstruction: what a reader
    /// decodes, not the original.
    pub(crate) fn new(key_recon: Vec<f32>) -> Self {
        ChainEncoder { prev: key_recon, ..Self::default() }
    }

    /// Append a mode 1 or 2 blob, the deflated shuffle of the words in
    /// `body`; both reconstruct `frame` exactly, so it is the next
    /// frame's predictor.
    fn push_words(&mut self, mode: u8, frame: &[f32], out: &mut Vec<u8>) {
        out.push(mode);
        out.extend_from_slice(&cc_lossless::compress(&shuffle(&self.body, 4), Level::Default));
        self.prev.clear();
        self.prev.extend_from_slice(frame);
    }

    /// Append `frame` as a lossless XOR blob (mode 2) against the
    /// previous reconstruction. Reconstruction is bit-exact.
    pub(crate) fn push_xor(&mut self, frame: &[f32], out: &mut Vec<u8>) {
        debug_assert_eq!(frame.len(), self.prev.len());
        self.body.clear();
        self.body.extend(
            frame
                .iter()
                .zip(&self.prev)
                .flat_map(|(x, p)| (x.to_bits() ^ p.to_bits()).to_le_bytes()),
        );
        self.push_words(MODE_XOR, frame, out);
    }

    /// Append `frame` quantized against the previous reconstruction
    /// under an effective absolute bound `e` (mode 0), and take the
    /// reconstruction the decoder will produce as the next frame's
    /// predictor, so quantization error never accumulates. Falls back to
    /// mode 1, the raw bits, when `e` is `None`.
    pub(crate) fn push_bounded(&mut self, frame: &[f32], e: Option<f64>, out: &mut Vec<u8>) {
        debug_assert_eq!(frame.len(), self.prev.len());
        let Some(e) = e else {
            self.body.clear();
            self.body.extend(frame.iter().flat_map(|v| v.to_le_bytes()));
            return self.push_words(MODE_EXACT, frame, out);
        };
        let twoe = 2.0 * e;
        let (codes, escapes, recon) = (&mut self.codes, &mut self.escapes, &mut self.next);
        codes.clear();
        escapes.clear();
        recon.clear();
        let mut n_escapes = 0u32;
        for (&x, &p) in frame.iter().zip(&self.prev) {
            let xd = x as f64;
            let pd = p as f64;
            let q = ((xd - pd) / twoe).round();
            let mut escaped = true;
            if x.is_finite() && q.is_finite() && (q.abs() as i64) <= QMAX {
                let r = (pd + q * twoe) as f32;
                if (r as f64 - xd).abs() <= e {
                    push_varint(codes, zigzag(q as i64) + 1);
                    recon.push(r);
                    escaped = false;
                }
            }
            if escaped {
                codes.push(0);
                escapes.extend_from_slice(&x.to_bits().to_le_bytes());
                n_escapes += 1;
                recon.push(x);
            }
        }
        let body = &mut self.body;
        body.clear();
        body.extend_from_slice(&n_escapes.to_le_bytes());
        body.extend_from_slice(&(codes.len() as u32).to_le_bytes());
        body.extend_from_slice(codes);
        body.extend_from_slice(escapes);
        out.push(MODE_QUANTIZED);
        out.extend_from_slice(&e.to_bits().to_le_bytes());
        out.extend_from_slice(&cc_lossless::compress(body, Level::Default));
        std::mem::swap(&mut self.prev, &mut self.next);
    }
}

/// Decode a delta blob of `n` elements against the reconstructed parent
/// frame. `allow_quantized` reflects the variable's declared delta mode:
/// bounded variables accept modes 0 and 1, XOR variables accept modes 2
/// and 1 — anything else is corrupt. Total over untrusted bytes.
pub fn decode(blob: &[u8], prev: &[f32], allow_quantized: bool) -> Result<Vec<f32>, ArchiveError> {
    let n = prev.len();
    let (&mode, rest) = blob
        .split_first()
        .ok_or(ArchiveError::Corrupt("empty delta frame"))?;
    match mode {
        MODE_QUANTIZED if allow_quantized => decode_quantized(rest, prev),
        MODE_EXACT => decode_raw(rest, n).map(|bits| bits.iter().map(|&b| f32::from_bits(b)).collect()),
        MODE_XOR if !allow_quantized => {
            let bits = decode_raw(rest, n)?;
            Ok(bits
                .iter()
                .zip(prev)
                .map(|(&b, p)| f32::from_bits(b ^ p.to_bits()))
                .collect())
        }
        _ => Err(ArchiveError::Corrupt("delta frame mode contradicts index")),
    }
}

/// Shared mode-1/2 payload: deflate(shuffle(4n bytes)) → n u32 words.
fn decode_raw(rest: &[u8], n: usize) -> Result<Vec<u32>, ArchiveError> {
    let raw_len = n
        .checked_mul(4)
        .ok_or(ArchiveError::Corrupt("delta frame element count overflows"))?;
    let shuffled = cc_lossless::decompress_capped(rest, raw_len)?;
    if shuffled.len() != raw_len {
        return Err(ArchiveError::Corrupt("delta frame payload length mismatch"));
    }
    let bytes = unshuffle(&shuffled, 4);
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn decode_quantized(rest: &[u8], prev: &[f32]) -> Result<Vec<f32>, ArchiveError> {
    let n = prev.len();
    if rest.len() < 8 {
        return Err(ArchiveError::Corrupt("delta frame shorter than bound header"));
    }
    let e = f64::from_bits(u64::from_le_bytes(rest[..8].try_into().unwrap()));
    if !e.is_finite() || e <= 0.0 {
        return Err(ArchiveError::Corrupt("delta frame bound not positive finite"));
    }
    let twoe = 2.0 * e;
    // Worst case: 5-byte token per element plus a 4-byte escape each.
    let cap = 8usize
        .checked_add(n.checked_mul(9).ok_or(ArchiveError::Corrupt("delta frame cap overflows"))?)
        .ok_or(ArchiveError::Corrupt("delta frame cap overflows"))?;
    let body = cc_lossless::decompress_capped(&rest[8..], cap)?;
    if body.len() < 8 {
        return Err(ArchiveError::Corrupt("delta frame body shorter than counts"));
    }
    let n_escapes = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
    let code_len = u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
    if n_escapes > n {
        return Err(ArchiveError::Corrupt("delta frame declares too many escapes"));
    }
    // Exact section-length equation: counts + codes + escapes, nothing else.
    let expect = 8usize
        .checked_add(code_len)
        .and_then(|v| v.checked_add(n_escapes * 4))
        .ok_or(ArchiveError::Corrupt("delta frame section lengths overflow"))?;
    if expect != body.len() {
        return Err(ArchiveError::Corrupt("delta frame section lengths disagree"));
    }
    let codes = &body[8..8 + code_len];
    let esc_bytes = &body[8 + code_len..];
    let mut pos = 0usize;
    let mut esc = 0usize;
    let mut out = Vec::with_capacity(n);
    for &p in prev {
        let tok = read_varint(codes, &mut pos).map_err(ArchiveError::Codec)?;
        if tok == 0 {
            if esc >= n_escapes {
                return Err(ArchiveError::Corrupt("delta frame escape overrun"));
            }
            let b = &esc_bytes[esc * 4..esc * 4 + 4];
            out.push(f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])));
            esc += 1;
        } else {
            let q = unzigzag(tok - 1);
            if q.abs() > QMAX {
                return Err(ArchiveError::Corrupt("delta frame code out of range"));
            }
            out.push((p as f64 + q as f64 * twoe) as f32);
        }
    }
    // Canonical consumption: every code byte and every escape spoken for.
    if pos != codes.len() || esc != n_escapes {
        return Err(ArchiveError::Corrupt("delta frame trailing sections"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, t: f32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = i as f32 / n as f32;
                240.0 + 30.0 * (6.3 * x + 0.01 * t).sin() + 0.3 * t
            })
            .collect()
    }

    /// One frame's blob and reconstruction, encoded against `prev`.
    fn bounded(cur: &[f32], prev: &[f32], e: Option<f64>) -> (Vec<u8>, Vec<f32>) {
        let mut enc = ChainEncoder::new(prev.to_vec());
        let mut blob = Vec::new();
        enc.push_bounded(cur, e, &mut blob);
        (blob, enc.prev)
    }

    fn xor(cur: &[f32], prev: &[f32]) -> Vec<u8> {
        let mut blob = Vec::new();
        ChainEncoder::new(prev.to_vec()).push_xor(cur, &mut blob);
        blob
    }

    #[test]
    fn bounded_roundtrip_meets_bound() {
        let prev = wave(4096, 0.0);
        let cur = wave(4096, 1.0);
        let (blob, recon) = bounded(&cur, &prev, Some(1e-3));
        let back = decode(&blob, &prev, true).unwrap();
        assert_eq!(back, recon, "decoder must mirror encoder reconstruction");
        for (x, r) in cur.iter().zip(&back) {
            assert!((*x as f64 - *r as f64).abs() <= 1e-3);
        }
        assert!(blob.len() < cur.len(), "delta should beat one byte per element");
    }

    #[test]
    fn bounded_escapes_nonfinite() {
        let prev = wave(64, 0.0);
        let mut cur = wave(64, 1.0);
        cur[7] = f32::NAN;
        cur[11] = f32::INFINITY;
        cur[13] = 1e30; // enormous residual: token cap escape
        let (blob, recon) = bounded(&cur, &prev, Some(1e-3));
        let back = decode(&blob, &prev, true).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            recon.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(back[7].is_nan());
        assert_eq!(back[11], f32::INFINITY);
        assert_eq!(back[13], 1e30);
    }

    #[test]
    fn xor_roundtrip_is_exact() {
        let prev = wave(4096, 0.0);
        let mut cur = wave(4096, 1.0);
        cur[5] = f32::NAN;
        let blob = xor(&cur, &prev);
        let back = decode(&blob, &prev, false).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            cur.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn exact_roundtrip() {
        let cur = wave(1024, 3.0);
        let prev = vec![0.0f32; 1024];
        let (blob, recon) = bounded(&cur, &prev, None);
        assert_eq!(blob[0], MODE_EXACT, "no effective bound falls back to raw bits");
        assert_eq!(recon, cur);
        let back = decode(&blob, &prev, true).unwrap();
        assert_eq!(back, cur);
    }

    #[test]
    fn mode_must_match_index_declaration() {
        let prev = wave(128, 0.0);
        let cur = wave(128, 1.0);
        let (quant, _) = bounded(&cur, &prev, Some(1e-2));
        assert!(decode(&quant, &prev, false).is_err(), "xor var must reject quantized blob");
        let xor = xor(&cur, &prev);
        assert!(decode(&xor, &prev, true).is_err(), "bounded var must reject xor blob");
    }

    #[test]
    fn decode_is_total_on_garbage() {
        let prev = wave(256, 0.0);
        for blob in [vec![], vec![0u8], vec![0u8; 9], vec![3u8; 40], vec![0xFFu8; 64]] {
            let _ = decode(&blob, &prev, true);
            let _ = decode(&blob, &prev, false);
        }
    }
}
