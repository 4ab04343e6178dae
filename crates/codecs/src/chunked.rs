//! Chunked, data-parallel encode/decode over any [`Codec`].
//!
//! A field is split into independently-coded blocks along its
//! slowest-varying axis — vertical levels for 3-D fields, embedding rows
//! for 2-D fields — and the blocks fan out over the shared scoped-thread
//! pool ([`cc_par`]). Each block is a complete, self-contained stream of
//! the wrapped codec (including its own layout echo for the block's
//! sub-layout), framed with a little-endian `u32` length prefix behind
//! the whole-field 16-byte layout echo:
//!
//! ```text
//! [16-byte layout echo][u32 chunk_count][u32 len_0][block_0] ... [u32 len_k-1][block_k-1]
//! ```
//!
//! **Single-chunk pass-through.** When the partition yields exactly one
//! chunk (any field at or under [`TARGET_CHUNK_ELEMS`]), the chunked
//! stream *is* the wrapped codec's plain stream — no extra framing. This
//! keeps small-field compression ratios byte-identical to the unchunked
//! path (the scorecard's CR claims hold at every scale) and costs
//! nothing: the decoder recomputes the same partition from the layout,
//! so it knows which format to expect.
//!
//! **Determinism.** The partition ([`plan`]) is a pure function of the
//! [`Layout`] alone — never of the worker count — and
//! [`cc_par::par_map_with`] returns results in input order, so the bytes
//! produced at any worker count are identical to the sequential
//! (`workers = 1`) bytes, and a stream decodes to the same floats
//! whatever parallelism the decoder uses. The determinism test suite
//! (`crates/codecs/tests/determinism.rs`) enforces this for every paper
//! codec.
//!
//! **Totality.** Decoding recomputes the expected partition from the
//! caller's layout and accepts only its frame count, so a corrupt chunk
//! count or length can only produce [`CodecError::Corrupt`] — never an
//! oversized allocation:
//! the output buffer is sized from the caller-supplied layout and every
//! block is decoded by the wrapped codec's own hardened path.

use crate::{
    check_layout_header, write_layout_header, Codec, CodecError, Layout, LAYOUT_HEADER_LEN,
};

/// The pool this module fans out on, for crates above it that run their
/// own parallel regions beside the chunked pipeline (the archive writer
/// fans out over keyframe chains) without a direct `cc-par` dependency.
pub use cc_par::{default_workers, par_map_with};

/// Target number of f32 elements per chunk (256 KiB of raw data). Chosen
/// so a ≥1M-point field yields enough blocks to keep 8+ workers busy
/// while each block stays large enough for the codecs' internal windows
/// (ISABELA sorting windows, APAX blocks, wavelet tiles) to behave as
/// they do unchunked.
pub const TARGET_CHUNK_ELEMS: usize = 64 * 1024;

/// One block of the deterministic partition: `start` is the element
/// offset into the level-major field, `layout` the block's sub-layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Element offset of the block within the field.
    pub start: usize,
    /// Sub-layout the block is coded under.
    pub layout: Layout,
}

/// The deterministic partition of `layout` into chunk sub-layouts.
///
/// Pure in `layout`: the same layout always yields the same partition,
/// which is what makes parallel output bit-identical to sequential.
/// Small 3-D fields group whole levels per chunk; 3-D fields whose
/// levels each exceed [`TARGET_CHUNK_ELEMS`] split *within* every level
/// along whole embedding rows, so a four-level bench field keeps eight
/// workers busy instead of idling half the pool on four whole-level
/// blocks. 2-D fields split along whole rows of their 2-D embedding (so
/// transform codecs keep row structure), with the final block absorbing
/// any partial row.
pub fn plan(layout: Layout) -> Vec<ChunkSpec> {
    if layout.is_empty() {
        return Vec::new();
    }
    let mut specs = Vec::new();
    if layout.nlev > 1 && layout.npts > TARGET_CHUNK_ELEMS {
        // Levels too large to be a chunk each: split within every level
        // along whole rows, exactly as the 2-D rule does per level.
        for lev in 0..layout.nlev {
            push_row_chunks(&mut specs, lev * layout.npts, layout.npts, layout.cols);
        }
    } else if layout.nlev > 1 {
        let levs_per = (TARGET_CHUNK_ELEMS / layout.npts.max(1)).max(1);
        let mut lev = 0;
        while lev < layout.nlev {
            let l1 = (lev + levs_per).min(layout.nlev);
            specs.push(ChunkSpec {
                start: lev * layout.npts,
                layout: Layout {
                    nlev: l1 - lev,
                    npts: layout.npts,
                    rows: layout.rows,
                    cols: layout.cols,
                },
            });
            lev = l1;
        }
    } else {
        push_row_chunks(&mut specs, 0, layout.npts, layout.cols);
    }
    specs
}

/// Append row-aligned chunks covering `npts` elements starting at field
/// offset `base`, each at most [`TARGET_CHUNK_ELEMS`] (rounded up to
/// whole rows of `cols`).
fn push_row_chunks(specs: &mut Vec<ChunkSpec>, base: usize, npts: usize, cols: usize) {
    let cols = cols.max(1);
    let elems_per = (TARGET_CHUNK_ELEMS / cols).max(1) * cols;
    let mut start = 0;
    while start < npts {
        let end = (start + elems_per).min(npts);
        let n = end - start;
        specs.push(ChunkSpec {
            start: base + start,
            layout: Layout { nlev: 1, npts: n, rows: n.div_ceil(cols), cols },
        });
        start = end;
    }
}

/// Compress `data` as a chunked stream, fanning blocks over `workers`
/// threads. `workers = 1` is the sequential reference; any other count
/// produces bit-identical bytes.
pub fn compress_chunked(
    codec: &dyn Codec,
    data: &[f32],
    layout: Layout,
    workers: usize,
) -> Vec<u8> {
    assert_eq!(data.len(), layout.len(), "data length must match layout");
    let _s = cc_obs::span("chunked.encode");
    let specs = plan(layout);
    cc_obs::counter_add("chunked.chunks_encoded", specs.len() as u64);
    if specs.len() == 1 {
        // Pass-through: a single chunk is the whole field, so the plain
        // stream (with its ordinary layout echo) is the chunked stream.
        return encode_chunk(codec, data, layout);
    }
    let payloads: Vec<Vec<u8>> = cc_par::par_map_with(workers, &specs, |s| {
        encode_chunk(codec, &data[s.start..s.start + s.layout.len()], s.layout)
    });
    let total = LAYOUT_HEADER_LEN + 4 + payloads.iter().map(|p| 4 + p.len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    write_layout_header(&mut out, layout);
    out.extend_from_slice(&(specs.len() as u32).to_le_bytes());
    for p in &payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// Compress `data` as a chunked stream, emitting bytes through `sink`
/// as each chunk finishes encoding instead of materializing the whole
/// stream first. The concatenation of every `sink` call is byte-for-byte
/// identical to `compress_chunked(codec, data, layout, 1)` — chunks are
/// encoded sequentially in plan order, so a consumer (e.g. a streaming
/// server reply) can forward early pieces while later chunks are still
/// being compressed. Returns the total bytes emitted.
pub fn compress_chunked_stream(
    codec: &dyn Codec,
    data: &[f32],
    layout: Layout,
    sink: &mut dyn FnMut(&[u8]),
) -> usize {
    assert_eq!(data.len(), layout.len(), "data length must match layout");
    let _s = cc_obs::span("chunked.encode");
    let specs = plan(layout);
    cc_obs::counter_add("chunked.chunks_encoded", specs.len() as u64);
    if specs.len() == 1 {
        // Pass-through, same as compress_chunked: the plain stream is
        // the chunked stream, delivered as one piece.
        let block = encode_chunk(codec, data, layout);
        sink(&block);
        return block.len();
    }
    let mut header = Vec::with_capacity(LAYOUT_HEADER_LEN + 4);
    write_layout_header(&mut header, layout);
    header.extend_from_slice(&(specs.len() as u32).to_le_bytes());
    sink(&header);
    let mut total = header.len();
    for s in &specs {
        let block = encode_chunk(codec, &data[s.start..s.start + s.layout.len()], s.layout);
        sink(&(block.len() as u32).to_le_bytes());
        sink(&block);
        total += 4 + block.len();
    }
    total
}

/// Compress one chunk, recording its wall time on the
/// `chunked.chunk_encode_us` histogram and its in/out volume on the
/// per-chunk byte counters.
fn encode_chunk(codec: &dyn Codec, data: &[f32], layout: Layout) -> Vec<u8> {
    let t0 = cc_obs::now_ns();
    let out = codec.compress(data, layout);
    cc_obs::observe("chunked.chunk_encode_us", (cc_obs::now_ns() - t0) / 1_000);
    cc_obs::counter_add("chunked.chunk_bytes_in", (data.len() * 4) as u64);
    cc_obs::counter_add("chunked.chunk_bytes_out", out.len() as u64);
    out
}

/// Decode a chunked stream produced by [`compress_chunked`]. Total over
/// untrusted input: framing damage (including a frame count other than
/// [`plan`]'s) returns [`CodecError::Corrupt`] and block damage surfaces
/// the wrapped codec's error; allocations are bounded by the
/// caller-supplied layout.
pub fn decompress_chunked(
    codec: &dyn Codec,
    bytes: &[u8],
    layout: Layout,
    workers: usize,
) -> Result<Vec<f32>, CodecError> {
    let _s = cc_obs::span("chunked.decode");
    let specs = plan(layout);
    if specs.len() == 1 {
        let vals = codec.decompress(bytes, layout)?;
        if vals.len() != layout.len() {
            return Err(reject(CodecError::Corrupt("stream decoded to wrong length")));
        }
        cc_obs::counter_inc("chunked.chunks_decoded");
        return Ok(vals);
    }
    let body = check_layout_header(bytes, layout).map_err(reject)?;
    if body.len() < 4 {
        return Err(reject(CodecError::Corrupt("truncated chunk count")));
    }
    let count = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    if count != specs.len() {
        return Err(reject(CodecError::Corrupt("chunk count does not match the partition")));
    }
    let mut frames: Vec<(&[u8], ChunkSpec)> = Vec::with_capacity(specs.len());
    let mut off = 4;
    for s in &specs {
        if body.len() - off < 4 {
            return Err(reject(CodecError::Corrupt("truncated chunk length prefix")));
        }
        let len =
            u32::from_le_bytes([body[off], body[off + 1], body[off + 2], body[off + 3]]) as usize;
        off += 4;
        if body.len() - off < len {
            return Err(reject(CodecError::Corrupt("truncated chunk payload")));
        }
        frames.push((&body[off..off + len], *s));
        off += len;
    }
    if off != body.len() {
        return Err(reject(CodecError::Corrupt("trailing bytes after chunk frames")));
    }
    let decoded: Vec<Result<Vec<f32>, CodecError>> =
        cc_par::par_map_with(workers, &frames, |&(payload, spec)| {
            let vals = codec.decompress(payload, spec.layout)?;
            if vals.len() != spec.layout.len() {
                return Err(reject(CodecError::Corrupt("chunk decoded to wrong length")));
            }
            Ok(vals)
        });
    let mut out = Vec::with_capacity(layout.len());
    for d in decoded {
        out.extend_from_slice(&d?);
    }
    cc_obs::counter_add("chunked.chunks_decoded", frames.len() as u64);
    Ok(out)
}

/// Count a chunked-framing rejection on the shared decode counters.
/// Chunk payloads decoded by an instrumented inner codec are counted by
/// that codec's own wrapper, so only framing errors are tallied here.
fn reject(e: CodecError) -> CodecError {
    crate::obs_wrap::count_decode_error(&e);
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::smooth_field;
    use crate::Variant;

    #[test]
    fn plan_covers_field_exactly_once() {
        for layout in [
            Layout::linear(1),
            Layout::linear(100),
            Layout::linear(TARGET_CHUNK_ELEMS),
            Layout::linear(TARGET_CHUNK_ELEMS + 1),
            Layout::linear(5 * TARGET_CHUNK_ELEMS - 1),
            Layout { nlev: 7, npts: 10_000, rows: 100, cols: 100 },
            Layout { nlev: 30, npts: 48_602, rows: 221, cols: 220 },
            Layout { nlev: 4, npts: 3 * TARGET_CHUNK_ELEMS + 5, rows: 444, cols: 443 },
            Layout { nlev: 2, npts: 100_000, rows: 317, cols: 317 },
        ] {
            let specs = plan(layout);
            let mut covered = 0;
            for (i, s) in specs.iter().enumerate() {
                assert_eq!(s.start, covered, "chunk {i} not contiguous");
                assert!(!s.layout.is_empty(), "empty chunk {i}");
                assert!(
                    s.layout.rows * s.layout.cols >= s.layout.npts,
                    "chunk {i} embedding too small"
                );
                covered += s.layout.len();
            }
            assert_eq!(covered, layout.len(), "partition must cover the field");
        }
    }

    #[test]
    fn plan_empty_layout() {
        assert!(plan(Layout::linear(0)).is_empty());
        assert!(plan(Layout { nlev: 0, npts: 50, rows: 8, cols: 8 }).is_empty());
    }

    #[test]
    fn multi_chunk_roundtrip_matches_sequential() {
        let (data, layout) = smooth_field(50_000, 3);
        assert!(plan(layout).len() >= 2, "field must span chunks");
        let codec = Variant::Fpzip { bits: 24 }.codec();
        let seq = compress_chunked(codec.as_ref(), &data, layout, 1);
        let par = compress_chunked(codec.as_ref(), &data, layout, 4);
        assert_eq!(seq, par, "parallel bytes must equal sequential bytes");
        let a = decompress_chunked(codec.as_ref(), &seq, layout, 1).unwrap();
        let b = decompress_chunked(codec.as_ref(), &seq, layout, 4).unwrap();
        assert_eq!(a.len(), data.len());
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_encode_concatenates_to_sequential_bytes() {
        // Multi-chunk: pieces must arrive incrementally (more than one
        // sink call) and concatenate to the workers=1 reference.
        let (data, layout) = smooth_field(50_000, 3);
        assert!(plan(layout).len() >= 2, "field must span chunks");
        for variant in [Variant::Fpzip { bits: 24 }, Variant::NetCdf4] {
            let codec = variant.codec();
            let reference = compress_chunked(codec.as_ref(), &data, layout, 1);
            let mut pieces = 0usize;
            let mut streamed = Vec::new();
            let total = compress_chunked_stream(codec.as_ref(), &data, layout, &mut |b| {
                pieces += 1;
                streamed.extend_from_slice(b);
            });
            assert_eq!(total, streamed.len());
            assert_eq!(streamed, reference, "streamed bytes must equal sequential bytes");
            assert!(pieces > 2, "multi-chunk encode must emit incrementally, got {pieces}");
        }
        // Single-chunk pass-through: one piece, equal to the plain stream.
        let (data, layout) = smooth_field(2_000, 1);
        let codec = Variant::Fpzip { bits: 24 }.codec();
        let mut pieces = 0usize;
        let mut streamed = Vec::new();
        compress_chunked_stream(codec.as_ref(), &data, layout, &mut |b| {
            pieces += 1;
            streamed.extend_from_slice(b);
        });
        assert_eq!(pieces, 1);
        assert_eq!(streamed, compress_chunked(codec.as_ref(), &data, layout, 1));
    }

    #[test]
    fn single_chunk_stream_is_plain_stream() {
        let (data, layout) = smooth_field(2_000, 1);
        assert_eq!(plan(layout).len(), 1);
        let codec = Variant::Fpzip { bits: 24 }.codec();
        let chunked = compress_chunked(codec.as_ref(), &data, layout, 4);
        let plain = codec.compress(&data, layout);
        assert_eq!(chunked, plain, "single-chunk framing must be pass-through");
        assert_eq!(
            decompress_chunked(codec.as_ref(), &plain, layout, 4).unwrap(),
            codec.decompress(&chunked, layout).unwrap()
        );
    }

    #[test]
    fn corrupt_count_and_lengths_error() {
        let (data, layout) = smooth_field(40_000, 4);
        assert!(plan(layout).len() >= 2, "field must span chunks");
        let codec = Variant::NetCdf4.codec();
        let good = compress_chunked(codec.as_ref(), &data, layout, 1);

        // Truncated everywhere.
        for cut in [0, 8, LAYOUT_HEADER_LEN, LAYOUT_HEADER_LEN + 2, good.len() - 1] {
            assert!(
                decompress_chunked(codec.as_ref(), &good[..cut], layout, 1).is_err(),
                "cut at {cut} must error"
            );
        }
        // Wrong chunk count.
        let mut bad = good.clone();
        bad[LAYOUT_HEADER_LEN] ^= 0x7F;
        assert!(decompress_chunked(codec.as_ref(), &bad, layout, 1).is_err());
        // Oversized chunk length.
        let mut bad = good.clone();
        bad[LAYOUT_HEADER_LEN + 4 + 3] = 0xFF;
        assert!(decompress_chunked(codec.as_ref(), &bad, layout, 1).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.extend_from_slice(b"xx");
        assert!(decompress_chunked(codec.as_ref(), &bad, layout, 1).is_err());
        // Pristine stream still decodes.
        assert_eq!(
            decompress_chunked(codec.as_ref(), &good, layout, 1).unwrap(),
            data
        );

        // Levels above TARGET_CHUNK_ELEMS split within each level, so a
        // stream framed as one chunk per whole level has the wrong frame
        // count and must not decode.
        let layout = Layout { nlev: 2, npts: 100_000, rows: 317, cols: 317 };
        let (data, _) = smooth_field(layout.len(), 1);
        assert!(plan(layout).len() > 2, "levels must split within themselves");
        let mut whole_level = Vec::new();
        write_layout_header(&mut whole_level, layout);
        whole_level.extend_from_slice(&2u32.to_le_bytes());
        for level in data.chunks(layout.npts) {
            let p = codec.compress(level, Layout { nlev: 1, ..layout });
            whole_level.extend_from_slice(&(p.len() as u32).to_le_bytes());
            whole_level.extend_from_slice(&p);
        }
        assert!(decompress_chunked(codec.as_ref(), &whole_level, layout, 2).is_err());
    }

    #[test]
    fn sub_level_plan_splits_large_levels() {
        // Bench shape: 4 levels, each level ~3 chunks' worth of points.
        let layout = Layout { nlev: 4, npts: 3 * TARGET_CHUNK_ELEMS, rows: 444, cols: 443 };
        let specs = plan(layout);
        assert!(
            specs.len() >= 2 * layout.nlev,
            "large levels must split within levels: got {} chunks",
            specs.len()
        );
        assert!(specs.iter().all(|s| s.layout.nlev == 1));
        // Each chunk begins on a row boundary of its level.
        for s in &specs {
            let within = s.start % layout.npts;
            assert_eq!(within % layout.cols, 0, "chunk at {} not row-aligned", s.start);
        }
        // Small levels keep the whole-level grouping: as many whole
        // levels per chunk as fit in TARGET_CHUNK_ELEMS.
        let small = Layout { nlev: 4, npts: 10_000, rows: 100, cols: 100 };
        let specs = plan(small);
        assert_eq!(specs.len(), 1, "4 x 10,000 points fit in one chunk");
        assert_eq!(specs[0], ChunkSpec { start: 0, layout: small });
        let tall = Layout { nlev: 10, ..small };
        let starts: Vec<(usize, usize)> =
            plan(tall).iter().map(|s| (s.start, s.layout.nlev)).collect();
        assert_eq!(starts, [(0, 6), (60_000, 4)], "6 whole levels per chunk");
    }

    #[test]
    fn empty_field_roundtrips() {
        let layout = Layout::linear(0);
        let codec = Variant::NetCdf4.codec();
        let bytes = compress_chunked(codec.as_ref(), &[], layout, 4);
        let back = decompress_chunked(codec.as_ref(), &bytes, layout, 4).unwrap();
        assert!(back.is_empty());
    }
}
