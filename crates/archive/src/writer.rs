//! Archive construction.
//!
//! The writer appends one variable at a time. A variable's frames split
//! into keyframe chains — a keyframe plus the delta frames that predict
//! from it — and no chain reads another chain's reconstruction, so the
//! chains encode independently on the `cc-par` pool at
//! `default_workers()` (so `--workers` and the nested-context guard
//! apply). Each chain encodes its keyframe through the deterministic
//! chunked pipeline, decodes it to seed its delta frames exactly as a
//! reader will, and writes its frames into one byte buffer. The chains
//! are appended in time order only after every chain has succeeded, so
//! archive bytes are bit-identical at any pool width and a failed
//! variable leaves the archive as it was. A variable with one chain runs
//! it on the calling thread, which keeps the full pool width for its
//! keyframe's chunked encode.

use cc_codecs::chunked::{compress_chunked, decompress_chunked, default_workers, par_map_with};
use cc_codecs::{Codec, ErrorBound, Layout, Variant};

use crate::index::{self, FrameEntry, FrameKind, VarEntry};
use crate::{delta, ArchiveError, ArchiveOptions, DeltaMode, FOOTER_MAGIC, MAGIC};

/// Per-variable encode statistics (for CLI/bench reporting).
#[derive(Debug, Clone, Copy)]
pub struct VarSummary {
    /// Frames written.
    pub frames: usize,
    /// How many of them are keyframes.
    pub keyframes: usize,
    /// Compressed blob bytes.
    pub bytes: u64,
    /// Uncompressed input bytes.
    pub raw_bytes: u64,
}

/// Incremental `cc-arch/1` writer.
pub struct ArchiveWriter {
    blob: Vec<u8>,
    vars: Vec<VarEntry>,
}

impl Default for ArchiveWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ArchiveWriter {
    /// Start an empty archive.
    pub fn new() -> Self {
        ArchiveWriter { blob: MAGIC.to_vec(), vars: Vec::new() }
    }

    /// Append one variable's timestep sequence. Every frame must match
    /// `layout.len()` elements.
    pub fn add_variable(
        &mut self,
        name: &str,
        layout: Layout,
        frames: &[Vec<f32>],
        opts: &ArchiveOptions,
    ) -> Result<VarSummary, ArchiveError> {
        let _s = cc_obs::span("archive.add_variable");
        if name.is_empty() || name.len() > index::MAX_NAME_LEN {
            return Err(ArchiveError::BadRequest("variable name length out of range"));
        }
        if self.vars.iter().any(|v| v.name == name) {
            return Err(ArchiveError::BadRequest("variable already in archive"));
        }
        if frames.is_empty() {
            return Err(ArchiveError::BadRequest("variable has no frames"));
        }
        if layout.is_empty() {
            return Err(ArchiveError::BadRequest("layout is empty"));
        }
        if frames.iter().any(|f| f.len() != layout.len()) {
            return Err(ArchiveError::BadRequest("frame length does not match layout"));
        }
        if opts.keyframe_every == 0 {
            return Err(ArchiveError::BadRequest("keyframe interval must be at least 1"));
        }
        if let Some(b) = opts.bound {
            let e = match b {
                cc_codecs::ErrorBound::Abs(e) => e,
                cc_codecs::ErrorBound::Rel(r) => r,
            };
            if !e.is_finite() || e <= 0.0 {
                return Err(ArchiveError::BadRequest("error bound must be positive finite"));
            }
        }
        // The index stores the keyframe codec by name; a reader resolves
        // it with `Variant::by_name`, so seal only names that resolve back
        // to this very variant.
        if Variant::by_name(&opts.variant.name()) != Some(opts.variant) {
            return Err(ArchiveError::BadRequest("keyframe codec has no resolvable name"));
        }

        let codec = opts.variant.codec();
        let every = opts.keyframe_every;
        let keys: Vec<usize> = (0..frames.len()).step_by(every).collect();
        let workers = default_workers();
        let chains = par_map_with(workers, &keys, |&key| {
            let chain = &frames[key..frames.len().min(key + every)];
            encode_chain(codec.as_ref(), chain, layout, opts.bound, workers)
        });
        let chains = chains.into_iter().collect::<Result<Vec<_>, _>>()?;

        let mut entries = Vec::with_capacity(frames.len());
        for (chain, key) in chains.into_iter().zip(&keys) {
            let mut offset = self.blob.len() as u64;
            for (i, &len) in chain.lens.iter().enumerate() {
                let t = key + i;
                let (kind, parent) =
                    if i == 0 { (FrameKind::Key, t) } else { (FrameKind::Delta, t - 1) };
                entries.push(FrameEntry { kind, parent: parent as u32, offset, len });
                offset += len;
            }
            self.blob.extend_from_slice(&chain.bytes);
        }

        let delta_mode = match opts.bound {
            Some(b) => DeltaMode::Bounded(b),
            None if opts.keyframe_every == 1 => DeltaMode::Keyframes,
            None => DeltaMode::Xor,
        };
        let bytes: u64 = entries.iter().map(|f| f.len).sum();
        let summary = VarSummary {
            frames: frames.len(),
            keyframes: keys.len(),
            bytes,
            raw_bytes: (layout.len() * 4 * frames.len()) as u64,
        };
        cc_obs::counter_add("archive.frames", frames.len() as u64);
        self.vars.push(VarEntry {
            name: name.to_string(),
            layout,
            codec: opts.variant.name(),
            delta: delta_mode,
            keyframe_every: opts.keyframe_every as u32,
            frames: entries,
        });
        Ok(summary)
    }

    /// Seal the archive: append the index section and footer and return
    /// the complete `cc-arch/1` byte stream.
    pub fn finish(self) -> Vec<u8> {
        let mut out = self.blob;
        let index_offset = out.len() as u64;
        out.extend_from_slice(&index::encode(&self.vars));
        out.extend_from_slice(&index_offset.to_le_bytes());
        out.extend_from_slice(FOOTER_MAGIC);
        out
    }
}

/// One keyframe chain, encoded: its frames' blobs back to back, and the
/// length of each.
struct Chain {
    bytes: Vec<u8>,
    lens: Vec<u64>,
}

/// Encode one keyframe chain: `frames[0]` is the keyframe, every later
/// frame a delta from the one before it.
fn encode_chain(
    codec: &dyn Codec,
    frames: &[Vec<f32>],
    layout: Layout,
    bound: Option<ErrorBound>,
    workers: usize,
) -> Result<Chain, ArchiveError> {
    let _s = cc_obs::span("archive.chain");
    let (key, deltas) = frames.split_first().expect("a chain starts with its keyframe");
    let mut bytes = compress_chunked(codec, key, layout, workers);
    // Mirror the decoder: the delta chain predicts from what a reader
    // will reconstruct, not from the original.
    let recon = decompress_chunked(codec, &bytes, layout, workers)?;
    let mut lens = Vec::with_capacity(frames.len());
    lens.push(bytes.len() as u64);
    let mut enc = delta::ChainEncoder::new(recon);
    for frame in deltas {
        let start = bytes.len();
        match bound {
            Some(b) => enc.push_bounded(frame, b.effective(frame), &mut bytes),
            None => enc.push_xor(frame, &mut bytes),
        }
        lens.push((bytes.len() - start) as u64);
    }
    Ok(Chain { bytes, lens })
}
