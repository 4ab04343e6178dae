//! Archive construction.
//!
//! The writer appends one variable at a time. Keyframes go through the
//! deterministic chunked pipeline (`compress_chunked`), so archive bytes
//! are bit-identical at any worker count; delta frames are encoded
//! sequentially against the reconstruction the decoder will see — the
//! writer decodes its own keyframes to seed the chain, exactly mirroring
//! the read path.

use cc_codecs::chunked::{compress_chunked, decompress_chunked};
use cc_codecs::{Layout, Variant};

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
        let workers = opts.workers.max(1);
        let mut entries = Vec::with_capacity(frames.len());
        let mut keyframes = 0usize;
        let mut prev_recon: Vec<f32> = Vec::new();
        for (t, frame) in frames.iter().enumerate() {
            let is_key = t % opts.keyframe_every == 0;
            let (kind, parent, bytes, recon) = if is_key {
                let stream = compress_chunked(codec.as_ref(), frame, layout, workers);
                // Mirror the decoder: the delta chain predicts from what a
                // reader will reconstruct, not from the original.
                let recon = decompress_chunked(codec.as_ref(), &stream, layout, workers)?;
                keyframes += 1;
                (FrameKind::Key, t as u32, stream, recon)
            } else {
                match opts.bound {
                    Some(b) => {
                        let (blob, recon) =
                            delta::encode_bounded(frame, &prev_recon, b.effective(frame));
                        (FrameKind::Delta, (t - 1) as u32, blob, recon)
                    }
                    None => {
                        let blob = delta::encode_xor(frame, &prev_recon);
                        (FrameKind::Delta, (t - 1) as u32, blob, frame.clone())
                    }
                }
            };
            let offset = self.blob.len() as u64;
            self.blob.extend_from_slice(&bytes);
            entries.push(FrameEntry { kind, parent, offset, len: bytes.len() as u64 });
            prev_recon = recon;
        }

        let delta_mode = match opts.bound {
            Some(b) => DeltaMode::Bounded(b),
            None if opts.keyframe_every == 1 => DeltaMode::Keyframes,
            None => DeltaMode::Xor,
        };
        let bytes: u64 = entries.iter().map(|f| f.len).sum();
        let summary = VarSummary {
            frames: frames.len(),
            keyframes,
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
