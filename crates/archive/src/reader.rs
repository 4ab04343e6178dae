//! Random-access archive reading.
//!
//! `open` reads the 16-byte footer and the index section — nothing else.
//! Every fetch then reads exactly the byte ranges of one keyframe chain,
//! minus the keyframe when an earlier fetch already decoded it: decoded
//! keyframes stay with the reader, shared by all of its clones, so a
//! served archive decodes each keyframe once. The reader counts the bytes
//! it requests from its source so tests (and the byte-accounting
//! acceptance gate) can pin the "never the whole file" property:
//! `bytes_read ≤ chain bytes + index bytes ≪ file size`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cc_codecs::chunked::decompress_chunked;
use cc_codecs::{Codec, Variant};

use crate::index::{self, ArchiveIndex, FrameKind, VarEntry};
use crate::source::SliceSource;
use crate::{delta, ArchiveError, DeltaMode, FOOTER_LEN, FOOTER_MAGIC, MAGIC};

/// Archive reader over any [`SliceSource`].
///
/// Cloning is cheap: clones share the source, the parsed index and the
/// decoded keyframes, so concurrent requests each take a clone of one
/// opened archive. Each clone counts its own [`bytes_read`](Self::bytes_read)
/// onward from the value it was cloned with.
pub struct ArchiveReader<S> {
    opened: Arc<Opened<S>>,
    bytes_read: u64,
    workers: usize,
}

/// Decoded keyframes by (variable position, frame index).
type Keyframes = HashMap<(usize, usize), Arc<Vec<f32>>>;

/// What every clone of a reader shares.
struct Opened<S> {
    src: S,
    index: ArchiveIndex,
    /// Keyframes decoded so far. The lock is held for lookups and
    /// inserts only, never across a decode.
    keyframes: Mutex<Keyframes>,
}

impl<S> Clone for ArchiveReader<S> {
    fn clone(&self) -> Self {
        ArchiveReader {
            opened: Arc::clone(&self.opened),
            bytes_read: self.bytes_read,
            workers: self.workers,
        }
    }
}

impl<S: SliceSource> ArchiveReader<S> {
    /// Validate the footer, parse the index, and return a reader. Total
    /// over untrusted bytes: damaged input yields a typed error.
    pub fn open(src: S) -> Result<Self, ArchiveError> {
        let _s = cc_obs::span("archive.open");
        let file_len = src.len();
        let min = (MAGIC.len() + FOOTER_LEN) as u64;
        if file_len < min {
            return Err(ArchiveError::Corrupt("file shorter than magic + footer"));
        }
        let mut bytes_read = 0u64;
        let magic = src.read_at(0, MAGIC.len())?;
        bytes_read += MAGIC.len() as u64;
        if magic != MAGIC {
            return Err(ArchiveError::Corrupt("bad archive magic"));
        }
        let footer = src.read_at(file_len - FOOTER_LEN as u64, FOOTER_LEN)?;
        bytes_read += FOOTER_LEN as u64;
        if &footer[8..] != FOOTER_MAGIC {
            return Err(ArchiveError::Corrupt("bad footer magic"));
        }
        let index_offset = u64::from_le_bytes(footer[..8].try_into().unwrap());
        // The index must sit between the magic and the footer.
        if index_offset < MAGIC.len() as u64 || index_offset > file_len - FOOTER_LEN as u64 {
            return Err(ArchiveError::Corrupt("index offset outside file"));
        }
        let index_len = (file_len - FOOTER_LEN as u64 - index_offset) as usize;
        let index_bytes = src.read_at(index_offset, index_len)?;
        bytes_read += index_len as u64;
        let index = index::decode(&index_bytes, index_offset, file_len)?;
        let opened = Opened { src, index, keyframes: Mutex::new(HashMap::new()) };
        Ok(ArchiveReader { opened: Arc::new(opened), bytes_read, workers: 1 })
    }

    /// Set the worker count for chunked keyframe decode (output does not
    /// depend on it).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The validated index.
    pub fn index(&self) -> &ArchiveIndex {
        &self.opened.index
    }

    /// Bytes requested from the source so far (footer + index + every
    /// frame blob fetched).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes of the decoded keyframes this reader and its clones hold.
    pub fn cached_bytes(&self) -> u64 {
        let keyframes = self.opened.keyframes.lock().unwrap_or_else(|p| p.into_inner());
        keyframes.values().map(|k| k.len() as u64 * 4).sum()
    }

    /// Reconstruct the full field of `var` at timestep `t` by walking its
    /// keyframe chain — the only frame blobs read. The chain's keyframe is
    /// decoded once per reader and reused by later fetches and clones.
    pub fn fetch_frame(&mut self, var: &str, t: usize) -> Result<Vec<f32>, ArchiveError> {
        let _s = cc_obs::span("archive.fetch_frame");
        let opened = Arc::clone(&self.opened);
        let v = opened.index.position(var)?;
        let entry = &opened.index.vars[v];
        let chain = entry.chain(t)?;
        // `chain` walks parents down to the first keyframe, so its head
        // is that keyframe and every later frame is a delta.
        let (&key, deltas) = chain
            .split_first()
            .ok_or(ArchiveError::Corrupt("empty keyframe chain"))?;
        let keyframe = self.keyframe(&opened, v, key)?;
        let allow_quantized = matches!(entry.delta, DeltaMode::Bounded(_));
        let mut recon: Option<Vec<f32>> = None;
        for &i in deltas {
            let f = entry.frames[i];
            let blob = self.read_frame(f.offset, f.len)?;
            let prev = recon.as_deref().unwrap_or(keyframe.as_slice());
            recon = Some(delta::decode(&blob, prev, allow_quantized)?);
        }
        Ok(recon.unwrap_or_else(|| keyframe.to_vec()))
    }

    /// Keyframe `i` of variable `v`: from the shared cache, or read,
    /// decoded and cached. Two clones missing the same keyframe at once
    /// both decode it; the results are identical, so either may stay.
    fn keyframe(
        &mut self,
        opened: &Opened<S>,
        v: usize,
        i: usize,
    ) -> Result<Arc<Vec<f32>>, ArchiveError> {
        let keyframes = || opened.keyframes.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(k) = keyframes().get(&(v, i)) {
            return Ok(Arc::clone(k));
        }
        let entry = &opened.index.vars[v];
        let f = entry.frames[i];
        let blob = self.read_frame(f.offset, f.len)?;
        let codec = codec_of(entry)?;
        let decoded =
            Arc::new(decompress_chunked(codec.as_ref(), &blob, entry.layout, self.workers)?);
        keyframes().insert((v, i), Arc::clone(&decoded));
        Ok(decoded)
    }

    /// Fetch one horizontal level of `var` at timestep `t` — the random
    /// access primitive served over the wire.
    pub fn fetch_slice(&mut self, var: &str, t: usize, lev: usize) -> Result<Vec<f32>, ArchiveError> {
        let _s = cc_obs::span("archive.fetch_slice");
        let layout = self.index().var(var)?.layout;
        if lev >= layout.nlev {
            return Err(ArchiveError::BadRequest("level out of range"));
        }
        let frame = self.fetch_frame(var, t)?;
        Ok(frame[lev * layout.npts..(lev + 1) * layout.npts].to_vec())
    }

    /// Sequential full decode of one variable: every timestep, in order,
    /// reading each frame exactly once.
    pub fn decode_variable(&mut self, var: &str) -> Result<Vec<Vec<f32>>, ArchiveError> {
        let _s = cc_obs::span("archive.decode_variable");
        let opened = Arc::clone(&self.opened);
        let entry = opened.index.var(var)?;
        let codec = codec_of(entry)?;
        let allow_quantized = matches!(entry.delta, DeltaMode::Bounded(_));
        let mut out: Vec<Vec<f32>> = Vec::with_capacity(entry.frames.len());
        for f in &entry.frames {
            let blob = self.read_frame(f.offset, f.len)?;
            let recon = match f.kind {
                FrameKind::Key => {
                    decompress_chunked(codec.as_ref(), &blob, entry.layout, self.workers)?
                }
                FrameKind::Delta => {
                    // `parent` < own index is guaranteed by index validation,
                    // so the parent reconstruction is already in `out`.
                    let prev = &out[f.parent as usize];
                    delta::decode(&blob, prev, allow_quantized)?
                }
            };
            out.push(recon);
        }
        Ok(out)
    }

    fn read_frame(&mut self, offset: u64, len: u64) -> Result<Vec<u8>, ArchiveError> {
        let len = usize::try_from(len).map_err(|_| ArchiveError::Corrupt("frame too large"))?;
        let blob = self.opened.src.read_at(offset, len)?;
        self.bytes_read += len as u64;
        Ok(blob)
    }
}

/// The keyframe codec a variable's index entry names.
fn codec_of(entry: &VarEntry) -> Result<Box<dyn Codec>, ArchiveError> {
    Ok(Variant::by_name(&entry.codec)
        .ok_or(ArchiveError::Corrupt("unknown keyframe codec"))?
        .codec())
}
