//! The footer index: the only part of an archive a reader must parse in
//! full, and the part whose totality everything else leans on.
//!
//! ```text
//! index section:
//!   u32 n_vars
//!   per variable:
//!     u16 name_len | name bytes (UTF-8, 1..=4096)
//!     u32 nlev | u32 npts | u32 rows | u32 cols      (Layout echo)
//!     u16 codec_len | codec name (a Variant name)
//!     u8  delta_mode   (0 keyframes-only, 1 bounded, 2 xor)
//!     u8  bound_kind   (0 none, 1 abs, 2 rel — non-zero iff mode 1)
//!     f64 bound_param
//!     u32 keyframe_every (≥ 1)
//!     u32 n_frames
//!     n_frames × { u8 kind, u32 parent, u64 offset, u64 len }
//! ```
//!
//! Totality rules (DESIGN.md §16):
//! * every count is checked against the remaining index bytes **before**
//!   any allocation sized from it (`n_frames · 21 ≤ remaining`);
//! * every frame range must satisfy `8 ≤ offset`, `offset + len ≤ index
//!   offset` (checked arithmetic) — a frame can never alias the index or
//!   the footer, and an oversized declared range is rejected here, not at
//!   read time;
//! * keyframes must be their own parent and delta frames must point
//!   strictly backwards (`parent < i`) — the keyframe-chain invariant —
//!   so chain walks are strictly decreasing and cycles are structurally
//!   impossible;
//! * frame 0 of every variable must be a keyframe, the codec name must
//!   parse as a known [`Variant`], the layout must be non-degenerate and
//!   its raw frame size is capped at 2064× the file size (the deflate
//!   expansion ceiling), and variable names must be unique.

use cc_codecs::{Layout, Variant};

use crate::{ArchiveError, FOOTER_LEN, MAGIC};

/// Frame disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Self-contained chunked-pipeline stream.
    Key,
    /// Predicted from `parent`'s reconstruction.
    Delta,
}

/// How a variable's delta frames are coded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaMode {
    /// Every frame is a keyframe.
    Keyframes,
    /// Quantized residuals under an error bound.
    Bounded(cc_codecs::ErrorBound),
    /// Bit-exact XOR against the previous reconstruction.
    Xor,
}

impl DeltaMode {
    /// Human label for `ccc archive info` and bench tables.
    pub fn label(&self) -> String {
        match self {
            DeltaMode::Keyframes => "keyframes".into(),
            DeltaMode::Bounded(b) => format!("bounded-{}", b.label()),
            DeltaMode::Xor => "xor".into(),
        }
    }
}

/// One frame's index entry.
#[derive(Debug, Clone, Copy)]
pub struct FrameEntry {
    pub kind: FrameKind,
    /// Frame this one predicts from; keyframes point at themselves.
    pub parent: u32,
    /// Absolute file offset of the blob.
    pub offset: u64,
    /// Blob length in bytes.
    pub len: u64,
}

/// One variable's index entry.
#[derive(Debug, Clone)]
pub struct VarEntry {
    pub name: String,
    pub layout: Layout,
    /// Keyframe codec (a `Variant` name).
    pub codec: String,
    pub delta: DeltaMode,
    pub keyframe_every: u32,
    pub frames: Vec<FrameEntry>,
}

impl VarEntry {
    /// The keyframe chain that reconstructs timestep `t`: frame indices
    /// from the keyframe forward to `t`. Strictly decreasing parents are
    /// guaranteed by index validation, so this always terminates.
    pub fn chain(&self, t: usize) -> Result<Vec<usize>, ArchiveError> {
        if t >= self.frames.len() {
            return Err(ArchiveError::BadRequest("timestep out of range"));
        }
        let mut rev = Vec::new();
        let mut i = t;
        loop {
            rev.push(i);
            let f = &self.frames[i];
            match f.kind {
                FrameKind::Key => break,
                FrameKind::Delta => i = f.parent as usize,
            }
        }
        rev.reverse();
        Ok(rev)
    }

    /// Total blob bytes of the keyframe chain for timestep `t`.
    pub fn chain_bytes(&self, t: usize) -> Result<u64, ArchiveError> {
        Ok(self.chain(t)?.iter().map(|&i| self.frames[i].len).sum())
    }

    /// Total blob bytes of every frame of this variable.
    pub fn total_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.len).sum()
    }

    /// Uncompressed size of the full variable sequence.
    pub fn raw_bytes(&self) -> u64 {
        self.layout.len() as u64 * 4 * self.frames.len() as u64
    }
}

/// The parsed, validated index of an archive.
#[derive(Debug, Clone)]
pub struct ArchiveIndex {
    pub vars: Vec<VarEntry>,
    /// Where the index section starts (frames end here).
    pub index_offset: u64,
    /// Index section + footer size in bytes.
    pub index_bytes: u64,
    /// Total file size the index was validated against.
    pub file_len: u64,
}

impl ArchiveIndex {
    /// Look up a variable entry by name.
    pub fn var(&self, name: &str) -> Result<&VarEntry, ArchiveError> {
        Ok(&self.vars[self.position(name)?])
    }

    /// Position of variable `name` in [`vars`](Self::vars).
    pub fn position(&self, name: &str) -> Result<usize, ArchiveError> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .ok_or_else(|| ArchiveError::NoSuchVariable(name.to_string()))
    }

    /// Bytes of every keyframe decoded at once: the most a reader's
    /// keyframe cache can hold for this archive.
    pub fn decoded_keyframe_bytes(&self) -> u64 {
        self.vars
            .iter()
            .map(|v| {
                let keys = v.frames.iter().filter(|f| f.kind == FrameKind::Key).count() as u64;
                keys.saturating_mul(v.layout.len() as u64 * 4)
            })
            .fold(0, u64::saturating_add)
    }

    /// Total blob bytes across all variables.
    pub fn total_frame_bytes(&self) -> u64 {
        self.vars.iter().map(|v| v.total_bytes()).sum()
    }
}

/// Fixed per-frame entry size on disk.
pub const FRAME_ENTRY_LEN: usize = 1 + 4 + 8 + 8;
/// Longest admissible variable name.
pub const MAX_NAME_LEN: usize = 4096;

/// Bounds-checked little-endian cursor over the index section.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArchiveError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ArchiveError::Corrupt("index section truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ArchiveError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArchiveError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ArchiveError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArchiveError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ArchiveError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Serialize the index section (no footer).
pub(crate) fn encode(vars: &[VarEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(vars.len() as u32).to_le_bytes());
    for v in vars {
        out.extend_from_slice(&(v.name.len() as u16).to_le_bytes());
        out.extend_from_slice(v.name.as_bytes());
        for word in [v.layout.nlev, v.layout.npts, v.layout.rows, v.layout.cols] {
            out.extend_from_slice(&(word as u32).to_le_bytes());
        }
        out.extend_from_slice(&(v.codec.len() as u16).to_le_bytes());
        out.extend_from_slice(v.codec.as_bytes());
        let (mode, kind, param) = match v.delta {
            DeltaMode::Keyframes => (0u8, 0u8, 0.0f64),
            DeltaMode::Bounded(cc_codecs::ErrorBound::Abs(e)) => (1, 1, e),
            DeltaMode::Bounded(cc_codecs::ErrorBound::Rel(r)) => (1, 2, r),
            DeltaMode::Xor => (2, 0, 0.0),
        };
        out.push(mode);
        out.push(kind);
        out.extend_from_slice(&param.to_bits().to_le_bytes());
        out.extend_from_slice(&v.keyframe_every.to_le_bytes());
        out.extend_from_slice(&(v.frames.len() as u32).to_le_bytes());
        for f in &v.frames {
            out.push(match f.kind {
                FrameKind::Key => 0,
                FrameKind::Delta => 1,
            });
            out.extend_from_slice(&f.parent.to_le_bytes());
            out.extend_from_slice(&f.offset.to_le_bytes());
            out.extend_from_slice(&f.len.to_le_bytes());
        }
    }
    out
}

/// Parse and validate an index section against the file geometry.
/// `index_offset` is where the section starts in the file; `file_len` is
/// the total archive size including the footer.
pub(crate) fn decode(
    bytes: &[u8],
    index_offset: u64,
    file_len: u64,
) -> Result<ArchiveIndex, ArchiveError> {
    let mut c = Cur { bytes, pos: 0 };
    let n_vars = c.u32()? as usize;
    let mut vars: Vec<VarEntry> = Vec::new();
    for _ in 0..n_vars {
        let name_len = c.u16()? as usize;
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(ArchiveError::Corrupt("variable name length out of range"));
        }
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| ArchiveError::Corrupt("variable name not UTF-8"))?
            .to_string();
        if vars.iter().any(|v| v.name == name) {
            return Err(ArchiveError::Corrupt("duplicate variable name"));
        }
        let (nlev, npts, rows, cols) =
            (c.u32()? as usize, c.u32()? as usize, c.u32()? as usize, c.u32()? as usize);
        let layout = Layout { nlev, npts, rows, cols };
        let elems = nlev
            .checked_mul(npts)
            .ok_or(ArchiveError::Corrupt("layout element count overflows"))?;
        if elems == 0 {
            return Err(ArchiveError::Corrupt("layout is empty"));
        }
        // One frame's raw bytes can never exceed the deflate expansion
        // ceiling over the whole file — rejects absurd declared layouts
        // before any frame-sized allocation.
        if (elems as u64).saturating_mul(4) > file_len.saturating_mul(2064) {
            return Err(ArchiveError::Corrupt("layout exceeds expansion bound"));
        }
        let codec_len = c.u16()? as usize;
        if codec_len == 0 || codec_len > 256 {
            return Err(ArchiveError::Corrupt("codec name length out of range"));
        }
        let codec = std::str::from_utf8(c.take(codec_len)?)
            .map_err(|_| ArchiveError::Corrupt("codec name not UTF-8"))?
            .to_string();
        if Variant::by_name(&codec).is_none() {
            return Err(ArchiveError::Corrupt("unknown keyframe codec"));
        }
        let mode = c.u8()?;
        let kind = c.u8()?;
        let param = c.f64()?;
        let delta = match (mode, kind) {
            (0, 0) => DeltaMode::Keyframes,
            (2, 0) => DeltaMode::Xor,
            (1, 1) if param.is_finite() && param > 0.0 => {
                DeltaMode::Bounded(cc_codecs::ErrorBound::Abs(param))
            }
            (1, 2) if param.is_finite() && param > 0.0 => {
                DeltaMode::Bounded(cc_codecs::ErrorBound::Rel(param))
            }
            _ => return Err(ArchiveError::Corrupt("invalid delta mode / bound")),
        };
        let keyframe_every = c.u32()?;
        if keyframe_every == 0 {
            return Err(ArchiveError::Corrupt("keyframe interval is zero"));
        }
        let n_frames = c.u32()? as usize;
        // Cap before allocation: the fixed-size entries must actually fit
        // in the remaining index bytes.
        if n_frames
            .checked_mul(FRAME_ENTRY_LEN)
            .filter(|&need| need <= c.remaining())
            .is_none()
        {
            return Err(ArchiveError::Corrupt("frame count exceeds index section"));
        }
        let mut frames = Vec::with_capacity(n_frames);
        for i in 0..n_frames {
            let kind = match c.u8()? {
                0 => FrameKind::Key,
                1 => FrameKind::Delta,
                _ => return Err(ArchiveError::Corrupt("unknown frame kind")),
            };
            let parent = c.u32()?;
            let offset = c.u64()?;
            let len = c.u64()?;
            match kind {
                FrameKind::Key => {
                    if parent as usize != i {
                        return Err(ArchiveError::Corrupt("keyframe parent is not itself"));
                    }
                }
                FrameKind::Delta => {
                    if delta == DeltaMode::Keyframes {
                        return Err(ArchiveError::Corrupt("delta frame in keyframes-only variable"));
                    }
                    if parent as usize >= i {
                        return Err(ArchiveError::Corrupt("keyframe-chain cycle"));
                    }
                }
            }
            if i == 0 && kind != FrameKind::Key {
                return Err(ArchiveError::Corrupt("first frame is not a keyframe"));
            }
            // Frames live strictly between the magic and the index.
            if len == 0
                || offset < MAGIC.len() as u64
                || offset.checked_add(len).filter(|&end| end <= index_offset).is_none()
            {
                return Err(ArchiveError::Corrupt("frame range outside frame region"));
            }
            frames.push(FrameEntry { kind, parent, offset, len });
        }
        vars.push(VarEntry { name, layout, codec, delta, keyframe_every, frames });
    }
    if c.remaining() != 0 {
        return Err(ArchiveError::Corrupt("trailing bytes after index"));
    }
    Ok(ArchiveIndex {
        vars,
        index_offset,
        index_bytes: bytes.len() as u64 + FOOTER_LEN as u64,
        file_len,
    })
}
