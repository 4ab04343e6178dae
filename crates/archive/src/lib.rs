//! Temporal archive container — the `cc-arch/1` format.
//!
//! The paper evaluates each timestep independently, but real climate
//! archives are long runs where adjacent timesteps are overwhelmingly
//! correlated. This crate stores, per variable, a time sequence of fields
//! as **keyframes** (any existing [`cc_codecs::Variant`], encoded through
//! the deterministic chunked pipeline) interleaved with **delta frames**
//! that predict each element from the *reconstructed* previous timestep
//! and quantize the residual under the same [`ErrorBound`] machinery as
//! the SZ codec, entropy-coded through `cc-lossless`.
//!
//! # File layout
//!
//! ```text
//! [0..8)   magic  "ccarch1\n"
//! [8..I)   frame blobs, back to back (per variable, in time order)
//! [I..F)   index section (see `index` module)
//! [F..F+16) footer: u64 LE index offset `I` | "CCARIDX1"
//! ```
//!
//! The footer is fixed-size and lives at the end of the file, so a reader
//! seeks to `len-16`, reads the index, and from then on reads **only** the
//! byte ranges of the keyframe chain it needs — never the whole file.
//! [`ArchiveReader`] counts every byte it requests so tests can pin that
//! property.
//!
//! # Keyframe-chain invariant
//!
//! Every frame entry carries a `parent` pointer: keyframes point at
//! themselves, delta frames point at a strictly earlier frame (the writer
//! always emits `t-1`). The index parser rejects any entry where a delta's
//! parent is not strictly smaller than its own position — so a validated
//! chain walk is strictly decreasing, terminates at a keyframe (frame 0
//! must be one), and a corrupted index can never send the reader around a
//! cycle.
//!
//! # Error bound across chains
//!
//! Delta frames re-quantize against the reconstructed previous frame, not
//! the original — the same encoder-mirrors-decoder discipline as SZ — so
//! the pointwise bound `|x' − x| ≤ e` holds for every frame regardless of
//! chain length; quantization error does not accumulate. Elements the
//! lattice cannot capture (or non-finite values) take a bit-exact escape
//! path. Without a bound, delta frames XOR the raw IEEE bits against the
//! previous reconstruction (then shuffle + deflate), which reconstructs
//! the original exactly even under a lossy keyframe codec.
//!
//! # Totality
//!
//! Decode is total over untrusted bytes per DESIGN.md §7 and §16: the
//! index is bounds-checked against the file size before any frame read,
//! section lengths satisfy exact equations, and every allocation is
//! capped before it happens ([`cc_lossless::decompress_capped`] carries
//! the frame-body caps). Damaged input yields a typed [`ArchiveError`],
//! never a panic.

pub mod delta;
pub mod index;
pub mod reader;
pub mod source;
pub mod writer;

pub use index::{ArchiveIndex, DeltaMode, FrameEntry, FrameKind, VarEntry};
pub use reader::ArchiveReader;
pub use source::{FileSource, SliceSource};
pub use writer::{ArchiveWriter, VarSummary};

use cc_codecs::{CodecError, ErrorBound, Variant};

/// Leading file magic.
pub const MAGIC: &[u8; 8] = b"ccarch1\n";
/// Trailing footer magic.
pub const FOOTER_MAGIC: &[u8; 8] = b"CCARIDX1";
/// Footer size: u64 index offset + footer magic.
pub const FOOTER_LEN: usize = 16;
/// Default keyframe interval (`--keyframe-every`).
pub const DEFAULT_KEYFRAME_EVERY: usize = 16;

/// Per-variable encoding options.
#[derive(Debug, Clone)]
pub struct ArchiveOptions {
    /// Keyframe codec (any paper variant; encoded via the chunked
    /// pipeline, so archive bytes are identical at any pool width).
    pub variant: Variant,
    /// `Some(e)` selects bounded delta frames (`|x' − x| ≤ e` per
    /// element); `None` selects exact XOR delta frames.
    pub bound: Option<ErrorBound>,
    /// Distance between keyframes along the time axis (≥ 1; 1 disables
    /// delta frames entirely).
    pub keyframe_every: usize,
}

impl ArchiveOptions {
    /// Options with the default keyframe interval and no error bound
    /// (lossless XOR deltas).
    pub fn new(variant: Variant) -> Self {
        ArchiveOptions { variant, bound: None, keyframe_every: DEFAULT_KEYFRAME_EVERY }
    }

    /// Select bounded delta frames.
    pub fn with_bound(mut self, bound: ErrorBound) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Override the keyframe interval.
    pub fn with_keyframe_every(mut self, every: usize) -> Self {
        self.keyframe_every = every;
        self
    }
}

/// Typed archive failure. Decode paths return these for any damaged
/// input; they never panic.
#[derive(Debug)]
pub enum ArchiveError {
    /// The bytes violate the `cc-arch/1` format.
    Corrupt(&'static str),
    /// A keyframe codec rejected its blob.
    Codec(CodecError),
    /// A lossless-compressed section rejected its bytes.
    Lossless(cc_lossless::Error),
    /// File-backed source I/O failure.
    Io(std::io::Error),
    /// The requested variable is not in the archive.
    NoSuchVariable(String),
    /// The request itself is out of range (timestep, level) or the
    /// writer was misused (mismatched frame lengths, empty input).
    BadRequest(&'static str),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Corrupt(what) => write!(f, "corrupt archive: {what}"),
            ArchiveError::Codec(e) => write!(f, "archive keyframe codec: {e}"),
            ArchiveError::Lossless(e) => write!(f, "archive lossless section: {e}"),
            ArchiveError::Io(e) => write!(f, "archive i/o: {e}"),
            ArchiveError::NoSuchVariable(name) => write!(f, "no such variable in archive: {name}"),
            ArchiveError::BadRequest(what) => write!(f, "bad archive request: {what}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<CodecError> for ArchiveError {
    fn from(e: CodecError) -> Self {
        ArchiveError::Codec(e)
    }
}

impl From<cc_lossless::Error> for ArchiveError {
    fn from(e: cc_lossless::Error) -> Self {
        ArchiveError::Lossless(e)
    }
}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}
