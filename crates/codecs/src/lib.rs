//! The four lossy compressor families evaluated in Baker et al. (HPDC'14),
//! reimplemented from scratch in Rust.
//!
//! | Module | Paper algorithm | Mechanism reproduced |
//! |---|---|---|
//! | [`fpzip`] | fpzip (Lindstrom & Isenburg 2006) | Lorenzo prediction over the monotone integer mapping of floats; lossy by truncating to 8/16/24/32 retained bits |
//! | [`isabela`] | ISABELA (Lakshminarasimhan et al. 2011) | per-window sorting + B-spline fit of the sorted curve + per-point relative-error guarantee |
//! | [`apax`] | APAX (Samplify; Wegener patent) | adaptive derivative pre-filter + block-floating-point coding, exact fixed-rate and fixed-quality modes, profiler |
//! | [`grib2`] | GRIB2 + JPEG2000 (WMO) | decimal-scaled integer packing with a bitmap for missing data, then a reversible CDF 5/3 wavelet + entropy coder |
//!
//! All codecs implement the [`Codec`] trait over single-precision fields
//! with a spatial [`Layout`], produce self-contained byte streams, and
//! advertise their [`CodecProperties`] — the six attributes of the paper's
//! Table 1. [`guard::SpecialValueGuard`] adds special-value (1e35 fill)
//! handling around codecs that lack it, the pre/post-processing route the
//! paper anticipates; GRIB2 handles missing points natively via its bitmap.
//!
//! [`Variant`] enumerates the nine configurations the paper's evaluation
//! sweeps (GRIB2, APAX-2/4/5, fpzip-16/24, ISABELA-0.1/0.5/1.0) plus the
//! NetCDF-4 lossless fallback used by the hybrid methods.

pub mod apax;
pub mod chunked;
pub mod obs_wrap;
pub mod fpzip;
pub mod grib2;
pub mod guard;
pub mod isabela;
pub mod sz;
pub mod varint;
pub mod wavelet;

mod variant;

pub use obs_wrap::ObsCodec;
pub use sz::{ErrorBound, Sz};
pub use variant::{Family, NetCdf4Codec, Variant};

/// Spatial layout of a field handed to a codec.
///
/// Fields are level-major (`data[lev * npts + p]`); `rows × cols` is the
/// latitude-major 2-D embedding of the horizontal point list supplied by
/// `cc-grid` (`rows·cols ≥ npts`), which transform codecs use for 2-D
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Vertical levels (1 for 2-D variables).
    pub nlev: usize,
    /// Horizontal points per level.
    pub npts: usize,
    /// Rows of the 2-D embedding.
    pub rows: usize,
    /// Columns of the 2-D embedding.
    pub cols: usize,
}

impl Layout {
    /// Layout for a field on `grid` with `nlev` levels.
    pub fn for_grid(grid: &cc_grid::Grid, nlev: usize) -> Self {
        let (rows, cols) = grid.shape_2d();
        Layout { nlev, npts: grid.len(), rows, cols }
    }

    /// A 1-D layout (tests, generic data): `npts = n`, single level, and a
    /// near-square embedding.
    pub fn linear(n: usize) -> Self {
        let cols = (n as f64).sqrt().ceil().max(1.0) as usize;
        let rows = n.div_ceil(cols.max(1)).max(1);
        Layout { nlev: 1, npts: n, rows, cols }
    }

    /// Total number of values in the field.
    pub fn len(&self) -> usize {
        self.nlev * self.npts
    }

    /// True iff the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Decode-side failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Stream too short / framing damaged.
    Corrupt(&'static str),
    /// Bit-level decode failure.
    Bits(cc_lossless::Error),
    /// Stream does not match the supplied layout.
    LayoutMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(m) => write!(f, "corrupt codec stream: {m}"),
            CodecError::Bits(e) => write!(f, "bitstream error: {e}"),
            CodecError::LayoutMismatch => write!(f, "stream does not match layout"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<cc_lossless::Error> for CodecError {
    fn from(e: cc_lossless::Error) -> Self {
        CodecError::Bits(e)
    }
}

/// The six algorithm attributes of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecProperties {
    /// Has a lossless mode.
    pub lossless_mode: bool,
    /// Handles special/missing values natively.
    pub special_values: bool,
    /// Open source / freely available (true for everything here except the
    /// APAX reimplementation, whose original is commercial).
    pub freely_available: bool,
    /// Supports a fixed-quality mode (quality target, varying CR).
    pub fixed_quality: bool,
    /// Supports a fixed-compression-rate mode (exact CR, varying quality).
    pub fixed_cr: bool,
    /// Handles both 32- and 64-bit data.
    pub bits_32_and_64: bool,
}

/// A lossy (or lossless) compressor over single-precision fields.
pub trait Codec: Send + Sync {
    /// Display name, e.g. `"fpzip-16"`, `"APAX-4"`, `"ISA-0.5"`, `"GRIB2"`.
    fn name(&self) -> String;

    /// The Table-1 attribute row for this algorithm family.
    fn properties(&self) -> CodecProperties;

    /// Compress `data` (length `layout.len()`), producing a self-contained
    /// byte stream.
    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8>;

    /// Reconstruct a field from `bytes`; `layout` must match compression.
    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError>;
}

impl Codec for Box<dyn Codec> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn properties(&self) -> CodecProperties {
        (**self).properties()
    }

    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8> {
        (**self).compress(data, layout)
    }

    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        (**self).decompress(bytes, layout)
    }
}

/// Convenience: compress, measure, reconstruct in one call.
/// Returns `(reconstructed, compressed_len)`.
pub fn roundtrip(codec: &dyn Codec, data: &[f32], layout: Layout) -> (Vec<f32>, usize) {
    try_roundtrip(codec, data, layout).expect("roundtrip of freshly compressed data")
}

/// Fallible sibling of [`roundtrip`]: compress then decompress, surfacing
/// the decode error instead of panicking. Returns `(reconstructed,
/// compressed_len)`.
pub fn try_roundtrip(
    codec: &dyn Codec,
    data: &[f32],
    layout: Layout,
) -> Result<(Vec<f32>, usize), CodecError> {
    let bytes = codec.compress(data, layout);
    let n = bytes.len();
    Ok((codec.decompress(&bytes, layout)?, n))
}

/// Byte length of the layout echo every codec stream starts with.
pub const LAYOUT_HEADER_LEN: usize = 16;

/// Write the 16-byte layout echo (`nlev`, `npts`, `rows`, `cols` as
/// little-endian u32) that prefixes every codec stream, letting decoders
/// verify the stream was produced for the layout they were handed.
pub fn write_layout_header(out: &mut Vec<u8>, layout: Layout) {
    for v in [layout.nlev, layout.npts, layout.rows, layout.cols] {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
}

/// Strip and validate the layout echo written by [`write_layout_header`],
/// returning the stream body. A short prefix is [`CodecError::Corrupt`];
/// a well-formed echo for a different layout is
/// [`CodecError::LayoutMismatch`].
pub fn check_layout_header(bytes: &[u8], layout: Layout) -> Result<&[u8], CodecError> {
    if bytes.len() < LAYOUT_HEADER_LEN {
        return Err(CodecError::Corrupt("truncated layout header"));
    }
    let rd = |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
    let want = [layout.nlev as u32, layout.npts as u32, layout.rows as u32, layout.cols as u32];
    if [rd(0), rd(4), rd(8), rd(12)] != want {
        return Err(CodecError::LayoutMismatch);
    }
    Ok(&bytes[LAYOUT_HEADER_LEN..])
}

#[cfg(test)]
pub(crate) mod testdata {
    use super::Layout;

    /// Smooth 2-levels climate-like field plus its layout.
    pub fn smooth_field(npts: usize, nlev: usize) -> (Vec<f32>, Layout) {
        let layout = Layout { nlev, npts, ..Layout::linear(npts) };
        let mut data = Vec::with_capacity(layout.len());
        for lev in 0..nlev {
            for p in 0..npts {
                let x = p as f32 / npts as f32;
                let v = 240.0
                    + 30.0 * (6.3 * x).sin()
                    + 5.0 * (31.0 * x + lev as f32).cos()
                    + lev as f32 * 2.0;
                data.push(v);
            }
        }
        (data, layout)
    }

    /// Noisy lognormal field (chemistry-like).
    pub fn noisy_field(npts: usize) -> (Vec<f32>, Layout) {
        let layout = Layout::linear(npts);
        let mut state = 0x5EEDu64;
        let data = (0..npts)
            .map(|p| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                let x = p as f64 / npts as f64;
                (10f64.powf(-6.0 + 2.0 * (4.0 * x).sin() + 1.5 * (u - 0.5))) as f32
            })
            .collect();
        (data, layout)
    }
}
