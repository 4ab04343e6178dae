//! DEFLATE-class lossless compression, from scratch.
//!
//! The paper uses NetCDF-4's zlib compression as (a) the lossless baseline
//! characterizing each variable (Table 2's "CR" column), (b) the "NC" column
//! of Table 7, and (c) the lossless fallback inside the hybrid methods of
//! Section 5.4. No zlib binding is in the approved dependency set, so this
//! crate implements the whole stack:
//!
//! * [`bitio`] — LSB-first bit-level readers and writers (shared with the
//!   lossy codecs in `cc-codecs`).
//! * [`huffman`] — canonical Huffman coding with package-merge length
//!   limiting.
//! * [`lz77`] — hash-chain match finding over a 32 KiB window.
//! * [`deflate`] — a DEFLATE-like container: stored and dynamic-Huffman
//!   blocks over the LZ77 token stream (custom framing; we need
//!   self-interoperability, not zlib interoperability).
//! * [`mod@shuffle`] — the HDF5-style byte-transpose filter that makes IEEE
//!   floats far more compressible, applied before deflate exactly as
//!   NetCDF-4 does.
//!
//! The top-level convenience functions bundle the NetCDF-4 behaviour:
//! shuffle + deflate over raw little-endian float bytes.

pub mod bitio;
pub mod deflate;
pub mod huffman;
pub mod lz77;
pub mod range;
pub mod shuffle;

pub use deflate::{compress, decompress, decompress_capped, Level};
pub use shuffle::{shuffle, unshuffle};

/// Error type for decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Input ended before the stream was complete.
    UnexpectedEof,
    /// The stream contains an invalid code, length, or distance.
    Corrupt(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            Error::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Compress a `f32` slice the way NetCDF-4 does: byte-shuffle then deflate.
pub fn compress_f32_shuffled(data: &[f32], level: Level) -> Vec<u8> {
    let _s = cc_obs::span("lossless.encode_f32");
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let shuffled = shuffle(&bytes, 4);
    compress(&shuffled, level)
}

/// Inverse of [`compress_f32_shuffled`].
pub fn decompress_f32_shuffled(data: &[u8]) -> Result<Vec<f32>, Error> {
    let _s = cc_obs::span("lossless.decode_f32");
    let shuffled = decompress(data)?;
    if shuffled.len() % 4 != 0 {
        return Err(Error::Corrupt("shuffled f32 payload not a multiple of 4"));
    }
    let bytes = unshuffle(&shuffled, 4);
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_shuffled_roundtrip() {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.1).sin() * 100.0).collect();
        let z = compress_f32_shuffled(&data, Level::Default);
        let back = decompress_f32_shuffled(&z).unwrap();
        assert_eq!(data, back);
        assert!(z.len() < data.len() * 4, "smooth data should compress");
    }

    #[test]
    fn decompress_garbage_is_error_not_panic() {
        let garbage = vec![0xABu8; 64];
        // Any outcome but a panic is acceptable; must not loop forever.
        let _ = decompress_f32_shuffled(&garbage);
    }
}
