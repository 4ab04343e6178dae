//! Golden-stream pins: the encoded byte format must not drift.
//!
//! Every hash below was captured from the pre-kernel-overhaul
//! implementation (u8-accumulator bit I/O, comparator-sort ISABELA). The
//! rewritten kernels must reproduce these streams byte-for-byte: the bit
//! I/O rewrite and the ISABELA scratch/radix-sort changes are both
//! required to be format-preserving.
//!
//! Regenerate (only after an intentional format change) with:
//! `GOLDEN_DUMP=1 cargo test -p cc-codecs --test golden_streams -- --nocapture`

use cc_codecs::chunked::{compress_chunked, decompress_chunked};
use cc_codecs::{ErrorBound, Layout, Variant};

/// FNV-1a 64-bit over the full stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic synthetic field shared with the determinism suite:
/// smooth climate-like base plus small structured noise.
fn field(layout: Layout) -> Vec<f32> {
    let mut data = Vec::with_capacity(layout.len());
    for lev in 0..layout.nlev {
        for p in 0..layout.npts {
            let x = p as f32 / layout.npts as f32;
            data.push(
                250.0
                    + 40.0 * (7.1 * x).sin()
                    + 3.0 * (53.0 * x + lev as f32 * 0.7).cos()
                    + 0.05 * ((p * 37 + lev * 11) % 97) as f32,
            );
        }
    }
    data
}

/// The 11 variants whose stream formats are pinned: the nine paper
/// configurations plus the two lossless fallbacks.
fn all_variants() -> Vec<Variant> {
    let mut vs = Variant::paper_set();
    vs.push(Variant::NetCdf4);
    vs.push(Variant::Fpzip { bits: 32 });
    vs
}

/// Single-chunk 2-D field: the chunked stream is the plain codec stream.
const LAYOUT_2D: Layout = Layout { nlev: 1, npts: 40_000, rows: 200, cols: 200 };
/// Single-chunk 3-D field (two levels grouped into one chunk).
const LAYOUT_3D: Layout = Layout { nlev: 2, npts: 9_000, rows: 95, cols: 95 };

/// Captured single-chunk stream hashes: (variant name, 2-D hash, 3-D hash).
const GOLDEN_SINGLE: &[(&str, u64, u64)] = &[
    ("GRIB2", 0xfec73f6cbc18904b, 0xda26a4f1869ee9e1),
    ("APAX-2", 0x37eb6b240fc5fb46, 0x44166f74bb0da1f1),
    ("APAX-4", 0x5ebd58095555c739, 0x62f3a21af3143ba5),
    ("APAX-5", 0xc954cb1ebe3acd45, 0x401de3470f585a85),
    ("fpzip-24", 0x6dd29906ef2d21f6, 0x22c9f2ba4b372d12),
    ("fpzip-16", 0xd58b37824426569b, 0xf4335ff2eb3413a0),
    ("ISA-0.1", 0x600064bef82a58e0, 0x2decc8ed7bbb7ce7),
    ("ISA-0.5", 0x0448ef17a6e4cb37, 0x70e5a2824cc0943b),
    ("ISA-1.0", 0x0448ef17a6e4cb37, 0x70e5a2824cc0943b),
    ("NetCDF-4", 0x1af8199da6a94d46, 0x48daf263fb4599ef),
    ("fpzip-32", 0xfcde143023828f4e, 0x04e48db21dbdf643),
];

#[test]
fn single_chunk_streams_are_pinned() {
    let data_2d = field(LAYOUT_2D);
    let data_3d = field(LAYOUT_3D);
    let mut dump = String::new();
    for v in all_variants() {
        let codec = v.codec();
        let name = if matches!(v, Variant::Fpzip { bits: 32 }) {
            "fpzip-32".to_string()
        } else {
            v.name()
        };
        let h2 = fnv1a(&compress_chunked(codec.as_ref(), &data_2d, LAYOUT_2D, 1));
        let h3 = fnv1a(&compress_chunked(codec.as_ref(), &data_3d, LAYOUT_3D, 1));
        if std::env::var("GOLDEN_DUMP").is_ok() {
            dump.push_str(&format!("    (\"{name}\", {h2:#018x}, {h3:#018x}),\n"));
            continue;
        }
        let (_, g2, g3) = GOLDEN_SINGLE
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"));
        assert_eq!(h2, *g2, "{name}: 2-D single-chunk stream bytes drifted");
        assert_eq!(h3, *g3, "{name}: 3-D single-chunk stream bytes drifted");
    }
    if !dump.is_empty() {
        println!("const GOLDEN_SINGLE: &[(&str, u64, u64)] = &[\n{dump}];");
    }
}

/// The SZ variants whose stream formats are pinned: two rungs of the
/// relative-bound tuning ladder plus an absolute bound.
fn sz_variants() -> Vec<Variant> {
    vec![
        Variant::Sz { bound: ErrorBound::Rel(1e-3) },
        Variant::Sz { bound: ErrorBound::Rel(1e-5) },
        Variant::Sz { bound: ErrorBound::Abs(1e-2) },
    ]
}

/// Captured SZ single-chunk stream hashes: (variant name, 2-D, 3-D).
const GOLDEN_SZ: &[(&str, u64, u64)] = &[
    ("SZ-rel-1e-3", 0x45842488f8866edd, 0x985d973b77cc0d5a),
    ("SZ-rel-1e-5", 0xb16a987feae6fa87, 0x22dc9f06a7dbf5af),
    ("SZ-abs-1e-2", 0xf31b0b5a69278380, 0xfdfa064ce12b6431),
];

#[test]
fn sz_single_chunk_streams_are_pinned() {
    let data_2d = field(LAYOUT_2D);
    let data_3d = field(LAYOUT_3D);
    let mut dump = String::new();
    for v in sz_variants() {
        let codec = v.codec();
        let name = v.name();
        let h2 = fnv1a(&compress_chunked(codec.as_ref(), &data_2d, LAYOUT_2D, 1));
        let h3 = fnv1a(&compress_chunked(codec.as_ref(), &data_3d, LAYOUT_3D, 1));
        if std::env::var("GOLDEN_DUMP").is_ok() {
            dump.push_str(&format!("    (\"{name}\", {h2:#018x}, {h3:#018x}),\n"));
            continue;
        }
        let (_, g2, g3) = GOLDEN_SZ
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"));
        assert_eq!(h2, *g2, "{name}: 2-D single-chunk stream bytes drifted");
        assert_eq!(h3, *g3, "{name}: 3-D single-chunk stream bytes drifted");
    }
    if !dump.is_empty() {
        println!("const GOLDEN_SZ: &[(&str, u64, u64)] = &[\n{dump}];");
    }
}

/// Multi-chunk field whose levels exceed `TARGET_CHUNK_ELEMS`, so the
/// encoder splits within each level.
const LAYOUT_SPLIT: Layout = Layout { nlev: 2, npts: 100_000, rows: 317, cols: 317 };

/// Hashes of the two per-level plain streams of [`LAYOUT_SPLIT`]'s field
/// (100,000 points each), per variant.
const GOLDEN_LEVELS: &[(&str, u64, u64)] = &[
    ("fpzip-24", 0x0cb2a57411bbb714, 0x44026fd28359707c),
    ("ISA-0.5", 0x8bd8970fbe0c9c27, 0xb9c2655ba9e33d5e),
    ("NetCDF-4", 0x56cbe47303f5d8fe, 0xa15fd01c3e30c761),
];

#[test]
fn per_level_payload_streams_are_pinned() {
    let data = field(LAYOUT_SPLIT);
    let per_level = Layout { nlev: 1, ..LAYOUT_SPLIT };
    let mut dump = String::new();
    for (name, variant) in [
        ("fpzip-24", Variant::Fpzip { bits: 24 }),
        ("ISA-0.5", Variant::Isabela { rel_err: 0.005 }),
        ("NetCDF-4", Variant::NetCdf4),
    ] {
        let codec = variant.codec();
        let lev0 = codec.compress(&data[..LAYOUT_SPLIT.npts], per_level);
        let lev1 = codec.compress(&data[LAYOUT_SPLIT.npts..], per_level);
        if std::env::var("GOLDEN_DUMP").is_ok() {
            dump.push_str(&format!(
                "    (\"{name}\", {:#018x}, {:#018x}),\n",
                fnv1a(&lev0),
                fnv1a(&lev1)
            ));
            continue;
        }
        let (_, g0, g1) = GOLDEN_LEVELS
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"));
        assert_eq!(fnv1a(&lev0), *g0, "{name}: level-0 payload bytes drifted");
        assert_eq!(fnv1a(&lev1), *g1, "{name}: level-1 payload bytes drifted");
    }
    if !dump.is_empty() {
        println!("const GOLDEN_LEVELS: &[(&str, u64, u64)] = &[\n{dump}];");
    }
}

#[test]
fn current_encoder_roundtrips_split_levels() {
    // Companion to the per-level pin: whatever partition the encoder
    // picks for split levels, its own streams roundtrip at several
    // worker counts with identical bytes.
    let data = field(LAYOUT_SPLIT);
    let codec = Variant::Fpzip { bits: 24 }.codec();
    let seq = compress_chunked(codec.as_ref(), &data, LAYOUT_SPLIT, 1);
    for workers in [2, 8] {
        let par = compress_chunked(codec.as_ref(), &data, LAYOUT_SPLIT, workers);
        assert_eq!(seq, par, "workers={workers} bytes differ from sequential");
    }
    let back = decompress_chunked(codec.as_ref(), &seq, LAYOUT_SPLIT, 4).unwrap();
    assert_eq!(back.len(), data.len());
}
