//! Golden-archive pins: the bytes `ArchiveWriter` produces must not drift.
//!
//! Each hash is FNV-1a 64 over a whole sealed archive (frame blobs,
//! index and footer) of two synthetic variables, so it pins every frame
//! blob, every index offset and the order in which frames are appended.
//! The cases cover both delta modes (bounded SZ residuals and exact XOR
//! words) at keyframe intervals of 1, 7 (which does not divide the frame
//! count, so the last chain is short) and at least the frame count (one
//! chain per variable).
//!
//! Regenerate (only after an intentional format change) with:
//! `GOLDEN_DUMP=1 cargo test -p cc-archive --test golden_archive -- --nocapture`

use cc_archive::{ArchiveOptions, ArchiveWriter};
use cc_codecs::{ErrorBound, Layout, Variant};

/// FNV-1a 64-bit over the full archive.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FRAMES: usize = 20;
const LAYOUT_3D: Layout = Layout { nlev: 3, npts: 1_200, rows: 30, cols: 40 };
const LAYOUT_2D: Layout = Layout { nlev: 1, npts: 2_500, rows: 50, cols: 50 };

/// A slowly drifting field: a smooth base that moves with `t`, plus
/// small structured noise. Frame 9 carries a NaN and an infinity, so
/// bounded deltas take their bit-exact escape path, and frame 13 of a
/// 2-D field is constant, so a relative bound has no effective value and
/// that delta falls back to exact raw bits.
fn frames(layout: Layout, phase: f32) -> Vec<Vec<f32>> {
    (0..FRAMES)
        .map(|t| {
            let tf = t as f32;
            let mut data = Vec::with_capacity(layout.len());
            for lev in 0..layout.nlev {
                for p in 0..layout.npts {
                    let x = p as f32 / layout.npts as f32;
                    data.push(
                        250.0
                            + 40.0 * (7.1 * x + 0.03 * tf + phase).sin()
                            + 3.0 * (53.0 * x + lev as f32 * 0.7).cos()
                            + 0.2 * tf
                            + 0.05 * ((p * 37 + lev * 11 + t * 5) % 97) as f32,
                    );
                }
            }
            if t == 9 {
                data[17] = f32::NAN;
                data[101] = f32::INFINITY;
            }
            if t == 13 && layout.nlev == 1 {
                data.fill(260.0);
            }
            data
        })
        .collect()
}

fn archive(opts: &ArchiveOptions) -> Vec<u8> {
    let mut w = ArchiveWriter::new();
    w.add_variable("T3", LAYOUT_3D, &frames(LAYOUT_3D, 0.0), opts).unwrap();
    w.add_variable("S2", LAYOUT_2D, &frames(LAYOUT_2D, 1.3), opts).unwrap();
    w.finish()
}

/// (case label, options).
fn cases() -> Vec<(String, ArchiveOptions)> {
    let sz = |bound| ArchiveOptions::new(Variant::Sz { bound }).with_bound(bound);
    let xor = ArchiveOptions::new(Variant::Fpzip { bits: 24 });
    let mut out = Vec::new();
    for every in [1, 7, FRAMES, 64] {
        let bounded = sz(ErrorBound::Rel(1e-4)).with_keyframe_every(every);
        out.push((format!("bounded-rel-1e-4/{every}"), bounded));
        out.push((format!("xor-fpzip-24/{every}"), xor.clone().with_keyframe_every(every)));
    }
    out.push(("bounded-abs-1e-2/7".into(), sz(ErrorBound::Abs(1e-2)).with_keyframe_every(7)));
    let exact = ArchiveOptions::new(Variant::NetCdf4).with_keyframe_every(7);
    out.push(("xor-netcdf4/7".into(), exact));
    out
}

/// Captured whole-archive hashes: (case label, FNV-1a 64).
const GOLDEN: &[(&str, u64)] = &[
    ("bounded-rel-1e-4/1", 0x24f8803b8e39e7b8),
    ("xor-fpzip-24/1", 0x40b5f0d411f50b9a),
    ("bounded-rel-1e-4/7", 0xdb6b19375966bd1d),
    ("xor-fpzip-24/7", 0x674765e9b1cc42e4),
    ("bounded-rel-1e-4/20", 0xbd77687f606e7520),
    ("xor-fpzip-24/20", 0x45e646c3b6fd8f59),
    ("bounded-rel-1e-4/64", 0x5d21e98d1175a208),
    ("xor-fpzip-24/64", 0x6d184652dccae9e1),
    ("bounded-abs-1e-2/7", 0x3cb0d1ac14b4998b),
    ("xor-netcdf4/7", 0x6a350a9d504ede2d),
];

#[test]
fn archives_are_pinned() {
    let mut dump = String::new();
    for (label, opts) in cases() {
        let h = fnv1a(&archive(&opts));
        if std::env::var("GOLDEN_DUMP").is_ok() {
            dump.push_str(&format!("    (\"{label}\", {h:#018x}),\n"));
            continue;
        }
        let (_, want) = GOLDEN
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no golden entry for {label}"));
        assert_eq!(h, *want, "{label}: archive bytes drifted");
    }
    if !dump.is_empty() {
        println!("const GOLDEN: &[(&str, u64)] = &[\n{dump}];");
    }
}
