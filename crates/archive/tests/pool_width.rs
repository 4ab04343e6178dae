//! Archive bytes do not depend on the pool's width.
//!
//! The writer encodes keyframe chains on the `cc-par` pool at
//! `default_workers()`. One run is written at pool widths 1, 2 and 8, set
//! with the process-wide `cc_par::set_global_workers` (hence a test
//! binary of its own), and once from inside a pool worker, where the
//! nested-context guard runs every chain on that one thread. All four
//! archives must be byte-identical.

use cc_archive::{ArchiveOptions, ArchiveWriter};
use cc_codecs::{ErrorBound, Layout, Variant};
use cc_grid::Resolution;
use cc_model::Model;

type Run = Vec<(String, Layout, Vec<Vec<f32>>)>;

/// A short correlated run of real model fields.
fn model_run(nslices: usize, vars: &[&str]) -> Run {
    let model = Model::new(Resolution::reduced(2, 3), 42);
    let members = model.trajectory(3, nslices, 0.05);
    vars.iter()
        .map(|&var| {
            let id = model.var_id(var).expect("known variable");
            let frames = members.iter().map(|m| model.synthesize(m, id).data).collect();
            (var.to_string(), Layout::for_grid(model.grid(), model.var_nlev(id)), frames)
        })
        .collect()
}

/// A synthetic field whose two levels each fill a chunk of the chunked
/// pipeline, so a one-chain variable's keyframe fans out itself.
fn wide_run(nslices: usize) -> Run {
    let layout = Layout { nlev: 2, npts: 40_000, rows: 200, cols: 200 };
    let frames = (0..nslices)
        .map(|t| {
            (0..layout.len())
                .map(|i| {
                    let x = (i % layout.npts) as f32 / layout.npts as f32;
                    250.0 + 40.0 * (7.1 * x + 0.05 * t as f32).sin() + (i / layout.npts) as f32
                })
                .collect()
        })
        .collect();
    vec![("WIDE".to_string(), layout, frames)]
}

fn build(run: &Run, opts: &ArchiveOptions) -> Vec<u8> {
    let mut w = ArchiveWriter::new();
    for (name, layout, frames) in run {
        w.add_variable(name, *layout, frames, opts).unwrap();
    }
    w.finish()
}

#[test]
fn archive_bytes_identical_at_any_pool_width() {
    let bound = ErrorBound::Rel(1e-4);
    let sz = ArchiveOptions::new(Variant::Sz { bound }).with_bound(bound);
    let xor = ArchiveOptions::new(Variant::Fpzip { bits: 24 });
    let run = model_run(20, &["U", "FSDSC"]);
    let cases = [
        // Three chains per variable, the last one short.
        ("bounded, 3 chains", &run, sz.clone().with_keyframe_every(8)),
        ("xor, 4 chains", &run, xor.with_keyframe_every(5)),
        // One chain per variable, with a two-chunk keyframe.
        ("bounded, 1 chain", &wide_run(6), sz.with_keyframe_every(16)),
    ];
    for (label, run, opts) in &cases {
        cc_par::set_global_workers(1);
        let base = build(run, opts);
        for width in [2, 8] {
            cc_par::set_global_workers(width);
            assert!(build(run, opts) == base, "{label}: pool width {width} changed the bytes");
        }
        let inside = cc_par::par_map_with(2, &[0, 1], |_| {
            assert!(cc_par::in_pool_worker());
            build(run, opts)
        });
        assert!(
            inside.iter().all(|bytes| *bytes == base),
            "{label}: writing from inside a pool worker changed the bytes"
        );
    }
    cc_par::set_global_workers(0);
}
