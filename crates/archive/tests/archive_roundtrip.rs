//! Round-trip, error-bound, and byte-accounting contracts for the
//! `cc-arch/1` container (pool-width determinism lives in `pool_width.rs`).
//!
//! * every (variable, timestep, level) random slice equals the same
//!   slice of a full sequential decode;
//! * bounded mode satisfies `|x' − x| ≤ e` per element across delta
//!   chains — quantization error must not accumulate past the bound;
//! * a random slice fetch at a 100+-timestep archive reads only its
//!   keyframe chain plus the index, a small fraction of the file;
//! * a reader decodes each keyframe once: a repeat fetch reads only its
//!   chain's delta frames, through the reader or any clone of it.

use cc_archive::{ArchiveError, ArchiveOptions, ArchiveReader, ArchiveWriter, DeltaMode};
use cc_codecs::{ErrorBound, Layout, Variant};
use cc_grid::Resolution;
use cc_model::Model;

/// A short correlated run of real model fields: (layout, frames per var).
fn model_run(nslices: usize, vars: &[&str]) -> Vec<(String, Layout, Vec<Vec<f32>>)> {
    let model = Model::new(Resolution::reduced(2, 3), 42);
    let members = model.trajectory(3, nslices, 0.05);
    vars.iter()
        .map(|&var| {
            let id = model.var_id(var).expect("known variable");
            let frames: Vec<Vec<f32>> = members
                .iter()
                .map(|m| model.synthesize(m, id).data)
                .collect();
            let nlev = model.var_nlev(id);
            (var.to_string(), Layout::for_grid(model.grid(), nlev), frames)
        })
        .collect()
}

fn build(
    run: &[(String, Layout, Vec<Vec<f32>>)],
    opts: &ArchiveOptions,
) -> Vec<u8> {
    let mut w = ArchiveWriter::new();
    for (name, layout, frames) in run {
        w.add_variable(name, *layout, frames, opts).unwrap();
    }
    w.finish()
}

#[test]
fn random_slices_match_sequential_decode() {
    let run = model_run(30, &["U", "FSDSC"]);
    let opts = ArchiveOptions::new(Variant::NetCdf4).with_keyframe_every(7);
    let bytes = build(&run, &opts);

    for workers in [1usize, 2, 8] {
        let mut seq = ArchiveReader::open(bytes.as_slice()).unwrap().with_workers(workers);
        let mut rng = 0x5EEDu64;
        for (name, layout, _) in &run {
            let full = seq.decode_variable(name).unwrap();
            assert_eq!(full.len(), 30);
            // Every timestep × a sweep of levels, plus a random scatter.
            for (t, frame) in full.iter().enumerate() {
                for lev in [0, layout.nlev - 1] {
                    let mut r = ArchiveReader::open(bytes.as_slice()).unwrap().with_workers(workers);
                    let slice = r.fetch_slice(name, t, lev).unwrap();
                    let want = &frame[lev * layout.npts..(lev + 1) * layout.npts];
                    assert_eq!(
                        slice.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "slice ({name}, t={t}, lev={lev}) workers={workers}"
                    );
                }
            }
            for _ in 0..20 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let t = (rng >> 33) as usize % full.len();
                let lev = (rng >> 11) as usize % layout.nlev;
                let mut r = ArchiveReader::open(bytes.as_slice()).unwrap().with_workers(workers);
                let slice = r.fetch_slice(name, t, lev).unwrap();
                let want = &full[t][lev * layout.npts..(lev + 1) * layout.npts];
                assert_eq!(
                    slice.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn bounded_mode_holds_pointwise_bound_across_chains() {
    let e = 1e-2f64;
    let run = model_run(40, &["U"]);
    // Long chains on purpose: 39 delta frames after the first keyframe.
    let opts = ArchiveOptions::new(Variant::Sz { bound: ErrorBound::Abs(e) })
        .with_bound(ErrorBound::Abs(e))
        .with_keyframe_every(64);
    let bytes = build(&run, &opts);
    let mut r = ArchiveReader::open(bytes.as_slice()).unwrap();
    let (name, _, frames) = &run[0];
    let decoded = r.decode_variable(name).unwrap();
    for (t, (orig, back)) in frames.iter().zip(&decoded).enumerate() {
        let mut worst = 0.0f64;
        for (x, y) in orig.iter().zip(back) {
            if x.is_finite() {
                worst = worst.max((*x as f64 - *y as f64).abs());
            } else {
                assert_eq!(x.to_bits(), y.to_bits(), "non-finite must escape bit-exactly");
            }
        }
        assert!(worst <= e, "t={t}: worst error {worst} exceeds bound {e} — accumulation");
    }
}

#[test]
fn xor_mode_reconstructs_bit_exactly() {
    let run = model_run(20, &["FSDSC"]);
    // Lossy keyframes + XOR deltas: delta frames must still round-trip
    // the original bits exactly.
    let opts = ArchiveOptions::new(Variant::Fpzip { bits: 24 }).with_keyframe_every(10);
    let bytes = build(&run, &opts);
    let mut r = ArchiveReader::open(bytes.as_slice()).unwrap();
    let (name, _, frames) = &run[0];
    let decoded = r.decode_variable(name).unwrap();
    for (t, (orig, back)) in frames.iter().zip(&decoded).enumerate() {
        if t % 10 == 0 {
            continue; // keyframes are lossy by choice of codec
        }
        assert_eq!(
            orig.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "xor delta frame t={t} must be bit-exact"
        );
    }
}

#[test]
fn slice_fetch_reads_only_chain_plus_index() {
    let nslices = 120;
    let run = model_run(nslices, &["U", "FSDSC"]);
    let opts = ArchiveOptions::new(Variant::Sz { bound: ErrorBound::Rel(1e-4) })
        .with_bound(ErrorBound::Rel(1e-4))
        .with_keyframe_every(16);
    let bytes = build(&run, &opts);
    let file_len = bytes.len() as u64;

    let mut rng = 0xACC0u64;
    for round in 0..12 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let (name, layout, _) = &run[round % run.len()];
        let t = (rng >> 33) as usize % nslices;
        let lev = (rng >> 13) as usize % layout.nlev;

        let mut r = ArchiveReader::open(bytes.as_slice()).unwrap();
        let entry = r.index().var(name).unwrap();
        let budget = entry.chain_bytes(t).unwrap() + r.index().index_bytes + 8;
        r.fetch_slice(name, t, lev).unwrap();
        let read = r.bytes_read();
        assert!(
            read <= budget,
            "({name}, t={t}): read {read} bytes, budget chain+index = {budget}"
        );
        assert!(
            read * 4 < file_len,
            "({name}, t={t}): read {read} of {file_len} — not ≪ file size"
        );
    }
}

/// Blob bytes of the delta frames in `t`'s keyframe chain.
fn chain_delta_bytes(entry: &cc_archive::VarEntry, t: usize) -> u64 {
    let chain = entry.chain(t).unwrap();
    chain[1..].iter().map(|&i| entry.frames[i].len).sum()
}

#[test]
fn repeat_fetches_reuse_decoded_keyframes() {
    let run = model_run(20, &["U", "FSDSC"]);
    let opts = ArchiveOptions::new(Variant::Sz { bound: ErrorBound::Rel(1e-4) })
        .with_bound(ErrorBound::Rel(1e-4))
        .with_keyframe_every(6);
    let bytes = build(&run, &opts);
    let mut reader = ArchiveReader::open(bytes.as_slice()).unwrap();
    let reference: Vec<Vec<Vec<f32>>> = run
        .iter()
        .map(|(name, _, _)| {
            ArchiveReader::open(bytes.as_slice()).unwrap().decode_variable(name).unwrap()
        })
        .collect();
    for pass in 0..2 {
        for ((name, layout, _), full) in run.iter().zip(&reference) {
            let entry = reader.index().var(name).unwrap().clone();
            for (t, frame) in full.iter().enumerate() {
                for lev in 0..layout.nlev {
                    let before = reader.bytes_read();
                    let slice = reader.fetch_slice(name, t, lev).unwrap();
                    let want = &frame[lev * layout.npts..(lev + 1) * layout.npts];
                    assert_eq!(
                        slice.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "pass {pass}: slice ({name}, t={t}, lev={lev})"
                    );
                    if pass == 1 {
                        assert_eq!(
                            reader.bytes_read() - before,
                            chain_delta_bytes(&entry, t),
                            "({name}, t={t}, lev={lev}): a repeat fetch re-read its keyframe"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn clones_share_decoded_keyframes() {
    let run = model_run(12, &["U"]);
    let opts = ArchiveOptions::new(Variant::NetCdf4).with_keyframe_every(4);
    let bytes = build(&run, &opts);
    let (name, _, _) = &run[0];
    let mut reader = ArchiveReader::open(bytes.as_slice()).unwrap();
    assert_eq!(reader.cached_bytes(), 0);
    let want = reader.fetch_slice(name, 6, 1).unwrap();
    let entry = reader.index().var(name).unwrap().clone();
    let key_bytes = entry.layout.len() as u64 * 4;
    assert_eq!(reader.cached_bytes(), key_bytes, "one keyframe decoded");

    // A clone made afterwards, on another thread, finds the keyframe
    // already decoded and reads only the deltas.
    let mut clone = reader.clone();
    let (got, read) = std::thread::scope(|s| {
        s.spawn(move || {
            let before = clone.bytes_read();
            let got = clone.fetch_slice(name, 6, 1).unwrap();
            (got, clone.bytes_read() - before)
        })
        .join()
        .unwrap()
    });
    assert_eq!(got, want);
    assert_eq!(read, chain_delta_bytes(&entry, 6));
    // Keyframes a clone decodes land in the shared cache too.
    let mut other = reader.clone();
    for t in 0..12 {
        other.fetch_frame(name, t).unwrap();
    }
    assert_eq!(reader.cached_bytes(), 3 * key_bytes, "12 frames at interval 4 → 3 keyframes");
}

#[test]
fn info_index_is_faithful() {
    let run = model_run(12, &["U"]);
    let opts = ArchiveOptions::new(Variant::NetCdf4)
        .with_bound(ErrorBound::Abs(1e-3))
        .with_keyframe_every(4);
    let bytes = build(&run, &opts);
    let r = ArchiveReader::open(bytes.as_slice()).unwrap();
    let idx = r.index();
    assert_eq!(idx.vars.len(), 1);
    let v = &idx.vars[0];
    assert_eq!(v.name, "U");
    assert_eq!(v.codec, "NetCDF-4");
    assert_eq!(v.keyframe_every, 4);
    assert_eq!(v.frames.len(), 12);
    assert_eq!(v.delta, DeltaMode::Bounded(ErrorBound::Abs(1e-3)));
    let keys = v.frames.iter().filter(|f| f.kind == cc_archive::FrameKind::Key).count();
    assert_eq!(keys, 3, "12 frames at interval 4 → 3 keyframes");
    assert_eq!(idx.file_len, bytes.len() as u64);
}

#[test]
fn keyframe_codec_must_resolve_by_name() {
    // The index names the keyframe codec, so a tuned GRIB2(D=d) pick
    // seals an archive whose reader finds that codec again...
    let run = model_run(6, &["U"]);
    let (name, layout, frames) = &run[0];
    let bytes = build(&run, &ArchiveOptions::new(Variant::Grib2 { decimal_scale: Some(3) }));
    let mut r = ArchiveReader::open(bytes.as_slice()).unwrap();
    assert_eq!(r.index().var(name).unwrap().codec, "GRIB2(D=3)");
    for t in 0..frames.len() {
        for lev in 0..layout.nlev {
            assert_eq!(r.fetch_slice(name, t, lev).unwrap().len(), layout.npts);
        }
    }
    // ...and a variant no name resolves to is refused before sealing.
    let opts = ArchiveOptions::new(Variant::Apax { rate: 6.0 });
    let err = ArchiveWriter::new().add_variable(name, *layout, frames, &opts).unwrap_err();
    assert!(matches!(err, ArchiveError::BadRequest(_)), "{err}");
}
