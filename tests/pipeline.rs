//! End-to-end integration: model → codecs → metrics → PVT, across crates.

use climate_compress::codecs::{Layout, Variant};
use climate_compress::core::evaluation::{verdict_for, EvalConfig, Evaluation};
use climate_compress::grid::Resolution;
use climate_compress::metrics::{is_special, ErrorMetrics, FieldStats, FILL_VALUE};
use climate_compress::model::Model;

fn small_eval() -> Evaluation {
    Evaluation::new(Model::new(Resolution::reduced(2, 3), 4242), EvalConfig::quick(9))
}

#[test]
fn every_paper_variant_roundtrips_every_focus_variable() {
    let eval = small_eval();
    let member = eval.model.member(0);
    for name in ["U", "FSDSC", "Z3", "CCN3"] {
        let var = eval.model.var_id(name).unwrap();
        let field = eval.model.synthesize(&member, var);
        let layout = Layout::for_grid(eval.model.grid(), field.nlev);
        for variant in Variant::paper_set() {
            let codec = variant.codec();
            let bytes = codec.compress(&field.data, layout);
            let recon = codec.decompress(&bytes, layout).expect("roundtrip");
            assert_eq!(recon.len(), field.data.len(), "{name}/{}", variant.name());
            let m = ErrorMetrics::compare(&field.data, &recon).expect("comparable");
            assert!(m.pearson > 0.99, "{name}/{}: rho {}", variant.name(), m.pearson);
            assert!(m.e_nmax < 0.2, "{name}/{}: e_nmax {}", variant.name(), m.e_nmax);
        }
    }
}

#[test]
fn lossless_paths_are_bit_exact_on_model_output() {
    let eval = small_eval();
    let member = eval.model.member(3);
    for name in ["U", "SST", "PRECT", "CLDTOT"] {
        let var = eval.model.var_id(name).unwrap();
        let field = eval.model.synthesize(&member, var);
        let layout = Layout::for_grid(eval.model.grid(), field.nlev);
        for variant in [Variant::NetCdf4, Variant::Fpzip { bits: 32 }] {
            let codec = variant.codec();
            let bytes = codec.compress(&field.data, layout);
            let recon = codec.decompress(&bytes, layout).expect("roundtrip");
            // SST carries the model's fills: both paths give back
            // cc-metrics' FILL_VALUE there (fpzip-32 behind the guard
            // restores the canonical fill); everything else must be
            // bit-exact.
            for (i, (&a, &b)) in field.data.iter().zip(&recon).enumerate() {
                if is_special(a) {
                    assert_eq!(b, FILL_VALUE, "{name}/{}: fill at {i}", variant.name());
                } else {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name}/{} at {i}", variant.name());
                }
            }
        }
    }
}

#[test]
fn verification_pipeline_discriminates_quality() {
    // The whole point of the methodology: a near-lossless setting passes,
    // a brutal setting fails, on the same variable and same ensemble.
    let eval = small_eval();
    let var = eval.model.var_id("TS").unwrap();
    let ctx = eval.context(var);
    let good = verdict_for(&ctx, Variant::Fpzip { bits: 24 });
    let bad = verdict_for(&ctx, Variant::Grib2 { decimal_scale: Some(-3) });
    assert!(good.all_pass(), "fpzip-24 should pass on TS");
    assert!(!bad.all_pass(), "100-K quantization must fail on TS");
}

#[test]
fn compression_error_sits_within_natural_variability() {
    // Paper's acceptance concept: reconstruction error of a passing method
    // is far below the ensemble's own member-to-member differences.
    let eval = small_eval();
    let var = eval.model.var_id("U").unwrap();
    let ctx = eval.context(var);
    let v = verdict_for(&ctx, Variant::Apax { rate: 2.0 });
    let e = v.members[0].metrics.expect("U is not degenerate").e_nmax;
    let ens_range = ctx.enmax_dist.min();
    assert!(
        e < ens_range / 10.0,
        "APAX-2 error {e} should be well under ensemble differences {ens_range}"
    );
}

#[test]
fn history_file_written_compressed_and_recovered() {
    let model = Model::new(Resolution::reduced(2, 2), 7);
    let member = model.member(1);
    let ds = model.history_file(&member);
    // All 170 data variables + 5 coordinate variables (lat/lon/lev/hyam/hybm),
    // stored smaller than raw in aggregate.
    assert_eq!(ds.vars().len(), 175);
    let raw: usize = (0..ds.vars().len()).map(|v| ds.var_raw_bytes(v)).sum();
    let stored: usize = (0..ds.vars().len()).map(|v| ds.var_stored_bytes(v)).sum();
    assert!(stored < raw, "shuffle+deflate should shrink history: {stored} vs {raw}");

    let bytes = ds.to_bytes();
    let back = climate_compress::ncdf::Dataset::from_bytes(&bytes).unwrap();
    let t = back.var_id("T").unwrap();
    let direct = model.synthesize(&member, model.var_id("T").unwrap());
    assert_eq!(back.get_f32(t).unwrap(), direct.data);
}

#[test]
fn field_stats_match_registry_intent() {
    // Spot-check that generated data lands in each spec's family: fraction
    // variables in [0,1], lognormal positive, linear near offset.
    let model = Model::new(Resolution::reduced(2, 3), 99);
    let member = model.member(0);
    for (i, spec) in model.registry().iter().enumerate() {
        let field = model.synthesize(&member, i);
        let stats = FieldStats::compute(&field.data)
            .unwrap_or_else(|| panic!("{} fully special", spec.name));
        match spec.dist {
            climate_compress::model::Distribution::Fraction => {
                assert!(stats.min >= 0.0 && stats.max <= 1.0, "{}", spec.name);
            }
            climate_compress::model::Distribution::Log { .. } => {
                assert!(stats.min > 0.0, "{} lognormal must be positive", spec.name);
            }
            climate_compress::model::Distribution::Linear { offset, amp } => {
                // Vertical profiles add absolute offsets (Z3 spans 41 m to
                // 37.7 km); allow for them in the envelope.
                assert!(
                    (stats.mean - offset).abs() < 20.0 * amp + offset.abs() + 40_000.0,
                    "{}: mean {} vs offset {offset}",
                    spec.name,
                    stats.mean
                );
            }
        }
    }
}
