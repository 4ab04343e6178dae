//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * fpzip precision ladder (8/16/24/32) — the multiple-of-8 restriction
//!   the paper calls fpzip's biggest drawback;
//! * APAX rate sweep including the paper's untried rates 6 and 7
//!   ("we have not yet tried fixed compression rates 6 and 7 for APAX");
//! * ISABELA error-bound ladder;
//! * shuffle on/off ahead of deflate (why NetCDF-4 enables the filter).
//!
//! CRs and errors are printed at setup; criterion tracks the timing side.

use cc_codecs::apax::Apax;
use cc_codecs::fpzip::Fpzip;
use cc_codecs::isabela::Isabela;
use cc_codecs::{Codec, Layout};
use cc_grid::Resolution;
use cc_lossless::{compress, shuffle, Level};
use cc_metrics::ErrorMetrics;
use cc_model::Model;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn field() -> (Vec<f32>, Layout) {
    let model = Model::new(Resolution::reduced(6, 6), 77);
    let member = model.member(0);
    let f = model.synthesize(&member, model.var_id("U").unwrap());
    (f.data, Layout::for_grid(model.grid(), f.nlev))
}

fn report(label: &str, codec: &dyn Codec, data: &[f32], layout: Layout) {
    let bytes = codec.compress(data, layout);
    let recon = codec.decompress(&bytes, layout).unwrap();
    let m = ErrorMetrics::compare(data, &recon).unwrap();
    eprintln!(
        "ablation {label}: CR {:.3}, NRMSE {:.2e}, rho {:.8}",
        bytes.len() as f64 / (data.len() * 4) as f64,
        m.nrmse,
        m.pearson
    );
}

fn bench_ablations(c: &mut Criterion) {
    let (data, layout) = field();

    let mut group = c.benchmark_group("ablation/fpzip_precision");
    group.sample_size(10);
    for bits in [8u8, 16, 24, 32] {
        let codec = Fpzip::new(bits);
        report(&format!("fpzip-{bits}"), &codec, &data, layout);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &data, |b, d| {
            b.iter(|| black_box(codec.compress(black_box(d), layout)))
        });
    }
    group.finish();

    // fpzip residual entropy stage: static Rice vs adaptive range coding
    // (the published fpzip's choice).
    let mut group = c.benchmark_group("ablation/fpzip_entropy");
    group.sample_size(10);
    for (label, entropy) in [
        ("rice", cc_codecs::fpzip::Entropy::Rice),
        ("range", cc_codecs::fpzip::Entropy::Range),
    ] {
        let codec = Fpzip::new(24).with_entropy(entropy);
        report(&format!("fpzip-24/{label}"), &codec, &data, layout);
        group.bench_function(label, |b| {
            b.iter(|| black_box(codec.compress(black_box(&data), layout)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation/apax_rates");
    group.sample_size(10);
    for rate in [2.0f64, 4.0, 5.0, 6.0, 7.0] {
        let codec = Apax::fixed_rate(rate);
        report(&format!("APAX-{rate}"), &codec, &data, layout);
        group.bench_with_input(BenchmarkId::from_parameter(rate), &data, |b, d| {
            b.iter(|| black_box(codec.compress(black_box(d), layout)))
        });
    }
    group.finish();

    // GRIB2 second-stage packing: the paper's JPEG2000 pipeline vs WMO
    // complex packing with spatial differencing (template 5.3).
    let mut group = c.benchmark_group("ablation/grib2_packing");
    group.sample_size(10);
    for (label, packing) in [
        ("jpeg2000", cc_codecs::grib2::Packing::Jpeg2000),
        ("complex_diff", cc_codecs::grib2::Packing::ComplexDiff),
    ] {
        let codec = cc_codecs::grib2::Grib2::auto().with_packing(packing);
        report(&format!("GRIB2/{label}"), &codec, &data, layout);
        group.bench_function(label, |b| {
            b.iter(|| black_box(codec.compress(black_box(&data), layout)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation/isabela_bounds");
    group.sample_size(10);
    for pct in [0.1f64, 0.5, 1.0] {
        let codec = Isabela::new(pct / 100.0);
        report(&format!("ISA-{pct}"), &codec, &data, layout);
        group.bench_with_input(BenchmarkId::from_parameter(pct), &data, |b, d| {
            b.iter(|| black_box(codec.compress(black_box(d), layout)))
        });
    }
    group.finish();

    // Shuffle on/off ahead of deflate.
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let shuffled = shuffle(&bytes, 4);
    eprintln!(
        "ablation shuffle: raw deflate CR {:.3}, shuffled deflate CR {:.3}",
        compress(&bytes, Level::Default).len() as f64 / bytes.len() as f64,
        compress(&shuffled, Level::Default).len() as f64 / bytes.len() as f64,
    );
    let mut group = c.benchmark_group("ablation/shuffle_filter");
    group.sample_size(10);
    group.bench_function("deflate_raw", |b| {
        b.iter(|| black_box(compress(black_box(&bytes), Level::Default)))
    });
    group.bench_function("deflate_shuffled", |b| {
        b.iter(|| black_box(compress(black_box(&shuffled), Level::Default)))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
