//! The GRIB2 decimal-scale story of Section 5.4: a global `D` is terrible,
//! a magnitude-based `D` is decent, and the RMSZ-ensemble-guided search
//! finds the competitive setting the paper reports.
//!
//! ```text
//! cargo run --release --example grib2_tuning [VARIABLE]
//! ```

use climate_compress::codecs::grib2::Grib2;
use climate_compress::codecs::Variant;
use climate_compress::core::evaluation::{verdict_for, EvalConfig, Evaluation};
use climate_compress::core::tuning::{auto_d_window, ladder_pick, score};
use climate_compress::grid::Resolution;
use climate_compress::model::Model;

fn main() {
    let var_name = std::env::args().nth(1).unwrap_or_else(|| "CCN3".to_string());

    let model = Model::new(Resolution::reduced(4, 5), 3);
    let eval = Evaluation::new(model, EvalConfig::quick(19));
    let var = eval
        .model
        .var_id(&var_name)
        .unwrap_or_else(|| panic!("unknown variable {var_name}"));
    println!("building ensemble context for {var_name} ...\n");
    let ctx = eval.context(var);

    // 1. The naive global setting (same D for every variable).
    println!("strategy 1: one global D for all variables (the paper's first attempt)");
    for d in [0i32, 2] {
        let v = verdict_for(&ctx, Variant::Grib2 { decimal_scale: Some(d) });
        println!(
            "  D={d}: CR {:.2}, NRMSE {:.2e}, all-tests pass = {}",
            v.cr,
            v.metrics().map_or(0.0, |m| m.nrmse),
            v.all_pass()
        );
    }

    // 2. Magnitude-based D (per-variable customization).
    let sample = &ctx.fields[ctx.sample_idx[0]];
    let stats = climate_compress::metrics::FieldStats::compute(sample).expect("stats");
    let auto_d = Grib2::auto_decimal_scale(stats.range());
    let v = verdict_for(&ctx, Variant::Grib2 { decimal_scale: None });
    println!("\nstrategy 2: magnitude-based D (range {:.3e} -> D={auto_d})", stats.range());
    println!(
        "  CR {:.2}, NRMSE {:.2e}, all-tests pass = {}",
        v.cr,
        v.metrics().map_or(0.0, |m| m.nrmse),
        v.all_pass()
    );

    // 3. The RMSZ-ensemble-guided search.
    println!("\nstrategy 3: RMSZ-ensemble-guided search (the paper's competitive setting)");
    let window = auto_d_window(&ctx);
    let scored = score(&ctx, &window);
    let pick = ladder_pick(&scored, &window);
    match pick.variant {
        Variant::Grib2 { decimal_scale: Some(d) } if pick.all_pass() => println!(
            "  selected D={d} (auto was {auto_d}): CR {:.2}, all-tests pass = {}",
            pick.cr,
            pick.all_pass()
        ),
        _ => println!(
            "  no D in the search window passes all tests -> fall back to NetCDF-4 lossless \
             (exactly the hybrid's fallback path)"
        ),
    }
}
