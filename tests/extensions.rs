//! Integration tests for the extension features: SSIM, calibration and
//! time-series conversion.

use climate_compress::codecs::Variant;
use climate_compress::core::evaluation::{EvalConfig, Evaluation};
use climate_compress::core::{calibration, timeseries, visual};
use climate_compress::grid::Resolution;
use climate_compress::model::Model;

fn small_eval(members: usize) -> Evaluation {
    Evaluation::new(Model::new(Resolution::reduced(2, 3), 909), EvalConfig::quick(members))
}

#[test]
fn visual_check_agrees_with_pvt_on_extremes() {
    let eval = small_eval(9);
    let ctx = eval.context(eval.model.var_id("TS").unwrap());
    let lossless = visual::ssim_report(&ctx, Variant::NetCdf4).unwrap();
    assert!(lossless.pass && (lossless.mean - 1.0).abs() < 1e-12);
    let brutal = visual::ssim_report(&ctx, Variant::Grib2 { decimal_scale: Some(-3) }).unwrap();
    assert!(!brutal.pass, "100-K quantization must fail SSIM: {}", brutal.worst);
}

#[test]
fn calibration_reports_clean_operating_point() {
    let eval = small_eval(15);
    let ctx = eval.context(eval.model.var_id("U").unwrap());
    let c = calibration::calibrate(&ctx);
    assert_eq!(c.rmsz_false_positive, 0.0);
    assert_eq!(c.enmax_false_positive, 0.0);
    assert!(c.rmsz_detection_sigma.is_some());
}

#[test]
fn timeseries_roundtrip_through_disk() {
    let model = Model::new(Resolution::reduced(2, 2), 31);
    let var = model.var_id("PS").unwrap();
    let variant = Variant::Fpzip { bits: 24 };
    let ds = timeseries::write_timeseries(&model, 2, var, 3, 0.5, variant);
    let path = std::env::temp_dir().join("cc_ts_test.ccn");
    ds.save(&path).unwrap();
    let back = climate_compress::ncdf::Dataset::open(&path).unwrap();
    for t in 0..3 {
        let slice = timeseries::read_slice(&back, &model, variant, t).unwrap();
        assert_eq!(slice.len(), model.var_points(var), "slice {t}");
    }
    std::fs::remove_file(&path).ok();
}
