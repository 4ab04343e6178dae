//! Pins on the quick-preset verdicts: Table 6's tallies, Table 7's average
//! CRs, Table 8's composition and the four `repro tune` rows.
//!
//! The tuner picks the most aggressive passing configuration, so a test of
//! the battery that quietly weakens (a looser threshold, a dropped test)
//! makes picks lossier while every other suite stays green. Each such
//! weakening moves at least one count below. The values are literals, and
//! every count that moved is named in the failure. A change that moves a
//! verdict on purpose re-pins it here and says why.

use cc_bench::{RunConfig, FOCUS};
use climate_compress::codecs::Variant;
use climate_compress::core::evaluation::Evaluation;
use climate_compress::core::hybrid_methods;
use climate_compress::core::report::cr_fmt;
use climate_compress::core::tuning::score_vars;
use std::collections::BTreeMap;

/// Table 6: passes of ρ, RMSZ ens., E_nmax ens., bias and all four, per
/// paper variant.
const TABLE6: [(&str, [usize; 5]); 9] = [
    ("GRIB2", [170, 168, 168, 153, 153]),
    ("APAX-2", [170, 170, 170, 170, 170]),
    ("APAX-4", [112, 161, 164, 150, 97]),
    ("APAX-5", [28, 129, 148, 98, 23]),
    ("fpzip-24", [170, 170, 170, 170, 170]),
    ("fpzip-16", [120, 143, 126, 140, 115]),
    ("ISA-0.1", [154, 167, 160, 165, 150]),
    ("ISA-0.5", [130, 164, 139, 150, 125]),
    ("ISA-1.0", [93, 161, 131, 146, 92]),
];
const TABLE6_TESTS: [&str; 5] = ["rho", "RMSZ ens.", "Enmax ens.", "bias", "all"];

/// Table 7: avg. CR per column, as printed.
const TABLE7_AVG_CR: [(&str, &str); 5] =
    [("GRIB2", "0.39"), ("ISABELA", "0.49"), ("fpzip", "0.39"), ("APAX", "0.36"), ("NC", "0.84")];

/// Table 8: variables per (hybrid, variant).
const TABLE8: [(&str, &str, usize); 11] = [
    ("GRIB2", "GRIB2", 153),
    ("GRIB2", "NetCDF-4", 17),
    ("ISABELA", "ISA-1.0", 92),
    ("ISABELA", "ISA-0.5", 33),
    ("ISABELA", "ISA-0.1", 25),
    ("ISABELA", "NetCDF-4", 20),
    ("fpzip", "fpzip-16", 115),
    ("fpzip", "fpzip-24", 55),
    ("APAX", "APAX-5", 23),
    ("APAX", "APAX-4", 74),
    ("APAX", "APAX-2", 73),
];

/// `repro tune`: Tuned, Tuned CR, Hybrid, Hybrid CR and Pass per focus
/// variable.
const TUNE: [(&str, [&str; 5]); 4] = [
    ("U", ["SZ-rel-1e-3", "0.24", "APAX-4", "0.25", "20"]),
    ("FSDSC", ["APAX-5", "0.21", "APAX-5", "0.21", "18"]),
    ("Z3", ["GRIB2(D=1)", "0.34", "GRIB2", "0.37", "10"]),
    ("CCN3", ["fpzip-16", "0.27", "fpzip-16", "0.27", "11"]),
];
const TUNE_COLUMNS: [&str; 5] = ["Tuned", "Tuned CR", "Hybrid", "Hybrid CR", "Pass"];

/// Collects every pinned value that differs from what the run computed.
#[derive(Default)]
struct Moved(Vec<String>);

impl Moved {
    fn check(&mut self, what: String, got: impl ToString, pinned: impl ToString) {
        let (got, pinned) = (got.to_string(), pinned.to_string());
        if got != pinned {
            self.0.push(format!("{what}: pinned {pinned}, got {got}"));
        }
    }
}

/// One scoring of every variable, as `repro` renders from it.
#[test]
fn quick_preset_tables_and_tune_picks_are_pinned() {
    let eval = RunConfig::quick().evaluation();
    let vars: Vec<usize> = (0..eval.model.registry().len()).collect();
    let focus = FOCUS.map(|n| eval.model.var_id(n).expect("focus variable"));
    let mut scored = score_vars(&eval, &vars, |v| focus.contains(&v));
    let mut moved = Moved::default();

    for (variant, (name, pinned)) in Variant::paper_set().into_iter().zip(TABLE6) {
        assert_eq!(variant.name(), name, "Table 6 row order");
        let t = Evaluation::tally(scored.iter().map(|s| s.get(variant)));
        let got = [t.pearson, t.rmsz, t.enmax, t.bias, t.all];
        for ((test, g), p) in TABLE6_TESTS.iter().zip(got).zip(pinned) {
            moved.check(format!("Table 6 {name} {test}"), g, p);
        }
    }

    let hybrids = hybrid_methods(&scored);
    for (h, (label, pinned)) in hybrids.iter().zip(TABLE7_AVG_CR) {
        assert_eq!(h.label, label, "Table 7 column order");
        moved.check(format!("Table 7 {label} avg. CR"), cr_fmt(h.cr_stats().0), pinned);
    }
    let mut composition: BTreeMap<(String, String), usize> = hybrids[..4]
        .iter()
        .flat_map(|h| h.composition().into_iter().map(|(v, n)| ((h.label.clone(), v), n)))
        .collect();
    for (label, variant, pinned) in TABLE8 {
        let got = composition.remove(&(label.to_string(), variant.to_string())).unwrap_or(0);
        moved.check(format!("Table 8 {label} {variant}"), got, pinned);
    }
    for ((label, variant), got) in composition {
        moved.check(format!("Table 8 {label} {variant}"), got, 0);
    }

    for (&var, (name, pinned)) in focus.iter().zip(TUNE) {
        let v = scored[var].tune();
        assert_eq!(v.verdict.name, name, "tune row order");
        let got = [
            v.verdict.variant.name(),
            cr_fmt(v.verdict.cr),
            v.hybrid.variant.name(),
            cr_fmt(v.hybrid.cr),
            v.passing.to_string(),
        ];
        for ((column, g), p) in TUNE_COLUMNS.iter().zip(got).zip(pinned) {
            moved.check(format!("tune {name} {column}"), g, p);
        }
    }

    assert!(moved.0.is_empty(), "pinned quick-preset verdicts moved:\n{}", moved.0.join("\n"));
}
