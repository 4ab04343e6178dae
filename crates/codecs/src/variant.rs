//! The compression configurations evaluated in the paper.
//!
//! Section 5.1: "For fpzip, we use two different levels of precision …
//! fpzip-16 and fpzip-24. We apply the B-spline variant of ISABELA with
//! three different per-point relative error values: 1.0, 0.5, 0.1 … we only
//! show one result [for GRIB2] … we evaluate the APAX compressor using the
//! fixed compression rates 2, 4 and 5." The hybrid construction of Section
//! 5.4 additionally uses the lossless fallbacks fpzip-32 and NetCDF-4.

use crate::apax::Apax;
use crate::fpzip::Fpzip;
use crate::grib2::{Grib2, DECIMAL_SCALES};
use crate::guard::SpecialValueGuard;
use crate::isabela::Isabela;
use crate::obs_wrap::ObsCodec;
use crate::sz::{ErrorBound, Sz};
use crate::{Codec, CodecError, CodecProperties, Layout};

/// One evaluated configuration; [`Variant::codec`] instantiates it with
/// special-value handling in place (native for GRIB2/NetCDF-4, guarded for
/// the rest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// GRIB2 + JPEG2000 with per-variable magnitude-adaptive `D`, or a
    /// fixed `D` (e.g. from the ensemble-guided search).
    Grib2 {
        /// `None` = magnitude-adaptive; `Some(d)` = fixed decimal scale.
        decimal_scale: Option<i32>,
    },
    /// APAX at a fixed compression rate (the paper's 2, 4 and 5). Rate 1
    /// denotes APAX's lossless mode.
    Apax {
        /// Fixed compression rate.
        rate: f64,
    },
    /// fpzip with 8/16/24/32 retained bits (32 = lossless).
    Fpzip {
        /// Retained precision in bits.
        bits: u8,
    },
    /// ISABELA with a per-point relative error (fraction: 0.001 = 0.1%).
    Isabela {
        /// Relative error bound.
        rel_err: f64,
    },
    /// SZ-style error-bounded prediction + quantization with an absolute
    /// or value-range-relative pointwise bound (the extension sweep and
    /// the auto-tuner's primary family; not part of the paper's nine).
    Sz {
        /// Pointwise error bound.
        bound: ErrorBound,
    },
    /// NetCDF-4 lossless (shuffle + deflate) — the baseline and the
    /// lossless fallback for methods without a lossless mode.
    NetCdf4,
}

impl Variant {
    /// The nine lossy configurations of the paper's evaluation, in the
    /// row order of Tables 3-6.
    pub fn paper_set() -> Vec<Variant> {
        vec![
            Variant::Grib2 { decimal_scale: None },
            Variant::Apax { rate: 2.0 },
            Variant::Apax { rate: 4.0 },
            Variant::Apax { rate: 5.0 },
            Variant::Fpzip { bits: 24 },
            Variant::Fpzip { bits: 16 },
            Variant::Isabela { rel_err: 0.001 },
            Variant::Isabela { rel_err: 0.005 },
            Variant::Isabela { rel_err: 0.01 },
        ]
    }

    /// The variant ladder for each method family, lossiest first, used by
    /// the Section-5.4 hybrid customization. The final entry is the
    /// family's lossless fallback (own lossless mode where one exists,
    /// NetCDF-4 otherwise).
    pub fn ladder(family: Family) -> Vec<Variant> {
        match family {
            Family::Grib2 => vec![Variant::Grib2 { decimal_scale: None }, Variant::NetCdf4],
            Family::Apax => vec![
                Variant::Apax { rate: 5.0 },
                Variant::Apax { rate: 4.0 },
                Variant::Apax { rate: 2.0 },
                Variant::NetCdf4,
            ],
            Family::Fpzip => vec![
                Variant::Fpzip { bits: 16 },
                Variant::Fpzip { bits: 24 },
                Variant::Fpzip { bits: 32 },
            ],
            Family::Isabela => vec![
                Variant::Isabela { rel_err: 0.01 },
                Variant::Isabela { rel_err: 0.005 },
                Variant::Isabela { rel_err: 0.001 },
                Variant::NetCdf4,
            ],
            Family::Sz => vec![
                Variant::Sz { bound: ErrorBound::Rel(1e-2) },
                Variant::Sz { bound: ErrorBound::Rel(1e-3) },
                Variant::Sz { bound: ErrorBound::Rel(1e-4) },
                Variant::Sz { bound: ErrorBound::Rel(1e-5) },
                Variant::NetCdf4,
            ],
        }
    }

    /// Instantiate the codec, with special-value support supplied by the
    /// guard wherever the algorithm lacks it natively, and `cc-obs`
    /// instrumentation (spans + byte counters) wrapped around the whole
    /// stack. The wrapper is byte-transparent, so streams are identical
    /// to the uninstrumented codec's.
    pub fn codec(&self) -> Box<dyn Codec> {
        match *self {
            Variant::Grib2 { decimal_scale: None } => Box::new(ObsCodec::new(Grib2::auto())),
            Variant::Grib2 { decimal_scale: Some(d) } => Box::new(ObsCodec::new(Grib2::fixed(d))),
            Variant::Apax { rate } if rate <= 1.0 => {
                Box::new(ObsCodec::new(SpecialValueGuard::new(Apax::lossless())))
            }
            Variant::Apax { rate } => {
                Box::new(ObsCodec::new(SpecialValueGuard::new(Apax::fixed_rate(rate))))
            }
            Variant::Fpzip { bits } => {
                Box::new(ObsCodec::new(SpecialValueGuard::new(Fpzip::new(bits))))
            }
            Variant::Isabela { rel_err } => {
                Box::new(ObsCodec::new(SpecialValueGuard::new(Isabela::new(rel_err))))
            }
            Variant::Sz { bound } => {
                Box::new(ObsCodec::new(SpecialValueGuard::new(Sz::new(bound))))
            }
            Variant::NetCdf4 => Box::new(ObsCodec::new(NetCdf4Codec)),
        }
    }

    /// Resolve a display name (case-insensitive) back to a variant.
    /// Covers the paper set, the lossless fallbacks `NetCDF-4` and
    /// `fpzip-32`, fixed-scale GRIB2 (`GRIB2(D=<d>)`, the tuner's picks)
    /// and SZ bounds: any `SZ-abs-<e>` / `SZ-rel-<r>` with a positive
    /// finite parameter parses, so arbitrary bounds travel over the
    /// `ccc verify --codec` and `cc-serve` wire interfaces.
    pub fn by_name(name: &str) -> Option<Variant> {
        if let Some(v) = Variant::parse_sz(name).or_else(|| Variant::parse_grib2(name)) {
            return Some(v);
        }
        Variant::paper_set()
            .into_iter()
            .chain([Variant::NetCdf4, Variant::Fpzip { bits: 32 }])
            .find(|v| v.name().eq_ignore_ascii_case(name))
    }

    /// Parse `GRIB2(D=<d>)` (case-insensitive). Names arrive from the
    /// wire, so a `d` outside [`DECIMAL_SCALES`] is `None`, never a call
    /// into [`Grib2::fixed`]'s assert.
    fn parse_grib2(name: &str) -> Option<Variant> {
        let lower = name.to_ascii_lowercase();
        let d: i32 = lower.strip_prefix("grib2(d=")?.strip_suffix(')')?.parse().ok()?;
        DECIMAL_SCALES.contains(&d).then_some(Variant::Grib2 { decimal_scale: Some(d) })
    }

    /// Parse `SZ-abs-<float>` / `SZ-rel-<float>` (case-insensitive).
    fn parse_sz(name: &str) -> Option<Variant> {
        let lower = name.to_ascii_lowercase();
        let rest = lower.strip_prefix("sz-")?;
        let (kind, param) = rest
            .strip_prefix("abs-")
            .map(|p| (0u8, p))
            .or_else(|| rest.strip_prefix("rel-").map(|p| (1u8, p)))?;
        let p: f64 = param.parse().ok()?;
        if !(p.is_finite() && p > 0.0) {
            return None;
        }
        let bound = if kind == 0 { ErrorBound::Abs(p) } else { ErrorBound::Rel(p) };
        Some(Variant::Sz { bound })
    }

    /// True if this configuration reconstructs bit-exactly.
    pub fn is_lossless(&self) -> bool {
        matches!(
            self,
            Variant::NetCdf4 | Variant::Fpzip { bits: 32 }
        )
    }

    /// The family this variant belongs to.
    pub fn family(&self) -> Option<Family> {
        match self {
            Variant::Grib2 { .. } => Some(Family::Grib2),
            Variant::Apax { .. } => Some(Family::Apax),
            Variant::Fpzip { .. } => Some(Family::Fpzip),
            Variant::Isabela { .. } => Some(Family::Isabela),
            Variant::Sz { .. } => Some(Family::Sz),
            Variant::NetCdf4 => None,
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Variant::NetCdf4 => "NetCDF-4".to_string(),
            _ => self.codec().name(),
        }
    }
}

/// The four method families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// GRIB2 + JPEG2000.
    Grib2,
    /// Samplify APAX.
    Apax,
    /// fpzip.
    Fpzip,
    /// ISABELA.
    Isabela,
    /// SZ-style error-bounded prediction (extension; not in the paper).
    Sz,
}

impl Family {
    /// The paper's four families in the column order of Table 7. The SZ
    /// extension family is deliberately excluded so the paper-pinned
    /// tables keep their shape.
    pub fn all() -> [Family; 4] {
        [Family::Grib2, Family::Isabela, Family::Fpzip, Family::Apax]
    }

    /// Family display name.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Grib2 => "GRIB2",
            Family::Isabela => "ISABELA",
            Family::Fpzip => "fpzip",
            Family::Apax => "APAX",
            Family::Sz => "SZ",
        }
    }
}

/// NetCDF-4-style lossless codec: byte shuffle + deflate, exposed through
/// the [`Codec`] interface so it can slot into hybrid ladders.
#[derive(Debug, Clone, Copy)]
pub struct NetCdf4Codec;

impl Codec for NetCdf4Codec {
    fn name(&self) -> String {
        "NetCDF-4".to_string()
    }

    fn properties(&self) -> CodecProperties {
        CodecProperties {
            lossless_mode: true,
            special_values: true, // lossless: fills survive trivially
            freely_available: true,
            fixed_quality: false,
            fixed_cr: false,
            bits_32_and_64: true,
        }
    }

    fn compress(&self, data: &[f32], layout: Layout) -> Vec<u8> {
        assert_eq!(data.len(), layout.len(), "data length must match layout");
        cc_lossless::compress_f32_shuffled(data, cc_lossless::Level::Default)
    }

    fn decompress(&self, bytes: &[u8], layout: Layout) -> Result<Vec<f32>, CodecError> {
        let out = cc_lossless::decompress_f32_shuffled(bytes)?;
        if out.len() != layout.len() {
            return Err(CodecError::LayoutMismatch);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roundtrip;
    use crate::testdata::smooth_field;

    #[test]
    fn paper_set_has_nine_variants() {
        let set = Variant::paper_set();
        assert_eq!(set.len(), 9);
        let names: Vec<String> = set.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec![
                "GRIB2", "APAX-2", "APAX-4", "APAX-5", "fpzip-24", "fpzip-16", "ISA-0.1",
                "ISA-0.5", "ISA-1.0"
            ]
        );
    }

    #[test]
    fn every_paper_variant_roundtrips() {
        let (data, layout) = smooth_field(3000, 2);
        for v in Variant::paper_set() {
            let codec = v.codec();
            let (back, n) = roundtrip(codec.as_ref(), &data, layout);
            assert_eq!(back.len(), data.len(), "{}", v.name());
            assert!(n > 0);
        }
    }

    #[test]
    fn netcdf4_variant_is_lossless() {
        let (data, layout) = smooth_field(2500, 1);
        let codec = Variant::NetCdf4.codec();
        let (back, _) = roundtrip(codec.as_ref(), &data, layout);
        assert_eq!(back, data);
    }

    #[test]
    fn fpzip32_is_lossless() {
        let (data, layout) = smooth_field(2500, 1);
        let codec = Variant::Fpzip { bits: 32 }.codec();
        let (back, _) = roundtrip(codec.as_ref(), &data, layout);
        assert_eq!(back, data);
    }

    #[test]
    fn ladders_end_lossless() {
        for family in Family::all() {
            let ladder = Variant::ladder(family);
            assert!(!ladder.is_empty());
            assert!(
                ladder.last().unwrap().is_lossless(),
                "{:?} ladder must end with a lossless fallback",
                family
            );
        }
    }

    #[test]
    fn ladders_match_table8_composition() {
        // Table 8's variant lists: GRIB2+NetCDF-4; ISA-1.0/0.5/0.1+NetCDF-4;
        // fpzip-16/24/32; APAX-5/4/2+NetCDF-4.
        assert_eq!(Variant::ladder(Family::Grib2).len(), 2);
        assert_eq!(Variant::ladder(Family::Isabela).len(), 4);
        assert_eq!(Variant::ladder(Family::Fpzip).len(), 3);
        assert_eq!(Variant::ladder(Family::Apax).len(), 4);
    }

    #[test]
    fn names_roundtrip_by_name() {
        let rungs = Family::all().into_iter().chain([Family::Sz]).flat_map(Variant::ladder);
        let fixed_grib2 = DECIMAL_SCALES.map(|d| Variant::Grib2 { decimal_scale: Some(d) });
        for v in rungs.chain(fixed_grib2) {
            assert_eq!(Variant::by_name(&v.name()), Some(v), "{}", v.name());
        }
        let d_minus_3 = Variant::Grib2 { decimal_scale: Some(-3) };
        assert_eq!(Variant::by_name("grib2(d=-3)"), Some(d_minus_3));
        assert!(Variant::by_name("GRIB2(D=31)").is_none());
        assert!(Variant::by_name("GRIB2(D=-31)").is_none());
        assert!(Variant::by_name("GRIB2(D=)").is_none());
        let abs = Variant::by_name("SZ-abs-0.25").unwrap();
        assert_eq!(abs, Variant::Sz { bound: ErrorBound::Abs(0.25) });
        assert_eq!(Variant::by_name("sz-REL-1e-4"), Some(Variant::Sz {
            bound: ErrorBound::Rel(1e-4),
        }));
        assert!(Variant::by_name("SZ-abs-0").is_none());
        assert!(Variant::by_name("SZ-abs--1").is_none());
        assert!(Variant::by_name("SZ-abs-inf").is_none());
        assert!(Variant::by_name("SZ-pct-1").is_none());
    }

    #[test]
    fn sz_ladder_ends_lossless_and_variant_handles_fills() {
        let ladder = Variant::ladder(Family::Sz);
        assert_eq!(ladder.len(), 5);
        assert!(ladder.last().unwrap().is_lossless());
        let (mut data, layout) = smooth_field(2048, 1);
        for i in (0..2048).step_by(17) {
            data[i] = 1.0e35;
        }
        let v = Variant::Sz { bound: ErrorBound::Rel(1e-3) };
        let codec = v.codec();
        assert!(codec.properties().special_values);
        let (back, _) = roundtrip(codec.as_ref(), &data, layout);
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            if a == 1.0e35 {
                assert_eq!(b, 1.0e35, "SZ lost fill at {i}");
            }
        }
    }

    #[test]
    fn every_variant_handles_special_values() {
        let (mut data, layout) = smooth_field(2048, 1);
        for i in (0..2048).step_by(13) {
            data[i] = 1.0e35;
        }
        for v in Variant::paper_set() {
            let codec = v.codec();
            assert!(codec.properties().special_values, "{}", v.name());
            let (back, _) = roundtrip(codec.as_ref(), &data, layout);
            for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
                if a == 1.0e35 {
                    assert_eq!(b, 1.0e35, "{} lost fill at {i}", v.name());
                }
            }
        }
    }
}
