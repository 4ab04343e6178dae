//! `repro archive-bench`: the temporal-archive artifact.
//!
//! Archives a correlated model run per focus variable (keyframes +
//! error-bounded delta frames) and measures what the paper's
//! per-timestep workflow cannot see: the compression won by exploiting
//! temporal correlation (archive CR vs compressing every timestep
//! independently with the same codec and bound) and the random-access
//! cost of the footer index (p50/p99 slice-fetch latency over seeded
//! random (timestep, level) picks at 100+ timesteps).
//!
//! The results are the `archive` section of `BENCH.json` (see
//! [`crate::artifact`]):
//!
//! ```json
//! "archive": {
//!   "preset": "default", "timesteps": 120, "keyframe_every": 16, "fetches": 200,
//!   "variables": [
//!     {"name": "U", "codec": "SZ-rel-1e-4", "frames": 120, "raw_bytes": N,
//!      "archive_bytes": N, "per_timestep_bytes": N, "archive_cr": X,
//!      "per_timestep_cr": X, "slice_p50_us": N, "slice_p99_us": N}, ...
//!   ]
//! }
//! ```
//!
//! `bench-check --against` gates each variable's archive CR and slice
//! p99 as smaller-is-better (`gated`).

use cc_archive::{ArchiveOptions, ArchiveReader, ArchiveWriter};
use cc_codecs::chunked::compress_chunked;
use cc_codecs::sz::ErrorBound;
use cc_codecs::{Layout, Variant};
use cc_grid::Resolution;
use cc_model::Model;
use cc_obs::json::{self, Value};
use std::time::Instant;

/// Archive-bench configuration.
#[derive(Debug, Clone)]
pub struct ArchiveBenchConfig {
    /// Grid resolution of the synthetic run.
    pub resolution: Resolution,
    /// Model seed.
    pub seed: u64,
    /// Timesteps in the run (the acceptance floor is 100).
    pub timesteps: usize,
    /// Trajectory interval — small keeps adjacent steps correlated.
    pub interval: f64,
    /// Keyframe interval used for every variable.
    pub keyframe_every: usize,
    /// Random slice fetches per variable for the latency percentiles.
    pub fetches: usize,
    /// Variables to archive.
    pub variables: Vec<String>,
    /// Preset label recorded in the artifact.
    pub preset: String,
}

impl ArchiveBenchConfig {
    /// Default scale: two focus variables, 120 timesteps.
    pub fn default_scale() -> Self {
        ArchiveBenchConfig {
            resolution: Resolution::reduced(3, 4),
            seed: 2014,
            timesteps: 120,
            interval: 0.02,
            keyframe_every: 16,
            fetches: 200,
            variables: vec!["U".into(), "FSDSC".into()],
            preset: "default".into(),
        }
    }

    /// Smoke scale for CI: the 100-timestep acceptance floor on the
    /// smallest grid.
    pub fn quick() -> Self {
        ArchiveBenchConfig {
            resolution: Resolution::reduced(2, 3),
            seed: 2014,
            timesteps: 100,
            interval: 0.02,
            keyframe_every: 16,
            fetches: 64,
            variables: vec!["U".into(), "FSDSC".into()],
            preset: "quick".into(),
        }
    }
}

/// Per-variable archive results.
#[derive(Debug, Clone)]
pub struct ArchiveVarBench {
    /// Variable name.
    pub name: String,
    /// Keyframe codec name.
    pub codec: String,
    /// Timesteps archived.
    pub frames: usize,
    /// Raw f32 bytes across the run.
    pub raw_bytes: u64,
    /// This variable's frame bytes inside the archive.
    pub archive_bytes: u64,
    /// Bytes when every timestep compresses independently with the same
    /// codec (the paper's per-timestep workflow).
    pub per_timestep_bytes: u64,
    /// `archive_bytes / raw_bytes` (smaller is better).
    pub archive_cr: f64,
    /// `per_timestep_bytes / raw_bytes`.
    pub per_timestep_cr: f64,
    /// Random slice fetch latency, median, microseconds.
    pub slice_p50_us: u64,
    /// Random slice fetch latency, 99th percentile, microseconds.
    pub slice_p99_us: u64,
}

/// A full archive-bench run.
#[derive(Debug, Clone)]
pub struct ArchiveBenchArtifact {
    /// Configuration used.
    pub config: ArchiveBenchConfig,
    /// Per-variable results.
    pub variables: Vec<ArchiveVarBench>,
}

/// Run the archive benchmark. `progress` receives one line per variable.
pub fn run(config: &ArchiveBenchConfig, progress: &mut dyn FnMut(&str)) -> ArchiveBenchArtifact {
    let model = Model::new(config.resolution, config.seed);
    let trajectory = model.trajectory(0, config.timesteps, config.interval);
    let bound = ErrorBound::Rel(1e-4);
    let variant = Variant::Sz { bound };
    let codec = variant.codec();
    let mut variables = Vec::new();
    for name in &config.variables {
        let id = model.var_id(name).unwrap_or_else(|| panic!("unknown variable {name}"));
        let layout = Layout::for_grid(model.grid(), model.var_nlev(id));
        progress(&format!(
            "archiving {name}: {} timesteps x {} elements (keyframe every {})",
            config.timesteps,
            layout.len(),
            config.keyframe_every
        ));
        let frames: Vec<Vec<f32>> =
            trajectory.iter().map(|m| model.synthesize(m, id).data).collect();
        let raw_bytes = (frames.len() * layout.len() * 4) as u64;

        // The per-timestep baseline: every frame compressed
        // independently with the same codec and bound.
        let per_timestep_bytes: u64 = frames
            .iter()
            .map(|f| compress_chunked(codec.as_ref(), f, layout, 1).len() as u64)
            .sum();

        let opts = ArchiveOptions::new(variant)
            .with_bound(bound)
            .with_keyframe_every(config.keyframe_every);
        let mut w = ArchiveWriter::new();
        let summary = w.add_variable(name, layout, &frames, &opts).expect("clean run archives");
        let bytes = w.finish();

        // Random-access latency over seeded (timestep, level) picks.
        let mut reader = ArchiveReader::open(bytes.as_slice()).expect("own archive opens");
        let mut rng = crate::faults::SplitMix64::new(config.seed ^ 0xA2C4_1BE5);
        let mut lat_us: Vec<u64> = Vec::with_capacity(config.fetches);
        for _ in 0..config.fetches {
            let t = rng.below(frames.len());
            let lev = rng.below(layout.nlev);
            let t0 = Instant::now();
            let slice = reader.fetch_slice(name, t, lev).expect("in-range fetch");
            lat_us.push(t0.elapsed().as_micros() as u64);
            assert_eq!(slice.len(), layout.npts);
        }
        lat_us.sort_unstable();
        let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];

        variables.push(ArchiveVarBench {
            name: name.clone(),
            codec: variant.name(),
            frames: frames.len(),
            raw_bytes,
            archive_bytes: summary.bytes,
            per_timestep_bytes,
            archive_cr: summary.bytes as f64 / raw_bytes as f64,
            per_timestep_cr: per_timestep_bytes as f64 / raw_bytes as f64,
            slice_p50_us: pct(0.50),
            slice_p99_us: pct(0.99),
        });
    }
    ArchiveBenchArtifact { config: config.clone(), variables }
}

impl ArchiveBenchArtifact {
    /// The `archive` section as a JSON value.
    pub fn to_value(&self) -> Value {
        let vars: Vec<String> = self
            .variables
            .iter()
            .map(|v| {
                format!(
                    "{{\"name\": \"{}\", \"codec\": \"{}\", \"frames\": {}, \
                     \"raw_bytes\": {}, \"archive_bytes\": {}, \"per_timestep_bytes\": {}, \
                     \"archive_cr\": {:.6}, \"per_timestep_cr\": {:.6}, \
                     \"slice_p50_us\": {}, \"slice_p99_us\": {}}}",
                    json::escape(&v.name),
                    json::escape(&v.codec),
                    v.frames,
                    v.raw_bytes,
                    v.archive_bytes,
                    v.per_timestep_bytes,
                    v.archive_cr,
                    v.per_timestep_cr,
                    v.slice_p50_us,
                    v.slice_p99_us
                )
            })
            .collect();
        let text = format!(
            "{{\"preset\": \"{}\", \"timesteps\": {}, \"keyframe_every\": {}, \
             \"fetches\": {}, \"variables\": [{}]}}",
            json::escape(&self.config.preset),
            self.config.timesteps,
            self.config.keyframe_every,
            self.config.fetches,
            vars.join(", ")
        );
        json::parse(&text).expect("archive section serializes to valid JSON")
    }
}

/// Check an `archive` section, pushing every violation onto `errs`. The
/// archive must actually exploit temporal correlation — its CR (smaller
/// is better) must match or beat the per-timestep CR for every variable.
pub(crate) fn validate(archive: &Value, errs: &mut Vec<String>) {
    if archive.get("preset").and_then(Value::as_str).is_none() {
        errs.push("archive.preset missing".into());
    }
    let num = |key: &str| archive.get(key).and_then(Value::as_f64);
    if num("timesteps").map(|v| v >= 2.0) != Some(true) {
        errs.push("archive.timesteps must be >= 2".into());
    }
    for key in ["keyframe_every", "fetches"] {
        if num(key).map(|v| v >= 1.0) != Some(true) {
            errs.push(format!("archive.{key} must be >= 1"));
        }
    }
    let vars = archive.get("variables").and_then(Value::as_array).unwrap_or_default();
    if vars.is_empty() {
        errs.push("archive.variables must be a non-empty array".into());
    }
    for (i, v) in vars.iter().enumerate() {
        let vnum = |key: &str| v.get(key).and_then(Value::as_f64);
        if v.get("name").and_then(Value::as_str).is_none()
            || v.get("codec").and_then(Value::as_str).is_none()
        {
            errs.push(format!("archive.variables[{i}]: name/codec must be strings"));
        }
        for key in ["frames", "raw_bytes", "archive_bytes", "per_timestep_bytes"] {
            if vnum(key).map(|b| b >= 1.0) != Some(true) {
                errs.push(format!("archive.variables[{i}]: {key} must be >= 1"));
            }
        }
        match (vnum("archive_cr"), vnum("per_timestep_cr")) {
            (Some(acr), Some(pcr)) if acr > 0.0 && pcr > 0.0 => {
                if acr > pcr + 1e-9 {
                    errs.push(format!(
                        "archive.variables[{i}]: archive CR {acr} worse than per-timestep {pcr}"
                    ));
                }
            }
            _ => errs.push(format!(
                "archive.variables[{i}]: archive_cr/per_timestep_cr must be positive"
            )),
        }
        match (vnum("slice_p50_us"), vnum("slice_p99_us")) {
            (Some(p50), Some(p99)) if p50 >= 0.0 && p99 >= p50 => {}
            _ => errs.push(format!("archive.variables[{i}]: need slice_p50_us <= slice_p99_us")),
        }
    }
}

/// The gated metrics of an `archive` section: each variable's archive CR
/// and slice p99 latency (smaller is better).
pub(crate) fn gated(archive: &Value) -> Result<Vec<(String, f64)>, String> {
    let vars = archive.get("variables").and_then(Value::as_array).ok_or("variables missing")?;
    let mut out = Vec::new();
    for v in vars {
        let name = v.get("name").and_then(Value::as_str).ok_or("variable name missing")?;
        for (label, key) in [("archive CR", "archive_cr"), ("slice p99 µs", "slice_p99_us")] {
            let value =
                v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("{name}: {key} missing"))?;
            out.push((format!("{name} {label}"), value));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ArchiveBenchConfig {
        ArchiveBenchConfig {
            resolution: Resolution::reduced(2, 2),
            seed: 7,
            timesteps: 40,
            interval: 0.02,
            keyframe_every: 8,
            fetches: 16,
            variables: vec!["U".into()],
            preset: "quick".into(),
        }
    }

    #[test]
    fn temporal_archive_beats_per_timestep_on_correlated_run() {
        let artifact = run(&tiny_config(), &mut |_| {});
        let v = &artifact.variables[0];
        assert!(
            v.archive_bytes < v.per_timestep_bytes,
            "archive {} bytes must beat per-timestep {} bytes",
            v.archive_bytes,
            v.per_timestep_bytes
        );
        assert!(v.archive_cr < v.per_timestep_cr);
        assert!(v.slice_p50_us <= v.slice_p99_us);
    }

    #[test]
    fn names_are_escaped_into_the_section() {
        let mut artifact = ArchiveBenchArtifact { config: tiny_config(), variables: Vec::new() };
        artifact.variables.push(ArchiveVarBench {
            name: "a\"b".into(),
            codec: "c\\d".into(),
            frames: 2,
            raw_bytes: 8,
            archive_bytes: 4,
            per_timestep_bytes: 6,
            archive_cr: 0.5,
            per_timestep_cr: 0.75,
            slice_p50_us: 1,
            slice_p99_us: 2,
        });
        let section = artifact.to_value();
        let var = &section.get("variables").and_then(Value::as_array).expect("variables")[0];
        assert_eq!(var.get("name").and_then(Value::as_str), Some("a\"b"));
        assert_eq!(var.get("codec").and_then(Value::as_str), Some("c\\d"));
    }
}
