//! Shared command-line plumbing for the `ccc` and `repro` binaries.
//!
//! Both binaries speak the same flag dialect — `--flag value` pairs,
//! a small set of valueless boolean flags, a `--workers N` override for
//! the global pool width, and the observability trio `--trace FILE` /
//! `--metrics` / `--quiet`. This module holds that dialect once:
//! the parser, the typed accessors, and the [`ObsCli`] begin/end
//! bracket around a run.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;

/// Flags that take no value (`--metrics`, not `--metrics true`).
pub const BOOL_FLAGS: &[&str] = &["metrics", "quiet", "quick", "once"];

/// Parse `--key value` pairs (and the valueless [`BOOL_FLAGS`]) into a
/// map. Positional arguments are ignored — commands that take them read
/// the raw slice. Exits with status 2 on a value flag with no value.
pub fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag --{key} needs a value");
                exit(2);
            });
            flags.insert(key.to_string(), value);
        }
    }
    flags
}

/// Read `--key` as a usize, exiting with status 2 on a parse failure.
pub fn flag_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> usize {
    flags
        .get(key)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} expects an integer, got {v}");
                exit(2);
            })
        })
        .unwrap_or(default)
}

/// Read `--key` as a u64 (seeds), exiting with status 2 on failure.
pub fn flag_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> u64 {
    flags
        .get(key)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} expects an integer, got {v}");
                exit(2);
            })
        })
        .unwrap_or(default)
}

/// Read `--key` as a positive finite f64 if present, exiting with
/// status 2 on a parse failure or a non-positive / non-finite value
/// (error bounds and tolerances are always strictly positive).
pub fn flag_f64_opt(flags: &HashMap<String, String>, key: &str) -> Option<f64> {
    flags.get(key).map(|v| {
        let x: f64 = v.parse().unwrap_or_else(|_| {
            eprintln!("--{key} expects a number, got {v}");
            exit(2);
        });
        if !x.is_finite() || x <= 0.0 {
            eprintln!("--{key} must be a finite positive number, got {v}");
            exit(2);
        }
        x
    })
}

/// Apply `--workers N` to the global pool width, if present.
pub fn apply_workers(flags: &HashMap<String, String>) {
    if let Some(w) = flags.get("workers") {
        let w: usize = w.parse().unwrap_or_else(|_| {
            eprintln!("--workers expects an integer, got {w}");
            exit(2);
        });
        cc_par::set_global_workers(w);
    }
}

/// The observability flags, bracketing a CLI run: [`ObsCli::apply`]
/// before the command, [`ObsCli::finish`] after it.
#[derive(Debug, Default, Clone)]
pub struct ObsCli {
    /// `--trace FILE`: record spans + metrics, write a `cc-trace/1`
    /// artifact at exit.
    pub trace: Option<PathBuf>,
    /// `--profile FILE`: record spans, write a flamegraph-ready
    /// folded-stacks file (`stage;stage;stage self_ns` lines) at exit.
    pub profile: Option<PathBuf>,
    /// `--metrics`: record counters/histograms, print the table at exit.
    pub metrics: bool,
    /// `--quiet`: suppress progress lines on stderr.
    pub quiet: bool,
}

impl ObsCli {
    /// Read the observability flags out of a parsed flag map.
    pub fn from_flags(flags: &HashMap<String, String>) -> Self {
        ObsCli {
            trace: flags.get("trace").map(PathBuf::from),
            profile: flags.get("profile").map(PathBuf::from),
            metrics: flags.contains_key("metrics"),
            quiet: flags.contains_key("quiet"),
        }
    }

    /// True if anything must be collected and reported at exit.
    pub fn active(&self) -> bool {
        self.trace.is_some() || self.profile.is_some() || self.metrics
    }

    /// Turn the requested recording on (quiet mode, span/metric gates).
    pub fn apply(&self) {
        if self.quiet {
            cc_obs::progress::set_quiet(true);
        }
        if self.trace.is_some() || self.profile.is_some() {
            cc_obs::enable_all();
        } else if self.metrics {
            cc_obs::set_metrics_enabled(true);
        }
    }

    /// Collect the trace report, write the artifacts (exiting with
    /// status 1 on an I/O or validation failure), and print the summary
    /// and metrics tables. A no-op unless [`ObsCli::active`].
    pub fn finish(&self) {
        if !self.active() {
            return;
        }
        let report = cc_obs::trace::TraceReport::collect();
        let summary = report.summary();
        if let Some(path) = &self.trace {
            if let Err(e) = report.write(path) {
                eprintln!("{e}");
                exit(1);
            }
            cc_obs::progress!("wrote trace to {}", path.display());
            if !summary.is_empty() {
                println!("{}", crate::report::trace_summary_table(&summary).render());
            }
        }
        if let Some(path) = &self.profile {
            let folded = cc_obs::trace::folded_stacks(&report.spans);
            if folded.is_empty() {
                eprintln!("--profile recorded no spans; nothing to write");
                exit(1);
            }
            if let Err(e) = std::fs::write(path, &folded) {
                eprintln!("cannot write {}: {e}", path.display());
                exit(1);
            }
            cc_obs::progress!("wrote folded stacks to {}", path.display());
        }
        if self.metrics && self.trace.is_none() && !summary.is_empty() {
            // `--trace` already printed the full per-stage table; for
            // bare `--metrics`/`--profile` runs show where the time
            // actually went.
            println!("{}", crate::report::self_time_table(&summary).render());
        }
        println!("{}", crate::report::metrics_table(&report.metrics).render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flags_splits_bool_and_value_flags() {
        let flags = parse_flags(&argv(&[
            "--metrics", "--quiet", "--workers", "4", "--trace", "t.json", "positional",
        ]));
        assert_eq!(flags.get("metrics").map(String::as_str), Some("true"));
        assert_eq!(flags.get("quiet").map(String::as_str), Some("true"));
        assert_eq!(flags.get("workers").map(String::as_str), Some("4"));
        assert_eq!(flags.get("trace").map(String::as_str), Some("t.json"));
        assert!(!flags.contains_key("positional"));
    }

    #[test]
    fn typed_accessors_fall_back_to_defaults() {
        let flags = parse_flags(&argv(&["--ne", "9"]));
        assert_eq!(flag_usize(&flags, "ne", 6), 9);
        assert_eq!(flag_usize(&flags, "nlev", 6), 6);
        assert_eq!(flag_u64(&flags, "seed", 2014), 2014);
    }

    #[test]
    fn obs_cli_reads_the_trio() {
        let flags = parse_flags(&argv(&["--trace", "out.json", "--quiet"]));
        let obs = ObsCli::from_flags(&flags);
        assert_eq!(obs.trace.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(!obs.metrics);
        assert!(obs.quiet);
        assert!(obs.active());
        assert!(!ObsCli::default().active());
    }
}
