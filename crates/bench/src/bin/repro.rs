//! Regenerate every table and figure of Baker et al. (HPDC'14).
//!
//! ```text
//! repro [run] [EXPERIMENTS] [FLAGS]
//!
//! EXPERIMENTS  any of: table1 table2 table3 table4 table5 table6 table7
//!              table8 fig1 fig2 fig3 fig4 scaling calibration ssim
//!              scorecard bench serve-bench tune eval-bench eval-check
//!              archive-bench | all |
//!              focus (tables 2-5 + figs 2-4) |
//!              sweep (table 6 + fig 1 + tables 7-8) |
//!              extensions (scaling + calibration + ssim)
//! FLAGS        --quick | --full | --paper-scale   preset configurations
//!              --members N  --ne N  --nlev N  --seed S  --out DIR
//!              --workers N  (override the worker-pool width)
//!              --bench-out FILE  (BENCH.json path, default repo root)
//!              --against FILE    (bench-check: compare gated metrics vs baseline)
//!              --tolerance X     (allowed fractional slowdown, default 0.25)
//!              --trace FILE  (record spans+metrics, write TRACE.json)
//!              --profile FILE  (write flamegraph-ready folded stacks)
//!              --metrics     (record counters/histograms, print table)
//!              --quiet       (suppress progress lines on stderr)
//! ```
//!
//! `run` is an optional no-op token, so the documented invocation
//! `repro run table6 --trace trace.json` works verbatim.
//!
//! The five benchmark experiments each write one section of the
//! `cc-bench/1` document at `--bench-out` (default `BENCH.json`),
//! creating the file when it is missing and leaving every other section
//! as it was (see `cc_bench::artifact`):
//! `bench` runs the chunked-codec throughput sweep (`throughput`);
//! `serve-bench` drives a loopback `cc-serve` daemon with swept counts
//! of concurrent pipelined clients (`serve`: req/s, p50/p99/p999 latency
//! from the server's own histograms — overall and split per opcode —
//! busy rate per client count); `tune` runs the per-variable auto-tuner
//! — the generalized enumerate-filter-minimize search over the (family ×
//! parameter) candidate space — over the focus variables and also writes
//! a reproducible table artifact (`tune`); `eval-bench` runs the tuning
//! sweep through the pipelined verification engine with span recording
//! on (`eval`: member synthesis and verdict rates, per-variable tune
//! wall, per-stage self-time profile); `archive-bench` archives a
//! correlated model run per focus variable (`cc-arch/1` keyframes +
//! bounded delta frames) and measures archive CR vs per-timestep CR and
//! random-slice p50/p99 fetch latency (`archive`).
//! `eval-check` re-runs the tuning sweep at worker counts 1 and 4 and
//! exits non-zero unless the tune reports are byte-identical.
//! `bench-check FILE` re-validates an existing document and exits
//! non-zero if it does not satisfy the schema — with `--against
//! BASELINE.json` it additionally applies each section's compare rule
//! to the sections both documents carry (codec encode/decode MB/s at
//! workers=1 and the eval rates must reach `(1 - tolerance)` of the
//! baseline; archive CR and slice p99 are smaller-is-better and gated at
//! the mirror-image tolerance) and fails when any metric regresses or
//! the documents share no gated section.
//! `trace-check [FILE]` does the same for a `TRACE.json` artifact
//! (default `TRACE.json`).
//!
//! `scorecard` re-reads the CSV artifacts of earlier experiments and
//! machine-checks the paper's shape claims (exits non-zero on a required
//! failure), so a full reproduction is `repro all extensions scorecard`.
//!
//! One run scores each variable it touches once, against the report set
//! (`cc_core::tuning::report_set`), and keeps the verdicts. Tables 3, 4
//! and 6–8, the (*) flags of Table 5, Figures 1–4 and `tune` all render
//! from them; `tune` scores only the candidates the report set lacks. The
//! focus variables also keep their contexts, for Table 5's timings,
//! Figures 2–3, `calibration`, `ssim` and `tune`.
//!
//! Each experiment prints the same rows/series the paper reports and
//! writes text + CSV artifacts under the output directory. With
//! `--trace`, every experiment runs under an `exp.<name>` span; the
//! span tree and metrics snapshot are written to the given path (a
//! `cc-trace/1` document, self-validated before landing on disk) and a
//! per-stage summary table is printed at exit.

use cc_bench::{RunConfig, FOCUS};
use cc_codecs::{Codec, Variant};
use cc_core::evaluation::{EvalConfig, Evaluation, VariableContext};
use cc_core::report::{cr_fmt, render_boxplot, render_histogram, sci, BoxStats, Table};
use cc_core::tuning::{score_vars, ScoredVariable, TuneReport};
use cc_core::{hybrid_methods, HybridResult};
use cc_grid::Resolution;
use cc_metrics::FieldStats;
use cc_model::Model;
use cc_ncdf::{DType, Dataset, FilterPipeline};
use cc_obs::progress;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Every experiment `repro` understands, in the order the doc comment
/// lists them. The unknown-experiment hint is generated from this one
/// table so it can never drift behind newly added subcommands again.
const EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig1",
    "fig2", "fig3", "fig4", "scaling", "calibration", "ssim", "scorecard", "bench",
    "serve-bench", "tune", "eval-bench", "eval-check", "archive-bench", "bench-check",
    "trace-check",
];

fn main() {
    let (experiments, cfg, bench_opts, obs) = parse_args();
    obs.cli.apply();
    let mut runner = Runner { cfg, eval: None, scored: BTreeMap::new() };
    for exp in &experiments {
        let t0 = Instant::now();
        progress!(">>> running {exp} ...");
        let _exp_span = cc_obs::span_dyn(&format!("exp.{exp}"));
        match exp.as_str() {
            "table1" => runner.table1(),
            "table2" => runner.table2(),
            "table3" => runner.table3_4(true),
            "table4" => runner.table3_4(false),
            "table5" => runner.table5(),
            "table6" => runner.table6(),
            "table7" => runner.table7_8(),
            "fig1" => runner.fig1(),
            "fig2" => runner.fig2(),
            "fig3" => runner.fig3(),
            "fig4" => runner.fig4(),
            "scaling" => runner.scaling(),
            "calibration" => runner.calibration(),
            "ssim" => runner.ssim(),
            "bench" => run_bench(&bench_opts),
            "serve-bench" => run_serve_bench(&bench_opts),
            "tune" => runner.tune(&bench_opts),
            "eval-bench" => runner.eval_bench(&bench_opts),
            "eval-check" => runner.eval_check(),
            "archive-bench" => run_archive_bench(&bench_opts),
            "bench-check" => check_bench(&bench_opts),
            "trace-check" => check_trace(&obs.check_path),
            "scorecard" => {
                let claims = cc_bench::scorecard::evaluate(&runner.cfg.out_dir);
                let (fails, text) = cc_bench::scorecard::render(&claims);
                println!("{text}");
                runner.cfg.write_artifact("scorecard.txt", &text);
                if fails > 0 {
                    eprintln!("{fails} required claims FAILED");
                    std::process::exit(1);
                }
            }
            other => {
                eprintln!("unknown experiment: {other}");
                eprintln!("known experiments: {}", EXPERIMENTS.join(" "));
                eprintln!("groups: all focus sweep extensions");
                std::process::exit(2);
            }
        }
        drop(_exp_span);
        progress!(">>> {exp} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
    obs.cli.finish();
}

/// Observability flags: the shared `--trace`/`--metrics`/`--quiet`
/// bracket plus repro's `trace-check` positional path.
struct ObsOpts {
    /// The shared observability trio (apply at start, finish at exit).
    cli: cc_core::cli::ObsCli,
    /// Positional path for `trace-check` (default `TRACE.json`).
    check_path: std::path::PathBuf,
}

fn check_trace(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    match cc_obs::trace::validate(&text) {
        Ok(stats) => println!(
            "{}: valid cc-trace/1 artifact ({} spans, depth {}, {} counters, {} histograms)",
            path.display(),
            stats.spans,
            stats.max_depth,
            stats.counters,
            stats.histograms
        ),
        Err(e) => {
            eprintln!("{}: invalid trace: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Options for the benchmark experiments and `bench-check`.
struct BenchOpts {
    /// Document path (`BENCH.json` at the repo root by default).
    path: std::path::PathBuf,
    /// Use the smoke-scale sweep.
    quick: bool,
    /// `--against FILE`: baseline document for a gated comparison.
    against: Option<std::path::PathBuf>,
    /// `--tolerance X`: allowed fractional regression vs the baseline
    /// (0.25 = rates may drop to 75% of baseline before failing).
    tolerance: f64,
}

/// Write one section of the `BENCH.json` at `opts.path`, or exit 1 with
/// the violations that stopped it.
fn write_section(opts: &BenchOpts, name: &str, value: cc_obs::json::Value) {
    if let Err(errs) = cc_bench::artifact::upsert_section(&opts.path, name, value) {
        eprintln!("cannot write the {name} section of {}:", opts.path.display());
        for e in errs {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
}

fn run_bench(opts: &BenchOpts) {
    let config = if opts.quick {
        cc_bench::throughput::BenchConfig::quick()
    } else {
        cc_bench::throughput::BenchConfig::default_scale()
    };
    let report = cc_bench::throughput::run(&config, &mut |line| progress!("    {line}"));
    write_section(opts, "throughput", report.to_value());
    for c in &report.codecs {
        let enc = c.encode.last().expect("timings");
        let dec = c.decode.last().expect("timings");
        println!(
            "{:10}  CR {:.3}  encode {:8.1} MB/s  decode {:8.1} MB/s  speedup x{:.2} ({} workers)",
            c.name,
            c.ratio,
            enc.mb_per_s,
            dec.mb_per_s,
            c.encode_speedup(),
            enc.workers,
        );
    }
    println!(
        "wrote the throughput section of {} ({} chunks, workers {:?}, max encode speedup x{:.2})",
        opts.path.display(),
        report.chunks,
        report.config.worker_counts,
        report.max_encode_speedup()
    );
}

/// `serve-bench`: loopback daemon throughput, the `serve` section.
fn run_serve_bench(opts: &BenchOpts) {
    let config = if opts.quick {
        cc_bench::serve_bench::ServeBenchConfig::quick()
    } else {
        cc_bench::serve_bench::ServeBenchConfig::default_scale()
    };
    let report = cc_bench::serve_bench::run(&config, &mut |line| progress!("    {line}"));
    write_section(opts, "serve", report.to_value());
    for r in &report.runs {
        println!(
            "serve workers={:<2} clients={:<4} {:>8.0} req/s  p50 {:>6}us  p99 {:>6}us  p999 {:>6}us  busy rate {:.3}",
            r.workers, r.clients, r.req_per_s, r.p50_us, r.p99_us, r.p999_us, r.busy_rate
        );
        for o in &r.per_op {
            println!(
                "      {:<12} {:>6} reqs  p50 {:>6}us  p99 {:>6}us  p999 {:>6}us",
                o.op, o.count, o.p50_us, o.p99_us, o.p999_us
            );
        }
    }
    println!(
        "wrote the serve section of {} (shards {}, clients {:?} x {} requests)",
        opts.path.display(),
        config.shards,
        config.client_counts,
        config.requests_per_client
    );
}

/// `archive-bench`: temporal-archive CR vs the per-timestep workflow
/// plus random-slice latency, the `archive` section.
fn run_archive_bench(opts: &BenchOpts) {
    let config = if opts.quick {
        cc_bench::archive_bench::ArchiveBenchConfig::quick()
    } else {
        cc_bench::archive_bench::ArchiveBenchConfig::default_scale()
    };
    let artifact = cc_bench::archive_bench::run(&config, &mut |line| progress!("    {line}"));
    write_section(opts, "archive", artifact.to_value());
    for v in &artifact.variables {
        println!(
            "{:8} {:>4} frames  archive CR {:.4}  per-timestep CR {:.4}  slice p50 {:>5}us  p99 {:>5}us",
            v.name, v.frames, v.archive_cr, v.per_timestep_cr, v.slice_p50_us, v.slice_p99_us
        );
    }
    println!(
        "wrote the archive section of {} ({} variables, {} timesteps, keyframe every {})",
        opts.path.display(),
        artifact.variables.len(),
        config.timesteps,
        config.keyframe_every
    );
}

fn check_bench(opts: &BenchOpts) {
    let text = std::fs::read_to_string(&opts.path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", opts.path.display());
        std::process::exit(1);
    });
    match cc_bench::artifact::validate(&text) {
        Ok(()) => {
            println!("{}: valid {} document", opts.path.display(), cc_bench::artifact::SCHEMA)
        }
        Err(errs) => {
            eprintln!("{}: schema violations:", opts.path.display());
            for e in errs {
                eprintln!("  - {e}");
            }
            std::process::exit(1);
        }
    }
    let Some(baseline_path) = &opts.against else {
        return;
    };
    let baseline = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {}: {e}", baseline_path.display());
        std::process::exit(1);
    });
    let rows =
        cc_bench::artifact::compare(&text, &baseline, opts.tolerance).unwrap_or_else(|e| {
            eprintln!("cannot compare against {}: {e}", baseline_path.display());
            std::process::exit(1);
        });
    let (table, fails) = cc_bench::artifact::render_compare(&rows, opts.tolerance);
    println!("gated metrics vs baseline {}:\n{table}", baseline_path.display());
    if fails > 0 {
        eprintln!("{fails} metric(s) regressed beyond tolerance");
        std::process::exit(1);
    }
}

fn parse_args() -> (Vec<String>, RunConfig, BenchOpts, ObsOpts) {
    let mut cfg = RunConfig::default();
    let mut bench = BenchOpts {
        path: "BENCH.json".into(),
        quick: false,
        against: None,
        tolerance: 0.25,
    };
    let mut obs = ObsOpts {
        cli: cc_core::cli::ObsCli::default(),
        check_path: "TRACE.json".into(),
    };
    let mut exps: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    let next_val = |args: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>| {
        args.next().unwrap_or_else(|| {
            eprintln!("flag needs a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                cfg = RunConfig { out_dir: cfg.out_dir.clone(), ..RunConfig::quick() };
                bench.quick = true;
            }
            "--full" => {
                cfg = RunConfig { out_dir: cfg.out_dir.clone(), ..RunConfig::full() };
            }
            "--paper-scale" => {
                cfg = RunConfig { out_dir: cfg.out_dir.clone(), ..RunConfig::paper_scale() };
            }
            "--members" => cfg.members = next_val(&mut args).parse().expect("--members N"),
            "--ne" => {
                let ne: usize = next_val(&mut args).parse().expect("--ne N");
                cfg.resolution = Resolution::reduced(ne, cfg.resolution.nlev);
            }
            "--nlev" => {
                let nlev: usize = next_val(&mut args).parse().expect("--nlev N");
                cfg.resolution = Resolution::reduced(cfg.resolution.ne, nlev);
            }
            "--seed" => cfg.seed = next_val(&mut args).parse().expect("--seed S"),
            "--out" => cfg.out_dir = next_val(&mut args).into(),
            "--workers" => {
                let w: usize = next_val(&mut args).parse().expect("--workers N");
                cc_par::set_global_workers(w);
            }
            "--bench-out" => bench.path = next_val(&mut args).into(),
            "--against" => bench.against = Some(next_val(&mut args).into()),
            "--tolerance" => {
                bench.tolerance = next_val(&mut args).parse().expect("--tolerance X");
            }
            "--trace" => obs.cli.trace = Some(next_val(&mut args).into()),
            "--profile" => obs.cli.profile = Some(next_val(&mut args).into()),
            "--metrics" => obs.cli.metrics = true,
            "--quiet" => obs.cli.quiet = true,
            // `repro run table6` reads naturally; `run` itself is a no-op.
            "run" => {}
            "all" => exps.extend(
                [
                    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
                    "fig1", "fig2", "fig3", "fig4",
                ]
                .map(String::from),
            ),
            "focus" => exps.extend(
                ["table1", "table2", "table3", "table4", "table5", "fig2", "fig3", "fig4"]
                    .map(String::from),
            ),
            "sweep" => exps.extend(["table6", "fig1", "table7"].map(String::from)),
            "extensions" => {
                exps.extend(["scaling", "calibration", "ssim"].map(String::from))
            }
            "bench-check" => {
                exps.push("bench-check".to_string());
                // Optional positional artifact path: `bench-check FILE`.
                if let Some(next) = args.peek() {
                    if !next.starts_with('-') {
                        bench.path = args.next().unwrap().into();
                    }
                }
            }
            "trace-check" => {
                exps.push("trace-check".to_string());
                // Optional positional artifact path: `trace-check FILE`.
                if let Some(next) = args.peek() {
                    if !next.starts_with('-') {
                        obs.check_path = args.next().unwrap().into();
                    }
                }
            }
            // One computation renders both tables.
            "table8" => exps.push("table7".to_string()),
            other => exps.push(other.to_string()),
        }
    }
    if exps.is_empty() {
        // Default run = the focus set.
        exps.extend(
            ["table1", "table2", "table3", "table4", "table5", "fig2", "fig3", "fig4"]
                .map(String::from),
        );
    }
    // Each experiment runs once, at its first mention.
    let mut seen = BTreeSet::new();
    exps.retain(|e| seen.insert(e.clone()));
    (exps, cfg, bench, obs)
}

/// Registry index of focus variable `name`, or exit 2.
fn var_id(model: &Model, name: &str) -> usize {
    model.var_id(name).unwrap_or_else(|| {
        eprintln!("unknown focus variable {name}");
        std::process::exit(2);
    })
}

struct Runner {
    cfg: RunConfig,
    eval: Option<Evaluation>,
    /// Every variable this run has scored, by registry index. The focus
    /// variables keep their contexts.
    scored: BTreeMap<usize, ScoredVariable>,
}

impl Runner {
    fn eval(&mut self) -> &Evaluation {
        if self.eval.is_none() {
            progress!(
                "    building model: ne={} nlev={} ({} horizontal points), {} members",
                self.cfg.resolution.ne,
                self.cfg.resolution.nlev,
                self.cfg.resolution.horiz_points(),
                self.cfg.members
            );
            self.eval = Some(self.cfg.evaluation());
        }
        self.eval.as_ref().unwrap()
    }

    /// Build and score each of `vars` not scored yet in this run: one
    /// context build per variable, one report-set scoring per context.
    fn score(&mut self, vars: &[usize]) {
        self.eval();
        let eval = self.eval.as_ref().expect("built above");
        let missing: Vec<usize> =
            vars.iter().copied().filter(|v| !self.scored.contains_key(v)).collect();
        let focus = FOCUS.map(|name| var_id(&eval.model, name));
        let scored = score_vars(eval, &missing, |v| focus.contains(&v));
        self.scored.extend(missing.into_iter().zip(scored));
    }

    /// A focus variable's context and verdicts.
    fn focus(&mut self, name: &str) -> (&VariableContext, &ScoredVariable) {
        let var = var_id(&self.eval().model, name);
        self.score(&[var]);
        let s = &self.scored[&var];
        (s.ctx.as_ref().expect("focus variables keep their contexts"), s)
    }

    /// Every registry variable's verdicts, in registry order.
    fn sweep(&mut self) -> Vec<&ScoredVariable> {
        let vars: Vec<usize> = (0..self.eval().model.registry().len()).collect();
        self.score(&vars);
        self.scored.values().collect()
    }

    fn emit(&self, name: &str, text: &str, csv: Option<&str>) {
        println!("{text}");
        self.cfg.write_artifact(&format!("{name}.txt"), text);
        if let Some(csv) = csv {
            self.cfg.write_artifact(&format!("{name}.csv"), csv);
        }
    }

    // ------------------------------------------------------------------
    // Table 1: algorithm properties.
    // ------------------------------------------------------------------
    fn table1(&mut self) {
        let mut t = Table::new(
            "Table 1: Algorithm properties",
            &["Method", "lossless", "special", "free", "fixed-qual", "fixed-CR", "32&64"],
        );
        let yn = |b: bool| if b { "Y" } else { "N" }.to_string();
        let rows: Vec<(&str, Box<dyn Codec>)> = vec![
            ("GRIB2 + jpeg2000", Box::new(cc_codecs::grib2::Grib2::auto())),
            ("APAX", Box::new(cc_codecs::apax::Apax::fixed_rate(2.0))),
            ("fpzip", Box::new(cc_codecs::fpzip::Fpzip::lossless())),
            ("ISABELA", Box::new(cc_codecs::isabela::Isabela::new(0.01))),
        ];
        for (name, codec) in rows {
            let p = codec.properties();
            t.row(vec![
                name.to_string(),
                yn(p.lossless_mode),
                yn(p.special_values),
                yn(p.freely_available),
                yn(p.fixed_quality),
                yn(p.fixed_cr),
                yn(p.bits_32_and_64),
            ]);
        }
        self.emit("table1", &t.render(), Some(&t.to_csv()));
    }

    // ------------------------------------------------------------------
    // Table 2: dataset characteristics for the focus variables.
    // ------------------------------------------------------------------
    fn table2(&mut self) {
        let mut t = Table::new(
            "Table 2: Characteristics of the focus variable datasets",
            &["Variable", "units", "x_min", "x_max", "mean", "std", "CR"],
        );
        for name in FOCUS {
            // Stats from the first sampled member; CR via shuffle+deflate
            // in the ncdf container (the NetCDF-4 measurement of §4.1).
            let (stats, cr, units) = {
                let eval = self.eval();
                let var = eval.model.var_id(name).unwrap();
                let member = eval.model.member(0);
                let field = eval.model.synthesize(&member, var);
                let stats = FieldStats::compute(&field.data).expect("non-degenerate");
                let mut ds = Dataset::new();
                let dim = ds.add_dim("n", field.data.len());
                let v = ds
                    .def_var(name, DType::F32, &[dim], FilterPipeline::shuffle_deflate())
                    .unwrap();
                ds.put_f32(v, &field.data).unwrap();
                let cr = ds.var_stored_bytes(v) as f64 / ds.var_raw_bytes(v) as f64;
                (stats, cr, eval.model.registry()[var].units)
            };
            t.row(vec![
                name.to_string(),
                units.to_string(),
                sci(stats.min),
                sci(stats.max),
                sci(stats.mean),
                sci(stats.std),
                cr_fmt(cr),
            ]);
        }
        self.emit("table2", &t.render(), Some(&t.to_csv()));
    }

    // ------------------------------------------------------------------
    // Tables 3 & 4: NRMSE (CR) and e_nmax (CR), 9 variants × 4 variables.
    // ------------------------------------------------------------------
    fn table3_4(&mut self, nrmse: bool) {
        let (label, title) = if nrmse {
            ("table3", "Table 3: NRMSE (CR) between original and reconstructed datasets")
        } else {
            ("table4", "Table 4: Max normalized pointwise errors e_nmax (CR)")
        };
        let mut t = Table::new(title, &["Method", "U", "FSDSC", "Z3", "CCN3"]);
        let variants = Variant::paper_set();
        let mut rows: Vec<Vec<String>> =
            variants.iter().map(|v| vec![v.name()]).collect();
        for name in FOCUS {
            let (_, scored) = self.focus(name);
            for (row, &variant) in rows.iter_mut().zip(&variants) {
                let verdict = scored.get(variant);
                let val =
                    verdict.metrics().map_or(0.0, |m| if nrmse { m.nrmse } else { m.e_nmax });
                row.push(format!("{} ({})", sci(val), cr_fmt(verdict.cr)));
            }
        }
        for row in rows {
            t.row(row);
        }
        self.emit(label, &t.render(), Some(&t.to_csv()));
    }

    // ------------------------------------------------------------------
    // Table 5: compression/reconstruction timings + CR for U and FSDSC.
    // ------------------------------------------------------------------
    fn table5(&mut self) {
        let mut t = Table::new(
            "Table 5: Compression and reconstruction timings (seconds) and CR",
            &[
                "Method", "U comp.", "U reconst.", "U CR", "FSDSC comp.", "FSDSC reconst.",
                "FSDSC CR",
            ],
        );
        let variants = Variant::paper_set();
        let mut cells: Vec<Vec<String>> = variants.iter().map(|v| vec![v.name()]).collect();
        for name in ["U", "FSDSC"] {
            let (ctx, scored) = self.focus(name);
            let field = &ctx.fields[ctx.sample_idx[0]];
            for (i, &variant) in variants.iter().enumerate() {
                let codec = variant.codec();
                // Median-of-3 wall-clock timings.
                let mut comp_times = Vec::new();
                let mut reco_times = Vec::new();
                let mut bytes = Vec::new();
                for _ in 0..3 {
                    let t0 = Instant::now();
                    bytes = codec.compress(field, ctx.layout);
                    comp_times.push(t0.elapsed().as_secs_f64());
                    let t1 = Instant::now();
                    let _ = codec.decompress(&bytes, ctx.layout).expect("own stream");
                    reco_times.push(t1.elapsed().as_secs_f64());
                }
                comp_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
                reco_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let cr = bytes.len() as f64 / ctx.raw_bytes() as f64;
                // Flag variants whose quality fails the tests, as the
                // paper's (*) footnote does for FSDSC.
                let star = if scored.get(variant).all_pass() { "" } else { "(*)" };
                cells[i].push(format!("{:.4}", comp_times[1]));
                cells[i].push(format!("{:.4}", reco_times[1]));
                cells[i].push(format!("{}{}", cr_fmt(cr), star));
            }
        }
        for row in cells {
            t.row(row);
        }
        self.emit("table5", &t.render(), Some(&t.to_csv()));
    }

    // ------------------------------------------------------------------
    // Table 6: number of passes over all 170 variables per test.
    // ------------------------------------------------------------------
    fn table6(&mut self) {
        let mut t = Table::new(
            "Table 6: Number of passes for all compression methods on 170 variables",
            &["Method", "rho", "RMSZ ens.", "Enmax ens.", "bias", "all"],
        );
        let scored = self.sweep();
        for variant in Variant::paper_set() {
            let n = Evaluation::tally(scored.iter().map(|s| s.get(variant)));
            t.row(vec![
                variant.name(),
                n.pearson.to_string(),
                n.rmsz.to_string(),
                n.enmax.to_string(),
                n.bias.to_string(),
                n.all.to_string(),
            ]);
        }
        self.emit("table6", &t.render(), Some(&t.to_csv()));
    }

    // ------------------------------------------------------------------
    // Tables 7 & 8: hybrid customization results and composition.
    // ------------------------------------------------------------------
    fn table7_8(&mut self) {
        let hybrids = hybrid_methods(self.sweep());

        let mut t7 = Table::new(
            "Table 7: Customizing each method by variable (hybrid methods)",
            &["Metric", "GRIB2", "ISABELA", "fpzip", "APAX", "NC"],
        );
        let row = |label: &str, f: &dyn Fn(&HybridResult) -> String| -> Vec<String> {
            let mut r = vec![label.to_string()];
            r.extend(hybrids.iter().map(f));
            r
        };
        t7.row(row("avg. CR", &|h| cr_fmt(h.cr_stats().0)));
        t7.row(row("best CR", &|h| cr_fmt(h.cr_stats().1)));
        t7.row(row("worst CR", &|h| cr_fmt(h.cr_stats().2)));
        t7.row(row("avg. rho", &|h| format!("{:.7}", h.avg_pearson())));
        t7.row(row("avg. nrmse", &|h| sci(h.avg_nrmse())));
        t7.row(row("avg. e_nmax", &|h| sci(h.avg_enmax())));
        self.emit("table7", &t7.render(), Some(&t7.to_csv()));

        let mut t8 = Table::new(
            "Table 8: Variables per variant in each hybrid method",
            &["Method", "Variant", "Number of Variables"],
        );
        for h in &hybrids[..4] {
            for (variant, count) in h.composition() {
                t8.row(vec![h.label.clone(), variant, count.to_string()]);
            }
        }
        self.emit("table8", &t8.render(), Some(&t8.to_csv()));
    }

    // ------------------------------------------------------------------
    // Figure 1: box plots of e_nmax and NRMSE over all 170 variables.
    // ------------------------------------------------------------------
    fn fig1(&mut self) {
        let variants = Variant::paper_set();
        let mut enmax_samples: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
        let mut nrmse_samples: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
        for scored in self.sweep() {
            for (vi, &variant) in variants.iter().enumerate() {
                // The first sampled member's metrics.
                if let Some(m) = scored.get(variant).members.first().and_then(|m| m.metrics) {
                    enmax_samples[vi].push(m.e_nmax.max(1e-12));
                    nrmse_samples[vi].push(m.nrmse.max(1e-12));
                }
            }
        }
        let boxes = |samples: &[Vec<f64>]| -> Vec<(String, BoxStats)> {
            variants
                .iter()
                .zip(samples)
                .map(|(v, s)| (v.name(), BoxStats::from_samples(s)))
                .collect()
        };
        let a = render_boxplot(
            "Figure 1a: normalized maximum pointwise error over 170 variables",
            &boxes(&enmax_samples),
            true,
        );
        let b = render_boxplot(
            "Figure 1b: normalized RMSE over 170 variables",
            &boxes(&nrmse_samples),
            true,
        );
        let text = format!("{a}\n{b}");
        // CSV of the five-number summaries.
        let mut csv = String::from("figure,method,min,q1,median,q3,max\n");
        for (tag, samples) in [("enmax", &enmax_samples), ("nrmse", &nrmse_samples)] {
            for (v, s) in variants.iter().zip(samples) {
                let b = BoxStats::from_samples(s);
                csv.push_str(&format!(
                    "{tag},{},{:e},{:e},{:e},{:e},{:e}\n",
                    v.name(),
                    b.min,
                    b.q1,
                    b.median,
                    b.q3,
                    b.max
                ));
            }
        }
        self.emit("fig1", &text, Some(&csv));
    }

    // ------------------------------------------------------------------
    // Figure 2: RMSZ ensemble histograms + reconstructed markers.
    // ------------------------------------------------------------------
    fn fig2(&mut self) {
        let mut text = String::new();
        let mut csv = String::from("variable,method,rmsz_orig,rmsz_recon,pass\n");
        for name in FOCUS {
            let (ctx, scored) = self.focus(name);
            let mut markers = Vec::new();
            for variant in Variant::paper_set() {
                let v = scored.get(variant);
                if let Some(o) = v.members.iter().find_map(|m| m.rmsz) {
                    let (zo, zr, pass) = (o.rmsz_orig, o.rmsz_recon, v.rmsz_pass());
                    markers.push((variant.name(), zr));
                    csv.push_str(&format!("{name},{},{zo},{zr},{pass}\n", variant.name()));
                }
            }
            text.push_str(&render_histogram(
                &format!("Figure 2: RMSZ-Ensemble test, variable {name}"),
                ctx.rmsz_orig.scores(),
                &markers,
                12,
            ));
            text.push('\n');
        }
        self.emit("fig2", &text, Some(&csv));
    }

    // ------------------------------------------------------------------
    // Figure 3: E_nmax ensemble box plots + per-method markers.
    // ------------------------------------------------------------------
    fn fig3(&mut self) {
        let mut text = String::new();
        let mut csv = String::from("variable,method,e_nmax,dist_min,dist_max,pass\n");
        for name in FOCUS {
            let (ctx, scored) = self.focus(name);
            let dist = &ctx.enmax_dist;
            let mut boxes = vec![("ensemble".to_string(), BoxStats::from_samples(dist.scores()))];
            for variant in Variant::paper_set() {
                let v = scored.get(variant);
                if let Some(e) = v.members.iter().find_map(|m| m.enmax).map(|o| o.e_nmax) {
                    // A marker renders as a degenerate box.
                    let marker = BoxStats { min: e, q1: e, median: e, q3: e, max: e };
                    boxes.push((variant.name(), marker));
                    let (lo, hi, pass) = (dist.min(), dist.max(), v.enmax_pass());
                    csv.push_str(&format!("{name},{},{e},{lo},{hi},{pass}\n", variant.name()));
                }
            }
            // Guard against zero markers leaving a single box.
            if boxes.len() == 1 {
                boxes.push(("(none)".to_string(), boxes[0].1));
            }
            text.push_str(&render_boxplot(
                &format!("Figure 3: E_nmax ensemble, variable {name}"),
                &boxes,
                true,
            ));
            text.push('\n');
        }
        self.emit("fig3", &text, Some(&csv));
    }

    // ------------------------------------------------------------------
    // Extension: resolution scaling (the paper's "exploring different grid
    // resolutions, particularly finer ones, is critical").
    // ------------------------------------------------------------------
    fn scaling(&mut self) {
        let mut t = Table::new(
            "Extension: codec behaviour vs grid resolution (variable U)",
            &["ne", "points", "fpzip-24 CR", "GRIB2 CR", "APAX-4 NRMSE", "ISA-0.5 CR"],
        );
        for ne in [3usize, 6, 9, 12] {
            let model = cc_model::Model::new(Resolution::reduced(ne, 6), self.cfg.seed);
            let member = model.member(0);
            let var = model.var_id("U").unwrap();
            let field = model.synthesize(&member, var);
            let layout = cc_codecs::Layout::for_grid(model.grid(), field.nlev);
            let raw = field.data.len() * 4;
            let cr = |v: Variant| -> f64 {
                v.codec().compress(&field.data, layout).len() as f64 / raw as f64
            };
            let nrmse = |v: Variant| -> f64 {
                let codec = v.codec();
                let bytes = codec.compress(&field.data, layout);
                let recon = codec.decompress(&bytes, layout).unwrap();
                cc_metrics::ErrorMetrics::compare(&field.data, &recon)
                    .map(|m| m.nrmse)
                    .unwrap_or(0.0)
            };
            t.row(vec![
                ne.to_string(),
                model.grid().len().to_string(),
                cr_fmt(cr(Variant::Fpzip { bits: 24 })),
                cr_fmt(cr(Variant::Grib2 { decimal_scale: None })),
                sci(nrmse(Variant::Apax { rate: 4.0 })),
                cr_fmt(cr(Variant::Isabela { rel_err: 0.005 })),
            ]);
        }
        self.emit("scaling", &t.render(), Some(&t.to_csv()));
    }

    // ------------------------------------------------------------------
    // Extension: operating characteristics of the test battery.
    // ------------------------------------------------------------------
    fn calibration(&mut self) {
        let mut t = Table::new(
            "Extension: methodology calibration (false positives / detection)",
            &["Variable", "RMSZ FP rate", "Enmax FP rate", "detect bias (sigma)"],
        );
        for name in FOCUS {
            let c = cc_core::calibration::calibrate(self.focus(name).0);
            t.row(vec![
                name.to_string(),
                format!("{:.3}", c.rmsz_false_positive),
                format!("{:.3}", c.enmax_false_positive),
                c.rmsz_detection_sigma.map(|e| format!("{e}")).unwrap_or_else(|| ">3.0".into()),
            ]);
        }
        self.emit("calibration", &t.render(), Some(&t.to_csv()));
    }

    // ------------------------------------------------------------------
    // Extension: SSIM visual-quality check (the paper's future work).
    // ------------------------------------------------------------------
    fn ssim(&mut self) {
        let mut t = Table::new(
            "Extension: SSIM of reconstructed fields (threshold 0.999)",
            &["Method", "U", "FSDSC", "Z3", "CCN3"],
        );
        let variants = Variant::paper_set();
        let mut rows: Vec<Vec<String>> = variants.iter().map(|v| vec![v.name()]).collect();
        for name in FOCUS {
            let (ctx, _) = self.focus(name);
            for (row, &v) in rows.iter_mut().zip(&variants) {
                row.push(
                    cc_core::visual::ssim_report(ctx, v)
                        .map(|r| format!("{:.5}{}", r.mean, if r.pass { "" } else { "(*)" }))
                        .unwrap_or_else(|| "-".into()),
                );
            }
        }
        for row in rows {
            t.row(row);
        }
        self.emit("ssim", &t.render(), Some(&t.to_csv()));
    }

    // ------------------------------------------------------------------
    // Figure 4: bias slope-vs-intercept with 95% confidence rectangles.
    // ------------------------------------------------------------------
    fn fig4(&mut self) {
        let mut text = String::new();
        let mut csv =
            String::from("variable,method,slope,intercept,slope_lo,slope_hi,int_lo,int_hi,pass\n");
        for name in FOCUS {
            let (_, scored) = self.focus(name);
            text.push_str(&format!("== Figure 4: bias regression, variable {name} ==\n"));
            for variant in Variant::paper_set() {
                let v = scored.get(variant);
                if let Some(reg) = v.bias {
                    let (slo, shi, ilo, ihi) = reg.confidence_rect();
                    text.push_str(&format!(
                        "{:<10} slope {:7.4} [{:7.4},{:7.4}]  intercept {:+8.5} [{:+8.5},{:+8.5}]  contains(1,0)={} eq9-pass={}\n",
                        variant.name(), reg.slope, slo, shi, reg.intercept, ilo, ihi,
                        reg.contains_ideal(), v.bias_pass()
                    ));
                    csv.push_str(&format!(
                        "{name},{},{},{},{},{},{},{},{}\n",
                        variant.name(),
                        reg.slope,
                        reg.intercept,
                        slo,
                        shi,
                        ilo,
                        ihi,
                        v.bias_pass()
                    ));
                }
            }
            text.push('\n');
        }
        self.emit("fig4", &text, Some(&csv));
    }

    /// `tune`: the generalized auto-tuner over the focus variables,
    /// emitted as a table artifact and as the `tune` section of
    /// `BENCH.json`.
    fn tune(&mut self, opts: &BenchOpts) {
        let preset = if opts.quick { "quick" } else { "default" };
        let vars = FOCUS.map(|name| var_id(&self.eval().model, name));
        self.score(&vars);
        progress!("    tuning {} variables over the (family x parameter) space ...", vars.len());
        let variables =
            vars.iter().map(|v| self.scored.get_mut(v).expect("scored above").tune()).collect();
        let report = TuneReport { variables };
        let table = report.table();
        self.emit("tune", &table.render(), Some(&table.to_csv()));
        // The two tuner invariants the validator re-checks on disk.
        if !report.all_pass() || !report.never_worse_than_hybrid() {
            eprintln!("tuner invariant violated (failing choice or CR worse than hybrid)");
            std::process::exit(1);
        }
        let nvars = report.variables.len();
        let artifact = cc_bench::tune::TuneArtifact { preset: preset.into(), report };
        write_section(opts, "tune", artifact.to_value());
        println!("wrote the tune section of {} ({nvars} variables)", opts.path.display());
    }

    /// `eval-bench`: verification-engine throughput over the focus
    /// variables, the `eval` section of `BENCH.json`.
    fn eval_bench(&mut self, opts: &BenchOpts) {
        let preset = if opts.quick { "quick" } else { "default" };
        let artifact = {
            let eval = self.eval();
            let vars = FOCUS.map(|name| var_id(&eval.model, name));
            progress!(
                "    measuring verification-engine throughput over {} variables ...",
                vars.len()
            );
            cc_bench::evalbench::run(eval, &vars, preset)
        };
        for v in &artifact.variables {
            println!("eval {:8}  tune wall {:8.3}s", v.name, v.tune_wall_s);
        }
        println!(
            "eval workers={} members={}  synthesis {:.1} members/s  verdicts {:.1}/s  total {:.2}s",
            artifact.workers,
            artifact.members,
            artifact.synth_members_per_s,
            artifact.verdicts_per_s,
            artifact.tune_wall_s
        );
        for s in artifact.stages.iter().take(8) {
            println!("      {:24} {:>7} calls  {:>10.1} ms self", s.name, s.calls, s.self_ms);
        }
        write_section(opts, "eval", artifact.to_value());
        println!(
            "wrote the eval section of {} ({} variables)",
            opts.path.display(),
            artifact.variables.len()
        );
    }

    /// `eval-check`: runtime determinism gate — the tuning sweep must
    /// produce byte-identical reports at worker counts 1 and 4.
    fn eval_check(&mut self) {
        let run = |workers: usize| -> String {
            let model = Model::new(self.cfg.resolution, self.cfg.seed);
            let mut config = EvalConfig::quick(self.cfg.members);
            config.workers = workers;
            let eval = Evaluation::new(model, config);
            let vars = FOCUS.map(|name| var_id(&eval.model, name));
            let report = TuneReport::build(&eval, &vars);
            format!("{}\n{:?}", report.table().render(), report.variables)
        };
        progress!("    re-running the tuning sweep at workers 1 and 4 ...");
        let one = run(1);
        let four = run(4);
        if one != four {
            eprintln!(
                "eval-check FAILED: tune reports diverge between workers 1 and 4 \
                 ({} vs {} bytes)",
                one.len(),
                four.len()
            );
            std::process::exit(1);
        }
        println!(
            "eval-check: tune reports byte-identical at workers {{1, 4}} ({} bytes)",
            one.len()
        );
    }
}
