//! `ccc` — the climate-compress command line.
//!
//! ```text
//! ccc generate --out FILE [--ne N] [--nlev N] [--seed S] [--member M]
//!     Synthesize one ensemble member's full 170-variable history file.
//!
//! ccc inspect FILE
//!     Show dimensions, variables, attributes, and per-variable storage.
//!
//! ccc verify --var NAME [--codec NAME] [--members N] [--ne N] [--nlev N]
//!     Run the paper's four acceptance tests for one variable and one or
//!     all codec variants. `--error-bound X` (absolute) or `--rel-bound X`
//!     (value-range relative) select the SZ error-bounded codec instead
//!     of a named variant.
//!
//! ccc profile --var NAME [--ne N] [--nlev N]
//!     APAX-profiler sweep with a recommended encoding rate.
//!
//! ccc serve [--addr A] [--shards N] [--workers N] [--queue-depth N]
//!     [--archive-dir DIR]
//!     Run the cc-wire/2 compression/evaluation daemon (reactor shards
//!     owning the connections, a compute pool running the requests)
//!     until a remote shutdown request drains it. `--archive-dir`
//!     enables the ArchivePut/FetchSlice opcodes against that directory.
//!
//! ccc remote <ping|compress|decompress|eval|stats|shutdown|
//!             archive-put|fetch-slice> [--addr A] ...
//!     Issue one request against a running daemon.
//!
//! ccc archive create --out FILE --var NAMES --timesteps N [...]
//! ccc archive info FILE
//! ccc archive fetch --in FILE --var NAME --t N --lev N
//!     Build, inspect, and randomly access cc-arch/1 temporal archives
//!     (keyframes + error-bounded delta frames); `--keyframe-every
//!     N|auto` picks the keyframe interval, `auto` via the per-variable
//!     tuning verdict loop.
//!
//! ccc top [--addr A] [--interval MS] [--once]
//!     Live server metrics: poll Stats and render the interval delta —
//!     req/s, per-opcode latency percentiles, queue depth, busy/retry
//!     rates, per-shard traffic.
//!
//! ccc trace-check [FILE]
//!     Validate a TRACE.json artifact (default TRACE.json).
//! ```
//!
//! Every command also accepts `--trace FILE` (record spans + metrics and
//! write a `cc-trace/1` artifact), `--profile FILE` (write flamegraph
//! folded stacks), `--metrics` (print the counter table at exit), and
//! `--quiet` (suppress progress lines). With `--trace` or `--profile`,
//! `remote` requests carry a cc-wire/2 trace context and the server's
//! span subtree is stitched into the local artifact.

use climate_compress::archive::{ArchiveOptions, ArchiveReader, ArchiveWriter, FileSource};
use climate_compress::codecs::apax::Profiler;
use climate_compress::codecs::chunked::decompress_chunked;
use climate_compress::codecs::{ErrorBound, Layout, Variant};
use climate_compress::core::cli::{self, flag_f64_opt, flag_u64, flag_usize, ObsCli};
use climate_compress::core::evaluation::{verdict_for, EvalConfig, Evaluation};
use climate_compress::grid::Resolution;
use climate_compress::model::Model;
use climate_compress::ncdf::{AttrValue, Dataset};
use climate_compress::obs::progress;
use climate_compress::serve::wire::EvalRequest;
use climate_compress::serve::{Client, Server, ServerConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// Default daemon address for `serve` and `remote`.
const DEFAULT_ADDR: &str = "127.0.0.1:4014";

/// Every `ccc remote` subcommand. The usage text and both hint messages
/// are generated from this one table so they can never drift behind
/// newly added opcodes again.
const REMOTE_SUBCOMMANDS: &[&str] = &[
    "ping",
    "compress",
    "decompress",
    "eval",
    "stats",
    "shutdown",
    "archive-put",
    "fetch-slice",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        exit(2);
    };
    let flags = cli::parse_flags(rest);
    let obs = ObsCli::from_flags(&flags);
    obs.apply();
    cli::apply_workers(&flags);
    {
        let _cmd_span = climate_compress::obs::span_dyn(&format!("cmd.{cmd}"));
        match cmd.as_str() {
            "generate" => generate(&flags),
            "inspect" => inspect(rest),
            "verify" => verify(&flags),
            "profile" => profile(&flags),
            "serve" => serve(&flags),
            "remote" => remote(rest, &flags),
            "archive" => archive(rest, &flags),
            "top" => top(&flags),
            "trace-check" => trace_check(rest),
            "help" | "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown command: {other}\n");
                usage();
                exit(2);
            }
        }
    }
    obs.finish();
}

fn trace_check(args: &[String]) {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("TRACE.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    match climate_compress::obs::trace::validate(&text) {
        Ok(stats) => println!(
            "{path}: valid cc-trace/1 artifact ({} spans, depth {}, {} counters, {} histograms)",
            stats.spans, stats.max_depth, stats.counters, stats.histograms
        ),
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            exit(1);
        }
    }
}

fn usage() {
    eprintln!(
        "ccc — climate-compress CLI\n\
         commands:\n\
         \x20 generate --out FILE [--ne N] [--nlev N] [--seed S] [--member M]\n\
         \x20 inspect FILE\n\
         \x20 verify --var NAME [--codec NAME] [--members N] [--ne N] [--nlev N] [--seed S]\n\
         \x20        [--error-bound X | --rel-bound X]  (SZ error-bounded codec)\n\
         \x20 profile --var NAME [--ne N] [--nlev N] [--seed S]\n\
         \x20 serve [--addr A] [--shards N] [--workers N] [--queue-depth N]\n\
         \x20       [--max-conns N] [--max-payload BYTES] [--archive-dir DIR]\n\
         \x20 remote {}  [--addr A]\n\
         \x20 remote compress --codec NAME --var NAME [--out FILE] [model flags]\n\
         \x20 remote decompress --codec NAME --var NAME --in FILE [model flags]\n\
         \x20 remote eval --codec NAME --var NAME [--members N] [model flags]\n\
         \x20 remote archive-put --in FILE --name NAME [--addr A]\n\
         \x20 remote fetch-slice --name NAME --var NAME --t N --lev N [--out FILE]\n\
         \x20 archive create --out FILE --var NAMES --timesteps N [--interval X]\n\
         \x20         [--keyframe-every N|auto] [--codec NAME] [--error-bound X | --rel-bound X]\n\
         \x20         [model flags]\n\
         \x20 archive info FILE\n\
         \x20 archive fetch --in FILE --var NAME --t N --lev N [--out FILE]\n\
         \x20 top [--addr A] [--interval MS] [--once]\n\
         \x20 trace-check [FILE]\n\
         every command also accepts --workers N (worker-pool width),\n\
         --trace FILE, --profile FILE, --metrics, and --quiet",
        REMOTE_SUBCOMMANDS.join("|")
    );
}

/// `--error-bound X` (absolute) or `--rel-bound X` (value-range
/// relative) select the SZ error-bounded codec; they are mutually
/// exclusive.
fn sz_bound_from_flags(flags: &HashMap<String, String>) -> Option<ErrorBound> {
    match (flag_f64_opt(flags, "error-bound"), flag_f64_opt(flags, "rel-bound")) {
        (Some(_), Some(_)) => {
            eprintln!("--error-bound and --rel-bound are mutually exclusive");
            exit(2);
        }
        (Some(e), None) => Some(ErrorBound::Abs(e)),
        (None, Some(r)) => Some(ErrorBound::Rel(r)),
        (None, None) => None,
    }
}

fn model_from_flags(flags: &HashMap<String, String>) -> Model {
    let ne = flag_usize(flags, "ne", 6);
    let nlev = flag_usize(flags, "nlev", 6);
    let seed = flag_u64(flags, "seed", 2014);
    Model::new(Resolution::reduced(ne, nlev), seed)
}

fn generate(flags: &HashMap<String, String>) {
    let Some(out) = flags.get("out") else {
        eprintln!("generate needs --out FILE");
        exit(2);
    };
    let model = model_from_flags(flags);
    let m = flag_usize(flags, "member", 0);
    progress!(
        "synthesizing member {m} on {} points x {} levels ...",
        model.grid().len(),
        model.grid().resolution().nlev
    );
    let member = model.member(m);
    let ds = model.history_file(&member);
    let raw: usize = (0..ds.vars().len()).map(|v| ds.var_raw_bytes(v)).sum();
    let stored: usize = (0..ds.vars().len()).map(|v| ds.var_stored_bytes(v)).sum();
    ds.save(&PathBuf::from(out)).unwrap_or_else(|e| {
        eprintln!("write failed: {e}");
        exit(1);
    });
    println!(
        "wrote {out}: {} variables (170 data + coordinates), {raw} -> {stored} data bytes (lossless CR {:.2})",
        ds.vars().len(),
        stored as f64 / raw as f64
    );
}

fn inspect(args: &[String]) {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("inspect needs a FILE");
        exit(2);
    };
    let ds = Dataset::open(&PathBuf::from(path)).unwrap_or_else(|e| {
        eprintln!("open failed: {e}");
        exit(1);
    });
    println!("file: {path}");
    for a in &ds.global_attrs {
        println!("  :{} = {}", a.name, fmt_attr(&a.value));
    }
    println!("dimensions ({}):", ds.dims().len());
    for d in ds.dims().iter().take(12) {
        println!("  {} = {}", d.name, d.len);
    }
    if ds.dims().len() > 12 {
        println!("  ... {} more", ds.dims().len() - 12);
    }
    println!("variables ({}):", ds.vars().len());
    for (i, v) in ds.vars().iter().enumerate() {
        let stored = ds.var_stored_bytes(i);
        let raw = ds.var_raw_bytes(i);
        let cr = if raw > 0 { stored as f64 / raw as f64 } else { 1.0 };
        let units = ds
            .attr(Some(i), "units")
            .map(fmt_attr)
            .unwrap_or_else(|| "-".into());
        println!(
            "  {:<12} {:?} [{}] {} -> {} bytes (CR {:.2})",
            v.name, v.dtype, units, raw, stored, cr
        );
        if i >= 19 && ds.vars().len() > 24 {
            println!("  ... {} more variables", ds.vars().len() - 20);
            break;
        }
    }
}

fn fmt_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::Text(t) => format!("\"{t}\""),
        AttrValue::F64(x) => format!("{x}"),
        AttrValue::I64(x) => format!("{x}"),
    }
}

fn verify(flags: &HashMap<String, String>) {
    let Some(var_name) = flags.get("var") else {
        eprintln!("verify needs --var NAME");
        exit(2);
    };
    let model = model_from_flags(flags);
    let members = flag_usize(flags, "members", 25);
    let eval = Evaluation::new(model, EvalConfig::quick(members));
    let Some(var) = eval.model.var_id(var_name) else {
        eprintln!("unknown variable {var_name} (170 CAM names, e.g. U, FSDSC, Z3, CCN3)");
        exit(2);
    };
    progress!("building {members}-member ensemble context for {var_name} ...");
    let ctx = eval.context(var);
    let variants: Vec<Variant> = match (sz_bound_from_flags(flags), flags.get("codec")) {
        (Some(_), Some(_)) => {
            eprintln!("--error-bound/--rel-bound pick the SZ codec; drop --codec");
            exit(2);
        }
        (Some(bound), None) => vec![Variant::Sz { bound }],
        (None, Some(name)) => match Variant::by_name(name) {
            Some(v) => vec![v],
            None => {
                eprintln!(
                    "unknown codec {name}; try GRIB2, GRIB2(D=3), APAX-4, fpzip-24, ISA-0.5, SZ-rel-1e-3, NetCDF-4"
                );
                exit(2);
            }
        },
        (None, None) => Variant::paper_set(),
    };
    println!(
        "{:<10} {:>6} | {:>5} {:>9} {:>10} {:>5} | verdict",
        "codec", "CR", "rho", "RMSZ", "Enmax", "bias"
    );
    for variant in variants {
        let v = verdict_for(&ctx, variant);
        let mark = |b: bool| if b { "pass" } else { "FAIL" };
        println!(
            "{:<10} {:>6.2} | {:>5} {:>9} {:>10} {:>5} | {}",
            variant.name(),
            v.cr,
            mark(v.pearson_pass()),
            mark(v.rmsz_pass()),
            mark(v.enmax_pass()),
            mark(v.bias_pass()),
            if v.all_pass() { "indistinguishable" } else { "climate-changing" }
        );
    }
}

fn profile(flags: &HashMap<String, String>) {
    let Some(var_name) = flags.get("var") else {
        eprintln!("profile needs --var NAME");
        exit(2);
    };
    let model = model_from_flags(flags);
    let Some(var) = model.var_id(var_name) else {
        eprintln!("unknown variable {var_name}");
        exit(2);
    };
    let member = model.member(0);
    let field = model.synthesize(&member, var);
    let layout = Layout::for_grid(model.grid(), field.nlev);
    let (entries, recommended) = Profiler::default().profile(&field.data, layout);
    println!("{:>6} {:>12} {:>12} {:>10}", "rate", "pearson", "max |err|", "bytes");
    for e in entries {
        println!("{:>6.1} {:>12.8} {:>12.3e} {:>10}", e.rate, e.pearson, e.max_abs_err, e.bytes);
    }
    match recommended {
        Some(rate) => println!("recommended rate: {rate} ({rate}:1 compression)"),
        None => println!("no rate meets rho >= 0.99999; use a lossless mode"),
    }
}

// ---------------------------------------------------------------------
// The service daemon and its client commands.
// ---------------------------------------------------------------------

fn serve(flags: &HashMap<String, String>) {
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: flags.get("addr").cloned().unwrap_or_else(|| DEFAULT_ADDR.into()),
        shards: flag_usize(flags, "shards", defaults.shards),
        workers: flag_usize(flags, "workers", defaults.workers),
        queue_depth: flag_usize(flags, "queue-depth", defaults.queue_depth),
        max_conns: flag_usize(flags, "max-conns", defaults.max_conns),
        max_payload: flag_usize(
            flags,
            "max-payload",
            climate_compress::serve::wire::DEFAULT_MAX_PAYLOAD,
        ),
        archive_dir: flags.get("archive-dir").map(PathBuf::from),
        ..defaults
    };
    if let Some(dir) = &cfg.archive_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create archive dir {}: {e}", dir.display());
            exit(1);
        });
    }
    let (shards, workers, queue_depth) = (cfg.shards, cfg.workers, cfg.queue_depth);
    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        exit(1);
    });
    let addr = server.addr();
    println!(
        "serving cc-wire/2 on {addr} (shards={shards}, workers={workers}, queue-depth={queue_depth})"
    );
    println!("stop with: ccc remote shutdown --addr {addr}");
    server.join();
    progress!("server drained");
}

fn connect(flags: &HashMap<String, String>) -> Client {
    let addr = flags.get("addr").map(String::as_str).unwrap_or(DEFAULT_ADDR);
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot reach server at {addr}: {e}");
        exit(1);
    })
}

/// Synthesize the field a remote compress/decompress request is about.
fn remote_field(flags: &HashMap<String, String>) -> (Vec<f32>, Layout, String) {
    let Some(var_name) = flags.get("var") else {
        eprintln!("this remote command needs --var NAME");
        exit(2);
    };
    let model = model_from_flags(flags);
    let Some(var) = model.var_id(var_name) else {
        eprintln!("unknown variable {var_name}");
        exit(2);
    };
    let member = model.member(flag_usize(flags, "member", 0));
    let field = model.synthesize(&member, var);
    let layout = Layout::for_grid(model.grid(), field.nlev);
    (field.data, layout, var_name.clone())
}

fn remote_codec(flags: &HashMap<String, String>) -> String {
    let Some(name) = flags.get("codec") else {
        eprintln!("this remote command needs --codec NAME");
        exit(2);
    };
    if Variant::by_name(name).is_none() {
        eprintln!(
            "unknown codec {name}; try GRIB2, GRIB2(D=3), APAX-4, fpzip-24, ISA-0.5, SZ-rel-1e-3, NetCDF-4"
        );
        exit(2);
    }
    name.clone()
}

fn remote(args: &[String], flags: &HashMap<String, String>) {
    let Some(sub) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("remote needs a subcommand: {}", REMOTE_SUBCOMMANDS.join("|"));
        exit(2);
    };
    match sub.as_str() {
        "ping" => {
            let mut client = connect(flags);
            let t0 = std::time::Instant::now();
            client.ping().unwrap_or_else(|e| {
                eprintln!("ping failed: {e}");
                exit(1);
            });
            println!("pong in {:.1}us", t0.elapsed().as_secs_f64() * 1e6);
        }
        "compress" => {
            let codec = remote_codec(flags);
            let (data, layout, var) = remote_field(flags);
            let mut client = connect(flags);
            let stream = client.compress(&codec, layout, &data).unwrap_or_else(|e| {
                eprintln!("remote compress failed: {e}");
                exit(1);
            });
            let raw = data.len() * 4;
            println!(
                "{var}: {raw} -> {} bytes over the wire with {codec} (CR {:.3})",
                stream.len(),
                stream.len() as f64 / raw as f64
            );
            if let Some(out) = flags.get("out") {
                std::fs::write(out, &stream).unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    exit(1);
                });
                println!("wrote stream to {out}");
            }
        }
        "decompress" => {
            let codec = remote_codec(flags);
            let Some(input) = flags.get("in") else {
                eprintln!("remote decompress needs --in FILE (a stream from remote compress)");
                exit(2);
            };
            let stream = std::fs::read(input).unwrap_or_else(|e| {
                eprintln!("cannot read {input}: {e}");
                exit(1);
            });
            let (_, layout, var) = remote_field(flags);
            let mut client = connect(flags);
            let data = client.decompress(&codec, layout, &stream).unwrap_or_else(|e| {
                eprintln!("remote decompress failed: {e}");
                exit(1);
            });
            // The server must produce exactly the bytes the in-process
            // pipeline does — check it against a local decode.
            let variant = Variant::by_name(&codec).expect("validated above");
            let local = decompress_chunked(variant.codec().as_ref(), &stream, layout, 1);
            let matches = local.as_ref().map(|l| l == &data).unwrap_or(false);
            println!(
                "{var}: {} bytes -> {} values with {codec}; matches local decode: {}",
                stream.len(),
                data.len(),
                if matches { "yes" } else { "NO" }
            );
            if !matches {
                exit(1);
            }
        }
        "eval" => {
            let codec = remote_codec(flags);
            let Some(var) = flags.get("var") else {
                eprintln!("remote eval needs --var NAME");
                exit(2);
            };
            let req = EvalRequest {
                variant: codec.clone(),
                var: var.clone(),
                members: flag_usize(flags, "members", 8) as u16,
                ne: flag_usize(flags, "ne", 4) as u16,
                nlev: flag_usize(flags, "nlev", 4) as u16,
                seed: flag_u64(flags, "seed", 2014),
            };
            let mut client = connect(flags);
            let v = client.evaluate(&req).unwrap_or_else(|e| {
                eprintln!("remote eval failed: {e}");
                exit(1);
            });
            let mark = |b: bool| if b { "pass" } else { "FAIL" };
            println!(
                "{var} x {codec}: CR {:.3} | rho {} RMSZ {} Enmax {} bias {} | {}",
                v.cr,
                mark(v.pearson_pass),
                mark(v.rmsz_pass),
                mark(v.enmax_pass),
                mark(v.bias_pass),
                if v.all_pass() { "indistinguishable" } else { "climate-changing" }
            );
        }
        "stats" => {
            let mut client = connect(flags);
            let report = client.stats().unwrap_or_else(|e| {
                eprintln!("remote stats failed: {e}");
                exit(1);
            });
            for name in climate_compress::serve::server::STAT_COUNTERS {
                println!("{name} {}", report.metrics.counter(name));
            }
        }
        "shutdown" => {
            let mut client = connect(flags);
            client.shutdown_server().unwrap_or_else(|e| {
                eprintln!("remote shutdown failed: {e}");
                exit(1);
            });
            println!("server draining");
        }
        "archive-put" => {
            let Some(input) = flags.get("in") else {
                eprintln!("remote archive-put needs --in FILE (a cc-arch/1 archive)");
                exit(2);
            };
            let Some(name) = flags.get("name") else {
                eprintln!("remote archive-put needs --name NAME (the server-side key)");
                exit(2);
            };
            let bytes = std::fs::read(input).unwrap_or_else(|e| {
                eprintln!("cannot read {input}: {e}");
                exit(1);
            });
            let mut client = connect(flags);
            let resp = client.archive_put(name, &bytes).unwrap_or_else(|e| {
                eprintln!("remote archive-put failed: {e}");
                exit(1);
            });
            println!(
                "stored {name}: {} bytes, {} variables, {} frames",
                resp.bytes, resp.vars, resp.frames
            );
        }
        "fetch-slice" => {
            let (name, var, t, lev) = fetch_slice_flags(flags, "remote fetch-slice needs --name NAME");
            let mut client = connect(flags);
            let slice = client.fetch_slice(&name, &var, t, lev).unwrap_or_else(|e| {
                eprintln!("remote fetch-slice failed: {e}");
                exit(1);
            });
            print_slice(&slice, &var, t, lev, flags.get("out"));
        }
        other => {
            eprintln!("unknown remote subcommand: {other}");
            eprintln!("known subcommands: {}", REMOTE_SUBCOMMANDS.join("|"));
            exit(2);
        }
    }
}

// ---------------------------------------------------------------------
// Temporal archives (cc-arch/1).
// ---------------------------------------------------------------------

/// Shared flag parsing for `archive fetch` and `remote fetch-slice`:
/// the archive key (`--name` remotely, `--in` locally handled by the
/// caller), variable, timestep, and level.
fn fetch_slice_flags(
    flags: &HashMap<String, String>,
    name_hint: &str,
) -> (String, String, u32, u32) {
    let Some(name) = flags.get("name") else {
        eprintln!("{name_hint}");
        exit(2);
    };
    let Some(var) = flags.get("var") else {
        eprintln!("fetch-slice needs --var NAME");
        exit(2);
    };
    let t = flag_usize(flags, "t", 0) as u32;
    let lev = flag_usize(flags, "lev", 0) as u32;
    (name.clone(), var.clone(), t, lev)
}

/// Print a fetched slice's shape and value range; `--out FILE` also
/// writes the raw little-endian f32 bytes.
fn print_slice(slice: &[f32], var: &str, t: u32, lev: u32, out: Option<&String>) {
    let finite = slice.iter().filter(|v| v.is_finite());
    let min = finite.clone().cloned().fold(f32::INFINITY, f32::min);
    let max = finite.cloned().fold(f32::NEG_INFINITY, f32::max);
    println!("{var} t={t} lev={lev}: {} values, range [{min:.6}, {max:.6}]", slice.len());
    if let Some(out) = out {
        let bytes: Vec<u8> = slice.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(out, &bytes).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            exit(1);
        });
        println!("wrote {} bytes (raw f32 LE) to {out}", slice.len() * 4);
    }
}

/// `ccc archive create|info|fetch`: build a temporal archive from a
/// synthetic run, inspect its index, or random-access one slice.
fn archive(args: &[String], flags: &HashMap<String, String>) {
    let Some(sub) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("archive needs a subcommand: create|info|fetch");
        exit(2);
    };
    match sub.as_str() {
        "create" => archive_create(flags),
        "info" => {
            // Positional FILE after `info`, or --in FILE.
            let path = args
                .iter()
                .filter(|a| !a.starts_with("--"))
                .nth(1)
                .cloned()
                .or_else(|| flags.get("in").cloned())
                .unwrap_or_else(|| {
                    eprintln!("archive info needs a FILE");
                    exit(2);
                });
            archive_info(&path);
        }
        "fetch" => {
            let Some(input) = flags.get("in") else {
                eprintln!("archive fetch needs --in FILE");
                exit(2);
            };
            let Some(var) = flags.get("var") else {
                eprintln!("archive fetch needs --var NAME");
                exit(2);
            };
            let t = flag_usize(flags, "t", 0);
            let lev = flag_usize(flags, "lev", 0);
            let src = FileSource::open(std::path::Path::new(input)).unwrap_or_else(|e| {
                eprintln!("cannot open {input}: {e}");
                exit(1);
            });
            let file_len = {
                use climate_compress::archive::SliceSource;
                src.len()
            };
            let mut reader = ArchiveReader::open(src).unwrap_or_else(|e| {
                eprintln!("cannot read archive {input}: {e}");
                exit(1);
            });
            let slice = reader.fetch_slice(var, t, lev).unwrap_or_else(|e| {
                eprintln!("fetch failed: {e}");
                exit(1);
            });
            print_slice(&slice, var, t as u32, lev as u32, flags.get("out"));
            println!(
                "read {} of {} file bytes (keyframe chain + index only)",
                reader.bytes_read(),
                file_len
            );
        }
        other => {
            eprintln!("unknown archive subcommand: {other} (create|info|fetch)");
            exit(2);
        }
    }
}

fn archive_create(flags: &HashMap<String, String>) {
    let Some(out) = flags.get("out") else {
        eprintln!("archive create needs --out FILE");
        exit(2);
    };
    let Some(var_list) = flags.get("var") else {
        eprintln!("archive create needs --var NAME[,NAME...]");
        exit(2);
    };
    let timesteps = flag_usize(flags, "timesteps", 100);
    if timesteps == 0 {
        eprintln!("--timesteps must be >= 1");
        exit(2);
    }
    let interval = flag_f64_opt(flags, "interval").unwrap_or(0.02);
    let model = model_from_flags(flags);
    let member = flag_usize(flags, "member", 0);
    let trajectory = model.trajectory(member, timesteps, interval);

    // Keyframe codec: --codec NAME, or an SZ bound via
    // --error-bound/--rel-bound (default rel 1e-4). A bound also turns
    // on bounded delta frames; a plain --codec keeps exact XOR deltas.
    let base_opts = match (sz_bound_from_flags(flags), flags.get("codec")) {
        (Some(_), Some(_)) => {
            eprintln!("--error-bound/--rel-bound pick the SZ codec; drop --codec");
            exit(2);
        }
        (Some(bound), None) => {
            ArchiveOptions::new(Variant::Sz { bound }).with_bound(bound)
        }
        (None, Some(name)) => match Variant::by_name(name) {
            Some(v) => ArchiveOptions::new(v),
            None => {
                eprintln!(
                    "unknown codec {name}; try GRIB2, GRIB2(D=3), APAX-4, fpzip-24, ISA-0.5, SZ-rel-1e-3, NetCDF-4"
                );
                exit(2);
            }
        },
        (None, None) => {
            let bound = ErrorBound::Rel(1e-4);
            ArchiveOptions::new(Variant::Sz { bound }).with_bound(bound)
        }
    };
    // `--keyframe-every N` pins the interval; `auto` searches the
    // tuning verdict loop's candidate set per variable.
    let keyframe_flag = flags.get("keyframe-every").map(String::as_str);
    let auto_tune = keyframe_flag == Some("auto");
    let fixed_every = match keyframe_flag {
        Some("auto") | None => None,
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("--keyframe-every needs a positive integer or `auto`");
                exit(2);
            }
        },
    };

    let mut writer = ArchiveWriter::new();
    let mut rows = Vec::new();
    for var_name in var_list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let Some(var) = model.var_id(var_name) else {
            eprintln!("unknown variable {var_name}");
            exit(2);
        };
        let layout = Layout::for_grid(model.grid(), model.var_nlev(var));
        progress!(
            "archiving {var_name}: {timesteps} timesteps x {} elements ...",
            layout.len()
        );
        let frames: Vec<Vec<f32>> = trajectory
            .iter()
            .map(|m| model.synthesize(m, var).data)
            .collect();
        let opts = if auto_tune {
            let tuned = climate_compress::core::tuning::tune_keyframe_interval(
                var_name,
                &frames,
                layout,
                &base_opts,
            );
            progress!(
                "  tuned keyframe interval for {var_name}: {} ({} candidates, {} passing)",
                tuned.interval,
                tuned.candidates,
                tuned.passing
            );
            base_opts.clone().with_keyframe_every(tuned.interval)
        } else {
            match fixed_every {
                Some(n) => base_opts.clone().with_keyframe_every(n),
                None => base_opts.clone(),
            }
        };
        let summary = writer.add_variable(var_name, layout, &frames, &opts).unwrap_or_else(|e| {
            eprintln!("cannot archive {var_name}: {e}");
            exit(1);
        });
        rows.push((var_name.to_string(), opts.keyframe_every, summary));
    }
    let bytes = writer.finish();
    std::fs::write(out, &bytes).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    for (name, every, s) in &rows {
        println!(
            "{:<12} {:>4} frames ({} keyframes, every {every}) {} -> {} bytes (CR {:.4})",
            name,
            s.frames,
            s.keyframes,
            s.raw_bytes,
            s.bytes,
            s.bytes as f64 / s.raw_bytes as f64
        );
    }
    println!("wrote {out}: {} bytes, {} variables, {timesteps} timesteps", bytes.len(), rows.len());
}

fn archive_info(path: &str) {
    use climate_compress::archive::FrameKind;
    let src = FileSource::open(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1);
    });
    let reader = ArchiveReader::open(src).unwrap_or_else(|e| {
        eprintln!("cannot read archive {path}: {e}");
        exit(1);
    });
    let index = reader.index();
    println!(
        "{path}: cc-arch/1, {} variables, frame section [8, {}), index+footer {} bytes",
        index.vars.len(),
        index.index_offset,
        index.index_bytes
    );
    for v in &index.vars {
        let keyframes = v.frames.iter().filter(|f| f.kind == FrameKind::Key).count();
        let bytes: u64 = v.frames.iter().map(|f| f.len).sum();
        println!(
            "  {:<12} {:>4} frames ({keyframes} keyframes, every {}) codec {} delta {} {} blob bytes",
            v.name,
            v.frames.len(),
            v.keyframe_every,
            v.codec,
            v.delta.label(),
            bytes
        );
    }
}

/// `ccc top`: poll the server's `cc-stats/1` metrics and render the
/// interval delta between consecutive polls — request rates, per-opcode
/// latency percentiles, queue depth, busy/retry rates, the archive
/// cache's hit rate, evictions and resident keyframes, per-shard
/// connection counts. `--once` renders one interval and exits.
fn top(flags: &HashMap<String, String>) {
    let interval = Duration::from_millis(flag_u64(flags, "interval", 1000).max(1));
    let once = flags.contains_key("once");
    let mut client = connect(flags);
    let mut prev = match client.stats() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stats poll failed: {e}");
            exit(1);
        }
    };
    loop {
        std::thread::sleep(interval);
        let cur = match client.stats() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("stats poll failed: {e}");
                exit(1);
            }
        };
        let frame = top_frame(&prev, &cur);
        if !once {
            // Home + clear-to-end keeps a live view without scrollback spam.
            print!("\x1b[H\x1b[2J");
        }
        print!("{frame}");
        if once {
            return;
        }
        prev = cur;
    }
}

/// Render one `ccc top` interval: the delta between two consecutive
/// [`StatsReport`](climate_compress::serve::StatsReport)s. Split from the
/// poll loop so the arithmetic is testable without a live server.
fn top_frame(
    prev: &climate_compress::serve::StatsReport,
    cur: &climate_compress::serve::StatsReport,
) -> String {
    use climate_compress::core::report::Table;
    // Server-side interval length; the server clock also stamps the
    // counters, so rates stay honest even if the client poll jitters.
    let dt_s = (cur.uptime_us.saturating_sub(prev.uptime_us) as f64 / 1e6).max(1e-9);
    let d = cur.metrics.delta(&prev.metrics);
    let rate = |name: &str| d.counter(name) as f64 / dt_s;

    let mut out = String::new();
    out.push_str(&format!(
        "cc-serve — up {:.0}s — interval {:.1}s\n\
         req/s {:.1} | err/s {:.1} | busy/s {:.1} | retry/s {:.1} | stream-frames/s {:.1} | traced/s {:.1}\n",
        cur.uptime_us as f64 / 1e6,
        dt_s,
        rate("serve.requests"),
        rate("serve.errors"),
        rate("serve.busy"),
        rate("serve.queue_full_retry"),
        rate("serve.stream.frames"),
        rate("serve.traced_requests"),
    ));
    if let Some(q) = d.histogram("serve.queue_depth") {
        if q.count > 0 {
            out.push_str(&format!(
                "queue depth: mean {:.1}, p99 <= {}\n",
                q.sum as f64 / q.count as f64,
                q.percentile(0.99)
            ));
        }
    }

    // Hit rate over the interval's lookups; the gauges as of this poll.
    let hits = d.counter("archive.cache.hit");
    let lookups = hits + d.counter("archive.cache.miss");
    let hit_rate = match lookups {
        0 => "-".to_string(),
        n => format!("{:.1}%", 100.0 * hits as f64 / n as f64),
    };
    out.push_str(&format!(
        "archive cache: hit rate {hit_rate} | evict/s {:.1} | resident {:.1} MiB in {} archives\n",
        rate("archive.cache.evict"),
        cur.counter("archive.cache.bytes") as f64 / (1u64 << 20) as f64,
        cur.counter("archive.cache.entries"),
    ));

    let mut lat = Table::new(
        "Latency (interval)",
        &["opcode", "req/s", "p50 us", "p99 us", "p999 us"],
    );
    for op in [
        "ping",
        "compress",
        "decompress",
        "evaluate",
        "stats",
        "shutdown",
        "archive_put",
        "fetch_slice",
    ] {
        let Some(h) = d.histogram(&format!("serve.req_us.{op}")) else { continue };
        if h.count == 0 {
            continue;
        }
        lat.row(vec![
            op.to_string(),
            format!("{:.1}", h.count as f64 / dt_s),
            format!("<= {}", h.percentile(0.50)),
            format!("<= {}", h.percentile(0.99)),
            format!("<= {}", h.percentile(0.999)),
        ]);
    }
    out.push_str(&lat.render());
    out.push('\n');

    let mut shards = Table::new(
        "Shards (interval)",
        &["shard", "conns", "frames", "bytes in", "bytes out"],
    );
    for i in 0.. {
        let prefix = format!("serve.shard{i}.");
        if cur.metrics.counters.iter().all(|(n, _)| !n.starts_with(&prefix)) {
            break;
        }
        shards.row(vec![
            i.to_string(),
            d.counter(&format!("{prefix}conns")).to_string(),
            d.counter(&format!("{prefix}frames")).to_string(),
            d.counter(&format!("{prefix}bytes_in")).to_string(),
            d.counter(&format!("{prefix}bytes_out")).to_string(),
        ]);
    }
    out.push_str(&shards.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::top_frame;
    use climate_compress::obs::{HistogramSnapshot, MetricsSnapshot};
    use climate_compress::serve::StatsReport;

    fn report(uptime_us: u64, counters: &[(&str, u64)], fetches: u64) -> StatsReport {
        let mut counters: Vec<(String, u64)> =
            counters.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        counters.sort();
        // Every fetch took 300 us: log2 bucket 9 holds [256, 512).
        let fetch_us =
            HistogramSnapshot { count: fetches, sum: 300 * fetches, buckets: vec![(9, fetches)] };
        StatsReport {
            uptime_us,
            metrics: MetricsSnapshot {
                counters,
                histograms: vec![("serve.req_us.fetch_slice".to_string(), fetch_us)],
            },
        }
    }

    #[test]
    fn top_frame_renders_interval_rates_and_the_archive_cache() {
        let prev = report(
            1_000_000,
            &[
                ("serve.requests", 12),
                ("archive.cache.hit", 10),
                ("archive.cache.miss", 2),
                ("archive.cache.evict", 1),
                ("archive.cache.bytes", 1 << 20),
                ("archive.cache.entries", 1),
            ],
            12,
        );
        let cur = report(
            3_000_000,
            &[
                ("serve.requests", 112),
                ("archive.cache.hit", 109),
                ("archive.cache.miss", 3),
                ("archive.cache.evict", 5),
                ("archive.cache.bytes", 3 << 20),
                ("archive.cache.entries", 2),
            ],
            112,
        );
        let frame = top_frame(&prev, &cur);
        assert!(frame.contains("interval 2.0s"), "{frame}");
        assert!(frame.contains("req/s 50.0 |"), "{frame}");
        assert!(
            frame.contains(
                "archive cache: hit rate 99.0% | evict/s 2.0 | resident 3.0 MiB in 2 archives\n"
            ),
            "{frame}"
        );
        let row = frame.lines().find(|l| l.contains("fetch_slice")).expect("fetch_slice row");
        assert!(row.contains("50.0") && row.contains("<= 512"), "{row}");

        // No lookups in the interval: no hit rate to report.
        let idle = top_frame(&cur, &report(4_000_000, &[("archive.cache.hit", 109)], 112));
        let quiet = "archive cache: hit rate - | evict/s 0.0 | resident 0.0 MiB";
        assert!(idle.contains(quiet), "{idle}");
        assert!(!idle.contains("fetch_slice"), "idle interval lists no fetch latency: {idle}");
    }
}
