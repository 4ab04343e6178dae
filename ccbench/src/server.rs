//! The child `ccc serve` process the served workloads talk to, and the
//! guard that always takes it down again.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where per-server archive directories live, relative to the working
/// directory (the benchmark reads and writes only inside its checkout).
const TMP_ROOT: &str = ".ccbench_tmp";

/// The `ccc` binary: `$CCBENCH_CCC`, else next to this executable (the
/// wrapper script builds both into one target directory; a test binary
/// sits one level down, in `deps/`).
pub fn locate_ccc() -> Result<PathBuf, String> {
    if let Some(p) = std::env::var_os("CCBENCH_CCC") {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut dir = exe.parent().unwrap_or(Path::new("."));
    if dir.ends_with("deps") {
        dir = dir.parent().unwrap_or(dir);
    }
    let ccc = dir.join("ccc");
    if ccc.is_file() {
        return Ok(ccc);
    }
    Err(format!(
        "ccc binary not found at {}; build it with `cargo build --release --bin ccc` \
         into the same target directory, or set CCBENCH_CCC",
        ccc.display()
    ))
}

/// A running `ccc serve --shards 1 --workers 2 --archive-dir <tmp>`.
/// Dropping it (also while unwinding from a panic) asks the server to
/// drain, kills it if it does not exit promptly, reaps it, and removes
/// its archive directory.
pub struct ChildServer {
    child: Child,
    /// Held so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` parsed from the `serving cc-wire/2 on …` line.
    pub addr: String,
    dir: PathBuf,
}

impl ChildServer {
    /// Spawn the server and wait for its address announcement.
    pub fn spawn(ccc: &Path) -> Result<ChildServer, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(TMP_ROOT).join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create archive dir {}: {e}", dir.display()))?;
        let spawned = Command::new(ccc)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--shards",
                "1",
                "--workers",
                "2",
            ])
            .arg("--archive-dir")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        let mut child = match spawned {
            Ok(c) => c,
            Err(e) => {
                remove_archive_dir(&dir);
                let hint = if e.kind() == std::io::ErrorKind::NotFound {
                    "; build it with `cargo build --release --bin ccc`"
                } else {
                    ""
                };
                return Err(format!("cannot start {}: {e}{hint}", ccc.display()));
            }
        };
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => break None,
                Ok(_) => {
                    if let Some(rest) = line.trim().strip_prefix("serving cc-wire/2 on ") {
                        break rest.split_whitespace().next().map(str::to_string);
                    }
                }
            }
        };
        let server = ChildServer {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
            dir,
        };
        if server.addr.is_empty() {
            // Drop reaps the child and removes the directory.
            return Err("ccc serve exited before announcing its address".into());
        }
        Ok(server)
    }

    /// Path of a stored archive inside the server's archive directory.
    pub fn archive_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ccarch"))
    }

    /// The server's peak resident set so far, kB.
    pub fn peak_rss_kb(&self) -> u64 {
        crate::harness::peak_rss_kb(&self.child.id().to_string())
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        if !self.addr.is_empty() {
            let cfg = cc_serve::ClientConfig {
                connect_attempts: 1,
                request_deadline: Duration::from_secs(2),
                ..cc_serve::ClientConfig::default()
            };
            if let Ok(mut c) = cc_serve::Client::connect_with(&self.addr, cfg) {
                let _ = c.shutdown_server();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        remove_archive_dir(&self.dir);
    }
}

/// Remove one server's archive directory, and the shared root once no
/// other server's directory is left in it.
fn remove_archive_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(TMP_ROOT);
}
