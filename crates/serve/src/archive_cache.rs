//! Open-once archive handles for `FetchSlice`.
//!
//! The server keeps one entry per stored archive name: a reader over the
//! open descriptor (index parsed once, keyframes decoded once and shared
//! by every request) tagged with that descriptor's (device, inode). A
//! request `stat`s `<name>.ccarch` and uses the entry only when the pair
//! matches. The entry holds its descriptor open, so its inode cannot be
//! reused while cached: a match means the path still names the cached
//! file, and a rename-replace always misses. Names, sizes and mtimes are
//! never the identity.
//!
//! Two bounds hold at every step: at most `max_entries` entries (each
//! holds a descriptor), and the entries' decoded-keyframe budgets — the
//! most each archive's keyframe cache can hold, from its index — sum to
//! at most `max_bytes`. Admitting a new archive evicts least recently
//! used entries until both hold; an archive whose budget alone exceeds
//! `max_bytes` is not admitted and is served by a reader of its own.
//!
//! The cache lock guards only lookups, inserts and evictions; no decode
//! or file read happens under it.

use cc_archive::{ArchiveError, ArchiveReader, FileSource};
use std::collections::HashMap;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};

/// Why a stored archive could not be opened.
#[derive(Debug)]
pub(crate) enum OpenError {
    /// No readable file at the path.
    Missing,
    /// The file does not parse as an archive.
    Archive(ArchiveError),
}

/// The bounded set of open archives.
pub(crate) struct ArchiveCache {
    state: Mutex<State>,
}

struct State {
    max_entries: usize,
    max_bytes: u64,
    entries: HashMap<String, Entry>,
    /// Sum of the entries' budgets; never above `max_bytes`.
    admitted: u64,
    /// LRU clock, advanced on every admission and hit.
    tick: u64,
}

struct Entry {
    /// (device, inode) of the descriptor `reader` holds open.
    identity: (u64, u64),
    reader: ArchiveReader<FileSource>,
    /// Decoded bytes of all of the archive's keyframes.
    budget: u64,
    last_used: u64,
}

impl ArchiveCache {
    /// An empty cache; both bounds must be positive.
    pub(crate) fn new(max_entries: usize, max_bytes: u64) -> ArchiveCache {
        assert!(max_entries > 0 && max_bytes > 0, "archive cache bounds must be positive");
        let state =
            State { max_entries, max_bytes, entries: HashMap::new(), admitted: 0, tick: 0 };
        ArchiveCache { state: Mutex::new(state) }
    }

    /// A reader for the archive stored at `path` under `name`: a clone of
    /// the cached entry while it still names the same file, else a reader
    /// freshly opened (and admitted when its keyframes fit the budget).
    pub(crate) fn reader(
        &self,
        name: &str,
        path: &Path,
    ) -> Result<ArchiveReader<FileSource>, OpenError> {
        let meta = std::fs::metadata(path).map_err(|_| OpenError::Missing)?;
        let on_disk = (meta.dev(), meta.ino());
        {
            let mut st = self.lock();
            st.tick += 1;
            let tick = st.tick;
            match st.entries.get_mut(name) {
                Some(e) if e.identity == on_disk => {
                    e.last_used = tick;
                    cc_obs::counter_inc("archive.cache.hit");
                    return Ok(e.reader.clone());
                }
                // The name now points at another file: a put replaced it.
                Some(_) => st.remove(name),
                None => {}
            }
        }
        cc_obs::counter_inc("archive.cache.miss");
        let src = FileSource::open(path).map_err(|_| OpenError::Missing)?;
        let identity = src.identity();
        let reader = ArchiveReader::open(src).map_err(OpenError::Archive)?;
        self.lock().admit(name, identity, &reader);
        Ok(reader)
    }

    /// Drop `name`'s entry: its file was just replaced.
    pub(crate) fn evict(&self, name: &str) {
        self.lock().remove(name);
    }

    /// Set the `archive.cache.entries` and `archive.cache.bytes` gauges
    /// (entries held, decoded keyframe bytes resident).
    pub(crate) fn publish(&self) {
        let st = self.lock();
        let resident: u64 = st.entries.values().map(|e| e.reader.cached_bytes()).sum();
        cc_obs::counter("archive.cache.entries").store(st.entries.len() as u64, Ordering::Relaxed);
        cc_obs::counter("archive.cache.bytes").store(resident, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update leaves the map and the budget sum consistent.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl State {
    /// Admit `reader` under `name` unless its budget alone exceeds
    /// `max_bytes`, evicting least recently used entries first.
    fn admit(&mut self, name: &str, identity: (u64, u64), reader: &ArchiveReader<FileSource>) {
        let budget = reader.index().decoded_keyframe_bytes();
        if budget > self.max_bytes {
            return;
        }
        match self.entries.get(name) {
            // A concurrent miss admitted this very file first.
            Some(e) if e.identity == identity => return,
            Some(_) => self.remove(name),
            None => {}
        }
        while self.entries.len() >= self.max_entries || self.admitted + budget > self.max_bytes {
            let Some(lru) =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(n, _)| n.clone())
            else {
                break;
            };
            self.remove(&lru);
        }
        self.tick += 1;
        self.admitted += budget;
        let entry = Entry { identity, reader: reader.clone(), budget, last_used: self.tick };
        self.entries.insert(name.to_string(), entry);
    }

    fn remove(&mut self, name: &str) {
        if let Some(e) = self.entries.remove(name) {
            self.admitted -= e.budget;
            cc_obs::counter_inc("archive.cache.evict");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_archive::{ArchiveOptions, ArchiveWriter};
    use cc_codecs::{Layout, Variant};

    /// A one-variable archive of `frames` 2×8 fields, one keyframe per 4
    /// frames; `seed` varies the values.
    fn archive(frames: usize, seed: f32) -> Vec<u8> {
        let layout = Layout { nlev: 2, npts: 8, rows: 1, cols: 8 };
        let data: Vec<Vec<f32>> = (0..frames)
            .map(|t| (0..layout.len()).map(|i| seed + (t * 16 + i) as f32).collect())
            .collect();
        let opts = ArchiveOptions::new(Variant::NetCdf4).with_keyframe_every(4);
        let mut w = ArchiveWriter::new();
        w.add_variable("V", layout, &data, &opts).expect("encode archive");
        w.finish()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("cc-serve-archive-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// 8 frames at keyframe interval 4: 2 keyframes × 16 values × 4 B.
    const BUDGET: u64 = 128;

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let dir = temp_dir("bytes");
        let cache = ArchiveCache::new(16, 2 * BUDGET);
        let path = |n: &str| dir.join(format!("{n}.ccarch"));
        for n in ["a", "b", "c"] {
            std::fs::write(path(n), archive(8, 0.0)).expect("write archive");
        }
        let admitted = |c: &ArchiveCache| {
            let st = c.lock();
            let mut names: Vec<String> = st.entries.keys().cloned().collect();
            names.sort();
            assert!(st.admitted <= 2 * BUDGET, "budget sum {} over the bound", st.admitted);
            names
        };
        assert!(cache.reader("a", &path("a")).is_ok());
        assert!(cache.reader("b", &path("b")).is_ok());
        // A hit on `a` makes `b` the least recently used...
        assert!(cache.reader("a", &path("a")).is_ok());
        // ...so admitting `c` past the two-archive budget evicts `b`.
        assert!(cache.reader("c", &path("c")).is_ok());
        assert_eq!(admitted(&cache), ["a", "c"]);

        // An archive whose keyframes alone exceed the budget (5 × 64 B)
        // is served but never admitted, and evicts nothing.
        std::fs::write(path("big"), archive(20, 0.0)).expect("write archive");
        let mut big = cache.reader("big", &path("big")).expect("oversized archive opens");
        assert_eq!(big.fetch_slice("V", 17, 1).expect("fetch").len(), 8);
        assert_eq!(admitted(&cache), ["a", "c"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaced_file_misses_and_reads_the_new_bytes() {
        let dir = temp_dir("replace");
        let cache = ArchiveCache::new(4, 1 << 20);
        let path = dir.join("run.ccarch");
        for (i, seed) in [0.0f32, 1000.0, 2000.0].into_iter().enumerate() {
            let tmp = dir.join(format!(".run.{i}.tmp"));
            std::fs::write(&tmp, archive(8, seed)).expect("write archive");
            std::fs::rename(&tmp, &path).expect("rename over");
            for _ in 0..2 {
                let mut r = cache.reader("run", &path).expect("open");
                assert_eq!(r.fetch_slice("V", 5, 0).expect("fetch")[0], seed + 80.0);
            }
        }
        assert_eq!(cache.lock().entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
