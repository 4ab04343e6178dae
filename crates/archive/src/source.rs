//! Byte sources the reader can fetch ranges from.
//!
//! The whole point of the footer index is that a reader touches only the
//! byte ranges it needs, so the source abstraction is positional range
//! reads, not streams: a read takes `&self` and moves no cursor, so one
//! source serves concurrent readers. In-memory slices serve tests and the
//! wire path; [`FileSource`] serves the archive directory behind
//! `cc-serve`.

use std::os::unix::fs::{FileExt, MetadataExt};

use crate::ArchiveError;

/// Random-access byte source.
pub trait SliceSource {
    /// Total size in bytes.
    fn len(&self) -> u64;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read exactly `len` bytes at `offset`. Ranges outside the source
    /// are an error, never a short read.
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, ArchiveError>;
}

impl SliceSource for &[u8] {
    fn len(&self) -> u64 {
        <[u8]>::len(self) as u64
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, ArchiveError> {
        let start = usize::try_from(offset)
            .map_err(|_| ArchiveError::Corrupt("read offset exceeds source"))?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= <[u8]>::len(self))
            .ok_or(ArchiveError::Corrupt("read range exceeds source"))?;
        Ok(self[start..end].to_vec())
    }
}

/// A file-backed source for server-side archive directories.
pub struct FileSource {
    file: std::fs::File,
    len: u64,
    identity: (u64, u64),
}

impl FileSource {
    /// Open a file and capture its current size and identity.
    pub fn open(path: &std::path::Path) -> Result<Self, ArchiveError> {
        let file = std::fs::File::open(path)?;
        let meta = file.metadata()?;
        Ok(FileSource { file, len: meta.len(), identity: (meta.dev(), meta.ino()) })
    }

    /// The (device, inode) of the open descriptor. While this source
    /// holds the file open its inode cannot be reused, so a path whose
    /// `stat` gives the same pair still names this very file.
    pub fn identity(&self) -> (u64, u64) {
        self.identity
    }
}

impl SliceSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, ArchiveError> {
        if offset.checked_add(len as u64).filter(|&e| e <= self.len).is_none() {
            return Err(ArchiveError::Corrupt("read range exceeds source"));
        }
        let mut buf = vec![0u8; len];
        self.file.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }
}
