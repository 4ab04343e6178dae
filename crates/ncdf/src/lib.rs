//! A miniature NetCDF-4-like self-describing scientific data container.
//!
//! CESM writes its history files in NetCDF; the paper's lossless baseline is
//! "the lossless compression scheme that is part of the NetCDF-4 library
//! (zlib)" (Section 4.1). This crate supplies that substrate: a
//! self-describing container with named dimensions, typed variables,
//! attributes, chunked storage, and a per-variable filter pipeline
//! (HDF5-style shuffle → deflate), all backed by `cc-lossless`.
//!
//! The on-disk format is this crate's own (documented in [`mod@format`]); the
//! *behaviours* the paper relies on — per-variable lossless compression
//! ratios, fill-value conventions, float32 history data — are faithfully
//! reproduced.
//!
//! # Example
//!
//! ```
//! use cc_ncdf::{Dataset, DType, FilterPipeline};
//!
//! let mut ds = Dataset::new();
//! let ncol = ds.add_dim("ncol", 128);
//! let v = ds
//!     .def_var("TS", DType::F32, &[ncol], FilterPipeline::shuffle_deflate())
//!     .unwrap();
//! ds.put_attr_text(Some(v), "units", "K");
//! ds.put_f32(v, &vec![288.0; 128]).unwrap();
//! let bytes = ds.to_bytes();
//! let back = Dataset::from_bytes(&bytes).unwrap();
//! assert_eq!(back.get_f32(back.var_id("TS").unwrap()).unwrap()[0], 288.0);
//! ```

mod crc;
pub mod format;

pub use crc::crc32;

use cc_lossless::Level;

/// Data type of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// 32-bit IEEE float (CESM history files).
    F32,
    /// 64-bit IEEE float (coordinate variables).
    F64,
    /// 32-bit signed integer.
    I32,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F64 => 8,
        }
    }

    fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F64 => 1,
            DType::I32 => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, Error> {
        match t {
            0 => Ok(DType::F32),
            1 => Ok(DType::F64),
            2 => Ok(DType::I32),
            _ => Err(Error::Format("unknown dtype tag")),
        }
    }
}

/// An attribute value (scalar text or numerics, as in NetCDF).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Text attribute (units, long_name, ...).
    Text(String),
    /// Double-precision scalar (e.g. `_FillValue`).
    F64(f64),
    /// Integer scalar.
    I64(i64),
}

/// A named attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Attribute value.
    pub value: AttrValue,
}

/// Per-variable filter pipeline applied chunk by chunk on write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterPipeline {
    /// Byte-transpose before compression (HDF5 shuffle).
    pub shuffle: bool,
    /// Deflate compression level, or `None` for uncompressed storage.
    pub deflate: Option<Level>,
}

impl FilterPipeline {
    /// No filtering: raw little-endian chunks.
    pub fn none() -> Self {
        FilterPipeline { shuffle: false, deflate: None }
    }

    /// The NetCDF-4 default the paper measures: shuffle + deflate.
    pub fn shuffle_deflate() -> Self {
        FilterPipeline { shuffle: true, deflate: Some(Level::Default) }
    }

    /// Deflate without shuffle.
    pub fn deflate_only() -> Self {
        FilterPipeline { shuffle: false, deflate: Some(Level::Default) }
    }
}

/// Errors from container operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Name not found / duplicate name / shape mismatch.
    Usage(String),
    /// Structural problem in a serialized byte stream.
    Format(&'static str),
    /// Checksum mismatch on a data chunk.
    Checksum { var: String, chunk: usize },
    /// Decompression failure inside a chunk.
    Codec(cc_lossless::Error),
    /// Underlying I/O error (message form; `std::io::Error` is not `Clone`).
    Io(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Usage(m) => write!(f, "usage error: {m}"),
            Error::Format(m) => write!(f, "format error: {m}"),
            Error::Checksum { var, chunk } => {
                write!(f, "checksum mismatch in variable {var} chunk {chunk}")
            }
            Error::Codec(e) => write!(f, "codec error: {e}"),
            Error::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<cc_lossless::Error> for Error {
    fn from(e: cc_lossless::Error) -> Self {
        Error::Codec(e)
    }
}

/// A named dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    /// Dimension name (e.g. `ncol`, `lev`, `time`).
    pub name: String,
    /// Length.
    pub len: usize,
}

/// Elements per storage chunk (1 MiB of f32).
pub const CHUNK_ELEMS: usize = 256 * 1024;

#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    /// Filtered (possibly compressed) payload.
    pub payload: Vec<u8>,
    /// CRC32 of the payload.
    pub crc: u32,
    /// Unfiltered byte length.
    pub raw_len: usize,
}

/// A variable: definition plus (optionally) stored data chunks.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Variable name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Dimension ids, slowest-varying first.
    pub dims: Vec<usize>,
    /// Variable attributes.
    pub attrs: Vec<Attribute>,
    /// Filter pipeline for its chunks.
    pub filters: FilterPipeline,
    pub(crate) chunks: Vec<Chunk>,
}

/// An in-memory dataset that serializes to/from the container format.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Global attributes.
    pub global_attrs: Vec<Attribute>,
    dims: Vec<Dimension>,
    vars: Vec<Variable>,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Add a dimension; returns its id. Errors on duplicate names.
    pub fn add_dim(&mut self, name: &str, len: usize) -> usize {
        assert!(
            !self.dims.iter().any(|d| d.name == name),
            "duplicate dimension {name}"
        );
        self.dims.push(Dimension { name: name.to_string(), len });
        self.dims.len() - 1
    }

    /// All dimensions.
    pub fn dims(&self) -> &[Dimension] {
        &self.dims
    }

    /// All variables.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// Define a variable over dimension ids; returns its id.
    pub fn def_var(
        &mut self,
        name: &str,
        dtype: DType,
        dims: &[usize],
        filters: FilterPipeline,
    ) -> Result<usize, Error> {
        if self.vars.iter().any(|v| v.name == name) {
            return Err(Error::Usage(format!("duplicate variable {name}")));
        }
        for &d in dims {
            if d >= self.dims.len() {
                return Err(Error::Usage(format!("bad dimension id {d}")));
            }
        }
        self.vars.push(Variable {
            name: name.to_string(),
            dtype,
            dims: dims.to_vec(),
            attrs: Vec::new(),
            filters,
            chunks: Vec::new(),
        });
        Ok(self.vars.len() - 1)
    }

    /// Look up a variable id by name.
    pub fn var_id(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.name == name)
    }

    /// Number of elements a variable holds (product of its dim lengths).
    pub fn var_len(&self, var: usize) -> usize {
        self.vars[var]
            .dims
            .iter()
            .map(|&d| self.dims[d].len)
            .product()
    }

    /// Attach a text attribute to a variable (`Some(id)`) or globally (`None`).
    pub fn put_attr_text(&mut self, var: Option<usize>, name: &str, value: &str) {
        let attr = Attribute { name: name.to_string(), value: AttrValue::Text(value.to_string()) };
        match var {
            Some(v) => self.vars[v].attrs.push(attr),
            None => self.global_attrs.push(attr),
        }
    }

    /// Attach a numeric attribute.
    pub fn put_attr_f64(&mut self, var: Option<usize>, name: &str, value: f64) {
        let attr = Attribute { name: name.to_string(), value: AttrValue::F64(value) };
        match var {
            Some(v) => self.vars[v].attrs.push(attr),
            None => self.global_attrs.push(attr),
        }
    }

    /// Read an attribute by name.
    pub fn attr(&self, var: Option<usize>, name: &str) -> Option<&AttrValue> {
        let attrs = match var {
            Some(v) => &self.vars[v].attrs,
            None => &self.global_attrs,
        };
        attrs.iter().find(|a| a.name == name).map(|a| &a.value)
    }

    /// Read a numeric attribute by name; `None` when absent or not `F64`.
    /// (The time-series and archive bridges key their metadata on these.)
    pub fn attr_f64(&self, var: Option<usize>, name: &str) -> Option<f64> {
        match self.attr(var, name) {
            Some(AttrValue::F64(v)) => Some(*v),
            _ => None,
        }
    }

    fn store(&mut self, var: usize, raw: &[u8]) -> Result<(), Error> {
        let _s = cc_obs::span("ncdf.store");
        let expect = self.var_len(var) * self.vars[var].dtype.size();
        if raw.len() != expect {
            return Err(Error::Usage(format!(
                "variable {}: got {} bytes, shape needs {}",
                self.vars[var].name,
                raw.len(),
                expect
            )));
        }
        let filters = self.vars[var].filters;
        let esize = self.vars[var].dtype.size();
        let chunk_bytes = CHUNK_ELEMS * esize;
        // Chunks are filtered independently, so fan them out over the
        // shared pool; par_map preserves input order (and degrades to
        // sequential inside nested parallel contexts), so the stored
        // chunk sequence is byte-identical to a sequential write.
        let slices: Vec<&[u8]> = if raw.is_empty() {
            Vec::new()
        } else {
            raw.chunks(chunk_bytes.max(1)).collect()
        };
        let chunks: Vec<Chunk> = cc_par::par_map(&slices, |slice| {
            let _c = cc_obs::span("ncdf.filter_chunk");
            let filtered = apply_filters(slice, esize, filters);
            let crc = crc32(&filtered);
            Chunk { payload: filtered, crc, raw_len: slice.len() }
        });
        cc_obs::counter_add("ncdf.chunks_stored", chunks.len() as u64);
        self.vars[var].chunks = chunks;
        Ok(())
    }

    fn load(&self, var: usize) -> Result<Vec<u8>, Error> {
        let _s = cc_obs::span("ncdf.load");
        let v = &self.vars[var];
        // The expected length comes from (possibly corrupted) metadata:
        // treat it as a hint, capped, never as a trusted allocation size.
        let expect = self.var_len(var).saturating_mul(v.dtype.size());
        // Pre-allocation is additionally capped at 16x the stored payload
        // bytes; growth past that only follows actually-decoded chunks.
        let avail: usize = v.chunks.iter().map(|c| c.payload.len()).sum();
        // Chunks verify and unfilter independently; fan them out, then
        // reassemble in order (par_map preserves it) so the result is
        // identical to a sequential read.
        let idx: Vec<usize> = (0..v.chunks.len()).collect();
        let parts: Vec<Result<Vec<u8>, Error>> = cc_par::par_map(&idx, |&i| {
            let _c = cc_obs::span("ncdf.unfilter_chunk");
            let ch = &v.chunks[i];
            if crc32(&ch.payload) != ch.crc {
                cc_obs::counter_inc("ncdf.checksum_fail");
                return Err(Error::Checksum { var: v.name.clone(), chunk: i });
            }
            remove_filters(&ch.payload, ch.raw_len, v.dtype.size(), v.filters)
        });
        let cap = avail.saturating_mul(16).min(1 << 26);
        if expect > cap {
            cc_obs::counter_inc("ncdf.alloc_cap_hits");
        }
        let mut out = Vec::with_capacity(expect.min(cap));
        for part in parts {
            out.extend_from_slice(&part?);
        }
        if out.len() != expect {
            return Err(Error::Format("variable data length mismatch"));
        }
        Ok(out)
    }

    /// Write f32 data into a variable (applies its filter pipeline).
    pub fn put_f32(&mut self, var: usize, data: &[f32]) -> Result<(), Error> {
        if self.vars[var].dtype != DType::F32 {
            return Err(Error::Usage("put_f32 on non-f32 variable".into()));
        }
        let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.store(var, &raw)
    }

    /// Read a variable's f32 data (verifies checksums, removes filters).
    pub fn get_f32(&self, var: usize) -> Result<Vec<f32>, Error> {
        if self.vars[var].dtype != DType::F32 {
            return Err(Error::Usage("get_f32 on non-f32 variable".into()));
        }
        let raw = self.load(var)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Write f64 data (coordinate variables).
    pub fn put_f64(&mut self, var: usize, data: &[f64]) -> Result<(), Error> {
        if self.vars[var].dtype != DType::F64 {
            return Err(Error::Usage("put_f64 on non-f64 variable".into()));
        }
        let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.store(var, &raw)
    }

    /// Read f64 data.
    pub fn get_f64(&self, var: usize) -> Result<Vec<f64>, Error> {
        if self.vars[var].dtype != DType::F64 {
            return Err(Error::Usage("get_f64 on non-f64 variable".into()));
        }
        let raw = self.load(var)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// Write i32 data.
    pub fn put_i32(&mut self, var: usize, data: &[i32]) -> Result<(), Error> {
        if self.vars[var].dtype != DType::I32 {
            return Err(Error::Usage("put_i32 on non-i32 variable".into()));
        }
        let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.store(var, &raw)
    }

    /// Read i32 data.
    pub fn get_i32(&self, var: usize) -> Result<Vec<i32>, Error> {
        if self.vars[var].dtype != DType::I32 {
            return Err(Error::Usage("get_i32 on non-i32 variable".into()));
        }
        let raw = self.load(var)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Read a contiguous element range `[start, start + count)` of an f32
    /// variable, decompressing only the chunks that overlap it — the
    /// hyperslab access pattern NetCDF analysis relies on.
    pub fn get_f32_range(
        &self,
        var: usize,
        start: usize,
        count: usize,
    ) -> Result<Vec<f32>, Error> {
        if self.vars[var].dtype != DType::F32 {
            return Err(Error::Usage("get_f32_range on non-f32 variable".into()));
        }
        let total = self.var_len(var);
        if start + count > total {
            return Err(Error::Usage(format!(
                "range {start}+{count} exceeds variable length {total}"
            )));
        }
        if count == 0 {
            return Ok(Vec::new());
        }
        let v = &self.vars[var];
        let esize = 4usize;
        // Capacity capped: `count` may trace back to corrupted metadata,
        // so bound it by what the stored payloads could possibly expand to.
        let avail: usize = v.chunks.iter().map(|c| c.payload.len()).sum();
        let cap = (avail.saturating_mul(16) / esize).min(1 << 24);
        if count > cap {
            cc_obs::counter_inc("ncdf.alloc_cap_hits");
        }
        let mut out = Vec::with_capacity(count.min(cap));
        let mut chunk_start_elem = 0usize;
        for (ci, ch) in v.chunks.iter().enumerate() {
            let chunk_elems = ch.raw_len / esize;
            let chunk_end = chunk_start_elem + chunk_elems;
            if chunk_end > start && chunk_start_elem < start + count {
                if crc32(&ch.payload) != ch.crc {
                    cc_obs::counter_inc("ncdf.checksum_fail");
                    return Err(Error::Checksum { var: v.name.clone(), chunk: ci });
                }
                let raw = remove_filters(&ch.payload, ch.raw_len, esize, v.filters)?;
                let lo = start.max(chunk_start_elem) - chunk_start_elem;
                let hi = (start + count).min(chunk_end) - chunk_start_elem;
                for c in raw[lo * esize..hi * esize].chunks_exact(4) {
                    out.push(f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                }
            }
            chunk_start_elem = chunk_end;
            if chunk_start_elem >= start + count {
                break;
            }
        }
        if out.len() != count {
            return Err(Error::Format("range read length mismatch"));
        }
        Ok(out)
    }

    /// Total stored (compressed) size of one variable's data in bytes.
    pub fn var_stored_bytes(&self, var: usize) -> usize {
        self.vars[var].chunks.iter().map(|c| c.payload.len()).sum()
    }

    /// Uncompressed size of one variable's data in bytes.
    pub fn var_raw_bytes(&self, var: usize) -> usize {
        self.var_len(var) * self.vars[var].dtype.size()
    }

    /// Serialize the dataset to bytes (see [`mod@format`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let _s = cc_obs::span("ncdf.serialize");
        format::encode(self)
    }

    /// Deserialize a dataset from bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self, Error> {
        let _s = cc_obs::span("ncdf.parse");
        format::decode(data)
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), Error> {
        std::fs::write(path, self.to_bytes()).map_err(|e| Error::Io(e.to_string()))
    }

    /// Read from a file.
    pub fn open(path: &std::path::Path) -> Result<Self, Error> {
        let data = std::fs::read(path).map_err(|e| Error::Io(e.to_string()))?;
        Self::from_bytes(&data)
    }

    pub(crate) fn dims_mut(&mut self) -> &mut Vec<Dimension> {
        &mut self.dims
    }

    pub(crate) fn vars_mut(&mut self) -> &mut Vec<Variable> {
        &mut self.vars
    }
}

fn apply_filters(raw: &[u8], esize: usize, f: FilterPipeline) -> Vec<u8> {
    let shuffled;
    let stage: &[u8] = if f.shuffle {
        shuffled = cc_lossless::shuffle(raw, esize);
        &shuffled
    } else {
        raw
    };
    match f.deflate {
        Some(level) => cc_lossless::compress(stage, level),
        None => stage.to_vec(),
    }
}

fn remove_filters(
    payload: &[u8],
    raw_len: usize,
    esize: usize,
    f: FilterPipeline,
) -> Result<Vec<u8>, Error> {
    let stage = match f.deflate {
        Some(_) => cc_lossless::decompress(payload)?,
        None => payload.to_vec(),
    };
    if stage.len() != raw_len {
        return Err(Error::Format("chunk raw length mismatch"));
    }
    Ok(if f.shuffle {
        cc_lossless::unshuffle(&stage, esize)
    } else {
        stage
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        let ncol = ds.add_dim("ncol", 100);
        let lev = ds.add_dim("lev", 4);
        let t = ds
            .def_var("T", DType::F32, &[lev, ncol], FilterPipeline::shuffle_deflate())
            .unwrap();
        ds.put_attr_text(Some(t), "units", "K");
        ds.put_attr_f64(Some(t), "_FillValue", 1.0e35);
        ds.put_attr_text(None, "source", "cc-model");
        let data: Vec<f32> = (0..400).map(|i| 250.0 + (i as f32 * 0.1).sin()).collect();
        ds.put_f32(t, &data).unwrap();
        ds
    }

    #[test]
    fn roundtrip_through_bytes() {
        let ds = sample();
        let bytes = ds.to_bytes();
        let back = Dataset::from_bytes(&bytes).unwrap();
        let t = back.var_id("T").unwrap();
        assert_eq!(back.get_f32(t).unwrap(), ds.get_f32(0).unwrap());
        assert_eq!(back.dims().len(), 2);
        assert_eq!(
            back.attr(Some(t), "units"),
            Some(&AttrValue::Text("K".into()))
        );
        assert_eq!(back.attr(None, "source"), Some(&AttrValue::Text("cc-model".into())));
    }

    #[test]
    fn roundtrip_through_file() {
        let ds = sample();
        let dir = std::env::temp_dir().join("cc_ncdf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ccn");
        ds.save(&path).unwrap();
        let back = Dataset::open(&path).unwrap();
        assert_eq!(back.get_f32(0).unwrap(), ds.get_f32(0).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn smooth_data_compresses() {
        let ds = sample();
        let stored = ds.var_stored_bytes(0);
        let raw = ds.var_raw_bytes(0);
        assert!(stored < raw, "stored {stored} raw {raw}");
    }

    #[test]
    fn filter_variants_all_roundtrip() {
        for filters in [
            FilterPipeline::none(),
            FilterPipeline::deflate_only(),
            FilterPipeline::shuffle_deflate(),
        ] {
            let mut ds = Dataset::new();
            let d = ds.add_dim("n", 1000);
            let v = ds.def_var("x", DType::F32, &[d], filters).unwrap();
            let data: Vec<f32> = (0..1000).map(|i| (i as f32).sqrt()).collect();
            ds.put_f32(v, &data).unwrap();
            let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
            assert_eq!(back.get_f32(v).unwrap(), data, "{filters:?}");
        }
    }

    #[test]
    fn f64_and_i32_variables() {
        let mut ds = Dataset::new();
        let d = ds.add_dim("n", 64);
        let a = ds.def_var("a", DType::F64, &[d], FilterPipeline::shuffle_deflate()).unwrap();
        let b = ds.def_var("b", DType::I32, &[d], FilterPipeline::deflate_only()).unwrap();
        let xs: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<i32> = (0..64).map(|i| i * 7 - 100).collect();
        ds.put_f64(a, &xs).unwrap();
        ds.put_i32(b, &ys).unwrap();
        let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
        assert_eq!(back.get_f64(a).unwrap(), xs);
        assert_eq!(back.get_i32(b).unwrap(), ys);
    }

    #[test]
    fn type_mismatch_is_usage_error() {
        let mut ds = Dataset::new();
        let d = ds.add_dim("n", 4);
        let v = ds.def_var("x", DType::F32, &[d], FilterPipeline::none()).unwrap();
        assert!(matches!(ds.put_f64(v, &[1.0; 4]), Err(Error::Usage(_))));
        ds.put_f32(v, &[1.0; 4]).unwrap();
        assert!(matches!(ds.get_i32(v), Err(Error::Usage(_))));
    }

    #[test]
    fn shape_mismatch_is_usage_error() {
        let mut ds = Dataset::new();
        let d = ds.add_dim("n", 4);
        let v = ds.def_var("x", DType::F32, &[d], FilterPipeline::none()).unwrap();
        assert!(ds.put_f32(v, &[1.0; 5]).is_err());
    }

    #[test]
    fn duplicate_variable_rejected() {
        let mut ds = Dataset::new();
        let d = ds.add_dim("n", 4);
        ds.def_var("x", DType::F32, &[d], FilterPipeline::none()).unwrap();
        assert!(ds.def_var("x", DType::F32, &[d], FilterPipeline::none()).is_err());
    }

    #[test]
    fn corrupt_chunk_detected_by_checksum() {
        let ds = sample();
        let mut bytes = ds.to_bytes();
        // Flip a byte near the end (inside chunk payload).
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF;
        match Dataset::from_bytes(&bytes) {
            // Either the header parse or the chunk checksum must catch it.
            Err(_) => {}
            Ok(back) => {
                assert!(back.get_f32(0).is_err(), "corruption must be detected");
            }
        }
    }

    #[test]
    fn multi_chunk_variable() {
        let mut ds = Dataset::new();
        let n = CHUNK_ELEMS + 1234;
        let d = ds.add_dim("n", n);
        let v = ds.def_var("x", DType::F32, &[d], FilterPipeline::shuffle_deflate()).unwrap();
        let data: Vec<f32> = (0..n).map(|i| (i % 977) as f32).collect();
        ds.put_f32(v, &data).unwrap();
        assert!(ds.vars()[v].chunks.len() >= 2);
        let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
        assert_eq!(back.get_f32(v).unwrap(), data);
    }

    #[test]
    fn range_reads_match_full_reads() {
        let mut ds = Dataset::new();
        let n = CHUNK_ELEMS + 5000; // spans two chunks
        let d = ds.add_dim("n", n);
        let v = ds.def_var("x", DType::F32, &[d], FilterPipeline::shuffle_deflate()).unwrap();
        let data: Vec<f32> = (0..n).map(|i| (i % 9973) as f32 * 0.5).collect();
        ds.put_f32(v, &data).unwrap();
        let full = ds.get_f32(v).unwrap();
        for (start, count) in [
            (0usize, 100usize),
            (CHUNK_ELEMS - 50, 100), // straddles the chunk boundary
            (CHUNK_ELEMS + 100, 4000),
            (n - 1, 1),
            (0, n),
            (17, 0),
        ] {
            let r = ds.get_f32_range(v, start, count).unwrap();
            assert_eq!(r, &full[start..start + count], "range {start}+{count}");
        }
    }

    #[test]
    fn corrupted_dimension_length_cannot_oom() {
        // Regression: a flipped bit in a dimension length must surface as
        // an error, not as a huge allocation attempt.
        let mut ds = Dataset::new();
        let d = ds.add_dim("n", 128);
        let v = ds.def_var("x", DType::F32, &[d], FilterPipeline::none()).unwrap();
        ds.put_f32(v, &vec![1.5; 128]).unwrap();
        let bytes = ds.to_bytes();
        // The dim length is a u64 LE right after the name "n"; find it.
        let needle = [1u8, 0, 0, 0, b'n'];
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("dim record present")
            + needle.len();
        let mut bad = bytes.clone();
        bad[pos + 6] = 0xFF; // blow the length up to ~2^55
        if let Ok(back) = Dataset::from_bytes(&bad) {
            assert!(back.get_f32(v).is_err(), "corrupt length must error");
        }
    }

    #[test]
    fn range_read_bounds_checked() {
        let mut ds = Dataset::new();
        let d = ds.add_dim("n", 100);
        let v = ds.def_var("x", DType::F32, &[d], FilterPipeline::none()).unwrap();
        ds.put_f32(v, &vec![0.0; 100]).unwrap();
        assert!(ds.get_f32_range(v, 90, 20).is_err());
    }

    #[test]
    fn empty_variable() {
        let mut ds = Dataset::new();
        let d = ds.add_dim("n", 0);
        let v = ds.def_var("x", DType::F32, &[d], FilterPipeline::shuffle_deflate()).unwrap();
        ds.put_f32(v, &[]).unwrap();
        let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
        assert!(back.get_f32(v).unwrap().is_empty());
    }
}
