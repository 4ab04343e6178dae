//! `ingest`: the write path. Each op writes a four-variable model run
//! (synthesized during setup) into a `cc-arch/1` archive with
//! `ArchiveWriter` — SZ-rel-1e-4 keyframes every 16 steps, bounded delta
//! frames — and stores it with `archive_put` under a rotating name on one
//! connection. Codec encode, the archive writer and the server's put
//! validation do the work; no model work runs in the timed loop.

use crate::harness::{fnv1a, ms, Counts, Phase, Workload};
use crate::server::ChildServer;
use cc_archive::{ArchiveOptions, ArchiveReader, ArchiveWriter, FrameKind};
use cc_bench::faults::SplitMix64;
use cc_codecs::{ErrorBound, Layout, Variant};
use cc_grid::Resolution;
use cc_model::Model;
use cc_serve::Client;
use std::path::Path;
use std::time::Instant;

/// The archive's error bound, for keyframes and delta frames alike.
pub const BOUND: ErrorBound = ErrorBound::Rel(1e-4);
const KEYFRAME_EVERY: usize = 16;
/// Trajectory spacing: small keeps adjacent timesteps correlated.
const INTERVAL: f64 = 0.02;
/// Names the ingest ops rotate through on the server.
const NAMES: usize = 4;
/// Served slices checked against the originals after the timed loop.
const CHECK_SLICES: usize = 16;

/// Workload scale; the default is four focus variables × 120 timesteps
/// on the default-preset grid (17.7 MB raw).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub resolution: Resolution,
    pub timesteps: usize,
    pub min_ops: usize,
}

impl Scale {
    pub fn default_scale() -> Scale {
        Scale {
            resolution: cc_bench::RunConfig::default().resolution,
            timesteps: 120,
            min_ops: 5,
        }
    }
}

/// One variable's timestep sequence.
pub struct VarRun {
    pub name: &'static str,
    pub layout: Layout,
    pub frames: Vec<Vec<f32>>,
}

/// The synthesized model run both archive workloads store.
pub struct RunData {
    pub vars: Vec<VarRun>,
    pub raw_bytes: u64,
}

impl RunData {
    /// Synthesize the focus variables along one member's trajectory.
    pub fn synthesize(
        seed: u64,
        resolution: Resolution,
        timesteps: usize,
    ) -> Result<RunData, String> {
        let model = Model::new(resolution, seed);
        let trajectory = model.trajectory(0, timesteps, INTERVAL);
        let mut vars = Vec::new();
        for name in cc_bench::FOCUS {
            let id = model
                .var_id(name)
                .ok_or(format!("registry lacks focus variable {name}"))?;
            let layout = Layout::for_grid(model.grid(), model.var_nlev(id));
            let frames = trajectory
                .iter()
                .map(|m| model.synthesize(m, id).data)
                .collect();
            vars.push(VarRun {
                name,
                layout,
                frames,
            });
        }
        let raw_bytes = vars
            .iter()
            .map(|v| (v.layout.len() * 4 * v.frames.len()) as u64)
            .sum();
        Ok(RunData { vars, raw_bytes })
    }

    /// Write every variable into one archive, each writer call inside
    /// its `bench.archive.*` span.
    pub fn write_archive(&self) -> Result<Vec<u8>, String> {
        let opts = ArchiveOptions::new(Variant::Sz { bound: BOUND })
            .with_bound(BOUND)
            .with_keyframe_every(KEYFRAME_EVERY);
        let mut w = ArchiveWriter::new();
        for v in &self.vars {
            let _s = cc_obs::span("bench.archive.add_variable");
            w.add_variable(v.name, v.layout, &v.frames, &opts)
                .map_err(|e| format!("archiving {}: {e}", v.name))?;
        }
        let _s = cc_obs::span("bench.archive.finish");
        Ok(w.finish())
    }

    /// Whether `got` is level `lev` of timestep `t` of variable `v` within
    /// the archive's pointwise bound (the bound is relative to the whole
    /// frame's value range, as the writer applies it).
    pub fn within_bound(&self, v: usize, t: usize, lev: usize, got: &[f32]) -> bool {
        let var = &self.vars[v];
        let frame = &var.frames[t];
        let orig = &frame[lev * var.layout.npts..(lev + 1) * var.layout.npts];
        let e = BOUND.effective(frame);
        got.len() == orig.len()
            && orig.iter().zip(got).all(|(&x, &y)| match e {
                Some(e) if x.is_finite() => (x as f64 - y as f64).abs() <= e,
                _ => x.to_bits() == y.to_bits(),
            })
    }

    /// A seeded uniform (variable, timestep, level) pick.
    pub fn pick(&self, rng: &mut SplitMix64) -> (usize, usize, usize) {
        let v = rng.below(self.vars.len());
        let var = &self.vars[v];
        (v, rng.below(var.frames.len()), rng.below(var.layout.nlev))
    }
}

/// Keyframe bytes, delta bytes and the mean keyframe-chain length over
/// every (variable, timestep) of an archive.
pub fn index_counts(bytes: &[u8]) -> Result<(u64, u64, f64), String> {
    let reader =
        ArchiveReader::open(bytes).map_err(|e| format!("own archive does not open: {e}"))?;
    let (mut key, mut delta, mut chain, mut n) = (0u64, 0u64, 0usize, 0usize);
    for v in &reader.index().vars {
        for (t, f) in v.frames.iter().enumerate() {
            match f.kind {
                FrameKind::Key => key += f.len,
                FrameKind::Delta => delta += f.len,
            }
            chain += v.chain(t).map_err(|e| e.to_string())?.len();
            n += 1;
        }
    }
    Ok((key, delta, chain as f64 / n.max(1) as f64))
}

pub struct Ingest {
    scale: Scale,
    seed: u64,
    run: RunData,
    server: ChildServer,
    client: Client,
    /// FNV-1a of the warm-up archive; every op must write the same bytes.
    reference_fnv: u64,
    archive_len: usize,
    frames: u32,
    counts: Counts,
    ops: usize,
}

impl Ingest {
    pub fn setup(seed: u64, scale: Scale, ccc: &Path) -> Result<Ingest, String> {
        let server = ChildServer::spawn(ccc)?;
        let client = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        let run = RunData::synthesize(seed, scale.resolution, scale.timesteps)?;
        let bytes = run.write_archive()?;
        let (keyframe_bytes, delta_bytes, chain_frames_mean) = index_counts(&bytes)?;
        let frames = run.vars.iter().map(|v| v.frames.len() as u32).sum();
        let mut ingest = Ingest {
            scale,
            seed,
            run,
            server,
            client,
            reference_fnv: fnv1a(&bytes),
            archive_len: bytes.len(),
            frames,
            counts: Counts {
                chain_frames_mean,
                keyframe_bytes,
                delta_bytes,
                ..Counts::default()
            },
            ops: 0,
        };
        // The warm-up op: one untimed put, checked like every timed one.
        if !ingest.put("ingest-warm", &bytes)? {
            return Err("ingest: warm-up archive_put failed".into());
        }
        Ok(ingest)
    }

    /// Store `bytes` under `name`; `Ok(false)` on a transport or typed
    /// error (the connection is replaced), `Err` on a wrong reply.
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<bool, String> {
        let reply = {
            let _s = cc_obs::span("bench.client.archive_put");
            self.client.archive_put(name, bytes)
        };
        match reply {
            Ok(r) => {
                let expect_vars = self.run.vars.len() as u32;
                if r.bytes != bytes.len() as u64 || r.vars != expect_vars || r.frames != self.frames
                {
                    return Err(format!(
                        "ingest: put summary {r:?} does not describe the archive"
                    ));
                }
                Ok(true)
            }
            Err(e) => {
                eprintln!("ingest: archive_put failed: {e}");
                self.client =
                    Client::connect(&self.server.addr).map_err(|e| format!("reconnect: {e}"))?;
                Ok(false)
            }
        }
    }

    /// Seeded served slices of the last stored archive, each within the
    /// bound of the original data.
    fn check_slices(&mut self, name: &str) -> Result<(), String> {
        let mut rng = SplitMix64::new(self.seed ^ 0x1A6E_57C4);
        for _ in 0..CHECK_SLICES {
            let (v, t, lev) = self.run.pick(&mut rng);
            let var = self.run.vars[v].name;
            let got = self
                .client
                .fetch_slice(name, var, t as u32, lev as u32)
                .map_err(|e| format!("ingest: check fetch {var}[{t},{lev}] failed: {e}"))?;
            if !self.run.within_bound(v, t, lev, &got) {
                return Err(format!(
                    "ingest: served slice {var}[{t},{lev}] breaks the error bound"
                ));
            }
        }
        Ok(())
    }
}

impl Workload for Ingest {
    fn run(&mut self, seconds: f64) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let t0 = Instant::now();
        let mut last_end = t0;
        let mut stored = None;
        while phase.attempted < self.scale.min_ops as u64 || t0.elapsed().as_secs_f64() < seconds {
            let name = format!("ingest-{}", self.ops % NAMES);
            self.ops += 1;
            let start = Instant::now();
            phase.late_ms.push(ms(start - last_end));
            let (bytes, write_ms, ok) = {
                let _op = cc_obs::span(crate::layers::OP_SPAN);
                let bytes = self.run.write_archive()?;
                let write_ms = ms(start.elapsed());
                let ok = self.put(&name, &bytes)?;
                (bytes, write_ms, ok)
            };
            last_end = Instant::now();
            phase.lat_ms.push(ms(last_end - start));
            phase.inproc_ms.push(write_ms);
            phase.count(ok);
            if ok {
                stored = Some(name);
            }
            if bytes.len() != self.archive_len || fnv1a(&bytes) != self.reference_fnv {
                return Err("ingest: archive bytes differ from the warm-up archive's".into());
            }
        }
        let name = stored.ok_or("ingest: no archive was stored")?;
        self.check_slices(&name)?;
        Ok(phase)
    }

    fn stored_ratio(&self) -> f64 {
        self.archive_len as f64 / self.run.raw_bytes as f64
    }

    fn counts(&self) -> Counts {
        self.counts.clone()
    }

    fn server(&mut self) -> Option<&mut ChildServer> {
        Some(&mut self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_outside_the_bound_fails_the_check() {
        let run = RunData::synthesize(3, Resolution::reduced(2, 2), 4).expect("synthesize");
        let (v, t, lev) = (0, 2, 1);
        let var = &run.vars[v];
        let npts = var.layout.npts;
        let mut slice = var.frames[t][lev * npts..(lev + 1) * npts].to_vec();
        assert!(run.within_bound(v, t, lev, &slice));
        let e = BOUND.effective(&var.frames[t]).expect("non-constant frame");
        slice[3] += (2.0 * e) as f32;
        assert!(!run.within_bound(v, t, lev, &slice));
        assert!(
            !run.within_bound(v, t, lev, &slice[1..]),
            "a short slice must fail"
        );
    }
}
