//! `fetch`: the read path. An open loop issues seeded uniform
//! (variable, timestep, level) `fetch_slice` calls at a fixed rate over two
//! connections against the archive stored during setup, timing each from
//! the moment it was due. The server parses the index and decodes one
//! keyframe chain per request; codec encode is idle. It uses the archive
//! layer the opposite way to `ingest`.
//!
//! The load runs in one-second passes. A pass whose generator woke late
//! (p99 above [`LATE_P99_LIMIT_MS`]) is rejected and its picks are sent
//! again, so a stretch of host contention voids only its own pass.

use crate::harness::{bits_equal, ms, percentile, sleep_until, Counts, Phase, Workload};
use crate::ingest::{index_counts, RunData};
use crate::server::ChildServer;
use cc_archive::{ArchiveReader, FileSource};
use cc_bench::faults::SplitMix64;
use cc_grid::Resolution;
use cc_serve::Client;
use std::path::Path;
use std::time::{Duration, Instant};

const NAME: &str = "fetch";
/// Connections, one load thread each.
const CONNS: usize = 2;
/// Generator wake-up lateness (p99) above which a pass is rejected.
const LATE_P99_LIMIT_MS: f64 = 1.0;
/// Seconds of offered load per pass.
const PASS_SECONDS: f64 = 1.0;
/// Passes, rejected ones included, may take this many times the run's
/// `seconds`; a run still short of accepted passes then fails.
const PASS_BUDGET: f64 = 4.0;
/// Picks replayed in-process per traced run.
const REPLAY_PICKS: usize = 1_000;
const WARMUP_FETCHES: usize = 32;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub resolution: Resolution,
    pub timesteps: usize,
    /// Offered load, requests per second across both connections.
    pub rate: f64,
}

impl Scale {
    pub fn default_scale() -> Scale {
        Scale {
            resolution: cc_bench::RunConfig::default().resolution,
            timesteps: 120,
            rate: 400.0,
        }
    }
}

pub struct Fetch {
    seed: u64,
    scale: Scale,
    run: RunData,
    server: ChildServer,
    /// Every frame of the stored archive decoded in-process (sequential
    /// decode of the stored file): the reference each served slice must
    /// equal bit for bit.
    reference: Vec<Vec<Vec<f32>>>,
    stored_ratio: f64,
    counts: Counts,
    picks: Vec<(usize, usize, usize)>,
}

impl Fetch {
    pub fn setup(seed: u64, scale: Scale, ccc: &Path) -> Result<Fetch, String> {
        let server = ChildServer::spawn(ccc)?;
        let run = RunData::synthesize(seed, scale.resolution, scale.timesteps)?;
        let bytes = run.write_archive()?;
        let (keyframe_bytes, delta_bytes, _) = index_counts(&bytes)?;
        let mut client = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        client
            .archive_put(NAME, &bytes)
            .map_err(|e| format!("fetch: storing the archive: {e}"))?;
        let src = FileSource::open(&server.archive_path(NAME))
            .map_err(|e| format!("fetch: stored archive does not open: {e}"))?;
        let mut reader = ArchiveReader::open(src).map_err(|e| format!("fetch: {e}"))?;
        let reference = run
            .vars
            .iter()
            .map(|v| {
                reader
                    .decode_variable(v.name)
                    .map_err(|e| format!("fetch: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let fetch = Fetch {
            seed,
            scale,
            stored_ratio: bytes.len() as f64 / run.raw_bytes as f64,
            run,
            server,
            reference,
            counts: Counts {
                keyframe_bytes,
                delta_bytes,
                ..Counts::default()
            },
            picks: Vec::new(),
        };
        // Warm-up: served fetches, untimed but checked.
        let mut rng = SplitMix64::new(seed ^ 0x3A9F_0001);
        for _ in 0..WARMUP_FETCHES {
            let pick = fetch.run.pick(&mut rng);
            let got = fetch
                .served(&mut client, pick)
                .map_err(|e| format!("fetch: warm-up: {e}"))?;
            fetch.check(pick, &got)?;
        }
        Ok(fetch)
    }

    fn served(
        &self,
        client: &mut Client,
        (v, t, lev): (usize, usize, usize),
    ) -> Result<Vec<f32>, String> {
        let _s = cc_obs::span("bench.client.fetch_slice");
        client
            .fetch_slice(NAME, self.run.vars[v].name, t as u32, lev as u32)
            .map_err(|e| e.to_string())
    }

    fn check(&self, (v, t, lev): (usize, usize, usize), got: &[f32]) -> Result<(), String> {
        let npts = self.run.vars[v].layout.npts;
        let want = &self.reference[v][t][lev * npts..(lev + 1) * npts];
        if !bits_equal(want, got) {
            return Err(format!(
                "fetch: served slice {}[{t},{lev}] differs from the in-process decode",
                self.run.vars[v].name
            ));
        }
        Ok(())
    }

    /// One open-loop pass over `picks`: request `k` is due at `k / rate`;
    /// connection `k % CONNS` sends it once due and idle. Returns the pass
    /// and its load threads' spans.
    fn open_loop(
        &self,
        picks: &[(usize, usize, usize)],
    ) -> Result<(Phase, Vec<cc_obs::SpanNode>), String> {
        let period = Duration::from_secs_f64(1.0 / self.scale.rate);
        let start = Instant::now() + Duration::from_millis(5);
        let addr = &self.server.addr;
        let shares = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS)
                .map(|j| {
                    s.spawn(move || -> Result<(Phase, Vec<cc_obs::SpanNode>), String> {
                        let mut phase = Phase::default();
                        let mut client =
                            Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                        for k in (j..picks.len()).step_by(CONNS) {
                            let due = start + period * k as u32;
                            if Instant::now() < due {
                                phase.late_ms.push(sleep_until(due));
                            }
                            let pick = picks[k];
                            let reply = {
                                let _op = cc_obs::span(crate::layers::OP_SPAN);
                                self.served(&mut client, pick)
                            };
                            phase
                                .lat_ms
                                .push(ms(Instant::now().saturating_duration_since(due)));
                            phase.count(reply.is_ok());
                            match reply {
                                Ok(got) => self.check(pick, &got)?,
                                Err(e) => {
                                    eprintln!("fetch: request failed: {e}");
                                    client = Client::connect(addr)
                                        .map_err(|e| format!("reconnect: {e}"))?;
                                }
                            }
                        }
                        Ok((phase, cc_obs::take_local_roots()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fetch load thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut phase = Phase::default();
        let mut spans = Vec::new();
        for share in shares {
            let (p, s) = share?;
            phase.absorb(p);
            spans.extend(s);
        }
        Ok((phase, spans))
    }
}

impl Workload for Fetch {
    fn run(&mut self, seconds: f64) -> Result<Phase, String> {
        let n = (self.scale.rate * seconds).ceil().max(CONNS as f64) as usize;
        let per_pass = (self.scale.rate * PASS_SECONDS).ceil() as usize;
        let mut rng = SplitMix64::new(self.seed ^ 0xF37C_4001);
        self.picks = (0..n).map(|_| self.run.pick(&mut rng)).collect();
        let deadline = Instant::now() + Duration::from_secs_f64(PASS_BUDGET * seconds);
        let mut phase = Phase::default();
        let mut done = 0;
        while done < n {
            let picks = &self.picks[done..n.min(done + per_pass)];
            let (pass, spans) = self.open_loop(picks)?;
            let late_p99 = percentile(&pass.late_ms, 0.99);
            if late_p99 <= LATE_P99_LIMIT_MS {
                done += picks.len();
                phase.absorb(pass);
                cc_obs::adopt(spans);
            } else if Instant::now() < deadline {
                phase.rejected_passes += 1;
            } else {
                return Err(format!(
                    "fetch: generator woke {late_p99:.3} ms late at p99 (limit \
                     {LATE_P99_LIMIT_MS} ms) with {done} of {n} requests accepted \
                     after {} rejected passes",
                    phase.rejected_passes + 1
                ));
            }
        }
        Ok(phase)
    }

    /// Replay the phase's first picks in-process the way the server
    /// serves them: open the stored file, parse its index, fetch the slice.
    fn replay(&mut self) -> Result<Vec<f64>, String> {
        let path = self.server.archive_path(NAME);
        let mut call_ms = Vec::new();
        let (mut bytes_read, mut chain) = (0u64, 0usize);
        let picks: Vec<_> = self.picks.iter().take(REPLAY_PICKS).copied().collect();
        for &(v, t, lev) in &picks {
            let _r = cc_obs::span(crate::layers::REPLAY_SPAN);
            let var = self.run.vars[v].name;
            let t0 = Instant::now();
            let src = {
                let _s = cc_obs::span("bench.archive.file_open");
                FileSource::open(&path).map_err(|e| e.to_string())?
            };
            let mut reader = {
                let _s = cc_obs::span("bench.archive.open");
                ArchiveReader::open(src).map_err(|e| e.to_string())?
            };
            let got = {
                let _s = cc_obs::span("bench.archive.fetch_slice");
                reader.fetch_slice(var, t, lev).map_err(|e| e.to_string())?
            };
            call_ms.push(ms(t0.elapsed()));
            bytes_read += reader.bytes_read();
            chain += reader
                .index()
                .var(var)
                .and_then(|e| e.chain(t))
                .map_err(|e| e.to_string())?
                .len();
            self.check((v, t, lev), &got)?;
        }
        let n = picks.len().max(1) as f64;
        self.counts.bytes_read_mean = bytes_read as f64 / n;
        self.counts.chain_frames_mean = chain as f64 / n;
        Ok(call_ms)
    }

    fn stored_ratio(&self) -> f64 {
        self.stored_ratio
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
    fn a_wrong_slice_fails_the_check() {
        let _serial = crate::tests::serial();
        let ccc = crate::server::locate_ccc().expect("ccc is built");
        let mut f = Fetch::setup(3, crate::tests::tiny().fetch, &ccc).expect("setup");
        let npts = f.run.vars[0].layout.npts;
        let mut slice = f.reference[0][1][..npts].to_vec();
        assert!(f.check((0, 1, 0), &slice).is_ok());
        slice[npts / 2] = f32::from_bits(slice[npts / 2].to_bits() ^ 1);
        assert!(f.check((0, 1, 0), &slice).is_err());

        // End to end: once the reference disagrees with what the server
        // decodes at every slice, the phase fails on its first reply.
        for (v, frames) in f.reference.iter_mut().enumerate() {
            let layout = f.run.vars[v].layout;
            for frame in frames.iter_mut() {
                for lev in 0..layout.nlev {
                    let x = &mut frame[lev * layout.npts];
                    *x = f32::from_bits(x.to_bits() ^ 1);
                }
            }
        }
        let err = f.run(0.05).expect_err("wrong slices must fail the phase");
        assert!(err.contains("differs from the in-process decode"), "{err}");
    }
}
