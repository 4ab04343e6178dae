//! `codec-wire`: the bulk compress service. A closed loop over two
//! connections runs compress → decompress round trips; each connection
//! walks whole cycles, in a seeded order, over six codec variants × five
//! fields: the four focus model fields (46 KB 3-D, 8 KB 2-D) and one 4 MB
//! synthetic field whose compress replies exceed the server's 256 KiB
//! stream threshold, so small and streamed (`OP_STREAM`) replies both
//! occur. Encode and decode of every family is the work; the archive
//! layer is idle.

use crate::harness::{bits_equal, ms, Counts, Phase, Workload};
use crate::server::ChildServer;
use cc_bench::faults::SplitMix64;
use cc_codecs::chunked::{compress_chunked, decompress_chunked};
use cc_codecs::{Layout, Variant};
use cc_grid::Resolution;
use cc_model::Model;
use cc_serve::Client;
use std::path::Path;
use std::time::Instant;

/// One configuration per paper family, plus SZ and the lossless baseline.
pub const VARIANTS: [&str; 6] = [
    "SZ-rel-1e-4",
    "fpzip-24",
    "APAX-4",
    "GRIB2",
    "ISA-0.5",
    "NetCDF-4",
];
const CONNS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub resolution: Resolution,
    /// Horizontal points × levels of the large synthetic field.
    pub big: (usize, usize),
    pub min_cycles: usize,
}

impl Scale {
    pub fn default_scale() -> Scale {
        Scale {
            resolution: cc_bench::RunConfig::default().resolution,
            big: (262_144, 4),
            min_cycles: 2,
        }
    }
}

struct Field {
    data: Vec<f32>,
    layout: Layout,
}

/// One (variant, field) pair with the workers-1 in-process reference.
struct Combo {
    variant: Variant,
    name: String,
    field: usize,
    stream: Vec<u8>,
    decoded: Vec<f32>,
}

pub struct CodecWire {
    scale: Scale,
    fields: Vec<Field>,
    /// The cycle, in seeded order.
    combos: Vec<Combo>,
    server: ChildServer,
    stored_ratio: f64,
}

impl CodecWire {
    pub fn setup(seed: u64, scale: Scale, ccc: &Path) -> Result<CodecWire, String> {
        let server = ChildServer::spawn(ccc)?;
        let model = Model::new(scale.resolution, seed);
        let member = model.member(0);
        let mut fields = Vec::new();
        for name in cc_bench::FOCUS {
            let id = model
                .var_id(name)
                .ok_or(format!("registry lacks focus variable {name}"))?;
            let layout = Layout::for_grid(model.grid(), model.var_nlev(id));
            fields.push(Field {
                data: model.synthesize(&member, id).data,
                layout,
            });
        }
        let (data, layout) = cc_bench::throughput::bench_field(scale.big.0, scale.big.1);
        fields.push(Field { data, layout });

        let mut combos = Vec::new();
        for name in VARIANTS {
            let variant = Variant::by_name(name).ok_or(format!("unknown variant {name}"))?;
            let codec = variant.codec();
            for (i, f) in fields.iter().enumerate() {
                let stream = compress_chunked(codec.as_ref(), &f.data, f.layout, 1);
                let decoded = decompress_chunked(codec.as_ref(), &stream, f.layout, 1)
                    .map_err(|e| format!("{name} cannot decode its own stream: {e}"))?;
                combos.push(Combo {
                    variant,
                    name: name.to_string(),
                    field: i,
                    stream,
                    decoded,
                });
            }
        }
        let mut rng = SplitMix64::new(seed ^ 0xC0DE_C0DE);
        for i in (1..combos.len()).rev() {
            combos.swap(i, rng.below(i + 1));
        }
        let stored: usize = combos.iter().map(|c| c.stream.len()).sum();
        let raw: usize = combos.iter().map(|c| fields[c.field].data.len() * 4).sum();
        let cw = CodecWire {
            scale,
            fields,
            combos,
            server,
            stored_ratio: stored as f64 / raw as f64,
        };
        // Warm-up: one untimed, checked cycle on one connection.
        let mut client = Client::connect(&cw.server.addr).map_err(|e| format!("connect: {e}"))?;
        for c in &cw.combos {
            if !cw.round_trip(&mut client, c)? {
                return Err(format!("codec-wire: warm-up round trip {} failed", c.name));
            }
        }
        Ok(cw)
    }

    /// Compress then decompress one combo over the wire. `Ok(false)` on a
    /// transport or typed error; `Err` when a reply differs from the
    /// in-process reference.
    fn round_trip(&self, client: &mut Client, c: &Combo) -> Result<bool, String> {
        let f = &self.fields[c.field];
        let stream = {
            let _s = cc_obs::span("bench.client.compress");
            client.compress(&c.name, f.layout, &f.data)
        };
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("codec-wire: compress {} failed: {e}", c.name);
                return Ok(false);
            }
        };
        if stream != c.stream {
            return Err(format!(
                "codec-wire: {} compress reply differs from compress_chunked",
                c.name
            ));
        }
        let decoded = {
            let _s = cc_obs::span("bench.client.decompress");
            client.decompress(&c.name, f.layout, &stream)
        };
        match decoded {
            Ok(d) if bits_equal(&d, &c.decoded) => Ok(true),
            Ok(_) => Err(format!(
                "codec-wire: {} decompress reply differs from decompress_chunked",
                c.name
            )),
            Err(e) => {
                eprintln!("codec-wire: decompress {} failed: {e}", c.name);
                Ok(false)
            }
        }
    }
}

impl Workload for CodecWire {
    fn run(&mut self, seconds: f64) -> Result<Phase, String> {
        let t0 = Instant::now();
        let addr = &self.server.addr;
        let this = &*self;
        let shares = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS)
                .map(|j| {
                    s.spawn(move || -> Result<(Phase, Vec<cc_obs::SpanNode>), String> {
                        let mut phase = Phase::default();
                        let mut client =
                            Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                        let mut last_end = Instant::now();
                        let mut cycles = 0;
                        // Each connection walks the whole cycle, starting
                        // at its own offset, so both carry the same mix.
                        let offset = j * this.combos.len() / CONNS;
                        while cycles < this.scale.min_cycles || t0.elapsed().as_secs_f64() < seconds
                        {
                            for c in this
                                .combos
                                .iter()
                                .cycle()
                                .skip(offset)
                                .take(this.combos.len())
                            {
                                let start = Instant::now();
                                phase.late_ms.push(ms(start - last_end));
                                let ok = {
                                    let _op = cc_obs::span(crate::layers::OP_SPAN);
                                    this.round_trip(&mut client, c)?
                                };
                                last_end = Instant::now();
                                phase.lat_ms.push(ms(last_end - start));
                                phase.count(ok);
                                if !ok {
                                    client = Client::connect(addr)
                                        .map_err(|e| format!("reconnect: {e}"))?;
                                }
                            }
                            cycles += 1;
                        }
                        Ok((phase, cc_obs::take_local_roots()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("codec-wire load thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut phase = Phase::default();
        for share in shares {
            let (p, spans) = share?;
            phase.absorb(p);
            cc_obs::adopt(spans);
        }
        Ok(phase)
    }

    /// One cycle through `compress_chunked`/`decompress_chunked` at
    /// workers 1: the same work without the server.
    fn replay(&mut self) -> Result<Vec<f64>, String> {
        let mut call_ms = Vec::new();
        for c in &self.combos {
            let _r = cc_obs::span(crate::layers::REPLAY_SPAN);
            let f = &self.fields[c.field];
            let codec = c.variant.codec();
            let t0 = Instant::now();
            let stream = {
                let _s = cc_obs::span("bench.codecs.compress_chunked");
                compress_chunked(codec.as_ref(), &f.data, f.layout, 1)
            };
            let decoded = {
                let _s = cc_obs::span("bench.codecs.decompress_chunked");
                decompress_chunked(codec.as_ref(), &stream, f.layout, 1)
                    .map_err(|e| e.to_string())?
            };
            call_ms.push(ms(t0.elapsed()));
            if stream != c.stream || !bits_equal(&decoded, &c.decoded) {
                return Err(format!(
                    "codec-wire: {} is not deterministic in-process",
                    c.name
                ));
            }
        }
        Ok(call_ms)
    }

    fn stored_ratio(&self) -> f64 {
        self.stored_ratio
    }

    fn counts(&self) -> Counts {
        Counts::default()
    }

    fn server(&mut self) -> Option<&mut ChildServer> {
        Some(&mut self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> CodecWire {
        let ccc = crate::server::locate_ccc().expect("ccc is built");
        CodecWire::setup(3, crate::tests::tiny().codec_wire, &ccc).expect("setup")
    }

    #[test]
    fn replies_one_bit_off_the_reference_fail_the_checks() {
        let _serial = crate::tests::serial();
        let mut cw = setup();
        cw.combos[0].stream[7] ^= 0x10;
        let err = cw
            .run(0.0)
            .expect_err("a differing compress reply must fail");
        assert!(err.contains("compress reply differs"), "{err}");

        let mut cw = setup();
        let x = &mut cw.combos[0].decoded[5];
        *x = f32::from_bits(x.to_bits() ^ 1);
        let err = cw
            .run(0.0)
            .expect_err("a differing decompress reply must fail");
        assert!(err.contains("decompress reply differs"), "{err}");
    }
}
