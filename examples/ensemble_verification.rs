//! The paper's core experiment in miniature: verify reconstructed data
//! against the CESM-PVT ensemble (Section 4.3, Figures 2-4).
//!
//! Builds a perturbation ensemble, compresses three randomly chosen members
//! with each method, and reports the four acceptance tests per method for
//! one variable.
//!
//! ```text
//! cargo run --release --example ensemble_verification [VARIABLE] [MEMBERS]
//! ```

use climate_compress::codecs::Variant;
use climate_compress::core::evaluation::{verdict_for, EvalConfig, Evaluation};
use climate_compress::grid::Resolution;
use climate_compress::model::Model;

fn main() {
    let mut args = std::env::args().skip(1);
    let var_name = args.next().unwrap_or_else(|| "FSDSC".to_string());
    let members: usize = args.next().map(|s| s.parse().expect("MEMBERS")).unwrap_or(25);

    println!("building {members}-member perturbation ensemble (O(1e-14) IC perturbations)...");
    let model = Model::new(Resolution::reduced(4, 5), 7);
    let eval = Evaluation::new(model, EvalConfig::quick(members));
    let var = eval
        .model
        .var_id(&var_name)
        .unwrap_or_else(|| panic!("unknown variable {var_name}"));
    let ctx = eval.context(var);

    println!(
        "\nvariable {var_name}: RMSZ distribution over {} members: [{:.3}, {:.3}] (O(1), as the paper observes)",
        members,
        ctx.rmsz_orig.min(),
        ctx.rmsz_orig.max()
    );
    println!(
        "E_nmax distribution range: [{:.3e}, {:.3e}]\n",
        ctx.enmax_dist.min(),
        ctx.enmax_dist.max()
    );

    #[allow(clippy::print_literal)] // header row aligns with the data rows below
    {
        println!(
            "{:<10} {:>6} | {:>5} {:>9} {:>10} {:>5} | {}",
            "method", "CR", "rho", "RMSZ ens.", "Enmax ens.", "bias", "verdict"
        );
    }
    for variant in Variant::paper_set() {
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
            if v.all_pass() {
                "statistically indistinguishable"
            } else {
                "climate-changing at this setting"
            }
        );
    }

    println!(
        "\nEach 'pass' means: the reconstruction behaves like one more ensemble\n\
         member perturbed at the bit level — the paper's acceptance standard."
    );
}
