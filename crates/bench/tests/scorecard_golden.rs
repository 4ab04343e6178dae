//! Golden end-to-end test: run the `repro` pipeline at smoke scale into
//! a temp directory and assert the scorecard's machine-checked claims
//! pass.
//!
//! The subset regenerates the focus-variable error tables (3 & 4) and
//! the ensemble-consistency figures (2 & 4), then runs `scorecard`,
//! which exits non-zero if any *required* claim fails. Experiments whose
//! artifacts are absent score "n/a", not failure, so the subset stays
//! fast enough for CI while still proving the pipeline + claim checker
//! end to end. No CI job runs `table6`, and no CI job scores `table7`:
//! the `tune-smoke` job renders `table7 table8 --quick` without a
//! scorecard, because `table7`'s ranking claim is config-sensitive at
//! smoke scale by design.

use std::process::Command;

#[test]
fn quick_pipeline_satisfies_required_claims() {
    let out = std::env::temp_dir().join(format!("cc-scorecard-golden-{}", std::process::id()));
    std::fs::create_dir_all(&out).expect("create temp out dir");

    let result = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table3", "table4", "fig2", "fig4", "scorecard", "--quick", "--out"])
        .arg(&out)
        .output()
        .expect("launch repro");

    let stdout = String::from_utf8_lossy(&result.stdout);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        result.status.success(),
        "repro exited non-zero (a required claim failed)\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );

    // The artifacts the subset promises must exist...
    for artifact in ["table3.csv", "table4.csv", "fig2.csv", "fig4.csv", "scorecard.txt"] {
        assert!(out.join(artifact).is_file(), "missing artifact {artifact}");
    }
    // ...and the scorecard must have actually evaluated required claims
    // (not vacuously passed with everything n/a).
    let card = std::fs::read_to_string(out.join("scorecard.txt")).expect("read scorecard");
    assert!(card.contains("0 required failures"), "scorecard reported failures:\n{card}");
    let passes = card.lines().filter(|l| l.contains("[PASS] (required)")).count();
    assert!(passes >= 4, "expected >= 4 required claims evaluated, saw {passes}:\n{card}");

    std::fs::remove_dir_all(&out).ok();
}
