//! `cargo run -p hyades-lint [-- --json | --summary]`
//!
//! Lints the workspace sources and exits nonzero on violations.
//!
//! * `--json` — emit the report as one stable-sorted JSON object
//!   (machine-readable CI diffs);
//! * `--summary` — print one stable `hyades-lint: files=N violations=N
//!   effect-table=N collectives=N` line; together with `--json` the JSON
//!   goes to stdout and this line to stderr, so one run feeds both
//!   consumers (`scripts/check.sh`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = hyades_lint::workspace_root();

    const KNOWN: &[&str] = &["--json", "--summary"];
    if let Some(unknown) = args.iter().find(|a| !KNOWN.contains(&a.as_str())) {
        eprintln!(
            "hyades-lint: unknown argument `{unknown}` (accepted: {})",
            KNOWN.join(", ")
        );
        return ExitCode::FAILURE;
    }

    let json = args.iter().any(|a| a == "--json");
    let summary = args.iter().any(|a| a == "--summary");
    match hyades_lint::lint_workspace(&root) {
        Ok(report) => {
            match (json, summary) {
                (true, true) => {
                    print!("{}", report.render_json());
                    eprintln!("{}", report.render_summary());
                }
                (true, false) => print!("{}", report.render_json()),
                (false, true) => println!("{}", report.render_summary()),
                (false, false) => print!("{}", report.render()),
            }
            if report.is_clean() {
                if !json && !summary {
                    println!("hyades-lint: {} files clean", report.files_scanned);
                }
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "hyades-lint: {} violation(s) in {} files scanned",
                    report.violations.len(),
                    report.files_scanned
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hyades-lint: {e}");
            ExitCode::FAILURE
        }
    }
}
