//! Artifact runner: regenerates every table and figure in sequence by
//! invoking the sibling binaries. Useful as a one-shot paper-artifact
//! reproduction (`cargo run --release -p oaken-figures --bin all_figures`).

use std::process::Command;

fn main() {
    let bins = [
        "fig01",
        "fig03",
        "fig04",
        "fig05",
        "fig06",
        "fig11",
        "fig12a",
        "fig12b",
        "fig13",
        "fig14",
        "table2",
        "table3",
        "table4",
        "abl_encoding",
        "abl_granularity",
        "abl_overlap",
        "energy",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("target dir");
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n############ {bin} ############\n");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failures.push(bin);
        }
    }
    if failures.is_empty() {
        println!("\nall {} artifacts regenerated", bins.len());
    } else {
        eprintln!("\nfailed artifacts: {failures:?}");
        std::process::exit(1);
    }
}
