//! Regenerates every evaluation artifact — Tables I–IV, the design-space
//! sweep, and the native kernel suite — in one run, the six artifact
//! functions mapped through the `titancfi-harness` pool.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin campaign
//! ```
//!
//! Output is byte-identical to the serial `table1`..`table4`, `sweep` and
//! `native_suite` binaries, one blank line between artifacts. Exit status
//! is nonzero if any artifact fails (panics or trips the watchdog).

use std::process::ExitCode;

use titancfi_harness::pool::{self, WATCHDOG};

const USAGE: &str = "usage: campaign (takes no options)\n";

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "-h" || arg == "--help" {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        eprintln!("campaign: unknown argument `{arg}`\n{USAGE}");
        return ExitCode::from(2);
    }

    let artifacts: Vec<fn() -> String> = vec![
        titancfi_bench::table1,
        titancfi_bench::table2,
        titancfi_bench::table3,
        titancfi_bench::table4,
        titancfi_bench::sweep_text,
        titancfi_bench::native_suite_text,
    ];
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let results = pool::map(artifacts, workers, WATCHDOG, |artifact| Ok(artifact()));

    match results.into_iter().collect::<Result<Vec<String>, String>>() {
        Ok(texts) => {
            print!("{}", texts.join("\n"));
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("campaign: an artifact failed: {error}");
            ExitCode::FAILURE
        }
    }
}
