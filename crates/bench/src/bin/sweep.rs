//! Design-space sweep: queue depth × check latency on the heaviest
//! published benchmarks — the exploration behind the paper's choice of an
//! 8-entry queue and its two firmware optimizations.
//!
//! Run with: `cargo run -p titancfi-bench --bin sweep`
//! (or as part of `--bin campaign`.)

fn main() {
    print!("{}", titancfi_bench::sweep_text());
}
