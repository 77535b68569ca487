//! The native-suite experiment: every assembly kernel in this repository
//! runs on the CVA6 model, its real commit trace feeds the queue model at
//! the three firmware latencies, and the result is a Table-III-style sweep
//! computed from *executed code* instead of calibrated synthetic traces.
//!
//! This is the reproduction's own evaluation — complementary to `table3`,
//! which regenerates the paper's numbers from its published statistics.
//! `--bin campaign` prints the same text after the tables and the sweep.

fn main() {
    print!("{}", titancfi_bench::native_suite_text());
}
