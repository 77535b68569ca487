//! A cycle-approximate model of the CVA6 (RV64) application core.
//!
//! TitanCFI protects a CVA6 host core; its evaluation needs the *commit
//! stream* — which instruction retired in which cycle, on which commit port
//! — and a commit-stall hook for CFI queue back-pressure (paper §IV-B).
//! [`Cva6Core`] provides exactly that: it executes RV64IMAC programs
//! assembled with `riscv-asm` on the architectural interpreter from
//! `riscv-isa`, charges CVA6-like cycle costs (branch predictor with RAS,
//! memory and divider latencies), and emits [`Commit`] records.
//!
//! # Examples
//!
//! ```
//! use cva6_model::{Cva6Core, TimingConfig, Halt};
//! use riscv_asm::assemble;
//! use riscv_isa::Xlen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble("_start: li a0, 2\n li a1, 3\n add a0, a0, a1\n ebreak\n",
//!                     Xlen::Rv64, 0x8000_0000)?;
//! let mut core = Cva6Core::new(&prog, 1 << 16, TimingConfig::default());
//! let (trace, halt) = core.run(10_000);
//! assert_eq!(halt, Halt::Breakpoint);
//! assert_eq!(core.reg(riscv_isa::Reg::A0), 5);
//! assert_eq!(trace.len(), 3); // li, li, add (the halting ebreak does not retire)
//! # Ok(())
//! # }
//! ```

mod core;
mod timing;

pub use crate::core::{Commit, CoreStats, Cva6Core, Halt};
pub use crate::timing::TimingConfig;
