//! Full-system TitanCFI simulation: the reference SoC with CFI enforcement.
//!
//! [`SystemOnChip`] wires every block of the paper's Figure 1: the CVA6
//! host core model executing a protected RV64 program, the CFI filters at
//! its commit ports, the CFI queue + queue controller (commit-stage
//! back-pressure), the Log Writer FSM streaming 224-bit commit logs over
//! AXI into the CFI mailbox, and the OpenTitan RoT whose Ibex core runs the
//! *actual RV32 shadow-stack firmware* against each log. Violations flagged
//! by the RoT surface as host exceptions.
//!
//! # Examples
//!
//! ```
//! use riscv_asm::assemble;
//! use riscv_isa::Xlen;
//! use titancfi_soc::{SocConfig, SystemOnChip};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble("_start: call f\n ebreak\n f: ret\n", Xlen::Rv64, 0x8000_0000)?;
//! let mut soc = SystemOnChip::new(&prog, SocConfig::default());
//! let report = soc.run(1_000_000);
//! assert_eq!(report.logs_checked, 2); // the call and the return
//! assert!(report.violations.is_empty());
//! # Ok(())
//! # }
//! ```

mod hostbus;
mod multicore;
mod sim;

pub use hostbus::{HostBus, MAILBOX_BASE, MAILBOX_SIZE};
pub use multicore::{CoreReport, DualHostSoc, DualReport, TaggedLog, TaggedViolation, CORES};
pub use sim::{run_baseline, SocConfig, SocReport, SystemOnChip, CFI_VIOLATION_CAUSE};
