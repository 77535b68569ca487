//! A small two-pass RISC-V assembler.
//!
//! The TitanCFI reproduction runs *real* RISC-V code on its core models: the
//! OpenTitan CFI firmware (RV32) and the benchmark kernels (RV64) are written
//! in assembly and assembled by this crate into loadable images. The syntax
//! is the familiar GNU `as` subset: labels, `.word`-style data directives,
//! `%hi`/`%lo` relocations, and the standard pseudo-instructions (`li`, `la`,
//! `call`, `ret`, `beqz`, ...).
//!
//! # Examples
//!
//! ```
//! use riscv_asm::assemble;
//! use riscv_isa::{decode, classify, CfClass, Xlen};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble(
//!     r"
//!     _start:
//!         call f      # classified as a Call by the CFI filter
//!         ebreak
//!     f:  ret         # classified as a Return
//!     ",
//!     Xlen::Rv64,
//!     0x8000_0000,
//! )?;
//! let first = decode(prog.word_at(prog.entry).unwrap(), Xlen::Rv64)?;
//! assert_eq!(classify(&first.inst), CfClass::Call);
//! # Ok(())
//! # }
//! ```

mod asm;
mod compress;
mod parse;
mod program;

pub use asm::{assemble, li_sequence, AsmError, Assembler};
pub use compress::try_compress;
pub use parse::{Operand, ParseError, Stmt};
pub use program::{CfiMeta, Program};
