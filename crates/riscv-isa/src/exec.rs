//! Architectural execution: a machine-mode RISC-V hart interpreter.
//!
//! [`Hart`] holds the architectural state (register file, pc, the
//! machine-mode CSRs both CVA6 and Ibex implement) and [`Hart::step`]
//! executes one instruction against a [`Bus`]. The interpreter is purely
//! *functional* — cycle costs live in the core models (`cva6-model`,
//! `ibex-model`), which wrap the retired-instruction record produced here
//! with their own timing.
//!
//! Each step yields a [`Retired`] record carrying exactly the fields the
//! TitanCFI commit log needs (paper §IV-B1): the instruction pc, the decoded
//! (and uncompressed) encoding, the sequential next address and the actual
//! target address.

use crate::cfi::CfClass;
use crate::csr;
use crate::decode::{decode, Decoded, Xlen};
use crate::inst::{AluImmOp, AluOp, AmoOp, CsrOp, Inst, MemWidth, MulOp};
use crate::predecode::DecodeCache;
use crate::reg::Reg;
use core::fmt;

/// A data-memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u64,
    /// Whether the access was a store.
    pub store: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.store { "store" } else { "load" };
        write!(f, "{kind} access fault at {:#x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// Memory/devices seen by a hart. Addresses are physical; accesses are
/// naturally aligned (the interpreter enforces alignment for atomics only,
/// as both modelled cores support misaligned plain accesses in hardware or
/// via M-mode emulation).
pub trait Bus {
    /// Reads `width` bytes at `addr`, zero-extended into the return value.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] when the address is unmapped.
    fn read(&mut self, addr: u64, width: MemWidth) -> Result<u64, MemFault>;

    /// Writes the low `width` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] when the address is unmapped or read-only.
    fn write(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), MemFault>;

    /// Fetches the instruction parcel at `addr`: 32 bits, of which a
    /// compressed instruction uses the low half. Only the bytes the
    /// instruction occupies need be mapped, so a compressed instruction in
    /// a region's last halfword fetches ([`FlatMemory::fetch`] shows how).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] when the instruction's bytes are unmapped.
    fn fetch(&mut self, addr: u64) -> Result<u32, MemFault>;
}

/// Why a step did not retire normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// `ecall` executed; the embedder decides the semantics.
    Ecall,
    /// `ebreak` executed; models use it as the halt convention.
    Breakpoint,
    /// Instruction fetch fault.
    FetchFault(MemFault),
    /// Data access fault.
    MemFault(MemFault),
    /// Illegal or unsupported encoding.
    IllegalInstruction(u32),
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Ecall => f.write_str("environment call"),
            Trap::Breakpoint => f.write_str("breakpoint"),
            Trap::FetchFault(m) => write!(f, "fetch fault at {:#x}", m.addr),
            Trap::MemFault(m) => write!(f, "{m}"),
            Trap::IllegalInstruction(w) => write!(f, "illegal instruction {w:#010x}"),
        }
    }
}

impl std::error::Error for Trap {}

/// One retired instruction, with the fields the CFI filter consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Program counter of the instruction.
    pub pc: u64,
    /// The decoded instruction (including raw/uncompressed encodings).
    pub decoded: Decoded,
    /// Sequential next address (`pc + len`).
    pub next: u64,
    /// Actual next pc (branch/jump target, or `next`).
    pub target: u64,
    /// Effective address of the instruction's data-memory access, if any.
    pub mem_addr: Option<u64>,
    /// Whether this was a `wfi` (the core model parks the hart).
    pub wfi: bool,
}

impl Retired {
    /// Whether control flow diverged from straight-line execution.
    #[must_use]
    pub fn redirected(&self) -> bool {
        self.target != self.next
    }
}

/// Machine-mode CSR state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrFile {
    /// `mstatus` (only MIE/MPIE modelled).
    pub mstatus: u64,
    /// `mie`.
    pub mie: u64,
    /// `mip` (externally driven bits are OR-ed in by the platform).
    pub mip: u64,
    /// `mtvec`.
    pub mtvec: u64,
    /// `mscratch`.
    pub mscratch: u64,
    /// `mepc`.
    pub mepc: u64,
    /// `mcause`.
    pub mcause: u64,
    /// `mtval`.
    pub mtval: u64,
    /// `mcycle` — advanced by the embedding timing model.
    pub mcycle: u64,
    /// `minstret`.
    pub minstret: u64,
}

impl CsrFile {
    fn read(&self, addr: u16) -> u64 {
        match addr {
            csr::MSTATUS => self.mstatus,
            csr::MIE => self.mie,
            csr::MIP => self.mip,
            csr::MTVEC => self.mtvec,
            csr::MSCRATCH => self.mscratch,
            csr::MEPC => self.mepc,
            csr::MCAUSE => self.mcause,
            csr::MTVAL => self.mtval,
            csr::MCYCLE | csr::CYCLE => self.mcycle,
            csr::MINSTRET | csr::INSTRET => self.minstret,
            _ => 0,
        }
    }

    fn write(&mut self, addr: u16, value: u64) {
        match addr {
            csr::MSTATUS => self.mstatus = value,
            csr::MIE => self.mie = value,
            csr::MIP => self.mip = value,
            csr::MTVEC => self.mtvec = value,
            csr::MSCRATCH => self.mscratch = value,
            csr::MEPC => self.mepc = value,
            csr::MCAUSE => self.mcause = value,
            csr::MTVAL => self.mtval = value,
            csr::MCYCLE => self.mcycle = value,
            csr::MINSTRET => self.minstret = value,
            _ => {}
        }
    }
}

/// Architectural hart state.
#[derive(Debug, Clone)]
pub struct Hart {
    /// Integer register file (`x[0]` reads as zero).
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Base ISA width.
    pub xlen: Xlen,
    /// Machine-mode CSRs.
    pub csrs: CsrFile,
    /// `lr`/`sc` reservation address.
    reservation: Option<u64>,
}

impl Hart {
    /// A hart reset to `pc` with cleared registers.
    #[must_use]
    pub fn new(xlen: Xlen, pc: u64) -> Hart {
        Hart {
            regs: [0; 32],
            pc,
            xlen,
            csrs: CsrFile::default(),
            reservation: None,
        }
    }

    /// Reads an integer register.
    #[inline]
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        if r == Reg::ZERO {
            0
        } else {
            self.truncate(self.regs[usize::from(r)])
        }
    }

    /// Writes an integer register (`x0` writes are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if r != Reg::ZERO {
            self.regs[usize::from(r)] = self.truncate(value);
        }
    }

    #[inline]
    fn truncate(&self, v: u64) -> u64 {
        match self.xlen {
            Xlen::Rv64 => v,
            Xlen::Rv32 => i64::from(v as i32) as u64,
        }
    }

    /// Masks an effective address to the physical address width (RV32
    /// registers are held sign-extended; addresses are 32-bit there).
    #[inline]
    fn mask_addr(&self, v: u64) -> u64 {
        match self.xlen {
            Xlen::Rv64 => v,
            Xlen::Rv32 => v & 0xffff_ffff,
        }
    }

    /// Whether a machine external/timer/software interrupt is both pending
    /// and enabled, and globally enabled via `mstatus.MIE`.
    #[must_use]
    pub fn interrupt_ready(&self) -> bool {
        self.csrs.mstatus & csr::MSTATUS_MIE != 0 && self.csrs.mip & self.csrs.mie != 0
    }

    /// Takes the highest-priority pending interrupt: saves `mepc`/`mcause`,
    /// clears `mstatus.MIE` into `MPIE`, and vectors to `mtvec`.
    ///
    /// Returns the cause number taken, or `None` if no interrupt was ready.
    pub fn take_interrupt(&mut self) -> Option<u64> {
        if !self.interrupt_ready() {
            return None;
        }
        let pending = self.csrs.mip & self.csrs.mie;
        // Priority order per the privileged spec: MEI > MSI > MTI.
        let cause = if pending & csr::MIX_MEIP != 0 {
            11
        } else if pending & csr::MIX_MSIP != 0 {
            3
        } else {
            7
        };
        self.csrs.mepc = self.pc;
        self.csrs.mcause = (1 << 63) | cause;
        let mie = self.csrs.mstatus & csr::MSTATUS_MIE;
        self.csrs.mstatus &= !(csr::MSTATUS_MIE | csr::MSTATUS_MPIE);
        if mie != 0 {
            self.csrs.mstatus |= csr::MSTATUS_MPIE;
        }
        self.pc = self.csrs.mtvec & !0b11;
        Some(cause)
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on `ecall`/`ebreak`, memory faults, or illegal
    /// instructions. The pc is *not* advanced on a trap, so the embedder can
    /// inspect the faulting state.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> Result<Retired, Trap> {
        let word = bus.fetch(self.pc).map_err(Trap::FetchFault)?;
        let decoded = decode(word, self.xlen).map_err(|e| Trap::IllegalInstruction(e.raw))?;
        self.execute(bus, decoded)
    }

    /// Executes one instruction through a [`DecodeCache`]: the fetch+decode
    /// half of [`Hart::step`] is served from the cache when possible, and
    /// any store retired through this path invalidates overlapping entries,
    /// so self-modifying code behaves exactly as with [`Hart::step`].
    ///
    /// Returns the retired record together with its precomputed
    /// control-flow class (sparing the embedder a second `classify`).
    ///
    /// # Errors
    ///
    /// Exactly as [`Hart::step`].
    #[inline]
    pub fn step_predecoded<B: Bus>(
        &mut self,
        bus: &mut B,
        cache: &mut DecodeCache,
    ) -> Result<(Retired, CfClass), Trap> {
        let pc = self.pc;
        let op = match cache.lookup(pc) {
            Some(op) => op,
            None => {
                let word = bus.fetch(pc).map_err(Trap::FetchFault)?;
                let decoded =
                    decode(word, self.xlen).map_err(|e| Trap::IllegalInstruction(e.raw))?;
                cache.insert(pc, decoded)
            }
        };
        let retired = self.execute(bus, op.decoded)?;
        if op.store_bytes != 0 {
            if let Some(addr) = retired.mem_addr {
                cache.invalidate_store(addr, u64::from(op.store_bytes));
            }
        }
        Ok((retired, op.cf_class))
    }

    /// Executes an already-decoded instruction at the current pc — the
    /// execute half of [`Hart::step`]. `decoded` must be what the bytes at
    /// `self.pc` decode to; [`Hart::step_predecoded`] guarantees that via
    /// the cache invalidation contract.
    ///
    /// # Errors
    ///
    /// Exactly as [`Hart::step`].
    #[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
    pub fn execute<B: Bus>(&mut self, bus: &mut B, decoded: Decoded) -> Result<Retired, Trap> {
        let pc = self.pc;
        let len = u64::from(decoded.len);
        let next = pc.wrapping_add(len);
        let mut target = next;
        let mut mem_addr = None;
        let mut wfi = false;

        match decoded.inst {
            Inst::Lui { rd, imm } => self.set_reg(rd, imm as u64),
            Inst::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, offset } => {
                self.set_reg(rd, next);
                target = pc.wrapping_add(offset as u64);
            }
            Inst::Jalr { rd, rs1, offset } => {
                target = self.mask_addr(self.reg(rs1).wrapping_add(offset as u64)) & !1;
                self.set_reg(rd, next);
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    target = pc.wrapping_add(offset as u64);
                }
            }
            Inst::Load {
                rd,
                rs1,
                offset,
                width,
                unsigned,
            } => {
                let addr = self.mask_addr(self.reg(rs1).wrapping_add(offset as u64));
                mem_addr = Some(addr);
                let raw = bus.read(addr, width).map_err(Trap::MemFault)?;
                let value = if unsigned {
                    raw
                } else {
                    match width {
                        MemWidth::B => i64::from(raw as i8) as u64,
                        MemWidth::H => i64::from(raw as i16) as u64,
                        MemWidth::W => i64::from(raw as i32) as u64,
                        MemWidth::D => raw,
                    }
                };
                self.set_reg(rd, value);
            }
            Inst::Store {
                rs1,
                rs2,
                offset,
                width,
            } => {
                let addr = self.mask_addr(self.reg(rs1).wrapping_add(offset as u64));
                mem_addr = Some(addr);
                bus.write(addr, width, self.reg(rs2))
                    .map_err(Trap::MemFault)?;
            }
            Inst::AluImm {
                op,
                rd,
                rs1,
                imm,
                word,
            } => {
                let a = self.reg(rs1);
                let v = alu_imm(op, a, imm, word, self.xlen);
                self.set_reg(rd, v);
            }
            Inst::Alu {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let v = alu(op, self.reg(rs1), self.reg(rs2), word, self.xlen);
                self.set_reg(rd, v);
            }
            Inst::Mul {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let v = mul(op, self.reg(rs1), self.reg(rs2), word, self.xlen);
                self.set_reg(rd, v);
            }
            Inst::LoadReserved { rd, rs1, width } => {
                let addr = self.mask_addr(self.reg(rs1));
                mem_addr = Some(addr);
                let raw = bus.read(addr, width).map_err(Trap::MemFault)?;
                let value = if width == MemWidth::W {
                    i64::from(raw as i32) as u64
                } else {
                    raw
                };
                self.reservation = Some(addr);
                self.set_reg(rd, value);
            }
            Inst::StoreConditional {
                rd,
                rs1,
                rs2,
                width,
            } => {
                let addr = self.mask_addr(self.reg(rs1));
                mem_addr = Some(addr);
                if self.reservation == Some(addr) {
                    bus.write(addr, width, self.reg(rs2))
                        .map_err(Trap::MemFault)?;
                    self.set_reg(rd, 0);
                } else {
                    self.set_reg(rd, 1);
                }
                self.reservation = None;
            }
            Inst::Amo {
                op,
                rd,
                rs1,
                rs2,
                width,
            } => {
                let addr = self.mask_addr(self.reg(rs1));
                mem_addr = Some(addr);
                let raw = bus.read(addr, width).map_err(Trap::MemFault)?;
                let old = if width == MemWidth::W {
                    i64::from(raw as i32) as u64
                } else {
                    raw
                };
                let rhs = self.reg(rs2);
                let new = amo(op, old, rhs, width);
                bus.write(addr, width, new).map_err(Trap::MemFault)?;
                self.set_reg(rd, old);
            }
            Inst::Csr {
                op,
                rd,
                rs1,
                csr: addr,
            } => {
                let old = self.csrs.read(addr);
                let src = self.reg(rs1);
                let new = match op {
                    CsrOp::Rw => Some(src),
                    CsrOp::Rs => (rs1 != Reg::ZERO).then_some(old | src),
                    CsrOp::Rc => (rs1 != Reg::ZERO).then_some(old & !src),
                };
                if let Some(v) = new {
                    self.csrs.write(addr, v);
                }
                self.set_reg(rd, old);
            }
            Inst::CsrImm {
                op,
                rd,
                zimm,
                csr: addr,
            } => {
                let old = self.csrs.read(addr);
                let src = u64::from(zimm);
                let new = match op {
                    CsrOp::Rw => Some(src),
                    CsrOp::Rs => (zimm != 0).then_some(old | src),
                    CsrOp::Rc => (zimm != 0).then_some(old & !src),
                };
                if let Some(v) = new {
                    self.csrs.write(addr, v);
                }
                self.set_reg(rd, old);
            }
            Inst::Fence | Inst::FenceI => {}
            Inst::Ecall => return Err(Trap::Ecall),
            Inst::Ebreak => return Err(Trap::Breakpoint),
            Inst::Mret => {
                target = self.csrs.mepc;
                // Restore MIE from MPIE; set MPIE.
                let mpie = self.csrs.mstatus & csr::MSTATUS_MPIE != 0;
                self.csrs.mstatus &= !csr::MSTATUS_MIE;
                if mpie {
                    self.csrs.mstatus |= csr::MSTATUS_MIE;
                }
                self.csrs.mstatus |= csr::MSTATUS_MPIE;
            }
            Inst::Wfi => wfi = true,
        }

        self.pc = target;
        self.csrs.minstret = self.csrs.minstret.wrapping_add(1);
        Ok(Retired {
            pc,
            decoded,
            next,
            target,
            mem_addr,
            wfi,
        })
    }
}

fn alu_imm(op: AluImmOp, a: u64, imm: i64, word: bool, xlen: Xlen) -> u64 {
    let v = match op {
        AluImmOp::Addi => a.wrapping_add(imm as u64),
        AluImmOp::Slti => u64::from((a as i64) < imm),
        AluImmOp::Sltiu => u64::from(a < imm as u64),
        AluImmOp::Xori => a ^ imm as u64,
        AluImmOp::Ori => a | imm as u64,
        AluImmOp::Andi => a & imm as u64,
        AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => {
            let sh = (imm as u32) & if word || xlen == Xlen::Rv32 { 31 } else { 63 };
            match (op, word) {
                (AluImmOp::Slli, false) => a << sh,
                (AluImmOp::Slli, true) => u64::from((a as u32) << sh),
                (AluImmOp::Srli, false) => {
                    if xlen == Xlen::Rv32 {
                        u64::from((a as u32) >> sh)
                    } else {
                        a >> sh
                    }
                }
                (AluImmOp::Srli, true) => u64::from((a as u32) >> sh),
                (AluImmOp::Srai, false) => {
                    if xlen == Xlen::Rv32 {
                        ((a as i32) >> sh) as u64
                    } else {
                        ((a as i64) >> sh) as u64
                    }
                }
                (AluImmOp::Srai, true) => ((a as i32) >> sh) as u64,
                _ => unreachable!(),
            }
        }
    };
    normalize(v, word, xlen)
}

fn alu(op: AluOp, a: u64, b: u64, word: bool, xlen: Xlen) -> u64 {
    let shmask = if word || xlen == Xlen::Rv32 { 31 } else { 63 };
    let sh = (b as u32) & shmask;
    let v = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => {
            if word {
                u64::from((a as u32) << sh)
            } else {
                a << sh
            }
        }
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => {
            if word || xlen == Xlen::Rv32 {
                u64::from((a as u32) >> sh)
            } else {
                a >> sh
            }
        }
        AluOp::Sra => {
            if word || xlen == Xlen::Rv32 {
                ((a as i32) >> sh) as u64
            } else {
                ((a as i64) >> sh) as u64
            }
        }
        AluOp::Or => a | b,
        AluOp::And => a & b,
    };
    normalize(v, word, xlen)
}

fn mul(op: MulOp, a: u64, b: u64, word: bool, xlen: Xlen) -> u64 {
    let v = if word {
        let a = a as i32;
        let b = b as i32;
        let r = match op {
            MulOp::Mul => a.wrapping_mul(b),
            MulOp::Div => {
                if b == 0 {
                    -1
                } else if a == i32::MIN && b == -1 {
                    i32::MIN
                } else {
                    a.wrapping_div(b)
                }
            }
            MulOp::Divu => {
                let (a, b) = (a as u32, b as u32);
                a.checked_div(b).map_or(u32::MAX as i32, |q| q as i32)
            }
            MulOp::Rem => {
                if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            MulOp::Remu => {
                let (a, b) = (a as u32, b as u32);
                a.checked_rem(b).map_or(a as i32, |r| r as i32)
            }
            _ => unreachable!("no word form for high multiplies"),
        };
        i64::from(r) as u64
    } else {
        let sa = a as i64;
        let sb = b as i64;
        match op {
            MulOp::Mul => a.wrapping_mul(b),
            MulOp::Mulh => ((i128::from(sa) * i128::from(sb)) >> 64) as u64,
            MulOp::Mulhsu => ((i128::from(sa) * (u128::from(b) as i128)) >> 64) as u64,
            MulOp::Mulhu => ((u128::from(a) * u128::from(b)) >> 64) as u64,
            MulOp::Div => {
                if sb == 0 {
                    u64::MAX
                } else if sa == i64::MIN && sb == -1 {
                    sa as u64
                } else {
                    sa.wrapping_div(sb) as u64
                }
            }
            MulOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            MulOp::Rem => {
                if sb == 0 {
                    a
                } else if sa == i64::MIN && sb == -1 {
                    0
                } else {
                    sa.wrapping_rem(sb) as u64
                }
            }
            MulOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    };
    normalize(v, word, xlen)
}

fn amo(op: AmoOp, old: u64, rhs: u64, width: MemWidth) -> u64 {
    let (a, b) = if width == MemWidth::W {
        (i64::from(old as i32), i64::from(rhs as i32))
    } else {
        (old as i64, rhs as i64)
    };
    match op {
        AmoOp::Swap => rhs,
        AmoOp::Add => old.wrapping_add(rhs),
        AmoOp::Xor => old ^ rhs,
        AmoOp::And => old & rhs,
        AmoOp::Or => old | rhs,
        AmoOp::Min => {
            if a <= b {
                old
            } else {
                rhs
            }
        }
        AmoOp::Max => {
            if a >= b {
                old
            } else {
                rhs
            }
        }
        AmoOp::Minu => {
            let (ua, ub) = if width == MemWidth::W {
                (u64::from(old as u32), u64::from(rhs as u32))
            } else {
                (old, rhs)
            };
            if ua <= ub {
                old
            } else {
                rhs
            }
        }
        AmoOp::Maxu => {
            let (ua, ub) = if width == MemWidth::W {
                (u64::from(old as u32), u64::from(rhs as u32))
            } else {
                (old, rhs)
            };
            if ua >= ub {
                old
            } else {
                rhs
            }
        }
    }
}

fn normalize(v: u64, word: bool, xlen: Xlen) -> u64 {
    if word || xlen == Xlen::Rv32 {
        i64::from(v as i32) as u64
    } else {
        v
    }
}

/// A flat little-endian RAM region, the simplest [`Bus`].
#[derive(Debug, Clone)]
pub struct FlatMemory {
    base: u64,
    data: Vec<u8>,
}

impl FlatMemory {
    /// A zero-filled RAM of `size` bytes mapped at `base`.
    #[must_use]
    pub fn new(base: u64, size: usize) -> FlatMemory {
        FlatMemory {
            base,
            data: vec![0; size],
        }
    }

    /// Copies `bytes` into memory starting at absolute address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the region.
    pub fn load(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr - self.base) as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Base address of the region.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    #[inline]
    fn offset(&self, addr: u64, len: u64) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        (off + len <= self.data.len() as u64).then_some(off as usize)
    }
}

impl Bus for FlatMemory {
    /// The full word when it fits; otherwise the last halfword, if it holds
    /// a compressed instruction. A 32-bit parcel cut off by the end of the
    /// region faults at its missing upper half.
    #[inline]
    fn fetch(&mut self, addr: u64) -> Result<u32, MemFault> {
        if let Ok(word) = self.read(addr, MemWidth::W) {
            return Ok(word as u32);
        }
        let half = self.read(addr, MemWidth::H)? as u32;
        if half & 0b11 == 0b11 {
            return Err(MemFault {
                addr: addr + 2,
                store: false,
            });
        }
        Ok(half)
    }

    #[inline]
    fn read(&mut self, addr: u64, width: MemWidth) -> Result<u64, MemFault> {
        let n = width.bytes();
        let off = self
            .offset(addr, n)
            .ok_or(MemFault { addr, store: false })?;
        let mut buf = [0u8; 8];
        buf[..n as usize].copy_from_slice(&self.data[off..off + n as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    #[inline]
    fn write(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        let n = width.bytes() as usize;
        let off = self
            .offset(addr, n as u64)
            .ok_or(MemFault { addr, store: true })?;
        self.data[off..off + n].copy_from_slice(&value.to_le_bytes()[..n]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hart_with(insts: &[Inst], xlen: Xlen) -> (Hart, FlatMemory) {
        let mut mem = FlatMemory::new(0x1000, 0x1000);
        for (i, inst) in insts.iter().enumerate() {
            mem.load(0x1000 + 4 * i as u64, &crate::encode(inst).to_le_bytes());
        }
        (Hart::new(xlen, 0x1000), mem)
    }

    #[test]
    fn executes_straight_line_alu() {
        let (mut hart, mut mem) = hart_with(
            &[
                Inst::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A0,
                    rs1: Reg::ZERO,
                    imm: 5,
                    word: false,
                },
                Inst::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A1,
                    rs1: Reg::A0,
                    imm: 7,
                    word: false,
                },
                Inst::Alu {
                    op: AluOp::Add,
                    rd: Reg::A2,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                    word: false,
                },
            ],
            Xlen::Rv64,
        );
        for _ in 0..3 {
            hart.step(&mut mem).expect("steps");
        }
        assert_eq!(hart.reg(Reg::A2), 17);
        assert_eq!(hart.pc, 0x100c);
        assert_eq!(hart.csrs.minstret, 3);
    }

    #[test]
    fn call_and_return_flow() {
        let (mut hart, mut mem) = hart_with(
            &[
                Inst::Jal {
                    rd: Reg::RA,
                    offset: 8,
                }, // 0x1000: call 0x1008
                Inst::Ebreak, // 0x1004
                Inst::Jalr {
                    rd: Reg::ZERO,
                    rs1: Reg::RA,
                    offset: 0,
                }, // 0x1008: ret
            ],
            Xlen::Rv64,
        );
        let r = hart.step(&mut mem).expect("call");
        assert_eq!(r.target, 0x1008);
        assert_eq!(r.next, 0x1004);
        assert!(r.redirected());
        assert_eq!(hart.reg(Reg::RA), 0x1004);
        let r = hart.step(&mut mem).expect("ret");
        assert_eq!(r.target, 0x1004);
        assert_eq!(hart.step(&mut mem), Err(Trap::Breakpoint));
    }

    #[test]
    fn loads_sign_extend() {
        let (mut hart, mut mem) = hart_with(
            &[
                Inst::Load {
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    offset: 0,
                    width: MemWidth::B,
                    unsigned: false,
                },
                Inst::Load {
                    rd: Reg::A2,
                    rs1: Reg::A1,
                    offset: 0,
                    width: MemWidth::B,
                    unsigned: true,
                },
            ],
            Xlen::Rv64,
        );
        mem.load(0x1800, &[0xff]);
        hart.set_reg(Reg::A1, 0x1800);
        hart.step(&mut mem).expect("lb");
        hart.step(&mut mem).expect("lbu");
        assert_eq!(hart.reg(Reg::A0), u64::MAX);
        assert_eq!(hart.reg(Reg::A2), 0xff);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let (mut hart, mut mem) = hart_with(
            &[
                Inst::Store {
                    rs1: Reg::SP,
                    rs2: Reg::A0,
                    offset: -8,
                    width: MemWidth::D,
                },
                Inst::Load {
                    rd: Reg::A1,
                    rs1: Reg::SP,
                    offset: -8,
                    width: MemWidth::D,
                    unsigned: false,
                },
            ],
            Xlen::Rv64,
        );
        hart.set_reg(Reg::SP, 0x1800);
        hart.set_reg(Reg::A0, 0xdead_beef_cafe_f00d);
        hart.step(&mut mem).expect("sd");
        let r = hart.step(&mut mem).expect("ld");
        assert!(r.mem_addr.is_some());
        assert_eq!(hart.reg(Reg::A1), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn rv32_truncates_to_32_bits() {
        let (mut hart, mut mem) = hart_with(
            &[Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 1,
                word: false,
            }],
            Xlen::Rv32,
        );
        hart.set_reg(Reg::A0, 0xffff_ffff);
        // set_reg on RV32 sign-extends the 32-bit value
        assert_eq!(hart.reg(Reg::A0) as u32, 0xffff_ffff);
        hart.step(&mut mem).expect("addi");
        assert_eq!(hart.reg(Reg::A0) as u32, 0);
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(mul(MulOp::Div, 1, 0, false, Xlen::Rv64), u64::MAX);
        assert_eq!(mul(MulOp::Rem, 7, 0, false, Xlen::Rv64), 7);
        assert_eq!(
            mul(MulOp::Div, i64::MIN as u64, u64::MAX, false, Xlen::Rv64),
            i64::MIN as u64
        );
        assert_eq!(
            mul(MulOp::Rem, i64::MIN as u64, u64::MAX, false, Xlen::Rv64),
            0
        );
        assert_eq!(
            mul(MulOp::Mulhu, u64::MAX, u64::MAX, false, Xlen::Rv64),
            u64::MAX - 1
        );
    }

    #[test]
    fn interrupt_entry_and_mret() {
        let (mut hart, mut mem) = hart_with(&[Inst::Mret], Xlen::Rv32);
        // Handler at 0x1000 (the mret).
        hart.csrs.mtvec = 0x1000;
        hart.csrs.mstatus = csr::MSTATUS_MIE;
        hart.csrs.mie = csr::MIX_MEIP;
        hart.csrs.mip = csr::MIX_MEIP;
        hart.pc = 0x1234;
        let cause = hart.take_interrupt().expect("interrupt taken");
        assert_eq!(cause, 11);
        assert_eq!(hart.pc, 0x1000);
        assert_eq!(hart.csrs.mepc, 0x1234);
        assert_eq!(hart.csrs.mstatus & csr::MSTATUS_MIE, 0);
        // mret returns and re-enables MIE.
        let r = hart.step(&mut mem).expect("mret");
        assert_eq!(r.target, 0x1234);
        assert_ne!(hart.csrs.mstatus & csr::MSTATUS_MIE, 0);
    }

    #[test]
    fn no_interrupt_when_masked() {
        let mut hart = Hart::new(Xlen::Rv32, 0);
        hart.csrs.mip = csr::MIX_MEIP;
        hart.csrs.mie = csr::MIX_MEIP;
        // mstatus.MIE clear -> not taken
        assert_eq!(hart.take_interrupt(), None);
    }

    #[test]
    fn amo_semantics() {
        assert_eq!(amo(AmoOp::Add, 5, 7, MemWidth::D), 12);
        assert_eq!(amo(AmoOp::Swap, 5, 7, MemWidth::D), 7);
        assert_eq!(
            amo(AmoOp::Min, (-1i64) as u64, 3, MemWidth::D),
            (-1i64) as u64
        );
        assert_eq!(amo(AmoOp::Minu, (-1i64) as u64, 3, MemWidth::D), 3);
        assert_eq!(amo(AmoOp::Max, (-1i64) as u64, 3, MemWidth::D), 3);
    }

    #[test]
    fn lr_sc_pairing() {
        let (mut hart, mut mem) = hart_with(
            &[
                Inst::LoadReserved {
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    width: MemWidth::W,
                },
                Inst::StoreConditional {
                    rd: Reg::A2,
                    rs1: Reg::A1,
                    rs2: Reg::A3,
                    width: MemWidth::W,
                },
                Inst::StoreConditional {
                    rd: Reg::A4,
                    rs1: Reg::A1,
                    rs2: Reg::A3,
                    width: MemWidth::W,
                },
            ],
            Xlen::Rv64,
        );
        hart.set_reg(Reg::A1, 0x1800);
        hart.set_reg(Reg::A3, 99);
        hart.step(&mut mem).expect("lr");
        hart.step(&mut mem).expect("sc");
        assert_eq!(hart.reg(Reg::A2), 0, "first sc succeeds");
        hart.step(&mut mem).expect("sc again");
        assert_eq!(hart.reg(Reg::A4), 1, "second sc fails without reservation");
        assert_eq!(mem.read(0x1800, MemWidth::W).expect("read"), 99);
    }

    #[test]
    fn fetch_fault_reported() {
        let mut hart = Hart::new(Xlen::Rv64, 0xdead_0000);
        let mut mem = FlatMemory::new(0x1000, 0x100);
        assert!(matches!(hart.step(&mut mem), Err(Trap::FetchFault(_))));
    }

    #[test]
    fn compressed_instruction_in_the_last_halfword_fetches() {
        let mut mem = FlatMemory::new(0x1000, 16);
        mem.load(0x100e, &[0x01, 0x00]); // c.nop
        assert_eq!(mem.fetch(0x100e), Ok(0x0001));
        let mut hart = Hart::new(Xlen::Rv64, 0x100e);
        let r = hart.step(&mut mem).expect("c.nop retires");
        assert_eq!((r.decoded.len, hart.pc), (2, 0x1010));
        // A 32-bit parcel cut off by the end faults at its missing half.
        mem.load(0x100e, &[0x13, 0x00]); // low half of `nop`
        let cut = MemFault {
            addr: 0x1010,
            store: false,
        };
        assert_eq!(mem.fetch(0x100e), Err(cut));
        let mut hart = Hart::new(Xlen::Rv64, 0x100e);
        assert_eq!(hart.step(&mut mem), Err(Trap::FetchFault(cut)));
        // Past the end.
        assert_eq!(mem.fetch(0x1010), Err(cut));
    }

    #[test]
    fn step_predecoded_matches_step() {
        use crate::predecode::DecodeCache;
        let program = [
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 1,
                word: false,
            }, // 0x1000: loop body
            Inst::Branch {
                cond: crate::inst::BranchCond::Ne,
                rs1: Reg::A0,
                rs2: Reg::A2,
                offset: -4,
            }, // 0x1004: loop 5 times
            Inst::Jal {
                rd: Reg::RA,
                offset: 8,
            }, // 0x1008: call 0x1010
            Inst::Ebreak, // 0x100c
            Inst::Store {
                rs1: Reg::SP,
                rs2: Reg::A0,
                offset: 0,
                width: MemWidth::D,
            }, // 0x1010
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            }, // 0x1014: ret to the ebreak
        ];
        let (mut plain, mut plain_mem) = hart_with(&program, Xlen::Rv64);
        let (mut cached, mut cached_mem) = hart_with(&program, Xlen::Rv64);
        for hart in [&mut plain, &mut cached] {
            hart.set_reg(Reg::SP, 0x1800);
            hart.set_reg(Reg::A2, 5);
        }
        let mut cache = DecodeCache::new(64);
        loop {
            let a = plain.step(&mut plain_mem);
            let b = cached.step_predecoded(&mut cached_mem, &mut cache);
            match (a, b) {
                (Ok(r), Ok((rc, class))) => {
                    assert_eq!(r, rc);
                    assert_eq!(class, crate::cfi::classify(&r.decoded.inst));
                }
                (Err(e), Err(ec)) => {
                    assert_eq!(e, ec);
                    break;
                }
                (a, b) => panic!("diverged: {a:?} vs {b:?}"),
            }
            assert_eq!(plain.regs, cached.regs);
            assert_eq!(plain.pc, cached.pc);
        }
        assert!(cache.stats().hits > 0, "loop body re-executed from cache");
    }

    #[test]
    fn step_predecoded_sees_self_modifying_store() {
        // addi a0, a0, 1 at `slot`, executed, overwritten with
        // addi a0, a0, 2 via a store, then executed again.
        let slot_inst = Inst::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
            word: false,
        };
        let patch = Inst::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 2,
            word: false,
        };
        let (mut hart, mut mem) = hart_with(
            &[
                slot_inst, // 0x1000: the slot
                Inst::Store {
                    rs1: Reg::SP,
                    rs2: Reg::A1,
                    offset: 0,
                    width: MemWidth::W,
                }, // 0x1004: patch the slot
                Inst::Jal {
                    rd: Reg::ZERO,
                    offset: -8,
                }, // 0x1008: jump back to the slot
                Inst::Ebreak,
            ],
            Xlen::Rv64,
        );
        hart.set_reg(Reg::SP, 0x1000); // store target = the slot itself
        hart.set_reg(Reg::A1, u64::from(crate::encode(&patch)));
        let mut cache = DecodeCache::new(64);
        for _ in 0..4 {
            // slot, store, jump back, patched slot
            hart.step_predecoded(&mut mem, &mut cache).expect("steps");
        }
        assert_eq!(hart.reg(Reg::A0), 3, "1 + 2: stale cache would give 2");
        assert!(cache.stats().invalidated >= 1);
    }

    #[test]
    fn wfi_flag_set() {
        let (mut hart, mut mem) = hart_with(&[Inst::Wfi], Xlen::Rv32);
        let r = hart.step(&mut mem).expect("wfi");
        assert!(r.wfi);
    }
}
