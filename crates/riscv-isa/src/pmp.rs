//! RISC-V Physical Memory Protection (PMP).
//!
//! TitanCFI's security argument (paper §VI) assumes *"the CFI Mailbox
//! cannot be tampered by other entities in the SoC"*, enforced by
//! programming PMP so that loads/stores from the host into the mailbox
//! region raise access faults. This module implements the machine-mode PMP
//! checker — TOR and NAPOT region matching with R/W/X permission bits and
//! the lock bit. The host bus in the `soc` crate applies it to every load,
//! store and fetch.

/// Access type being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store/AMO.
    Write,
    /// Instruction fetch.
    Execute,
}

/// Address-matching mode of a PMP entry (pmpcfg.A field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmpMode {
    /// Entry disabled.
    Off,
    /// Top-of-range: matches `prev_addr <= a < addr`.
    Tor,
    /// Naturally aligned power-of-two region encoded in the address.
    Napot,
}

/// One PMP entry (the pmpcfg/pmpaddr pair, decoded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmpEntry {
    /// Matching mode.
    pub mode: PmpMode,
    /// `pmpaddr` in byte units (already shifted; for NAPOT the trailing-one
    /// encoding is in [`PmpEntry::napot`]'s constructor).
    pub addr: u64,
    /// For NAPOT: region size in bytes (power of two).
    pub size: u64,
    /// Read permission.
    pub r: bool,
    /// Write permission.
    pub w: bool,
    /// Execute permission.
    pub x: bool,
    /// Lock bit: entry also constrains machine mode.
    pub locked: bool,
}

impl PmpEntry {
    /// A disabled entry.
    #[must_use]
    pub fn off() -> PmpEntry {
        PmpEntry {
            mode: PmpMode::Off,
            addr: 0,
            size: 0,
            r: false,
            w: false,
            x: false,
            locked: false,
        }
    }

    /// A locked NAPOT entry covering `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two ≥ 8 or `base` is not
    /// size-aligned.
    #[must_use]
    pub fn napot(base: u64, size: u64, r: bool, w: bool, x: bool) -> PmpEntry {
        assert!(
            size.is_power_of_two() && size >= 8,
            "NAPOT size must be a power of two >= 8"
        );
        assert_eq!(base % size, 0, "NAPOT base must be size-aligned");
        PmpEntry {
            mode: PmpMode::Napot,
            addr: base,
            size,
            r,
            w,
            x,
            locked: true,
        }
    }

    fn matches(&self, prev_top: u64, addr: u64) -> bool {
        match self.mode {
            PmpMode::Off => false,
            PmpMode::Tor => (prev_top..self.addr).contains(&addr),
            PmpMode::Napot => (self.addr..self.addr + self.size).contains(&addr),
        }
    }

    fn allows(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.r,
            AccessKind::Write => self.w,
            AccessKind::Execute => self.x,
        }
    }
}

/// The PMP unit: an ordered list of entries, first match wins.
#[derive(Debug, Clone, Default)]
pub struct Pmp {
    entries: Vec<PmpEntry>,
}

impl Pmp {
    /// A PMP with no entries (machine mode: everything allowed).
    #[must_use]
    pub fn new() -> Pmp {
        Pmp::default()
    }

    /// Appends an entry (lowest-priority-last, as in hardware numbering).
    pub fn add(&mut self, entry: PmpEntry) {
        self.entries.push(entry);
    }

    /// Checks an access. Machine-mode semantics: a *locked* matching entry
    /// enforces its permissions; an unlocked matching entry and a miss both
    /// allow (M-mode default-allow).
    #[must_use]
    pub fn check(&self, addr: u64, kind: AccessKind) -> bool {
        let mut prev_top = 0;
        for e in &self.entries {
            if e.matches(prev_top, addr) {
                if e.locked {
                    return e.allows(kind);
                }
                return true;
            }
            if e.mode != PmpMode::Off {
                prev_top = e.addr;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locked_region_blocks_writes() {
        let mut pmp = Pmp::new();
        pmp.add(PmpEntry::napot(0x1000, 0x100, true, false, false));
        assert!(pmp.check(0x1010, AccessKind::Read));
        assert!(!pmp.check(0x1010, AccessKind::Write));
        assert!(!pmp.check(0x1010, AccessKind::Execute));
        // Outside the region: default allow.
        assert!(pmp.check(0x2000, AccessKind::Write));
    }

    #[test]
    fn first_match_wins() {
        let mut pmp = Pmp::new();
        // Inner no-access window inside an outer RW region.
        pmp.add(PmpEntry::napot(0x1000, 0x10, false, false, false));
        pmp.add(PmpEntry::napot(0x1000, 0x1000, true, true, false));
        assert!(!pmp.check(0x1008, AccessKind::Read), "inner entry wins");
        assert!(
            pmp.check(0x1800, AccessKind::Read),
            "outer entry applies elsewhere"
        );
    }

    #[test]
    fn tor_matching() {
        let mut pmp = Pmp::new();
        pmp.add(PmpEntry {
            mode: PmpMode::Tor,
            addr: 0x4000,
            size: 0,
            r: true,
            w: false,
            x: false,
            locked: true,
        });
        assert!(
            !pmp.check(0x3fff, AccessKind::Write),
            "below TOR top matched"
        );
        assert!(
            pmp.check(0x4000, AccessKind::Write),
            "at/above top not matched"
        );
    }

    #[test]
    fn unlocked_entry_is_permissive_for_machine_mode() {
        let mut pmp = Pmp::new();
        let mut e = PmpEntry::napot(0x1000, 0x100, false, false, false);
        e.locked = false;
        pmp.add(e);
        assert!(
            pmp.check(0x1010, AccessKind::Write),
            "unlocked: M-mode may access"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn napot_rejects_unaligned_size() {
        let _ = PmpEntry::napot(0x1000, 0x30, true, true, true);
    }
}
