//! The CFI Mailbox: the SCMI-style shared-register block between the CVA6
//! host domain and the OpenTitan RoT.
//!
//! Paper §IV-A: the mailbox holds general-purpose registers wide enough for
//! one 224-bit commit log, a **doorbell** register that interrupts the RoT
//! when the host's CFI Log Writer finishes a transfer, and a **completion**
//! register that — unlike a stock SCMI mailbox — is wired straight back to
//! the CVA6 commit stage rather than to the host interrupt controller. The
//! CFI check verdict is returned in data word 0.
//!
//! Both sides see the same state: the RoT maps it as a [`Device`] on the
//! Ibex bus; the host-side Log Writer uses the `host_*` methods (modelling
//! its AXI master port).

use ibex_model::Device;
use riscv_isa::MemWidth;
use std::sync::{Arc, Mutex};
use titancfi_obs::{Probe, Track};

/// Number of 32-bit data registers (256 bits ≥ one 224-bit commit log).
pub const DATA_WORDS: usize = 8;

/// Register map offsets (byte offsets from the mailbox base).
pub mod regs {
    /// First data word; words continue every 4 bytes.
    pub const DATA0: u64 = 0x00;
    /// Doorbell: host writes 1, RoT reads/clears.
    pub const DOORBELL: u64 = 0x20;
    /// Completion: RoT writes 1, host reads/clears.
    pub const COMPLETION: u64 = 0x24;
}

/// Byte offset one past the last data word.
const DATA_END: u64 = 4 * DATA_WORDS as u64;

#[derive(Debug, Default)]
struct Shared {
    data: [u32; DATA_WORDS],
    doorbell: bool,
    completion: bool,
    /// Counters for the evaluation harness.
    doorbells_rung: u64,
    completions_signalled: u64,
    /// When set, doorbell rings carry a sequence number and the hardware
    /// verifies the word-7 integrity word before accepting the ring.
    integrity: bool,
    /// Last sequence number accepted on a verified ring.
    last_seq: Option<u16>,
    /// Rings rejected because the integrity word did not match the data.
    integrity_rejects: u64,
    /// Verified rings that re-presented the last accepted sequence number
    /// (a retry of a log the RoT may already have consumed).
    seq_duplicates: u64,
    /// Verified rings that skipped ahead (a log was lost in transit).
    seq_gaps: u64,
    /// Host-side aborts (escalation tore down an in-flight transaction).
    aborts: u64,
}

/// The mailbox state, shared between the host-side writer and the RoT bus.
#[derive(Debug, Clone, Default)]
pub struct CfiMailbox {
    shared: Arc<Mutex<Shared>>,
}

impl CfiMailbox {
    /// A fresh mailbox with cleared registers.
    #[must_use]
    pub fn new() -> CfiMailbox {
        CfiMailbox::default()
    }

    /// The RoT-side bus device view (register this on the Ibex bus).
    #[must_use]
    pub fn device(&self) -> Box<dyn Device> {
        Box::new(MailboxDevice {
            shared: Arc::clone(&self.shared),
        })
    }

    // ---- host (CVA6 / Log Writer) side ----

    /// Host AXI write of one 32-bit data word.
    ///
    /// # Panics
    ///
    /// Panics if `index >= DATA_WORDS`.
    pub fn host_write_data(&self, index: usize, value: u32) {
        self.shared.lock().expect("mailbox lock").data[index] = value;
    }

    /// Host AXI read of one data word (used to fetch the verdict).
    ///
    /// # Panics
    ///
    /// Panics if `index >= DATA_WORDS`.
    #[must_use]
    pub fn host_read_data(&self, index: usize) -> u32 {
        self.shared.lock().expect("mailbox lock").data[index]
    }

    /// Host sets the doorbell, interrupting the RoT.
    pub fn host_ring_doorbell(&self) {
        let mut s = self.shared.lock().expect("mailbox lock");
        s.doorbell = true;
        s.doorbells_rung += 1;
    }

    // ---- transport integrity (spare word 7) ----

    /// Turns on ring-time integrity verification: the host's Log Writer
    /// stores [`CfiMailbox::integrity_word`] in spare data word 7 and rings
    /// via [`CfiMailbox::host_ring_doorbell_verified_probed`]; the mailbox
    /// hardware checks the word before asserting the RoT interrupt. Verdict
    /// timing is unchanged — the check rides on the ring transaction.
    pub fn enable_integrity(&self) {
        self.shared.lock().expect("mailbox lock").integrity = true;
    }

    /// Whether ring-time integrity verification is on.
    #[must_use]
    pub fn integrity_enabled(&self) -> bool {
        self.shared.lock().expect("mailbox lock").integrity
    }

    /// The word-7 encoding: sequence number in the high half, an XOR-fold
    /// checksum of the seven log words (mixed with the sequence number) in
    /// the low half. Any single-bit flip in words 0–6 or in word 7 itself
    /// changes exactly one side of the comparison, so all single-bit upsets
    /// are detected.
    #[must_use]
    pub fn integrity_word(seq: u16, words: &[u32; DATA_WORDS - 1]) -> u32 {
        (u32::from(seq) << 16) | u32::from(Self::checksum(words, seq))
    }

    fn checksum(words: &[u32; DATA_WORDS - 1], seq: u16) -> u16 {
        let mut acc = u32::from(seq).wrapping_mul(0x9e37);
        for w in words {
            acc ^= *w;
        }
        ((acc >> 16) ^ (acc & 0xffff)) as u16
    }

    /// Rings the doorbell after verifying data integrity (when enabled).
    ///
    /// Returns `false` without ringing if the stored word 7 does not match
    /// the presented `seq` and the current data words — the caller must
    /// rewrite the log and retry. Duplicate and out-of-order sequence
    /// numbers are accepted (retries are legitimate) but counted so the
    /// harness can flag lost or replayed logs. With integrity disabled this
    /// is exactly [`CfiMailbox::host_ring_doorbell_probed`].
    pub fn host_ring_doorbell_verified_probed(
        &self,
        seq: u16,
        cycle: u64,
        probe: &mut dyn Probe,
    ) -> bool {
        {
            let mut s = self.shared.lock().expect("mailbox lock");
            if s.integrity {
                let stored = s.data[DATA_WORDS - 1];
                let payload: [u32; DATA_WORDS - 1] = s.data[..DATA_WORDS - 1]
                    .try_into()
                    .expect("seven payload words");
                if stored != Self::integrity_word(seq, &payload) {
                    s.integrity_rejects += 1;
                    return false;
                }
                match s.last_seq {
                    Some(last) if last == seq => s.seq_duplicates += 1,
                    Some(last) if last.wrapping_add(1) != seq => s.seq_gaps += 1,
                    _ => {}
                }
                s.last_seq = Some(seq);
            }
            s.doorbell = true;
            s.doorbells_rung += 1;
        }
        if probe.enabled() {
            probe.counter_add("mailbox.doorbells", 1);
            probe.instant(Track::Mailbox, "doorbell", cycle);
            probe.span_begin(Track::Mailbox, "check-pending", cycle);
        }
        true
    }

    /// Host tears down an in-flight transaction: clears the doorbell and
    /// any completion so a wedged or retried exchange cannot leave the
    /// interface stuck. Used by the Log Writer's escalation path.
    pub fn host_abort(&self) {
        let mut s = self.shared.lock().expect("mailbox lock");
        s.doorbell = false;
        s.completion = false;
        s.aborts += 1;
    }

    /// Like [`CfiMailbox::host_ring_doorbell`], marking the ring on the
    /// mailbox timeline track: an instant plus an open `check-pending`
    /// span that [`CfiMailbox::host_completion_probed`] closes.
    pub fn host_ring_doorbell_probed(&self, cycle: u64, probe: &mut dyn Probe) {
        self.host_ring_doorbell();
        if probe.enabled() {
            probe.counter_add("mailbox.doorbells", 1);
            probe.instant(Track::Mailbox, "doorbell", cycle);
            probe.span_begin(Track::Mailbox, "check-pending", cycle);
        }
    }

    /// Host polls the completion flag.
    #[must_use]
    pub fn host_completion(&self) -> bool {
        self.shared.lock().expect("mailbox lock").completion
    }

    /// Like [`CfiMailbox::host_completion`], closing the `check-pending`
    /// span when completion is first observed.
    pub fn host_completion_probed(&self, cycle: u64, probe: &mut dyn Probe) -> bool {
        let completion = self.host_completion();
        if completion && probe.enabled() {
            probe.counter_add("mailbox.completions", 1);
            probe.instant(Track::Mailbox, "completion", cycle);
            probe.span_end(Track::Mailbox, cycle);
        }
        completion
    }

    /// Host acknowledges (clears) completion.
    pub fn host_clear_completion(&self) {
        self.shared.lock().expect("mailbox lock").completion = false;
    }

    // ---- observers ----

    /// Whether the doorbell is currently set (drives the RoT IRQ line).
    #[must_use]
    pub fn doorbell_pending(&self) -> bool {
        self.shared.lock().expect("mailbox lock").doorbell
    }

    /// The doorbell and completion flags, read under one lock — what an
    /// event-driven scheduler checks after each RoT access to the SoC
    /// fabric.
    #[must_use]
    pub fn doorbell_and_completion(&self) -> (bool, bool) {
        let s = self.shared.lock().expect("mailbox lock");
        (s.doorbell, s.completion)
    }

    /// Total doorbells rung (one per streamed commit log).
    #[must_use]
    pub fn doorbells_rung(&self) -> u64 {
        self.shared.lock().expect("mailbox lock").doorbells_rung
    }

    /// Total completions signalled by the RoT.
    #[must_use]
    pub fn completions_signalled(&self) -> u64 {
        self.shared
            .lock()
            .expect("mailbox lock")
            .completions_signalled
    }

    /// Rings rejected by the integrity check.
    #[must_use]
    pub fn integrity_rejects(&self) -> u64 {
        self.shared.lock().expect("mailbox lock").integrity_rejects
    }

    /// Verified rings that re-presented the previous sequence number.
    #[must_use]
    pub fn seq_duplicates(&self) -> u64 {
        self.shared.lock().expect("mailbox lock").seq_duplicates
    }

    /// Verified rings whose sequence number skipped ahead.
    #[must_use]
    pub fn seq_gaps(&self) -> u64 {
        self.shared.lock().expect("mailbox lock").seq_gaps
    }

    /// Host-side transaction aborts.
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.shared.lock().expect("mailbox lock").aborts
    }
}

struct MailboxDevice {
    shared: Arc<Mutex<Shared>>,
}

impl MailboxDevice {
    /// Byte-wise register-file read. The flag bit lives in the low byte of
    /// its register; the other bytes read as zero (reserved).
    fn byte_at(s: &Shared, addr: u64) -> u8 {
        match addr {
            o if o < DATA_END => (s.data[(o / 4) as usize] >> (8 * (o % 4))) as u8,
            regs::DOORBELL => u8::from(s.doorbell),
            regs::COMPLETION => u8::from(s.completion),
            _ => 0,
        }
    }
}

impl Device for MailboxDevice {
    fn read(&mut self, offset: u64, width: MemWidth) -> u64 {
        let s = self.shared.lock().expect("mailbox lock");
        let mut value = 0u64;
        for i in 0..width.bytes() {
            value |= u64::from(Self::byte_at(&s, offset + i)) << (8 * i);
        }
        value
    }

    fn write(&mut self, offset: u64, width: MemWidth, value: u64) {
        let mut s = self.shared.lock().expect("mailbox lock");
        for i in 0..width.bytes() {
            let addr = offset + i;
            let byte = (value >> (8 * i)) as u8;
            match addr {
                o if o < DATA_END => {
                    // Sub-word stores merge into the 32-bit data word.
                    let word = (o / 4) as usize;
                    let shift = 8 * (o % 4);
                    s.data[word] = (s.data[word] & !(0xff << shift)) | (u32::from(byte) << shift);
                }
                regs::DOORBELL => {
                    if byte & 1 != 0 {
                        // RoT-side ring (self-notification) counts like a
                        // host ring so `doorbells_rung` stays in sync with
                        // every doorbell edge the firmware can observe.
                        if !s.doorbell {
                            s.doorbells_rung += 1;
                        }
                        s.doorbell = true;
                    } else {
                        // RoT writes 0 to clear the pending doorbell.
                        s.doorbell = false;
                    }
                }
                regs::COMPLETION => {
                    if byte & 1 != 0 {
                        s.completion = true;
                        s.completions_signalled += 1;
                        // Completion implies the log was consumed: the
                        // hardware clears the doorbell so the firmware does
                        // not pay an extra SoC write for it.
                        s.doorbell = false;
                    } else {
                        s.completion = false;
                    }
                }
                // Reserved bytes (including the upper bytes of the flag
                // registers) ignore writes.
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_to_rot_data_path() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        mb.host_write_data(0, 0xdead_beef);
        mb.host_write_data(6, 0x1234);
        assert_eq!(dev.read(0x00, MemWidth::W), 0xdead_beef);
        assert_eq!(dev.read(0x18, MemWidth::W), 0x1234);
    }

    #[test]
    fn doorbell_protocol() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        assert!(!mb.doorbell_pending());
        mb.host_ring_doorbell();
        assert!(mb.doorbell_pending());
        assert_eq!(dev.read(regs::DOORBELL, MemWidth::W), 1);
        // RoT clears it.
        dev.write(regs::DOORBELL, MemWidth::W, 0);
        assert!(!mb.doorbell_pending());
        assert_eq!(mb.doorbells_rung(), 1);
    }

    #[test]
    fn completion_protocol_with_verdict() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        // RoT writes the verdict into data0 and signals completion.
        dev.write(regs::DATA0, MemWidth::W, 1); // violation!
        dev.write(regs::COMPLETION, MemWidth::W, 1);
        assert!(mb.host_completion());
        assert_eq!(mb.host_read_data(0), 1);
        mb.host_clear_completion();
        assert!(!mb.host_completion());
        assert_eq!(mb.completions_signalled(), 1);
    }

    #[test]
    fn clones_share_state() {
        let mb = CfiMailbox::new();
        let mb2 = mb.clone();
        mb.host_ring_doorbell();
        assert!(mb2.doorbell_pending());
    }

    #[test]
    fn sub_word_store_merges_into_data_word() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        mb.host_write_data(0, 0xaabb_ccdd);
        dev.write(0x01, MemWidth::B, 0xee);
        assert_eq!(mb.host_read_data(0), 0xaabb_eedd);
        dev.write(0x02, MemWidth::H, 0x1122);
        assert_eq!(mb.host_read_data(0), 0x1122_eedd);
    }

    #[test]
    fn sub_word_loads_extract_bytes() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        mb.host_write_data(1, 0x8899_aabb);
        assert_eq!(dev.read(0x04, MemWidth::B), 0xbb);
        assert_eq!(dev.read(0x05, MemWidth::B), 0xaa);
        assert_eq!(dev.read(0x06, MemWidth::H), 0x8899);
    }

    #[test]
    fn double_width_access_spans_two_words() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        dev.write(0x08, MemWidth::D, 0x1111_2222_3333_4444);
        assert_eq!(mb.host_read_data(2), 0x3333_4444);
        assert_eq!(mb.host_read_data(3), 0x1111_2222);
        assert_eq!(dev.read(0x08, MemWidth::D), 0x1111_2222_3333_4444);
    }

    #[test]
    fn wide_flag_write_does_not_leak_into_neighbours() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        // A word-wide completion write must only consume the flag bit; the
        // reserved upper bytes are ignored, not treated as extra registers.
        dev.write(regs::COMPLETION, MemWidth::W, 0xffff_ff01);
        assert!(mb.host_completion());
        assert_eq!(dev.read(regs::COMPLETION, MemWidth::W), 1);
    }

    #[test]
    fn device_side_doorbell_set_counts() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        dev.write(regs::DOORBELL, MemWidth::W, 1);
        assert!(mb.doorbell_pending());
        assert_eq!(mb.doorbells_rung(), 1);
        // Re-asserting an already-pending doorbell is not a new ring.
        dev.write(regs::DOORBELL, MemWidth::W, 1);
        assert_eq!(mb.doorbells_rung(), 1);
        dev.write(regs::DOORBELL, MemWidth::W, 0);
        assert!(!mb.doorbell_pending());
        assert_eq!(mb.doorbells_rung(), 1);
    }

    fn payload() -> [u32; DATA_WORDS - 1] {
        [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77]
    }

    fn write_log(mb: &CfiMailbox, seq: u16) {
        for (i, w) in payload().iter().enumerate() {
            mb.host_write_data(i, *w);
        }
        mb.host_write_data(DATA_WORDS - 1, CfiMailbox::integrity_word(seq, &payload()));
    }

    #[test]
    fn verified_ring_accepts_clean_log() {
        let mb = CfiMailbox::new();
        mb.enable_integrity();
        write_log(&mb, 1);
        let mut probe = titancfi_obs::NoProbe;
        assert!(mb.host_ring_doorbell_verified_probed(1, 0, &mut probe));
        assert!(mb.doorbell_pending());
        assert_eq!(mb.integrity_rejects(), 0);
        assert_eq!(mb.seq_duplicates(), 0);
        assert_eq!(mb.seq_gaps(), 0);
    }

    #[test]
    fn verified_ring_rejects_any_single_bit_flip() {
        for word in 0..DATA_WORDS {
            for bit in [0u32, 7, 15, 16, 31] {
                let mb = CfiMailbox::new();
                mb.enable_integrity();
                write_log(&mb, 1);
                mb.host_write_data(word, mb.host_read_data(word) ^ (1 << bit));
                let mut probe = titancfi_obs::NoProbe;
                assert!(
                    !mb.host_ring_doorbell_verified_probed(1, 0, &mut probe),
                    "flip in word {word} bit {bit} must be rejected"
                );
                assert!(!mb.doorbell_pending());
                assert_eq!(mb.integrity_rejects(), 1);
            }
        }
    }

    #[test]
    fn verified_ring_tracks_duplicates_and_gaps() {
        let mb = CfiMailbox::new();
        mb.enable_integrity();
        let mut probe = titancfi_obs::NoProbe;
        write_log(&mb, 1);
        assert!(mb.host_ring_doorbell_verified_probed(1, 0, &mut probe));
        // Retry of the same sequence number: accepted, counted.
        assert!(mb.host_ring_doorbell_verified_probed(1, 10, &mut probe));
        assert_eq!(mb.seq_duplicates(), 1);
        // Sequence 3 after 1: a log was lost.
        write_log(&mb, 3);
        assert!(mb.host_ring_doorbell_verified_probed(3, 20, &mut probe));
        assert_eq!(mb.seq_gaps(), 1);
    }

    #[test]
    fn unverified_ring_when_integrity_disabled() {
        let mb = CfiMailbox::new();
        let mut probe = titancfi_obs::NoProbe;
        // Garbage in word 7 and a mismatched seq must still be accepted.
        mb.host_write_data(DATA_WORDS - 1, 0xdead_beef);
        assert!(mb.host_ring_doorbell_verified_probed(0x55, 0, &mut probe));
        assert!(mb.doorbell_pending());
    }

    #[test]
    fn abort_tears_down_inflight_transaction() {
        let mb = CfiMailbox::new();
        let mut dev = mb.device();
        mb.host_ring_doorbell();
        dev.write(regs::COMPLETION, MemWidth::W, 1);
        mb.host_abort();
        assert!(!mb.doorbell_pending());
        assert!(!mb.host_completion());
        assert_eq!(mb.aborts(), 1);
    }
}
