//! Register-level SCMI channel: the wire format of the system mailbox.
//!
//! This is the memory-mapped view the *host software* programs (paper
//! §III-B: "a set of general-purpose memory mapped registers meant for data
//! sharing" plus doorbell/completion). Each host bus owns one channel in
//! its address space; the RoT-side [`ScmiWireService`] polls a channel's
//! doorbell and serves version and attestation requests.
//!
//! Register map (byte offsets):
//!
//! | offset | register |
//! |---|---|
//! | `0x00` | message type (1 = version, 2 = attest) |
//! | `0x04..0x14` | request payload (attestation nonce) |
//! | `0x20` | doorbell (host writes 1) |
//! | `0x24` | completion (RoT writes 1; host clears) |
//! | `0x28` | status (0 = ok, 1 = error) |
//! | `0x40..0x90` | response payload (measurement ‖ nonce ‖ tag) |

use crate::attestation::{Attestor, Challenge};
use crate::sha256::DIGEST_LEN;

/// Window size in bytes.
pub const WINDOW: u64 = 0x100;
/// Message type: version query.
pub const MSG_VERSION: u32 = 1;
/// Message type: attestation challenge.
pub const MSG_ATTEST: u32 = 2;

/// Register offsets.
pub mod regs {
    /// Message type.
    pub const MSG_TYPE: u64 = 0x00;
    /// Request payload (16-byte nonce for attestation).
    pub const REQUEST: u64 = 0x04;
    /// Doorbell.
    pub const DOORBELL: u64 = 0x20;
    /// Completion.
    pub const COMPLETION: u64 = 0x24;
    /// Status.
    pub const STATUS: u64 = 0x28;
    /// Response payload.
    pub const RESPONSE: u64 = 0x40;
}

/// The register file of one SCMI channel.
#[derive(Debug)]
pub struct ScmiWire {
    bytes: [u8; WINDOW as usize],
}

impl Default for ScmiWire {
    fn default() -> ScmiWire {
        ScmiWire {
            bytes: [0; WINDOW as usize],
        }
    }
}

impl ScmiWire {
    /// A cleared channel.
    #[must_use]
    pub fn new() -> ScmiWire {
        ScmiWire::default()
    }

    /// Host-side read of up to 8 bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the window end.
    #[must_use]
    pub fn host_read(&self, offset: u64, len: u64) -> u64 {
        let mut v = 0u64;
        for i in (0..len).rev() {
            v = v << 8 | u64::from(self.bytes[(offset + i) as usize]);
        }
        v
    }

    /// Host-side write of the low `len` bytes of `value` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the window end.
    pub fn host_write(&mut self, offset: u64, len: u64, value: u64) {
        for i in 0..len {
            self.bytes[(offset + i) as usize] = (value >> (8 * i)) as u8;
        }
    }

    fn doorbell(&self) -> bool {
        self.host_read(regs::DOORBELL, 4) & 1 != 0
    }
}

/// The RoT-side servant: polls a channel's doorbell and serves requests.
#[derive(Debug)]
pub struct ScmiWireService {
    attestor: Attestor,
    version: u32,
    /// Requests served.
    pub served: u64,
    /// Accelerator cycles consumed by attestation requests.
    pub auth_cycles: u64,
}

impl ScmiWireService {
    /// A service attesting the booted `image`.
    #[must_use]
    pub fn new(attestation_key: &[u8], image: &[u8]) -> ScmiWireService {
        ScmiWireService {
            attestor: Attestor::new(attestation_key, image),
            version: 0x0001_0000,
            served: 0,
            auth_cycles: 0,
        }
    }

    /// Serves at most one pending request on `wire`. Returns whether one
    /// was served.
    pub fn poll(&mut self, wire: &mut ScmiWire) -> bool {
        if !wire.doorbell() {
            return false;
        }
        let msg = wire.host_read(regs::MSG_TYPE, 4) as u32;
        match msg {
            MSG_VERSION => {
                wire.host_write(regs::RESPONSE, 4, u64::from(self.version));
                wire.host_write(regs::STATUS, 4, 0);
            }
            MSG_ATTEST => {
                let mut nonce = [0u8; 16];
                for (i, b) in nonce.iter_mut().enumerate() {
                    *b = wire.host_read(regs::REQUEST + i as u64, 1) as u8;
                }
                let report = self.attestor.attest(&Challenge { nonce });
                self.auth_cycles += report.cycles;
                let payload = report
                    .measurement
                    .iter()
                    .chain(report.nonce.iter())
                    .chain(report.tag.iter());
                for (i, b) in payload.enumerate() {
                    wire.host_write(regs::RESPONSE + i as u64, 1, u64::from(*b));
                }
                wire.host_write(regs::STATUS, 4, 0);
            }
            _ => {
                wire.host_write(regs::STATUS, 4, 1);
            }
        }
        // Clear the doorbell, signal completion.
        wire.host_write(regs::DOORBELL, 4, 0);
        wire.host_write(regs::COMPLETION, 4, 1);
        self.served += 1;
        true
    }

    /// The measurement this service attests (for verifier setup).
    #[must_use]
    pub fn measurement(&self) -> [u8; DIGEST_LEN] {
        self.attestor.measurement()
    }
}

/// Parses the response area back into an attestation report (host/verifier
/// side helper).
#[must_use]
pub fn read_report(wire: &ScmiWire) -> crate::attestation::AttestationReport {
    let mut measurement = [0u8; DIGEST_LEN];
    let mut nonce = [0u8; 16];
    let mut tag = [0u8; DIGEST_LEN];
    let base = regs::RESPONSE;
    for (i, b) in measurement.iter_mut().enumerate() {
        *b = wire.host_read(base + i as u64, 1) as u8;
    }
    for (i, b) in nonce.iter_mut().enumerate() {
        *b = wire.host_read(base + 32 + i as u64, 1) as u8;
    }
    for (i, b) in tag.iter_mut().enumerate() {
        *b = wire.host_read(base + 48 + i as u64, 1) as u8;
    }
    crate::attestation::AttestationReport {
        measurement,
        nonce,
        tag,
        cycles: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::verify_report;
    use crate::sha256::sha256;

    const KEY: &[u8] = b"wire-attest-key";
    const IMAGE: &[u8] = b"firmware image";

    #[test]
    fn version_over_the_wire() {
        let mut wire = ScmiWire::new();
        let mut svc = ScmiWireService::new(KEY, IMAGE);
        wire.host_write(regs::MSG_TYPE, 4, u64::from(MSG_VERSION));
        wire.host_write(regs::DOORBELL, 4, 1);
        assert!(svc.poll(&mut wire));
        assert_eq!(wire.host_read(regs::COMPLETION, 4), 1);
        assert_eq!(wire.host_read(regs::STATUS, 4), 0);
        assert_eq!(wire.host_read(regs::RESPONSE, 4), 0x0001_0000);
    }

    #[test]
    fn attestation_over_the_wire_verifies() {
        let mut wire = ScmiWire::new();
        let mut svc = ScmiWireService::new(KEY, IMAGE);
        let nonce = [0xabu8; 16];
        wire.host_write(regs::MSG_TYPE, 4, u64::from(MSG_ATTEST));
        for (i, b) in nonce.iter().enumerate() {
            wire.host_write(regs::REQUEST + i as u64, 1, u64::from(*b));
        }
        wire.host_write(regs::DOORBELL, 4, 1);
        assert!(svc.poll(&mut wire));
        let report = read_report(&wire);
        assert!(verify_report(
            &report,
            &Challenge { nonce },
            KEY,
            &sha256(IMAGE)
        ));
        assert!(svc.auth_cycles > 0);
    }

    #[test]
    fn unknown_message_sets_error_status() {
        let mut wire = ScmiWire::new();
        let mut svc = ScmiWireService::new(KEY, IMAGE);
        wire.host_write(regs::MSG_TYPE, 4, 99);
        wire.host_write(regs::DOORBELL, 4, 1);
        assert!(svc.poll(&mut wire));
        assert_eq!(wire.host_read(regs::STATUS, 4), 1);
    }

    #[test]
    fn idle_poll_is_noop() {
        let mut wire = ScmiWire::new();
        let mut svc = ScmiWireService::new(KEY, IMAGE);
        assert!(!svc.poll(&mut wire));
        assert_eq!(svc.served, 0);
    }
}
