//! End-to-end remote attestation: host *software* running on the simulated
//! CVA6 requests an attestation report over the SCMI system mailbox, the
//! RoT answers with an HMAC-signed measurement of the booted CFI firmware,
//! and a remote verifier checks it — the platform capability the paper's
//! architecture presumes (§I) and TitanCFI builds on.

use cva6_model::Halt;
use opentitan_model::attestation::{verify_report, Challenge};
use opentitan_model::scmi_wire::read_report;
use opentitan_model::ScmiWire;
use riscv_asm::Program;
use riscv_isa::{MemWidth, Reg};
use titancfi_soc::{DualHostSoc, SocConfig, SystemOnChip, SCMI_BASE};

/// Host program: write an attestation challenge into the SCMI window, ring
/// the doorbell, poll completion, read the status.
const ATTEST_CLIENT: &str = r"
_start:
    li   t0, 0xc1000000     # SCMI system mailbox base
    # message type = 2 (attest)
    li   t1, 2
    sw   t1, 0(t0)
    # nonce = 16 bytes of 0x5a at offset 4
    li   t1, 0x5a5a5a5a
    sw   t1, 4(t0)
    sw   t1, 8(t0)
    sw   t1, 12(t0)
    sw   t1, 16(t0)
    # ring the doorbell
    li   t1, 1
    sw   t1, 0x20(t0)
wait:
    lw   t1, 0x24(t0)       # completion
    beqz t1, wait
    lw   a0, 0x28(t0)       # status (0 = ok)
    ebreak
";

#[test]
fn host_driven_attestation_verifies() {
    let prog =
        riscv_asm::assemble(ATTEST_CLIENT, riscv_isa::Xlen::Rv64, 0x8000_0000).expect("assembles");
    let mut soc = SystemOnChip::new(&prog, SocConfig::default());
    let expected_measurement = soc.firmware_measurement();
    let report = soc.run(1_000_000);
    assert_eq!(report.halt, Halt::Breakpoint);
    assert_eq!(soc.host_reg(Reg::A0), 0, "status must be OK");

    // The verifier reads the report back out of the SCMI window (as the
    // host would relay it off-chip) and checks it cryptographically.
    let wire = read_wire_from_soc(&mut soc);
    let att = read_report(&wire);
    let challenge = Challenge { nonce: [0x5a; 16] };
    assert!(
        verify_report(
            &att,
            &challenge,
            b"titancfi-attestation-key",
            &expected_measurement
        ),
        "signed report must verify against the booted firmware measurement"
    );
    // And it must NOT verify against a different image's measurement.
    let wrong = opentitan_model::sha256::sha256(b"some other firmware");
    assert!(!verify_report(
        &att,
        &challenge,
        b"titancfi-attestation-key",
        &wrong
    ));
}

#[test]
fn stale_nonce_rejected_by_verifier() {
    let prog =
        riscv_asm::assemble(ATTEST_CLIENT, riscv_isa::Xlen::Rv64, 0x8000_0000).expect("assembles");
    let mut soc = SystemOnChip::new(&prog, SocConfig::default());
    let measurement = soc.firmware_measurement();
    let _ = soc.run(1_000_000);
    let att = read_report(&read_wire_from_soc(&mut soc));
    // Fresh challenge with a different nonce: the old report is a replay.
    let fresh = Challenge { nonce: [0x77; 16] };
    assert!(!verify_report(
        &att,
        &fresh,
        b"titancfi-attestation-key",
        &measurement
    ));
}

/// Reads the SCMI response area back through the host bus (what the host
/// software would do before relaying the report to the remote verifier).
fn read_wire_from_soc(soc: &mut SystemOnChip) -> ScmiWire {
    use riscv_isa::Bus as _;
    let mut wire = ScmiWire::new();
    // Copy the response region byte-for-byte through host reads.
    for off in 0..opentitan_model::scmi_wire::WINDOW {
        let v = soc
            .host_bus_mut()
            .read(SCMI_BASE + off, MemWidth::B)
            .expect("SCMI window readable");
        wire.host_write(off, 1, v);
    }
    wire
}

/// A client that requests attestation with a 16-byte nonce of repeated
/// `nonce` words, then checks the report's echo of it: `a0` ends zero only
/// if the status is OK and both echoed nonce doublewords (response offset
/// 32) are this client's own.
fn echo_checking_client(nonce: u32) -> Program {
    let src = format!(
        r"
_start:
    li   t0, 0xc1000000     # SCMI system mailbox base
    li   t1, 2
    sw   t1, 0(t0)          # message type = 2 (attest)
    li   t1, {nonce:#x}
    sw   t1, 4(t0)
    sw   t1, 8(t0)
    sw   t1, 12(t0)
    sw   t1, 16(t0)
    li   t1, 1
    sw   t1, 0x20(t0)       # ring the doorbell
wait:
    lw   t1, 0x24(t0)       # completion
    beqz t1, wait
    lw   a0, 0x28(t0)       # status (0 = ok)
    li   t2, {nonce:#x}{nonce:08x}
    ld   t1, 0x60(t0)       # echoed nonce, first doubleword
    xor  t1, t1, t2
    or   a0, a0, t1
    ld   t1, 0x68(t0)       # echoed nonce, second doubleword
    xor  t1, t1, t2
    or   a0, a0, t1
    ebreak
"
    );
    riscv_asm::assemble(&src, riscv_isa::Xlen::Rv64, 0x8000_0000).expect("assembles")
}

#[test]
fn dual_host_attestation_reports_stay_per_host() {
    // Both cores request attestation at once with different nonces; each
    // must read back a report for its own nonce, from its own channel.
    let a = echo_checking_client(0x5a5a_5a5a);
    let b = echo_checking_client(0x7777_7777);
    for block in [false, true] {
        let mut soc = DualHostSoc::new([&a, &b], 1 << 16, 8);
        soc.set_fast_path(block);
        soc.set_block_compile(block);
        let report = soc.run(1_000_000);
        for (i, core) in report.cores.iter().enumerate() {
            assert_eq!(core.halt, Halt::Breakpoint, "core {i}, block {block}");
            assert_eq!(
                soc.host_reg(i, Reg::A0),
                0,
                "core {i}, block {block}: status and echoed nonce must be its own"
            );
        }
    }
}
