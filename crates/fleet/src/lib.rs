//! `titancfi-fleet` — fleet-scale CFI monitoring.
//!
//! The paper puts one TitanCFI monitor next to one host core. This crate
//! asks the deployment question: what does a *fleet* of monitored SoCs
//! look like to the maintainer who has to watch them all? It runs N
//! simulated devices (full [`titancfi_soc::SystemOnChip`] co-simulations,
//! advanced in cheap resumable slices) as a sharded fleet and funnels
//! every 28-byte commit-log record into one monitoring service:
//!
//! * [`transport`] — the wire layer: one lock-free in-process SPSC ring
//!   per device, framing records with the resilience layer's seq+checksum
//!   integrity word, so corruption, duplication and loss are *detected at
//!   ingest*, with explicit backpressure and batched send/receive
//!   amortizing one cursor publish over a whole burst;
//! * [`device`] — a [`device::SocDevice`] wraps a co-simulation as a
//!   pollable device streaming its commit-log tap through a transport;
//! * [`supervisor`] — fail-fast lifecycle: liveness deadlines, immediate
//!   reap on hang or trap, bounded restart budgets, a permanent-failure
//!   ledger;
//! * [`health`] — the fleet health pipeline: sliding-window per-device
//!   aggregation, 0–100 health scores, and a severity-debounced alert
//!   engine (violation bursts, seq-gap storms, stalled devices,
//!   latency-SLO breaches, exhausted restart budgets), whose scores and
//!   alerts land in the [`FleetReport`];
//! * [`service`] — the fleet itself: shard workers with work-stealing
//!   ([`titancfi_harness::StealQueues`]) running devices in cache-friendly
//!   turn bursts, *sharded* poll-coupled ingest (each worker verifies the
//!   frames of the slots it just ran plus a fixed partition it owns),
//!   periodic health evaluations, and a drain-and-shutdown protocol whose
//!   invariant is frames-in == frames-out.
//!
//! The `titancfi-bench` crate's `fleet` binary sweeps device counts over
//! this service to produce the devices × commit-logs/sec saturation curve
//! (`BENCH_fleet.json`).

pub mod device;
pub mod health;
pub mod service;
pub mod supervisor;
pub mod transport;

pub use device::{
    call_dense_workload, Device, DeviceStatus, PollOutcome, SocDevice, SocDeviceConfig,
};
pub use health::{Alert, AlertKind, DeviceCounters, HealthConfig, HealthMonitor, Severity};
pub use service::{run_fleet, FleetConfig, FleetReport};
pub use supervisor::{
    DeviceFactory, EscalationReason, FailureRecord, SlotHealth, SupervisionConfig,
    SupervisionStats, Supervisor, Turn,
};
pub use transport::{Backend, RecvBatch, Transport, TransportStats};
