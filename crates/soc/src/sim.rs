//! Full-SoC co-simulation: CVA6, the TitanCFI pipeline, and the RoT in
//! lock-step.
//!
//! This is the "RTL simulation" of the reproduction: the protected program
//! runs on the CVA6 model; every retired instruction passes the CFI filters;
//! relevant commit logs go through the CFI queue, the Log Writer FSM, the
//! mailbox, and are checked by the *actual RV32 firmware* executing on the
//! Ibex model. Queue back-pressure stalls the CVA6 commit stage exactly as
//! in the paper (§IV-B2), and violations raised by the RoT surface as
//! exceptions.
//!
//! One engine serves any number of host cores. Each core keeps its own CFI
//! filter, halt state and SCMI channel; all of them feed the one
//! *background* — queue, Log Writer, mailbox, RoT and SCMI service — and
//! the run loop steps the live core that is furthest behind. [`SystemOnChip`] is the single-core
//! case, and `DualHostSoc` wraps the same engine around two cores.
//!
//! Two schedulers drive the engine, observationally identical:
//!
//! * **per-cycle** — the reference. Every host commit brings the background
//!   up to its cycle one tick at a time. It runs predecoded when
//!   [`SocConfig::fast_path`] is on, and it is the fallback whenever a
//!   recorder, a fault schedule, or a per-commit violation policy is
//!   active.
//! * **block** — superblock dispatch on the host cores plus event-driven
//!   background advances that jump over provably inert ticks. A latency
//!   collector rides it: every lifecycle stamp fires at a queue push or a
//!   Log Writer event, and both run at their exact cycles here.
//!   [`SystemOnChip::block_dispatch`] says which scheduler a run takes.

use crate::hostbus::HostBus;
use cva6_model::{Commit, Cva6Core, Halt, TimingConfig};
use opentitan_model::{OpenTitan, ScmiWireService};
use riscv_asm::Program;
use titancfi::firmware::{self, BootedRot, FirmwareKind};
use titancfi::{
    AxiTiming, Category, CfiFilter, CfiQueue, CommitLog, FailPolicy, LogWriter, Phase,
    QueueController, ResilienceConfig, TaggedLog, Violation, WriterState,
};
use titancfi_faults::{CheckFault, FaultClass, FaultConfig, FaultInjector, FaultReport};
use titancfi_obs::{Histogram, LatencyCollector, LatencySpans, NoProbe, Probe, Recorder, Track};

/// SoC configuration.
#[derive(Debug, Clone, Copy)]
pub struct SocConfig {
    /// CFI queue depth (paper: 1 for Table II, 8 for Table III).
    pub queue_depth: usize,
    /// Firmware/interconnect variant running in the RoT.
    pub firmware: FirmwareKind,
    /// Host RAM size.
    pub mem_size: usize,
    /// CVA6 timing parameters.
    pub timing: TimingConfig,
    /// Log Writer AXI timing.
    pub axi: AxiTiming,
    /// Whether a violation halts the simulation (exception) or is only
    /// recorded.
    pub halt_on_violation: bool,
    /// Deliver a machine-mode exception to the host hart on each violation
    /// (the Log Writer's exception line, paper §IV-B3). The victim's trap
    /// handler then runs — cause [`CFI_VIOLATION_CAUSE`], `mtval` holding
    /// the offending target address.
    pub trap_host_on_violation: bool,
    /// Log Writer watchdog / retry / escalation parameters. The default is
    /// inert on a fault-free transport (the watchdog only fires after 100k
    /// silent cycles, orders of magnitude beyond any legitimate check).
    pub resilience: ResilienceConfig,
    /// Fault-injection schedule for the CFI transport; `None` (or an
    /// all-zero-rate config) leaves the transport pristine.
    pub faults: Option<FaultConfig>,
    /// Simulator fast path: predecoded instruction caches on every core.
    /// Cycle-exact either way — every report field is identical with the
    /// flag on or off (pinned by `tests/decode_cache.rs`); off exists for
    /// A/B verification and as the reference semantics. Defaults to the
    /// process-wide [`riscv_isa::predecode::fast_path_default`].
    pub fast_path: bool,
    /// Superblock dispatch on the host cores plus event-driven background
    /// scheduling. Only consulted when the fast path is active, and
    /// disabled while a recorder or fault schedule is attached or under
    /// `halt_on_violation` / `trap_host_on_violation`, which the reference
    /// semantics check at every commit; a latency collector keeps it on
    /// ([`SystemOnChip::block_dispatch`]). Cycle-exact like `fast_path` —
    /// pinned by `tests/decode_cache.rs` and the fuzz oracle's
    /// block-compiled stepping mode. Defaults to the process-wide
    /// [`riscv_isa::predecode::fast_path_default`].
    pub block_compile: bool,
    /// Decode-cache capacity (slots, rounded up to a power of two) applied
    /// to every core. The default covers kernel-sized firmware; fleet
    /// embedders simulating hundreds of SoCs right-size this down to the
    /// program actually run — the caches dominate per-instance memory and
    /// are architecturally invisible.
    pub decode_cache_slots: usize,
    /// Superblock-cache capacity (slots) applied to every host core; the
    /// RoT steps one instruction at a time and has no block cache. See
    /// [`SocConfig::decode_cache_slots`].
    pub block_cache_slots: usize,
}

/// The `mcause` value delivered for a CFI violation (a custom exception
/// code in the implementation-defined range, as a hardware design would).
pub const CFI_VIOLATION_CAUSE: u64 = 24;

impl Default for SocConfig {
    fn default() -> SocConfig {
        SocConfig {
            queue_depth: 8,
            firmware: FirmwareKind::Polling,
            mem_size: 1 << 20,
            timing: TimingConfig::default(),
            axi: AxiTiming::default(),
            halt_on_violation: false,
            trap_host_on_violation: false,
            resilience: ResilienceConfig::default(),
            faults: None,
            fast_path: riscv_isa::predecode::fast_path_default(),
            block_compile: riscv_isa::predecode::fast_path_default(),
            decode_cache_slots: riscv_isa::DecodeCache::DEFAULT_SLOTS,
            block_cache_slots: riscv_isa::BlockCache::DEFAULT_SLOTS,
        }
    }
}

/// Health of the RoT core as seen by the co-simulation scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RotHealth {
    /// Stepping normally.
    Healthy,
    /// Wedged by an injected hang; never steps again.
    Hung,
    /// Trapped (real firmware bug or injected fault); never steps again.
    Trapped(riscv_isa::Trap),
}

/// Aggregate results of a co-simulated run.
#[derive(Debug, Clone)]
pub struct SocReport {
    /// Why the host program stopped.
    pub halt: Halt,
    /// Total cycles including CFI stalls.
    pub cycles: u64,
    /// Host core counters.
    pub core: cva6_model::CoreStats,
    /// CFI filter counters (both ports merged).
    pub filter: titancfi::FilterStats,
    /// Commit logs fully checked by the RoT.
    pub logs_checked: u64,
    /// Violations the RoT flagged.
    pub violations: Vec<Violation>,
    /// Peak CFI queue occupancy.
    pub queue_high_water: usize,
    /// Core stall events from a full queue.
    pub stalls_queue_full: u64,
    /// Core stall events from dual control-flow commits.
    pub stalls_dual_cf: u64,
    /// Log Writer watchdog firings (completion waits that timed out).
    pub watchdog_timeouts: u64,
    /// Log Writer delivery retries.
    pub writer_retries: u64,
    /// Logs abandoned under [`FailPolicy::FailOpen`] escalation.
    pub logs_dropped: u64,
    /// Violations synthesized by [`FailPolicy::FailClosed`] escalation.
    pub forced_violations: u64,
    /// The RoT firmware trap, if one occurred (always populated when `halt`
    /// is [`Halt::FirmwareTrap`]; also populated under fail-open, where the
    /// run continues past the trap).
    pub firmware_trap: Option<riscv_isa::Trap>,
    /// Fault-injection ledger, when a fault schedule was configured.
    pub faults: Option<FaultReport>,
}

impl SocReport {
    /// Slowdown relative to a baseline cycle count (percent).
    #[must_use]
    pub fn slowdown_percent(&self, baseline_cycles: u64) -> f64 {
        if baseline_cycles == 0 {
            return 0.0;
        }
        (self.cycles as f64 / baseline_cycles as f64 - 1.0) * 100.0
    }
}

/// One monitored host core with its private commit-port state.
#[derive(Debug)]
pub(crate) struct Host {
    pub(crate) core: Cva6Core<HostBus>,
    pub(crate) filter: CfiFilter,
    /// Why the core stopped, once it has.
    pub(crate) halt: Option<Halt>,
    /// Commit cycle of the core's last streamed log (dual-CF stall check).
    last_cf_cycle: Option<u64>,
}

/// The composed system on chip: host cores sharing one CFI transport and
/// RoT. Built by [`SystemOnChip::new`] with a single host core, which every
/// public accessor refers to.
#[derive(Debug)]
pub struct SystemOnChip {
    pub(crate) hosts: Vec<Host>,
    queue: CfiQueue,
    controller: QueueController,
    pub(crate) writer: LogWriter,
    rot: OpenTitan,
    pub(crate) config: SocConfig,
    bg_cycle: u64,
    /// Block-mode carry-over: the RoT's SoC access on the last tick the
    /// event-driven advance processed left the completion flag set, and the
    /// writer has not yet run to observe it. Forces one writer tick at the
    /// head of the next [`SystemOnChip::advance_background_fast`].
    bg_poke: bool,
    pub(crate) violations: Vec<Violation>,
    trapped_violations: usize,
    scmi_service: ScmiWireService,
    recorder: Option<Recorder>,
    /// Latency-only probe ([`SystemOnChip::attach_latency`]); ignored while
    /// a full recorder is attached (the recorder collects its own spans).
    latency: Option<LatencyCollector>,
    /// `[cfi_begin, cfi_end)` of the booted firmware, for phase attribution.
    cfi_range: (u64, u64),
    /// Whether a firmware `cfi-check` span is currently open.
    fw_checking: bool,
    /// RoT health (injected hangs/traps stop the core from stepping).
    rot_health: RotHealth,
    /// `poll_loop` address of polling firmwares (glitch recovery point);
    /// zero for IRQ firmware.
    poll_pc: u64,
    /// When enabled, every commit log pushed into the CFI queue is also
    /// recorded here, with its source core alongside — purely
    /// observational (no timing effect), used by the differential fuzzer
    /// to compare commit-log streams byte for byte.
    pub(crate) log_tap: Option<(Vec<CommitLog>, Vec<u8>)>,
}

/// The RoT firmware image a SoC with `hosts` host cores boots under `kind`:
/// Table I's routine for one host, one shadow-stack bank per core for two.
/// The banked firmware polls, so it fails the IRQ boot.
fn firmware_image(kind: FirmwareKind, hosts: usize) -> Program {
    match hosts {
        1 => firmware::build_firmware(kind),
        2 => firmware::build_multicore_firmware(),
        n => panic!("the RoT firmware serves one or two host cores, not {n}"),
    }
}

/// Static counter name for one (phase, category) firmware cycle cell —
/// the probe-facing mirror of [`titancfi::Breakdown`]'s 2×3 matrix.
fn fw_counter_name(phase: Phase, category: Category) -> &'static str {
    match (phase, category) {
        (Phase::Irq, Category::Logic) => "fw.cycles.irq.logic",
        (Phase::Irq, Category::MemRot) => "fw.cycles.irq.mem_rot",
        (Phase::Irq, Category::MemSoc) => "fw.cycles.irq.mem_soc",
        (Phase::Cfi, Category::Logic) => "fw.cycles.cfi.logic",
        (Phase::Cfi, Category::MemRot) => "fw.cycles.cfi.mem_rot",
        (Phase::Cfi, Category::MemSoc) => "fw.cycles.cfi.mem_soc",
    }
}

impl SystemOnChip {
    /// Builds the SoC, loads `program` into host RAM, boots the RoT
    /// firmware to its idle point.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit host RAM or the firmware fails to
    /// boot.
    #[must_use]
    pub fn new(program: &Program, config: SocConfig) -> SystemOnChip {
        SystemOnChip::with_hosts(&[program], config)
    }

    /// Builds the engine with one host core per program — core `i` runs
    /// `programs[i]` in its own `config.mem_size` bytes of RAM — and boots
    /// the RoT firmware for `config.firmware` and the host count to its
    /// idle point ([`firmware_image`]).
    ///
    /// # Panics
    ///
    /// Panics unless there are one or two programs, if a program does not
    /// fit host RAM, or if the firmware fails to boot.
    pub(crate) fn with_hosts(programs: &[&Program], config: SocConfig) -> SystemOnChip {
        let fw = firmware_image(config.firmware, programs.len());
        let BootedRot {
            mut rot,
            cfi_range,
            poll_loop: poll_pc,
        } = firmware::boot(&fw, config.firmware, config.decode_cache_slots);
        rot.core.set_predecode(config.fast_path);
        // The general SCMI system mailbox (host-accessible, one channel per
        // host bus): version and remote-attestation services, attesting the
        // booted CFI firmware.
        let scmi_service = ScmiWireService::new(b"titancfi-attestation-key", &fw.bytes);
        let hosts = programs
            .iter()
            .map(|program| {
                // Host bus: program RAM, the host's SCMI channel, and the
                // mailbox window locked down by PMP exactly as the paper's
                // threat model assumes (software cannot tamper with
                // in-flight commit logs; only the hardware Log Writer
                // reaches the mailbox).
                assert!(
                    program.bytes.len() <= config.mem_size,
                    "program ({} bytes) larger than memory ({})",
                    program.bytes.len(),
                    config.mem_size
                );
                let mut bus = HostBus::new(program.base, config.mem_size);
                bus.load(program.base, &program.bytes);
                bus.protect_mailbox();
                let mut core = Cva6Core::with_bus(bus, program.entry, config.timing);
                core.hart_mut().set_reg(
                    riscv_isa::Reg::SP,
                    (program.base + config.mem_size as u64 - 16) & !0xf,
                );
                // Size the simulator caches before any instruction executes.
                // Predecode is a per-core property of this SoC instance; pin
                // it to the config rather than the global default so A/B
                // runs in one process stay independent.
                core.resize_caches(config.decode_cache_slots, config.block_cache_slots);
                core.set_predecode(config.fast_path);
                Host {
                    core,
                    filter: CfiFilter::new(),
                    halt: None,
                    last_cf_cycle: None,
                }
            })
            .collect();
        let mut writer = LogWriter::with_resilience(config.axi, config.resilience);
        if let Some(faults) = config.faults.filter(FaultConfig::enabled) {
            writer.attach_injector(FaultInjector::new(faults));
        }
        // A single host's transport runs with word-7 integrity on: it costs
        // no cycles (the word rides the final AXI beat) and catches
        // in-flight corruption before the RoT ever sees it. With two hosts
        // word 7 carries the source core id instead, which the banked image
        // booted above reads to pick a shadow stack.
        if programs.len() == 1 {
            rot.mailbox_mut().enable_integrity();
        }
        SystemOnChip {
            hosts,
            queue: CfiQueue::new(config.queue_depth),
            controller: QueueController::new(),
            writer,
            rot,
            config,
            bg_cycle: 0,
            bg_poke: false,
            violations: Vec::new(),
            trapped_violations: 0,
            scmi_service,
            recorder: None,
            latency: None,
            cfi_range,
            fw_checking: false,
            rot_health: RotHealth::Healthy,
            poll_pc,
            log_tap: None,
        }
    }

    /// Starts capturing every commit log pushed into the CFI queue. The tap
    /// is a pure observer — it records at the existing push site and does
    /// not change scheduling, batching legality, or any report field.
    pub fn enable_log_tap(&mut self) {
        self.log_tap = Some((Vec::new(), Vec::new()));
    }

    /// Detaches and returns the captured commit-log stream, if a tap was
    /// enabled.
    pub fn take_log_tap(&mut self) -> Option<Vec<CommitLog>> {
        self.log_tap.take().map(|(logs, _)| logs)
    }

    /// Drains the logs captured since the last drain, leaving the tap
    /// enabled — the incremental form [`SystemOnChip::run_slice`] callers
    /// (fleet devices) use between slices. Returns an empty vector when no
    /// tap is enabled.
    pub fn drain_log_tap(&mut self) -> Vec<CommitLog> {
        self.log_tap
            .as_mut()
            .map(|(logs, cores)| {
                cores.clear();
                std::mem::take(logs)
            })
            .unwrap_or_default()
    }

    /// Violations flagged so far — readable mid-run between
    /// [`SystemOnChip::run_slice`] calls, before a report exists.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Current host cycle — readable mid-run between
    /// [`SystemOnChip::run_slice`] calls, before a report exists.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.hosts[0].core.cycle()
    }

    /// Sets [`SocConfig::fast_path`] after construction, on every core.
    pub(crate) fn set_fast_path(&mut self, on: bool) {
        self.config.fast_path = on;
        for host in &mut self.hosts {
            host.core.set_predecode(on);
        }
        self.rot.core.set_predecode(on);
    }

    /// Attaches a full [`Recorder`] (metrics + timeline + firmware
    /// profiler); subsequent [`SystemOnChip::run`] cycles are instrumented.
    /// Without this call the simulation takes the uninstrumented path.
    pub fn attach_recorder(&mut self) {
        let fw = firmware_image(self.config.firmware, self.hosts.len());
        let mut recorder = Recorder::new().with_profiler(&fw.symbols);
        recorder
            .metrics
            .declare_histogram("queue.occupancy", Histogram::occupancy());
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the recorder (for export / reporting).
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Read access to the attached recorder, when one is present.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Attaches the lightweight per-log latency collector — lifecycle
    /// boundary stamps only, no timeline or metric registry. Unlike a full
    /// recorder it keeps block dispatch: the stamps fire at queue pushes
    /// and Log Writer events, which the event-driven advance simulates at
    /// their exact cycles, so every report field and all latency stamps
    /// are byte-identical across stepping modes (pinned by
    /// `tests/latency_spans.rs`).
    pub fn attach_latency(&mut self) {
        self.latency = Some(LatencyCollector::new());
    }

    /// Detaches and returns the latency collector.
    pub fn take_latency(&mut self) -> Option<LatencyCollector> {
        self.latency.take()
    }

    /// The collected per-log latency spans, from whichever probe is
    /// attached: the standalone collector or a full recorder.
    #[must_use]
    pub fn latency_spans(&self) -> Option<&LatencySpans> {
        match (&self.recorder, &self.latency) {
            (Some(rec), _) => Some(&rec.latency),
            (None, Some(lat)) => Some(&lat.spans),
            (None, None) => None,
        }
    }

    /// The SHA-256 measurement of the booted CFI firmware — what a remote
    /// verifier expects attestation reports to carry.
    #[must_use]
    pub fn firmware_measurement(&self) -> [u8; 32] {
        self.scmi_service.measurement()
    }

    /// Advances the background machinery (Log Writer + RoT) to `until`.
    fn advance_background(&mut self, until: u64) {
        while self.bg_cycle < until {
            // Fast-forward across true idleness.
            if self.queue.is_empty()
                && !self.writer.busy()
                && !self.rot.mailbox().doorbell_pending()
            {
                Self::poll_scmi(&mut self.scmi_service, &mut self.hosts);
                if let Some(rec) = self.recorder.as_mut() {
                    // The skipped cycles all see an empty queue; record them
                    // in bulk so the occupancy histogram stays per-cycle.
                    let skipped = until - self.bg_cycle;
                    rec.metrics.record_n("queue.occupancy", 0, skipped);
                    rec.metrics.add("soc.idle_fast_forward_cycles", skipped);
                }
                self.bg_cycle = until;
                self.rot.core.advance_to(until);
                return;
            }
            self.tick_once();
        }
    }

    /// Serves each host's SCMI channel, in core order.
    fn poll_scmi(service: &mut ScmiWireService, hosts: &mut [Host]) {
        for host in hosts {
            service.poll(host.core.bus_mut().scmi_mut());
        }
    }

    fn tick_once(&mut self) {
        let mut noprobe = NoProbe;
        let probe: &mut dyn Probe = match (self.recorder.as_mut(), self.latency.as_mut()) {
            (Some(rec), _) => rec,
            (None, Some(lat)) => lat,
            (None, None) => &mut noprobe,
        };
        // Firmware check span: opens when the doorbell is rung, closes
        // when the firmware's completion write auto-clears it.
        let mut pending_trap: Option<riscv_isa::Trap> = None;
        let doorbell = self.rot.mailbox().doorbell_pending();
        if doorbell && !self.fw_checking {
            probe.span_begin(Track::Firmware, "cfi-check", self.bg_cycle);
            self.fw_checking = true;
            // Check-entry fault window: the firmware has not touched policy
            // state yet, so a glitch here restarts the check idempotently.
            if self.rot_health == RotHealth::Healthy {
                let fault = self
                    .writer
                    .injector_mut()
                    .map_or(CheckFault::None, FaultInjector::check_fault);
                match fault {
                    CheckFault::None => {}
                    CheckFault::Glitch => {
                        probe.instant(Track::Firmware, "fault.glitch", self.bg_cycle);
                        if self.poll_pc != 0 {
                            // Transient PC upset: the core restarts from the
                            // poll loop and re-enters the pending check.
                            self.rot.core.hart.pc = self.poll_pc;
                        }
                    }
                    CheckFault::Hang => {
                        probe.instant(Track::Firmware, "fault.hang", self.bg_cycle);
                        self.rot_health = RotHealth::Hung;
                    }
                    CheckFault::Trap => {
                        pending_trap = Some(riscv_isa::Trap::IllegalInstruction(0xdead_c0de));
                    }
                }
            }
        } else if !doorbell && self.fw_checking {
            probe.span_end(Track::Firmware, self.bg_cycle);
            self.fw_checking = false;
        }
        if let Some(v) = self.writer.tick_probed(
            self.bg_cycle,
            &mut self.queue,
            self.rot.mailbox_mut(),
            probe,
        ) {
            self.violations.push(v);
        }
        probe.histogram_record("queue.occupancy", self.queue.len() as u64);
        Self::poll_scmi(&mut self.scmi_service, &mut self.hosts);
        self.rot.sync_irq();
        let runnable = self.rot_health == RotHealth::Healthy
            && (self.rot.core.state() == ibex_model::IbexState::Running
                || self.rot.mailbox().doorbell_pending());
        if runnable && self.rot.core.cycle() <= self.bg_cycle {
            match self.rot.core.step_probed(probe) {
                Ok(commit) => {
                    if probe.enabled() {
                        let pc = commit.retired.pc;
                        let phase = if (self.cfi_range.0..self.cfi_range.1).contains(&pc) {
                            Phase::Cfi
                        } else {
                            Phase::Irq
                        };
                        let category = Category::from_access(commit.mem_kind);
                        probe.counter_add(fw_counter_name(phase, category), commit.cost);
                    }
                }
                Err(ibex_model::IbexEvent::Trapped(t)) => {
                    // A real firmware bug: report it structurally instead of
                    // panicking the whole campaign worker.
                    pending_trap = Some(t);
                }
                Err(_) => {}
            }
        }
        if let Some(t) = pending_trap {
            self.record_firmware_trap(t);
        }
        self.bg_cycle += 1;
    }

    /// Event-driven form of [`SystemOnChip::advance_background`], used by
    /// the block-compiled fast path. Per-tick semantics are identical to
    /// [`SystemOnChip::tick_once`] — writer first, then the IRQ fabric,
    /// then at most one RoT instruction — but provably inert ticks (no
    /// writer event due per [`LogWriter::next_event`], no RoT instruction
    /// retiring) are jumped over instead of simulated. With
    /// `until_queue_space` the advance instead runs until the CFI queue has
    /// a free slot (the queue-full commit stall) and `until` is ignored.
    ///
    /// Only legal under [`SystemOnChip::block_dispatch`]: no recorder,
    /// injector, or per-commit violation policy. An attached latency
    /// collector is fed at the writer ticks simulated here.
    fn advance_background_fast(&mut self, until: u64, until_queue_space: bool) {
        if until_queue_space {
            if !self.queue.is_full() {
                return;
            }
        } else if self.bg_cycle >= until {
            return;
        }
        // The host cores are frozen for the whole advance, so a pending SCMI
        // request is served once up front — when the first per-tick poll
        // would have run it. (SCMI and the CFI transport never interact.)
        Self::poll_scmi(&mut self.scmi_service, &mut self.hosts);
        // The doorbell level, re-read after everything below that can move
        // it. The per-cycle tick path syncs the IRQ fabric before its RoT
        // step, so a completion on that step can leave the line stale: sync
        // on entry too.
        let mut doorbell = self.sync_doorbell();
        // A completion the RoT wrote at the tail of the previous advance
        // may not have been observed yet: force one writer tick before
        // trusting the event schedule. Carried across calls so the common
        // caught-up advance pays no forced tick.
        let mut poke = std::mem::take(&mut self.bg_poke);
        loop {
            let done = if until_queue_space {
                !self.queue.is_full()
            } else {
                self.bg_cycle >= until
            };
            if done {
                self.bg_poke = poke;
                return;
            }
            // True idleness: nothing moves until a host acts again. A
            // pending poke tick would be a no-op here (idle writer, empty
            // queue), so it is dropped rather than carried.
            if self.queue.is_empty() && !self.writer.busy() && !doorbell {
                self.bg_cycle = self.bg_cycle.max(until);
                self.rot.core.advance_to(self.bg_cycle);
                return;
            }
            let writer_next = self
                .writer
                .next_event(self.bg_cycle, !self.queue.is_empty())
                .map(|e| e.max(self.bg_cycle));
            let rot_runnable = self.rot_health == RotHealth::Healthy
                && (self.rot.core.state() == ibex_model::IbexState::Running || doorbell);
            let rot_next = if rot_runnable {
                Some(self.rot.core.cycle().max(self.bg_cycle))
            } else {
                None
            };
            let mut next = if until_queue_space {
                // Jump to the earliest due event — the writer always
                // schedules progress while the queue is backed up (at worst
                // the completion watchdog). Creeping one tick when neither
                // machine has anything due matches the per-cycle loop's
                // (non-)progress on a wedged transport.
                match (writer_next, rot_next) {
                    (Some(w), Some(r)) => w.min(r),
                    (Some(e), None) | (None, Some(e)) => e,
                    (None, None) => self.bg_cycle + 1,
                }
            } else {
                until
            };
            if poke {
                next = self.bg_cycle;
            }
            if let Some(w) = writer_next {
                next = next.min(w);
            }
            if let Some(r) = rot_next {
                next = next.min(r);
            }
            if next > self.bg_cycle {
                // Jumped-over ticks are no-ops by construction: the writer
                // has no event due and the RoT has no instruction retiring.
                self.bg_cycle = next;
                continue;
            }
            // ---- simulate the tick at `self.bg_cycle` ----
            let writer_due = poke || writer_next == Some(self.bg_cycle);
            poke = false;
            if writer_due {
                // Every lifecycle stamp a latency collector takes past the
                // queue push fires inside a writer tick, and skipped ticks
                // are no-ops, so the collector rides the event schedule.
                let (cycle, queue, mailbox) =
                    (self.bg_cycle, &mut self.queue, self.rot.mailbox_mut());
                let verdict = match self.latency.as_mut() {
                    Some(lat) => self.writer.tick_probed(cycle, queue, mailbox, lat),
                    None => self.writer.tick(cycle, queue, mailbox),
                };
                if let Some(v) = verdict {
                    self.violations.push(v);
                }
                // The writer may have rung the doorbell on its final beat:
                // sync the IRQ fabric before deciding the RoT step, exactly
                // as the per-tick path does between the writer and the core.
                doorbell = self.sync_doorbell();
            }
            let rot_steps = self.rot_health == RotHealth::Healthy
                && (self.rot.core.state() == ibex_model::IbexState::Running || doorbell)
                && self.rot.core.cycle() <= self.bg_cycle;
            if rot_steps {
                match self.rot.core.step() {
                    Ok(commit) => {
                        if commit.mem_kind == Some(ibex_model::RegionKind::Soc) {
                            // The RoT may have written its completion word
                            // (auto-clearing the doorbell); the writer must
                            // observe it on the next tick, as it would when
                            // ticked every cycle. Without a completion that
                            // tick is a no-op: every other writer event is
                            // on its own schedule.
                            poke = self.rot.mailbox().host_completion();
                            doorbell = self.sync_doorbell();
                        }
                    }
                    Err(ibex_model::IbexEvent::Trapped(t)) => {
                        self.record_firmware_trap(t);
                        doorbell = self.sync_doorbell();
                    }
                    Err(_) => {}
                }
            }
            self.bg_cycle += 1;
        }
    }

    /// Propagates the mailbox doorbell to the RoT's IRQ line and the
    /// firmware-check window after anything in the event-driven advance
    /// that can move it: a writer tick, an RoT access to the SoC fabric
    /// (mailbox or PLIC), or a firmware trap. Returns the doorbell level.
    fn sync_doorbell(&mut self) -> bool {
        self.fw_checking = self.rot.sync_irq();
        self.fw_checking
    }

    /// One commit of host `i` in the configured dispatch mode: a plain
    /// step, or a whole superblock bounded by `until` with the skipped
    /// straight-line retirements accounted to the filter (the hardware
    /// scans every retirement).
    fn host_step(&mut self, i: usize, block: bool, until: u64) -> Result<Commit, Halt> {
        let host = &mut self.hosts[i];
        // A bound one cycle ahead admits a single commit before the core
        // must yield; a plain step retires it without the block lookup.
        if !block || until <= host.core.cycle() + 1 {
            return host.core.step();
        }
        let bs = host.core.step_block(until);
        if bs.straightline > 0 {
            host.filter.note_straightline(bs.straightline);
            if bs.result.is_err() {
                // The failing op retired nothing, but the straight-line ops
                // before it did: bring the background up to the last
                // retirement, exactly where per-op stepping would have left
                // it at the halt.
                let cycle = host.core.cycle();
                self.advance_background_fast(cycle, false);
            }
        }
        bs.result
    }

    /// Records a RoT firmware trap (injected or genuine) as a structured
    /// outcome: the core stops stepping, the mailbox transaction is torn
    /// down so the host side cannot wedge, and the run loop surfaces
    /// [`Halt::FirmwareTrap`] (fail-closed) or keeps going with the trap
    /// noted in the report (fail-open).
    fn record_firmware_trap(&mut self, trap: riscv_isa::Trap) {
        if matches!(self.rot_health, RotHealth::Trapped(_)) {
            return;
        }
        self.rot_health = RotHealth::Trapped(trap);
        let cycle = self.bg_cycle;
        if let Some(rec) = self.recorder.as_mut() {
            rec.counter_add("fw.traps", 1);
            rec.instant(Track::Firmware, "fault.trap", cycle);
        }
        if let Some(inj) = self.writer.injector_mut() {
            inj.note_detected(FaultClass::FirmwareTrap);
            inj.note_escalated();
        }
        // Clear the interface so neither side spins on a dead exchange.
        self.rot.mailbox_mut().host_abort();
    }

    /// The recorded firmware trap, if any.
    pub(crate) fn firmware_trap(&self) -> Option<riscv_isa::Trap> {
        match self.rot_health {
            RotHealth::Trapped(t) => Some(t),
            _ => None,
        }
    }

    /// Runs the host program to completion (or `max_cycles`), co-simulating
    /// the CFI pipeline.
    #[must_use]
    pub fn run(&mut self, max_cycles: u64) -> SocReport {
        let halt = self.run_slice(max_cycles).unwrap_or(Halt::Budget);
        self.finish(halt)
    }

    /// The live core that is furthest behind (ties go to the lower index) —
    /// the one the interleaving scheduler steps next.
    fn next_host(&self) -> Option<usize> {
        (0..self.hosts.len())
            .filter(|&i| self.hosts[i].halt.is_none())
            .min_by_key(|&i| self.hosts[i].core.cycle())
    }

    /// The cycle at which host `i` must yield: `budget`, or where another
    /// live core becomes the one furthest behind — at a lower-indexed
    /// core's cycle, or one past a higher-indexed core's (ties go to the
    /// lower index).
    fn yield_cycle(&self, i: usize, budget: u64) -> u64 {
        self.hosts
            .iter()
            .enumerate()
            .filter(|&(j, host)| j != i && host.halt.is_none())
            .map(|(j, host)| host.core.cycle() + u64::from(j > i))
            .fold(budget, u64::min)
    }

    /// Stops every core that is still running with `halt`.
    pub(crate) fn halt_live(&mut self, halt: Halt) {
        for host in &mut self.hosts {
            host.halt.get_or_insert(halt);
        }
    }

    /// Whether [`SystemOnChip::run_slice`] takes the block scheduler:
    /// superblock dispatch plus event-driven background advances. It needs
    /// [`SocConfig::fast_path`] and [`SocConfig::block_compile`], and
    /// nothing that watches the skipped per-cycle boundaries: no recorder
    /// sampling every cycle, no fault schedule drawing on transport events,
    /// and no halt- or trap-on-violation policy, which the reference
    /// semantics check at every commit. A latency collector does not count:
    /// it stamps only queue pushes and writer events, which the block
    /// scheduler simulates at their exact cycles.
    #[must_use]
    pub fn block_dispatch(&self) -> bool {
        self.config.fast_path
            && self.config.block_compile
            && self.recorder.is_none()
            && self.writer.injector().is_none()
            && !self.config.halt_on_violation
            && !self.config.trap_host_on_violation
    }

    /// Advances the co-simulation until every host core reaches
    /// `until_cycle` (absolute) or halts for a real reason. Returns `None`
    /// at the cycle limit with all state intact — calling again with a
    /// later limit resumes exactly where this slice paused, which is how a
    /// fleet device runs thousands of cheap, pausable SoC snapshots on one
    /// scheduler. Once every core has halted it returns core 0's halt.
    /// In-flight transport work is *not* drained between slices; call
    /// [`SystemOnChip::finish`] once a `Some` halt (or the final slice)
    /// arrives.
    pub fn run_slice(&mut self, until_cycle: u64) -> Option<Halt> {
        let block = self.block_dispatch();
        loop {
            let Some(i) = self.next_host() else {
                return self.hosts[0].halt;
            };
            if self.hosts[i].core.cycle() >= until_cycle {
                return None;
            }
            // Host `i` stays the one furthest behind until it reaches
            // `until`, so it runs there without being picked again. A halt
            // of every core (`halt_live`) ends this loop too.
            let until = self.yield_cycle(i, until_cycle);
            while self.hosts[i].halt.is_none() && self.hosts[i].core.cycle() < until {
                if let Some(t) = self.firmware_trap() {
                    if self.config.resilience.policy == FailPolicy::FailClosed {
                        // Fail closed: a dead checker means unchecked hosts;
                        // stop them all and surface the trap structurally.
                        self.halt_live(Halt::FirmwareTrap(t));
                    }
                }
                if self.config.halt_on_violation && !self.violations.is_empty() {
                    self.halt_live(Halt::Breakpoint);
                }
                if self.hosts[i].halt.is_some() {
                    break;
                }
                if let Err(halt) = self.step_host(i, block, until) {
                    self.hosts[i].halt = Some(halt);
                }
            }
        }
    }

    /// Runs host `i` for one commit — or, in block mode, for a batch of
    /// straight-line commits up to the next CFI-relevant commit, device
    /// access or `until` — then brings the background up to the last
    /// commit and applies that commit's CFI effects.
    fn step_host(&mut self, i: usize, block: bool, until: u64) -> Result<(), Halt> {
        let mut commit = self.host_step(i, block, until)?;
        let mut batch_halt = None;
        if block {
            // Block mode batches through busy transport phases: a host and
            // the background only interact at queue pushes (CFI-relevant
            // commits) and device-window accesses, and another core only
            // runs once this one reaches `until`. Batches end at all
            // three, so deferring the background catch-up to the batch
            // boundary composes to the same state.
            loop {
                let host = &mut self.hosts[i];
                if commit.cf_class.is_cfi_relevant()
                    || host.core.bus_mut().take_io_access()
                    || host.core.cycle() >= until
                {
                    break;
                }
                // The filter hardware scans every retirement; account the
                // skipped straight-line ones.
                host.filter.note_straightline(1);
                match self.host_step(i, block, until) {
                    Ok(c) => commit = c,
                    Err(h) => {
                        batch_halt = Some(h);
                        break;
                    }
                }
            }
            self.advance_background_fast(commit.cycle, false);
        } else {
            self.advance_background(commit.cycle);
        }
        if let Some(h) = batch_halt {
            // The halting instruction retired nothing; the last commit was
            // straight-line and already accounted.
            return Err(h);
        }
        // Deliver any violation the background machinery found while this
        // instruction was in flight.
        if self.config.trap_host_on_violation && self.violations.len() > self.trapped_violations {
            let v = self.violations[self.trapped_violations];
            self.trapped_violations = self.violations.len();
            self.hosts[usize::from(v.core)]
                .core
                .inject_exception(CFI_VIOLATION_CAUSE, v.log.target);
        }
        if let Some(log) = self.hosts[i]
            .filter
            .scan_classified(&commit.retired, commit.cf_class)
        {
            self.push_log(i, log, commit.cycle, block);
        }
        Ok(())
    }

    /// Pushes host `i`'s log into the CFI queue after the Queue
    /// Controller's commit stalls: one cycle when the core's previous log
    /// committed in the same cycle, and the wait for a free slot when the
    /// queue is full.
    fn push_log(&mut self, i: usize, log: CommitLog, commit_cycle: u64, block: bool) {
        let core = u8::try_from(i).expect("core ids fit the queue's u8 tag");
        if let Some((logs, cores)) = self.log_tap.as_mut() {
            logs.push(log);
            cores.push(core);
        }
        let host = &mut self.hosts[i];
        // Dual-CF conflict: two CF logs in the same commit cycle cannot both
        // be pushed (paper §IV-B2).
        if host.last_cf_cycle == Some(commit_cycle) {
            self.controller.stalls_dual_cf += 1;
            host.core.stall(1);
            if let Some(rec) = self.recorder.as_mut() {
                rec.metrics.add("stall.dual_cf", 1);
                rec.timeline
                    .instant(Track::HostCommit, "stall.dual_cf", self.bg_cycle);
            }
        }
        host.last_cf_cycle = Some(commit_cycle);
        // Queue full: stall the commit stage until the Log Writer frees a
        // slot.
        if block && self.queue.is_full() {
            // Event-driven form of the wait below (no recorder attached in
            // block mode); the stall total is the same ticks the per-cycle
            // loop would have burned, skipped ones included.
            let before = self.bg_cycle;
            self.advance_background_fast(0, true);
            let waited = self.bg_cycle - before;
            self.controller.stalls_queue_full += waited;
            self.hosts[i].core.stall(waited);
        } else if self.queue.is_full() {
            if let Some(rec) = self.recorder.as_mut() {
                rec.timeline
                    .span_begin(Track::HostCommit, "stall.queue_full", self.bg_cycle);
            }
            while self.queue.is_full() {
                // Sub-attribute the stalled cycle by what the pipeline is
                // waiting on: the Log Writer's AXI beats, or the RoT still
                // checking.
                let axi_busy = matches!(self.writer.state(), WriterState::Writing { .. });
                let before = self.bg_cycle;
                self.tick_once();
                let waited = self.bg_cycle - before;
                self.controller.stalls_queue_full += waited;
                self.hosts[i].core.stall(waited);
                if let Some(rec) = self.recorder.as_mut() {
                    rec.metrics.add("stall.queue_full", waited);
                    rec.metrics.add(
                        if axi_busy {
                            "stall.axi_busy"
                        } else {
                            "stall.fw_wait"
                        },
                        waited,
                    );
                }
            }
            if let Some(rec) = self.recorder.as_mut() {
                rec.timeline.span_end(Track::HostCommit, self.bg_cycle);
            }
        }
        let mut noprobe = NoProbe;
        let probe: &mut dyn Probe = match (self.recorder.as_mut(), self.latency.as_mut()) {
            (Some(rec), _) => rec,
            (None, Some(lat)) => lat,
            (None, None) => &mut noprobe,
        };
        let pushed = self
            .queue
            .push_probed(TaggedLog { core, log }, self.bg_cycle, probe);
        debug_assert!(pushed, "push after full-wait must succeed");
    }

    /// Drains in-flight transport work and assembles the final report for a
    /// run that stopped with `halt` — the second half of [`SystemOnChip::run`],
    /// exposed so sliced runs ([`SystemOnChip::run_slice`]) can settle the
    /// transport exactly once at teardown.
    pub fn finish(&mut self, halt: Halt) -> SocReport {
        self.drain();
        let host = &self.hosts[0];
        SocReport {
            halt,
            cycles: host.core.cycle(),
            core: host.core.stats(),
            filter: host.filter.stats(),
            logs_checked: self.writer.logs_written,
            violations: self.violations.clone(),
            queue_high_water: self.queue.max_occupancy,
            stalls_queue_full: self.controller.stalls_queue_full,
            stalls_dual_cf: self.controller.stalls_dual_cf,
            watchdog_timeouts: self.writer.watchdog_timeouts,
            writer_retries: self.writer.retries,
            logs_dropped: self.writer.dropped_logs,
            forced_violations: self.writer.forced_violations,
            firmware_trap: self.firmware_trap(),
            faults: self.writer.injector().map(FaultInjector::report),
        }
    }

    /// Drains in-flight checks so counters are final. With a trapped RoT
    /// under fail-closed there is nothing left to drain (the writer can
    /// only watchdog against a dead checker); fail-open drains normally,
    /// escalation dropping whatever the RoT can no longer check.
    pub(crate) fn drain(&mut self) {
        let mut guard = 0u64;
        while !(self.firmware_trap().is_some()
            && self.config.resilience.policy == FailPolicy::FailClosed)
            && (!self.queue.is_empty()
                || self.writer.busy()
                || self.rot.mailbox().doorbell_pending())
            && guard < 10_000_000
        {
            self.tick_once();
            guard += 1;
        }
        // The drain loop exits on the doorbell-clearing tick, before the
        // next tick would notice the transition — close the span here.
        if self.fw_checking {
            if let Some(rec) = self.recorder.as_mut() {
                rec.timeline.span_end(Track::Firmware, self.bg_cycle);
            }
            self.fw_checking = false;
        }
    }

    /// Host register read-back (for checking program results).
    #[must_use]
    pub fn host_reg(&self, r: riscv_isa::Reg) -> u64 {
        self.hosts[0].core.reg(r)
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Number of host accesses blocked by the mailbox PMP guard (tamper
    /// attempts from software).
    #[must_use]
    pub fn pmp_denials(&mut self) -> u64 {
        self.hosts[0].core.bus_mut().pmp_denials
    }

    /// Direct access to the host bus (verifier-side readback in tests).
    pub fn host_bus_mut(&mut self) -> &mut HostBus {
        self.hosts[0].core.bus_mut()
    }
}

/// Runs `program` without any CFI machinery — the baseline for slowdowns.
#[must_use]
pub fn run_baseline(program: &Program, config: &SocConfig) -> (Halt, u64) {
    let mut core = Cva6Core::new(program, config.mem_size, config.timing);
    let halt = core.run_silent(u64::MAX / 2);
    (halt, core.cycle())
}
