//! Overhead sweep: queue depth × firmware variant on a real kernel, plus
//! the trace-model view of the same sweep — the design-space exploration
//! behind the paper's choice of an 8-entry CFI queue.
//!
//! Run with: `cargo run --example overhead_sweep`

use titancfi::firmware::FirmwareKind;
use titancfi_soc::{run_baseline, SocConfig, SystemOnChip};
use titancfi_trace::{simulate, Trace};
use titancfi_workloads::kernels::{all_kernels, KERNEL_MEM};
use titancfi_workloads::published::{LATENCY_IRQ, LATENCY_OPT, LATENCY_POLL};

fn main() {
    let kernel = all_kernels()
        .find(|k| k.name == "dhry-calls")
        .expect("kernel");
    let program = kernel.program().expect("assembles");
    let base_config = SocConfig {
        mem_size: KERNEL_MEM,
        ..SocConfig::default()
    };
    let (_, baseline) = run_baseline(&program, &base_config);

    println!(
        "Full-system sweep on `{}` (baseline {baseline} cycles)\n",
        kernel.name
    );
    println!(
        "{:<12} {:>6} {:>12} {:>10}",
        "Firmware", "Depth", "Cycles", "Slowdown"
    );
    println!("{}", "-".repeat(44));
    for fw in FirmwareKind::ALL {
        for depth in [1usize, 2, 4, 8, 16] {
            let config = SocConfig {
                firmware: fw,
                queue_depth: depth,
                mem_size: KERNEL_MEM,
                ..SocConfig::default()
            };
            let mut soc = SystemOnChip::new(&program, config);
            let report = soc.run(1_000_000_000);
            assert_eq!(report.halt, cva6_model::Halt::Breakpoint);
            assert!(report.violations.is_empty(), "benign kernel flagged");
            println!(
                "{:<12} {:>6} {:>12} {:>9.1}%",
                fw.name(),
                depth,
                report.cycles,
                report.slowdown_percent(baseline)
            );
        }
    }

    // The same sweep through the (much faster) trace model, demonstrating
    // that the abstract model tracks the full co-simulation.
    let mut bare = cva6_model::Cva6Core::new(&program, KERNEL_MEM, base_config.timing);
    let (commits, _) = bare.run(1_000_000_000);
    let trace = Trace::from_commits(&commits, bare.cycle());
    println!(
        "\nTrace-model view ({} control-flow events):\n",
        trace.cf_count()
    );
    println!("{:<12} {:>6} {:>10}", "Latency", "Depth", "Slowdown");
    println!("{}", "-".repeat(30));
    for (name, latency) in [
        ("IRQ", LATENCY_IRQ),
        ("Polling", LATENCY_POLL),
        ("Optimized", LATENCY_OPT),
    ] {
        for depth in [1usize, 8] {
            let out = simulate(&trace, latency, depth);
            println!("{name:<12} {depth:>6} {:>9.1}%", out.slowdown_percent());
        }
    }
}
