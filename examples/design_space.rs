//! Walks the Figure-4 reexecution-region design spectrum on the four
//! Figure-2 atomicity-violation patterns: the further right the policy,
//! the more patterns recover — and the more runtime support it costs.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use conair::{AnalysisConfig, Conair, RegionPolicy};
use conair_runtime::{run_scripted, MachineConfig};
use conair_workloads::{build_micro, AtomicityPattern};

fn main() {
    println!("pattern  | strict | compensated | buffered-writes");
    println!("---------+--------+-------------+----------------");
    for pattern in AtomicityPattern::ALL {
        let mut cells = Vec::new();
        for policy in RegionPolicy::ALL {
            let m = build_micro(pattern);
            let pipeline = Conair::with_config(AnalysisConfig {
                policy,
                ..AnalysisConfig::default()
            });
            let hardened = pipeline.harden(&m.program);
            let machine = MachineConfig {
                buffered_writes: policy == RegionPolicy::BufferedWrites,
                max_retries: 2_000,
                ..MachineConfig::default()
            };
            let r = run_scripted(&hardened.program, &machine, &m.bug_script, 0);
            let recovered =
                r.outcome.is_completed() && r.outputs_for(&m.expected.0) == m.expected.1;
            cells.push(if recovered { "yes" } else { "no " });
        }
        println!(
            "{:8} | {:6} | {:11} | {}",
            pattern.name(),
            cells[0],
            cells[1],
            cells[2]
        );
        // The expectation from paper Section 2.2: only RAW and WAR need
        // shared-write reexecution.
        assert_eq!(cells[1] == "yes", pattern.idempotent_recoverable());
        assert_eq!(cells[2], "yes");
    }
    println!();
    println!("Idempotent regions (ConAir's design point) recover WAW and RAR;");
    println!("RAW and WAR need the buffered-writes extension or a full restart —");
    println!("the trade-off sketched in Figure 4 of the paper.");
}
