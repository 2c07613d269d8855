//! Chaos pass over the resident server: runs the packaged fault
//! scenarios of [`topk_bench::faults`] — shed, retry-through-overload,
//! journal replay after a simulated `kill -9`, the overload-latency
//! bound (accepted requests ≤2× uncontended while the shed path is
//! busy), replication (bootstrap, tail, primary death, promotion,
//! divergence check), client endpoint failover, a memory-pressure ramp
//! and a storm of expired deadlines — and exits non-zero if any
//! scenario's invariant fails. See `docs/ROBUSTNESS.md`.
//!
//! ```sh
//! cargo run -p topk-bench --release --bin exp_chaos
//! ```

fn main() {
    match topk_bench::faults::run_chaos() {
        Ok(outcomes) => {
            for o in &outcomes {
                println!("  chaos {:<16} OK: {}", o.name, o.detail);
            }
            println!(
                "chaos OK: {} scenarios held their invariants",
                outcomes.len()
            );
        }
        Err(e) => {
            topk_obs::error!("chaos FAILED: {e}");
            std::process::exit(1);
        }
    }
}
