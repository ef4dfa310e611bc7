//! Shared harness utilities for the experiment binaries (`src/bin/e*.rs`)
//! and the Criterion benches.
//!
//! Each experiment binary regenerates one row-set of EXPERIMENTS.md; see
//! DESIGN.md's per-experiment index for the mapping to the paper's claims.

#![forbid(unsafe_code)]

use sep_kernel::config::{DeviceSpec, KernelConfig, RegimeSpec};
use sep_model::check::{CheckReport, Condition};
use sep_model::parallel::ExploreStats;
use sep_obs::json::Json;
use std::time::Instant;

/// Prints a Markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells
            .iter()
            .map(|c| "-".repeat(c.len() + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
}

/// Times a closure, returning (result, milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// One timing measurement: wall-clock milliseconds (machine-dependent,
/// reporting only) plus the deterministic instruction count the workload
/// retired (identical on every machine and every run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Wall-clock milliseconds.
    pub ms: f64,
    /// Machine instructions retired during the closure.
    pub instructions: u64,
}

/// Times a closure that also reports how many machine instructions it
/// retired. Wall clock answers "how fast here"; the instruction count is
/// the reproducible cost that belongs in a deterministic report.
pub fn timed_instr<T>(f: impl FnOnce() -> (T, u64)) -> (T, Timing) {
    let start = Instant::now();
    let (out, instructions) = f();
    let ms = start.elapsed().as_secs_f64() * 1000.0;
    (out, Timing { ms, instructions })
}

/// The standard register workload used by the verification experiments:
/// `n` regimes computing in registers with varying condition codes, each
/// yielding voluntarily.
pub fn register_workload(n: usize) -> KernelConfig {
    let regimes = (0..n)
        .map(|i| {
            let stride = i + 1;
            let mask = 0o177770;
            let source = format!(
                "
start:  ADD #{stride}, R1
        BIC #{mask}, R1
        MOV #{}, R3
        BIT #1, R1
        BEQ even
        SEC
        TRAP 0
        BR start
even:   CLC
        TRAP 0
        BR start
",
                0o1111 * (i + 1)
            );
            RegimeSpec::assembly(&format!("regime{i}"), &source)
        })
        .collect();
    KernelConfig::new(regimes)
}

/// A memory-writing workload (partition contents vary).
pub fn memory_workload(n: usize) -> KernelConfig {
    let regimes = (0..n)
        .map(|i| {
            let stride = i + 1;
            let source = format!(
                "
start:  ADD #{stride}, counter
        BIC #0o177770, counter
        TRAP 0
        BR start
counter: .word 0
"
            );
            RegimeSpec::assembly(&format!("regime{i}"), &source)
        })
        .collect();
    KernelConfig::new(regimes)
}

/// `n` interchangeable regimes for the state-space-reduction experiments:
/// identical pure-yield programs, each owning a serial line with a
/// one-byte receive queue fed by the host. Every regime image is the same,
/// so the configuration is symmetric under every rotation; the bounded
/// queue keeps the host-input state space small enough to enumerate; and
/// with no registers or counters in the program, rotated states genuinely
/// recur — the symmetry reduction's best case, which E2 measures.
///
/// Pair with `with_input_bytes(&[1])` on the verification adapter: the
/// single byte value keeps the alphabet closed under rotation.
pub fn symmetric_workload(n: usize) -> KernelConfig {
    let prog = "
start:  TRAP 0
        BR start
";
    KernelConfig::new(
        (0..n)
            .map(|i| {
                RegimeSpec::assembly(&format!("peer{i}"), prog)
                    .with_device(DeviceSpec::SerialRx { capacity: 1 })
            })
            .collect(),
    )
}

/// A checker run as deterministic JSON for a `BENCH_obs_*.json` report:
/// the state/op/input counts, per-condition check counters, verdict, the
/// violated conditions, and (for sharded runs) the exploration statistics
/// including per-shard ownership and reduction counters. Contains no
/// wall-clock values, so identical runs serialize to identical bytes.
pub fn checker_run_json(report: &CheckReport, stats: Option<&ExploreStats>) -> Json {
    let mut j = Json::obj()
        .field("states", report.states)
        .field("ops", report.ops)
        .field("inputs", report.inputs)
        .field(
            "checks",
            Json::Arr(report.checks.iter().map(|&c| Json::from(c)).collect()),
        )
        .field("total_checks", report.total_checks())
        .field("separable", report.is_separable())
        .field(
            "violated_conditions",
            Json::Arr(
                Condition::ALL
                    .iter()
                    .filter(|&&c| report.violations_of(c).next().is_some())
                    .map(|c| Json::from(u64::from(c.number())))
                    .collect(),
            ),
        )
        .field("violations", report.violations.len());
    if let Some(s) = stats {
        j = j
            .field("shards", s.shards)
            .field("levels", s.levels)
            .field("threaded_levels", s.threaded_levels)
            .field("max_frontier", s.max_frontier)
            .field("truncated", s.truncated)
            .field("fp_bytes", s.fp_bytes)
            .field(
                "reduction",
                Json::obj()
                    .field("canon", s.reduction.canon)
                    .field("ample", s.reduction.ample)
                    .field("ample_skips", s.reduction.ample_skips)
                    .field("bloom_negatives", s.reduction.bloom_negatives)
                    .field("bloom_false_positives", s.reduction.bloom_false_positives),
            )
            .field(
                "per_shard",
                Json::Arr(
                    s.per_shard
                        .iter()
                        .map(|sh| {
                            Json::obj()
                                .field("owned", sh.owned)
                                .field("expanded", sh.expanded)
                                .field("routed", sh.routed)
                        })
                        .collect(),
                ),
            );
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use sep_kernel::kernel::SeparationKernel;

    #[test]
    fn workloads_boot_and_run() {
        for n in [2, 3, 4] {
            let mut k = SeparationKernel::boot(register_workload(n)).unwrap();
            k.run(100);
            assert!(k.stats.swaps > 0);
            let mut k = SeparationKernel::boot(memory_workload(n)).unwrap();
            k.run(100);
            assert!(k.stats.instructions > 0);
        }
    }

    #[test]
    fn timed_measures() {
        let (v, ms) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }
}
