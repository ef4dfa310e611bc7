//! The differential checker harness: the frontier-sharded production
//! checker must produce a [`CheckReport`] **equal** to the reference
//! checker's (sequential conditions over the naive exact-dedup explorer) —
//! same state/op/input counts, same per-condition check counters, same
//! violation set in the same order with the same witness text — for every
//! workload, mutation, and shard count. `CheckReport` derives `Eq`, so a
//! single `assert_eq!` pins all of it.
//!
//! Runs against the real kernel (`sep-kernel` + `sep-bench` workloads — a
//! dev-only dependency cycle Cargo permits) and against the model's own
//! demo machine with every seeded leak. One kernel leg is wide enough that
//! the threaded expansion and dedup path runs, and asserts that it did.

use sep_bench::{memory_workload, register_workload, symmetric_workload};
use sep_kernel::config::{KernelConfig, Mutation};
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use sep_model::check::{CheckReport, Condition, SeparabilityChecker};
use sep_model::demo::{DemoMachine, Leak};
use sep_model::parallel::ParallelSeparabilityChecker;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The violated conditions of a report, in paper order.
fn violated(report: &CheckReport) -> Vec<u8> {
    Condition::ALL
        .iter()
        .filter(|&&c| report.violations_of(c).next().is_some())
        .map(|c| c.number())
        .collect()
}

fn assert_differential(cfg: KernelConfig, label: &str) -> CheckReport {
    let sys = KernelSystem::new(cfg).unwrap();
    let seq = sys.check_with(&CheckerSelect::Sequential);
    for shards in SHARD_COUNTS {
        let par = sys.check_with(&CheckerSelect::Sharded { shards });
        assert_eq!(seq, par, "{label}, shards {shards}");
    }
    seq
}

#[test]
fn register_workloads_are_shard_invariant() {
    for n in [2usize, 3, 4] {
        let report = assert_differential(register_workload(n), &format!("registers({n})"));
        assert!(report.is_separable(), "registers({n}): {report}");
    }
}

#[test]
fn memory_workloads_are_shard_invariant() {
    for n in [2usize, 3, 4] {
        let report = assert_differential(memory_workload(n), &format!("memory({n})"));
        assert!(report.is_separable(), "memory({n}): {report}");
    }
}

#[test]
fn kernel_mutants_are_detected_identically() {
    for mutation in [
        Mutation::None,
        Mutation::SkipR3Save,
        Mutation::LeakConditionCodes,
        Mutation::ScratchInPartition,
    ] {
        let mut cfg = register_workload(2);
        cfg.mutation = mutation;
        let seq = assert_differential(cfg, &format!("mutant {mutation:?}"));
        if mutation == Mutation::None {
            assert!(seq.is_separable(), "unmutated kernel must pass: {seq}");
        } else {
            assert!(
                !seq.is_separable(),
                "mutant {mutation:?} must be caught: {seq}"
            );
            assert!(
                !violated(&seq).is_empty(),
                "mutant {mutation:?} names no violated condition"
            );
        }
    }
}

#[test]
fn demo_machine_leaks_are_shard_invariant() {
    for leak in Leak::ALL_LEAKS.into_iter().chain([Leak::None]) {
        let m = DemoMachine::leaky(4, leak);
        let abstractions = m.abstractions();
        let seq = SeparabilityChecker::new().check(&m, &abstractions);
        for shards in SHARD_COUNTS {
            let par = ParallelSeparabilityChecker::new(shards).check(&m, &abstractions);
            assert_eq!(seq, par, "leak {leak:?}, shards {shards}");
            assert_eq!(
                violated(&seq),
                violated(&par),
                "leak {leak:?}, shards {shards}: violated conditions diverge"
            );
        }
        assert_eq!(seq.is_separable(), leak == Leak::None, "leak {leak:?}");
    }
}

#[test]
fn wide_levels_run_threaded_and_match_the_reference() {
    // The register and memory legs are chain-shaped (one input, frontier
    // width 1), below the inline threshold `width * inputs >= shards * 8`,
    // so they never reach the threaded expansion and dedup. Three
    // symmetric regimes fed host bytes, with no reductions, reach a
    // frontier of 54 states under 4 inputs: wide enough to thread at every
    // shard count tested.
    let sys = KernelSystem::new(symmetric_workload(3))
        .unwrap()
        .with_input_bytes(&[1]);
    let reference = sys.check_with(&CheckerSelect::Sequential);
    assert!(reference.is_separable(), "{reference}");
    for shards in SHARD_COUNTS {
        let (par, stats) = sys.check_with_stats(&CheckerSelect::Sharded { shards });
        let stats = stats.expect("sharded runs report stats");
        assert_eq!(reference, par, "wide leg, shards {shards}");
        assert_eq!(stats.max_frontier, 54, "wide leg, shards {shards}");
        if shards > 1 {
            assert!(
                stats.threaded_levels > 0,
                "shards {shards}: the threaded path never ran: {stats:?}"
            );
        } else {
            assert_eq!(stats.threaded_levels, 0, "one shard always runs inline");
        }
    }
}
