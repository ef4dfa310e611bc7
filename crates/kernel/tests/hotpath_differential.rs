//! Differential suite for the hot-path engine at the kernel level.
//!
//! Three claims, each pinned against the slow path it replaces:
//!
//! 1. **Execution**: a kernel run is byte-identical across all three
//!    engines — the slow path, the decode-table-only path, and the full
//!    superblock tier — same events, stats, state vector, and rendered
//!    observability report (the report excludes the hot-path counters by
//!    design, so this equality is exact).
//! 2. **Recovery**: `FaultPolicy::Restart` re-imaging behaves identically
//!    under warm caches — the PR 4 regression this PR must not break.
//! 3. **Verification**: the sharded checker's 128-bit fingerprint
//!    seen-sets give the same Proof of Separability report as the
//!    reference checker's exact full-state dedup — across shard counts,
//!    the classic kernel mutants, and the fault-op state space.
//! 4. **Shared RAM**: explored states share machine RAM copy-on-write —
//!    a register-only state space keeps the initial state's one buffer —
//!    and the reports stay equal to the reference's.

use sep_fault::FaultPlan;
use sep_kernel::config::{KernelConfig, Mutation, RegimeSpec};
use sep_kernel::fault;
use sep_kernel::kernel::{KernelEvent, SeparationKernel};
use sep_kernel::regime::{FaultPolicy, PARTITION_SIZE};
use sep_kernel::verify::{distinct_ram_buffers, CheckerSelect, KernelSystem};
use sep_machine::{IO_BASE, PAGE_SIZE};
use sep_obs::RunReport;
use std::sync::Arc;

const COUNTER: &str = "
start:  INC counter
        BIC #0o177774, counter
        TRAP 0
        BR start
counter: .word 0
";

const YIELDER: &str = "
start:  ADD #3, R1
        BIC #0o177770, R1
        MOV #0o2222, R3
        TRAP 0
        BR start
";

fn workload() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("red", COUNTER),
        RegimeSpec::assembly("black", YIELDER),
    ])
}

/// The three execution engines the machine offers: no caches at all, the
/// decode table + TLB alone, and the full superblock tier on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    Slow,
    Decode,
    Tier,
}

fn select_engine(k: &mut SeparationKernel, engine: Engine) {
    match engine {
        Engine::Slow => k.machine.set_hotpath(false),
        Engine::Decode => k.machine.set_superblocks(false),
        Engine::Tier => assert!(k.machine.superblocks(), "tier is the default"),
    }
}

/// Everything two kernel runs could disagree on, with the execution engine
/// forced before the first step.
fn fingerprint(
    cfg: KernelConfig,
    engine: Engine,
    steps: u64,
) -> (Vec<KernelEvent>, String, Vec<u64>, String) {
    let mut k = SeparationKernel::boot(cfg.with_trace(64)).unwrap();
    select_engine(&mut k, engine);
    let events = k.run(steps);
    let trace = k.machine.obs.disable_tracing();
    let report = RunReport::new("hotpath_differential")
        .param("steps", steps)
        .run_with_trace("kernel", &k.machine.obs.metrics, trace.as_ref(), 16)
        .render();
    (events, format!("{:?}", k.stats), k.state_vector(), report)
}

#[test]
fn kernel_run_is_byte_identical_across_all_engines() {
    let slow = fingerprint(workload(), Engine::Slow, 3000);
    for engine in [Engine::Decode, Engine::Tier] {
        assert_eq!(
            fingerprint(workload(), engine, 3000),
            slow,
            "{engine:?} is architecturally visible"
        );
    }
}

#[test]
fn restart_reimaging_is_identical_under_warm_caches() {
    // The crasher scribbles and dies; Restart re-images its partition from
    // the boot template. With the caches warm at fault time, the re-imaged
    // regime must replay exactly what it replays with the caches off.
    let crasher = "
start:  INC runs
        MOV #0o7777, scratch
        TRAP 77
scratch: .word 0
runs:   .word 0
";
    let build = || {
        KernelConfig::new(vec![
            RegimeSpec::assembly("crasher", crasher).with_fault_policy(FaultPolicy::Restart {
                budget: 2,
                backoff_slots: 1,
            }),
            RegimeSpec::assembly("worker", COUNTER),
        ])
    };
    let slow = fingerprint(build(), Engine::Slow, 800);
    for engine in [Engine::Decode, Engine::Tier] {
        assert_eq!(
            fingerprint(build(), engine, 800),
            slow,
            "re-imaging behaves differently under {engine:?}"
        );
    }
    assert!(
        slow.0
            .iter()
            .any(|e| matches!(e, KernelEvent::Restarted { regime: 0 })),
        "the restart actually happened"
    );
}

#[test]
fn fault_storm_runs_are_identical_across_all_engines() {
    // Seeded fault injection (bit flips, regime faults, interrupt noise)
    // exercises partition re-imaging and MMU reprogramming mid-run.
    let run = |engine: Engine| {
        let cfg = KernelConfig::new(vec![
            RegimeSpec::assembly("victim", COUNTER).with_fault_policy(FaultPolicy::Restart {
                budget: 3,
                backoff_slots: 2,
            }),
            RegimeSpec::assembly("worker", COUNTER),
        ]);
        let mut k = SeparationKernel::boot(cfg.with_trace(64)).unwrap();
        select_engine(&mut k, engine);
        let mut plan = FaultPlan::generate(0xFEED, &[0], 1500, 16, PARTITION_SIZE);
        let mut events = Vec::new();
        for _ in 0..3000 {
            fault::apply_due(&mut k, &mut plan);
            events.extend(k.run(1));
        }
        let trace = k.machine.obs.disable_tracing();
        let report = RunReport::new("hotpath_storm")
            .run_with_trace("kernel", &k.machine.obs.metrics, trace.as_ref(), 16)
            .render();
        (events, k.state_vector(), report)
    };
    let slow = run(Engine::Slow);
    for engine in [Engine::Decode, Engine::Tier] {
        assert_eq!(run(engine), slow, "fault storm diverged under {engine:?}");
    }
}

// ---------------------------------------------------------------------------
// Checker: sharded fingerprint dedup is report-identical to the reference's
// exact dedup.
// ---------------------------------------------------------------------------

#[test]
fn mutant_verdicts_are_identical_under_fingerprint_dedup() {
    for mutation in [
        Mutation::None,
        Mutation::SkipR3Save,
        Mutation::LeakConditionCodes,
        Mutation::ScratchInPartition,
    ] {
        let mut cfg = workload();
        cfg.mutation = mutation;
        let sys = KernelSystem::new(cfg).unwrap();
        let reference = sys.check_with(&CheckerSelect::Sequential);
        assert_eq!(
            reference.is_separable(),
            mutation == Mutation::None,
            "mutant {mutation:?} verdict"
        );
        for shards in [1, 2, 4] {
            let sharded = sys.check_with(&CheckerSelect::Sharded { shards });
            assert_eq!(reference, sharded, "mutant {mutation:?}, shards {shards}");
        }
    }
}

#[test]
fn fault_op_state_space_is_identical_under_fingerprint_dedup() {
    // The PR 4 state space: restart policies put backoff, re-imaging, and
    // exhausted budgets into the explored set.
    let policy = FaultPolicy::Restart {
        budget: 1,
        backoff_slots: 1,
    };
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("red", YIELDER).with_fault_policy(policy),
        RegimeSpec::assembly("black", YIELDER).with_fault_policy(policy),
    ]);
    let sys = KernelSystem::new(cfg).unwrap().with_fault_ops();
    let reference = sys.check_with(&CheckerSelect::Sequential);
    assert!(reference.is_separable(), "{reference}");
    for shards in [1, 4] {
        let sharded = sys.check_with(&CheckerSelect::Sharded { shards });
        assert_eq!(
            reference, sharded,
            "sharded fingerprint run diverged ({shards})"
        );
    }
}

#[test]
fn sharded_fingerprint_stats_report_the_compact_seen_set() {
    let sys = KernelSystem::new(workload()).unwrap();
    let (report, stats) = sys.check_with_stats(&CheckerSelect::Sharded { shards: 4 });
    assert!(report.is_separable(), "{report}");
    assert_eq!(report, sys.check_with(&CheckerSelect::Sequential));
    let stats = stats.expect("sharded runs report stats");
    assert_eq!(stats.states, report.states);
    assert_eq!(
        stats.fp_bytes,
        16 * stats.states as u64,
        "16 bytes per resident key"
    );
}

// ---------------------------------------------------------------------------
// Shared RAM: explored states copy machine RAM only when a step stores.
// ---------------------------------------------------------------------------

#[test]
fn register_only_states_all_share_the_initial_ram() {
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("red", YIELDER),
        RegimeSpec::assembly("black", YIELDER),
    ]);
    let sys = KernelSystem::new(cfg).unwrap();
    let (states, _) = sys.explore_sharded(2);
    assert!(states.len() > 1);
    for s in &states {
        assert!(
            s.kernel
                .machine
                .mem
                .shares_storage_with(&sys.template.machine.mem),
            "{s:?} copied RAM without storing"
        );
    }
    assert_eq!(distinct_ram_buffers(&states), 1);
    let reference = sys.check_with(&CheckerSelect::Sequential);
    assert_eq!(
        sys.check_with(&CheckerSelect::Sharded { shards: 2 }),
        reference
    );
}

#[test]
fn memory_writing_states_copy_their_ram() {
    let sys = KernelSystem::new(workload()).unwrap();
    let (states, _) = sys.explore_sharded(2);
    assert!(
        distinct_ram_buffers(&states) >= 2,
        "the counter store must copy RAM out of the shared buffer"
    );
    // Stores land in regime partitions only, and copy only their page:
    // every other page of every state is still the template's.
    let template = &sys.template.machine.mem;
    let partitions: Vec<u32> = sys
        .template
        .regimes
        .iter()
        .map(|r| r.partition_base)
        .collect();
    for s in &states {
        for base in (0..IO_BASE).step_by(PAGE_SIZE as usize) {
            if !partitions.contains(&base) {
                assert!(
                    Arc::ptr_eq(s.kernel.machine.mem.page(base), template.page(base)),
                    "{s:?} copied the untouched page at {base:o}"
                );
            }
        }
    }
    let reference = sys.check_with(&CheckerSelect::Sequential);
    assert_eq!(
        sys.check_with(&CheckerSelect::Sharded { shards: 2 }),
        reference
    );
}
