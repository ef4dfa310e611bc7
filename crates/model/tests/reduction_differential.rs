//! The reduction differential harness: turning any combination of the
//! state-space reductions on — regime-symmetry canonicalization, the
//! partial-order ample-set selector, the Bloom pre-filter — must not
//! change what the Proof of Separability concludes.
//!
//! The oracle is the reference checker (`CheckerSelect::Sequential`): the
//! sequential conditions over the naive exact-dedup explorer, which never
//! reduces whatever the knobs say. Reductions live in the frontier-sharded
//! checker alone. Four properties are pinned, for every workload family,
//! every kernel mutant, and every on/off combination of the three
//! reductions:
//!
//! 1. **Verdict soundness** — the sharded verdict and the *set of violated
//!    conditions* equal the unreduced reference's.
//! 2. **Shard invariance** — the sharded checker produces byte-identical
//!    [`CheckReport`]s (`CheckReport` derives `Eq`) at every shard count.
//! 3. **Exactness without pruning** — combinations with symmetry and
//!    partial order both off (plain, Bloom-only) explore the unreduced
//!    space, so their sharded report equals the reference report.
//! 4. **Coverage families** — memory, register, channel, fault-op, and
//!    scheduler (static-cyclic) workloads all go through the same gauntlet,
//!    so a reduction cannot be sound merely because a workload never
//!    exercises it.
//!
//! Runs against the real kernel (`sep-kernel` + `sep-bench` workloads — a
//! dev-only dependency cycle Cargo permits).

use sep_bench::{memory_workload, register_workload, symmetric_workload};
use sep_kernel::config::{DeviceSpec, KernelConfig, Mutation, RegimeSpec, SchedPolicy};
use sep_kernel::regime::FaultPolicy;
use sep_kernel::verify::{canon_key, CheckerSelect, KernelSystem};
use sep_model::check::{CheckReport, Condition};
use sep_model::fp::{fingerprint, BloomParams, Dedup};
use sep_model::system::Finite;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The eight on/off combinations of (symmetry, partial order, Bloom).
const COMBOS: [(bool, bool, bool); 8] = [
    (false, false, false),
    (true, false, false),
    (false, true, false),
    (false, false, true),
    (true, true, false),
    (true, false, true),
    (false, true, true),
    (true, true, true),
];

/// The violated conditions of a report, in paper order.
fn violated(report: &CheckReport) -> Vec<u8> {
    Condition::ALL
        .iter()
        .filter(|&&c| report.violations_of(c).next().is_some())
        .map(|c| c.number())
        .collect()
}

/// Builds the verification adapter for `cfg` with the given input alphabet,
/// fault ops, and reduction knobs.
fn system(
    cfg: KernelConfig,
    bytes: &[u8],
    fault_ops: bool,
    (sym, por, bloom): (bool, bool, bool),
) -> KernelSystem {
    let mut sys = KernelSystem::new(cfg)
        .unwrap()
        .with_input_bytes(bytes)
        .with_symmetry(sym)
        .with_por(por);
    if fault_ops {
        sys = sys.with_fault_ops();
    }
    if bloom {
        sys = sys.with_dedup(Dedup::Bloom(BloomParams::default()));
    }
    sys
}

/// Pins one combination's sharded report against the reference: same
/// verdict and violated conditions always, the identical report when
/// neither symmetry nor partial order prunes.
fn assert_matches_reference(
    sharded: &CheckReport,
    reference: &CheckReport,
    (sym, por, bloom): (bool, bool, bool),
    label: &str,
) {
    let combo = (sym, por, bloom);
    assert_eq!(
        sharded.is_separable(),
        reference.is_separable(),
        "{label}, combo {combo:?}: reduction changed the verdict"
    );
    assert_eq!(
        violated(sharded),
        violated(reference),
        "{label}, combo {combo:?}: reduction changed the violated conditions"
    );
    if !sym && !por {
        assert_eq!(
            sharded, reference,
            "{label}, combo {combo:?}: unreduced sharded report diverged from the reference"
        );
    }
}

/// The core gauntlet: for every reduction combination, the sharded
/// checker matches the unreduced reference (see
/// [`assert_matches_reference`]), and its report is the same at one shard
/// and at a second shard count. The second count rotates across combos to
/// cover the product without running all of it; the all-on combo gets the
/// full sweep separately.
fn assert_reduction_differential(
    make: impl Fn() -> KernelConfig,
    bytes: &[u8],
    fault_ops: bool,
    label: &str,
) -> CheckReport {
    let reference =
        system(make(), bytes, fault_ops, COMBOS[0]).check_with(&CheckerSelect::Sequential);
    for (i, combo) in COMBOS.into_iter().enumerate() {
        let sys = system(make(), bytes, fault_ops, combo);
        let one = sys.check_with(&CheckerSelect::Sharded { shards: 1 });
        assert_matches_reference(&one, &reference, combo, label);
        let shards = SHARD_COUNTS[1 + i % (SHARD_COUNTS.len() - 1)];
        let par = sys.check_with(&CheckerSelect::Sharded { shards });
        assert_eq!(one, par, "{label}, combo {combo:?}, shards {shards}");
    }
    reference
}

const SENDER: &str = "
start:  MOV #0, R0
        MOV #msg, R1
        MOV #2, R2
        TRAP 1
        TRAP 0
        BR start
msg:    .byte 1, 2
        .even
";

const RECEIVER: &str = "
start:  MOV #0, R0
        MOV #buf, R1
        MOV #2, R2
        TRAP 2
        TRAP 0
        BR start
buf:    .blkw 2
";

/// Two regimes joined by the one permitted channel, cut for verification
/// (the wire-cutting argument the adapter insists on).
fn channel_workload() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("tx", SENDER),
        RegimeSpec::assembly("rx", RECEIVER),
    ])
    .with_channel(0, 1, 2)
    .cut_channels()
}

/// Two restartable counting regimes (the fault-containment workload).
fn restartable_workload() -> KernelConfig {
    let policy = FaultPolicy::Restart {
        budget: 1,
        backoff_slots: 1,
    };
    KernelConfig::new(vec![
        RegimeSpec::assembly(
            "red",
            "start: INC R1\n BIC #0o177774, R1\n TRAP 0\n BR start",
        )
        .with_fault_policy(policy),
        RegimeSpec::assembly(
            "black",
            "start: ADD #3, R1\n BIC #0o177770, R1\n TRAP 0\n BR start",
        )
        .with_fault_policy(policy),
    ])
}

/// Two identical regimes that each enable their serial line's transmit
/// interrupt (`CSR_IE` in XCSR) and write XBUF: the transmitter's request
/// arrives on the device's second vector, so explored states carry a
/// pending interrupt on vector slot 1 (binding 0's transmit side).
fn transmit_interrupt_workload() -> KernelConfig {
    let prog = "
start:  MOV #0o100, @#0o160004  ; XCSR: transmit interrupt enable
        MOVB #101, @#0o160006   ; XBUF
        TRAP 0
        BR start
";
    KernelConfig::new(
        (0..2)
            .map(|i| RegimeSpec::assembly(&format!("tx{i}"), prog).with_device(DeviceSpec::Serial))
            .collect(),
    )
}

/// Pins the rotation encoding the symmetry key is built from, on every
/// reachable state: `symmetry_vector(k)` is the state vector of the kernel
/// after `rotate_regime_contents(k)`, for every `k`, and `canon_key` is the
/// minimum fingerprint of the identity and valid-rotation symmetry vectors.
/// The second property fixes the seen-set key values themselves.
#[test]
fn rotation_encoding_matches_rotated_kernels_and_keys() {
    let families: [(&str, KernelConfig, &[u8]); 3] = [
        ("symmetric(2)", symmetric_workload(2), &[7, 9]),
        ("symmetric(3)", symmetric_workload(3), &[7, 9]),
        ("transmit-irq", transmit_interrupt_workload(), &[]),
    ];
    for (label, cfg, bytes) in families {
        let sys = system(cfg, bytes, false, COMBOS[0]);
        let rots = sys.valid_rotations();
        let n = sys.template.regimes.len();
        assert_eq!(
            rots,
            (1..n).collect::<Vec<_>>(),
            "{label}: symmetry must apply"
        );
        let states = sys.states();
        for (idx, s) in states.iter().enumerate() {
            let fps = s.kernel.partition_fingerprints();
            assert_eq!(
                s.kernel.symmetry_vector(0, &fps),
                s.kernel.state_vector(),
                "{label}, state {idx}: rotation 0 is not the state vector"
            );
            let mut key = fingerprint(&s.kernel.symmetry_vector(0, &fps));
            for k in 0..n {
                let mut rotated = s.kernel.clone();
                rotated.rotate_regime_contents(k);
                let encoded = s.kernel.symmetry_vector(k, &fps);
                assert_eq!(
                    encoded,
                    rotated.state_vector(),
                    "{label}, state {idx}, rotation {k}"
                );
                if rots.contains(&k) {
                    key = key.min(fingerprint(&encoded));
                }
            }
            assert_eq!(canon_key(&rots, s), key, "{label}, state {idx}: key value");
        }
    }
}

#[test]
fn memory_workload_is_reduction_invariant() {
    let report = assert_reduction_differential(|| memory_workload(2), &[], false, "memory(2)");
    assert!(report.is_separable(), "memory(2): {report}");
}

#[test]
fn register_workload_is_reduction_invariant() {
    let report = assert_reduction_differential(|| register_workload(2), &[], false, "registers(2)");
    assert!(report.is_separable(), "registers(2): {report}");
}

#[test]
fn channel_workload_is_reduction_invariant() {
    // Channels disable the symmetry rotation (regimes joined by a channel
    // are not interchangeable) but exercise the ample rule's channel
    // footprints: a step by the sending regime conflicts with anything
    // touching the channel.
    let report = assert_reduction_differential(channel_workload, &[], false, "channel");
    assert!(report.is_separable(), "channel: {report}");
}

#[test]
fn symmetric_workload_with_inputs_is_reduction_invariant() {
    // The reduction showcase: interchangeable regimes fed host bytes, where
    // symmetry and the ample rule both genuinely prune (E2 measures how
    // much). Soundness must hold exactly where the reductions bite.
    let report =
        assert_reduction_differential(|| symmetric_workload(2), &[1], false, "symmetric(2)");
    assert!(report.is_separable(), "symmetric(2): {report}");
}

#[test]
fn transmit_interrupts_are_reduction_invariant() {
    // Each serial line owns two vector slots (receive, transmit), so the
    // symmetry key must find a pending interrupt's binding at slot / 2.
    // Engagement guard: the unreduced space really holds a slot-1
    // interrupt, and the rotation the reduction quotients by is valid.
    let sys = system(transmit_interrupt_workload(), &[], false, COMBOS[0]);
    assert_eq!(sys.valid_rotations(), vec![1], "symmetry must apply");
    let states = sys.states();
    assert!(
        states.iter().any(|s| s
            .kernel
            .regimes
            .iter()
            .any(|r| r.pending_irqs.iter().any(|&(slot, _)| slot == 1))),
        "no explored state holds a transmit (slot 1) interrupt"
    );
    let reference =
        assert_reduction_differential(transmit_interrupt_workload, &[], false, "transmit-irq");
    let reduced = system(
        transmit_interrupt_workload(),
        &[],
        false,
        (true, false, false),
    )
    .check_with(&CheckerSelect::Sharded { shards: 1 });
    assert!(
        reduced.states < reference.states,
        "symmetry pruned nothing: {} of {}",
        reduced.states,
        reference.states
    );
}

#[test]
fn fault_op_space_is_reduction_invariant() {
    // Fault ops seed exploration with pre-faulted initial states and add
    // the Fault op at every state; reductions must not prune a post-fault
    // trajectory into a different verdict.
    let report = assert_reduction_differential(restartable_workload, &[], true, "fault-ops");
    assert!(report.is_separable(), "fault-ops: {report}");
}

#[test]
fn static_cyclic_schedule_is_reduction_invariant() {
    // Static-cyclic scheduling exercises the ample rule's schedulability
    // proviso (an input may only be deferred if its target regime will be
    // scheduled again) and disables symmetry (the table breaks rotation
    // invariance).
    let make = || symmetric_workload(2).with_sched(SchedPolicy::StaticCyclic { table: vec![0, 1] });
    let report = assert_reduction_differential(make, &[1], false, "static-cyclic");
    assert!(report.is_separable(), "static-cyclic: {report}");
}

#[test]
fn mutant_matrix_is_reduction_invariant() {
    // The soundness acceptance test: every kernel sabotage from the mutant
    // matrix must be caught — same verdict, same violated conditions —
    // under every reduction combination. A reduction that pruned the
    // violating region of the space would show up here as a mutant
    // escaping under one combo.
    for mutation in [
        Mutation::None,
        Mutation::SkipR3Save,
        Mutation::LeakConditionCodes,
        Mutation::ScratchInPartition,
    ] {
        let make = || {
            let mut cfg = register_workload(2);
            cfg.mutation = mutation;
            cfg
        };
        let reference =
            system(make(), &[], false, COMBOS[0]).check_with(&CheckerSelect::Sequential);
        if mutation == Mutation::None {
            assert!(reference.is_separable(), "unmutated kernel must pass");
        } else {
            assert!(
                !reference.is_separable(),
                "mutant {mutation:?} must be caught: {reference}"
            );
        }
        for combo in COMBOS {
            let sys = system(make(), &[], false, combo);
            let par = sys.check_with(&CheckerSelect::Sharded { shards: 2 });
            assert_matches_reference(&par, &reference, combo, &format!("mutant {mutation:?}"));
        }
        // Shard invariance for the mutant under the all-on combo (the
        // per-combo shard sweep lives in the workload tests above).
        let sys = system(make(), &[], false, (true, true, true));
        let one = sys.check_with(&CheckerSelect::Sharded { shards: 1 });
        let par = sys.check_with(&CheckerSelect::Sharded { shards: 2 });
        assert_eq!(one, par, "mutant {mutation:?}: sharded report diverged");
    }
}

#[test]
fn full_shard_sweep_with_every_reduction_on() {
    // The all-on combo across the full shard-count sweep, on the workload
    // where the reductions prune hardest.
    let combo = (true, true, true);
    let reference = system(symmetric_workload(3), &[1], false, COMBOS[0])
        .check_with(&CheckerSelect::Sequential);
    let sys = system(symmetric_workload(3), &[1], false, combo);
    let one = sys.check_with(&CheckerSelect::Sharded { shards: 1 });
    assert!(one.is_separable(), "{one}");
    assert_matches_reference(&one, &reference, combo, "symmetric(3)");
    for shards in SHARD_COUNTS {
        let par = sys.check_with(&CheckerSelect::Sharded { shards });
        assert_eq!(one, par, "shards {shards}");
    }
}

#[test]
fn reductions_actually_prune_the_symmetric_space() {
    // Guard against the suite silently passing because the reductions
    // became no-ops: on the symmetric workload they must explore strictly
    // fewer states than the plain run.
    let plain = system(symmetric_workload(3), &[1], false, (false, false, false));
    let reduced = system(symmetric_workload(3), &[1], false, (true, true, false));
    let (plain_states, _) = plain.explore_sharded(2);
    let (reduced_states, stats) = reduced.explore_sharded(2);
    assert!(
        reduced_states.len() * 2 < plain_states.len(),
        "reductions barely pruned: {} vs {}",
        reduced_states.len(),
        plain_states.len()
    );
    assert!(stats.reduction.canon, "canon not engaged");
    assert!(stats.reduction.ample, "ample not engaged");
    assert!(stats.reduction.ample_skips > 0, "ample never skipped");
}
