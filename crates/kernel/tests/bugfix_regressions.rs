//! Regression tests for the kernel bugfix sweep. Each test fails on the
//! pre-fix kernel:
//!
//! * `do_recv` used to dequeue before copying, so a bad destination buffer
//!   destroyed the message (and left a partial prefix behind);
//! * `deliver_interrupt` used to count a discarded interrupt (handler 0)
//!   as delivered, overcounting E8;
//! * a native regime's SWAP used to bump only `stats.syscalls[0]`,
//!   skipping the per-regime metric and the trace event machine-code SWAP
//!   gets;
//! * the symmetry reduction's canonical key must be computed from the
//!   name-free single-hash-per-partition path: hashing regime names (or
//!   re-hashing partitions per rotation candidate) would stop
//!   rotated-but-equal states from colliding in the seen-set and the
//!   reduction would silently prune nothing;
//! * the symmetry reduction's MYID guard used to scan the source for an
//!   upper-case `TRAP` mentioning a `4`, so a lower-case `trap 4` (the
//!   assembler upper-cases mnemonics) or a `TRAP label` resolving to 4 let
//!   a program that asks its slot identity be rotated.

use sep_kernel::channel::ChannelStatus;
use sep_kernel::config::{ChannelSpec, DeviceSpec, KernelConfig, RegimeSpec};
use sep_kernel::kernel::{KernelEvent, SeparationKernel};
use sep_kernel::regime::{NativeAction, NativeRegime, RegimeIo};
use sep_kernel::verify::{canon_key, KernelState, KernelSystem};
use sep_model::system::{Finite, SharedSystem};

/// RECV into a buffer that runs off the end of the partition: the copy
/// faults mid-message. The queue must keep the message so a later RECV
/// with a good buffer still delivers it.
#[test]
fn recv_into_bad_buffer_leaves_the_message_queued() {
    // Receiver: first RECV points R1 one byte below the partition top so a
    // 4-byte message faults on the second byte; after the kernel reports
    // Invalid, retry into a good buffer and halt.
    let receiver = "
start:  MOV #0, R0          ; channel 0 is ours to receive
        MOV #0o17777, R1    ; last mapped byte: copy faults at byte 2
        MOV #4, R2
        TRAP 2              ; RECV -> Invalid, message must survive
        MOV R0, badcode
        MOV #0, R0
        MOV #good, R1
        MOV #4, R2
        TRAP 2              ; RECV again -> Ok with the same message
        MOV R0, okcode
        HALT
badcode: .word 0o177777
okcode:  .word 0o177777
good:    .word 0, 0
";
    let sender = "
start:  MOV #0, R0
        MOV #msg, R1
        MOV #4, R2
        TRAP 1              ; SEND
halt:   HALT
msg:    .byte 0o101, 0o102, 0o103, 0o104
";
    let mut cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("tx", sender),
        RegimeSpec::assembly("rx", receiver),
    ]);
    cfg.channels.push(ChannelSpec::new(0, 1, 4));
    let mut k = SeparationKernel::boot(cfg).unwrap();
    // Interleave manually: run the sender to completion first so the
    // message is queued before the receiver's first RECV.
    k.run(400);

    let find = |k: &SeparationKernel, label: &str| {
        let src = receiver;
        let off = label_offset(src, label);
        k.machine.mem.read_word(k.regimes[1].partition_base + off)
    };
    assert_eq!(
        find(&k, "badcode"),
        ChannelStatus::Invalid.code(),
        "first RECV reports Invalid"
    );
    assert_eq!(
        find(&k, "okcode"),
        ChannelStatus::Ok.code(),
        "second RECV still delivers the message"
    );
    let good = label_offset(receiver, "good");
    let base = k.regimes[1].partition_base;
    assert_eq!(k.machine.mem.read_byte(base + good), 0o101);
    assert_eq!(k.machine.mem.read_byte(base + good + 3), 0o104);
}

/// Assembles the receiver program on the side to locate a label's byte
/// offset (the kernel loads the same program at the partition base).
fn label_offset(src: &str, label: &str) -> u32 {
    let prog = sep_machine::asm::assemble(src).unwrap();
    prog.symbol(label)
        .unwrap_or_else(|| panic!("label {label}")) as u32
}

/// A clocked regime with an empty vector slot: its interrupts are fielded
/// but must be counted as discards, not deliveries.
#[test]
fn discarded_interrupts_are_not_counted_as_delivered() {
    let unhandled = "
start:  MOV #0o160000, R4
        MOV #0o100, (R4)    ; clock interrupts on; no handler installed
loop:   BR loop
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("deaf", unhandled).with_device(DeviceSpec::Clock { period: 10 })
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(100);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, KernelEvent::DiscardedInterrupt { regime: 0, .. })),
        "discards are visible as their own event"
    );
    assert!(k.stats.interrupts_discarded >= 2, "discards counted");
    assert_eq!(k.stats.interrupts_delivered, 0, "nothing was delivered");
    let m = k.machine.obs.metrics.regime(0).unwrap();
    assert_eq!(m.interrupts_delivered, 0);
    assert!(m.interrupts_discarded >= 2);
    assert_eq!(
        k.machine.obs.metrics.totals.interrupts_discarded,
        k.stats.interrupts_discarded
    );
}

/// A native regime that yields every step.
#[derive(Debug, Clone)]
struct NativeYielder;

impl NativeRegime for NativeYielder {
    fn step(&mut self, _io: &mut dyn RegimeIo) -> NativeAction {
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Native SWAP must account exactly like machine-code SWAP: the stat, the
/// per-regime syscall metric, and the trace event.
#[test]
fn native_swap_accounts_like_machine_code_swap() {
    let mut cfg = KernelConfig::new(vec![
        RegimeSpec::native("native", Box::new(NativeYielder)),
        RegimeSpec::assembly("peer", "loop: INC R1\n BR loop"),
    ]);
    cfg.trace = Some(256);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(40);
    assert!(k.stats.syscalls[0] > 0);
    assert_eq!(
        k.machine.obs.metrics.regime(0).unwrap().syscalls,
        k.stats.syscalls[0],
        "per-regime metric matches the stat"
    );
    let trace = k.machine.obs.trace().expect("tracing enabled");
    let syscall_events = trace
        .events()
        .iter()
        .filter(|e| e.event.label() == "syscall")
        .count() as u64;
    assert_eq!(syscall_events, k.stats.syscalls[0], "trace shows each SWAP");
}

/// `n` interchangeable pure-yield regimes named by `tag` — the symmetric
/// configuration the reduction tests rotate.
fn symmetric_config(n: usize, tag: &str) -> KernelConfig {
    let prog = "
start:  TRAP 0
        BR start
";
    KernelConfig::new(
        (0..n)
            .map(|i| {
                RegimeSpec::assembly(&format!("{tag}{i}"), prog)
                    .with_device(DeviceSpec::SerialRx { capacity: 1 })
            })
            .collect(),
    )
}

/// The symmetric system with symmetry canonicalization enabled.
fn symmetric_system(n: usize, tag: &str) -> KernelSystem {
    KernelSystem::new(symmetric_config(n, tag))
        .unwrap()
        .with_input_bytes(&[1])
        .with_symmetry(true)
}

/// The seen-set collision regression: drive the symmetric system to a
/// state with per-regime variation, rotate the regime contents, and the
/// canonical keys of the two permuted-but-equal states must collide. The
/// keys must also *distinguish* states outside each other's orbits, or the
/// reduction would be collapsing the space unsoundly.
#[test]
fn rotated_states_collide_in_the_seen_set() {
    let sys = symmetric_system(3, "peer");
    let rotations = sys.valid_rotations();
    assert_eq!(rotations, vec![1, 2], "all rotations must be valid");
    let inputs = sys.inputs();
    // Feed regime 1 a byte, then step a few times: the pending byte makes
    // the regimes' device states differ, so rotation genuinely permutes.
    let mut s = sys.initial();
    let feed = inputs
        .iter()
        .find(|i| i.0[1].is_some())
        .expect("input alphabet feeds regime 1");
    let (_, next) = sys.step(&s, feed);
    s = next;
    let base_key = canon_key(&rotations, &s);
    for k in 1..3 {
        let mut rotated = s.kernel.clone();
        rotated.rotate_regime_contents(k);
        let rs = KernelState::new(rotated);
        assert_ne!(s, rs, "rotation by {k} must move the asymmetric state");
        assert_eq!(
            canon_key(&rotations, &rs),
            base_key,
            "rotation by {k} must collide in the seen-set"
        );
    }
    // A genuinely different state (one more step) must not collide.
    let (_, stepped) = sys.step(&s, &inputs[0]);
    assert_ne!(
        canon_key(&rotations, &stepped),
        base_key,
        "canonical keys must still separate distinct orbits"
    );
}

/// The audit behind the collision property: the canonical key is name-free
/// (two systems differing only in regime names agree on every key along a
/// trajectory), because the key reuses the single-hash-per-partition
/// fingerprint path rather than any name-bearing state vector.
#[test]
fn canonical_keys_ignore_regime_names() {
    let a = symmetric_system(3, "peer");
    let b = symmetric_system(3, "other");
    let rot_a = a.valid_rotations();
    let rot_b = b.valid_rotations();
    assert_eq!(rot_a, rot_b);
    let inputs = a.inputs();
    let (mut sa, mut sb) = (a.initial(), b.initial());
    for step in 0..12 {
        assert_eq!(
            canon_key(&rot_a, &sa),
            canon_key(&rot_b, &sb),
            "keys diverged at step {step}: the canonical key sees names"
        );
        let input = &inputs[step % inputs.len()];
        sa = a.step(&sa, input).1;
        sb = b.step(&sb, input).1;
    }
}

/// Symmetry halves (or better) the explored space on the symmetric
/// workload — the regression that the canonicalization actually engages
/// end to end through the explorer, not just in `canon_key`.
#[test]
fn symmetry_reduces_the_symmetric_exploration() {
    let plain = KernelSystem::new(symmetric_config(3, "peer"))
        .unwrap()
        .with_input_bytes(&[1]);
    let full = plain.states();
    let (reduced, stats) = symmetric_system(3, "peer").explore_sharded(1);
    assert!(stats.reduction.canon, "canon not engaged");
    assert!(
        reduced.len() * 2 <= full.len(),
        "symmetry barely pruned: {} of {}",
        reduced.len(),
        full.len()
    );
}

/// Two identical regimes running `prog`, with no inputs beyond the null one.
fn identical_pair(prog: &str) -> KernelSystem {
    KernelSystem::new(KernelConfig::new(vec![
        RegimeSpec::assembly("a", prog),
        RegimeSpec::assembly("b", prog),
    ]))
    .unwrap()
}

/// A program that asks MYID names its slot, so no rotation may relabel it
/// — however the `TRAP 4` is spelled. The guard decides on the assembled
/// words, so mnemonic case and label operands cannot hide the syscall.
#[test]
fn myid_guard_sees_every_spelling_of_trap_4() {
    for prog in [
        "start:  TRAP 4\n        MOV R0, R2\n        TRAP 0\n        BR start",
        "start:  trap 4\n        mov r0, r2\n        trap 0\n        br start",
        // `id` sits at byte address 4, so `TRAP id` assembles to TRAP 4.
        "start:  TRAP id\n        BR start\nid:     .word 0",
    ] {
        assert_eq!(
            identical_pair(prog).valid_rotations(),
            Vec::<usize>::new(),
            "MYID program admitted a rotation:\n{prog}"
        );
    }
    // The guard does not over-reject: the same shape without MYID rotates.
    let yielder = "start:  trap 0\n        mov r0, r2\n        br start";
    assert_eq!(identical_pair(yielder).valid_rotations(), vec![1]);
}
