//! Differential suite for fault injection, containment, and recovery.
//!
//! The containment claim, tested three ways:
//!
//! 1. **Non-interference**: a bystander regime's observable trace is
//!    byte-identical whether or not a seeded fault storm is battering a
//!    different regime — faults are contained to their victim.
//! 2. **Verification**: the Proof of Separability still holds when `Fault`
//!    transitions join the op set (pre-faulted initial states explored),
//!    under round-robin and static-cyclic scheduling, with the sequential
//!    and sharded checkers agreeing bit for bit.
//! 3. **Recovery mechanics**: `PeerDown` is visible to a receiver whose
//!    sender died (the satellite regression), watchdogs convert runaway
//!    regimes into ordinary faults, and restart budgets exhaust into a
//!    permanent stop.

use sep_fault::FaultPlan;
use sep_kernel::config::{KernelConfig, RegimeSpec, SchedPolicy};
use sep_kernel::fault;
use sep_kernel::kernel::{KernelEvent, SeparationKernel};
use sep_kernel::regime::{FaultCause, FaultPolicy, RegimeStatus, PARTITION_SIZE};
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use sep_machine::asm::assemble;
use sep_machine::exec::Trap;
use std::sync::Arc;

/// Reads a word from a regime's partition at a label of its program.
fn partition_word(k: &SeparationKernel, regime: usize, source: &str, label: &str) -> u16 {
    let prog = assemble(source).unwrap();
    let addr = prog.symbol(label).expect("label exists");
    k.machine
        .mem
        .read_word(k.regimes[regime].partition_base + addr as u32)
}

// ---------------------------------------------------------------------------
// Satellite regression: PeerDown through POLL and RECV.
// ---------------------------------------------------------------------------

/// A receiver whose sender faulted must learn the channel is dead, not be
/// told "empty, try again" forever. Before the fix, POLL answered 0 and
/// RECV answered Empty (code 2) — indistinguishable from a slow sender.
#[test]
fn receiver_of_faulted_sender_sees_peer_down() {
    // The sender's first instruction reaches outside its partition: an MMU
    // fault before a single byte is sent.
    let sender = "
        MOV @#0o20000, R1
        HALT
";
    let receiver = "
start:  TRAP 0          ; yield so the sender runs (and dies) first
        MOV #0, R0
        TRAP 3          ; POLL channel 0
        MOV R0, pollw
        MOV #0, R0
        MOV #buf, R1
        MOV #8, R2
        TRAP 2          ; RECV channel 0
        MOV R0, recvw
        HALT
pollw:  .word 0
recvw:  .word 0
buf:    .blkw 4
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("tx", sender),
        RegimeSpec::assembly("rx", receiver),
    ])
    .with_channel(0, 1, 4);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(100);
    assert!(matches!(
        k.regimes[0].status,
        RegimeStatus::Faulted(FaultCause::Trap(Trap::Mmu(_)))
    ));
    assert_eq!(
        partition_word(&k, 1, receiver, "pollw"),
        0o177776,
        "POLL must answer the sender-down sentinel, not a plain 0"
    );
    assert_eq!(
        partition_word(&k, 1, receiver, "recvw"),
        4,
        "RECV must answer PeerDown (4), not Empty (2)"
    );
}

/// The sentinel must NOT fire while the sender can still restart: a
/// recovering sender is slow, not dead.
#[test]
fn restartable_sender_is_not_reported_down() {
    let sender = "
        MOV @#0o20000, R1
        HALT
";
    let receiver = "
start:  TRAP 0
        MOV #0, R0
        TRAP 3
        MOV R0, pollw
        HALT
pollw:  .word 0
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("tx", sender).with_fault_policy(FaultPolicy::Restart {
            budget: 100,
            backoff_slots: 1,
        }),
        RegimeSpec::assembly("rx", receiver),
    ])
    .with_channel(0, 1, 4);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    // Only a handful of steps: the sender has faulted but still has budget
    // when the receiver polls.
    k.run(6);
    assert_eq!(
        partition_word(&k, 1, receiver, "pollw"),
        0,
        "a sender with restart budget left is merely slow"
    );
}

/// Multi-hop propagation: sender → relay → receiver, and the relay dies.
/// The hop *behind* the dead regime must surface `PeerDown` to the
/// receiver within a bounded number of steps — first draining whatever the
/// relay forwarded before it died, because buffered data is still good
/// data. The sender ahead of the dead relay is merely back-pressured,
/// never faulted.
#[test]
fn peer_down_propagates_across_a_multi_hop_chain() {
    // tx feeds the relay on channel 0 forever (Full results are ignored —
    // after the relay dies this hop simply back-pressures).
    let tx = "
start:  MOV #0, R0
        MOV #msg, R1
        MOV #2, R2
        TRAP 1          ; SEND channel 0
        TRAP 0
        BR start
msg:    .word 0o1234
";
    // The relay forwards one word per slot from channel 0 to channel 1.
    let relay = "
start:  TRAP 0
loop:   MOV #0, R0
        MOV #buf, R1
        MOV #2, R2
        TRAP 2          ; RECV channel 0
        TST R0
        BNE wait        ; nothing yet: yield and retry
        MOV #1, R0
        MOV #buf, R1
        MOV #2, R2
        TRAP 1          ; SEND channel 1
wait:   TRAP 0
        BR loop
buf:    .blkw 1
";
    // The receiver polls channel 1 every slot, draining one message per
    // iteration, and halts the moment it sees the sender-down sentinel.
    let rx = "
start:  TRAP 0
loop:   MOV #1, R0
        TRAP 3          ; POLL channel 1
        MOV R0, pollw
        CMP R0, #0o177776
        BEQ done
        MOV #1, R0
        MOV #buf, R1
        MOV #2, R2
        TRAP 2          ; RECV channel 1 (drain so the sentinel can surface)
        TRAP 0
        BR loop
done:   HALT
pollw:  .word 0
buf:    .blkw 1
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("tx", tx),
        RegimeSpec::assembly("relay", relay),
        RegimeSpec::assembly("rx", rx),
    ])
    .with_channel(0, 1, 4)
    .with_channel(1, 2, 4);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    // Let traffic flow end to end first: the second hop must have carried
    // real messages, or "drain then sentinel" would be vacuous.
    k.run(60);
    assert!(
        k.stats.messages_sent >= 2,
        "chain never carried traffic before the kill"
    );
    assert!(matches!(k.regimes[2].status, RegimeStatus::Ready));
    // Kill the relay. Halt policy: no restart pending, so it is dead.
    k.inject_fault(1);
    assert!(matches!(
        k.regimes[1].status,
        RegimeStatus::Faulted(FaultCause::Injected)
    ));
    // Bounded propagation: the receiver drains the in-flight remainder
    // (≤ 4 messages) and must observe the sentinel within a fixed step
    // budget — each of its slots polls once and drains at most one.
    let mut steps = 0u32;
    while partition_word(&k, 2, rx, "pollw") != 0o177776 {
        assert!(steps < 300, "sentinel did not propagate within the bound");
        k.step();
        steps += 1;
    }
    // The receiver branched to its HALT on the sentinel: it is done, not
    // spinning on a channel that can never speak again.
    k.run(20);
    assert!(
        !matches!(k.regimes[2].status, RegimeStatus::Ready),
        "receiver kept running past the sentinel"
    );
    // Containment: the hop ahead of the dead relay is back-pressured, not
    // poisoned — the sender is still runnable.
    assert!(
        matches!(k.regimes[0].status, RegimeStatus::Ready),
        "upstream sender must stay alive (got {:?})",
        k.regimes[0].status
    );
}

// ---------------------------------------------------------------------------
// Tentpole: bystander non-interference under a fault storm.
// ---------------------------------------------------------------------------

/// The bystander appends its own view (a bounded counter) to a log in its
/// partition, then halts. Everything it can observe of its run is in that
/// log.
const BYSTANDER: &str = "
start:  MOV #log, R4
loop:   INC R1
        BIC #0o177774, R1
        MOV R1, (R4)+
        CMP R4, #logend
        BNE next
        HALT
next:   TRAP 0
        BR loop
log:    .blkw 48
logend: .word 0
";

const VICTIM: &str = "
start:  INC counter
        TRAP 0
        BR start
counter: .word 0
";

/// Runs victim+bystander under the given fault plan (targets: victim only)
/// and returns the bystander's completed log bytes.
fn bystander_log(mut plan: FaultPlan, steps: u64) -> Vec<u8> {
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("victim", VICTIM).with_fault_policy(FaultPolicy::Restart {
            budget: 3,
            backoff_slots: 2,
        }),
        RegimeSpec::assembly("bystander", BYSTANDER),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    for _ in 0..steps {
        fault::apply_due(&mut k, &mut plan);
        k.step();
    }
    assert_eq!(
        k.regimes[1].status,
        RegimeStatus::Faulted(FaultCause::Trap(Trap::Halt)),
        "bystander finished its log in both runs"
    );
    let prog = assemble(BYSTANDER).unwrap();
    let base = k.regimes[1].partition_base + prog.symbol("log").unwrap() as u32;
    k.machine.mem.range(base, 96).to_vec()
}

#[test]
fn bystander_trace_is_identical_with_and_without_fault_storm() {
    let quiet = bystander_log(FaultPlan::none(), 4000);
    // A dense seeded storm aimed exclusively at the victim: regime faults
    // (which its Restart policy absorbs until the budget runs out), bit
    // flips in its partition, spurious and dropped interrupts, line noise.
    let storm = FaultPlan::generate(0xD15EA5E, &[0], 2000, 24, PARTITION_SIZE);
    let noisy = bystander_log(storm, 4000);
    assert_eq!(
        quiet, noisy,
        "fault storm on the victim leaked into the bystander's view"
    );
}

#[test]
fn different_storm_seeds_leave_the_bystander_equally_untouched() {
    let quiet = bystander_log(FaultPlan::none(), 4000);
    for seed in [1u64, 42, 0xBADC0DE] {
        let storm = FaultPlan::generate(seed, &[0], 2000, 16, PARTITION_SIZE);
        assert_eq!(quiet, bystander_log(storm, 4000), "seed {seed} leaked");
    }
}

// ---------------------------------------------------------------------------
// Tentpole: Proof of Separability with fault/restart transitions.
// ---------------------------------------------------------------------------

/// Two bounded register counters with restart policies: the verifier's op
/// set gains `KOp::Fault`, and exploration starts from pre-faulted states
/// too, so backoff, re-imaging, and exhausted budgets are all visited.
fn restartable_workload() -> KernelConfig {
    let a = "
start:  INC R1
        BIC #0o177774, R1
        TRAP 0
        BR start
";
    let b = "
start:  ADD #3, R1
        BIC #0o177770, R1
        TRAP 0
        BR start
";
    let policy = FaultPolicy::Restart {
        budget: 1,
        backoff_slots: 1,
    };
    KernelConfig::new(vec![
        RegimeSpec::assembly("red", a).with_fault_policy(policy),
        RegimeSpec::assembly("black", b).with_fault_policy(policy),
    ])
}

#[test]
fn separability_holds_with_fault_ops_round_robin() {
    let sys = KernelSystem::new(restartable_workload())
        .unwrap()
        .with_fault_ops();
    let sequential = sys.check_with(&CheckerSelect::Sequential);
    assert!(sequential.is_separable(), "{sequential}");
    assert!(
        sequential.states > 8,
        "fault ops must enlarge the space: {}",
        sequential.states
    );
    let sharded = sys.check_with(&CheckerSelect::Sharded { shards: 2 });
    assert_eq!(sequential, sharded);
}

#[test]
fn separability_holds_with_fault_ops_static_cyclic() {
    let cfg = restartable_workload().with_sched(SchedPolicy::StaticCyclic { table: vec![0, 1] });
    let sys = KernelSystem::new(cfg).unwrap().with_fault_ops();
    let sequential = sys.check_with(&CheckerSelect::Sequential);
    assert!(sequential.is_separable(), "{sequential}");
    let sharded = sys.check_with(&CheckerSelect::Sharded { shards: 2 });
    assert_eq!(sequential, sharded);
}

#[test]
fn fault_ops_enlarge_the_state_space_over_plain_step() {
    let plain = KernelSystem::new(restartable_workload()).unwrap();
    let faulty = KernelSystem::new(restartable_workload())
        .unwrap()
        .with_fault_ops();
    let p = plain.check_with(&CheckerSelect::Sequential);
    let f = faulty.check_with(&CheckerSelect::Sequential);
    assert!(p.is_separable() && f.is_separable());
    assert!(
        f.states > p.states,
        "fault transitions visited no new states: {} vs {}",
        f.states,
        p.states
    );
}

// ---------------------------------------------------------------------------
// Recovery mechanics: watchdog, restart, budget exhaustion.
// ---------------------------------------------------------------------------

#[test]
fn watchdog_converts_runaway_regime_into_ordinary_fault() {
    // The spinner never yields; the worker is honest.
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("spinner", "loop: INC R1\n BR loop").with_watchdog(20),
        RegimeSpec::assembly("worker", VICTIM),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(500);
    assert_eq!(
        k.regimes[0].status,
        RegimeStatus::Faulted(FaultCause::Watchdog)
    );
    // The worker was not starved past the watchdog point.
    assert!(partition_word(&k, 1, VICTIM, "counter") > 10);
}

#[test]
fn watchdog_plus_restart_burns_the_budget_then_stops() {
    // A restarting spinner re-images, spins again, trips the watchdog
    // again: each restart costs budget until the fault becomes permanent.
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("spinner", "loop: INC R1\n BR loop")
            .with_watchdog(16)
            .with_fault_policy(FaultPolicy::Restart {
                budget: 2,
                backoff_slots: 1,
            }),
        RegimeSpec::assembly("worker", VICTIM),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(2000);
    let restarts = events
        .iter()
        .filter(|e| matches!(e, KernelEvent::Restarted { regime: 0 }))
        .count();
    assert_eq!(restarts, 2, "exactly the budget's worth of restarts");
    assert_eq!(k.regimes[0].restarts_used, 2);
    assert_eq!(
        k.regimes[0].status,
        RegimeStatus::Faulted(FaultCause::Watchdog),
        "budget exhausted: the fault is now permanent"
    );
    assert_eq!(
        k.machine.obs.metrics.regime(0).map(|c| c.restarts),
        Some(2),
        "observability counted both restarts"
    );
}

#[test]
fn restart_reimages_the_partition_from_the_boot_image() {
    // The crasher scribbles over its own data, then dies on an illegal
    // kernel call. After the restart its partition must be the boot image
    // again: the scribble gone, the counter back to zero, and the program
    // re-running from the top.
    let crasher = "
start:  INC runs
        MOV #0o7777, scratch
        TRAP 77         ; illegal syscall: fault
scratch: .word 0
runs:   .word 0
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("crasher", crasher).with_fault_policy(FaultPolicy::Restart {
            budget: 1,
            backoff_slots: 1,
        }),
        RegimeSpec::assembly("worker", VICTIM),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let steps = (0..400)
        .position(|_| k.step() == KernelEvent::Restarted { regime: 0 })
        .expect("the crasher restarts");
    // Re-imaging shares the boot page itself; nothing is copied until the
    // regime stores again.
    let base = k.regimes[0].partition_base;
    assert!(Arc::ptr_eq(
        k.machine.mem.page(base),
        &k.regimes[0].boot_image
    ));
    k.run(400 - steps as u64 - 1);
    // Two lives (boot + one restart), each incremented `runs` once — but
    // re-imaging erased the first life's increment, so exactly 1 survives.
    assert_eq!(partition_word(&k, 0, crasher, "runs"), 1);
    assert_eq!(k.regimes[0].restarts_used, 1);
    assert_eq!(
        k.regimes[0].status,
        RegimeStatus::Faulted(FaultCause::Trap(Trap::TrapInstr(77)))
    );
}

#[test]
fn injected_fault_is_contained_and_counted() {
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("victim", VICTIM),
        RegimeSpec::assembly("worker", VICTIM),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(10);
    let ev = k.inject_fault(0);
    assert!(matches!(
        ev,
        KernelEvent::Fault {
            regime: 0,
            cause: FaultCause::Injected
        }
    ));
    assert_eq!(
        k.regimes[0].status,
        RegimeStatus::Faulted(FaultCause::Injected)
    );
    k.run(100);
    // The worker is unaffected; the victim's counter is frozen.
    let frozen = partition_word(&k, 0, VICTIM, "counter");
    k.run(100);
    assert_eq!(partition_word(&k, 0, VICTIM, "counter"), frozen);
    assert!(partition_word(&k, 1, VICTIM, "counter") > 20);
}
