//! Differential suite for the fast-path execution engine.
//!
//! The decode table and software TLB memoize pure functions, and `step_n`
//! batches bookkeeping; none of it may be architecturally visible. Every
//! test here runs the same workload with the caches on and off (or batched
//! and unbatched) and pins the results identical — final CPU state, memory,
//! step/instruction counters, observability metrics and trace. The TLB edge
//! cases target exactly the places a stale or over-broad entry would show:
//! PDR length boundaries, a write-protect flip mid-run, kernel/user segment
//! aliasing, and I/O-page segments whose *contents* must never be cached.

use sep_machine::dev::serial::SerialLine;
use sep_machine::mmu::{AbortReason, Access, SegmentDescriptor};
use sep_machine::psw::Mode;
use sep_machine::{assemble, Event, Machine, Trap};
use sep_obs::{Recorder, RunReport};

/// Loads a program at physical/virtual 0 (MMU disabled), tracing enabled.
fn machine_with(source: &str) -> Machine {
    let prog = assemble(source).expect("assembly failed");
    let mut m = Machine::new();
    m.obs = Recorder::with_trace(256);
    m.mem.load_words(0, &prog.words);
    m.cpu.pc = prog.origin;
    m.cpu.set_reg(6, 0o10000);
    m
}

/// Everything two runs of the same program could disagree on: final event,
/// registers, PSW, counters, a memory window, and the rendered
/// observability report (which excludes the hot-path counters by design —
/// so it must match across cache settings).
fn observable(m: &mut Machine, event: Event) -> (Event, String, u64, u64, Vec<u16>, String) {
    let trace = m.obs.disable_tracing();
    let report = RunReport::new("hotpath_machine")
        .run_with_trace("machine", &m.obs.metrics, trace.as_ref(), 32)
        .render();
    let regs: Vec<u16> = (0..8).map(|r| m.cpu.reg(r)).collect();
    (
        event,
        format!("{:?} {:o}", regs, m.cpu.psw.cc_bits()),
        m.steps,
        m.instructions,
        m.mem.dump_words(0, 64),
        report,
    )
}

const WORKLOADS: [&str; 4] = [
    // Tight register loop: maximal decode-table reuse.
    "
        CLR R0
        MOV #100, R1
loop:   ADD R1, R0
        SOB R1, loop
        HALT
",
    // Memory traffic through autoincrement: TLB on every access.
    "
        MOV #src, R1
        MOV #dst, R2
        MOV #4, R3
loop:   MOV (R1)+, (R2)+
        SOB R3, loop
        HALT
src:    .word 0o111, 0o222, 0o333, 0o444
dst:    .blkw 4
",
    // Subroutines and the stack.
    "
        MOV #5, R0
        JSR PC, double
        JSR PC, double
        JSR PC, double
        HALT
double: ADD R0, R0
        RTS PC
",
    // Byte operations, sign extension, condition codes.
    "
        MOVB #-1, R0
        MOVB #65, R1
        CMP R0, R1
        BLT less
        MOV #0, R5
        HALT
less:   MOV #1, R5
        HALT
",
];

#[test]
fn caches_on_and_off_execute_identically() {
    for (i, src) in WORKLOADS.iter().enumerate() {
        let mut fast = machine_with(src);
        assert!(fast.hotpath(), "hotpath is the default");
        let ev_fast = fast.run_until_event(10_000).expect("fast run halts").0;

        let mut slow = machine_with(src);
        slow.set_hotpath(false);
        let ev_slow = slow.run_until_event(10_000).expect("slow run halts").0;

        let expected = observable(&mut slow, ev_slow);
        assert_eq!(
            observable(&mut fast, ev_fast),
            expected,
            "workload {i}: caches changed the architecture"
        );
        if src.contains("loop:") {
            assert!(
                fast.obs.metrics.hotpath.icache_hits > 0,
                "workload {i}: the fast run never used the decode table"
            );
        }
        assert_eq!(
            slow.obs.metrics.hotpath.icache_hits + slow.obs.metrics.hotpath.tlb_hits,
            0,
            "workload {i}: the slow run consulted a cache"
        );

        // With the tier off, every retired instruction is decoded through
        // the process-wide table, which never misses.
        let mut decode = machine_with(src);
        decode.set_superblocks(false);
        let ev_decode = decode.run_until_event(10_000).expect("decode run halts").0;
        let hp = &decode.obs.metrics.hotpath;
        assert_eq!(
            (hp.icache_hits, hp.icache_misses),
            (decode.instructions, 0),
            "workload {i}: decode-table lookups must equal retired instructions"
        );
        assert_eq!(
            observable(&mut decode, ev_decode),
            expected,
            "workload {i}: the decode table changed the architecture"
        );
    }
}

#[test]
fn step_n_matches_step_loop() {
    for (i, src) in WORKLOADS.iter().enumerate() {
        let mut stepped = machine_with(src);
        let ev_stepped = stepped
            .run_until_event(10_000)
            .expect("stepped run halts")
            .0;

        // Drive the batched engine in awkward batch sizes; the final
        // non-Ran event cuts a batch short.
        let mut batched = machine_with(src);
        let ev_batched = loop {
            let (taken, outcome) = batched.step_n(7);
            assert!(taken <= 7);
            if let Some(ev) = outcome {
                break ev;
            }
            assert_eq!(taken, 7, "a full batch reports all steps taken");
        };

        assert_eq!(
            observable(&mut stepped, ev_stepped),
            observable(&mut batched, ev_batched),
            "workload {i}: step_n diverged from the step loop"
        );
    }
}

#[test]
fn step_n_with_devices_falls_back_to_per_step_semantics() {
    // Device time must advance step by step; step_n with a device attached
    // is exactly a step loop, including the transmitted output.
    let src = "
        MOV #0o177564, R4
        MOV #msg, R1
        MOV #2, R2
next:   BIT #0o200, (R4)
        BEQ next
        MOVB (R1)+, 2(R4)
        SOB R2, next
        HALT
msg:    .ascii \"OK\"
";
    let run = |batched: bool| {
        let mut m = machine_with(src);
        let tty = m
            .devices
            .attach(Box::new(SerialLine::new("tty", 0o777560, 0o60, 4)));
        let ev = if batched {
            loop {
                let (_, outcome) = m.step_n(5);
                if let Some(ev) = outcome {
                    break ev;
                }
            }
        } else {
            m.run_until_event(10_000).expect("run halts").0
        };
        let out = m
            .devices
            .downcast_mut::<SerialLine>(tty)
            .unwrap()
            .host_take_output();
        let obs = observable(&mut m, ev);
        (obs, out)
    };
    assert_eq!(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Machine::clone regression: a clone must behave like a fresh boot.
// ---------------------------------------------------------------------------

/// A user-mode program under the MMU, as `FaultPolicy::Restart` re-imaging
/// sees it: boot template cloned, run, cloned again mid-flight.
fn mapped_machine() -> Machine {
    let prog = assemble(
        "
start:  INC counter
        BIC #0o177774, counter
        MOV counter, R1
        BR start
counter: .word 0
",
    )
    .unwrap();
    let mut m = Machine::new();
    m.obs = Recorder::with_trace(256);
    m.mem.load_words(0o40000, &prog.words);
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, 0o20000, Access::ReadWrite),
    );
    m.cpu.psw.set_mode(Mode::User);
    m.cpu.pc = 0;
    m.cpu.set_reg(6, 0o17776);
    m
}

#[test]
fn cloned_machine_trace_is_byte_identical_to_fresh_boot() {
    // Warm run: caches hot after 50 steps.
    let mut warm = mapped_machine();
    for _ in 0..50 {
        assert_eq!(warm.step(), Event::Ran);
    }
    assert!(warm.obs.metrics.hotpath.tlb_hits > 0, "caches are warm");

    // Clone the warm machine (caches reset by Clone) and a cold control
    // that replays the same 50 steps from the template without ever
    // warming anything (hotpath off).
    let mut cloned = warm.clone();
    let mut cold = mapped_machine();
    cold.set_hotpath(false);
    for _ in 0..50 {
        assert_eq!(cold.step(), Event::Ran);
    }

    // The modelled state agrees at the fork point...
    assert_eq!(cloned.cpu, cold.cpu);
    assert_eq!(cloned.mmu, cold.mmu);
    assert_eq!(
        cloned.mem.dump_words(0o40000, 32),
        cold.mem.dump_words(0o40000, 32)
    );

    // ...and stays in lockstep for the rest of the run: the clone must not
    // remember (or miss) anything the fresh boot would not.
    for step in 0..200 {
        assert_eq!(cloned.step(), cold.step(), "step {step} after the clone");
    }
    let a = observable(&mut cloned, Event::Ran);
    let b = observable(&mut cold, Event::Ran);
    assert_eq!(a, b, "clone diverged from fresh boot");
}

#[test]
fn clone_then_reimage_matches_a_never_run_template() {
    // The restart pattern from sep-kernel: keep a boot template, run a
    // working copy until it faults, then re-image from the template. The
    // re-imaged copy must replay the template's exact trace even though the
    // working copy left hot caches behind on the donor machine.
    let template = mapped_machine();
    let mut working = template.clone();
    for _ in 0..137 {
        working.step();
    }
    let mut reimaged = template.clone();
    let mut pristine = mapped_machine();
    for step in 0..300 {
        assert_eq!(reimaged.step(), pristine.step(), "step {step}");
        assert_eq!(reimaged.cpu, pristine.cpu, "step {step}");
    }
}

// ---------------------------------------------------------------------------
// TLB edge cases.
// ---------------------------------------------------------------------------

/// A machine in user mode with segment 0 mapped RW to 0o40000, ready for
/// hand-driven virtual accesses.
fn tlb_harness(len: u32) -> Machine {
    let mut m = Machine::new();
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, len, Access::ReadWrite),
    );
    m.cpu.psw.set_mode(Mode::User);
    m
}

#[test]
fn tlb_honours_pdr_length_boundary() {
    // A short segment: 0o1000 bytes. Warm the TLB with in-bounds accesses,
    // then probe the boundary — a careless TLB would honour the cached
    // base for any offset in the segment.
    let len = 0o1000;
    let mut m = tlb_harness(len);
    let last = (len - 2) as u16;

    m.write_word_v(last, 0o1234)
        .expect("last word is in bounds");
    assert_eq!(m.read_word_v(last).unwrap(), 0o1234);
    assert!(m.obs.metrics.hotpath.tlb_hits > 0, "TLB warmed");

    // One word past the boundary: must abort even on a warm TLB.
    for vaddr in [len as u16, (len + 2) as u16] {
        match m.read_word_v(vaddr) {
            Err(Trap::Mmu(abort)) => {
                assert_eq!(
                    abort.reason,
                    AbortReason::LengthViolation,
                    "vaddr {vaddr:o}"
                );
            }
            other => panic!("expected length violation at {vaddr:o}, got {other:?}"),
        }
    }
    // One byte under the boundary is still fine (byte access at len-1).
    assert!(m.read_byte_v((len - 1) as u16).is_ok());
    assert!(m.read_byte_v(len as u16).is_err());

    // Differential: the same probes with the caches off agree.
    let mut slow = tlb_harness(len);
    slow.set_hotpath(false);
    slow.write_word_v(last, 0o1234).unwrap();
    assert_eq!(slow.read_word_v(last).unwrap(), 0o1234);
    assert!(matches!(
        slow.read_word_v(len as u16),
        Err(Trap::Mmu(a)) if a.reason == AbortReason::LengthViolation
    ));
}

#[test]
fn write_protect_flip_mid_run_invalidates_the_tlb() {
    let mut m = tlb_harness(0o20000);
    // Warm the TLB with a *write* (caches the writable bit).
    m.write_word_v(0o100, 0o42).unwrap();
    assert_eq!(m.read_word_v(0o100).unwrap(), 0o42);

    // Flip the segment read-only: the PDR load bumps the generation, so
    // the cached writable entry must not survive.
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, 0o20000, Access::ReadOnly),
    );
    match m.write_word_v(0o100, 0o43) {
        Err(Trap::Mmu(abort)) => assert_eq!(abort.reason, AbortReason::ReadOnlyViolation),
        other => panic!("stale TLB honoured a write to a read-only segment: {other:?}"),
    }
    // Reads still work, and the memory still holds the pre-flip value.
    assert_eq!(m.read_word_v(0o100).unwrap(), 0o42);

    // Flip back: writes work again.
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, 0o20000, Access::ReadWrite),
    );
    m.write_word_v(0o100, 0o44).unwrap();
    assert_eq!(m.read_word_v(0o100).unwrap(), 0o44);
    assert!(
        m.obs.metrics.hotpath.tlb_invalidations >= 2,
        "each descriptor flip must invalidate: {:?}",
        m.obs.metrics.hotpath
    );
}

#[test]
fn kernel_and_user_modes_do_not_share_tlb_entries() {
    // The same virtual address maps to different frames in the two modes.
    let mut m = Machine::new();
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::Kernel,
        0,
        SegmentDescriptor::mapping(0o40000, 0o20000, Access::ReadWrite),
    );
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o60000, 0o20000, Access::ReadWrite),
    );
    m.mem.write_word(0o40100, 0o1111);
    m.mem.write_word(0o60100, 0o2222);

    // Interleave the modes: each lookup must land in its own frame even
    // with the other mode's entry warm in the TLB.
    for round in 0..3 {
        m.cpu.psw.set_mode(Mode::Kernel);
        assert_eq!(m.read_word_v(0o100).unwrap(), 0o1111, "round {round}");
        m.cpu.psw.set_mode(Mode::User);
        assert_eq!(m.read_word_v(0o100).unwrap(), 0o2222, "round {round}");
    }
    // User writes stay in the user frame.
    m.write_word_v(0o102, 0o3333).unwrap();
    assert_eq!(m.mem.read_word(0o60102), 0o3333);
    assert_eq!(m.mem.read_word(0o40102), 0);
}

#[test]
fn io_page_segment_reads_the_device_not_a_cached_value() {
    // Map user segment 0 straight onto the I/O page. The TLB may cache the
    // *translation*, but every access must still reach the device: a TLB
    // hit on an I/O address that returned stale register contents would be
    // invisible to most programs and fatal to all of them.
    const IO_BASE: u32 = (1 << 18) - 8 * 1024;
    let mut m = Machine::new();
    m.devices
        .attach(Box::new(SerialLine::new("tty", 0o777560, 0o60, 4)));
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(IO_BASE, 0o20000, Access::ReadWrite),
    );
    m.cpu.psw.set_mode(Mode::User);

    // RCSR sits at physical 0o777560 → virtual offset 0o17560.
    let rcsr = 0o17560;
    let quiet = m.read_word_v(rcsr).unwrap();
    assert_eq!(quiet & 0o200, 0, "no input pending yet");
    // Now the host sends a byte; the device state changes under a warm TLB
    // entry, and the next read must see it.
    m.devices
        .downcast_mut::<SerialLine>(0)
        .unwrap()
        .host_send(b"x");
    m.devices.tick_all();
    let ready = m.read_word_v(rcsr).unwrap();
    assert_ne!(quiet, ready, "TLB hit returned a stale device register");
    assert_ne!(ready & 0o200, 0, "RX done bit visible through the mapping");
    assert!(m.obs.metrics.hotpath.tlb_hits > 0, "the path was cached");
}

// ---------------------------------------------------------------------------
// Superblock tier: the compiled-trace layer above the decode table. Every
// test pins the tier byte-identical to the slow path; several then assert
// the tier actually engaged, so the equality means something.
// ---------------------------------------------------------------------------

/// Drives the batched engine to the run's terminal event.
fn run_batched(m: &mut Machine, batch: u64) -> Event {
    loop {
        let (taken, outcome) = m.step_n(batch);
        assert!(taken <= batch);
        if let Some(ev) = outcome {
            return ev;
        }
        assert_eq!(taken, batch, "a full batch reports all steps taken");
    }
}

/// A user-mode machine under the MMU with segment 0 mapped to 0o40000 at
/// the given length, running `src` from virtual 0.
fn mapped_with(src: &str, len: u32) -> Machine {
    let prog = assemble(src).expect("assembly failed");
    let mut m = Machine::new();
    m.obs = Recorder::with_trace(256);
    m.mem.load_words(0o40000, &prog.words);
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, len, Access::ReadWrite),
    );
    m.cpu.psw.set_mode(Mode::User);
    m.cpu.pc = prog.origin;
    m.cpu.set_reg(6, 0o17776);
    m
}

#[test]
fn superblock_tier_executes_workloads_identically() {
    // Three-way sweep: slow step loop, decode-table-only step_n, and the
    // full tier, in awkward batch sizes so blocks straddle batch edges.
    for (i, src) in WORKLOADS.iter().enumerate() {
        let mut slow = machine_with(src);
        slow.set_hotpath(false);
        let ev_slow = slow.run_until_event(10_000).expect("slow run halts").0;

        let mut decode = machine_with(src);
        decode.set_superblocks(false);
        let ev_decode = run_batched(&mut decode, 7);

        let mut tier = machine_with(src);
        assert!(tier.superblocks(), "the tier is the default");
        let ev_tier = run_batched(&mut tier, 7);

        assert_eq!(
            decode.obs.metrics.hotpath.sb_hits + decode.obs.metrics.hotpath.sb_compiles,
            0,
            "workload {i}: superblocks ran with the tier off"
        );
        let tier_obs = observable(&mut tier, ev_tier);
        assert_eq!(
            tier_obs,
            observable(&mut slow, ev_slow),
            "workload {i}: the tier changed the architecture"
        );
        assert_eq!(
            tier_obs,
            observable(&mut decode, ev_decode),
            "workload {i}: the tier diverged from the decode path"
        );
    }
    // The tight register loop runs 100 iterations: the tier must engage.
    let mut hot = machine_with(WORKLOADS[0]);
    run_batched(&mut hot, 1000);
    let hp = &hot.obs.metrics.hotpath;
    assert!(hp.sb_compiles >= 1, "hot loop never compiled: {hp:?}");
    assert!(hp.sb_hits > 0 && hp.sb_instructions > 0, "{hp:?}");
}

#[test]
fn interior_mmu_fault_side_exits_with_exact_state() {
    // A compiled block whose generic interior walks a pointer across the
    // PDR length boundary: the fault must side-exit mid-block with the
    // same registers, counters, and trap as the slow path — including the
    // partially executed block's retired instructions.
    let src = "
start:  MOV #0o400, R1
        MOV #0o300, R3
loop:   ADD #1, R4
        MOV (R1)+, R2
        SOB R3, loop
        HALT
";
    let mut slow = mapped_with(src, 0o1000);
    slow.set_hotpath(false);
    let ev_slow = slow.run_until_event(10_000).expect("slow run traps").0;
    assert!(
        matches!(ev_slow, Event::Trap(Trap::Mmu(a)) if a.reason == AbortReason::LengthViolation),
        "workload must die on the segment boundary: {ev_slow:?}"
    );

    let mut tier = mapped_with(src, 0o1000);
    let ev_tier = run_batched(&mut tier, 97);
    let hp = tier.obs.metrics.hotpath.clone();
    assert!(hp.sb_hits > 0, "the faulting loop never ran in the tier");
    assert_eq!(
        observable(&mut tier, ev_tier),
        observable(&mut slow, ev_slow),
        "interior MMU fault diverged from the slow path"
    );
}

#[test]
fn interior_odd_address_side_exits_with_exact_state() {
    // Warm a block through SOB, then re-enter it with an odd pointer: the
    // generic interior's side exit must match the slow path exactly.
    let src = "
        MOV #src, R1
        MOV #0o20, R3
warm:   ADD #1, R4
        MOV (R1), R2
        SOB R3, warm
        ADD #1, R1
        MOV #4, R3
        BR warm
src:    .word 0o123
";
    let mut slow = machine_with(src);
    slow.set_hotpath(false);
    let ev_slow = slow.run_until_event(10_000).expect("slow run traps").0;
    assert!(
        matches!(ev_slow, Event::Trap(Trap::OddAddress { .. })),
        "workload must die on the odd pointer: {ev_slow:?}"
    );

    let mut tier = machine_with(src);
    let ev_tier = run_batched(&mut tier, 23);
    assert!(tier.obs.metrics.hotpath.sb_hits > 0);
    assert_eq!(
        observable(&mut tier, ev_tier),
        observable(&mut slow, ev_slow),
        "odd-address side exit diverged from the slow path"
    );
}

#[test]
fn interior_device_touch_side_exits_with_exact_state() {
    // Re-enter a hot block with the pointer aimed at the I/O window on a
    // deviceless machine: the bus error must fall back mid-block.
    let src = "
        MOV #src, R1
        MOV #0o20, R3
warm:   ADD #1, R4
        MOV (R1), R2
        SOB R3, warm
        MOV #0o177560, R1
        MOV #4, R3
        BR warm
src:    .word 0o123
";
    let mut slow = machine_with(src);
    slow.set_hotpath(false);
    let ev_slow = slow.run_until_event(10_000).expect("slow run traps").0;
    assert!(
        matches!(ev_slow, Event::Trap(Trap::BusError { .. })),
        "workload must die on the empty I/O page: {ev_slow:?}"
    );

    let mut tier = machine_with(src);
    let ev_tier = run_batched(&mut tier, 31);
    assert!(tier.obs.metrics.hotpath.sb_hits > 0);
    assert_eq!(
        observable(&mut tier, ev_tier),
        observable(&mut slow, ev_slow),
        "device-touch side exit diverged from the slow path"
    );
}

#[test]
fn pdr_boundary_bisects_a_compiled_block() {
    // The straight-line tail after the hot loop runs to the end of a short
    // segment: compilation clips the block at the PDR limit, execution
    // falls through, and the next fetch traps exactly like the slow path.
    // Pad the tail with INCs so the program fills the 64-byte segment
    // exactly: the last INC sits on the final word, and the fetch after it
    // crosses the PDR limit.
    let src = format!(
        "
start:  MOV #0o20, R3
loop:   ADD #1, R4
        SOB R3, loop
{}",
        "        INC R4\n".repeat(27)
    );
    let src = src.as_str();
    let prog_bytes = 2 * assemble(src).unwrap().words.len() as u32;
    assert_eq!(prog_bytes, 64, "program must fill the segment exactly");
    let mut slow = mapped_with(src, prog_bytes);
    slow.set_hotpath(false);
    let ev_slow = slow.run_until_event(10_000).expect("slow run traps").0;
    assert!(
        matches!(ev_slow, Event::Trap(Trap::Mmu(a)) if a.reason == AbortReason::LengthViolation),
        "the run must fetch off the segment end: {ev_slow:?}"
    );

    let mut tier = mapped_with(src, prog_bytes);
    let ev_tier = run_batched(&mut tier, 13);
    let hp = tier.obs.metrics.hotpath.clone();
    assert!(
        hp.sb_compiles >= 2,
        "both the loop and the clipped tail should compile: {hp:?}"
    );
    assert_eq!(
        observable(&mut tier, ev_tier),
        observable(&mut slow, ev_slow),
        "the clipped block diverged from the slow path"
    );
}

#[test]
fn in_batch_code_store_trips_the_write_guard() {
    // The program overwrites its own hot loop with HALT through the
    // machine's store path mid-batch: the write guard must poison the
    // compiled block before the next tier entry.
    let src = "
        MOV #0o40, R3
loop:   ADD #1, R4
        SOB R3, loop
        MOV #0, loop
        BR loop
";
    let mut slow = machine_with(src);
    slow.set_hotpath(false);
    let ev_slow = slow.run_until_event(10_000).expect("slow run halts").0;
    assert_eq!(ev_slow, Event::Trap(Trap::Halt), "the store plants a HALT");

    let mut tier = machine_with(src);
    let ev_tier = run_batched(&mut tier, 1000);
    let hp = tier.obs.metrics.hotpath.clone();
    assert!(hp.sb_hits > 0, "the loop never ran compiled: {hp:?}");
    assert!(
        hp.sb_flushes >= 1,
        "the self-modifying store never flushed the cache: {hp:?}"
    );
    assert_eq!(
        observable(&mut tier, ev_tier),
        observable(&mut slow, ev_slow),
        "self-modifying code diverged from the slow path"
    );
}

#[test]
fn between_batch_code_poke_fails_validation_and_flushes() {
    // Host writes (re-imaging, DMA, debugger pokes) happen between batches
    // and bypass the write guard: the once-per-batch image check must
    // catch them. The slow twin gets the identical poke at the identical
    // retired-instruction count, so the final states must agree.
    let src = "
        MOV #0o17777, R3
loop:   ADD #1, R4
        SOB R3, loop
        HALT
";
    let loop_addr = 0o4; // MOV #imm is two words; `loop:` labels the third.
    let drive = |superblocks: bool| {
        let mut m = machine_with(src);
        m.set_superblocks(superblocks);
        for _ in 0..2 {
            let (taken, ev) = m.step_n(500);
            assert_eq!((taken, ev), (500, None));
        }
        m.mem.write_word(loop_addr, 0); // ADD #1, R4 becomes HALT
        let ev = run_batched(&mut m, 500);
        let obs = observable(&mut m, ev);
        (obs, m)
    };
    let (slow_obs, _) = drive(false);
    let (tier_obs, tier) = drive(true);
    assert_eq!(tier_obs.0, Event::Trap(Trap::Halt));
    assert_eq!(tier_obs, slow_obs, "the poked code diverged");
    let hp = &tier.obs.metrics.hotpath;
    assert!(hp.sb_hits > 0, "the loop never ran compiled: {hp:?}");
    assert!(
        hp.sb_flushes >= 1,
        "the stale image was never flushed: {hp:?}"
    );
}

/// A user-mode register loop under the MMU that the tier compiles — the
/// no-store counterpart of [`mapped_machine`], for cache-hygiene tests.
fn hot_user_machine() -> Machine {
    let prog = assemble(
        "
start:  INC R1
        BIC #0o177774, R1
        ADD R1, R2
        BR start
",
    )
    .unwrap();
    let mut m = Machine::new();
    m.obs = Recorder::with_trace(256);
    m.mem.load_words(0o40000, &prog.words);
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, 0o20000, Access::ReadWrite),
    );
    m.cpu.psw.set_mode(Mode::User);
    m.cpu.pc = 0;
    m.cpu.set_reg(6, 0o17776);
    m
}

#[test]
fn clone_under_warm_superblock_cache_behaves_like_fresh_boot() {
    // Clone a machine whose superblock cache is hot; the clone must replay
    // a cold machine's exact trace — compiled state is never cloned.
    let mut warm = hot_user_machine();
    let (taken, ev) = warm.step_n(600);
    assert_eq!((taken, ev), (600, None));
    assert!(warm.obs.metrics.hotpath.sb_hits > 0, "cache is warm");

    let mut cloned = warm.clone();
    let mut cold = hot_user_machine();
    cold.set_hotpath(false);
    for _ in 0..600 {
        assert_eq!(cold.step(), Event::Ran);
    }
    assert_eq!(cloned.cpu, cold.cpu, "state differs at the fork point");

    // Continue in lockstep: batched (tier re-warms from scratch) against
    // the single-stepped slow control.
    let (taken, ev) = cloned.step_n(700);
    assert_eq!((taken, ev), (700, None));
    for _ in 0..700 {
        assert_eq!(cold.step(), Event::Ran);
    }
    assert_eq!(cloned.cpu, cold.cpu, "clone diverged after the fork");
    assert_eq!(
        cloned.mem.dump_words(0o40000, 32),
        cold.mem.dump_words(0o40000, 32)
    );
}

#[test]
fn reimage_from_template_discards_compiled_blocks() {
    // The kernel's restart pattern under a warm tier: run a working copy
    // hot, then re-image from the boot template. The re-imaged machine
    // must replay a pristine machine exactly.
    let template = hot_user_machine();
    let mut working = template.clone();
    let (taken, ev) = working.step_n(900);
    assert_eq!((taken, ev), (900, None));
    assert!(working.obs.metrics.hotpath.sb_hits > 0);

    let mut reimaged = template.clone();
    let mut pristine = hot_user_machine();
    let (taken, ev) = reimaged.step_n(800);
    assert_eq!((taken, ev), (800, None));
    let (taken, ev) = pristine.step_n(800);
    assert_eq!((taken, ev), (800, None));
    assert_eq!(reimaged.cpu, pristine.cpu, "re-image kept donor state");
}

#[test]
fn disabling_the_tier_drops_compiled_state_and_stops_engaging() {
    let mut m = hot_user_machine();
    m.step_n(500);
    assert!(m.obs.metrics.hotpath.sb_hits > 0, "tier engaged");

    // Tier off: compiled state is dropped and no sb counter moves again.
    m.set_superblocks(false);
    let before = m.obs.metrics.hotpath.clone();
    m.step_n(500);
    let after = &m.obs.metrics.hotpath;
    assert_eq!(
        (before.sb_hits, before.sb_compiles, before.sb_instructions),
        (after.sb_hits, after.sb_compiles, after.sb_instructions),
        "superblocks ran with the tier off"
    );

    // Tier back on: it re-heats and engages again from nothing.
    m.set_superblocks(true);
    m.step_n(500);
    assert!(
        m.obs.metrics.hotpath.sb_compiles > before.sb_compiles,
        "tier never recompiled after re-enable"
    );

    // `set_hotpath(false)` implies the tier is off too.
    let mut m2 = hot_user_machine();
    m2.step_n(500);
    m2.set_hotpath(false);
    let frozen = m2.obs.metrics.hotpath.clone();
    m2.step_n(500);
    assert_eq!(
        frozen.sb_hits, m2.obs.metrics.hotpath.sb_hits,
        "hotpath off must silence the tier"
    );
}

#[test]
fn event_boundary_accounting_is_exact_across_engines() {
    // `steps`, `instructions`, and the recorder's retired count must be
    // bit-exact across slow / decode / tier engines and across batch
    // sizes, including the batch the terminal event cuts short.
    for (i, src) in WORKLOADS.iter().enumerate() {
        let mut slow = machine_with(src);
        slow.set_hotpath(false);
        let ev_slow = slow.run_until_event(10_000).expect("slow run halts").0;
        let want = (
            ev_slow,
            slow.steps,
            slow.instructions,
            slow.obs.metrics.totals.instructions,
        );
        for batch in [1u64, 3, 7, 1000] {
            let mut decode = machine_with(src);
            decode.set_superblocks(false);
            let ev = run_batched(&mut decode, batch);
            assert_eq!(
                (
                    ev,
                    decode.steps,
                    decode.instructions,
                    decode.obs.metrics.totals.instructions,
                ),
                want,
                "workload {i}: decode path accounting drifted at batch {batch}"
            );

            let mut tier = machine_with(src);
            let ev = run_batched(&mut tier, batch);
            assert_eq!(
                (
                    ev,
                    tier.steps,
                    tier.instructions,
                    tier.obs.metrics.totals.instructions,
                ),
                want,
                "workload {i}: tier accounting drifted at batch {batch}"
            );
        }
    }
}

#[test]
fn mmu_disabled_compat_window_is_unaffected_by_hotpath() {
    // With the MMU off the TLB never engages; the 0o160000.. I/O window
    // must behave identically either way.
    for hot in [true, false] {
        let mut m = machine_with("MOV @#0o177560, R0\nHALT");
        m.set_hotpath(hot);
        // No device: bus error, same under both settings.
        assert!(matches!(
            m.run_until_event(100).unwrap().0,
            Event::Trap(Trap::BusError { .. })
        ));
        assert_eq!(m.obs.metrics.hotpath.tlb_hits, 0, "hot={hot}");
        assert_eq!(m.obs.metrics.hotpath.tlb_misses, 0, "hot={hot}");
    }
}
