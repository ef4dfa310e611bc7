//! E10 — the hot-path execution engine measured: decode cache + software
//! TLB + batched stepping + the superblock compilation tier in the machine,
//! fingerprinted seen-sets in the checker.
//!
//! Every timing row is differential evidence first: each fast configuration
//! is asserted state-identical to the slow configuration it replaces before
//! its throughput is printed. The machine section is a three-way sweep —
//! slow `step()`, decode-cache-only `step_n`, and the full superblock
//! tier — and asserts two floors on the straight-line user-mode workload:
//! the decode path at ≥2× the slow path (the PR 5 floor) and the warm
//! superblock tier at ≥3× the decode path. The checker section reports
//! the sharded checker's states/sec and its 16-byte-per-state seen-set,
//! with the report asserted equal to the reference checker's.
//! `BENCH_obs_e10_hotpath.json` keeps the deterministic sections
//! (instruction counts, cache counters, checker reports) apart from
//! wall-clock timing.

use sep_bench::{checker_run_json, header, memory_workload, register_workload, row, timed};
use sep_kernel::kernel::SeparationKernel;
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use sep_machine::asm::assemble;
use sep_machine::mmu::{Access, SegmentDescriptor};
use sep_machine::psw::Mode;
use sep_machine::Machine;
use sep_obs::report::hotpath_json;
use sep_obs::RunReport;

/// Steps per machine measurement: long enough that loop overheads dominate
/// cache-fill cost and timer noise.
const MACHINE_STEPS: u64 = 2_000_000;
/// Kernel steps per regime-count measurement.
const KERNEL_STEPS: u64 = 200_000;
const SHARDS: usize = 4;

/// A straight-line user-mode workload under the MMU: a register loop with
/// no kernel calls, so every step is fetch/decode/execute through the TLB.
/// The body is long enough (nine interiors per branch) that a superblock
/// amortizes its entry/terminator overhead the way real hot loops do.
fn user_machine() -> Machine {
    let prog = assemble(
        "
start:  INC R1
        BIC #0o177774, R1
        ADD R1, R2
        ADD #1, R3
        MOV R3, R4
        BIC #0o170000, R4
        ADD R4, R5
        COM R5
        COM R5
        BR start
",
    )
    .unwrap();
    let mut m = Machine::new();
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

/// The architectural outcome of a machine run: registers, PSW, counters.
fn machine_state(m: &Machine) -> (Vec<u16>, u16, u64, u64) {
    let regs = (0..8).map(|r| m.cpu.reg(r)).collect();
    (regs, m.cpu.psw.cc_bits(), m.steps, m.instructions)
}

fn mips(steps: u64, ms: f64) -> f64 {
    steps as f64 / (ms / 1000.0) / 1.0e6
}

fn main() {
    println!("# E10: hot-path execution engine\n");

    let mut report = RunReport::new("e10_hotpath")
        .param("machine_steps", MACHINE_STEPS)
        .param("kernel_steps", KERNEL_STEPS)
        .param("shards", SHARDS as u64);

    // -------------------------------------------------------------------
    // Machine: three-way sweep — step() with caches off, decode-cache-only
    // step_n, and the full superblock tier. Warm numbers take the fastest
    // of three batches so the floor asserts measure the engine, not
    // scheduler noise.
    // -------------------------------------------------------------------
    println!("## machine: straight-line user-mode loop, {MACHINE_STEPS} steps\n");

    let batch = |m: &mut Machine| {
        let (taken, ev) = m.step_n(MACHINE_STEPS);
        assert_eq!((taken, ev), (MACHINE_STEPS, None), "workload must not trap");
    };
    let warm_min = |m: &mut Machine| {
        (0..3)
            .map(|_| timed(|| batch(m)).1)
            .fold(f64::INFINITY, f64::min)
    };

    let mut slow = user_machine();
    slow.set_hotpath(false);
    let (_, slow_ms) = timed(|| {
        for _ in 0..MACHINE_STEPS {
            slow.step();
        }
    });

    let mut decode = user_machine();
    decode.set_superblocks(false);
    let ((), decode_cold_ms) = timed(|| batch(&mut decode));
    let decode_state = machine_state(&decode);
    let decode_warm_ms = warm_min(&mut decode);

    let mut sb = user_machine();
    let ((), sb_cold_ms) = timed(|| batch(&mut sb));
    let sb_state = machine_state(&sb);
    let sb_warm_ms = warm_min(&mut sb);

    // Differential: all three engines reach exactly the same architectural
    // state, after the first batch and after the warm batches.
    assert_eq!(
        machine_state(&slow),
        decode_state,
        "decode path diverged from the slow path"
    );
    assert_eq!(
        decode_state, sb_state,
        "superblock tier diverged from the decode path"
    );
    assert_eq!(
        machine_state(&decode),
        machine_state(&sb),
        "paths diverged during the warm batches"
    );

    let decode_speedup = slow_ms / decode_warm_ms;
    let sb_speedup = slow_ms / sb_warm_ms;
    let tier_speedup = decode_warm_ms / sb_warm_ms;
    header(&["configuration", "ms", "Minstr/sec", "vs slow"]);
    for (name, ms) in [
        ("step(), caches off", slow_ms),
        ("step_n decode-cache, cold", decode_cold_ms),
        ("step_n decode-cache, warm", decode_warm_ms),
        ("step_n superblocks, cold", sb_cold_ms),
        ("step_n superblocks, warm", sb_warm_ms),
    ] {
        row(&[
            name.into(),
            format!("{ms:.0}"),
            format!("{:.1}", mips(MACHINE_STEPS, ms)),
            format!("{:.2}x", slow_ms / ms),
        ]);
    }
    assert!(
        decode_speedup >= 2.0,
        "warm decode path must be at least 2x the slow path, measured {decode_speedup:.2}x"
    );
    assert!(
        tier_speedup >= 3.0,
        "warm superblock tier must be at least 3x the decode-cache path, \
         measured {tier_speedup:.2}x"
    );
    let hp = &sb.obs.metrics.hotpath;
    assert!(
        hp.sb_compiles >= 1 && hp.sb_hits > 0 && hp.sb_chains > 0,
        "superblock tier must have engaged on the hot loop"
    );
    println!(
        "\nicache {} hits / {} misses; TLB {} hits / {} misses / {} invalidations",
        hp.icache_hits, hp.icache_misses, hp.tlb_hits, hp.tlb_misses, hp.tlb_invalidations
    );
    println!(
        "superblocks: {} compiled, {} runs, {} chained, {} flushes, {} instructions in tier",
        hp.sb_compiles, hp.sb_hits, hp.sb_chains, hp.sb_flushes, hp.sb_instructions
    );
    report = report
        .run_custom("machine_hotpath_counters", hotpath_json(&sb.obs.metrics))
        .wall(
            "machine_slow_instr_per_sec",
            mips(MACHINE_STEPS, slow_ms) * 1.0e6,
        )
        .wall(
            "machine_decode_cold_instr_per_sec",
            mips(MACHINE_STEPS, decode_cold_ms) * 1.0e6,
        )
        .wall(
            "machine_decode_warm_instr_per_sec",
            mips(MACHINE_STEPS, decode_warm_ms) * 1.0e6,
        )
        .wall(
            "machine_sb_cold_instr_per_sec",
            mips(MACHINE_STEPS, sb_cold_ms) * 1.0e6,
        )
        .wall(
            "machine_sb_warm_instr_per_sec",
            mips(MACHINE_STEPS, sb_warm_ms) * 1.0e6,
        )
        .wall("machine_decode_speedup", decode_speedup)
        .wall("machine_sb_speedup", sb_speedup)
        .wall("machine_tier_speedup", tier_speedup);

    // -------------------------------------------------------------------
    // Kernel: full runs at 2–6 regimes, caches on vs off.
    // -------------------------------------------------------------------
    println!("\n## kernel: {KERNEL_STEPS} steps, caches on vs off\n");
    header(&["regimes", "off ms", "on ms", "speedup", "instructions"]);
    for n in [2usize, 3, 4, 5, 6] {
        let run = |hotpath: bool| {
            let mut k = SeparationKernel::boot(register_workload(n)).unwrap();
            k.machine.set_hotpath(hotpath);
            let (_, ms) = timed(|| k.run(KERNEL_STEPS));
            (k.state_vector(), k.machine.instructions, ms)
        };
        let (sv_off, instr_off, off_ms) = run(false);
        let (sv_on, instr_on, on_ms) = run(true);
        assert_eq!(
            sv_off, sv_on,
            "kernel({n}) state diverged across cache settings"
        );
        assert_eq!(instr_off, instr_on);
        row(&[
            n.to_string(),
            format!("{off_ms:.0}"),
            format!("{on_ms:.0}"),
            format!("{:.2}x", off_ms / on_ms),
            instr_on.to_string(),
        ]);
        report = report
            .run_custom(
                &format!("kernel_{n}"),
                sep_obs::Json::obj()
                    .field("regimes", n)
                    .field("steps", KERNEL_STEPS)
                    .field("instructions", instr_on),
            )
            .wall(&format!("kernel_{n}_off_ms"), off_ms)
            .wall(&format!("kernel_{n}_on_ms"), on_ms)
            .wall(&format!("kernel_{n}_speedup"), off_ms / on_ms);
    }

    // -------------------------------------------------------------------
    // Checker: the sharded checker's fingerprint seen-set at 4 shards.
    // -------------------------------------------------------------------
    println!("\n## checker: {SHARDS}-shard runs, fingerprint seen-sets\n");
    header(&["workload", "states", "ms", "st/s", "fp bytes"]);
    for name in ["registers_4", "memory_3"] {
        let sys = KernelSystem::new(match name {
            "registers_4" => register_workload(4),
            _ => memory_workload(3),
        })
        .unwrap();
        let ((rep, stats), ms) =
            timed(|| sys.check_with_stats(&CheckerSelect::Sharded { shards: SHARDS }));
        let reference = sys.check_with(&CheckerSelect::Sequential);
        assert_eq!(
            rep, reference,
            "{name}: sharded report diverged from the reference"
        );
        let stats = stats.expect("sharded runs report stats");
        assert_eq!(stats.fp_bytes, 16 * rep.states as u64);
        row(&[
            name.into(),
            rep.states.to_string(),
            format!("{ms:.0}"),
            format!("{:.0}", rep.states as f64 / (ms / 1000.0)),
            stats.fp_bytes.to_string(),
        ]);
        report = report
            .run_custom(
                &format!("checker_{name}"),
                checker_run_json(&rep, Some(&stats)),
            )
            .wall(
                &format!("checker_{name}_fp_states_per_sec"),
                rep.states as f64 / (ms / 1000.0),
            );
    }

    let out = "BENCH_obs_e10_hotpath.json";
    report.write_to(out).expect("write run report");
    println!("\nwrote {out} (wall clock kept apart from the deterministic sections)");

    println!("\nclaim: the fast path is pure memoization — caches and compiled");
    println!("superblocks reset on clone and drop on every MMU generation bump, so");
    println!("no regime can observe another's cache footprint. measured:");
    println!("byte-identical runs and reports across slow / decode-cache /");
    println!("superblock engines, ≥2x warm decode throughput, ≥3x warm superblock");
    println!("throughput on top of that, and a 16-byte-per-state checker seen-set");
    println!("with unchanged verdicts.");
}
