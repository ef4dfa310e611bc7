//! `kernel_mix`: one separation kernel running machine-code regimes for a
//! fixed step count.
//!
//! Four compute regimes each run a ~100-iteration register loop and then
//! SWAP; beside them the serial pipeline of `examples/assembly_regimes.rs`
//! runs a producer that reads host bytes off its serial line and SENDs
//! them over a kernel channel to a consumer that RECVs them and writes
//! them to its own serial line. Host bytes arrive through
//! [`SeparationKernel::consume_phase`] inputs. The machine and kernel-step
//! layers do nearly all the work; the regime switch every few hundred
//! instructions exercises TLB invalidation and the channel path.

use crate::trace::{clock_ns, Cat, Tracer};
use crate::{median, pm, repeat_for, same_every_rep, secs, Kind, Outcome, Params, Size};
use sep_kernel::config::{DeviceSpec, KernelConfig, RegimeSpec};
use sep_kernel::kernel::{KernelEvent, SeparationKernel};
use sep_machine::asm::assemble;
use sep_machine::mmu::{Access, SegmentDescriptor};
use sep_machine::psw::Mode;
use sep_machine::Machine;
use sep_model::rng::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// Compute regimes.
const COMPUTE: usize = 4;
/// Regime index of the serial producer.
const PRODUCER: usize = COMPUTE;
/// Regime index of the serial consumer.
const CONSUMER: usize = COMPUTE + 1;
/// Bytes that may still be in the pipeline when a rep ends: the serial
/// receive queue, the producer's buffer, the channel and the consumer's
/// buffer.
const IN_FLIGHT_MAX: usize = 64;
/// In traced reps, one kernel step in this many gets phase spans (odd, so
/// the samples do not lock onto a power-of-two period).
const SAMPLE_EVERY: u64 = 127;
/// Boots timed before the reps, so `setup_s` is a median of many.
const SETUP_SAMPLES: usize = 15;

/// Reads up to 8 bytes from the serial line and SENDs them on channel 0.
const PRODUCER_SRC: &str = "
start:  MOV #buf, R1
        MOV #0, R5
fill:   BIT #0o200, @#0o160000
        BEQ flush
        MOVB @#0o160002, (R1)+
        INC R5
        CMP R5, #8
        BNE fill
flush:  TST R5
        BEQ yield
resend: MOV #0, R0
        MOV #buf, R1
        MOV R5, R2
        TRAP 1
        TST R0
        BEQ yield
        TRAP 0
        BR resend
yield:  TRAP 0
        BR start
buf:    .blkw 4
";

/// RECVs on channel 0 and transmits each byte on its serial line.
const CONSUMER_SRC: &str = "
start:  MOV #0, R0
        MOV #buf, R1
        MOV #8, R2
        TRAP 2
        TST R0
        BNE yield
        MOV R2, R5
        MOV #buf, R1
putc:   TST R5
        BEQ yield
wait:   BIT #0o200, @#0o160004
        BEQ wait
        MOVB (R1)+, @#0o160006
        DEC R5
        BR putc
yield:  TRAP 0
        BR start
buf:    .blkw 4
";

/// A compute regime: a register loop of `iters` iterations, then `tail`
/// (`TRAP 0` in the kernel; `NOP` on a bare machine, which has no kernel
/// to yield to).
fn compute_src(iters: u64, add: u64, tail: &str) -> String {
    format!(
        "
start:  MOV #{iters}, R4
loop:   ADD R1, R2
        ADD #{add}, R1
        BIC #0o170000, R2
        MOV R2, R3
        COM R3
        SOB R4, loop
        {tail}
        BR start
"
    )
}

/// The seed-drawn inputs.
#[derive(Debug, Clone)]
pub(crate) struct Inputs {
    /// (iterations, addend) per compute regime.
    pub(crate) compute: Vec<(u64, u64)>,
    /// One host byte reaches the producer every this many kernel steps:
    /// several per scheduling round, fewer than the producer drains per
    /// turn, so the pipeline never backs up.
    pub(crate) feed_every: u64,
    /// Host bytes for the producer, one per `feed_every` steps.
    pub(crate) bytes: Vec<u8>,
    /// Kernel steps per rep.
    pub(crate) steps: u64,
    /// Steps of the slow-engine reference prefix.
    pub(crate) prefix: u64,
}

impl Inputs {
    /// Draws the inputs for `seed`.
    pub(crate) fn new(seed: u64, size: Size) -> Inputs {
        let (steps, prefix): (u64, u64) = match size {
            Size::Full => (4_000_000, 200_000),
            Size::Tiny => (40_000, 20_000),
        };
        let mut rng = SplitMix64::new(seed ^ 0x6B65_726E_656C);
        let compute = (0..COMPUTE)
            .map(|_| (90 + rng.below(21) as u64, 1 + rng.below(64) as u64))
            .collect();
        let feed_every = 400 + rng.below(225) as u64;
        let bytes = (0..steps.div_ceil(feed_every))
            .map(|_| rng.next_u64() as u8)
            .collect();
        Inputs {
            compute,
            feed_every,
            bytes,
            steps,
            prefix,
        }
    }

    /// The kernel configuration.
    pub(crate) fn config(&self) -> KernelConfig {
        let mut regimes: Vec<RegimeSpec> = self
            .compute
            .iter()
            .enumerate()
            .map(|(i, &(iters, add))| {
                RegimeSpec::assembly(&format!("compute{i}"), &compute_src(iters, add, "TRAP 0"))
            })
            .collect();
        regimes
            .push(RegimeSpec::assembly("producer", PRODUCER_SRC).with_device(DeviceSpec::Serial));
        regimes
            .push(RegimeSpec::assembly("consumer", CONSUMER_SRC).with_device(DeviceSpec::Serial));
        KernelConfig::new(regimes).with_channel(PRODUCER, CONSUMER, 4)
    }
}

/// The deterministic outcome of driving a kernel: identical on every rep,
/// every engine and every host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Counts {
    steps: u64,
    instructions: u64,
    swaps: u64,
    messages_sent: u64,
    bytes_copied: u64,
    idle_steps: u64,
    faults: u64,
    fed: usize,
    delivered: Vec<u8>,
}

/// Host time of the sampled steps, split by phase and by the event
/// `exec_phase` returned.
#[derive(Debug, Default)]
struct PhaseTimes {
    consume: (f64, u64),
    exec: (f64, u64),
    instr: (f64, u64),
    syscall: (f64, u64),
    switch: (f64, u64),
    irq: (f64, u64),
}

fn add(slot: &mut (f64, u64), ns: f64) {
    slot.0 += ns;
    slot.1 += 1;
}

/// Mean nanoseconds per sampled call, less the clock's own cost.
fn mean(slot: (f64, u64), clock_ns: f64) -> f64 {
    if slot.1 == 0 {
        0.0
    } else {
        (slot.0 / slot.1 as f64 - clock_ns).max(0.0)
    }
}

/// Drives `k` for `steps` kernel steps, feeding the producer. With a
/// tracer, one step in [`SAMPLE_EVERY`] is timed phase by phase.
fn drive(
    k: &mut SeparationKernel,
    inp: &Inputs,
    steps: u64,
    mut tr: Option<(&mut Tracer, &mut PhaseTimes)>,
) -> Counts {
    let mut feed = [None; CONSUMER + 1];
    let mut fed = 0;
    let mut faults = 0;
    let mut delivered = Vec::new();
    for step in 0..steps {
        let inputs: &[Option<u8>] = if step % inp.feed_every == 0 {
            feed[PRODUCER] = Some(inp.bytes[fed]);
            fed += 1;
            &feed
        } else {
            &[]
        };
        let ev = match tr.as_mut() {
            Some((t, times)) if step % SAMPLE_EVERY == 0 => {
                let t0 = Instant::now();
                let consumed = k.consume_phase(inputs);
                let t1 = Instant::now();
                t.leaf(
                    "SeparationKernel::consume_phase",
                    t0,
                    t1,
                    SAMPLE_EVERY as u32,
                );
                add(&mut times.consume, (t1 - t0).as_nanos() as f64);
                consumed.unwrap_or_else(|| {
                    let ev = k.exec_phase();
                    let t2 = Instant::now();
                    t.leaf("SeparationKernel::exec_phase", t1, t2, SAMPLE_EVERY as u32);
                    let ns = (t2 - t1).as_nanos() as f64;
                    add(&mut times.exec, ns);
                    match ev {
                        KernelEvent::Executed | KernelEvent::NativeStep => {
                            add(&mut times.instr, ns)
                        }
                        KernelEvent::Syscall { .. } => add(&mut times.syscall, ns),
                        KernelEvent::Swapped { .. } => add(&mut times.switch, ns),
                        KernelEvent::DeliveredInterrupt { .. }
                        | KernelEvent::DiscardedInterrupt { .. } => add(&mut times.irq, ns),
                        _ => {}
                    }
                    ev
                })
            }
            _ => match k.consume_phase(inputs) {
                Some(ev) => ev,
                None => k.exec_phase(),
            },
        };
        if let KernelEvent::Fault { .. } = ev {
            faults += 1;
        }
        if inputs.len() > PRODUCER {
            feed[PRODUCER] = None;
        }
        if step % 4096 == 4095 || step + 1 == steps {
            delivered.extend(k.host_take_serial_output(CONSUMER));
        }
    }
    let s = &k.stats;
    Counts {
        steps: s.steps,
        instructions: s.instructions,
        swaps: s.swaps,
        messages_sent: s.messages_sent,
        bytes_copied: s.bytes_copied,
        idle_steps: s.idle_steps,
        faults,
        fed,
        delivered,
    }
}

/// Checks one drive's outputs: no faults, and every byte the consumer
/// wrote is the next byte the host fed, with at most [`IN_FLIGHT_MAX`]
/// still in the pipeline.
fn check_counts(out: &mut Outcome, inp: &Inputs, c: &Counts) {
    out.check(c.faults == 0, || {
        format!("{} unexpected Fault events", c.faults)
    });
    out.check(
        c.delivered[..] == inp.bytes[..c.delivered.len().min(c.fed)],
        || "consumer output is not the host's bytes in order".into(),
    );
    out.check(c.delivered.len() + IN_FLIGHT_MAX >= c.fed, || {
        format!(
            "only {} of {} host bytes reached the consumer",
            c.delivered.len(),
            c.fed
        )
    });
    out.check(c.messages_sent > 0 && c.swaps > 0, || {
        "pipeline never ran".into()
    });
}

fn boot(cfg: &KernelConfig) -> (SeparationKernel, f64) {
    let cfg = cfg.clone();
    let t = Instant::now();
    let k = SeparationKernel::boot(cfg).expect("kernel_mix configuration boots");
    (k, secs(t))
}

/// Runs the workload.
pub(crate) fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let inp = Inputs::new(p.seed, p.size);
    let cfg = inp.config();
    out.fact("regimes", CONSUMER + 1);
    out.fact("steps_per_rep", inp.steps);
    out.fact("workers", 1);
    out.fact("shards", "-");

    // The slow engine is the reference: on a prefix, the default engine
    // must reach exactly the same counts and outputs.
    let (mut slow, _) = boot(&cfg);
    slow.machine.set_hotpath(false);
    let reference = drive(&mut slow, &inp, inp.prefix, None);
    let (mut fast, _) = boot(&cfg);
    let prefix = drive(&mut fast, &inp, inp.prefix, None);
    out.check(prefix == reference, || {
        format!(
            "default engine diverged from the slow engine on a {}-step prefix",
            inp.prefix
        )
    });

    let mut setup: Vec<f64> = (0..SETUP_SAMPLES).map(|_| boot(&cfg).1).collect();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut first = None;
    let mut tracer = Tracer::new();
    let mut times = PhaseTimes::default();
    let mut last = None;
    let (reps, peak_rss_mb) = repeat_for(p.budget, if p.trace { 4 } else { 3 }, |i| {
        // Traced runs alternate untraced and traced reps, so the overhead
        // compares reps taken under the same host conditions.
        let traced_rep = p.trace && i % 2 == 1;
        let counts = if traced_rep {
            let rep = tracer.open("rep", Cat::Harness);
            let boot_span = tracer.open("SeparationKernel::boot", Cat::Setup);
            let (mut k, s) = boot(&cfg);
            tracer.close(boot_span);
            setup.push(s);
            let drive_span = tracer.open("drive", Cat::Harness);
            let t = Instant::now();
            let c = drive(&mut k, &inp, inp.steps, Some((&mut tracer, &mut times)));
            traced.push(secs(t));
            tracer.close(drive_span);
            tracer.close(rep);
            c
        } else {
            let (mut k, s) = boot(&cfg);
            setup.push(s);
            let t = Instant::now();
            let c = drive(&mut k, &inp, inp.steps, None);
            untraced.push(secs(t));
            last = Some(k);
            c
        };
        check_counts(&mut out, &inp, &counts);
        same_every_rep(&mut out, "kernel_mix", &mut first, counts);
    });
    let counts = first.expect("at least one rep ran");
    let k = last.expect("at least one untraced rep ran");
    out.attempted = counts.steps;
    out.failed = counts.faults;
    out.fact("reps", reps);

    let run_s = median(&untraced);
    let minstr = counts.instructions as f64 / run_s / 1e6;
    out.metrics.insert("setup_s", median(&setup));
    out.metrics.insert("peak_rss_mb", peak_rss_mb);
    out.metrics.insert("run_s", run_s);
    out.named("setup_s", median(&setup), "s", Kind::Host);
    out.named(
        "failed_pm",
        pm(counts.faults, counts.steps),
        "pm",
        Kind::Sim,
    );
    out.named("kernel_minstr_per_s", minstr, "Minstr/s", Kind::Host);
    if !p.trace {
        return out;
    }

    let clock = clock_ns();
    let m = &mut out.metrics;
    m.insert("trace.clock_ns", clock);
    m.insert("kernel.minstr_per_s", minstr);
    m.insert("run.failed_pm", pm(counts.faults, counts.steps));
    m.insert(
        "trace.overhead_pm",
        (median(&traced) / run_s - 1.0) * 1000.0,
    );
    m.insert("kernel.consume_ns", mean(times.consume, clock));
    m.insert("kernel.exec_ns", mean(times.exec, clock));
    m.insert("kernel.exec_instr_ns", mean(times.instr, clock));
    m.insert("kernel.syscall_ns", mean(times.syscall, clock));
    m.insert("kernel.switch_ns", mean(times.switch, clock));
    m.insert("kernel.irq_ns", mean(times.irq, clock));
    m.insert("kernel.steps", counts.steps as f64);
    m.insert("kernel.instructions", counts.instructions as f64);
    m.insert("kernel.swaps", counts.swaps as f64);
    m.insert("kernel.messages_sent", counts.messages_sent as f64);
    m.insert("kernel.bytes_copied", counts.bytes_copied as f64);
    m.insert("kernel.idle_pm", pm(counts.idle_steps, counts.steps));
    let hp = &k.machine.obs.metrics.hotpath;
    m.insert(
        "machine.icache_hit_pm",
        pm(hp.icache_hits, hp.icache_hits + hp.icache_misses),
    );
    m.insert(
        "machine.tlb_hit_pm",
        pm(hp.tlb_hits, hp.tlb_hits + hp.tlb_misses),
    );
    m.insert("machine.tlb_invalidations", hp.tlb_invalidations as f64);
    m.insert("machine.sb_hits", hp.sb_hits as f64);
    m.insert(
        "machine.sb_instr_pm",
        pm(hp.sb_instructions, counts.instructions),
    );
    machine_engines(&mut out, &inp, p.size, &mut tracer);
    tracer.finish(&mut out, "kernel_mix", p.seed, traced.len());
    out
}

/// A bare machine running compute regime 0's loop in user mode under the
/// MMU, as the kernel would map it, with `NOP` in place of the SWAP.
fn bare_machine(inp: &Inputs) -> Machine {
    let (iters, add) = inp.compute[0];
    let prog = assemble(&compute_src(iters, add, "NOP")).expect("compute regime assembles");
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

/// Architectural state, for the engine cross-check.
fn arch(m: &Machine) -> (Vec<u16>, u16, u64) {
    (
        (0..8).map(|r| m.cpu.reg(r)).collect(),
        m.cpu.psw.cc_bits(),
        m.instructions,
    )
}

/// Nanoseconds per instruction of the three machine engines on the bare
/// machine: `step()` with caches off, then `step_n` with the decode cache
/// only and with the superblock tier. Each engine first runs a warm-up
/// batch; all three must reach the same architectural state.
fn machine_engines(out: &mut Outcome, inp: &Inputs, size: Size, tr: &mut Tracer) {
    let n: u64 = match size {
        Size::Full => 2_000_000,
        Size::Tiny => 20_000,
    };
    let mut slow = bare_machine(inp);
    slow.set_hotpath(false);
    let slow_ns = tr.span("Machine::step", Cat::Layer, |_| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(slow.step());
        }
        t.elapsed().as_nanos() as f64 / n as f64
    });
    let batch = |m: &mut Machine, tr: &mut Tracer| {
        m.step_n(n); // warm-up: fills caches, compiles hot blocks
        tr.span("Machine::step_n", Cat::Layer, |_| {
            let t = Instant::now();
            let (taken, ev) = m.step_n(n);
            let ns = t.elapsed().as_nanos() as f64 / n as f64;
            (ns, taken == n && ev.is_none())
        })
    };
    let mut decode = bare_machine(inp);
    decode.set_superblocks(false);
    let (decode_ns, decode_ok) = batch(&mut decode, tr);
    let mut tier = bare_machine(inp);
    let (tier_ns, tier_ok) = batch(&mut tier, tr);
    // The slow machine ran n steps, the others 2n: bring it level.
    for _ in 0..n {
        slow.step();
    }
    out.check(decode_ok && tier_ok, || "bare compute loop trapped".into());
    out.check(
        arch(&slow) == arch(&decode) && arch(&decode) == arch(&tier),
        || "machine engines diverged on the compute loop".into(),
    );
    out.fact("machine_instr_per_engine", n);
    let m = &mut out.metrics;
    m.insert("machine.slow_ns_per_instr", slow_ns);
    m.insert("machine.decode_ns_per_instr", decode_ns);
    m.insert("machine.tier_ns_per_instr", tier_ns);
}
