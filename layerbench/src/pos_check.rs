//! `pos_check`: the production Proof of Separability path —
//! `CheckerSelect::Sharded { shards: 2 }` — on four configurations:
//!
//! - six register-computing regimes and six memory-writing regimes, which
//!   have no symmetry, so the reductions find nothing to prune;
//! - five interchangeable serial-line regimes with symmetry, partial-order
//!   reduction and the Bloom pre-filter on, where the reductions do the
//!   work;
//! - three register regimes on a kernel mutated to leak condition codes
//!   across the context switch, so the violation path runs.
//!
//! The seed draws the programs' constants. The clean configurations keep
//! their state-space shape under every seed (odd strides over a fixed
//! modulus), so `run_s` compares like with like across seeds; the mutant
//! draws its moduli, so its state count moves with the seed.

use crate::trace::{Cat, Tracer};
use crate::{median, pm, repeat_for, same_every_rep, secs, Kind, Outcome, Params, Size};
use sep_bench::symmetric_workload;
use sep_kernel::config::{KernelConfig, Mutation, RegimeSpec};
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use sep_model::fp::{BloomParams, Dedup};
use sep_model::rng::SplitMix64;
use std::time::Instant;

/// Checker shards (worker/owner thread pairs).
const SHARDS: usize = 2;
/// Adapters built before the reps, so `setup_s` is a median of many.
const SETUP_SAMPLES: usize = 5;

/// One configuration to verify.
#[derive(Debug, Clone)]
pub(crate) struct Case {
    /// Label.
    pub(crate) name: &'static str,
    cfg: KernelConfig,
    /// Symmetric serial configuration: input byte, reductions on.
    serial_byte: Option<u8>,
    /// The verdict a correct checker reaches.
    pub(crate) separable: bool,
}

impl Case {
    /// Builds the verification adapter (the timed set-up).
    fn system(&self) -> KernelSystem {
        let sys = self.unreduced();
        match self.serial_byte {
            Some(_) => sys
                .with_symmetry(true)
                .with_por(true)
                .with_dedup(Dedup::Bloom(BloomParams::default())),
            None => sys,
        }
    }

    /// The same configuration with every reduction off.
    fn unreduced(&self) -> KernelSystem {
        let sys = KernelSystem::new(self.cfg.clone()).expect("pos_check configuration boots");
        match self.serial_byte {
            Some(b) => sys.with_input_bytes(&[b]),
            None => sys,
        }
    }
}

/// Register regimes: `ADD #stride` into R1 modulo `modulus`, condition
/// codes set from R1's parity, then SWAP. An odd stride visits every
/// residue, so the state-space shape depends on the moduli only.
fn registers(rng: &mut SplitMix64, moduli: &[u16]) -> KernelConfig {
    let regimes = moduli
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let stride = 1 + 2 * rng.below(usize::from(m / 2));
            let mask = !(m - 1);
            let constant = 1 + rng.below(0o7777);
            let source = format!(
                "
start:  ADD #{stride}, R1
        BIC #{mask}, R1
        MOV #{constant}, R3
        BIT #1, R1
        BEQ even
        SEC
        TRAP 0
        BR start
even:   CLC
        TRAP 0
        BR start
"
            );
            RegimeSpec::assembly(&format!("regime{i}"), &source)
        })
        .collect();
    KernelConfig::new(regimes)
}

/// Memory regimes: `ADD #stride` into a partition word modulo 8.
fn memory(rng: &mut SplitMix64, n: usize) -> KernelConfig {
    let regimes = (0..n)
        .map(|i| {
            let stride = 1 + 2 * rng.below(4);
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

/// The four configurations for `seed`.
pub(crate) fn cases(seed: u64, size: Size) -> Vec<Case> {
    let (big, sym, mutant) = match size {
        Size::Full => (6, 5, 3),
        Size::Tiny => (3, 3, 2),
    };
    let mut rng = SplitMix64::new(seed ^ 0x706F_735F_6368);
    let clean = registers(&mut rng, &vec![8; big]);
    let mem = memory(&mut rng, big);
    let serial_byte = 1 + rng.below(255) as u8;
    let moduli: Vec<u16> = (0..mutant).map(|_| [4, 8][rng.below(2)]).collect();
    let mut leaky = registers(&mut rng, &moduli);
    leaky.mutation = Mutation::LeakConditionCodes;
    vec![
        Case {
            name: "registers",
            cfg: clean,
            serial_byte: None,
            separable: true,
        },
        Case {
            name: "memory",
            cfg: mem,
            serial_byte: None,
            separable: true,
        },
        Case {
            name: "symmetric",
            cfg: symmetric_workload(sym),
            serial_byte: Some(serial_byte),
            separable: true,
        },
        Case {
            name: "leak_cc_mutant",
            cfg: leaky,
            serial_byte: None,
            separable: false,
        },
    ]
}

/// One configuration's deterministic checker outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    separable: bool,
    states: usize,
    total_checks: u64,
    violations: usize,
    levels: usize,
    max_frontier: usize,
    fp_bytes: u64,
    owned: Vec<usize>,
    ample_skips: u64,
    bloom_negatives: u64,
}

fn check(sys: &KernelSystem) -> Verdict {
    let (report, stats) = sys.check_with_stats(&CheckerSelect::Sharded { shards: SHARDS });
    let stats = stats.expect("sharded checker reports statistics");
    Verdict {
        separable: report.is_separable(),
        states: report.states,
        total_checks: report.total_checks(),
        violations: report.violations.len(),
        levels: stats.levels,
        max_frontier: stats.max_frontier,
        fp_bytes: stats.fp_bytes,
        owned: stats.per_shard.iter().map(|s| s.owned).collect(),
        ample_skips: stats.reduction.ample_skips,
        bloom_negatives: stats.reduction.bloom_negatives,
    }
}

/// Runs the workload.
pub(crate) fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let cases = cases(p.seed, p.size);
    out.fact(
        "configs",
        cases.iter().map(|c| c.name).collect::<Vec<_>>().join("+"),
    );
    out.fact("workers", SHARDS);
    out.fact("shards", SHARDS);

    let mut setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for c in &cases {
                std::hint::black_box(c.system());
            }
            secs(t)
        })
        .collect();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut explore_s = 0.0;
    let mut cond_s = 0.0;
    let mut explored = 0usize;
    let mut first = None;
    let mut tracer = Tracer::new();
    let (reps, peak_rss_mb) = repeat_for(p.budget, if p.trace { 4 } else { 3 }, |i| {
        let traced_rep = p.trace && i % 2 == 1;
        let rep = traced_rep.then(|| tracer.open("rep", Cat::Harness));
        let (mut setup_s, mut check_s) = (0.0, 0.0);
        let mut verdicts = Vec::new();
        for c in &cases {
            let t = Instant::now();
            let sys = if traced_rep {
                tracer.span("KernelSystem::new", Cat::Setup, |_| c.system())
            } else {
                c.system()
            };
            setup_s += secs(t);
            let v = if traced_rep {
                // Exploration alone, then the full check (which explores
                // again): the difference is the condition-checking cost.
                let (states, e) = tracer.span("KernelSystem::explore_sharded", Cat::Layer, |_| {
                    let t = Instant::now();
                    let n = sys.explore_sharded(SHARDS).0.len();
                    (n, secs(t))
                });
                let t = Instant::now();
                let v = tracer.span("KernelSystem::check_with_stats", Cat::Layer, |_| {
                    check(&sys)
                });
                let s = secs(t);
                check_s += s;
                explore_s += e;
                cond_s += s - e;
                explored += states;
                v
            } else {
                let t = Instant::now();
                let v = check(&sys);
                check_s += secs(t);
                v
            };
            out.check(v.separable == c.separable, || {
                format!(
                    "{}: verdict {} where {} was expected",
                    c.name,
                    if v.separable { "SEPARABLE" } else { "VIOLATED" },
                    if c.separable { "SEPARABLE" } else { "VIOLATED" }
                )
            });
            verdicts.push(v);
        }
        if let Some(id) = rep {
            tracer.close(id);
            traced.push(check_s);
        } else {
            untraced.push(check_s);
        }
        setup.push(setup_s);
        same_every_rep(&mut out, "pos_check", &mut first, verdicts);
    });
    let verdicts = first.expect("at least one rep ran");
    out.attempted = cases.len() as u64;
    out.failed = verdicts
        .iter()
        .zip(&cases)
        .filter(|(v, c)| v.separable != c.separable)
        .count() as u64;
    out.fact("reps", reps);

    let check_s = median(&untraced);
    out.metrics.insert("setup_s", median(&setup));
    out.metrics.insert("peak_rss_mb", peak_rss_mb);
    out.metrics.insert("run_s", check_s);
    out.named("setup_s", median(&setup), "s", Kind::Host);
    out.named("failed_pm", pm(out.failed, out.attempted), "pm", Kind::Sim);
    out.named("check_s", check_s, "s", Kind::Host);
    if !p.trace {
        return out;
    }

    let sum = |f: fn(&Verdict) -> u64| verdicts.iter().map(f).sum::<u64>();
    let states = sum(|v| v.states as u64);
    let checks = sum(|v| v.total_checks);
    let mut owned = [0usize; SHARDS];
    for v in &verdicts {
        for (o, x) in owned.iter_mut().zip(&v.owned) {
            *o += x;
        }
    }
    let mean_owned = owned.iter().sum::<usize>() as f64 / SHARDS as f64;
    let max_owned = owned.iter().copied().max().unwrap_or(0) as f64;
    let sym = cases
        .iter()
        .position(|c| c.serial_byte.is_some())
        .expect("a symmetric case");
    let unreduced = tracer.span("KernelSystem::explore_sharded", Cat::Layer, |_| {
        cases[sym].unreduced().explore_sharded(SHARDS).0.len()
    });
    let n_traced = traced.len() as f64;

    let m = &mut out.metrics;
    m.insert("check.check_s", check_s);
    m.insert("run.failed_pm", pm(out.failed, out.attempted));
    m.insert(
        "trace.overhead_pm",
        (median(&traced) / check_s - 1.0) * 1000.0,
    );
    m.insert(
        "check.explore_ns_per_state",
        explore_s * 1e9 / explored as f64,
    );
    m.insert(
        "check.cond_us_per_check",
        cond_s * 1e6 / (checks as f64 * n_traced),
    );
    m.insert("check.states", states as f64);
    m.insert("check.total_checks", checks as f64);
    m.insert("check.levels", sum(|v| v.levels as u64) as f64);
    m.insert(
        "check.max_frontier",
        verdicts.iter().map(|v| v.max_frontier).max().unwrap_or(0) as f64,
    );
    m.insert("check.fp_bytes", sum(|v| v.fp_bytes) as f64);
    m.insert("check.shard_imbalance_pm", max_owned * 1000.0 / mean_owned);
    m.insert(
        "check.reduction_x",
        unreduced as f64 / verdicts[sym].states as f64,
    );
    m.insert("check.ample_skips", sum(|v| v.ample_skips) as f64);
    m.insert("check.bloom_negatives", sum(|v| v.bloom_negatives) as f64);
    tracer.finish(&mut out, "pos_check", p.seed, traced.len());
    out
}
