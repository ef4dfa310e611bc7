//! The separation-kernel stack's benchmark: three seeded workloads, each
//! run from one process, with end-to-end metrics measured untraced and
//! per-layer metrics from a separate traced run.
//!
//! - `kernel_mix`: one kernel running machine-code regimes (machine and
//!   kernel-step layers).
//! - `pos_check`: the sharded Proof of Separability checker on four
//!   configurations (model and verification layers).
//! - `fleet_lossy`: the 16-node fleet on 150‰-lossy wires (network,
//!   ARQ, components and native kernel steps).
//!
//! Every workload draws its inputs from the seed, repeats a fixed unit of
//! work ("rep") until the time budget is spent, checks each rep's outputs,
//! and insists that every deterministic count repeats exactly from rep to
//! rep. Host times are reported as medians over the reps. See `README.md`
//! for why each workload was chosen and which layer metric should move
//! which end-to-end metric.

#![forbid(unsafe_code)]

mod fleet_lossy;
mod kernel_mix;
mod pos_check;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a metric's value depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock time or memory: carries the host's noise.
    Host,
    /// A simulated quantity or a count: a pure function of the seed, so it
    /// repeats exactly across runs.
    Sim,
}

/// A metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Host or simulated.
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Def {
    Def {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Host, Sim};

/// The end-to-end metrics every untraced run reports, on every workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower, Host),
    def("peak_rss_mb", "MB", Lower, Host),
    def("run_s", "s", Lower, Host),
];

/// The per-layer metrics every traced run reports. A metric of a layer the
/// workload does not engage reads 0.
pub const PER_LAYER: &[Def] = &[
    // sep-machine
    def("machine.slow_ns_per_instr", "ns", Lower, Host),
    def("machine.decode_ns_per_instr", "ns", Lower, Host),
    def("machine.tier_ns_per_instr", "ns", Lower, Host),
    def("machine.icache_hit_pm", "pm", Higher, Sim),
    def("machine.tlb_hit_pm", "pm", Higher, Sim),
    def("machine.tlb_invalidations", "count", Lower, Sim),
    def("machine.sb_hits", "count", Higher, Sim),
    def("machine.sb_instr_pm", "pm", Higher, Sim),
    // sep-kernel
    def("kernel.minstr_per_s", "Minstr/s", Higher, Host),
    def("kernel.consume_ns", "ns", Lower, Host),
    def("kernel.exec_ns", "ns", Lower, Host),
    def("kernel.exec_instr_ns", "ns", Lower, Host),
    def("kernel.syscall_ns", "ns", Lower, Host),
    def("kernel.switch_ns", "ns", Lower, Host),
    def("kernel.irq_ns", "ns", Lower, Host),
    def("kernel.steps", "count", Higher, Sim),
    def("kernel.instructions", "count", Higher, Sim),
    def("kernel.swaps", "count", Lower, Sim),
    def("kernel.messages_sent", "count", Higher, Sim),
    def("kernel.bytes_copied", "count", Higher, Sim),
    def("kernel.idle_pm", "pm", Lower, Sim),
    // sep-model / sep-kernel::verify
    def("check.check_s", "s", Lower, Host),
    def("check.explore_ns_per_state", "ns", Lower, Host),
    def("check.cond_us_per_check", "us", Lower, Host),
    def("check.states", "count", Lower, Sim),
    def("check.total_checks", "count", Lower, Sim),
    def("check.levels", "count", Lower, Sim),
    def("check.max_frontier", "count", Lower, Sim),
    def("check.fp_bytes", "B", Lower, Sim),
    def("check.shard_imbalance_pm", "pm", Lower, Sim),
    def("check.reduction_x", "x", Higher, Sim),
    def("check.ample_skips", "count", Higher, Sim),
    def("check.bloom_negatives", "count", Higher, Sim),
    // sep-distributed / sep-fleet / sep-components
    def("fleet.rounds_per_s", "1/s", Higher, Host),
    def("fleet.goodput_milli", "req/kround", Higher, Sim),
    def("fleet.p50_rounds", "rounds", Lower, Sim),
    def("fleet.p999_rounds", "rounds", Lower, Sim),
    def("fleet.latency_samples", "count", Higher, Sim),
    def("net.round_us_p50", "us", Lower, Host),
    def("net.round_us_p99", "us", Lower, Host),
    def("net.parallel_x", "x", Higher, Host),
    def("net.retransmissions", "count", Lower, Sim),
    def("net.wire_faults", "count", Lower, Sim),
    def("arq.retx_pm", "pm", Lower, Sim),
    def("arq.frame_us", "us", Lower, Host),
    def("arq.resyncs", "count", Lower, Sim),
    def("arq.peers_down", "count", Lower, Sim),
    def("fleet.kernel_steps", "count", Higher, Sim),
    def("fleet.idle_pm", "pm", Lower, Sim),
    def("fleet.host_ns_per_kstep", "ns", Lower, Host),
    def("fleet.gateway_sat_pm_max", "pm", Lower, Sim),
    def("fleet.channel_sat_pm_max", "pm", Lower, Sim),
    def("fleet.retried", "count", Lower, Sim),
    def("fleet.send_rejected", "count", Lower, Sim),
    def("fs.duplicates_replayed", "count", Lower, Sim),
    // The run as a whole, and the tracer itself.
    def("run.failed_pm", "pm", Lower, Sim),
    def("trace.overhead_pm", "pm", Lower, Host),
    def("trace.spans", "count", Lower, Sim),
    def("trace.clock_ns", "ns", Lower, Host),
    def("self.setup_ms", "ms", Lower, Host),
    def("self.layer_ms", "ms", Lower, Host),
    def("self.harness_ms", "ms", Lower, Host),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["kernel_mix", "pos_check", "fleet_lossy"];

/// Workload size: `Full` is what the benchmark measures; `Tiny` is for the
/// smoke tests, small enough to run in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// Test size.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The end-to-end metrics under the workload's own names, with unit
    /// and kind, for the human-readable report.
    pub named: Vec<(String, f64, &'static str, Kind)>,
    /// Facts the run depends on (host, sizes, seed), printed before the
    /// result line.
    pub facts: Vec<(&'static str, String)>,
    /// Output-check failures, printed before the result line.
    pub errors: Vec<String>,
    /// A traced run: the result line carries the per-layer metrics.
    pub trace: bool,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Every output check passed.
    pub fn is_correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Records a fact.
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    /// Records a workload-named end-to-end metric for the report.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, kind: Kind) {
        self.named.push((name.to_string(), value, unit, kind));
    }

    /// Fills every declared per-layer metric the workload did not set
    /// with 0: that layer did no work on this workload.
    fn complete_per_layer(&mut self) {
        for d in PER_LAYER {
            self.metrics.entry(d.name).or_insert(0.0);
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the end-to-end
    /// or (traced) per-layer metrics with their units.
    pub fn json_line(&self) -> String {
        let defs = if self.trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).copied().unwrap_or(f64::NAN);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_num(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.is_correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust prints; non-finite values (which a
/// correct run never produces) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Runs one workload.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(workload: &str, p: &Params) -> Outcome {
    let mut out = match workload {
        "kernel_mix" => kernel_mix::run(p),
        "pos_check" => pos_check::run(p),
        "fleet_lossy" => fleet_lossy::run(p),
        other => panic!("unknown workload {other:?}"),
    };
    out.fact("workload", workload);
    out.fact("seed", p.seed);
    out.fact("trace", u8::from(p.trace));
    out.trace = p.trace;
    out.fact("nproc", nproc());
    out.fact("rustc", env!("LAYERBENCH_RUSTC"));
    if p.trace {
        out.complete_per_layer();
    }
    out
}

/// Available parallelism of the host.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set in MiB since the last
/// [`reset_peak_rss`], from `/proc/self/status`.
///
/// # Panics
///
/// Panics where the kernel does not report `VmHWM` (non-Linux hosts).
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Resets the process's peak resident set to its current resident set
/// (Linux `clear_refs` code 5), so a rep's peak can be read on its own.
///
/// # Panics
///
/// Panics where the kernel does not offer `/proc/self/clear_refs`.
pub(crate) fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// The median of a sample (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty sample.
pub(crate) fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `pm`-per-mille percentile of a sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub(crate) fn percentile_pm(xs: &[f64], pm: usize) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * pm).div_ceil(1000).max(1);
    v[rank - 1]
}

/// Calls `rep(i)` until `budget` has elapsed and at least `min` reps ran.
/// Returns the rep count and the first rep's peak resident set in MiB.
/// Only the first rep starts from a fresh heap: what the allocator keeps
/// after a multi-threaded rep depends on thread timing, and later reps'
/// peaks stack on it.
pub(crate) fn repeat_for(budget: Duration, min: usize, mut rep: impl FnMut(usize)) -> (usize, f64) {
    let start = Instant::now();
    reset_peak_rss();
    rep(0);
    let first_peak = peak_rss_mb();
    let mut i = 1;
    while i < min || start.elapsed() < budget {
        rep(i);
        i += 1;
    }
    (i, first_peak)
}

/// Seconds elapsed since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per mille, 0 when the base is 0.
pub(crate) fn pm(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 1000.0 / whole as f64
    }
}

/// Requires every rep's deterministic counts to equal the first rep's.
pub(crate) fn same_every_rep<T: PartialEq + std::fmt::Debug>(
    out: &mut Outcome,
    what: &str,
    first: &mut Option<T>,
    now: T,
) {
    match first {
        None => *first = Some(now),
        Some(f) => out.check(*f == now, || {
            format!("{what}: deterministic counts changed between reps: {f:?} vs {now:?}")
        }),
    }
}
