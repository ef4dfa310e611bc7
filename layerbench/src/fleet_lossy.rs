//! `fleet_lossy`: the 16-node fleet of experiment E11 — 8 load-generator
//! nodes fronting 100,000 closed-loop clients (window 16, read/write/guard
//! mix 550/350/100), 4 file servers, 2 Guard nodes and a 2-node SNFE
//! pipeline — with 150‰ loss on every link, run on 2 workers.
//!
//! It exercises the network round executor, the gateway ARQ, the
//! components and native kernel steps. It executes no machine code, so
//! machine-layer changes are predicted to leave it unmoved.

use crate::trace::{Cat, Tracer};
use crate::{
    median, percentile_pm, pm, repeat_for, same_every_rep, secs, Kind, Outcome, Params, Size,
};
use sep_components::guard::ApproveAll;
use sep_components::snfe::{BlackComponent, Censor, CensorPolicy, CryptoBox, RedComponent};
use sep_components::util::{Sink, Source};
use sep_components::{FileServer, FsClient, Guard};
use sep_distributed::{Network, Node, NodeIo, RetxReceiver, RetxSender};
use sep_fault::LossModel;
use sep_fleet::{
    BurstPhase, Fleet, FleetTopology, LinkSpec, LoadGen, LoadGenCfg, LoopMode, NodeSpec, Reflector,
    WorkloadMix,
};
use sep_policy::SecurityLevel;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Load-generator nodes.
const LG_NODES: usize = 8;
/// Simulated clients per generator node.
const USERS_PER_NODE: u64 = 12_500;
/// Closed-loop window per generator.
const WINDOW: u64 = 16;
/// Kernel slots per node per round.
const SLOTS: u64 = 64;
/// Wire loss on every link, per mille.
const LOSS_PM: u16 = 150;
/// Step-phase workers of the measured runs.
const WORKERS: usize = 2;
/// Fleet builds timed before the reps, so `setup_s` is a median of many.
const SETUP_SAMPLES: usize = 5;
/// Traced reps at 2 workers wrap `run_rounds` in spans of this many
/// rounds (the worker pool is started once per call, so per-round calls
/// would change what is measured).
const CHUNK: u64 = 360;
/// Rounds per rep: at full size, ~44k completed requests, so at least
/// ten latency samples lie beyond p99.9.
fn rounds(size: Size) -> u64 {
    match size {
        Size::Full => 1440,
        Size::Tiny => 120,
    }
}

/// Payloads the two-node ARQ probe transfers.
fn arq_frames(size: Size) -> usize {
    match size {
        Size::Full => 2_000,
        Size::Tiny => 200,
    }
}

/// The e11 wire fault mix at `pm` per mille: a third each of drops,
/// duplicates and reorders.
fn lossy(seed: u64, pm: u16) -> LossModel {
    LossModel::new(seed)
        .with_drop(pm / 3)
        .with_duplicate(pm / 3)
        .with_reorder(pm - 2 * (pm / 3))
}

fn lg_spec(seed: u64, i: usize) -> NodeSpec {
    let name = format!("lg{i}");
    let cfg = LoadGenCfg {
        seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        users: USERS_PER_NODE,
        mode: LoopMode::Closed { window: WINDOW },
        mix: WorkloadMix {
            read_pm: 550,
            write_pm: 350,
            guard_pm: 100,
        },
        phases: vec![
            BurstPhase {
                rounds: 60,
                level_pm: 500,
            },
            BurstPhase {
                rounds: 60,
                level_pm: 1500,
            },
        ],
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    NodeSpec::new(&name)
        .slots_per_round(SLOTS)
        .component(Box::new(LoadGen::new(&name, cfg)))
        .output(0, "fs.req", "fs.req")
        .input("fs.rsp", 0, "fs.rsp")
        .output(0, "guard.req", "guard.req")
        .input("guard.rsp", 0, "guard.rsp")
}

fn fs_spec(i: usize, clients: usize) -> NodeSpec {
    let fs_clients = (0..clients)
        .map(|c| FsClient {
            name: format!("c{c}"),
            level: SecurityLevel::unclassified(),
            special_delete: false,
        })
        .collect();
    let mut spec = NodeSpec::new(&format!("fs{i}"))
        .slots_per_round(SLOTS)
        .component(Box::new(FileServer::new(fs_clients)));
    for c in 0..clients {
        spec = spec
            .input(&format!("c{c}.req"), 0, &format!("c{c}.req"))
            .output(0, &format!("c{c}.rsp"), &format!("c{c}.rsp"));
    }
    spec
}

fn guard_spec(i: usize, pairs: usize) -> NodeSpec {
    let mut spec = NodeSpec::new(&format!("guard{i}")).slots_per_round(SLOTS);
    for j in 0..pairs {
        spec = spec
            .component(Box::new(Guard::new(Box::new(ApproveAll))))
            .component(Box::new(Reflector::new(&format!("refl{j}"))));
    }
    for j in 0..pairs {
        let (g, r) = (2 * j, 2 * j + 1);
        spec = spec
            .local(g, "high.out", r, "in", 16)
            .local(r, "out", g, "high.in", 16)
            .input(&format!("low{j}.in"), g, "low.in")
            .output(g, "low.out", &format!("low{j}.out"));
    }
    spec
}

fn snfe_red_spec(frames: u64) -> NodeSpec {
    let frames: Vec<Vec<u8>> = (0..frames)
        .map(|i| format!("host frame {i} for the black side").into_bytes())
        .collect();
    NodeSpec::new("snfe-red")
        .slots_per_round(SLOTS)
        .component(Box::new(Source::new("host", frames)))
        .component(Box::new(RedComponent::new(1)))
        .component(Box::new(CryptoBox::new([0xE1, 0x1F, 0x1E, 0xE7])))
        .component(Box::new(Censor::new(CensorPolicy::canonical())))
        .local(0, "out", 1, "host.in", 8)
        .local(1, "crypto.out", 2, "in", 8)
        .local(1, "bypass.out", 3, "red.in", 8)
        .output(2, "out", "crypto.out")
        .output(3, "black.out", "bypass.out")
}

fn snfe_black_spec() -> NodeSpec {
    NodeSpec::new("snfe-black")
        .slots_per_round(SLOTS)
        .component(Box::new(BlackComponent::new()))
        .component(Box::new(Sink::new("network")))
        .local(0, "net.out", 1, "in", 16)
        .input("crypto.in", 0, "crypto.in")
        .input("bypass.in", 0, "bypass.in")
}

fn reliable_link(from: usize, from_port: &str, to: usize, to_port: &str, seed: u64) -> LinkSpec {
    LinkSpec::new(from, from_port, to, to_port)
        .capacity(64)
        .reliable()
        .loss(lossy(seed, LOSS_PM))
        .ack_loss(lossy(seed ^ 0xACC, LOSS_PM))
}

/// The fleet's topology for `seed`: generator and wire-loss seeds are
/// derived from it.
pub(crate) fn topology(seed: u64, size: Size) -> FleetTopology {
    let mut top = FleetTopology::new();
    let lgs: Vec<usize> = (0..LG_NODES).map(|i| top.node(lg_spec(seed, i))).collect();
    let fss: Vec<usize> = (0..LG_NODES / 2).map(|i| top.node(fs_spec(i, 2))).collect();
    let guards = [
        top.node(guard_spec(0, LG_NODES / 2)),
        top.node(guard_spec(1, LG_NODES / 2)),
    ];
    let red = top.node(snfe_red_spec(rounds(size) / 4));
    let black = top.node(snfe_black_spec());
    let wire_seed = seed.rotate_left(17) ^ 0xF1EE_7000;
    for (i, &lg) in lgs.iter().enumerate() {
        let fs = fss[i / 2];
        let c = i % 2;
        let s = wire_seed ^ ((i as u64 + 1) << 8);
        top.link(reliable_link(lg, "fs.req", fs, &format!("c{c}.req"), s));
        top.link(reliable_link(
            fs,
            &format!("c{c}.rsp"),
            lg,
            "fs.rsp",
            s ^ 0xF5,
        ));
        let guard = guards[i / (LG_NODES / 2)];
        let j = i % (LG_NODES / 2);
        top.link(reliable_link(
            lg,
            "guard.req",
            guard,
            &format!("low{j}.in"),
            s ^ 0x6A,
        ));
        top.link(reliable_link(
            guard,
            &format!("low{j}.out"),
            lg,
            "guard.rsp",
            s ^ 0x6B,
        ));
    }
    top.link(reliable_link(
        red,
        "crypto.out",
        black,
        "crypto.in",
        wire_seed ^ 0xC0DE,
    ));
    top.link(reliable_link(
        red,
        "bypass.out",
        black,
        "bypass.in",
        wire_seed ^ 0xB1FA,
    ));
    top
}

/// One rep's deterministic outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    report: String,
    issued: u64,
    completed: u64,
    errored: u64,
    outstanding: u64,
    served: u64,
    retried: u64,
    send_rejected: u64,
    fs_duplicates: u64,
    p50: u64,
    p999: u64,
    samples: u64,
    retransmissions: u64,
    wire_messages: u64,
    wire_faults: u64,
    resyncs: u64,
    peers_down: u64,
    kernel_steps: u64,
    idle_steps: u64,
    gateway_sat_max: u64,
    channel_sat_max: u64,
}

impl Counts {
    /// Requests lost: issued, but neither completed nor still outstanding.
    fn lost(&self) -> u64 {
        self.issued
            .saturating_sub(self.completed + self.outstanding)
    }

    fn failed(&self) -> u64 {
        self.errored + self.lost()
    }
}

fn collect(fleet: &mut Fleet) -> Counts {
    let lt = fleet.loadgen_totals();
    let (served, _) = fleet.fileserver_totals();
    let fs_duplicates = fleet.fs_duplicates_total();
    let mut outstanding = 0;
    fleet.for_each_component(&mut |_, c| {
        if let Some(lg) = c.as_any().downcast_mut::<LoadGen>() {
            outstanding += lg.outstanding();
        }
    });
    let (mut resyncs, mut peers_down, mut kernel_steps, mut idle_steps) = (0, 0, 0, 0);
    let (mut gateway_sat_max, mut channel_sat_max) = (0, 0);
    for i in 0..fleet.len() {
        let node = fleet.node(i);
        let node = node.lock().expect("fleet node lock");
        resyncs += node.resyncs();
        peers_down += node.peers_down();
        kernel_steps += node.kernel.stats.steps;
        idle_steps += node.kernel.stats.idle_steps;
        for g in fleet.gateway_gauges(i) {
            gateway_sat_max = gateway_sat_max.max(g.saturation_milli());
        }
        for g in fleet.channel_gauges(i) {
            channel_sat_max = channel_sat_max.max(g.saturation_milli());
        }
    }
    let net = fleet.network();
    let totals = &net.obs.metrics.totals;
    let wire_faults = net
        .wires()
        .iter()
        .map(|w| w.dropped + w.duplicated + w.corrupted + w.reordered)
        .sum();
    Counts {
        retransmissions: totals.retransmissions,
        wire_messages: totals.wire_messages,
        wire_faults,
        report: fleet.report().to_compact(),
        issued: lt.issued,
        completed: lt.completed,
        errored: lt.errored,
        outstanding,
        served,
        retried: lt.retried,
        send_rejected: lt.send_rejected,
        fs_duplicates,
        p50: lt.hist.quantile_pm(500),
        p999: lt.hist.quantile_pm(999),
        samples: lt.hist.count,
        resyncs,
        peers_down,
        kernel_steps,
        idle_steps,
        gateway_sat_max,
        channel_sat_max,
    }
}

fn check_counts(out: &mut Outcome, c: &Counts) {
    out.check(c.issued > 1_000, || {
        format!("the fleet carried no load: {} issued", c.issued)
    });
    out.check(c.served <= c.issued, || {
        format!(
            "exactly-once broken: served {} > issued {}",
            c.served, c.issued
        )
    });
    out.check(c.fs_duplicates == 0, || {
        format!(
            "{} duplicate requests reached a file server",
            c.fs_duplicates
        )
    });
    out.check(c.failed() == 0, || {
        format!(
            "{} requests failed ({} errored, {} lost)",
            c.failed(),
            c.errored,
            c.lost()
        )
    });
}

/// Builds the fleet (the timed set-up) at `workers` workers.
fn build(seed: u64, size: Size, workers: usize) -> (Fleet, f64) {
    let top = topology(seed, size);
    let t = Instant::now();
    let mut fleet = Fleet::build(top);
    let s = secs(t);
    fleet.set_tracing(false);
    fleet.set_workers(workers);
    (fleet, s)
}

/// Runs the workload.
pub(crate) fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let n = rounds(p.size);
    out.fact("nodes", 16);
    out.fact("clients", LG_NODES as u64 * USERS_PER_NODE);
    out.fact("rounds_per_rep", n);
    out.fact("loss_pm", LOSS_PM);
    out.fact("workers", WORKERS);
    out.fact("shards", "-");

    let mut setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| build(p.seed, p.size, WORKERS).1)
        .collect();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut first = None;
    let mut tracer = Tracer::new();
    let (reps, peak_rss_mb) = repeat_for(p.budget, if p.trace { 4 } else { 3 }, |i| {
        let traced_rep = p.trace && i % 2 == 1;
        let mut fleet = if traced_rep {
            let rep = tracer.open("rep", Cat::Harness);
            let (mut fleet, s) = tracer.span("Fleet::build", Cat::Setup, |_| {
                build(p.seed, p.size, WORKERS)
            });
            setup.push(s);
            let t = Instant::now();
            let mut done = 0;
            while done < n {
                let k = CHUNK.min(n - done);
                tracer.span("Fleet::run_rounds", Cat::Layer, |_| fleet.run_rounds(k));
                done += k;
            }
            traced.push(secs(t));
            tracer.close(rep);
            fleet
        } else {
            let (mut fleet, s) = build(p.seed, p.size, WORKERS);
            setup.push(s);
            let t = Instant::now();
            fleet.run_rounds(n);
            untraced.push(secs(t));
            fleet
        };
        let c = collect(&mut fleet);
        check_counts(&mut out, &c);
        same_every_rep(&mut out, "fleet_lossy", &mut first, c);
    });
    let c = first.expect("at least one rep ran");
    out.attempted = c.issued;
    out.failed = c.failed();
    out.fact("reps", reps);
    out.fact("latency_samples", c.samples);
    out.fact("latency_samples_beyond_p999", c.samples / 1000);

    let run_s = median(&untraced);
    let rounds_per_s = n as f64 / run_s;
    let goodput = (c.completed * 1000 / n) as f64;
    out.metrics.insert("setup_s", median(&setup));
    out.metrics.insert("peak_rss_mb", peak_rss_mb);
    out.metrics.insert("run_s", run_s);
    out.named("setup_s", median(&setup), "s", Kind::Host);
    out.named("failed_pm", pm(c.failed(), c.issued), "pm", Kind::Sim);
    out.named("fleet_rounds_per_s", rounds_per_s, "1/s", Kind::Host);
    out.named("fleet_goodput_milli", goodput, "req/kround", Kind::Sim);
    out.named("fleet_p50_rounds", c.p50 as f64, "rounds", Kind::Sim);
    out.named("fleet_p999_rounds", c.p999 as f64, "rounds", Kind::Sim);
    if !p.trace {
        return out;
    }

    // One worker, one span per round: the round-time distribution, the
    // sequential rate behind `net.parallel_x`, and the report that must be
    // byte-identical to the 2-worker runs'.
    let (mut seq, _) = build(p.seed, p.size, 1);
    let mut round_us = Vec::with_capacity(n as usize);
    let t = Instant::now();
    tracer.span("sequential", Cat::Harness, |tr| {
        for _ in 0..n {
            let t = Instant::now();
            tr.span("Fleet::run_rounds", Cat::Layer, |_| seq.run_rounds(1));
            round_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    let seq_s = secs(t);
    let seq_counts = collect(&mut seq);
    out.check(seq_counts.report == c.report, || {
        "Fleet::report() differs between 1 and 2 workers".into()
    });
    let frame_us = arq_probe(&mut out, p.seed, arq_frames(p.size), &mut tracer);

    let m = &mut out.metrics;
    m.insert("fleet.rounds_per_s", rounds_per_s);
    m.insert("run.failed_pm", pm(c.failed(), c.issued));
    m.insert(
        "trace.overhead_pm",
        (median(&traced) / run_s - 1.0) * 1000.0,
    );
    m.insert("fleet.goodput_milli", goodput);
    m.insert("fleet.p50_rounds", c.p50 as f64);
    m.insert("fleet.p999_rounds", c.p999 as f64);
    m.insert("fleet.latency_samples", c.samples as f64);
    m.insert("net.round_us_p50", percentile_pm(&round_us, 500));
    m.insert("net.round_us_p99", percentile_pm(&round_us, 990));
    m.insert("net.parallel_x", seq_s / run_s);
    m.insert("net.retransmissions", c.retransmissions as f64);
    m.insert("net.wire_faults", c.wire_faults as f64);
    m.insert("arq.retx_pm", pm(c.retransmissions, c.wire_messages));
    m.insert("arq.frame_us", frame_us);
    m.insert("arq.resyncs", c.resyncs as f64);
    m.insert("arq.peers_down", c.peers_down as f64);
    m.insert("fleet.kernel_steps", c.kernel_steps as f64);
    m.insert("fleet.idle_pm", pm(c.idle_steps, c.kernel_steps));
    m.insert(
        "fleet.host_ns_per_kstep",
        run_s * 1e9 / c.kernel_steps as f64,
    );
    m.insert("fleet.gateway_sat_pm_max", c.gateway_sat_max as f64);
    m.insert("fleet.channel_sat_pm_max", c.channel_sat_max as f64);
    m.insert("fleet.retried", c.retried as f64);
    m.insert("fleet.send_rejected", c.send_rejected as f64);
    m.insert("fs.duplicates_replayed", c.fs_duplicates as f64);
    tracer.finish(&mut out, "fleet_lossy", p.seed, traced.len());
    out
}

/// The ARQ probe's shared receive log: payloads in arrival order.
type Log = Arc<Mutex<Vec<Vec<u8>>>>;

/// Feeds numbered payloads into a [`RetxSender`].
struct ArqSource {
    tx: RetxSender,
    fed: usize,
    frames: usize,
}

impl Node for ArqSource {
    fn name(&self) -> &str {
        "source"
    }
    fn step(&mut self, io: &mut dyn NodeIo) {
        while self.fed < self.frames && self.tx.pending() < 64 {
            self.tx.enqueue((self.fed as u16).to_le_bytes().to_vec());
            self.fed += 1;
        }
        self.tx.poll(io, "data", "ack");
    }
}

/// Logs what a [`RetxReceiver`] delivers.
struct ArqSink {
    rx: RetxReceiver,
    log: Log,
}

impl Node for ArqSink {
    fn name(&self) -> &str {
        "sink"
    }
    fn step(&mut self, io: &mut dyn NodeIo) {
        let msgs = self.rx.poll(io, "data", "ack");
        self.log.lock().expect("arq log lock").extend(msgs);
    }
}

/// Host microseconds per payload delivered by the ARQ alone: a two-node
/// [`Network`] running [`RetxSender`]/[`RetxReceiver`] over the fleet's
/// 150‰ loss model on both the data and the ack wire. Every payload must
/// arrive exactly once, in order.
fn arq_probe(out: &mut Outcome, seed: u64, frames: usize, tr: &mut Tracer) -> f64 {
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let mut net = Network::new();
    net.set_tracing(false);
    let src = net.add_node(Box::new(ArqSource {
        tx: RetxSender::new(8, 4),
        fed: 0,
        frames,
    }));
    let dst = net.add_node(Box::new(ArqSink {
        rx: RetxReceiver::new(),
        log: Arc::clone(&log),
    }));
    net.connect_lossy(src, "data", dst, "data", 16, 1, lossy(seed ^ 0xA7, LOSS_PM));
    net.connect_lossy(dst, "ack", src, "ack", 16, 1, lossy(seed ^ 0xA8, LOSS_PM));
    let t = Instant::now();
    tr.span("Network::run", Cat::Layer, |_| {
        while log.lock().expect("arq log lock").len() < frames && net.round() < 100_000 {
            net.run(50);
        }
    });
    let us = t.elapsed().as_secs_f64() * 1e6;
    let got = log.lock().expect("arq log lock");
    let expected: Vec<Vec<u8>> = (0..frames)
        .map(|i| (i as u16).to_le_bytes().to_vec())
        .collect();
    out.check(*got == expected, || {
        format!(
            "ARQ probe delivered {} of {frames} payloads, or out of order",
            got.len()
        )
    });
    us / frames as f64
}
