//! Machine-readable run reports (`BENCH_obs_*.json`).
//!
//! A [`RunReport`] is what an experiment binary emits next to its Markdown
//! tables: the experiment name, its parameters, the metrics of every run,
//! and (optionally) a trace summary. Reports built without wall-clock
//! timing are **deterministic**: two identical runs serialize to identical
//! bytes, which is what makes an EXPERIMENTS.md row reproducible evidence
//! rather than an anecdote. Wall-clock timing, when attached, is kept in a
//! separate `wall` section so consumers can diff everything else across
//! machines.
//!
//! Report schema (`sep-obs/v1`):
//!
//! ```json
//! {
//!   "schema": "sep-obs/v1",
//!   "experiment": "e1_kernel_size",
//!   "params": { "...": "..." },
//!   "runs": [
//!     {
//!       "name": "separation",
//!       "totals": { "instructions": 0, "traps": 0, "switches": 0, ... },
//!       "regimes": [ { "name": "r0", "instructions": 0, ... } ],
//!       "devices": [ { "name": "r0-tty0", "interrupts": 0, ... } ],
//!       "trace": { "capacity": 0, "recorded": 0, "dropped": 0, "events": [...] }
//!     }
//!   ],
//!   "wall": { "separation_ms": 1.25 }
//! }
//! ```

use crate::json::Json;
use crate::metrics::Metrics;
use crate::sink::TraceBuffer;
use std::io;
use std::path::Path;

/// The schema identifier written into every report.
pub const SCHEMA: &str = "sep-obs/v1";

/// A run report under construction.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    experiment: String,
    params: Vec<(String, Json)>,
    runs: Vec<(String, Json)>,
    wall: Vec<(String, f64)>,
}

impl RunReport {
    /// A report for the named experiment.
    pub fn new(experiment: &str) -> RunReport {
        RunReport {
            experiment: experiment.to_string(),
            ..RunReport::default()
        }
    }

    /// Attaches an experiment parameter.
    pub fn param(mut self, key: &str, value: impl Into<Json>) -> RunReport {
        self.params.push((key.to_string(), value.into()));
        self
    }

    /// Attaches one named run's metrics (no trace).
    pub fn run(self, name: &str, metrics: &Metrics) -> RunReport {
        self.run_with_trace(name, metrics, None, 0)
    }

    /// Attaches one named run's metrics plus a trace summary keeping at
    /// most `keep_events` rendered events.
    pub fn run_with_trace(
        mut self,
        name: &str,
        metrics: &Metrics,
        trace: Option<&TraceBuffer>,
        keep_events: usize,
    ) -> RunReport {
        let mut run = Json::obj().field("name", name);
        run = match run {
            Json::Obj(mut members) => {
                if let Json::Obj(metric_members) = metrics_json(metrics) {
                    members.extend(metric_members);
                }
                Json::Obj(members)
            }
            other => other,
        };
        if let Some(t) = trace {
            run = run.field("trace", trace_json(t, keep_events));
        }
        self.runs.push((name.to_string(), run));
        self
    }

    /// Attaches one named run whose body is caller-supplied JSON, for
    /// experiments whose unit of record is not a [`Metrics`] registry (the
    /// E2 checker runs record states, check counts, and shard statistics).
    /// A `name` field is injected first; non-object bodies are wrapped
    /// under a `value` field.
    pub fn run_custom(mut self, name: &str, body: Json) -> RunReport {
        let run = match body {
            Json::Obj(members) => match Json::obj().field("name", name) {
                Json::Obj(mut m) => {
                    m.extend(members);
                    Json::Obj(m)
                }
                other => other,
            },
            other => Json::obj().field("name", name).field("value", other),
        };
        self.runs.push((name.to_string(), run));
        self
    }

    /// Attaches a wall-clock timing (kept apart from the deterministic
    /// sections). The key is rendered with an `_ms` suffix.
    pub fn wall_ms(self, name: &str, ms: f64) -> RunReport {
        self.wall(&format!("{name}_ms"), ms)
    }

    /// Attaches a wall-clock entry under exactly `key` (no suffix), for
    /// derived quantities like speedups or per-shard states/sec that are
    /// machine-dependent but not milliseconds.
    pub fn wall(mut self, key: &str, value: f64) -> RunReport {
        self.wall.push((key.to_string(), value));
        self
    }

    /// The report as a JSON value. Deterministic given identical inputs.
    pub fn to_json(&self) -> Json {
        let mut report = Json::obj()
            .field("schema", SCHEMA)
            .field("experiment", self.experiment.as_str())
            .field("params", Json::Obj(self.params.clone()))
            .field(
                "runs",
                Json::Arr(self.runs.iter().map(|(_, j)| j.clone()).collect()),
            );
        if !self.wall.is_empty() {
            report = report.field(
                "wall",
                Json::Obj(
                    self.wall
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            );
        }
        report
    }

    /// The pretty-printed report.
    pub fn render(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Writes the report to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// A [`Metrics`] registry as the `totals`/`regimes`/`devices` JSON members.
pub fn metrics_json(m: &Metrics) -> Json {
    let t = &m.totals;
    let totals = Json::obj()
        .field("instructions", t.instructions)
        .field("traps", t.traps)
        .field("switches", t.switches)
        .field("interrupts_fielded", t.interrupts_fielded)
        .field("interrupts_delivered", t.interrupts_delivered)
        .field("interrupts_discarded", t.interrupts_discarded)
        .field("messages", t.messages)
        .field("channel_bytes", t.channel_bytes)
        .field("faults", t.faults)
        .field("restarts", t.restarts)
        .field("retransmissions", t.retransmissions)
        .field("policy_mediations", t.policy_mediations)
        .field("wire_messages", t.wire_messages)
        .field("wire_bytes", t.wire_bytes);
    let regimes = Json::Arr(
        m.regimes()
            .iter()
            .map(|(name, c)| {
                Json::obj()
                    .field("name", name.as_str())
                    .field("instructions", c.instructions)
                    .field("native_steps", c.native_steps)
                    .field("traps", c.traps)
                    .field("syscalls", c.syscalls)
                    .field("mmu_faults", c.mmu_faults)
                    .field("switches_in", c.switches_in)
                    .field("switches_out", c.switches_out)
                    .field("interrupts_fielded", c.interrupts_fielded)
                    .field("interrupts_delivered", c.interrupts_delivered)
                    .field("interrupts_discarded", c.interrupts_discarded)
                    .field("faults", c.faults)
                    .field("restarts", c.restarts)
                    .field("retransmissions", c.retransmissions)
                    .field("messages_sent", c.messages_sent)
                    .field("messages_received", c.messages_received)
                    .field("channel_bytes_sent", c.channel_bytes_sent)
                    .field("channel_bytes_received", c.channel_bytes_received)
            })
            .collect(),
    );
    let devices = Json::Arr(
        m.devices()
            .iter()
            .map(|(name, c)| {
                Json::obj()
                    .field("name", name.as_str())
                    .field("interrupts", c.interrupts)
                    .field("dma_blocked", c.dma_blocked)
            })
            .collect(),
    );
    Json::obj()
        .field("totals", totals)
        .field("regimes", regimes)
        .field("devices", devices)
}

/// The fast-path cache counters as JSON.
///
/// Deliberately **not** part of [`metrics_json`]: hit/miss ratios describe
/// how a run was computed, not what it computed, and folding them into the
/// default serialization would break the pinned guarantee that run reports
/// are byte-identical with the fast path on and off. The E10 bench attaches
/// this explicitly where cache behaviour *is* the measurement.
///
/// Schema note: the `sb_*` members describe the superblock tier —
/// `sb_compiles` (runs translated), `sb_hits` (full block executions),
/// `sb_chains` (block→block transitions that skipped the dispatcher),
/// `sb_flushes` (wholesale cache drops), and `sb_instructions` (retired
/// inside blocks, a subset of the run's instruction total). Like every
/// other member here they are how-counters, excluded from [`metrics_json`]
/// so run reports stay byte-identical with the tier on and off.
pub fn hotpath_json(m: &Metrics) -> Json {
    let h = &m.hotpath;
    Json::obj()
        .field("icache_hits", h.icache_hits)
        .field("icache_misses", h.icache_misses)
        .field("tlb_hits", h.tlb_hits)
        .field("tlb_misses", h.tlb_misses)
        .field("tlb_invalidations", h.tlb_invalidations)
        .field("sb_compiles", h.sb_compiles)
        .field("sb_hits", h.sb_hits)
        .field("sb_chains", h.sb_chains)
        .field("sb_flushes", h.sb_flushes)
        .field("sb_instructions", h.sb_instructions)
}

/// A trace as JSON: counts always, plus up to `keep_events` rendered
/// events (oldest first of the retained window).
pub fn trace_json(t: &TraceBuffer, keep_events: usize) -> Json {
    let events: Vec<Json> = t
        .events()
        .into_iter()
        .take(keep_events)
        .map(|e| {
            Json::obj()
                .field("ts", e.ts)
                .field("kind", e.event.label())
                .field("event", e.event.to_string())
        })
        .collect();
    Json::obj()
        .field("capacity", t.capacity())
        .field("recorded", t.recorded())
        .field("dropped", t.dropped())
        .field("events", Json::Arr(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsEvent;
    use crate::sink::EventSink;

    #[test]
    fn report_is_deterministic_for_identical_inputs() {
        let build = || {
            let mut m = Metrics::new();
            m.register_regime(0, "red");
            m.regime_mut(0).instructions = 42;
            m.totals.instructions = 42;
            RunReport::new("e0")
                .param("n", 2u64)
                .run("separation", &m)
                .render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn schema_and_sections_present() {
        let m = Metrics::new();
        let s = RunReport::new("e9").run("a", &m).wall_ms("a", 1.5).render();
        assert!(s.contains("\"schema\": \"sep-obs/v1\""));
        assert!(s.contains("\"experiment\": \"e9\""));
        assert!(s.contains("\"totals\""));
        assert!(s.contains("\"a_ms\""));
    }

    #[test]
    fn hotpath_counters_stay_out_of_the_default_report() {
        let mut with = Metrics::new();
        with.hotpath.icache_hits = 1_000;
        with.hotpath.tlb_hits = 2_000;
        with.hotpath.sb_compiles = 3;
        with.hotpath.sb_hits = 4_000;
        with.hotpath.sb_chains = 3_900;
        with.hotpath.sb_flushes = 2;
        with.hotpath.sb_instructions = 9_000;
        let without = Metrics::new();
        let render = |m: &Metrics| RunReport::new("e10").run("run", m).render();
        assert_eq!(render(&with), render(&without));
        let j = hotpath_json(&with).to_compact();
        assert!(j.contains("\"icache_hits\":1000"));
        assert!(j.contains("\"tlb_hits\":2000"));
        assert!(j.contains("\"sb_compiles\":3"));
        assert!(j.contains("\"sb_hits\":4000"));
        assert!(j.contains("\"sb_chains\":3900"));
        assert!(j.contains("\"sb_flushes\":2"));
        assert!(j.contains("\"sb_instructions\":9000"));
    }

    #[test]
    fn superblock_counters_never_leak_into_metrics_json() {
        // The leak test from first principles: serialize the default report
        // with extreme superblock counters and confirm no `sb_` key (or
        // value) appears anywhere in the bytes.
        let mut m = Metrics::new();
        m.register_regime(0, "red");
        m.totals.instructions = 7;
        m.hotpath.sb_compiles = u64::MAX;
        m.hotpath.sb_hits = u64::MAX;
        m.hotpath.sb_chains = u64::MAX;
        m.hotpath.sb_flushes = u64::MAX;
        m.hotpath.sb_instructions = u64::MAX;
        let rendered = RunReport::new("e10").run("run", &m).render();
        assert!(!rendered.contains("sb_"));
        assert!(!rendered.contains(&u64::MAX.to_string()));
        assert_eq!(rendered, {
            let mut clean = Metrics::new();
            clean.register_regime(0, "red");
            clean.totals.instructions = 7;
            RunReport::new("e10").run("run", &clean).render()
        });
    }

    #[test]
    fn trace_summary_counts_and_limits_events() {
        let mut t = TraceBuffer::new(4);
        for i in 0..6u64 {
            t.record(i, ObsEvent::DmaBlocked { device: 0 });
        }
        let j = trace_json(&t, 2).to_compact();
        assert!(j.contains("\"recorded\":6"));
        assert!(j.contains("\"dropped\":2"));
        assert_eq!(j.matches("\"kind\"").count(), 2);
    }
}
