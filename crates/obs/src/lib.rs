//! Observability for the separation kernel reproduction.
//!
//! Rushby's claims about the SUE — "minimally small and very simple", fields
//! every interrupt, mediates *only* channel traffic — are measurable claims,
//! and the formal-methods literature on separation kernels insists that
//! assurance evidence be *reproducible measurement*, not assertion. This
//! crate is the measurement substrate:
//!
//! * [`event`] — structured kernel events ([`ObsEvent`]): context switches,
//!   traps, interrupts fielded and delivered, channel `SEND`/`RECV` with
//!   byte counts, MMU faults, wire traffic, and the conventional baseline's
//!   policy mediations.
//! * [`sink`] — [`TraceBuffer`], the fixed-capacity event ring a tracing
//!   [`Recorder`] writes to.
//! * [`metrics`] — a [`Metrics`] registry of per-regime and per-device
//!   counters with `#[inline]` increment paths.
//! * [`recorder`] — a [`Recorder`] bundling metrics with an optional trace,
//!   owned by whatever executes (machine, network, conventional kernel).
//! * [`json`] — a dependency-free JSON writer (no serde).
//! * [`report`] — [`RunReport`], the `BENCH_obs.json`-style machine-readable
//!   run report the experiment binaries emit.
//!
//! Everything is timestamped by **deterministic instruction count** (or
//! round number), never wall clock: two identical runs produce byte-identical
//! traces and reports, so a measurement can be replayed as evidence.
//!
//! Instrumentation is *not modelled state*: the Proof-of-Separability
//! adapter's state vector excludes it, so enabling tracing cannot change a
//! verification verdict (the root test suite checks this).

#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod sink;

pub use event::{ObsEvent, TrapKind};
pub use json::Json;
pub use metrics::{DeviceCounters, HotPathCounters, Metrics, RegimeCounters, Totals};
pub use recorder::{Recorder, NO_CONTEXT};
pub use report::{hotpath_json, metrics_json, RunReport};
pub use sink::{TimedEvent, TraceBuffer};
