//! # netsim-trace — zero-cost structured tracing for the simulation engines
//!
//! The engines (`SyncEngine` and `ShardedEngine`) are instrumented
//! against the object-safe [`Recorder`] trait.  When no
//! recorder is installed the instrumentation is a single `Option` check
//! per *phase boundary* (never per envelope), so the PR 3 zero-allocation
//! hot path is untouched; when one is installed, recorders only *observe*
//! — they never touch an RNG stream or a delivery order, which is what
//! makes the byte-identity guarantee (traced report ≡ untraced report)
//! structural rather than empirical.
//!
//! Concrete recorders:
//!
//! * [`PhaseProfiler`] — wall-clock span timings per engine phase,
//!   aggregated into log-bucketed histograms with count/sum/p50/p90/p99
//!   ([`PhaseProfile`]; embedded in bench reports).
//! * [`CounterSet`] — per-shard monotone counters (messages per phase,
//!   cross-shard routing volume) and high-water gauges (arena sizes, and
//!   `calendar_occupancy`: a shard's delayed envelopes plus pending node
//!   steps).
//! * [`TraceWriter`] — an NDJSON stream of Chrome-trace-event-compatible
//!   span/counter records.  Timestamps are *logical* (a deterministic
//!   event ordinal), never wall clock, so a trace file is byte-identical
//!   across repeat runs of the same spec+seed; opt into wall-clock span
//!   durations with [`TraceWriter::with_wall_time`] when profiling humans
//!   care about real time more than determinism.
//!
//! [`check_trace`] validates a trace file (every span closed, names from
//! the fixed vocabulary, monotone timestamps) and totals its counters —
//! the CI well-formedness gate and the trace-vs-truth cross-check both
//! run through it.

mod check;
mod counters;
mod histogram;
mod profiler;
mod recorder;
mod writer;

pub use check::{check_trace, TraceCheck};
pub use counters::{CounterSet, CounterSnapshot, CounterValue, GaugeValue};
pub use histogram::LogHistogram;
pub use profiler::{PhaseProfile, PhaseProfiler, PhaseStats};
pub use recorder::{
    Counter, Fanout, Gauge, NoopRecorder, Phase, Recorder, COUNTERS, GAUGES, PHASES, SHARD_ROUTER,
};
pub use writer::TraceWriter;
