//! The benchmark's fixed metric vocabulary and its one-line JSON result.
//!
//! The untraced pass reports exactly [`END_TO_END`]; the traced pass
//! exactly [`PER_LAYER`].  A per-layer metric that does not apply to a
//! workload (the wire on an in-process workload, say) reads `0`.

use std::collections::BTreeMap;

/// One metric: name, unit, and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system sees.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("rounds_per_s", "1/s", "higher"),
    ("msgs_per_s", "1/s", "higher"),
    ("cells_per_s", "1/s", "higher"),
    ("ttfr_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("good_frac", "ratio", "higher"),
];

/// Single layers, from the traced pass.  Engine phase times of the
/// sharded engines are CPU time summed over shards, not wall time.
pub const PER_LAYER: &[MetricDef] = &[
    ("graph.build_s", "s", "lower"),
    ("graph.edges", "count", "lower"),
    ("adversary.placement_s", "s", "lower"),
    ("engine.adversary_cut_s", "s", "lower"),
    ("engine.round_s", "s", "lower"),
    ("engine.node_step_s", "s", "lower"),
    ("engine.routing_s", "s", "lower"),
    ("engine.deferred_drain_s", "s", "lower"),
    ("engine.churn_s", "s", "lower"),
    ("engine.unattributed_s", "s", "lower"),
    ("engine.outside_rounds_s", "s", "lower"),
    ("engine.coverage", "ratio", "higher"),
    ("engine.us_per_round", "us", "lower"),
    ("engine.ns_per_msg", "ns", "lower"),
    ("engine.rounds", "count", "lower"),
    ("engine.msgs_delivered", "count", "lower"),
    ("engine.msgs_dropped", "count", "lower"),
    ("engine.msgs_lost", "count", "lower"),
    ("engine.msgs_delayed", "count", "lower"),
    ("engine.ticks_skipped", "count", "higher"),
    ("engine.cross_shard_routed", "count", "lower"),
    ("wire.frames", "count", "lower"),
    ("wire.bytes", "B", "lower"),
    ("wire.bytes_to_worker", "B", "lower"),
    ("wire.bytes_to_coord", "B", "lower"),
    ("wire.bytes_per_round", "B", "lower"),
    ("wire.bytes_per_msg", "B", "lower"),
    ("dist.coord_cpu_s", "s", "lower"),
    ("dist.worker_cpu_s", "s", "lower"),
    ("dist.wait_s", "s", "lower"),
    ("dist.handshake_s", "s", "lower"),
    ("wal.fsyncs", "count", "lower"),
    ("wal.fsync_p50_us", "us", "lower"),
    ("wal.fsync_p99_us", "us", "lower"),
    ("wal.fsync_share", "ratio", "lower"),
    ("wal.bytes", "B", "lower"),
    ("proto.rtt_us", "us", "lower"),
    ("proto.polls", "count", "lower"),
    ("sched.exec_s", "s", "lower"),
    ("sched.overhead_frac", "ratio", "lower"),
    ("report.json_s", "s", "lower"),
    ("report.bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("mem.bytes_per_node", "B", "lower"),
    ("mem.server_peak_mb", "MB", "lower"),
    ("gate.checks", "count", "higher"),
    ("gate.failed_frac", "ratio", "lower"),
];

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: runs, cells, worker sessions, gate checks.
    pub attempted: u64,
    /// Operations that failed, were retried, or produced a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one operation and whether it went wrong.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count an operation that must produce `expected`; a mismatch is a
    /// failure and is explained on stderr.
    pub fn check_eq(&mut self, what: &str, got: &str, expected: &str) {
        let ok = got == expected;
        if !ok {
            eprintln!("perfbench: correctness mismatch: {what}");
        }
        self.op(ok);
    }

    /// Render the result line for the metric set `defs`.  Every metric of
    /// the set must have been measured; a non-finite value reads `0`.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for &(name, unit, _) in defs {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut out = Outcome::default();
        for &(name, _, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.op(true);
        out.check_eq("same", "a", "a");
        let line = out.to_json(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        out.values.remove("ttfr_s");
        assert!(out.to_json(END_TO_END).is_err());
    }

    #[test]
    fn a_mismatch_fails_the_run() {
        let mut out = Outcome::default();
        out.check_eq("differs", "a", "b");
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(out.to_json(&[]).unwrap().starts_with("{\"correct\": false"));
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.123456789012345);
        out.set("graph.edges", 6144.0);
        let line = out
            .to_json(&[("setup_s", "s", "lower"), ("graph.edges", "count", "lower")])
            .unwrap();
        assert!(line.contains("0.123456789012345"), "{line}");
        assert!(line.contains("6144.0"), "{line}");
    }

    #[test]
    fn names_are_unique_and_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"better\"").count(), seen.len());
    }
}
