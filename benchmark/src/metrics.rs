//! The metric registry — every name the benchmark can print, with its
//! unit and direction — and the result line the driver reads.
//! `../../BENCHMARK.json` lists the same metrics; a unit test holds the
//! two together.

use crate::json::{number, quote};
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// What a user of the simulator sees; printed by the untraced run.
///
/// The bounds are what this host's noise and the driver's protocol allow,
/// not what one would wish: the driver gives every run another `--seed`
/// and requires the spread of ten runs to stay inside the bound, so a
/// bound has to cover seed-to-seed variation of the *inputs* as well as
/// host noise (README.md, "Bounds"). At one seed the `sim_*` metrics and
/// `allocs` repeat exactly; `aa.sh` and `golden.json` hold them to that.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", 0.25),
    e2e("allocs", "count", 0.12),
    e2e("peak_rss_mb", "MB", 0.20),
    e2e("setup_s", "s", 0.25),
    e2e("sim_log_bw", "blocks/s", 0.15),
    e2e("sim_peak_mem_bytes", "B", 0.20),
    e2e("sim_space_blocks", "blocks", 0.08),
];

/// One layer at a time (layer = crate name, `host` = the machine);
/// printed by the traced run. 0 means the workload does not exercise the
/// layer, or the layer cannot be told apart from outside on it.
pub const PER_LAYER: &[MetricDef] = &[
    lower("sim_killed_frac", "share"),
    lower("ops_failed_frac", "share"),
    lower("sim.events", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.queue_scheduled", "count"),
    lower("sim.queue_cancelled", "count"),
    lower("sim.queue_tombstones", "count"),
    lower("sim.queue_heap_peak", "count"),
    lower("sim.queue_compactions", "count"),
    lower("sim.queue_ns_per_op", "ns"),
    lower("sim.queue_ops", "count"),
    lower("workload.txns", "count"),
    lower("workload.data_records", "count"),
    lower("workload.driver_ns_per_txn", "ns"),
    lower("workload.replay_ns_per_txn", "ns"),
    lower("core.begin_ns", "ns"),
    lower("core.begin_calls", "count"),
    lower("core.write_data_ns", "ns"),
    lower("core.write_data_calls", "count"),
    lower("core.commit_request_ns", "ns"),
    lower("core.commit_request_calls", "count"),
    lower("core.buffer_write_ns", "ns"),
    lower("core.buffer_write_calls", "count"),
    lower("core.flush_done_ns", "ns"),
    lower("core.flush_done_calls", "count"),
    lower("core.busy_frac", "share"),
    lower("core.forwarded_records", "count"),
    lower("core.recirculated_records", "count"),
    lower("core.kills", "count"),
    lower("core.unsafe_drops", "count"),
    lower("core.durability_violations", "count"),
    lower("core.forced_flushes", "count"),
    lower("core.buffer_stalls", "count"),
    lower("core.log_writes", "count"),
    lower("core.ltt_peak", "count"),
    lower("core.lot_peak", "count"),
    lower("core.forward_per_record", "ratio"),
    lower("core.write_amp", "ratio"),
    higher("dbdisk.flushes", "count"),
    lower("dbdisk.backlog_end", "count"),
    lower("dbdisk.utilisation", "share"),
    lower("dbdisk.mean_seek_distance", "oids"),
    lower("dbdisk.drill_ns_per_flush", "ns"),
    higher("storage.encode_mb_s", "MB/s"),
    higher("storage.decode_mb_s", "MB/s"),
    higher("storage.crc_mb_s", "MB/s"),
    lower("storage.corrupt_blocks", "count"),
    lower("recovery.scan_ns_per_record", "ns"),
    lower("recovery.redo_ns_per_record", "ns"),
    lower("recovery.verify_ns_per_record", "ns"),
    higher("recovery.scan_mb_s", "MB/s"),
    lower("recovery.blocks", "count"),
    lower("recovery.records", "count"),
    lower("recovery.redone", "count"),
    lower("recovery.recovered_objects", "count"),
    lower("recovery.modelled_ms", "ms"),
    lower("harness.loop_ns_per_event", "ns"),
    lower("harness.null_events", "count"),
    lower("harness.search.verdicts", "count"),
    lower("harness.search.live_probes", "count"),
    higher("harness.search.memo_hits", "count"),
    higher("harness.search.analytic_rejections", "count"),
    higher("harness.search.cert_verdicts", "count"),
    higher("harness.search.resume_probes", "count"),
    higher("harness.search.resume_saved_events", "count"),
    lower("harness.search.probe_events", "count"),
    higher("harness.search.pruned_volume", "count"),
    lower("harness.search.live_probe_frac", "share"),
    lower("harness.search.ns_per_probe_event", "ns"),
    lower("harness.search.capture_s", "s"),
    lower("harness.serve.events", "count"),
    lower("harness.serve.ns_per_event", "ns"),
    lower("harness.serve.vs_run_ratio", "ratio"),
    lower("harness.allocs_per_event", "ratio"),
    lower("harness.trace_overhead_frac", "share"),
    higher("harness.result_digest_match", "count"),
    lower("host.cpu_s", "s"),
    lower("host.wall_iqr_frac", "share"),
    higher("host.nproc", "count"),
    higher("host.speed", "share"),
];

/// Measured values by metric name; a name outside `defs` is a bug.
pub struct Values {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Every metric of `defs`, at 0 until set.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Values {
            defs,
            values: defs.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        *slot = value;
    }

    /// (definition, value) in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.values[d.name]))
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, on one line.
pub fn result_line(attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                number(v),
                quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads::Kind;

    fn manifest() -> Value {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(d.name, 64, "_.-"), "name {}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(d.unit, 16, "_/%.-"), "unit of {}", d.name);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn registry_and_benchmark_json_list_the_same_metrics() {
        let m = manifest();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = m.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}: count");
            for (entry, d) in listed.iter().zip(defs) {
                let field = |k| entry.get(k).and_then(Value::as_str);
                assert_eq!(field("name"), Some(d.name));
                assert_eq!(field("unit"), Some(d.unit), "{}", d.name);
                assert_eq!(field("better"), Some(d.better), "{}", d.name);
                let bound = entry.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, d.bound, "{}", d.name);
            }
        }
    }

    #[test]
    fn benchmark_json_names_the_six_workloads_and_the_package() {
        let m = manifest();
        let names: Vec<_> = m
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ours);
        let keys: Vec<_> = m.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            m.get("paths").and_then(Value::as_arr).map(|p| p.len()),
            Some(1)
        );
    }

    #[test]
    fn result_line_parses_as_json_with_exactly_the_four_keys() {
        let mut v = Values::new(END_TO_END);
        v.set("wall_s", 0.8127);
        v.set("allocs", 1234.0);
        let line = result_line(0, 0, &v);
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("the result line is JSON");
        let keys: Vec<_> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1.0));
        let metrics = doc.get("metrics").expect("metrics");
        assert_eq!(metrics.members().len(), END_TO_END.len());
        let wall = metrics.get("wall_s").expect("wall_s");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        let failed = parse(&result_line(10, 1, &v)).unwrap();
        assert_eq!(failed.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn setting_an_unregistered_metric_is_a_bug() {
        Values::new(END_TO_END).set("nope", 1.0);
    }
}
