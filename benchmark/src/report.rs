//! The traced run's per-layer metrics, the ledger, the span file, and
//! the human-readable lines both kinds of run print.

use crate::drills::{self, ForwardDrills, StorageDrill};
use crate::golden::{Entry, Status};
use crate::json::quote;
use crate::metrics::{Values, PER_LAYER};
use crate::stats::{median, median_u64, quartiles};
use crate::trace::{folds_total_ns, CallFolds, Fold, Tracer, CORE_CALLS, NONE};
use crate::workloads::{drill_cfg, Checks, Detail, Inputs, Kind, RunView};
use crate::Measured;
use std::fmt::Write as _;
use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host speed while the run was measured: the yardstick's nominal time
/// ÷ its median reading (1 = the nominal host, 0.7 = running 30 % slow).
pub fn host_speed(m: &Measured) -> f64 {
    crate::calib::NOMINAL_S / median(&m.yard_s)
}

pub fn print_passes(m: &Measured) {
    let raw = quartiles(&m.pass_walls);
    let cal = quartiles(&m.pass_cal);
    println!(
        "passes: P={}, events/pass {}; host speed {:.3} of nominal (yardstick median {:.3} ms)",
        m.pass_walls.len(),
        m.last.events,
        host_speed(m),
        median(&m.yard_s) * 1e3,
    );
    println!(
        "  pass wall as read:    median {:.4} s (q1 {:.4}, q3 {:.4}, iqr {:.2}%)",
        raw.median,
        raw.q1,
        raw.q3,
        raw.iqr_frac() * 100.0
    );
    println!(
        "  pass wall calibrated: median {:.4} s (q1 {:.4}, q3 {:.4}, iqr {:.2}%)",
        cal.median,
        cal.q1,
        cal.q3,
        cal.iqr_frac() * 100.0
    );
    let walls: Vec<String> = m.pass_walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("  pass walls as read, in order: {}", walls.join(" "));
    println!(
        "  set-ups: {}, as read median {:.4} s, calibrated median {:.4} s",
        m.setup_walls.len(),
        median(&m.setup_walls),
        median(&m.setup_cal),
    );
}

pub fn print_values(values: &Values) {
    for (d, v) in values.iter() {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!("  (bound {:.0}%)", b * 100.0));
        println!(
            "{:<36} {:>18.6} {:<8} {} is better{bound}",
            d.name, v, d.unit, d.better
        );
    }
}

pub fn print_checks(checks: &Checks, status: &Status, got: &Entry) {
    println!(
        "checks: {} attempted, {} failed (ops_failed_frac {})",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    for f in &checks.failures {
        println!("  FAILED: {f}");
    }
    match status {
        Status::Match => println!("golden: match (digest {:#018x})", got.digest),
        Status::NotComparable => println!(
            "golden: not compared (only full default-seed runs have one); digest {:#018x}",
            got.digest
        ),
        Status::Mismatch { golden } => println!(
            "golden: MISMATCH — simulated results moved (model drift, not noise)\n  \
             golden {golden:?}\n  got    {got:?}\n  \
             re-record with --record-golden only if the model change is intended"
        ),
    }
}

/// What the drills measured; a drill a workload does not run stays 0.
#[derive(Default)]
pub struct Drilled {
    pub forward: ForwardDrills,
    pub storage: StorageDrill,
    pub serve_vs_run: f64,
}

pub fn run_drills(inputs: &Inputs, tracer: &mut Tracer) -> Drilled {
    let mut d = Drilled::default();
    if let Some(cfg) = drill_cfg(inputs) {
        d.forward = drills::forward(&cfg, tracer);
        if matches!(inputs, Inputs::Tenants(_)) {
            d.serve_vs_run = drills::serve_vs_run(&cfg, tracer);
        }
    }
    if let Inputs::Recover { snaps, .. } = inputs {
        d.storage = drills::storage(snaps, tracer);
    }
    d
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sums the per-input folds into one per call name.
fn summed(folds: &[CallFolds]) -> CallFolds {
    let mut sum = CallFolds::default();
    for per_input in folds {
        for (acc, f) in sum.iter_mut().zip(per_input) {
            acc.merge(f);
        }
    }
    sum
}

fn run_counts(v: &mut Values, views: &[RunView]) {
    let sum = |f: &dyn Fn(&RunView) -> u64| views.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&RunView) -> u64| views.iter().map(f).max().unwrap_or(0) as f64;
    v.set("sim.queue_scheduled", sum(&|r| r.queue.scheduled));
    v.set("sim.queue_cancelled", sum(&|r| r.queue.cancelled));
    v.set(
        "sim.queue_tombstones",
        sum(&|r| r.queue.tombstones_discarded),
    );
    v.set("sim.queue_compactions", sum(&|r| r.queue.compactions));
    v.set("sim.queue_heap_peak", max(&|r| r.queue.heap_peak as u64));
    v.set("workload.txns", sum(&|r| r.started));
    let records = sum(&|r| r.data_records);
    v.set("workload.data_records", records);
    let forwarded = sum(&|r| r.metrics.stats.forwarded_records);
    let recirculated = sum(&|r| r.metrics.stats.recirculated_records);
    let log_writes = sum(&|r| r.metrics.log_writes);
    v.set("core.forwarded_records", forwarded);
    v.set("core.recirculated_records", recirculated);
    v.set("core.kills", sum(&|r| r.metrics.stats.kills));
    v.set("core.unsafe_drops", sum(&|r| r.metrics.stats.unsafe_drops));
    v.set(
        "core.durability_violations",
        sum(&|r| r.metrics.stats.durability_violations),
    );
    v.set(
        "core.forced_flushes",
        sum(&|r| r.metrics.stats.forced_flushes),
    );
    v.set(
        "core.buffer_stalls",
        sum(&|r| r.metrics.stats.buffer_stalls),
    );
    v.set("core.log_writes", log_writes);
    v.set("core.ltt_peak", max(&|r| r.metrics.ltt_peak as u64));
    v.set("core.lot_peak", max(&|r| r.metrics.lot_peak as u64));
    // Work redone per unit of useful work, and log bytes written per byte
    // of data record (2000 B of payload a block, 100 B a paper record).
    v.set(
        "core.forward_per_record",
        ratio(forwarded + recirculated, records),
    );
    v.set(
        "core.write_amp",
        ratio(log_writes * 2000.0, records * 100.0),
    );
    v.set("dbdisk.flushes", sum(&|r| r.metrics.flushes));
    v.set(
        "dbdisk.backlog_end",
        sum(&|r| r.metrics.flush_backlog as u64),
    );
    let n = views.len() as f64;
    v.set(
        "dbdisk.utilisation",
        views
            .iter()
            .map(|r| r.metrics.flush_utilisation)
            .sum::<f64>()
            / n,
    );
    let seeks: Vec<f64> = views
        .iter()
        .filter_map(|r| r.metrics.mean_seek_distance)
        .collect();
    v.set(
        "dbdisk.mean_seek_distance",
        ratio(seeks.iter().sum(), seeks.len() as f64),
    );
}

/// Every per-layer metric, from the traced passes, the last pass's
/// counts (they repeat exactly) and the drills.
pub fn per_layer(
    m: &Measured,
    d: &Drilled,
    tracer: &Tracer,
    checks: &Checks,
    status: &Status,
) -> Values {
    let mut v = Values::new(PER_LAYER);
    let passes = m.pass_walls.len() as f64;
    let traced_wall_s: f64 = m.pass_walls.iter().sum();
    let untraced_s = median(&m.warm_walls);
    let events = m.last.events as f64;

    v.set("sim_killed_frac", m.setup.sim.killed_frac());
    v.set(
        "ops_failed_frac",
        ratio(checks.failed as f64, checks.attempted as f64),
    );
    v.set("sim.events", events);
    // Events per second of *untraced* wall (the set-ups' warm-up passes).
    v.set("sim.events_per_s", ratio(events, untraced_s));
    v.set("sim.queue_ns_per_op", d.forward.queue_ns_per_op);
    v.set("sim.queue_ops", d.forward.queue_ops as f64);
    v.set("workload.driver_ns_per_txn", d.forward.driver_ns_per_txn);
    v.set("workload.replay_ns_per_txn", d.forward.replay_ns_per_txn);

    let folds = summed(&m.folds);
    for (name_ns, name_calls, f) in [
        ("core.begin_ns", "core.begin_calls", &folds[0]),
        ("core.write_data_ns", "core.write_data_calls", &folds[1]),
        (
            "core.commit_request_ns",
            "core.commit_request_calls",
            &folds[2],
        ),
        ("core.buffer_write_ns", "core.buffer_write_calls", &folds[3]),
        ("core.flush_done_ns", "core.flush_done_calls", &folds[4]),
    ] {
        v.set(name_ns, f.mean_ns());
        v.set(name_calls, f.calls as f64 / passes);
    }
    v.set(
        "core.busy_frac",
        ratio(folds_total_ns(&folds) as f64 / 1e9, traced_wall_s),
    );

    match &m.last.detail {
        Detail::Runs(views) => {
            run_counts(&mut v, views);
            if matches!(m.setup.inputs, Inputs::Tenants(_)) {
                v.set("harness.serve.events", events);
                v.set(
                    "harness.serve.ns_per_event",
                    ratio(
                        tracer.total_in_passes("harness.serve_run").1 as f64,
                        events * passes,
                    ),
                );
                v.set("harness.serve.vs_run_ratio", d.serve_vs_run);
            }
        }
        Detail::Search(found) => {
            let sum = |f: &dyn Fn(&elog_sim::SearchStats) -> u64| {
                found.iter().map(|r| f(&r.search)).sum::<u64>() as f64
            };
            let verdicts: f64 = found.iter().map(|r| f64::from(r.probes)).sum();
            // A verdict costs a simulation unless the memo, the analytic
            // model or a consumption certificate answered it.
            let live = sum(&|s| s.sim_probes - s.analytic_rejections - s.cert_verdicts);
            let probe_events = sum(&|s| s.probe_events);
            v.set("harness.search.verdicts", verdicts);
            v.set("harness.search.live_probes", live);
            v.set("harness.search.memo_hits", sum(&|s| s.memo_hits));
            v.set(
                "harness.search.analytic_rejections",
                sum(&|s| s.analytic_rejections),
            );
            v.set("harness.search.cert_verdicts", sum(&|s| s.cert_verdicts));
            v.set("harness.search.resume_probes", sum(&|s| s.resume_probes));
            v.set(
                "harness.search.resume_saved_events",
                sum(&|s| s.resume_saved_events),
            );
            v.set("harness.search.probe_events", probe_events);
            v.set("harness.search.pruned_volume", sum(&|s| s.pruned_volume));
            v.set("harness.search.live_probe_frac", ratio(live, verdicts));
            v.set(
                "harness.search.ns_per_probe_event",
                ratio(
                    tracer.total_in_passes("harness.search").1 as f64,
                    probe_events * passes,
                ),
            );
        }
        Detail::Recover(c) => {
            let per_pass = |name: &str| tracer.total_in_passes(name).1 as f64 / passes;
            let scanned = (c.records * c.sweeps) as f64;
            v.set(
                "recovery.scan_ns_per_record",
                ratio(per_pass("recovery.scan"), scanned),
            );
            v.set(
                "recovery.redo_ns_per_record",
                ratio(per_pass("recovery.redo"), scanned),
            );
            v.set(
                "recovery.verify_ns_per_record",
                ratio(per_pass("recovery.verify"), c.records as f64),
            );
            v.set(
                "recovery.scan_mb_s",
                ratio(
                    (c.bytes * c.sweeps) as f64 / 1e6,
                    per_pass("recovery.scan") / 1e9,
                ),
            );
            v.set("recovery.blocks", c.blocks as f64);
            v.set("recovery.records", c.records as f64);
            v.set("recovery.redone", c.redone as f64);
            v.set("recovery.recovered_objects", c.recovered_objects as f64);
            v.set("recovery.modelled_ms", c.modelled_ms);
            v.set("storage.encode_mb_s", d.storage.encode_mb_s);
            v.set("storage.decode_mb_s", d.storage.decode_mb_s);
            v.set("storage.crc_mb_s", d.storage.crc_mb_s);
            v.set("storage.corrupt_blocks", d.storage.corrupt_blocks as f64);
        }
    }

    v.set("dbdisk.drill_ns_per_flush", d.forward.dbdisk_ns_per_flush);
    v.set("harness.loop_ns_per_event", d.forward.loop_ns_per_event);
    v.set("harness.null_events", d.forward.null_events as f64);
    v.set("harness.search.capture_s", d.forward.capture_s);
    v.set(
        "harness.allocs_per_event",
        ratio(median_u64(&m.pass_allocs), events),
    );
    v.set(
        "harness.trace_overhead_frac",
        ratio(median(&m.pass_walls), untraced_s) - 1.0,
    );
    v.set(
        "harness.result_digest_match",
        f64::from(u8::from(!matches!(status, Status::Mismatch { .. }))),
    );
    v.set("host.cpu_s", m.cpu_s_per_pass);
    v.set("host.wall_iqr_frac", quartiles(&m.pass_walls).iqr_frac());
    v.set("host.nproc", nproc() as f64);
    v.set("host.speed", host_speed(m));
    v
}

fn ledger_row(label: &str, calls: u64, total_ns: u64, wall_ns: u64) {
    println!(
        "{label:<34} {calls:>12} {:>12.3} {:>7.2}% {:>14.1}",
        total_ns as f64 / 1e6,
        ratio(total_ns as f64, wall_ns as f64) * 100.0,
        ratio(total_ns as f64, calls as f64),
    );
}

/// One table: where the traced wall went, layer by layer. Children are
/// indented under the span that contains them; a parent's self time is
/// its total minus its children's.
pub fn print_ledger(m: &Measured, d: &Drilled, tracer: &Tracer) {
    let (passes, wall_ns) = tracer.total("pass");
    println!(
        "ledger: traced wall {:.3} s over {passes} passes (share = of traced wall)",
        wall_ns as f64 / 1e9
    );
    println!(
        "{:<34} {:>12} {:>12} {:>8} {:>14}",
        "layer", "calls", "total_ms", "share", "ns/call"
    );
    ledger_row("pass", passes, wall_ns, wall_ns);
    let mut inside_ns = 0;
    for name in [
        "harness.run",
        "harness.serve_run",
        "harness.search",
        "recovery.scan",
        "recovery.redo",
        "recovery.verify",
    ] {
        let (calls, ns) = tracer.total_in_passes(name);
        if calls > 0 {
            ledger_row(&format!("  {name}"), calls, ns, wall_ns);
            inside_ns += ns;
        }
    }
    let folds = summed(&m.folds);
    let core_ns = folds_total_ns(&folds);
    if core_ns > 0 {
        for (name, f) in CORE_CALLS.iter().zip(&folds) {
            ledger_row(&format!("    {name}"), f.calls, f.total_ns, wall_ns);
        }
        // What a run span holds besides the manager: event queue, workload
        // driver, `SimModel` glue — and the two clock reads `Timed` makes
        // per call, which is why it sits above the null-manager floor.
        let (_, run_ns) = tracer.total_in_passes("harness.run");
        let self_ns = run_ns.saturating_sub(core_ns);
        let events = m.last.events * passes;
        ledger_row("    run.self (queue+driver+loop)", events, self_ns, wall_ns);
        println!(
            "    run.self {:.1} ns/event; harness.loop_ns_per_event (null manager) {:.1}",
            ratio(self_ns as f64, events as f64),
            d.forward.loop_ns_per_event
        );
    }
    ledger_row(
        "  pass.self (checks, digests)",
        passes,
        wall_ns.saturating_sub(inside_ns),
        wall_ns,
    );
    println!("outside the traced wall:");
    let mut names: Vec<&str> = Vec::new();
    for s in tracer.spans() {
        if (s.name == "setup" || s.name.starts_with("drill.")) && !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    for name in names {
        let (calls, ns) = tracer.total(name);
        ledger_row(name, calls, ns, wall_ns);
    }
}

fn id(x: u32) -> String {
    if x == NONE {
        "null".to_string()
    } else {
        x.to_string()
    }
}

fn fold_json(input: usize, name: &str, f: &Fold) -> String {
    let hist: Vec<String> = f.hist.iter().map(u64::to_string).collect();
    format!(
        "{{\"input\": {input}, \"name\": {}, \"calls\": {}, \"total_ns\": {}, \
         \"max_ns\": {}, \"log2_hist\": [{}]}}",
        quote(name),
        f.calls,
        f.total_ns,
        f.max_ns,
        hist.join(", ")
    )
}

/// Writes the coarse spans and the folded call spans as one JSON file.
pub fn write_trace(
    path: &Path,
    kind: Kind,
    seed: u64,
    tracer: &Tracer,
    folds: &[CallFolds],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(tracer.spans().len() * 112 + 4096);
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"spans\": [",
        quote(kind.name()),
        quote(&format!("{seed:#x}"))
    );
    for (i, s) in tracer.spans().iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"name\": {}, \"pass\": {}, \"input\": {}, \"parent\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            if i == 0 { "" } else { "," },
            quote(s.name),
            id(s.pass),
            id(s.input),
            id(s.parent),
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n], \"folds\": [");
    let rows: Vec<String> = folds
        .iter()
        .enumerate()
        .flat_map(|(input, per_input)| {
            CORE_CALLS
                .iter()
                .zip(per_input)
                .map(move |(name, f)| fold_json(input, name, f))
        })
        .collect();
    let _ = write!(out, "\n{}\n]}}\n", rows.join(",\n"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn span_file_parses_and_keeps_ids_and_folds() {
        let mut t = Tracer::new(true);
        t.open("setup", NONE, NONE);
        t.close();
        t.open("pass", 0, NONE);
        t.open("harness.run", 0, 1);
        t.close();
        t.close();
        let mut folds = vec![CallFolds::default(); 2];
        folds[1][3].record(1500);
        let dir = std::env::temp_dir().join(format!("elbench-trace-{}", std::process::id()));
        let path = dir.join("out").join("steady.trace.json");
        write_trace(&path, Kind::Steady, 0x2a, &t, &folds).unwrap();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).expect("span file is JSON");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(doc.get("workload").and_then(Value::as_str), Some("steady"));
        assert_eq!(doc.get("seed").and_then(Value::as_str), Some("0x2a"));
        let spans = doc.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("pass"), Some(&Value::Null));
        assert_eq!(spans[2].get("parent").and_then(Value::as_f64), Some(1.0));
        assert_eq!(spans[2].get("input").and_then(Value::as_f64), Some(1.0));
        let rows = doc.get("folds").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 2 * CORE_CALLS.len());
        let hit = &rows[CORE_CALLS.len() + 3];
        assert_eq!(
            hit.get("name").and_then(Value::as_str),
            Some("core.buffer_write")
        );
        assert_eq!(hit.get("total_ns").and_then(Value::as_f64), Some(1500.0));
        let hist = hit.get("log2_hist").and_then(Value::as_arr).unwrap();
        assert_eq!(hist[10].as_f64(), Some(1.0));
    }
}
