//! The bench regression gate.
//!
//! `ci.sh` runs `bench --quick` on every pass; this module turns that
//! smoke run into a gate by comparing the fresh report against the
//! committed `BENCH_*.json` snapshot and failing on a throughput cliff:
//! the *top-level* `events_per_sec` on the forward (logging) path, and the
//! `recovery` section's aggregate scan and redo record rates (measured on
//! the same machine as the baseline, so the ratios are meaningful even
//! though the absolute figures are not). Nothing else is read — the
//! `lattice`, `analytic`, `search`, `adaptive`, `tenants` and `sharding`
//! sections older snapshots carry are skipped; `elbench` owns those numbers.
//!
//! `bench` writes its reports with a fixed field order, so a full JSON
//! parser would be dead weight: the extractor takes the first occurrence
//! of a key, which is always the aggregate (per-experiment and per-point
//! rows sit in arrays that every aggregate precedes; the recovery fields
//! are scanned from the `"recovery":` marker on).

/// The recovery-path fields the gate compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoverySummary {
    /// Aggregate byte-level scan throughput, records per second.
    pub scan_records_per_sec: f64,
    /// Aggregate single-pass REDO throughput, records per second.
    pub redo_records_per_sec: f64,
}

/// The fields the gate compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchSummary {
    /// Top-level measured-run throughput (events per second).
    pub events_per_sec: f64,
    /// Top-level allocations per event (measured + probe events).
    pub allocations_per_event: f64,
    /// Whether the report came from a `--quick` basket.
    pub quick: bool,
    /// The recovery section's aggregates; `None` when the report predates
    /// the recovery bench or the section is torn (drift the gate diagnoses).
    pub recovery: Option<RecoverySummary>,
}

/// Extracts the number following `"key": ` at its first occurrence at or
/// after byte offset `from`.
fn scan_number_from(json: &str, from: usize, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = from + json.get(from..)?.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl BenchSummary {
    /// Parses the gate-relevant fields out of a bench report.
    pub fn parse(json: &str) -> Option<BenchSummary> {
        Some(BenchSummary {
            events_per_sec: scan_number_from(json, 0, "events_per_sec")?,
            allocations_per_event: scan_number_from(json, 0, "allocations_per_event")?,
            quick: json
                .find("\"quick\":")
                .map(|i| json[i + 8..].trim_start().starts_with("true"))?,
            recovery: json.find("\"recovery\":").and_then(|at| {
                Some(RecoverySummary {
                    scan_records_per_sec: scan_number_from(json, at, "scan_records_per_sec")?,
                    redo_records_per_sec: scan_number_from(json, at, "redo_records_per_sec")?,
                })
            }),
        })
    }
}

/// A throughput figure that cannot be gated: zero means the run produced
/// no work (or the field was mis-parsed), non-finite means the report is
/// malformed. Either way the gate must say so, not divide by it.
fn check_rate(which: &str, role: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && v > 0.0 {
        return Ok(());
    }
    Err(format!(
        "{role} {which} is {v}: zero or invalid throughput — the run \
         produced no work or the report schema drifted; regenerate the \
         {role} snapshot"
    ))
}

/// One throughput ratio against the gate floor. Returns the human-readable
/// fragment on pass, the failure message on a cliff.
fn gate_rate(
    which: &str,
    baseline: f64,
    current: f64,
    max_regress_pct: f64,
) -> Result<String, String> {
    check_rate(which, "baseline", baseline)?;
    check_rate(which, "current", current)?;
    let detail = format!(
        "{which} {current:.0}/s vs baseline {baseline:.0}/s ({:+.1}%)",
        (current / baseline - 1.0) * 100.0
    );
    if current < baseline * (1.0 - max_regress_pct / 100.0) {
        return Err(format!(
            "{which} regression beyond {max_regress_pct:.0}%: {detail}"
        ));
    }
    Ok(detail)
}

/// Compares a fresh report against the committed baseline.
///
/// Fails when logging, recovery-scan or recovery-redo throughput dropped
/// by more than `max_regress_pct` percent; faster runs always pass. The
/// allocation ratio is reported but not gated (a real alloc regression
/// also shows as a throughput cliff). A baseline that predates the
/// recovery section passes with an explicit diagnostic (refresh the
/// snapshot); a *current* report that lost it fails — schema drift in the
/// wrong direction. Returns a human-readable verdict either way.
pub fn check_regression(
    baseline: &BenchSummary,
    current: &BenchSummary,
    max_regress_pct: f64,
) -> Result<String, String> {
    if baseline.quick != current.quick {
        return Err(format!(
            "baseline quick={} but current quick={}: refusing to compare \
             different basket sizes",
            baseline.quick, current.quick
        ));
    }
    let rate = |which, base, cur| gate_rate(which, base, cur, max_regress_pct);
    let mut parts = vec![
        rate("events", baseline.events_per_sec, current.events_per_sec)?,
        format!(
            "allocs/event {:.3} vs {:.3}",
            current.allocations_per_event, baseline.allocations_per_event,
        ),
    ];
    match (&baseline.recovery, &current.recovery) {
        (Some(b), Some(c)) => parts.extend([
            rate(
                "recovery-scan records",
                b.scan_records_per_sec,
                c.scan_records_per_sec,
            )?,
            rate(
                "recovery-redo records",
                b.redo_records_per_sec,
                c.redo_records_per_sec,
            )?,
        ]),
        (None, Some(_)) => parts.push(
            "recovery not gated: baseline predates the recovery section — \
             refresh the committed BENCH snapshot"
                .into(),
        ),
        (Some(_), None) => {
            return Err(
                "current report has no recovery section but the baseline does: \
                 the recovery stats were lost (schema drift) — fix bench before \
                 trusting this gate"
                    .into(),
            );
        }
        (None, None) => {
            parts.push("recovery not reported: neither report carries a recovery section".into())
        }
    }
    Ok(parts.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report in the bench writer's field order: top-level scalars, the
    /// per-experiment rows, then `recovery`. The experiment and point rows
    /// carry decoy values the first-occurrence scan must not read.
    fn report_with_recovery(
        events_per_sec: f64,
        allocs: f64,
        quick: bool,
        recovery: Option<(f64, f64)>,
    ) -> String {
        let recovery_section = match recovery {
            Some((scan, redo)) => format!(
                ",\n  \"recovery\": {{\n    \"scan_blocks_per_sec\": 120000,\n    \
                 \"scan_records_per_sec\": {scan},\n    \"redo_records_per_sec\": {redo},\n    \
                 \"allocations_per_record\": 0.4,\n    \"corrupt_block_rate\": 0.002,\n    \
                 \"points\": [\n      {{\"name\": \"el/mid-flush\", \
                 \"scan_records_per_sec\": 1, \"redo_records_per_sec\": 1}}\n    ]\n  }}"
            ),
            None => String::new(),
        };
        format!(
            "{{\n  \"date\": \"2026-08-06\",\n  \"quick\": {quick},\n  \"jobs\": 1,\n  \
             \"total_wall_secs\": 2.0,\n  \"total_events\": 800000,\n  \
             \"events_per_sec\": {events_per_sec},\n  \"allocations\": 400000,\n  \
             \"allocations_per_event\": {allocs},\n  \"probe_events\": 6000000,\n  \
             \"replay_hit_rate\": 0.9,\n  \"memo_hit_rate\": 0.2,\n  \
             \"experiments\": [\n    {{\"name\": \"x\", \"probes\": 7, \
             \"events_per_sec\": 99, \"allocations_per_event\": 99.0}}\n  \
             ]{recovery_section}\n}}"
        )
    }

    fn report(events_per_sec: f64, allocs: f64, quick: bool) -> String {
        report_with_recovery(events_per_sec, allocs, quick, Some((4e6, 8e6)))
    }

    /// The summary of a 400 k events/s quick report with this recovery section.
    fn with_recovery(recovery: Option<(f64, f64)>) -> BenchSummary {
        BenchSummary::parse(&report_with_recovery(400_000.0, 0.05, true, recovery)).unwrap()
    }

    #[test]
    fn committed_snapshots_parse_to_their_gated_values() {
        // Four schema generations: lattice + recovery only; with the
        // since-deleted sharding section; the last six-section report; the
        // gate-only report, four times (before and after the recovery byte
        // path got ≈ 4× faster, the first with the timing-wheel event
        // queue, the first with the stable database's install log — a
        // trajectory row: the quick basket's tables stay in cache, so it
        // reads the same as the parent's 1.16 M that hour). The parser must
        // read the same gated values
        // from each and ignore the rest, whatever order a later writer
        // puts the sections in.
        let snapshots = [
            (
                include_str!("../../../BENCH_2026-08-06.json"),
                (439_265.0, 5_293_128.0, 31_596_521.0),
            ),
            (
                include_str!("../../../BENCH_2026-08-09.json"),
                (806_528.0, 6_028_883.0, 35_392_082.0),
            ),
            (
                include_str!("../../../BENCH_2026-09-30.json"),
                (900_873.0, 5_692_293.0, 34_441_963.0),
            ),
            (
                include_str!("../../../BENCH_2026-10-01.json"),
                (630_816.0, 6_110_510.0, 35_821_120.0),
            ),
            (
                include_str!("../../../BENCH_2026-10-02.json"),
                (861_842.0, 20_643_658.0, 163_191_763.0),
            ),
            (
                include_str!("../../../BENCH_2026-10-03.json"),
                (1_359_795.0, 19_829_713.0, 158_641_014.0),
            ),
            (
                include_str!("../../../BENCH_2026-10-04.json"),
                (1_190_624.0, 19_573_137.0, 155_504_381.0),
            ),
        ];
        let parsed = snapshots.map(|(json, (events, scan, redo))| {
            let s = BenchSummary::parse(json).expect("committed snapshot parses");
            assert!(s.quick);
            assert_eq!(s.events_per_sec, events);
            let recovery = RecoverySummary {
                scan_records_per_sec: scan,
                redo_records_per_sec: redo,
            };
            assert_eq!(s.recovery, Some(recovery));
            check_regression(&s, &s, 30.0).expect("a snapshot gates green against itself");
            s
        });
        let verdict = check_regression(&parsed[1], &parsed[2], 30.0).unwrap();
        assert!(
            verdict.contains("events 900873/s vs baseline 806528/s"),
            "{verdict}"
        );
        for ignored in [
            "lattice", "analytic", "search", "adaptive", "tenants", "sharding",
        ] {
            assert!(!verdict.contains(ignored), "{verdict}");
        }
    }

    #[test]
    fn parse_reads_top_level_fields_not_experiment_rows() {
        let s = BenchSummary::parse(&report(407178.0, 0.051, true)).unwrap();
        assert_eq!(s.events_per_sec, 407178.0);
        assert_eq!(s.allocations_per_event, 0.051);
        assert!(s.quick);
    }

    #[test]
    fn parse_reads_recovery_aggregates_not_point_rows() {
        let s = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let r = s.recovery.expect("recovery section present");
        assert_eq!(r.scan_records_per_sec, 4e6);
        assert_eq!(r.redo_records_per_sec, 8e6);
    }

    #[test]
    fn required_field_missing_rejects_the_section() {
        // A recovery section that lost a gated field (here: the writer
        // renamed it) is schema drift: both fields are required, so the
        // section parses as absent rather than inventing a number, and the
        // gate reports it exactly like a lost section.
        let good = report(400_000.0, 0.05, true);
        let torn = good.replace("redo_records_per_sec", "redo_rate");
        assert_ne!(torn, good, "replace must hit");
        let cur = BenchSummary::parse(&torn).unwrap();
        assert!(cur.recovery.is_none(), "torn section must not parse");
        let base = BenchSummary::parse(&good).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("no recovery section"), "{err}");
    }

    #[test]
    fn zero_allocation_ratio_is_reported_not_gated() {
        // An experiment basket that delivered no events writes
        // allocations_per_event: 0.0; the gate reports the figure
        // verbatim and never divides by it.
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.0, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("allocs/event 0.000"), "{verdict}");
    }

    #[test]
    fn parse_tolerates_missing_recovery_section() {
        let s = with_recovery(None);
        assert!(s.recovery.is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchSummary::parse("not json at all").is_none());
        assert!(BenchSummary::parse("{\"quick\": true}").is_none());
    }

    #[test]
    fn injected_30_percent_regression_fails_the_gate() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // 35% slower than baseline: must fail a 30% gate.
        let bad = BenchSummary::parse(&report(260_000.0, 0.05, true)).unwrap();
        let err = check_regression(&base, &bad, 30.0).unwrap_err();
        assert!(err.contains("events regression"), "{err}");
        // Exactly at the floor still passes (the gate is strict-less-than).
        let edge = BenchSummary::parse(&report(280_000.0, 0.05, true)).unwrap();
        assert!(check_regression(&base, &edge, 30.0).is_ok());
    }

    #[test]
    fn injected_recovery_regression_fails_the_gate() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // Logging fine, recovery scan 40% down: must fail.
        let bad = with_recovery(Some((2.4e6, 8e6)));
        let err = check_regression(&base, &bad, 30.0).unwrap_err();
        assert!(err.contains("recovery-scan"), "{err}");
        // Redo regression alone also fails.
        let bad = with_recovery(Some((4e6, 4e6)));
        let err = check_regression(&base, &bad, 30.0).unwrap_err();
        assert!(err.contains("recovery-redo"), "{err}");
        // Small recovery jitter passes and is reported.
        let ok = with_recovery(Some((3.5e6, 7.5e6)));
        let verdict = check_regression(&base, &ok, 30.0).unwrap();
        assert!(verdict.contains("recovery-scan"), "{verdict}");
    }

    #[test]
    fn baseline_without_recovery_passes_with_diagnostic() {
        let base = with_recovery(None);
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("baseline predates"), "{verdict}");
    }

    #[test]
    fn current_without_recovery_fails_when_baseline_has_it() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = with_recovery(None);
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("no recovery section"), "{err}");
    }

    #[test]
    fn zero_or_invalid_throughput_is_diagnosed_not_silently_passed() {
        // Zero baseline events: previously floor=0 made everything pass.
        let base = BenchSummary::parse(&report(0.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("zero or invalid"), "{err}");
        // Zero current recovery redo rate: diagnosed too.
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = with_recovery(Some((4e6, 0.0)));
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("recovery-redo"), "{err}");
        assert!(err.contains("zero or invalid"), "{err}");
    }

    #[test]
    fn small_jitter_and_improvements_pass() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let jitter = BenchSummary::parse(&report(350_000.0, 0.06, true)).unwrap();
        let verdict = check_regression(&base, &jitter, 30.0).unwrap();
        assert!(verdict.contains("-12.5%"), "{verdict}");
        let faster = BenchSummary::parse(&report(800_000.0, 0.01, true)).unwrap();
        assert!(check_regression(&base, &faster, 30.0).is_ok());
    }

    #[test]
    fn basket_size_mismatch_refuses_comparison() {
        let quick = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let full = BenchSummary::parse(&report(400_000.0, 0.05, false)).unwrap();
        let err = check_regression(&quick, &full, 30.0).unwrap_err();
        assert!(err.contains("basket"), "{err}");
    }
}
