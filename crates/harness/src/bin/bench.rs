//! The CI perf smoke and regression gate over the experiment registry
//! (`elbench` in `benchmark/` is the evidence for performance claims).
//!
//! Runs every registered experiment's scenario basket and records the
//! *host-side* cost of each: wall clock, delivered simulation events,
//! events per second, heap allocations, event-queue and probe counters.
//! A `recovery` section follows: crash-point snapshots of the paper's FW
//! and EL recovery subjects, serialised through the block codec and priced
//! through `scan_bytes` + `recover` (per-point scan and redo throughput,
//! allocations per record, corrupt-block rate). The report is written as
//! JSON to `BENCH_<date>.json` (override with `--out`) and echoed to
//! stdout. Simulation *results* are `repro`'s to report.
//!
//! `--quick` uses the shrunk quick basket (the CI setting); `--jobs`
//! defaults to 1 so events/s is not confounded by scheduling; `--date`
//! overrides the UTC date stamp; `--no-analytic` prices the basket's
//! searches with the probe pre-filter off (the `probe_events` rows).
//!
//! `--baseline PATH` turns the run into a regression gate: top-level
//! throughput *and* the recovery section's aggregate scan/redo rates are
//! compared against the snapshot at PATH and the process exits 1 when any
//! regressed by more than `--max-regress` percent (default 30). The
//! snapshot is read and the report file created before anything runs, so
//! a bad `--baseline`, `--out` or `--date` exits 2 at once.

use elog_harness::benchgate::{check_regression, BenchSummary};
use elog_harness::cli;
use elog_harness::crashpoint::bench_recovery;
use elog_harness::experiments::registry;
use elog_harness::sweep::{run_scenarios, ExecOptions};
use elog_sim::perfstats::{allocations, CountingAlloc};
use elog_sim::{PerfStats, RecoveryStats};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc<std::alloc::System> = CountingAlloc(std::alloc::System);

struct Options {
    quick: bool,
    jobs: usize,
    analytic: bool,
    date: String,
    /// The `--baseline` snapshot, already read and parsed.
    baseline: Option<BenchSummary>,
    max_regress_pct: f64,
}

const USAGE: &str = "usage: bench [--quick] [--jobs N] [--out PATH] [--date YYYY-MM-DD] \
    [--baseline PATH] [--max-regress PCT] [--no-analytic]";

/// Parses the flags and does the I/O that can fail on their say-so: reads
/// the baseline and creates the report file (returned with its path).
fn parse_args(args: Vec<String>) -> Result<(Options, PathBuf, File), String> {
    let mut opts = Options {
        quick: false,
        jobs: 1,
        analytic: true,
        date: utc_date(),
        baseline: None,
        max_regress_pct: 30.0,
    };
    let mut out = None;
    let args: cli::Args = &mut args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--no-analytic" => opts.analytic = false,
            "--jobs" => opts.jobs = cli::positive("--jobs", args)?,
            "--out" => out = Some(PathBuf::from(cli::value::<String>("--out", args)?)),
            "--date" => {
                opts.date = cli::value("--date", args)?;
                if !is_iso_date(&opts.date) {
                    return Err(format!("--date {}: expected YYYY-MM-DD", opts.date));
                }
            }
            "--baseline" => {
                // Read here: `--out` may name the same file, and is created
                // (truncated) only after the loop.
                let path = baseline_path(&cli::value::<String>("--baseline", args)?)?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("--baseline {}: cannot read: {e}", path.display()))?;
                let summary = BenchSummary::parse(&text)
                    .ok_or_else(|| format!("--baseline {}: not a bench report", path.display()))?;
                opts.baseline = Some(summary);
            }
            "--max-regress" => {
                let pct: f64 = cli::value("--max-regress", args)?;
                if !(0.0..100.0).contains(&pct) {
                    return Err(format!(
                        "--max-regress {pct}: must be a percentage in [0, 100)"
                    ));
                }
                opts.max_regress_pct = pct;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let out = out.unwrap_or_else(|| format!("BENCH_{}.json", opts.date).into());
    let file =
        File::create(&out).map_err(|e| format!("--out {}: cannot create: {e}", out.display()))?;
    Ok((opts, out, file))
}

/// Whether `raw` is a `YYYY-MM-DD` date. It names the default report
/// file, so anything looser (`x/../../y`) would pick where that lands.
fn is_iso_date(raw: &str) -> bool {
    let shaped = raw.len() == 10
        && raw.bytes().enumerate().all(|(i, c)| match i {
            4 | 7 => c == b'-',
            _ => c.is_ascii_digit(),
        });
    let in_range = |at: usize, max: u32| (1..=max).contains(&raw[at..at + 2].parse().unwrap_or(0));
    shaped && in_range(5, 12) && in_range(8, 31)
}

/// Validates a `--baseline` operand. An empty (or all-whitespace) path
/// is rejected up front with a pointer at the usual cause — a CI script
/// expanding an empty `ls BENCH_*.json` glob into `--baseline ""` —
/// instead of surfacing later as a bare file-not-found on `""`.
fn baseline_path(raw: &str) -> Result<PathBuf, String> {
    if !raw.trim().is_empty() {
        return Ok(PathBuf::from(raw));
    }
    Err(
        "--baseline got an empty path; if it came from a `ls BENCH_*.json` \
         glob, no snapshot exists — generate one with \
         `bench --quick --jobs 1 --out BENCH_<date>.json` and commit it"
            .to_string(),
    )
}

/// UTC date `YYYY-MM-DD` from the system clock (civil-from-days, Hinnant).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Allocations per delivered event (measured + probe). A basket that
/// delivered no events — e.g. "recovery time FW vs EL", whose cost lives
/// entirely in the recovery section — has no meaningful ratio: emit 0.0
/// rather than dividing the raw allocation count by a clamped 1 and
/// publishing it as a per-event figure.
fn alloc_ratio(allocs: u64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        allocs as f64 / events as f64
    }
}

fn main() {
    let (opts, path, mut file) = cli::parse_env(USAGE, parse_args);
    let exec = ExecOptions {
        jobs: opts.jobs,
        progress: false,
        analytic: opts.analytic,
    };
    // Experiment names, point labels and the validated date are quote-free
    // program text, so the writer emits them unescaped.
    let mut per_experiment = String::new();
    let mut total = PerfStats::default();
    let mut total_wall = std::time::Duration::ZERO;
    let mut total_allocs = 0u64;
    let t_all = Instant::now();
    for (i, e) in registry().iter().enumerate() {
        let scenarios = e.scenarios(opts.quick);
        let alloc0 = allocations();
        let t0 = Instant::now();
        let outcomes = run_scenarios(&scenarios, &exec);
        let wall = t0.elapsed();
        let allocs = allocations() - alloc0;
        let failed = outcomes.iter().filter(|o| o.failure().is_some()).count();
        // Sum the measured runs' engine-side counters; min-space searches
        // contribute only their final measured run (the probes are costed
        // in wall/allocations, which cover the whole basket).
        let mut perf = PerfStats::default();
        outcomes
            .iter()
            .filter_map(|o| o.output.perf())
            .for_each(|p| perf.merge(p));
        total.merge(&perf);
        total_wall += wall;
        total_allocs += allocs;
        eprintln!(
            "[bench] {}: {:.2?} wall, {} events, {} allocations, {} probe events",
            e.name(),
            wall,
            perf.events,
            allocs,
            perf.search.probe_events,
        );
        let _ = write!(
            per_experiment,
            "{}    {{\"name\": \"{}\", \"scenarios\": {}, \"failed\": {}, \"wall_secs\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {:.0}, \"allocations\": {}, \
             \"allocations_per_event\": {:.3}, \"heap_peak\": {}, \"compactions\": {}, \
             \"probes\": {}, \"probe_events\": {}, \"replay_hit_rate\": {:.3}, \
             \"memo_hit_rate\": {:.3}, \"events_per_probe\": {:.0}}}",
            if i == 0 { "" } else { ",\n" },
            e.name(),
            scenarios.len(),
            failed,
            wall.as_secs_f64(),
            perf.events,
            perf.events as f64 / wall.as_secs_f64().max(1e-9),
            allocs,
            alloc_ratio(allocs, perf.events + perf.search.probe_events),
            perf.queue.heap_peak,
            perf.queue.compactions,
            perf.search.sim_probes + perf.search.memo_hits,
            perf.search.probe_events,
            perf.search.replay_hit_rate(),
            perf.search.memo_hit_rate(),
            perf.search.events_per_probe(),
        );
    }
    // The recovery bench, under the same wall/allocation instrumentation.
    // Aggregates precede the per-point rows so benchgate's first-occurrence
    // scan (from the "recovery" key on) reads the aggregate, not a row.
    let points = bench_recovery(opts.quick);
    let mut agg = RecoveryStats::default();
    let mut per_point = String::new();
    for (i, p) in points.iter().enumerate() {
        agg.merge(&p.stats);
        eprintln!("[bench] recovery {}: {}", p.label, p.stats);
        let _ = write!(
            per_point,
            "{}      {{\"name\": \"{}\", \"at_secs\": {:.3}, \"iters\": {}, \"blocks\": {}, \
             \"decoded_blocks\": {}, \"corrupt_blocks\": {}, \"records\": {}, \
             \"scan_blocks_per_sec\": {:.0}, \"scan_records_per_sec\": {:.0}, \
             \"redo_records_per_sec\": {:.0}, \"allocations_per_record\": {:.3}, \
             \"verified\": {}, \"modelled_secs\": {:.3}}}",
            if i == 0 { "" } else { ",\n" },
            p.label,
            p.at.as_secs_f64(),
            p.iters,
            p.stats.blocks,
            p.stats.decoded_blocks,
            p.stats.corrupt_blocks,
            p.stats.records,
            p.stats.scan_blocks_per_sec(),
            p.stats.scan_records_per_sec(),
            p.stats.redo_records_per_sec(),
            p.stats.allocations_per_record(),
            p.verified,
            p.modelled.as_secs_f64(),
        );
    }
    let recovery_json = format!(
        "  \"recovery\": {{\n    \"scan_blocks_per_sec\": {:.0},\n    \
         \"scan_records_per_sec\": {:.0},\n    \"redo_records_per_sec\": {:.0},\n    \
         \"allocations_per_record\": {:.3},\n    \"corrupt_block_rate\": {:.4},\n    \
         \"verified\": {},\n    \"points\": [\n{}\n    ]\n  }}",
        agg.scan_blocks_per_sec(),
        agg.scan_records_per_sec(),
        agg.redo_records_per_sec(),
        agg.allocations_per_record(),
        agg.corrupt_block_rate(),
        points.iter().all(|p| p.verified),
        per_point,
    );
    let wall_all = t_all.elapsed();

    let json = format!(
        "{{\n  \"date\": \"{}\",\n  \"quick\": {},\n  \"jobs\": {},\n  \
         \"total_wall_secs\": {:.3},\n  \"total_events\": {},\n  \
         \"events_per_sec\": {:.0},\n  \"allocations\": {},\n  \
         \"allocations_per_event\": {:.3},\n  \"probe_events\": {},\n  \
         \"replay_hit_rate\": {:.3},\n  \"memo_hit_rate\": {:.3},\n  \
         \"experiments\": [\n{}\n  ],\n{}\n}}",
        opts.date,
        opts.quick,
        opts.jobs,
        wall_all.as_secs_f64(),
        total.events,
        total.events as f64 / total_wall.as_secs_f64().max(1e-9),
        total_allocs,
        alloc_ratio(total_allocs, total.events + total.search.probe_events),
        total.search.probe_events,
        total.search.replay_hit_rate(),
        total.search.memo_hit_rate(),
        per_experiment,
        recovery_json,
    );

    if let Err(e) = file.write_all(format!("{json}\n").as_bytes()) {
        eprintln!("--out {}: cannot write: {e}", path.display());
        std::process::exit(2);
    }
    eprintln!("wrote {}", path.display());
    println!("{json}");

    if let Some(baseline) = opts.baseline {
        let current = BenchSummary::parse(&json).expect("own report parses");
        match check_regression(&baseline, &current, opts.max_regress_pct) {
            Ok(verdict) => eprintln!("[bench] gate OK: {verdict}"),
            Err(why) => {
                eprintln!("[bench] gate FAILED: {why}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::baseline_path;

    #[test]
    fn baseline_path_accepts_a_real_path() {
        assert_eq!(
            baseline_path("BENCH_2026-08-09.json").unwrap(),
            std::path::PathBuf::from("BENCH_2026-08-09.json")
        );
    }

    #[test]
    fn baseline_path_rejects_empty_with_the_glob_hint() {
        for raw in ["", "  "] {
            let why = baseline_path(raw).unwrap_err();
            assert!(why.contains("empty path"), "{why}");
            assert!(why.contains("BENCH_*.json"), "{why}");
            assert!(why.contains("generate one"), "{why}");
        }
    }
}
