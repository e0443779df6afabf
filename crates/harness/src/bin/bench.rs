//! Performance benchmark over the experiment registry.
//!
//! ```text
//! bench [--quick] [--jobs N] [--out PATH] [--date YYYY-MM-DD]
//! ```
//!
//! Runs every registered experiment's scenario basket and records the
//! *host-side* cost of each: wall clock, delivered simulation events,
//! events per second, heap allocations and event-queue counters. The
//! report is written as JSON to `BENCH_<date>.json` (override with
//! `--out`) and echoed to stdout, so CI can diff the perf trajectory
//! across commits. Simulation *results* are not recorded here — `repro`
//! owns those; this binary prices how fast we produce them.
//!
//! `--quick` uses the shrunk quick basket (the CI smoke setting);
//! `--jobs` defaults to 1 so events/s numbers are not confounded by
//! scheduling. `--date` overrides the UTC date stamp (reproducible
//! output for tests).
//!
//! Besides the forward path, the report carries a `lattice` section — the
//! aggregate min-space search counters (probes, memo hits, pruned lattice
//! volume), report-only context for the gate — an `analytic` section with
//! the probe pre-filter's counters (model rejections, prefix-resume
//! probes and the events they saved; `--no-analytic` zeroes it) — and a
//! `recovery` section:
//! crash-point snapshots (mid-forwarding, mid-flush, post-wrap) of the
//! paper's FW and EL recovery subjects are serialised through the block
//! codec and priced through `scan_bytes` + `recover` — per-point scan
//! and redo throughput, allocations per record, corrupt-block rate.
//!
//! A `search` section prices the persistent probe-verdict cache
//! (DESIGN.md §5i): the fig4-6 workhorse search is timed uncached, then
//! run cold and warm against a scratch probe cache (identical results
//! asserted); the report records the three wall clocks and the warm run's
//! seeded/hit/miss counts (misses = live probes, 0 when warm).
//! Report-only, like the other accelerator sections.
//!
//! `--baseline PATH` turns the run into a regression gate: the fresh
//! report's top-level throughput *and* the recovery section's aggregate
//! scan/redo rates are compared against the committed snapshot at PATH
//! and the process exits non-zero when any regressed by more than
//! `--max-regress` percent (default 30).

use elog_harness::benchgate::{check_regression, BenchSummary};
use elog_harness::cli;
use elog_harness::crashpoint::bench_recovery;
use elog_harness::experiments::registry;
use elog_harness::latsearch::LatticeLimits;
use elog_harness::minspace::paper_base;
use elog_harness::sweep::{run_scenarios, ExecOptions};
use elog_harness::SearchRequest;
use elog_sim::perfstats::{allocations, CountingAlloc};
use elog_sim::{PerfStats, RecoveryStats};
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc<std::alloc::System> = CountingAlloc(std::alloc::System);

struct Options {
    quick: bool,
    jobs: usize,
    out: Option<std::path::PathBuf>,
    date: Option<String>,
    baseline: Option<std::path::PathBuf>,
    max_regress_pct: f64,
}

const USAGE: &str = "usage: bench [--quick] [--jobs N] [--out PATH] [--date YYYY-MM-DD] \
    [--baseline PATH] [--max-regress PCT] [--no-analytic]";

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        jobs: 1,
        out: None,
        date: None,
        baseline: None,
        max_regress_pct: 30.0,
    };
    let args: cli::Args = &mut args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--no-analytic" => elog_harness::analytic::set_enabled(false),
            "--jobs" => opts.jobs = cli::positive("--jobs", args)?,
            "--out" => opts.out = Some(cli::value::<String>("--out", args)?.into()),
            "--date" => opts.date = Some(cli::value("--date", args)?),
            "--baseline" => {
                let raw: String = cli::value("--baseline", args)?;
                opts.baseline = Some(baseline_path(&raw)?);
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
    Ok(opts)
}

/// Validates a `--baseline` operand. An empty (or all-whitespace) path
/// is rejected up front with a pointer at the usual cause — a CI script
/// expanding an empty `ls BENCH_*.json` glob into `--baseline ""` —
/// instead of surfacing later as a bare file-not-found on `""`.
fn baseline_path(raw: &str) -> Result<std::path::PathBuf, String> {
    if raw.trim().is_empty() {
        Err(
            "--baseline got an empty path; if it came from a `ls BENCH_*.json` \
             glob, no snapshot exists — generate one with \
             `bench --quick --jobs 1 --out BENCH_<date>.json` and commit it"
                .to_string(),
        )
    } else {
        Ok(std::path::PathBuf::from(raw))
    }
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

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Times the fig4-6 workhorse search (2-generation lattice: gen0 scan ×
/// gen1 bisection) uncached, then prices the persistent probe-verdict
/// cache with a cold-then-warm double run in a scratch directory, and
/// returns the `search` report section. Identical geometries and probe
/// counts across the runs are asserted — the cache may only move wall
/// clock. Cache counters come from the warm run (whose misses are its live
/// probes: 0 when the cache answered everything).
fn bench_search(quick: bool) -> String {
    let secs = if quick { 60 } else { 500 };
    let base = paper_base(0.05, false, secs);
    let search = |dir: Option<&std::path::Path>| {
        let limits = LatticeLimits {
            prefix_max: vec![48],
            last_limit: 1024,
        };
        let mut req = SearchRequest::lattice(&base, limits).jobs(1);
        if let Some(dir) = dir {
            req = req.probe_cache_dir(dir);
        }
        let t0 = Instant::now();
        let out = req.run();
        (out.min, t0.elapsed())
    };
    let (serial, serial_wall) = search(None);
    let cache_dir = std::env::temp_dir().join(format!("elog-bench-probes-{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).expect("create scratch probe-cache dir");
    let (cold, cold_wall) = search(Some(&cache_dir));
    let (warm, warm_wall) = search(Some(&cache_dir));
    let _ = std::fs::remove_dir_all(&cache_dir);
    assert_eq!(
        serial.generation_blocks, cold.generation_blocks,
        "cold cached search diverged from the uncached search"
    );
    assert_eq!(
        serial.generation_blocks, warm.generation_blocks,
        "warm cached search diverged from the uncached search"
    );
    assert_eq!(
        serial.probes, warm.probes,
        "warm cached search changed the probe count"
    );
    let cache_speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
    eprintln!(
        "[bench] search: {:.2?} uncached; cache {:.0}x warm ({:.2?} -> {:.2?}), \
         {} hits / {} misses",
        serial_wall,
        cache_speedup,
        cold_wall,
        warm_wall,
        warm.search.cache_hits,
        warm.search.cache_misses,
    );
    format!(
        "  \"search\": {{\n    \"serial_wall_secs\": {:.3},\n    \
         \"cold_wall_secs\": {:.3},\n    \"warm_wall_secs\": {:.3},\n    \
         \"cache_speedup\": {:.3},\n    \
         \"cache_seeded\": {},\n    \"cache_hits\": {},\n    \"cache_misses\": {}\n  }}",
        serial_wall.as_secs_f64(),
        cold_wall.as_secs_f64(),
        warm_wall.as_secs_f64(),
        cache_speedup,
        warm.search.cache_seeded,
        warm.search.cache_hits,
        warm.search.cache_misses,
    )
}

/// Prices the online generation controller and returns the `adaptive`
/// report section. The subject is the `fig_adaptive` basket minus the
/// two static-optimum searches (those price the *searcher*, already
/// covered by the lattice section): the drifting-mix adaptive run and
/// the mid-run shift pair (controller on vs off on one workload). The
/// drift run supplies the controller counters — window decisions,
/// occupancy snapshots, reshapes split into grows and shrinks, hint
/// toggles, firewall fallbacks — and the shift pair supplies the kill
/// cost the controller sheds relative to the frozen run. Report-only,
/// like the other accelerator sections: the counters describe what the
/// controller did, not a rate to gate.
fn bench_adaptive(quick: bool) -> String {
    use elog_harness::experiments::fig_adaptive;
    let cfg = if quick {
        fig_adaptive::Config::quick()
    } else {
        fig_adaptive::Config::paper()
    };
    let mut scenarios = fig_adaptive::scenarios_for(&cfg);
    scenarios.retain(|s| s.variant == "drift" || s.variant.starts_with("shift-"));
    let t0 = Instant::now();
    let outcomes = run_scenarios(
        &scenarios,
        &ExecOptions {
            jobs: 1,
            progress: false,
        },
    );
    let wall = t0.elapsed();
    let drift = outcomes[0].measured().expect("drift run completes");
    let st = drift
        .adaptive
        .as_ref()
        .expect("drift run carries controller stats");
    let on = outcomes[1].measured().expect("shift adaptive completes");
    let off = outcomes[2].measured().expect("shift frozen completes");
    let kills_shed = off.killed.saturating_sub(on.killed);
    eprintln!(
        "[bench] adaptive: {} reshapes ({} grows, {} shrinks) over {} windows, \
         {} hint toggles, {} fallbacks; shift sheds {} of {} kills; {:.2?}",
        st.reshapes,
        st.grows,
        st.shrinks,
        st.window_decisions,
        st.hint_toggles,
        st.firewall_fallbacks,
        kills_shed,
        off.killed,
        wall,
    );
    format!(
        "  \"adaptive\": {{\n    \"window_decisions\": {},\n    \
         \"occupancy_snapshots\": {},\n    \"reshapes\": {},\n    \
         \"grows\": {},\n    \"shrinks\": {},\n    \"hint_toggles\": {},\n    \
         \"firewall_fallbacks\": {},\n    \"kills_shed\": {},\n    \
         \"shift_kills_frozen\": {},\n    \"wall_secs\": {:.3}\n  }}",
        st.window_decisions,
        st.occupancy_snapshots,
        st.reshapes,
        st.grows,
        st.shrinks,
        st.hint_toggles,
        st.firewall_fallbacks,
        kills_shed,
        off.killed,
        wall.as_secs_f64(),
    )
}

/// Prices the multi-tenant serve mode and returns the `tenants` report
/// section: the `fig_tenants` scaling sweep's highest-multiplexing run,
/// summarised as committed/killed/refused counts plus the aggregate
/// p50/p99 arrival→durable commit latency. Report-only, like the other
/// accelerator sections — the latency quantiles are workload statements,
/// not host rates to gate.
fn bench_tenants(quick: bool) -> String {
    use elog_harness::experiments::fig_tenants;
    let cfg = if quick {
        fig_tenants::Config::quick()
    } else {
        fig_tenants::Config::paper()
    };
    let scenarios = fig_tenants::scenarios_for(&cfg);
    let t0 = Instant::now();
    let outcomes = run_scenarios(
        &scenarios,
        &ExecOptions {
            jobs: 1,
            progress: false,
        },
    );
    let wall = t0.elapsed();
    let last = outcomes
        .iter()
        .rev()
        .find_map(|o| o.serve())
        .expect("serve runs complete");
    eprintln!(
        "[bench] tenants: {} tenants committed {} (killed {}, refused {}), \
         p50 {:.1} ms, p99 {:.1} ms; {:.2?}",
        last.per_tenant.len(),
        last.aggregate.committed,
        last.aggregate.killed,
        last.aggregate.throttled,
        last.aggregate.p50_ms.unwrap_or(0.0),
        last.aggregate.p99_ms.unwrap_or(0.0),
        wall,
    );
    format!(
        "  \"tenants\": {{\n    \"tenant_count\": {},\n    \"committed\": {},\n    \
         \"killed\": {},\n    \"refused\": {},\n    \"agg_p50_ms\": {:.3},\n    \
         \"agg_p99_ms\": {:.3},\n    \"wall_secs\": {:.3}\n  }}",
        last.per_tenant.len(),
        last.aggregate.committed,
        last.aggregate.killed,
        last.aggregate.throttled,
        last.aggregate.p50_ms.unwrap_or(0.0),
        last.aggregate.p99_ms.unwrap_or(0.0),
        wall.as_secs_f64(),
    )
}

fn main() {
    let opts = cli::parse_env(USAGE, parse_args);
    let date = opts.date.clone().unwrap_or_else(utc_date);
    let exec = ExecOptions {
        jobs: opts.jobs,
        progress: false,
    };

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
        for o in &outcomes {
            if let Some(p) = o.output.perf() {
                perf.merge(p);
            }
        }
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
            "{}    {{\"name\": {}, \"scenarios\": {}, \"failed\": {}, \"wall_secs\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {:.0}, \"allocations\": {}, \
             \"allocations_per_event\": {:.3}, \"heap_peak\": {}, \"compactions\": {}, \
             \"probes\": {}, \"probe_events\": {}, \"replay_hit_rate\": {:.3}, \
             \"memo_hit_rate\": {:.3}, \"events_per_probe\": {:.0}}}",
            if i == 0 { "" } else { ",\n" },
            json_str(e.name()),
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
    // The recovery bench: crash-point snapshots of the paper's FW and EL
    // recovery subjects, scanned + redone under the same wall/allocation
    // instrumentation as the forward path. Aggregates precede the
    // per-point rows so benchgate's first-occurrence scan (scoped to
    // after the "recovery" key) reads the aggregate, not a row.
    let points = bench_recovery(opts.quick);
    let mut agg = RecoveryStats::default();
    let mut per_point = String::new();
    for (i, p) in points.iter().enumerate() {
        agg.merge(&p.stats);
        eprintln!("[bench] recovery {}: {}", p.label, p.stats);
        let _ = write!(
            per_point,
            "{}      {{\"name\": {}, \"at_secs\": {:.3}, \"iters\": {}, \"blocks\": {}, \
             \"decoded_blocks\": {}, \"corrupt_blocks\": {}, \"records\": {}, \
             \"scan_blocks_per_sec\": {:.0}, \"scan_records_per_sec\": {:.0}, \
             \"redo_records_per_sec\": {:.0}, \"allocations_per_record\": {:.3}, \
             \"verified\": {}, \"modelled_secs\": {:.3}}}",
            if i == 0 { "" } else { ",\n" },
            json_str(&p.label),
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
    // Lattice-search aggregate: every min-space search (2-gen and N-gen
    // alike) routes through the lattice subsystem, so the totals' search
    // counters summarise it directly. Report-only — benchgate reads it
    // for context but does not rate-gate it.
    let lattice_json = format!(
        "  \"lattice\": {{\n    \"probes\": {},\n    \"memo_hits\": {},\n    \
         \"memo_hit_rate\": {:.3},\n    \"pruned_volume\": {}\n  }}",
        total.search.sim_probes + total.search.memo_hits,
        total.search.memo_hits,
        total.search.memo_hit_rate(),
        total.search.pruned_volume,
    );
    // Analytic pre-filter + prefix-resume aggregate. Report-only, like
    // the lattice section: the counters say how much probing the model
    // avoided, not how fast anything ran.
    let analytic_json = format!(
        "  \"analytic\": {{\n    \"rejections\": {},\n    \"cert_verdicts\": {},\n    \
         \"resume_probes\": {},\n    \
         \"resume_saved_events\": {},\n    \"resume_hit_rate\": {:.3}\n  }}",
        total.search.analytic_rejections,
        total.search.cert_verdicts,
        total.search.resume_probes,
        total.search.resume_saved_events,
        total.search.resume_hit_rate(),
    );
    let search_json = bench_search(opts.quick);
    let adaptive_json = bench_adaptive(opts.quick);
    let tenants_json = bench_tenants(opts.quick);
    let all_verified = points.iter().all(|p| p.verified);
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
        all_verified,
        per_point,
    );
    let wall_all = t_all.elapsed();

    let json = format!(
        "{{\n  \"date\": {},\n  \"quick\": {},\n  \"jobs\": {},\n  \
         \"total_wall_secs\": {:.3},\n  \"total_events\": {},\n  \
         \"events_per_sec\": {:.0},\n  \"allocations\": {},\n  \
         \"allocations_per_event\": {:.3},\n  \"probe_events\": {},\n  \
         \"replay_hit_rate\": {:.3},\n  \"memo_hit_rate\": {:.3},\n  \
         \"experiments\": [\n{}\n  ],\n{},\n{},\n{},\n{},\n{},\n{}\n}}",
        json_str(&date),
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
        lattice_json,
        analytic_json,
        search_json,
        adaptive_json,
        tenants_json,
        recovery_json,
    );

    let path = opts
        .out
        .unwrap_or_else(|| std::path::PathBuf::from(format!("BENCH_{date}.json")));
    std::fs::write(&path, format!("{json}\n")).expect("write bench report");
    eprintln!("wrote {}", path.display());
    println!("{json}");

    if let Some(baseline_path) = opts.baseline {
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {}: {e}", baseline_path.display());
            std::process::exit(2);
        });
        let baseline = BenchSummary::parse(&text).unwrap_or_else(|| {
            eprintln!("baseline {} is not a bench report", baseline_path.display());
            std::process::exit(2);
        });
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
