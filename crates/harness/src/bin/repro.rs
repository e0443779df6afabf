//! Reproduces every figure and numbered result of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--jobs N] [--gens N] [--only NAME] [--csv DIR] [--progress]
//!       [--no-cert]
//! ```
//!
//! `--quick` shrinks runtimes and sweeps for a fast smoke pass; the default
//! runs the full 500-second, all-mix configuration (several minutes).
//! `--jobs N` sets the sweep executor's worker count (default: the
//! machine's parallelism); stdout is byte-identical for every value.
//! `--gens N` sets the generation count of the fig_ngen lattice
//! comparison (default 3; 1 ≤ N ≤ 8 — `1` degenerates to the firewall
//! search, `2` to the two-generation search). `--only NAME` keeps only
//! experiments whose name contains NAME (case-insensitive), e.g.
//! `--only recovery`. `--csv DIR` additionally writes each table as a CSV
//! file. `--progress` reports per-scenario completion on stderr.
//! `--no-cert` disables the consumption certificates
//! ([`elog_core::cert`]) so every probe is simulated; stdout is
//! byte-identical either way — the flag exists to prove exactly that.
//!
//! [`elog_harness::cli::repro`] parses the flags. Every experiment is a
//! [`elog_harness::sweep::Experiment`]; this binary just flattens the
//! registry's scenarios through one executor pool and prints
//! [`elog_harness::report::render_repro`] of the reports.

use elog_harness::cli;
use elog_harness::experiments::registry_with;
use elog_harness::report::render_repro;
use elog_harness::sweep::run_experiments;
use elog_sim::perfstats::{allocations, CountingAlloc};
use elog_sim::PerfStats;

#[global_allocator]
static ALLOC: CountingAlloc<std::alloc::System> = CountingAlloc(std::alloc::System);

fn main() {
    let opts = cli::parse_env(cli::REPRO_USAGE, cli::repro);
    let t0 = std::time::Instant::now();
    let mut experiments = registry_with(opts.gens);
    if let Some(only) = &opts.only {
        experiments.retain(|e| e.name().to_lowercase().contains(only));
    }
    eprintln!(
        "[{:?}] running {} experiments on {} worker(s)...",
        t0.elapsed(),
        experiments.len(),
        opts.exec.jobs
    );
    let reports = run_experiments(&experiments, opts.quick, &opts.exec);

    let mut total = PerfStats::default();
    for report in &reports {
        total.merge(&report.perf);
        let Some(dir) = &opts.csv_dir else { continue };
        for (slug, table) in &report.tables {
            let path = dir.join(format!("{slug}.csv"));
            if let Err(e) = std::fs::write(&path, table.to_csv()) {
                eprintln!("--csv {}: cannot write: {e}", path.display());
                std::process::exit(2);
            }
            eprintln!("wrote {}", path.display());
        }
    }
    cli::print(&render_repro(&reports, opts.quick));

    // The basket's host-side totals (EXPERIMENTS.md's quick-basket rows).
    // A verdict is answered by a certificate (counted in `sim_probes`) or
    // simulated live.
    let s = &total.search;
    eprintln!(
        "done in {:?}: {} events, {} probe events, {} verdicts ({} certificate / {} live), \
         {} allocations",
        t0.elapsed(),
        total.events,
        s.probe_events,
        s.sim_probes,
        s.cert_verdicts,
        s.sim_probes - s.cert_verdicts,
        allocations(),
    );
}
