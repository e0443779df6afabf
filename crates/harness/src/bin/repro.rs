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
//! Every experiment is a [`elog_harness::sweep::Experiment`]; this binary
//! just flattens the registry's scenarios through one executor pool and
//! prints each experiment's tables in registry order.

use elog_harness::cli;
use elog_harness::experiments::registry_with;
use elog_harness::latsearch::MAX_AXES;
use elog_harness::report::Table;
use elog_harness::sweep::{run_experiments, ExecOptions};
use elog_sim::perfstats::{allocations, CountingAlloc};
use elog_sim::PerfStats;

#[global_allocator]
static ALLOC: CountingAlloc<std::alloc::System> = CountingAlloc(std::alloc::System);

const USAGE: &str = "usage: repro [--quick] [--jobs N] [--gens N] [--only NAME] \
    [--csv DIR] [--progress] [--no-cert]";

struct Options {
    quick: bool,
    gens: usize,
    only: Option<String>,
    csv_dir: Option<std::path::PathBuf>,
    exec: ExecOptions,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        gens: 3,
        only: None,
        csv_dir: None,
        exec: ExecOptions::default(),
    };
    let args: cli::Args = &mut args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--progress" => opts.exec.progress = true,
            "--no-cert" => opts.exec.certificates = false,
            "--jobs" => opts.exec.jobs = cli::positive("--jobs", args)?,
            "--gens" => {
                opts.gens = cli::positive("--gens", args)?;
                if opts.gens > MAX_AXES {
                    return Err(format!(
                        "--gens {}: the lattice search supports at most {MAX_AXES} generations",
                        opts.gens
                    ));
                }
            }
            "--only" => opts.only = Some(cli::value::<String>("--only", args)?.to_lowercase()),
            "--csv" => {
                let dir = std::path::PathBuf::from(cli::value::<String>("--csv", args)?);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("--csv {}: cannot create: {e}", dir.display()))?;
                opts.csv_dir = Some(dir);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if let Some(only) = &opts.only {
        let names: Vec<String> = registry_with(opts.gens)
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        if !names.iter().any(|n| n.to_lowercase().contains(only)) {
            return Err(format!(
                "--only {only:?} matches no experiment; the registry holds {}",
                names.join(", ")
            ));
        }
    }
    Ok(opts)
}

fn emit(opts: &Options, slug: &str, table: &Table) {
    cli::print(&format!("{}\n", table.render()));
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(format!("{slug}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("--csv {}: cannot write: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let opts = cli::parse_env(USAGE, parse_args);
    let t0 = std::time::Instant::now();
    cli::print(&format!(
        "# Ephemeral Logging (SIGMOD '93) — full reproduction{}\n\n",
        if opts.quick { " [quick mode]" } else { "" }
    ));

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
        for (slug, table) in &report.tables {
            emit(&opts, slug, table);
        }
        if !report.notes.is_empty() {
            cli::print(&format!("{}\n\n", report.notes.join("\n")));
        }
    }

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
