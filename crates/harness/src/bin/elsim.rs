//! `elsim` — run one ephemeral-logging simulation from the command line.
//!
//! `elsim --help` prints the flag table
//! ([`elog_harness::cli::ELSIM_USAGE`]). Without `--min-space` it runs the
//! configuration and prints the run report; with it, it searches the
//! minimum geometry instead (1 generation: firewall binary search; 2:
//! gen0 scan × gen1 bisection; 3+: lattice search with the given sizes as
//! per-axis ceilings). More than one `--tenants`, or a `--budget`, serves
//! the tenants from the one shared log and prints the per-tenant report,
//! with a `[serve]` summary on stderr.

use elog_core::MemoryModel;
use elog_harness::latsearch::{LatticeLimits, SearchRequest};
use elog_harness::runner::run;
use elog_harness::serve::{serve_run, ServeConfig};
use elog_harness::{cli, report};

fn main() {
    let a = cli::parse_env(cli::ELSIM_USAGE, cli::elsim);
    let cfg = &a.run;
    let gens = &cfg.el.log.generation_blocks;

    if a.min_space {
        let firewall = cfg.el.memory_model == MemoryModel::Firewall || gens.len() == 1;
        let req = if firewall {
            SearchRequest::firewall(cfg, 4096)
        } else {
            // Two generations scan gen0 up to 48; for N ≥ 3 the given
            // sizes act as the per-axis scan ceilings.
            let prefix_max = match gens.len() {
                2 => vec![48],
                n => gens[..n - 1].to_vec(),
            };
            SearchRequest::lattice(
                cfg,
                LatticeLimits {
                    prefix_max,
                    last_limit: 1024,
                },
            )
        };
        let out = req.jobs(a.jobs).certificates(a.certificates).run();
        let r = out.min;
        if !out.feasible {
            eprintln!(
                "--min-space: no geometry within the ceilings {:?} runs without kills ({} probes)",
                r.generation_blocks, r.probes
            );
            std::process::exit(1);
        }
        cli::print(&if firewall {
            format!(
                "minimum FW log: {} blocks ({} probes)\n",
                r.total_blocks, r.probes
            )
        } else if gens.len() == 2 {
            format!(
                "minimum EL log: {:?} = {} blocks ({} probes)\n",
                r.generation_blocks, r.total_blocks, r.probes
            )
        } else {
            format!(
                "minimum EL log ({} gens): {:?} = {} blocks ({} probes, {} pruned)\n",
                gens.len(),
                r.generation_blocks,
                r.total_blocks,
                r.probes,
                r.search.pruned_volume
            )
        });
        return;
    }

    // The parser keeps a partition only for more than one tenant, so this
    // is "T > 1 or a budget": the one unbudgeted tenant is the plain run.
    if cfg.tenants.is_some() || a.budget > 0 {
        let cfg = ServeConfig {
            base: a.run,
            budget: a.budget,
        };
        let r = serve_run(&cfg);
        cli::print(&report::render_serve_report(&cfg, &r));
        // stderr so stdout stays comparable across tenant counts (cf. the
        // `[adaptive]` summary).
        eprintln!(
            "[serve] tenants {}, committed {}, killed {}, refused {}, p99 {} ms",
            cfg.tenants(),
            r.aggregate.committed,
            r.aggregate.killed,
            r.aggregate.throttled,
            report::fo(r.aggregate.p99_ms, 1)
        );
        return;
    }

    let r = run(cfg);
    let m = &r.metrics;
    cli::print(&report::render_run_report(
        m,
        cfg.el.log.recirculation,
        r.started,
        r.committed,
        r.killed,
        r.p50_commit_latency_ms,
    ));
    if let Some(ad) = &r.adaptive {
        // stderr so a static adaptive run's stdout stays byte-identical
        // to the non-adaptive run.
        eprintln!(
            "[adaptive] windows {}, reshapes {} (grows {}, shrinks {}), hint toggles {}, firewall fallbacks {}, final geometry {:?}",
            ad.window_decisions,
            ad.reshapes,
            ad.grows,
            ad.shrinks,
            ad.hint_toggles,
            ad.firewall_fallbacks,
            m.per_gen_blocks
        );
    }
}
