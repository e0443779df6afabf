//! `elsim` — run one ephemeral-logging simulation from the command line.
//!
//! `elsim --help` prints the flag table
//! ([`elog_harness::cli::ELSIM_USAGE`]). Without `--min-space` it runs the
//! configuration and prints the run report; with it, it searches the
//! minimum geometry instead (1 generation: firewall binary search; 2:
//! gen0 scan × gen1 bisection; 3+: lattice search with the given sizes as
//! per-axis ceilings).

use elog_core::MemoryModel;
use elog_harness::cli;
use elog_harness::latsearch::{LatticeLimits, SearchRequest};
use elog_harness::runner::run;

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

    let r = run(cfg);
    let m = &r.metrics;
    cli::print(&elog_harness::report::render_run_report(
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
