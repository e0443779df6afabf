//! `elsim` — run one ephemeral-logging simulation from the command line.
//!
//! `elsim --help` prints the flag table
//! ([`elog_harness::cli::ELSIM_USAGE`]). Without `--min-space` it runs the
//! configuration and prints the run report; with it, it searches the
//! minimum geometry instead, over every geometry with as many generations
//! as `--gens` gives (1 generation without `--recirc`: the firewall log,
//! so `--gens 123` runs and prices FW).

use elog_harness::latsearch::SearchRequest;
use elog_harness::runner::run;
use elog_harness::{cli, report};

fn main() {
    let a = cli::parse_env(cli::ELSIM_USAGE, cli::elsim);
    let cfg = &a.run;

    if a.min_space {
        let req = SearchRequest::min_space(cfg, cfg.el.log.generation_blocks.len());
        let out = req.certificates(a.certificates).run();
        if let Some(limit) = out.limit {
            eprintln!(
                "--min-space: no minimum: {limit} ({} probes)",
                out.min.probes
            );
            std::process::exit(1);
        }
        cli::print(&report::render_min_space(cfg, &out.min));
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
            "[adaptive] windows {}, reshapes {} (grows {}, shrinks {}), final geometry {:?}",
            ad.window_decisions, ad.reshapes, ad.grows, ad.shrinks, m.per_gen_blocks
        );
    }
}
