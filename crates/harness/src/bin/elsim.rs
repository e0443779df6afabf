//! `elsim` — run one ephemeral-logging simulation from the command line.
//!
//! ```text
//! elsim [options]
//!   --mode el|fw            technique (default el)
//!   --gens G0,G1[,G2...]    generation sizes in blocks (default 18,16)
//!   --fw-blocks N           FW log size (default 123; implies --mode fw)
//!   --recirc                enable recirculation in the last generation
//!   --frac-long P           fraction of 10 s transactions (default 0.05)
//!   --tps R                 arrivals per second (default 100)
//!   --poisson               Poisson instead of deterministic arrivals
//!   --runtime S             simulated seconds (default 500)
//!   --drives N              flush drives (default 10)
//!   --flush-ms T            flush transfer time, ms (default 25)
//!   --seed N                random seed (default 0x5EED1993)
//!   --min-space             search the minimum geometry instead of running
//!                           (1 gen: firewall binary search; 2: gen0 scan ×
//!                           gen1 bisection; 3+: lattice search with the
//!                           given sizes as per-axis ceilings)
//!   --jobs N                worker threads for --min-space probes
//!                           (default: the machine's parallelism)
//!   --probe-jobs N          speculative probes launched ahead of each
//!                           --min-space bisection step (default 1 =
//!                           serial; the output must not change)
//!   --probe-cache DIR       persist probe verdicts under DIR; a warm
//!                           rerun answers every probe from the cache
//!                           (the output must not change; a stderr line
//!                           reports seeded/hit/miss counts)
//!   --no-analytic           disable the analytic pre-filter and prefix
//!                           resume: simulate every probe in full (the
//!                           output must not change)
//!   --shards N              drive shards inside each simulated run
//!                           (default 1, at most --drives; the output must
//!                           not change)
//!   --phases SPEC           piecewise workload schedule
//!                           `start:frac_long[@rate_factor],...` over the
//!                           paper type table, e.g. `0:0.1,160:0.4,330:0.1`
//!                           (first start must be 0; seconds, ascending)
//!   --adaptive              run the online adaptive generation controller
//!                           (stderr summary; stdout is byte-identical to
//!                           a non-adaptive run when the workload is
//!                           static, because the controller never acts)
//! ```

use elog_core::MemoryModel;
use elog_harness::latsearch::{lattice_min_space, LatticeLimits};
use elog_harness::minspace::{el_min_space_jobs, fw_min_space};
use elog_harness::runner::run;

fn main() {
    let a = elog_harness::cli::elsim(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    if !a.analytic {
        elog_harness::analytic::set_enabled(false);
    }
    if let Some(n) = a.probe_jobs {
        elog_harness::sweep::set_probe_jobs(n);
    }
    if let Some(dir) = &a.probe_cache {
        elog_harness::probecache::set_dir(Some(dir.into()));
    }
    let cfg = &a.run;
    let gens = &cfg.el.log.generation_blocks;

    if a.min_space {
        let r = if cfg.el.memory_model == MemoryModel::Firewall || gens.len() == 1 {
            let r = fw_min_space(cfg, 4096);
            println!(
                "minimum FW log: {} blocks ({} probes)",
                r.total_blocks, r.probes
            );
            r
        } else if gens.len() == 2 {
            let r = el_min_space_jobs(cfg, 48, 1024, a.jobs);
            println!(
                "minimum EL log: {:?} = {} blocks ({} probes)",
                r.generation_blocks, r.total_blocks, r.probes
            );
            r
        } else {
            // N ≥ 3: the given sizes act as per-axis scan ceilings.
            let limits = LatticeLimits {
                prefix_max: gens[..gens.len() - 1].to_vec(),
                last_limit: 1024,
            };
            let r = lattice_min_space(cfg, &limits, a.jobs);
            println!(
                "minimum EL log ({} gens): {:?} = {} blocks ({} probes, {} memoized, {} pruned)",
                gens.len(),
                r.generation_blocks,
                r.total_blocks,
                r.probes,
                r.search.memo_hits,
                r.search.pruned_volume
            );
            r
        };
        if a.probe_cache.is_some() {
            // stderr so stdout stays byte-identical to uncached runs.
            eprintln!(
                "[probe-cache] seeded {}, hits {}, misses {} (live probes: {})",
                r.search.cache_seeded,
                r.search.cache_hits,
                r.search.cache_misses,
                r.search.cache_misses
            );
        }
        return;
    }

    let r = run(cfg);
    let m = &r.metrics;
    print!(
        "{}",
        elog_harness::report::render_run_report(
            m,
            cfg.el.log.recirculation,
            r.started,
            r.committed,
            r.killed,
            r.mean_commit_latency_ms,
        )
    );
    if let Some(ad) = &r.adaptive {
        // stderr so a static adaptive run's stdout stays byte-identical
        // to the non-adaptive run (cf. the probe-cache report).
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
