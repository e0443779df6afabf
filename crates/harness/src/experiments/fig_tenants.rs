//! `fig_tenants` — multi-tenant serve scaling: throughput and commit-tail
//! latency as tenants share one ephemeral log.
//!
//! The paper evaluates one workload per log instance. This experiment asks
//! the service-mode question instead: T logical tenants, each streaming the
//! same per-tenant arrival rate from its own seed stream over its own oid
//! slice, are admitted into *one* shared EL instance (`crate::serve`). As T
//! doubles, offered load doubles while the geometry and flush array stay
//! fixed — the scaling table shows how far the shared log carries added
//! tenants before the commit tail (p99 arrival→durable latency) degrades,
//! and the per-tenant table shows how evenly the shared instance treats
//! the tenants at the highest multiplexing level.
//!
//! All runs share one seed index, so tenant 0's workload is literally the
//! same stream at every T — differences in its report across rows are pure
//! contention effects.

use crate::report::{f, fo, Table};
use crate::runner::RunConfig;
use crate::serve::ServeConfig;
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};
use elog_workload::ArrivalProcess;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Tenant counts to scale through.
    pub tenant_counts: Vec<usize>,
    /// Arrivals per second *per tenant* (offered load = T × this).
    pub per_tenant_tps: f64,
    /// Long-transaction fraction of every tenant's mix.
    pub frac_long: f64,
    /// Simulated seconds per run.
    pub runtime_secs: u64,
    /// Shared log geometry, fixed across the sweep.
    pub geometry: Vec<u32>,
    /// Per-tenant live-record admission budget (0 = unlimited).
    pub budget: u64,
}

impl Config {
    /// Paper-scale sweep: 1→8 tenants at 25 TPS each over [36, 32] blocks
    /// (double the paper geometry, sized for the 8-tenant offered load of
    /// 200 TPS).
    pub fn paper() -> Self {
        Config {
            tenant_counts: vec![1, 2, 4, 8],
            per_tenant_tps: 25.0,
            frac_long: 0.05,
            runtime_secs: 200,
            geometry: vec![36, 32],
            budget: 0,
        }
    }

    /// Reduced horizon for tests and `--quick`.
    pub fn quick() -> Self {
        Config {
            runtime_secs: 30,
            ..Config::paper()
        }
    }
}

fn serve_cfg(cfg: &Config, tenants: usize) -> ServeConfig {
    let mut base = RunConfig::paper(
        cfg.frac_long,
        ElConfig::ephemeral(LogConfig::default(), FlushConfig::default()),
    )
    .geometry(cfg.geometry.clone())
    .runtime_secs(cfg.runtime_secs)
    .adaptive(false);
    base.arrivals = ArrivalProcess::Deterministic {
        rate_tps: cfg.per_tenant_tps,
    };
    ServeConfig::new(base, tenants).with_budget(cfg.budget)
}

/// One serve scenario per tenant count, all on one seed index (tenant
/// streams are functions of the derived base seed and the tenant index, so
/// tenant 0 faces the identical workload in every row).
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    cfg.tenant_counts
        .iter()
        .map(|&t| {
            Scenario::new(
                format!(
                    "fig_tenants {t} tenants x {} TPS over {:?}",
                    cfg.per_tenant_tps, cfg.geometry
                ),
                t.to_string(),
                0,
                Job::Serve(serve_cfg(cfg, t)),
            )
        })
        .collect()
}

/// The tenants × throughput scaling table (one row per tenant count).
pub fn scaling_table(outcomes: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        "fig_tenants — throughput and commit tail vs tenant count (shared instance)",
        &[
            "tenants",
            "started",
            "committed",
            "committed/s",
            "killed",
            "refused",
            "p50 ms",
            "p99 ms",
        ],
    );
    for o in outcomes {
        let Some(r) = o.serve() else { continue };
        let secs = r.horizon.as_secs_f64();
        t.row(vec![
            o.variant.clone(),
            r.aggregate.started.to_string(),
            r.aggregate.committed.to_string(),
            f(r.aggregate.committed as f64 / secs, 1),
            r.aggregate.killed.to_string(),
            r.aggregate.throttled.to_string(),
            fo(r.aggregate.p50_ms, 1),
            fo(r.aggregate.p99_ms, 1),
        ]);
    }
    t
}

/// The per-tenant fairness table at the highest tenant count.
pub fn per_tenant_table(outcomes: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        "fig_tenants — per-tenant report at the highest tenant count",
        &[
            "tenant",
            "committed",
            "killed",
            "refused",
            "records",
            "garbage",
            "p50 ms",
            "p99 ms",
        ],
    );
    let Some(r) = outcomes.iter().rev().find_map(|o| o.serve()) else {
        return t;
    };
    for (i, rep) in r.per_tenant.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            rep.committed.to_string(),
            rep.killed.to_string(),
            rep.throttled.to_string(),
            rep.data_records.to_string(),
            rep.garbage_records.to_string(),
            fo(rep.p50_ms, 1),
            fo(rep.p99_ms, 1),
        ]);
    }
    t
}

/// The `fig_tenants` experiment.
pub struct FigTenants;

impl Experiment for FigTenants {
    fn name(&self) -> &'static str {
        "fig_tenants multi-tenant serve scaling (shared log, p99 commit tail)"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        vec![
            ("fig_tenants_scaling".to_string(), scaling_table(outcomes)),
            (
                "fig_tenants_per_tenant".to_string(),
                per_tenant_table(outcomes),
            ),
        ]
    }

    fn notes(&self, outcomes: &[RunOutcome]) -> Vec<String> {
        let mut notes = failure_notes(outcomes);
        let served: Vec<_> = outcomes.iter().filter_map(|o| o.serve()).collect();
        if let (Some(first), Some(last)) = (served.first(), served.last()) {
            let secs = last.horizon.as_secs_f64();
            notes.push(format!(
                "scaling {}x tenants multiplied committed throughput by {:.2} \
                 ({:.1}/s to {:.1}/s) and moved the aggregate p99 commit tail from {} ms to {} ms",
                last.per_tenant.len() / first.per_tenant.len().max(1),
                last.aggregate.committed as f64 / first.aggregate.committed.max(1) as f64,
                first.aggregate.committed as f64 / secs,
                last.aggregate.committed as f64 / secs,
                crate::report::fo(first.aggregate.p99_ms, 1),
                crate::report::fo(last.aggregate.p99_ms, 1),
            ));
        }
        if let Some(last) = served.last() {
            let committed: Vec<u64> = last.per_tenant.iter().map(|p| p.committed).collect();
            let (min, max) = (
                *committed.iter().min().expect("at least one tenant"),
                *committed.iter().max().expect("at least one tenant"),
            );
            notes.push(format!(
                "fairness at {} tenants: per-tenant commits span {min}..{max} \
                 ({:.1}% spread)",
                last.per_tenant.len(),
                (max.saturating_sub(min)) as f64 * 100.0 / max.max(1) as f64,
            ));
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_scenarios, ExecOptions};

    #[test]
    fn scaling_rows_commit_and_tail_is_reported() {
        let mut cfg = Config::quick();
        cfg.tenant_counts = vec![1, 2, 4];
        let outcomes = run_scenarios(
            &scenarios_for(&cfg),
            &ExecOptions {
                jobs: 4,
                progress: false,
                ..Default::default()
            },
        );
        assert_eq!(outcomes.len(), 3, "{:?}", failure_notes(&outcomes));
        let served: Vec<_> = outcomes.iter().filter_map(|o| o.serve()).collect();
        assert_eq!(served.len(), 3, "{:?}", failure_notes(&outcomes));
        for r in &served {
            assert!(r.aggregate.committed > 0);
            assert!(r.aggregate.p99_ms.is_some(), "p99 must be reported");
            assert_eq!(r.metrics.stats.unsafe_drops, 0);
            assert_eq!(r.metrics.stats.durability_violations, 0);
        }
        // Offered load doubles with tenants; committed work must follow
        // (the geometry is sized for the full sweep, so no kill collapse).
        assert!(
            served[2].aggregate.committed > 3 * served[0].aggregate.committed,
            "4 tenants committed {} vs 1 tenant {}",
            served[2].aggregate.committed,
            served[0].aggregate.committed,
        );
        // Tenant 0 faces the identical stream in every row (same seed
        // index, same derivation), so its started count is invariant.
        assert_eq!(
            served[0].per_tenant[0].started,
            served[2].per_tenant[0].started
        );
        assert_eq!(scaling_table(&outcomes).len(), 3);
        assert_eq!(per_tenant_table(&outcomes).len(), 4);
    }
}
