//! Multi-tenant service mode (`elsim --tenants T`): T logical tenants
//! admitted into one shared ephemeral log.
//!
//! Each tenant owns a contiguous slice of the shared oid space (a
//! [`TenantLayout`]), its own tid namespace (tenant index in the tid's high
//! bits), and its own workload stream (seeded by [`tenant_seed`]). This
//! module holds the tenancy rules — namespacing, seeds, layout
//! validation — and [`serve_run`]'s per-tenant outcome, which
//! `crate::report::render_serve_report` prints; the event loop is
//! [`crate::runner::SimModel`], the same one a plain run uses, built over
//! `base.tenants`. It merges the tenants' arrival streams
//! deterministically — events fire in global `(time, tenant, sequence)`
//! order because tenants bootstrap in index order and the event queue
//! breaks time ties by schedule sequence.
//!
//! Two properties anchor the design:
//!
//! * **Degeneracy** — a 1-tenant serve run *is* the classic run: the same
//!   model, built by the same function, with tenant 0's identity mappings
//!   (raw seed, oid base 0, tid high bits 0).
//! * **Isolation** — tenant workloads draw from independent seed streams
//!   ([`tenant_seed`], splitmix64-derived) over disjoint oid ranges, so
//!   each tenant's committed record set is identical whether it runs alone
//!   or alongside T−1 others (given kill-free capacity); the property test
//!   in `tests/integration_serve.rs` pins this.
//!
//! Fairness: the admission `budget` caps each tenant's live-record
//! footprint in the shared arena. A tenant overrunning it has arrivals
//! refused (counted per tenant as `throttled`) until flushes drain its
//! footprint; refused transactions never reach the manager, so an
//! overrunning tenant cannot evict or kill its neighbours.

use crate::runner::{build_model_with, snapshot, RunConfig, TenantLayout};
use crate::sweep::derive_seed;
use elog_core::{ElManager, LmMetrics};
use elog_sim::{PerfStats, SimTime};
use std::time::Instant;

/// Tenant index lives in bits 48.. of a tid; the low 48 bits are the
/// tenant-local tid. 2^48 transactions per tenant is unreachable (a 500 s
/// paper run starts 5 × 10^4), and tenant 0's mapping is the identity.
pub const TENANT_TID_SHIFT: u32 = 48;

/// Seed-stream offset for tenants 1.. (tenant 0 keeps the raw base seed so
/// the 1-tenant run degenerates to the classic run byte-for-byte). Far
/// outside the sweep's scenario seed-index range so tenant streams never
/// collide with scenario streams derived from the same base.
const SERVE_TENANT_STREAM: u64 = 0x7E4A_4E57;

/// Most tenants one instance serves: the tenant index is a `u16` in the
/// 16 tid bits above [`TENANT_TID_SHIFT`].
pub const MAX_TENANTS: usize = 1 << 16;

/// The workload seed of tenant `tenant` under base seed `base`. Tenant 0
/// keeps the raw base seed (degeneracy: 1 tenant ⇒ the classic run);
/// tenants 1.. draw splitmix64-independent streams, so a tenant's workload
/// is a pure function of `(base seed, tenant index)`.
pub fn tenant_seed(base: u64, tenant: usize) -> u64 {
    if tenant == 0 {
        base
    } else {
        derive_seed(base, SERVE_TENANT_STREAM + tenant as u64)
    }
}

/// Builds the shared-space tid for a tenant-local tid.
pub(crate) fn global_tid(tenant: u16, local: elog_model::Tid) -> elog_model::Tid {
    debug_assert!(local.0 >> TENANT_TID_SHIFT == 0, "local tid overflow");
    elog_model::Tid(((tenant as u64) << TENANT_TID_SHIFT) | local.0)
}

/// Splits a shared-space tid back into `(tenant, local tid)`.
pub(crate) fn split_tid(gtid: elog_model::Tid) -> (u16, elog_model::Tid) {
    (
        (gtid.0 >> TENANT_TID_SHIFT) as u16,
        elog_model::Tid(gtid.0 & ((1u64 << TENANT_TID_SHIFT) - 1)),
    )
}

/// Rejects tenant counts one instance cannot serve: none, more than there
/// are objects to partition, or more than the tid namespace holds
/// ([`MAX_TENANTS`]).
pub fn validate_tenants(tenants: usize, num_objects: u64) -> Result<(), String> {
    if tenants == 0 {
        Err("at least one tenant is required".into())
    } else if tenants as u64 > num_objects {
        Err(format!(
            "more tenants than the database's {num_objects} objects; each tenant owns at least one"
        ))
    } else if tenants > MAX_TENANTS {
        Err(format!(
            "more tenants than the limit of {MAX_TENANTS}; the tenant index is 16 tid bits"
        ))
    } else {
        Ok(())
    }
}

/// Parses an explicit `--oid-ranges BASE:LEN,BASE:LEN,...` tenant layout.
/// Validity against the oid space is checked separately by
/// [`validate_layout`].
pub fn parse_oid_ranges(spec: &str) -> Result<TenantLayout, String> {
    let mut ranges = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let (base, len) = part
            .split_once(':')
            .ok_or_else(|| format!("oid range `{part}` is not BASE:LEN"))?;
        let base: u64 = base
            .trim()
            .parse()
            .map_err(|_| format!("oid range `{part}`: bad base"))?;
        let len: u64 = len
            .trim()
            .parse()
            .map_err(|_| format!("oid range `{part}`: bad length"))?;
        ranges.push((base, len));
    }
    if ranges.is_empty() {
        return Err("--oid-ranges needs at least one BASE:LEN range".into());
    }
    Ok(TenantLayout { ranges })
}

/// Checks that a layout exactly tiles `[0, num_objects)`: every range
/// non-empty, no overlaps, no gaps, full coverage. Partial coverage is
/// rejected deliberately — an uncovered stripe would silently shift the
/// flush array's per-drive load away from what the drive count promises.
pub fn validate_layout(layout: &TenantLayout, num_objects: u64) -> Result<(), String> {
    validate_tenants(layout.tenants(), num_objects)?;
    let mut sorted = layout.ranges.clone();
    sorted.sort_unstable();
    let mut expect = 0u64;
    for &(base, len) in &sorted {
        if len == 0 {
            return Err(format!("tenant oid range {base}:{len} is empty"));
        }
        match base.cmp(&expect) {
            std::cmp::Ordering::Less => {
                return Err(format!(
                    "tenant oid ranges overlap at oid {base} (previous range runs to {expect})"
                ));
            }
            std::cmp::Ordering::Greater => {
                return Err(format!(
                    "tenant oid ranges leave a gap: [{expect}, {base}) is owned by no tenant"
                ));
            }
            std::cmp::Ordering::Equal => {}
        }
        expect = base
            .checked_add(len)
            .ok_or_else(|| format!("tenant oid range {base}:{len} overflows"))?;
    }
    if expect != num_objects {
        return Err(format!(
            "tenant oid ranges cover [0, {expect}) but the database has {num_objects} objects; \
             ranges must tile the whole oid space"
        ));
    }
    Ok(())
}

/// Everything one serve run needs: a base [`RunConfig`] (workload mix,
/// arrivals, geometry, seed) plus the tenancy knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The shared-instance configuration; `base.tenants` is the per-tenant
    /// oid partition of the shared database (`None` = one tenant owning
    /// the whole oid space).
    pub base: RunConfig,
    /// Live-record admission budget per tenant (0 = unlimited).
    pub budget: u64,
}

impl ServeConfig {
    /// A serve config with `tenants` tenants over an even oid partition.
    pub fn new(base: RunConfig, tenants: usize) -> Self {
        let layout = TenantLayout::even(base.el.db.num_objects, tenants);
        ServeConfig {
            base: base.with_tenants(Some(layout)),
            budget: 0,
        }
    }

    /// Replaces the oid partition.
    pub fn with_layout(mut self, layout: TenantLayout) -> Self {
        self.base.tenants = Some(layout);
        self
    }

    /// Sets the per-tenant live-record admission budget (0 = unlimited).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Number of tenants served.
    pub fn tenants(&self) -> usize {
        self.base.tenants.as_ref().map_or(1, TenantLayout::tenants)
    }

    /// The workload seed of one tenant ([`tenant_seed`] of `base.seed`) —
    /// the isolation tests replay a tenant solo by handing its stream seed
    /// to a 1-tenant config.
    pub fn tenant_seed(&self, tenant: usize) -> u64 {
        tenant_seed(self.base.seed, tenant)
    }
}

/// One tenant's slice of a serve run, pairing workload-side counters
/// (started/committed, latency quantiles) with the manager-side ledger
/// (kills, records, garbage, peaks).
#[derive(Clone, Debug, Default)]
pub struct TenantReport {
    /// Transactions the tenant's driver started (includes refused ones).
    pub started: u64,
    /// Transactions acknowledged as committed.
    pub committed: u64,
    /// Transactions killed by the log manager (ledger-side).
    pub killed: u64,
    /// Arrivals refused by the admission budget.
    pub throttled: u64,
    /// Data records the manager logged for the tenant.
    pub data_records: u64,
    /// Records that became garbage in place.
    pub garbage_records: u64,
    /// Peak LTT entries.
    pub ltt_peak: u64,
    /// p50 whole-transaction commit latency (arrival → durable), ms.
    pub p50_ms: Option<f64>,
    /// p99 whole-transaction commit latency (arrival → durable), ms.
    pub p99_ms: Option<f64>,
}

/// Result of one serve run.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Shared log-manager metrics at the measurement horizon.
    pub metrics: LmMetrics,
    /// Per-tenant reports, indexed by tenant.
    pub per_tenant: Vec<TenantReport>,
    /// Tenant sums: counter fields are exact sums; the peak field sums
    /// per-tenant peaks (an upper bound on the simultaneous peak); the
    /// latency quantiles come from the merged cross-tenant histogram.
    pub aggregate: TenantReport,
    /// p50 commit-*ack* latency (t4 − t3) across tenants, ms — the same
    /// statistic the single-run report prints, kept for the 1-tenant pin.
    pub p50_commit_latency_ms: Option<f64>,
    /// Virtual time at which the run ended.
    pub ended_at: SimTime,
    /// The arrival horizon all rates were computed over.
    pub horizon: SimTime,
    /// Host-side performance (events, wall clock, queue counters).
    pub perf: PerfStats,
}

/// Runs a serve configuration to its horizon and snapshots the results.
pub fn serve_run(cfg: &ServeConfig) -> ServeOutcome {
    if let Some(layout) = &cfg.base.tenants {
        validate_layout(layout, cfg.base.el.db.num_objects)
            .expect("serve layout must tile the oid space");
    }
    assert!(
        !cfg.base.stop_on_kill
            && !cfg.base.track_oracle
            && !cfg.base.lifetime_hints
            && !cfg.base.adaptive,
        "serve supports plain measured runs only"
    );
    let tenants = cfg.tenants();
    let mut lm = ElManager::new(cfg.base.el.clone()).expect("validated configuration");
    lm.enable_tenant_ledger(tenants, TENANT_TID_SHIFT);
    let mut engine = build_model_with(&cfg.base, lm);
    engine.model_mut().budget = cfg.budget;
    let wall_start = Instant::now();
    let horizon = cfg.base.runtime;
    let ended_at = engine.run_until(horizon);
    let run = snapshot(&engine, &cfg.base, ended_at, wall_start);

    let model = engine.model();
    let ledger = model.lm.tenant_ledger().expect("armed above");
    let mut aggregate = TenantReport::default();
    let mut full = model.driver[0].stats().full_latency_ms.clone();
    let per_tenant: Vec<TenantReport> = (0..tenants)
        .map(|t| {
            let s = model.driver[t].stats();
            let c = ledger.get(t);
            aggregate.started += s.started;
            aggregate.committed += s.committed;
            aggregate.killed += c.kills;
            aggregate.throttled += model.throttled[t];
            aggregate.data_records += c.data_records;
            aggregate.garbage_records += c.garbage_records;
            aggregate.ltt_peak += c.ltt_peak;
            if t > 0 {
                full.merge(&s.full_latency_ms);
            }
            TenantReport {
                started: s.started,
                committed: s.committed,
                killed: c.kills,
                throttled: model.throttled[t],
                data_records: c.data_records,
                garbage_records: c.garbage_records,
                ltt_peak: c.ltt_peak,
                p50_ms: s.full_latency_ms.quantile(0.5),
                p99_ms: s.full_latency_ms.quantile(0.99),
            }
        })
        .collect();
    aggregate.p50_ms = full.quantile(0.5);
    aggregate.p99_ms = full.quantile(0.99);
    ServeOutcome {
        metrics: run.metrics,
        per_tenant,
        aggregate,
        p50_commit_latency_ms: run.p50_commit_latency_ms,
        ended_at,
        horizon,
        perf: run.perf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_core::ElConfig;
    use elog_model::{FlushConfig, LogConfig};

    fn quick_base(secs: u64) -> RunConfig {
        let log = LogConfig {
            generation_blocks: vec![36, 32],
            ..LogConfig::default()
        };
        let mut cfg = RunConfig::paper(0.05, ElConfig::ephemeral(log, FlushConfig::default()));
        cfg.runtime = SimTime::from_secs(secs);
        cfg
    }

    #[test]
    fn oid_range_parsing_and_validation() {
        let l = parse_oid_ranges("0:4,4:6").unwrap();
        assert_eq!(l.ranges, vec![(0, 4), (4, 6)]);
        assert!(validate_layout(&l, 10).is_ok());
        // Gap, overlap, short coverage, empty range: all rejected.
        assert!(validate_layout(&parse_oid_ranges("0:4,5:5").unwrap(), 10)
            .unwrap_err()
            .contains("gap"));
        assert!(validate_layout(&parse_oid_ranges("0:6,4:6").unwrap(), 10)
            .unwrap_err()
            .contains("overlap"));
        assert!(validate_layout(&parse_oid_ranges("0:4,4:4").unwrap(), 10)
            .unwrap_err()
            .contains("tile"));
        assert!(validate_layout(&parse_oid_ranges("0:0,0:10").unwrap(), 10)
            .unwrap_err()
            .contains("empty"));
        assert!(parse_oid_ranges("0-4").is_err());
        assert!(parse_oid_ranges("").is_err());
    }

    #[test]
    fn tenant_count_limits() {
        assert!(validate_tenants(1, 1).is_ok());
        assert!(validate_tenants(MAX_TENANTS, 10_000_000).is_ok());
        assert!(validate_tenants(0, 10)
            .unwrap_err()
            .contains("at least one"));
        // One past the u16 index space would alias tenant 65 536 onto 0.
        assert!(validate_tenants(MAX_TENANTS + 1, 10_000_000)
            .unwrap_err()
            .contains("65536"));
        assert!(validate_tenants(11, 10).unwrap_err().contains("10 objects"));
        // Explicit layouts are held to the same limits.
        let wide = TenantLayout {
            ranges: (0..=MAX_TENANTS as u64).map(|b| (b, 1)).collect(),
        };
        assert!(validate_layout(&wide, MAX_TENANTS as u64 + 1)
            .unwrap_err()
            .contains("65536"));
        assert!(validate_layout(&TenantLayout { ranges: vec![] }, 10).is_err());
    }

    #[test]
    fn tid_namespacing_round_trips_and_tenant_zero_is_identity() {
        use elog_model::Tid;
        assert_eq!(global_tid(0, Tid(42)), Tid(42));
        let g = global_tid(3, Tid(7));
        assert_eq!(split_tid(g), (3, Tid(7)));
        assert_eq!(split_tid(Tid(42)), (0, Tid(42)));
    }

    #[test]
    fn tenant_seeds_are_distinct_and_zero_keeps_the_base() {
        let cfg = ServeConfig::new(quick_base(5), 4);
        assert_eq!(cfg.tenant_seed(0), cfg.base.seed);
        let seeds: Vec<u64> = (0..4).map(|t| cfg.tenant_seed(t)).collect();
        for i in 0..4 {
            for j in 0..i {
                assert_ne!(seeds[i], seeds[j], "tenants {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn two_tenants_commit_and_aggregate_sums() {
        let cfg = ServeConfig::new(quick_base(8), 2);
        let r = serve_run(&cfg);
        assert_eq!(r.per_tenant.len(), 2);
        for (t, rep) in r.per_tenant.iter().enumerate() {
            assert!(rep.committed > 0, "tenant {t} committed nothing");
            assert_eq!(rep.throttled, 0);
        }
        assert_eq!(
            r.aggregate.committed,
            r.per_tenant.iter().map(|p| p.committed).sum::<u64>()
        );
        assert_eq!(
            r.aggregate.started,
            r.per_tenant.iter().map(|p| p.started).sum::<u64>()
        );
        assert!(r.aggregate.p99_ms.is_some());
        assert_eq!(r.metrics.stats.unsafe_drops, 0);
        assert_eq!(r.metrics.stats.durability_violations, 0);
    }

    #[test]
    fn serve_is_deterministic_across_runs() {
        let a = serve_run(&ServeConfig::new(quick_base(6), 2));
        let b = serve_run(&ServeConfig::new(quick_base(6), 2));
        assert_eq!(a.aggregate.committed, b.aggregate.committed);
        assert_eq!(a.metrics.log_writes, b.metrics.log_writes);
        assert_eq!(a.metrics.peak_memory_bytes, b.metrics.peak_memory_bytes);
        for (x, y) in a.per_tenant.iter().zip(&b.per_tenant) {
            assert_eq!(x.committed, y.committed);
            assert_eq!(x.data_records, y.data_records);
        }
    }

    #[test]
    fn tight_budget_throttles_without_killing_the_neighbour() {
        // Budget of 2 live records refuses most arrivals (a short txn holds
        // ~4); the other tenant must keep committing undisturbed.
        let free = serve_run(&ServeConfig::new(quick_base(6), 2));
        let throttled = serve_run(&ServeConfig::new(quick_base(6), 2).with_budget(2));
        assert!(
            throttled.per_tenant[0].throttled > 0,
            "budget 2 must refuse arrivals"
        );
        assert!(
            throttled.per_tenant[0].committed < free.per_tenant[0].committed,
            "refusals must reduce tenant 0's commits"
        );
        assert_eq!(throttled.aggregate.killed, 0, "refusal is not a kill");
        assert!(
            throttled.per_tenant[1].committed > 0,
            "the neighbour must keep committing"
        );
    }

    #[test]
    fn every_tenant_reaches_the_manager() {
        let cfg = ServeConfig::new(quick_base(6), 3);
        let r = serve_run(&cfg);
        // A tenant with zero manager-side records means the tid/oid
        // namespacing collapsed its stream into a neighbour's.
        for (t, rep) in r.per_tenant.iter().enumerate() {
            assert!(rep.data_records > 0, "tenant {t} logged nothing");
            assert!(rep.committed > 0, "tenant {t} committed nothing");
        }
    }
}
