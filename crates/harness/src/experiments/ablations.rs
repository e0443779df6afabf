//! Ablations of EL's design choices.
//!
//! The paper fixes several mechanisms without measuring them in isolation;
//! these sweeps quantify each one at the 5 % mix:
//!
//! * **backward gathering** (§2.2) — off, every head advance with
//!   survivors emits a small immediate write; on, forwarding buffers are
//!   packed full first;
//! * **gap threshold k** — how much slack each generation keeps;
//! * **buffer pool size** — the 4-buffers-per-generation choice;
//! * **arrival process** — the paper's deterministic arrivals against the
//!   Poisson extension;
//! * **generation count** — 1 (one recirculating generation: not the FW
//!   log, so priced as EL), 2 (paper), and 3;
//! * **unflushed-at-head policy** (§2.2) — forward (paper) vs force-flush.

use crate::report::{f, Table};
use crate::runner::{RunConfig, RunResult};
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::config::UnflushedAtHead;
use elog_model::{FlushConfig, LogConfig};
use elog_workload::ArrivalProcess;

/// One ablation row.
#[derive(Clone, Debug)]
pub struct AblationPoint {
    /// Human-readable variant label.
    pub label: String,
    /// Measured run.
    pub measured: RunResult,
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Long-transaction fraction.
    pub frac_long: f64,
    /// Simulated seconds.
    pub runtime_secs: u64,
    /// Base geometry (paper minimum: 18+16).
    pub geometry: Vec<u32>,
}

impl Config {
    /// Paper-scale ablations at the published minimum geometry.
    pub fn paper() -> Self {
        Config {
            frac_long: 0.05,
            runtime_secs: 500,
            geometry: vec![18, 16],
        }
    }

    /// Quick ablations for tests.
    pub fn quick() -> Self {
        Config {
            frac_long: 0.05,
            runtime_secs: 40,
            geometry: vec![14, 12],
        }
    }
}

fn base(cfg: &Config) -> RunConfig {
    let log = LogConfig {
        generation_blocks: cfg.geometry.clone(),
        recirculation: true,
        ..LogConfig::default()
    };
    RunConfig::paper(
        cfg.frac_long,
        ElConfig::ephemeral(log, FlushConfig::default()),
    )
    .runtime_secs(cfg.runtime_secs)
}

/// One `Measure` scenario per design variant. Every variant shares seed
/// index 0: an ablation is a controlled comparison against the baseline
/// under one workload.
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    let b = base(cfg);
    let mut out = Vec::new();
    let mut push = |label: &str, rc: RunConfig| {
        out.push(Scenario::new(
            format!("ablation: {label}"),
            label,
            0,
            Job::Measure(rc),
        ));
    };

    push("baseline (paper defaults)", b.clone());

    let mut v = b.clone();
    v.el.log.gather_to_fill = false;
    push("gathering off", v);

    for k in [1u32, 3] {
        let mut v = b.clone();
        v.el.log.gap_blocks = k;
        push(&format!("gap k={k}"), v);
    }

    for buffers in [2u32, 8] {
        let mut v = b.clone();
        v.el.log.buffers_per_generation = buffers;
        push(&format!("{buffers} buffers/gen"), v);
    }

    push(
        "Poisson arrivals",
        b.clone()
            .with_arrivals(ArrivalProcess::Poisson { rate_tps: 100.0 }),
    );

    // The paper's "Markov arrivals" future-work pointer: bursts alternate
    // between half and 1.5x the nominal rate.
    push(
        "bursty (MMPP 50/150) arrivals",
        b.clone().with_arrivals(ArrivalProcess::MarkovBursty {
            base_tps: 50.0,
            burst_tps: 150.0,
            mean_dwell_s: 1.0,
            in_burst: false,
        }),
    );

    // Generation-count sweep at (approximately) constant total space.
    let total: u32 = cfg.geometry.iter().sum();
    push("1 generation (same total)", b.clone().geometry(vec![total]));
    let third = (total / 3).max(b.el.log.gap_blocks + 1);
    push(
        "3 generations (same total)",
        b.clone().geometry(vec![third, third, total - 2 * third]),
    );

    let mut v = b.clone();
    v.el.log.unflushed_at_head = UnflushedAtHead::ForceFlush;
    push("force-flush at head", v);

    // §6 lifetime hints: long transactions write straight into the last
    // generation, so their records never transit generation 0's head.
    push("lifetime hints", b.clone().lifetime_hints(true));

    out
}

/// The measured rows, skipping failures.
pub fn points(outcomes: &[RunOutcome]) -> Vec<AblationPoint> {
    outcomes
        .iter()
        .filter_map(|o| {
            Some(AblationPoint {
                label: o.variant.clone(),
                measured: o.measured()?.clone(),
            })
        })
        .collect()
}

/// Renders the comparison table.
pub fn table(points: &[AblationPoint]) -> Table {
    let mut t = Table::new(
        "Ablations — EL design choices at the 5% mix",
        &[
            "variant",
            "log w/s",
            "fwd recs",
            "recirc recs",
            "kills",
            "stalls",
            "peak mem B",
            "p50 commit ms",
        ],
    );
    for p in points {
        let m = &p.measured.metrics;
        t.row(vec![
            p.label.clone(),
            f(m.log_write_rate, 2),
            m.stats.forwarded_records.to_string(),
            m.stats.recirculated_records.to_string(),
            m.stats.kills.to_string(),
            m.stats.buffer_stalls.to_string(),
            m.peak_memory_bytes.to_string(),
            p.measured
                .p50_commit_latency_ms
                .map_or_else(|| "-".into(), |v| f(v, 1)),
        ]);
    }
    t
}

/// The design-choice ablation experiment.
pub struct Ablations;

impl Experiment for Ablations {
    fn name(&self) -> &'static str {
        "design-choice ablations"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        vec![("ablations".to_string(), table(&points(outcomes)))]
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
    fn ablations_run_and_differ() {
        let scenarios = scenarios_for(&Config::quick());
        let outcomes = run_scenarios(
            &scenarios,
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        let points = points(&outcomes);
        assert!(points.len() >= 9);
        let baseline = &points[0].measured;
        assert_eq!(baseline.killed, 0, "paper-ish geometry survives at 5%");

        let gather_off = points
            .iter()
            .find(|p| p.label == "gathering off")
            .expect("variant present");
        // Without gathering, forwarding writes are small and frequent: the
        // last generation sees more block writes per forwarded byte.
        let per_fwd = |r: &RunResult| {
            r.metrics.per_gen_writes[1] as f64 / r.metrics.stats.forwarded_records.max(1) as f64
        };
        assert!(
            per_fwd(&gather_off.measured) > per_fwd(baseline),
            "gathering must pack forwarding writes fuller: {} vs {}",
            per_fwd(&gather_off.measured),
            per_fwd(baseline)
        );

        let one_gen = points
            .iter()
            .find(|p| p.label.starts_with("1 generation"))
            .expect("variant present");
        // A single generation never forwards.
        assert_eq!(one_gen.measured.metrics.stats.forwarded_records, 0);

        // Lifetime hints cut forwarding: hinted long transactions start in
        // the last generation, so only strays transit generation 0's head.
        let hints = points
            .iter()
            .find(|p| p.label == "lifetime hints")
            .expect("variant present");
        assert!(
            hints.measured.metrics.stats.forwarded_records
                < baseline.metrics.stats.forwarded_records / 2,
            "hints must slash forwarding: {} vs {}",
            hints.measured.metrics.stats.forwarded_records,
            baseline.metrics.stats.forwarded_records
        );
        assert_eq!(hints.measured.killed, 0);

        assert_eq!(table(&points).len(), points.len());
    }
}
