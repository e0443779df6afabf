//! The bench regression gate.
//!
//! `ci.sh` runs `bench --quick` on every pass; this module turns that
//! smoke run into a real gate by comparing the fresh report against the
//! committed `BENCH_*.json` snapshot and failing on a throughput cliff —
//! on the forward (logging) path *and* the recovery path. The logging
//! comparison reads the *top-level* `events_per_sec`; the recovery
//! comparison reads the `recovery` section's aggregate scan and redo
//! record rates (measured on the same machine as the baseline, so the
//! ratios are meaningful even though the absolute figures are not). The
//! `lattice` section (min-space search probe counts, memo hit rate,
//! pruned volume), the `analytic` section (model rejections, prefix
//! resumes and their saved events) and the `search` section (probe-cache
//! speedup and hit counts) are parsed and echoed for context but never
//! rate-gated: their numbers are workload properties, not host
//! throughput.
//!
//! The reports are written by `bench` itself with a fixed field order, so
//! a full JSON parser would be dead weight: the extractor scans for the
//! first occurrence of a key, which in the bench schema is always the
//! top-level one (per-experiment and per-crash-point rows live inside
//! arrays that every aggregate field precedes). Every section goes
//! through the one [`ReportSection`] trait — a [`FIELDS`] table drives
//! one shared extractor, and one shared drift policy diagnoses a
//! baseline that predates a section, a report whose throughput is zero
//! because a run produced no work, or a section lost from the current
//! report — rather than each section hand-rolling its own parse and
//! policy.
//!
//! [`FIELDS`]: ReportSection::FIELDS

/// One named section of the bench report, seen through the gate's eyes:
/// how to locate and parse its aggregates, how to describe them in the
/// verdict, and how (whether) to rate-gate them.
///
/// All sections share one schema-drift policy, implemented once in
/// [`check_regression`]: a *baseline* that predates the section passes
/// with an explicit "refresh the snapshot" diagnostic, a *current* report
/// that lost the section fails (drift in the wrong direction), and a
/// section absent from both is noted. Section impls only supply the
/// numbers; they never re-implement that policy.
pub trait ReportSection: Sized {
    /// The JSON key labelling the section object (`"lattice"`, …).
    const KEY: &'static str;

    /// The aggregate fields, in any order: each entry is the field's JSON
    /// key plus its fallback. `None` means required — a section missing
    /// the field fails to parse (schema drift the caller diagnoses);
    /// `Some(default)` means the field was added after the section first
    /// shipped, so older reports fall back to the default instead of
    /// being rejected wholesale.
    const FIELDS: &'static [(&'static str, Option<f64>)];

    /// Builds the summary from the extracted field values, in
    /// [`FIELDS`] order.
    ///
    /// [`FIELDS`]: ReportSection::FIELDS
    fn from_fields(vals: &[f64]) -> Self;

    /// Parses the section's aggregate fields scanning forward from the
    /// byte offset of its key marker. The bench writer puts every
    /// aggregate field ahead of any nested per-row array, so the first
    /// occurrence of each field key after the marker is the aggregate.
    /// Implemented once over [`FIELDS`]; sections never hand-roll it.
    ///
    /// [`FIELDS`]: ReportSection::FIELDS
    fn parse_at(json: &str, at: usize) -> Option<Self> {
        let mut vals = Vec::with_capacity(Self::FIELDS.len());
        for (key, fallback) in Self::FIELDS {
            match scan_number_from(json, at, key).or(*fallback) {
                Some(v) => vals.push(v),
                None => return None,
            }
        }
        Some(Self::from_fields(&vals))
    }

    /// Pushes the human-readable context fragment(s) for the verdict.
    /// Gated sections may leave this empty — their [`gate`] fragments
    /// already carry the numbers.
    ///
    /// [`gate`]: ReportSection::gate
    fn describe(&self, parts: &mut Vec<String>);

    /// Compares `current` against `self` (the baseline) and pushes the
    /// comparison fragments. The default is report-only: no rate is
    /// gated, nothing fails.
    fn gate(
        &self,
        current: &Self,
        max_regress_pct: f64,
        parts: &mut Vec<String>,
    ) -> Result<(), String> {
        let _ = (current, max_regress_pct, parts);
        Ok(())
    }

    /// Finds and parses the section; `None` when the report predates it.
    fn parse(json: &str) -> Option<Self> {
        let marker = format!("\"{}\":", Self::KEY);
        json.find(&marker).and_then(|i| Self::parse_at(json, i))
    }
}

/// The recovery-path fields the gate compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoverySummary {
    /// Aggregate byte-level scan throughput, records per second.
    pub scan_records_per_sec: f64,
    /// Aggregate single-pass REDO throughput, records per second.
    pub redo_records_per_sec: f64,
}

impl ReportSection for RecoverySummary {
    const KEY: &'static str = "recovery";
    const FIELDS: &'static [(&'static str, Option<f64>)] = &[
        ("scan_records_per_sec", None),
        ("redo_records_per_sec", None),
    ];

    fn from_fields(vals: &[f64]) -> Self {
        RecoverySummary {
            scan_records_per_sec: vals[0],
            redo_records_per_sec: vals[1],
        }
    }

    // The gate fragments below already carry the rates.
    fn describe(&self, _parts: &mut Vec<String>) {}

    fn gate(
        &self,
        current: &Self,
        max_regress_pct: f64,
        parts: &mut Vec<String>,
    ) -> Result<(), String> {
        parts.push(gate_rate(
            "recovery-scan records",
            self.scan_records_per_sec,
            current.scan_records_per_sec,
            max_regress_pct,
        )?);
        parts.push(gate_rate(
            "recovery-redo records",
            self.redo_records_per_sec,
            current.redo_records_per_sec,
            max_regress_pct,
        )?);
        Ok(())
    }
}

/// The lattice-search aggregates the gate reports (context only — probe
/// counts and pruned volume are workload properties, not host throughput,
/// so they are never rate-gated; the default no-op `gate` stands).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatticeSummary {
    /// Probe verdicts across every min-space search (simulated + memoised).
    pub probes: f64,
    /// Fraction of verdicts answered by the dominance memo.
    pub memo_hit_rate: f64,
    /// Lattice points excluded by the pruning bound without a probe.
    pub pruned_volume: f64,
}

impl ReportSection for LatticeSummary {
    const KEY: &'static str = "lattice";
    const FIELDS: &'static [(&'static str, Option<f64>)] = &[
        ("probes", None),
        ("memo_hit_rate", None),
        ("pruned_volume", None),
    ];

    fn from_fields(vals: &[f64]) -> Self {
        LatticeSummary {
            probes: vals[0],
            memo_hit_rate: vals[1],
            pruned_volume: vals[2],
        }
    }

    fn describe(&self, parts: &mut Vec<String>) {
        parts.push(format!(
            "lattice {:.0} probes ({:.0}% memoized, {:.0} pruned)",
            self.probes,
            self.memo_hit_rate * 100.0,
            self.pruned_volume
        ));
    }
}

/// The analytic pre-filter's aggregates (report-only, like the lattice
/// section: rejections and resume savings are search-workload properties).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyticSummary {
    /// Probes answered by the analytic model without simulation.
    pub rejections: f64,
    /// Probes answered by a column's consumption certificate (0 for
    /// reports predating the certificate).
    pub cert_verdicts: f64,
    /// Replay probes resumed from a prefix snapshot instead of t = 0.
    pub resume_probes: f64,
    /// Events those resumed probes did not have to re-deliver.
    pub resume_saved_events: f64,
}

impl ReportSection for AnalyticSummary {
    const KEY: &'static str = "analytic";
    const FIELDS: &'static [(&'static str, Option<f64>)] = &[
        ("rejections", None),
        // Added after the section shipped: older reports default to 0.
        ("cert_verdicts", Some(0.0)),
        ("resume_probes", None),
        ("resume_saved_events", None),
    ];

    fn from_fields(vals: &[f64]) -> Self {
        AnalyticSummary {
            rejections: vals[0],
            cert_verdicts: vals[1],
            resume_probes: vals[2],
            resume_saved_events: vals[3],
        }
    }

    fn describe(&self, parts: &mut Vec<String>) {
        parts.push(format!(
            "analytic {:.0} rejections, {:.0} certified verdicts, \
             {:.0} resumed probes ({:.0} events saved)",
            self.rejections, self.cert_verdicts, self.resume_probes, self.resume_saved_events
        ));
    }
}

/// The probe-cache search aggregates (report-only: the warm-rerun speedup
/// depends on the host and the cache counters are workload properties, so
/// none of them is gated).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchSummary {
    /// Wall-clock ratio of the cold cached run to the warm rerun.
    pub cache_speedup: f64,
    /// Verdicts the warm run's probe cache was seeded with.
    pub cache_seeded: f64,
    /// Warm-run probes answered straight from the cache.
    pub cache_hits: f64,
    /// Warm-run probes the cache could not answer (live simulations).
    pub cache_misses: f64,
}

impl ReportSection for SearchSummary {
    const KEY: &'static str = "search";
    const FIELDS: &'static [(&'static str, Option<f64>)] = &[
        ("cache_speedup", None),
        ("cache_seeded", None),
        ("cache_hits", None),
        ("cache_misses", None),
    ];

    fn from_fields(vals: &[f64]) -> Self {
        SearchSummary {
            cache_speedup: vals[0],
            cache_seeded: vals[1],
            cache_hits: vals[2],
            cache_misses: vals[3],
        }
    }

    fn describe(&self, parts: &mut Vec<String>) {
        parts.push(format!(
            "search warm cache {:.1}x ({:.0} seeded, {:.0} hits, {:.0} misses)",
            self.cache_speedup, self.cache_seeded, self.cache_hits, self.cache_misses
        ));
    }
}

/// The online adaptive-controller aggregates (report-only, like the
/// search section: reshape counts and kills shed are workload
/// properties of the drift scenario, not host throughput, so the default
/// no-op `gate` stands).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveSummary {
    /// Observation windows the controller decided over.
    pub window_decisions: f64,
    /// Capacity reshapes applied on the drift run (grows + shrinks).
    pub reshapes: f64,
    /// Reshapes that grew the last generation.
    pub grows: f64,
    /// Reshapes that shrank the last generation.
    pub shrinks: f64,
    /// Lifetime-hint placement toggles.
    pub hint_toggles: f64,
    /// Times the firewall fallback engaged.
    pub firewall_fallbacks: f64,
    /// Kills the controller shed on the mid-run shift pair (frozen run's
    /// kills minus the adaptive run's).
    pub kills_shed: f64,
}

impl ReportSection for AdaptiveSummary {
    const KEY: &'static str = "adaptive";
    const FIELDS: &'static [(&'static str, Option<f64>)] = &[
        ("window_decisions", None),
        ("reshapes", None),
        ("grows", None),
        ("shrinks", None),
        ("hint_toggles", None),
        ("firewall_fallbacks", None),
        ("kills_shed", None),
    ];

    fn from_fields(vals: &[f64]) -> Self {
        AdaptiveSummary {
            window_decisions: vals[0],
            reshapes: vals[1],
            grows: vals[2],
            shrinks: vals[3],
            hint_toggles: vals[4],
            firewall_fallbacks: vals[5],
            kills_shed: vals[6],
        }
    }

    fn describe(&self, parts: &mut Vec<String>) {
        parts.push(format!(
            "adaptive {:.0} reshapes ({:.0} grows, {:.0} shrinks) over {:.0} windows, \
             {:.0} hint toggles, {:.0} fallbacks, {:.0} shift kills shed",
            self.reshapes,
            self.grows,
            self.shrinks,
            self.window_decisions,
            self.hint_toggles,
            self.firewall_fallbacks,
            self.kills_shed
        ));
    }
}

/// The multi-tenant serve aggregates (report-only: committed counts and
/// latency quantiles are workload properties of the scaling sweep's
/// highest-multiplexing run, not host throughput, so the default no-op
/// `gate` stands).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantsSummary {
    /// Tenant count of the summarised run.
    pub tenants: f64,
    /// Commits across all tenants.
    pub committed: f64,
    /// Manager kills across all tenants.
    pub killed: f64,
    /// Admission refusals across all tenants.
    pub refused: f64,
    /// Aggregate p50 arrival→durable commit latency, ms.
    pub agg_p50_ms: f64,
    /// Aggregate p99 arrival→durable commit latency, ms.
    pub agg_p99_ms: f64,
}

impl ReportSection for TenantsSummary {
    const KEY: &'static str = "tenants";
    // The count field is `tenant_count`, not `tenants`: the section key
    // itself is the first `"tenants":` the field scanner would find.
    const FIELDS: &'static [(&'static str, Option<f64>)] = &[
        ("tenant_count", None),
        ("committed", None),
        ("killed", None),
        ("refused", None),
        ("agg_p50_ms", None),
        ("agg_p99_ms", None),
    ];

    fn from_fields(vals: &[f64]) -> Self {
        TenantsSummary {
            tenants: vals[0],
            committed: vals[1],
            killed: vals[2],
            refused: vals[3],
            agg_p50_ms: vals[4],
            agg_p99_ms: vals[5],
        }
    }

    fn describe(&self, parts: &mut Vec<String>) {
        parts.push(format!(
            "tenants {:.0} committed {:.0} (killed {:.0}, refused {:.0}), \
             p50 {:.1} ms, p99 {:.1} ms",
            self.tenants,
            self.committed,
            self.killed,
            self.refused,
            self.agg_p50_ms,
            self.agg_p99_ms
        ));
    }
}

/// The fields the gate compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchSummary {
    /// Top-level measured-run throughput (events per second).
    pub events_per_sec: f64,
    /// Top-level allocations per event (measured + probe events).
    pub allocations_per_event: f64,
    /// Whether the report came from a `--quick` basket.
    pub quick: bool,
    /// The recovery section's aggregates; `None` when the report predates
    /// the recovery bench (schema drift the gate must diagnose, not trip
    /// over).
    pub recovery: Option<RecoverySummary>,
    /// The lattice section's aggregates; `None` when the report predates
    /// the lattice search (warn, matching the recovery precedent).
    pub lattice: Option<LatticeSummary>,
    /// The analytic section's aggregates; `None` when the report predates
    /// the analytic pre-filter.
    pub analytic: Option<AnalyticSummary>,
    /// The search section's aggregates; `None` when the report predates
    /// the probe cache.
    pub search: Option<SearchSummary>,
    /// The adaptive section's aggregates; `None` when the report predates
    /// the online generation controller.
    pub adaptive: Option<AdaptiveSummary>,
    /// The tenants section's aggregates; `None` when the report predates
    /// the multi-tenant serve mode.
    pub tenants: Option<TenantsSummary>,
}

/// Extracts the number following `"key": ` at its first occurrence at or
/// after byte offset `from`.
fn scan_number_from(json: &str, from: usize, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = from + json.get(from..)?.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the number following `"key": ` at its first occurrence.
fn scan_number(json: &str, key: &str) -> Option<f64> {
    scan_number_from(json, 0, key)
}

impl BenchSummary {
    /// Parses the gate-relevant fields out of a bench report. Each section
    /// goes through the one [`ReportSection`] path; only the top-level
    /// scalars are read directly.
    pub fn parse(json: &str) -> Option<BenchSummary> {
        let quick = json
            .find("\"quick\":")
            .map(|i| json[i + 8..].trim_start().starts_with("true"))?;
        Some(BenchSummary {
            events_per_sec: scan_number(json, "events_per_sec")?,
            allocations_per_event: scan_number(json, "allocations_per_event")?,
            quick,
            recovery: RecoverySummary::parse(json),
            lattice: LatticeSummary::parse(json),
            analytic: AnalyticSummary::parse(json),
            search: SearchSummary::parse(json),
            adaptive: AdaptiveSummary::parse(json),
            tenants: TenantsSummary::parse(json),
        })
    }
}

/// A throughput figure that cannot be gated: zero means the run produced
/// no work (or the field was mis-parsed), non-finite means the report is
/// malformed. Either way the gate must say so, not divide by it.
fn check_rate(which: &str, role: &str, v: f64) -> Result<(), String> {
    if !v.is_finite() || v <= 0.0 {
        Err(format!(
            "{role} {which} is {v}: zero or invalid throughput — the run \
             produced no work or the report schema drifted; regenerate the \
             {role} snapshot"
        ))
    } else {
        Ok(())
    }
}

/// One throughput ratio against the gate floor. Returns the human-readable
/// fragment on pass, the failure message on a cliff.
fn gate_rate(
    which: &str,
    baseline: f64,
    current: f64,
    max_regress_pct: f64,
) -> Result<String, String> {
    check_rate(which, "baseline", baseline)?;
    check_rate(which, "current", current)?;
    let floor = baseline * (1.0 - max_regress_pct / 100.0);
    let ratio = current / baseline;
    let detail = format!(
        "{which} {current:.0}/s vs baseline {baseline:.0}/s ({:+.1}%)",
        (ratio - 1.0) * 100.0
    );
    if current < floor {
        Err(format!(
            "{which} regression beyond {max_regress_pct:.0}%: {detail}"
        ))
    } else {
        Ok(detail)
    }
}

/// Compares a fresh report against the committed baseline.
///
/// Fails when logging throughput, recovery scan throughput, or recovery
/// redo throughput dropped by more than `max_regress_pct` percent.
/// Faster-than-baseline runs and allocation *improvements* always pass;
/// the allocation ratio is reported but not gated (it is a per-event
/// count, so it barely jitters — a real alloc regression will also show
/// up as a throughput cliff, and gating one number keeps the knob count
/// down). A baseline that predates the recovery section passes with an
/// explicit diagnostic (refresh the snapshot); a *current* report that
/// lost the section fails — that is schema drift in the wrong direction.
/// Returns a human-readable verdict either way.
pub fn check_regression(
    baseline: &BenchSummary,
    current: &BenchSummary,
    max_regress_pct: f64,
) -> Result<String, String> {
    if baseline.quick != current.quick {
        return Err(format!(
            "baseline quick={} but current quick={}: refusing to compare \
             different basket sizes",
            baseline.quick, current.quick
        ));
    }
    let mut parts = vec![gate_rate(
        "events",
        baseline.events_per_sec,
        current.events_per_sec,
        max_regress_pct,
    )?];
    parts.push(format!(
        "allocs/event {:.3} vs {:.3}",
        current.allocations_per_event, baseline.allocations_per_event,
    ));
    gate_section(
        &baseline.lattice,
        &current.lattice,
        max_regress_pct,
        &mut parts,
    )?;
    gate_section(
        &baseline.analytic,
        &current.analytic,
        max_regress_pct,
        &mut parts,
    )?;
    gate_section(
        &baseline.search,
        &current.search,
        max_regress_pct,
        &mut parts,
    )?;
    gate_section(
        &baseline.adaptive,
        &current.adaptive,
        max_regress_pct,
        &mut parts,
    )?;
    gate_section(
        &baseline.tenants,
        &current.tenants,
        max_regress_pct,
        &mut parts,
    )?;
    gate_section(
        &baseline.recovery,
        &current.recovery,
        max_regress_pct,
        &mut parts,
    )?;
    Ok(parts.join("; "))
}

/// The one schema-drift path every section shares (see [`ReportSection`]):
/// present in both → gate then describe; baseline missing → describe and
/// warn; current missing → fail; missing from both → note.
fn gate_section<S: ReportSection>(
    baseline: &Option<S>,
    current: &Option<S>,
    max_regress_pct: f64,
    parts: &mut Vec<String>,
) -> Result<(), String> {
    match (baseline, current) {
        (Some(base), Some(cur)) => {
            base.gate(cur, max_regress_pct, parts)?;
            cur.describe(parts);
        }
        (None, Some(cur)) => {
            cur.describe(parts);
            parts.push(format!(
                "{key} not gated: baseline predates the {key} section — \
                 refresh the committed BENCH snapshot",
                key = S::KEY
            ));
        }
        (Some(_), None) => {
            return Err(format!(
                "current report has no {key} section but the baseline does: \
                 the {key} stats were lost (schema drift) — fix bench before \
                 trusting this gate",
                key = S::KEY
            ));
        }
        (None, None) => parts.push(format!(
            "{key} not reported: neither report carries a {key} section",
            key = S::KEY
        )),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)] // one knob per report section
    fn report_full(
        events_per_sec: f64,
        allocs: f64,
        quick: bool,
        recovery: Option<(f64, f64)>,
        lattice: Option<(f64, f64, f64)>,
        analytic: Option<(f64, f64, f64)>,
        search: Option<(f64, f64)>,
        adaptive: Option<(f64, f64)>,
        tenants: Option<(f64, f64)>,
    ) -> String {
        // Same field order as the bench binary's writer: experiments,
        // then lattice, then analytic, then search, then
        // adaptive, then tenants, then recovery.
        let lattice_section = match lattice {
            Some((probes, rate, pruned)) => format!(
                ",\n  \"lattice\": {{\n    \"probes\": {probes},\n    \"memo_hits\": 40,\n    \
                 \"memo_hit_rate\": {rate},\n    \"pruned_volume\": {pruned}\n  }}"
            ),
            None => String::new(),
        };
        let analytic_section = match analytic {
            Some((rejections, resumes, saved)) => format!(
                ",\n  \"analytic\": {{\n    \"rejections\": {rejections},\n    \
                 \"resume_probes\": {resumes},\n    \"resume_saved_events\": {saved},\n    \
                 \"resume_hit_rate\": 0.1\n  }}"
            ),
            None => String::new(),
        };
        let search_section = match search {
            Some((speedup, hits)) => format!(
                ",\n  \"search\": {{\n    \"serial_wall_secs\": 2.0,\n    \
                 \"cold_wall_secs\": 2.1,\n    \"warm_wall_secs\": 0.05,\n    \
                 \"cache_speedup\": {speedup},\n    \
                 \"cache_seeded\": 120,\n    \"cache_hits\": {hits},\n    \
                 \"cache_misses\": 0\n  }}"
            ),
            None => String::new(),
        };
        let adaptive_section = match adaptive {
            Some((reshapes, shed)) => format!(
                ",\n  \"adaptive\": {{\n    \"window_decisions\": 24,\n    \
                 \"occupancy_snapshots\": 48,\n    \"reshapes\": {reshapes},\n    \
                 \"grows\": 4,\n    \"shrinks\": 2,\n    \"hint_toggles\": 0,\n    \
                 \"firewall_fallbacks\": 0,\n    \"kills_shed\": {shed},\n    \
                 \"shift_kills_frozen\": 400,\n    \"wall_secs\": 0.8\n  }}"
            ),
            None => String::new(),
        };
        let tenants_section = match tenants {
            Some((count, p99)) => format!(
                ",\n  \"tenants\": {{\n    \"tenant_count\": {count},\n    \
                 \"committed\": 5400,\n    \"killed\": 0,\n    \"refused\": 12,\n    \
                 \"agg_p50_ms\": 1120.5,\n    \"agg_p99_ms\": {p99},\n    \
                 \"wall_secs\": 0.6\n  }}"
            ),
            None => String::new(),
        };
        let recovery_section = match recovery {
            Some((scan, redo)) => format!(
                ",\n  \"recovery\": {{\n    \"scan_blocks_per_sec\": 120000,\n    \
                 \"scan_records_per_sec\": {scan},\n    \"redo_records_per_sec\": {redo},\n    \
                 \"allocations_per_record\": 0.4,\n    \"corrupt_block_rate\": 0.002,\n    \
                 \"points\": [\n      {{\"name\": \"el/mid-flush\", \
                 \"scan_records_per_sec\": 1, \"redo_records_per_sec\": 1}}\n    ]\n  }}"
            ),
            None => String::new(),
        };
        format!(
            "{{\n  \"date\": \"2026-08-06\",\n  \"quick\": {quick},\n  \"jobs\": 1,\n  \
             \"total_wall_secs\": 2.0,\n  \"total_events\": 800000,\n  \
             \"events_per_sec\": {events_per_sec},\n  \"allocations\": 400000,\n  \
             \"allocations_per_event\": {allocs},\n  \"probe_events\": 6000000,\n  \
             \"replay_hit_rate\": 0.9,\n  \"memo_hit_rate\": 0.2,\n  \
             \"experiments\": [\n    {{\"name\": \"x\", \"probes\": 7, \
             \"events_per_sec\": 99, \"allocations_per_event\": 99.0}}\n  \
             ]{lattice_section}{analytic_section}{search_section}{adaptive_section}{tenants_section}{recovery_section}\n}}"
        )
    }

    fn report_with_recovery(
        events_per_sec: f64,
        allocs: f64,
        quick: bool,
        recovery: Option<(f64, f64)>,
    ) -> String {
        report_full(
            events_per_sec,
            allocs,
            quick,
            recovery,
            Some((200.0, 0.35, 5000.0)),
            Some((12.0, 30.0, 40000.0)),
            Some((42.0, 140.0)),
            Some((6.0, 120.0)),
            Some((8.0, 9800.0)),
        )
    }

    fn report(events_per_sec: f64, allocs: f64, quick: bool) -> String {
        report_with_recovery(events_per_sec, allocs, quick, Some((4e6, 8e6)))
    }

    /// A report missing only the lattice section.
    fn no_lattice(events_per_sec: f64) -> String {
        report_full(
            events_per_sec,
            0.05,
            true,
            Some((4e6, 8e6)),
            None,
            Some((12.0, 30.0, 40000.0)),
            Some((42.0, 140.0)),
            Some((6.0, 120.0)),
            Some((8.0, 9800.0)),
        )
    }

    /// A report missing only the analytic section.
    fn no_analytic(events_per_sec: f64) -> String {
        report_full(
            events_per_sec,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((200.0, 0.35, 5000.0)),
            None,
            Some((42.0, 140.0)),
            Some((6.0, 120.0)),
            Some((8.0, 9800.0)),
        )
    }

    /// A report missing only the search section.
    fn no_search(events_per_sec: f64) -> String {
        report_full(
            events_per_sec,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((200.0, 0.35, 5000.0)),
            Some((12.0, 30.0, 40000.0)),
            None,
            Some((6.0, 120.0)),
            Some((8.0, 9800.0)),
        )
    }

    /// A report missing only the adaptive section.
    fn no_adaptive(events_per_sec: f64) -> String {
        report_full(
            events_per_sec,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((200.0, 0.35, 5000.0)),
            Some((12.0, 30.0, 40000.0)),
            Some((42.0, 140.0)),
            None,
            Some((8.0, 9800.0)),
        )
    }

    /// A report missing only the tenants section.
    fn no_tenants(events_per_sec: f64) -> String {
        report_full(
            events_per_sec,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((200.0, 0.35, 5000.0)),
            Some((12.0, 30.0, 40000.0)),
            Some((42.0, 140.0)),
            Some((6.0, 120.0)),
            None,
        )
    }

    #[test]
    fn parse_reads_adaptive_aggregates() {
        let s = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let a = s.adaptive.expect("adaptive section present");
        assert_eq!(a.window_decisions, 24.0);
        assert_eq!(a.reshapes, 6.0);
        assert_eq!(a.grows, 4.0);
        assert_eq!(a.shrinks, 2.0);
        assert_eq!(a.hint_toggles, 0.0);
        assert_eq!(a.firewall_fallbacks, 0.0);
        assert_eq!(a.kills_shed, 120.0);
    }

    #[test]
    fn adaptive_baseline_missing_warns_and_passes() {
        let base = BenchSummary::parse(&no_adaptive(400_000.0)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(
            verdict.contains("predates the adaptive section"),
            "{verdict}"
        );
    }

    #[test]
    fn adaptive_lost_from_current_fails() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&no_adaptive(400_000.0)).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("no adaptive section"), "{err}");
    }

    #[test]
    fn adaptive_stats_are_reported_but_never_gated() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // Wildly different controller numbers — zero reshapes, zero kills
        // shed — still a pass: the section is context, not a gated rate.
        let cur = BenchSummary::parse(&report_full(
            400_000.0,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((200.0, 0.35, 5000.0)),
            Some((12.0, 30.0, 40000.0)),
            Some((42.0, 140.0)),
            Some((0.0, 0.0)),
            Some((8.0, 9800.0)),
        ))
        .unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("adaptive 0 reshapes"), "{verdict}");
    }

    #[test]
    fn adaptive_torn_field_rejects_the_section() {
        // Every adaptive field is required; a report missing one must
        // parse as "no adaptive section", not invent a number.
        let torn = report(400_000.0, 0.05, true).replace("\"kills_shed\": 120,\n    ", "");
        let s = BenchSummary::parse(&torn).unwrap();
        assert!(s.adaptive.is_none(), "torn adaptive section must not parse");
    }

    #[test]
    fn parse_reads_tenants_aggregates() {
        let s = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let t = s.tenants.expect("tenants section present");
        assert_eq!(t.tenants, 8.0);
        assert_eq!(t.committed, 5400.0);
        assert_eq!(t.killed, 0.0);
        assert_eq!(t.refused, 12.0);
        assert_eq!(t.agg_p50_ms, 1120.5);
        assert_eq!(t.agg_p99_ms, 9800.0);
    }

    #[test]
    fn tenants_baseline_missing_warns_and_passes() {
        let base = BenchSummary::parse(&no_tenants(400_000.0)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(
            verdict.contains("predates the tenants section"),
            "{verdict}"
        );
    }

    #[test]
    fn tenants_lost_from_current_fails() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&no_tenants(400_000.0)).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("no tenants section"), "{err}");
    }

    #[test]
    fn tenants_stats_are_reported_but_never_gated() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // A run where every tenant stalled — zero tenants reported, zero
        // tail — still passes: the section is context, not a gated rate.
        let cur = BenchSummary::parse(&report_full(
            400_000.0,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((200.0, 0.35, 5000.0)),
            Some((12.0, 30.0, 40000.0)),
            Some((42.0, 140.0)),
            Some((6.0, 120.0)),
            Some((0.0, 0.0)),
        ))
        .unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("tenants 0 committed"), "{verdict}");
    }

    #[test]
    fn tenants_torn_field_rejects_the_section() {
        // Every tenants field is required; a report missing one must
        // parse as "no tenants section", not invent a number.
        let torn = report(400_000.0, 0.05, true).replace("\"agg_p99_ms\": 9800,\n    ", "");
        assert_ne!(torn, report(400_000.0, 0.05, true), "replace must hit");
        let s = BenchSummary::parse(&torn).unwrap();
        assert!(s.tenants.is_none(), "torn tenants section must not parse");
    }

    #[test]
    fn parse_reads_top_level_fields_not_experiment_rows() {
        let s = BenchSummary::parse(&report(407178.0, 0.051, true)).unwrap();
        assert_eq!(s.events_per_sec, 407178.0);
        assert_eq!(s.allocations_per_event, 0.051);
        assert!(s.quick);
    }

    #[test]
    fn parse_reads_recovery_aggregates_not_point_rows() {
        let s = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let r = s.recovery.expect("recovery section present");
        assert_eq!(r.scan_records_per_sec, 4e6);
        assert_eq!(r.redo_records_per_sec, 8e6);
    }

    #[test]
    fn parse_reads_lattice_aggregates_not_experiment_rows() {
        // The experiment row carries "probes": 7; the lattice section's
        // own probes must win because parsing is scoped past the marker.
        let s = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let l = s.lattice.expect("lattice section present");
        assert_eq!(l.probes, 200.0);
        assert_eq!(l.memo_hit_rate, 0.35);
        assert_eq!(l.pruned_volume, 5000.0);
    }

    #[test]
    fn parse_tolerates_missing_lattice_section() {
        let s = BenchSummary::parse(&no_lattice(400_000.0)).unwrap();
        assert!(s.lattice.is_none());
    }

    #[test]
    fn lattice_baseline_missing_warns_and_passes() {
        let base = BenchSummary::parse(&no_lattice(400_000.0)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(
            verdict.contains("predates the lattice section"),
            "{verdict}"
        );
    }

    #[test]
    fn lattice_lost_from_current_fails() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&no_lattice(400_000.0)).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("no lattice section"), "{err}");
    }

    #[test]
    fn lattice_stats_are_reported_but_never_gated() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // Wildly different lattice numbers: still a pass (context only).
        let cur = BenchSummary::parse(&report_full(
            400_000.0,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((9_000.0, 0.01, 2.0)),
            Some((12.0, 30.0, 40000.0)),
            Some((42.0, 140.0)),
            Some((6.0, 120.0)),
            Some((8.0, 9800.0)),
        ))
        .unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("lattice 9000 probes"), "{verdict}");
    }

    #[test]
    fn parse_reads_analytic_aggregates() {
        let s = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let a = s.analytic.expect("analytic section present");
        assert_eq!(a.rejections, 12.0);
        assert_eq!(a.resume_probes, 30.0);
        assert_eq!(a.resume_saved_events, 40000.0);
    }

    #[test]
    fn analytic_baseline_missing_warns_and_passes() {
        let base = BenchSummary::parse(&no_analytic(400_000.0)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(
            verdict.contains("predates the analytic section"),
            "{verdict}"
        );
    }

    #[test]
    fn analytic_lost_from_current_fails() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&no_analytic(400_000.0)).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("no analytic section"), "{err}");
    }

    #[test]
    fn analytic_stats_are_reported_but_never_gated() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // Wildly different analytic numbers: still a pass (report-only).
        let cur = BenchSummary::parse(&report_full(
            400_000.0,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((200.0, 0.35, 5000.0)),
            Some((0.0, 0.0, 0.0)),
            Some((42.0, 140.0)),
            Some((6.0, 120.0)),
            Some((8.0, 9800.0)),
        ))
        .unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("analytic 0 rejections"), "{verdict}");
    }

    #[test]
    fn parse_reads_search_aggregates() {
        let s = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let se = s.search.expect("search section present");
        assert_eq!(se.cache_speedup, 42.0);
        assert_eq!(se.cache_seeded, 120.0);
        assert_eq!(se.cache_hits, 140.0);
        assert_eq!(se.cache_misses, 0.0);
    }

    #[test]
    fn search_baseline_missing_warns_and_passes() {
        let base = BenchSummary::parse(&no_search(400_000.0)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("predates the search section"), "{verdict}");
    }

    #[test]
    fn search_lost_from_current_fails() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&no_search(400_000.0)).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("no search section"), "{err}");
    }

    #[test]
    fn search_stats_are_reported_but_never_gated() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // A warm rerun slower than the cold run still passes: the section
        // is context, not a gated throughput.
        let cur = BenchSummary::parse(&report_full(
            400_000.0,
            0.05,
            true,
            Some((4e6, 8e6)),
            Some((200.0, 0.35, 5000.0)),
            Some((12.0, 30.0, 40000.0)),
            Some((0.7, 0.0)),
            Some((6.0, 120.0)),
            Some((8.0, 9800.0)),
        ))
        .unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("search warm cache 0.7x"), "{verdict}");
    }

    #[test]
    fn required_field_missing_rejects_the_section() {
        // A search section with a field torn out is schema drift: the
        // FIELDS table marks every search field required, so the shared
        // extractor rejects the section (→ None) rather than inventing a
        // number. The gate then reports it exactly like a lost section.
        let good = report(400_000.0, 0.05, true);
        let torn = good.replace("\"cache_speedup\": 42,\n    ", "");
        let s = BenchSummary::parse(&torn).unwrap();
        assert!(s.search.is_none(), "torn section must not parse");
        // An *optional* field falls back instead of rejecting: the fixture
        // analytic section predates cert_verdicts, and still parses.
        let s = BenchSummary::parse(&good).unwrap();
        assert_eq!(s.analytic.map(|a| a.cert_verdicts), Some(0.0));
    }

    #[test]
    fn zero_allocation_ratio_is_reported_not_gated() {
        // An experiment basket that delivered no events writes
        // allocations_per_event: 0.0; the gate reports the figure
        // verbatim and never divides by it.
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.0, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("allocs/event 0.000"), "{verdict}");
    }

    #[test]
    fn parse_tolerates_missing_recovery_section() {
        let s = BenchSummary::parse(&report_with_recovery(400_000.0, 0.05, true, None)).unwrap();
        assert!(s.recovery.is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchSummary::parse("not json at all").is_none());
        assert!(BenchSummary::parse("{\"quick\": true}").is_none());
    }

    #[test]
    fn injected_30_percent_regression_fails_the_gate() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // 35% slower than baseline: must fail a 30% gate.
        let bad = BenchSummary::parse(&report(260_000.0, 0.05, true)).unwrap();
        let err = check_regression(&base, &bad, 30.0).unwrap_err();
        assert!(err.contains("events regression"), "{err}");
        // Exactly at the floor still passes (the gate is strict-less-than).
        let edge = BenchSummary::parse(&report(280_000.0, 0.05, true)).unwrap();
        assert!(check_regression(&base, &edge, 30.0).is_ok());
    }

    #[test]
    fn injected_recovery_regression_fails_the_gate() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        // Logging fine, recovery scan 40% down: must fail.
        let bad = BenchSummary::parse(&report_with_recovery(
            400_000.0,
            0.05,
            true,
            Some((2.4e6, 8e6)),
        ))
        .unwrap();
        let err = check_regression(&base, &bad, 30.0).unwrap_err();
        assert!(err.contains("recovery-scan"), "{err}");
        // Redo regression alone also fails.
        let bad = BenchSummary::parse(&report_with_recovery(
            400_000.0,
            0.05,
            true,
            Some((4e6, 4e6)),
        ))
        .unwrap();
        let err = check_regression(&base, &bad, 30.0).unwrap_err();
        assert!(err.contains("recovery-redo"), "{err}");
        // Small recovery jitter passes and is reported.
        let ok = BenchSummary::parse(&report_with_recovery(
            400_000.0,
            0.05,
            true,
            Some((3.5e6, 7.5e6)),
        ))
        .unwrap();
        let verdict = check_regression(&base, &ok, 30.0).unwrap();
        assert!(verdict.contains("recovery-scan"), "{verdict}");
    }

    #[test]
    fn baseline_without_recovery_passes_with_diagnostic() {
        let base = BenchSummary::parse(&report_with_recovery(400_000.0, 0.05, true, None)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let verdict = check_regression(&base, &cur, 30.0).unwrap();
        assert!(verdict.contains("baseline predates"), "{verdict}");
    }

    #[test]
    fn current_without_recovery_fails_when_baseline_has_it() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&report_with_recovery(400_000.0, 0.05, true, None)).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("no recovery section"), "{err}");
    }

    #[test]
    fn zero_or_invalid_throughput_is_diagnosed_not_silently_passed() {
        // Zero baseline events: previously floor=0 made everything pass.
        let base = BenchSummary::parse(&report(0.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("zero or invalid"), "{err}");
        // Zero current recovery redo rate: diagnosed too.
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let cur = BenchSummary::parse(&report_with_recovery(
            400_000.0,
            0.05,
            true,
            Some((4e6, 0.0)),
        ))
        .unwrap();
        let err = check_regression(&base, &cur, 30.0).unwrap_err();
        assert!(err.contains("recovery-redo"), "{err}");
        assert!(err.contains("zero or invalid"), "{err}");
    }

    #[test]
    fn small_jitter_and_improvements_pass() {
        let base = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let jitter = BenchSummary::parse(&report(350_000.0, 0.06, true)).unwrap();
        let verdict = check_regression(&base, &jitter, 30.0).unwrap();
        assert!(verdict.contains("-12.5%"), "{verdict}");
        let faster = BenchSummary::parse(&report(800_000.0, 0.01, true)).unwrap();
        assert!(check_regression(&base, &faster, 30.0).is_ok());
    }

    #[test]
    fn basket_size_mismatch_refuses_comparison() {
        let quick = BenchSummary::parse(&report(400_000.0, 0.05, true)).unwrap();
        let full = BenchSummary::parse(&report(400_000.0, 0.05, false)).unwrap();
        let err = check_regression(&quick, &full, 30.0).unwrap_err();
        assert!(err.contains("basket"), "{err}");
    }
}
