//! `elserve` — serve T concurrent logical tenants from one shared
//! ephemeral log, with streamed per-tenant workload admission and
//! p50/p99 commit-latency reporting.
//!
//! `elserve --help` prints the flag table
//! ([`elog_harness::cli::ELSERVE_USAGE`]); the run flags are `elsim`'s, with
//! `--tps` counted per tenant. One tenant with no admission budget is the
//! `elsim` run — the stdout is byte-identical.
//!
//! A `[serve]` summary always goes to stderr, so stdout stays comparable
//! across configurations (and byte-identical to `elsim` at one unbudgeted tenant).

use elog_harness::serve::serve_run;
use elog_harness::{cli, report};
use std::fmt::Write as _;

fn main() {
    let cfg = cli::parse_env(cli::ELSERVE_USAGE, cli::elserve);
    let tenants = cfg.tenants();
    let recirc = cfg.base.el.log.recirculation;

    let r = serve_run(&cfg);
    if tenants == 1 && cfg.budget == 0 {
        // One unbudgeted tenant is the classic run (same loop, same
        // configuration), so it prints through elsim's renderer too. A
        // budget refuses arrivals, which that report has no line for.
        cli::print(&report::render_run_report(
            &r.metrics,
            recirc,
            r.aggregate.started,
            r.aggregate.committed,
            r.aggregate.killed,
            r.p50_commit_latency_ms,
        ));
    } else {
        let m = &r.metrics;
        let budget = if cfg.budget == 0 {
            "unlimited".to_string()
        } else {
            format!("{} records", cfg.budget)
        };
        let mut out = String::new();
        let _ = writeln!(out, "== elserve run ==");
        let _ = writeln!(out, "tenants             : {tenants} (budget {budget})");
        let _ = writeln!(
            out,
            "geometry            : {:?} blocks (recirc {})",
            m.per_gen_blocks, recirc
        );
        let _ = writeln!(
            out,
            "transactions        : {} started, {} committed, {} killed, {} refused",
            r.aggregate.started, r.aggregate.committed, r.aggregate.killed, r.aggregate.throttled
        );
        let _ = writeln!(
            out,
            "log bandwidth       : {:.2} block writes/s (per gen {:?})",
            m.log_write_rate, m.per_gen_write_rate
        );
        let _ = writeln!(
            out,
            "peak memory         : {} B (LTT peak {}, LOT peak {})",
            m.peak_memory_bytes, m.ltt_peak, m.lot_peak
        );
        let _ = writeln!(
            out,
            "flush utilisation   : {:.1}% (backlog {})",
            m.flush_utilisation * 100.0,
            m.flush_backlog
        );
        let _ = writeln!(
            out,
            "commit latency      : p50 {} ms, p99 {} ms (arrival -> durable)",
            report::fo(r.aggregate.p50_ms, 1),
            report::fo(r.aggregate.p99_ms, 1)
        );
        let _ = writeln!(
            out,
            "anomalies           : {} unsafe drops, {} durability violations, {} stalls",
            m.stats.unsafe_drops, m.stats.durability_violations, m.stats.buffer_stalls
        );
        out.push('\n');
        let mut t = report::Table::new(
            "Per-tenant",
            &[
                "tenant",
                "started",
                "committed",
                "killed",
                "refused",
                "records",
                "garbage",
                "ltt peak",
                "p50 ms",
                "p99 ms",
            ],
        );
        for (i, rep) in r.per_tenant.iter().enumerate() {
            t.row(vec![
                i.to_string(),
                rep.started.to_string(),
                rep.committed.to_string(),
                rep.killed.to_string(),
                rep.throttled.to_string(),
                rep.data_records.to_string(),
                rep.garbage_records.to_string(),
                rep.ltt_peak.to_string(),
                report::fo(rep.p50_ms, 1),
                report::fo(rep.p99_ms, 1),
            ]);
        }
        out.push_str(&t.render());
        cli::print(&out);
    }
    // stderr so stdout stays comparable across tenant counts (cf.
    // elsim's `[adaptive]` report).
    eprintln!(
        "[serve] tenants {tenants}, committed {}, killed {}, refused {}, p99 {} ms",
        r.aggregate.committed,
        r.aggregate.killed,
        r.aggregate.throttled,
        report::fo(r.aggregate.p99_ms, 1)
    );
}
