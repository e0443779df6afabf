//! Plain-text/markdown/CSV table rendering for experiment output,
//! `repro`'s stdout ([`render_repro`]), `elsim`'s run report
//! ([`render_run_report`]) and its `--min-space` result line
//! ([`render_min_space`]).
//!
//! Deliberately dependency-free: experiment rows are small and regular, so
//! sixty lines of formatting beat a serialisation stack.

use crate::minspace::MinSpaceResult;
use crate::runner::RunConfig;
use crate::sweep::ExperimentReport;
use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "| {h:>w$} ");
        }
        let _ = writeln!(out, "{line}|");
        let mut sep = String::new();
        for w in &widths {
            let _ = write!(sep, "|{}", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}|");
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "| {c:>w$} ");
            }
            let _ = writeln!(out, "{line}|");
        }
        out
    }

    /// Renders as CSV (title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// What `repro` prints to stdout: a header, then per experiment, in the
/// order given, each table followed by a blank line and the notes as one
/// block. The tests that compare reports compare this string.
pub fn render_repro(reports: &[ExperimentReport], quick: bool) -> String {
    let mut out = format!(
        "# Ephemeral Logging (SIGMOD '93) — full reproduction{}\n\n",
        if quick { " [quick mode]" } else { "" }
    );
    for report in reports {
        for (_slug, table) in &report.tables {
            out.push_str(&table.render());
            out.push('\n');
        }
        if !report.notes.is_empty() {
            out.push_str(&report.notes.join("\n"));
            out.push_str("\n\n");
        }
    }
    out
}

/// Renders `elsim --min-space`'s result line for a search from `cfg`: the
/// firewall minimum, the two-generation one, or an N-generation one with
/// the capacities the running bound pruned.
pub fn render_min_space(cfg: &RunConfig, r: &MinSpaceResult) -> String {
    let gens = cfg.el.log.generation_blocks.len();
    if cfg.el.log.is_firewall() {
        format!(
            "minimum FW log: {} blocks ({} probes)\n",
            r.total_blocks, r.probes
        )
    } else if gens == 2 {
        format!(
            "minimum EL log: {:?} = {} blocks ({} probes)\n",
            r.generation_blocks, r.total_blocks, r.probes
        )
    } else {
        format!(
            "minimum EL log ({gens} gens): {:?} = {} blocks ({} probes, {} pruned)\n",
            r.generation_blocks, r.total_blocks, r.probes, r.search.pruned_volume
        )
    }
}

/// Renders `elsim`'s report of a run.
pub fn render_run_report(
    m: &elog_core::LmMetrics,
    recirc: bool,
    started: u64,
    committed: u64,
    killed: u64,
    p50_commit_ms: Option<f64>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== elsim run ==");
    let _ = writeln!(
        out,
        "geometry            : {:?} blocks (recirc {})",
        m.per_gen_blocks, recirc
    );
    let _ = writeln!(
        out,
        "transactions        : {started} started, {committed} committed, {killed} killed"
    );
    let _ = writeln!(
        out,
        "log bandwidth       : {:.2} block writes/s (per gen {:?})",
        m.log_write_rate, m.per_gen_write_rate
    );
    let _ = writeln!(
        out,
        "block fill          : {:?}",
        m.per_gen_fill
            .iter()
            .map(|f| f.map(|v| (v * 100.0).round() / 100.0))
            .collect::<Vec<_>>()
    );
    let _ = writeln!(
        out,
        "peak memory         : {} B (LTT peak {}, LOT peak {})",
        m.peak_memory_bytes, m.ltt_peak, m.lot_peak
    );
    let _ = writeln!(
        out,
        "forwarded           : {} records ({} B)",
        m.stats.forwarded_records, m.stats.forwarded_bytes
    );
    let _ = writeln!(
        out,
        "recirculated        : {} records ({} B)",
        m.stats.recirculated_records, m.stats.recirculated_bytes
    );
    let _ = writeln!(
        out,
        "flushes             : {} (mean oid distance {:?})",
        m.flushes,
        m.mean_seek_distance.map(|d| d.round())
    );
    let _ = writeln!(
        out,
        "flush utilisation   : {:.1}% (backlog {})",
        m.flush_utilisation * 100.0,
        m.flush_backlog
    );
    let _ = writeln!(out, "p50 commit latency  : {p50_commit_ms:?} ms");
    let _ = writeln!(
        out,
        "anomalies           : {} unsafe drops, {} durability violations, {} stalls",
        m.stats.unsafe_drops, m.stats.durability_violations, m.stats.buffer_stalls
    );
    out
}

/// Formats a float with `digits` decimals.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats an optional float, rendering `-` for absent values.
pub fn fo(x: Option<f64>, digits: usize) -> String {
    x.map_or_else(|| "-".to_string(), |v| f(v, digits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["mix", "blocks"]);
        t.row(vec!["5%".into(), "34".into()]);
        t.row(vec!["40%".into(), "1234".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("|  5% |     34 |"), "got:\n{s}");
        assert!(s.contains("| 40% |   1234 |"), "got:\n{s}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn renders_csv() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "# Demo\na,b\n1,2\n");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(fo(None, 2), "-");
        assert_eq!(fo(Some(1.5), 1), "1.5");
    }
}
