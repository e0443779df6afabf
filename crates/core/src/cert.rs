//! The last-generation consumption certificate.
//!
//! A min-space column (fixed prefix, varying last-generation capacity)
//! shares all of its upstream dynamics: fresh appends, forwarding, flushes
//! and commit acknowledgements never consult the last generation's
//! capacity — that capacity only decides *when* the last ring advances its
//! head. With recirculation off, advancing the head over block `j` kills
//! iff `j` still holds a linked record of a not-yet-committed transaction
//! (see [`crate::advance`], the paper's §2.1 kill rule), and block `j` is
//! consumed exactly at the `(j + c − k)`-th tail allocation for capacity
//! `c` and head/tail gap `k`.
//!
//! So one instrumented full-horizon run records, in global event order
//! ("stamps"):
//!
//! * the stamp of every last-generation tail allocation, and
//! * per block, the last stamp at which any of its records was still
//!   *killable* (linked and uncommitted), plus the stamp intervals in
//!   which a record was committed but still linked — consuming it then
//!   expedites its database flush, the one side channel through which a
//!   smaller capacity's earlier head advance could perturb the shared
//!   upstream dynamics.
//!
//! The certificate then answers "would capacity `c` survive?" for any
//! `c` smaller than the recorded run's capacity by pure table lookup:
//! walk the consumption schedule; a consumption inside a block's killable
//! span is a certain kill, one inside a flush window is *uncertain* (the
//! probe must be simulated), and a clean walk is a certain survival.
//! Verdicts are exact, not approximations: up to the first kill or flush
//! window the candidate run is event-for-event identical to the recorded
//! one outside the last ring, and the recorded spans are evaluated at the
//! candidate's own consumption stamps.

use crate::cell::CellIdx;
use elog_model::Tid;
use elog_sim::FxHashMap;

/// Stamp value for "never" (still killable / still linked at the horizon).
const NEVER: u64 = u64::MAX;

/// A record still linked in the last generation during recording.
#[derive(Clone, Copy, Debug)]
struct LiveCell {
    /// Last-generation block sequence the record was appended into.
    seq: u64,
    tid: Tid,
    /// Data record (flush-expedite applies) vs BEGIN/COMMIT record.
    data: bool,
    /// Already committed when it arrived (a forwarded committed-but-
    /// unflushed survivor): its flush window opens at the append stamp.
    committed_at_append: bool,
    append: u64,
}

/// Per-block aggregates, indexed by block sequence.
#[derive(Clone, Debug, Default)]
struct BlockSpan {
    /// Last stamp at which consuming the block would kill (exclusive):
    /// the max over its records of "stamp the record stopped being linked
    /// and uncommitted". [`NEVER`] when a record never commits.
    hot_end: u64,
    /// Stamp intervals `[committed, unlinked)` of data records: consuming
    /// the block inside one would expedite a pending flush.
    windows: Vec<(u64, u64)>,
}

/// In-flight recording state, owned by [`crate::ElManager`] while a
/// certificate-instrumented run is in progress.
#[derive(Debug, Default)]
pub(crate) struct CertLog {
    /// Global event-order counter; every recorded occurrence gets the
    /// next stamp, so "before" is unambiguous even within one sim tick.
    stamp: u64,
    /// Stamp of each last-generation tail allocation; index = block seq.
    allocs: Vec<u64>,
    /// Durable-commit stamp per transaction.
    commits: FxHashMap<Tid, u64>,
    /// Records currently linked in the last generation.
    live: FxHashMap<CellIdx, LiveCell>,
    blocks: Vec<BlockSpan>,
    /// First stamp at which the recorded run itself expedited a flush
    /// from the last generation's head; comparisons at or beyond it are
    /// not certified (the recorded stream already carries the feedback).
    first_expedite: u64,
}

impl CertLog {
    pub(crate) fn new() -> Self {
        CertLog {
            first_expedite: NEVER,
            ..CertLog::default()
        }
    }

    fn bump(&mut self) -> u64 {
        let s = self.stamp;
        self.stamp += 1;
        s
    }

    /// A last-generation tail block was allocated.
    pub(crate) fn on_alloc(&mut self, seq: u64) {
        let s = self.bump();
        debug_assert_eq!(seq as usize, self.allocs.len(), "non-sequential alloc");
        self.allocs.push(s);
        self.blocks.push(BlockSpan::default());
    }

    /// A record was appended into last-generation block `seq`.
    pub(crate) fn on_append(
        &mut self,
        cell: CellIdx,
        seq: u64,
        tid: Tid,
        data: bool,
        committed: bool,
    ) {
        let s = self.bump();
        self.live.insert(
            cell,
            LiveCell {
                seq,
                tid,
                data,
                committed_at_append: committed,
                append: s,
            },
        );
    }

    /// A transaction's COMMIT became durable (it can no longer be killed).
    pub(crate) fn on_commit(&mut self, tid: Tid) {
        let s = self.bump();
        self.commits.insert(tid, s);
    }

    /// A last-generation cell was unlinked (garbage, flush completion, or
    /// the recorded run's own head consumption).
    pub(crate) fn on_unlink(&mut self, cell: CellIdx) {
        let s = self.bump();
        let Some(lc) = self.live.remove(&cell) else {
            return;
        };
        self.resolve(lc, s);
    }

    /// The recorded run expedited a flush while consuming its own head.
    pub(crate) fn on_expedite(&mut self) {
        let s = self.bump();
        self.first_expedite = self.first_expedite.min(s);
    }

    /// Folds one record's lifetime into its block's aggregates;
    /// `unlinked` is the stamp it left the generation list ([`NEVER`] if
    /// still linked when recording ended).
    fn resolve(&mut self, lc: LiveCell, unlinked: u64) {
        let committed = if lc.committed_at_append {
            Some(lc.append)
        } else {
            self.commits.get(&lc.tid).copied().filter(|&c| c < unlinked)
        };
        let span = &mut self.blocks[lc.seq as usize];
        match committed {
            Some(c) => {
                span.hot_end = span.hot_end.max(c);
                if lc.data && c < unlinked {
                    span.windows.push((c, unlinked));
                }
            }
            None => span.hot_end = span.hot_end.max(unlinked),
        }
    }

    /// Finishes recording after a kill-free full-horizon run.
    fn into_cert(mut self, gap: u64) -> ConsumptionCert {
        let mut leftovers: Vec<(CellIdx, LiveCell)> = self.live.drain().collect();
        // Hash order is arbitrary; sort so the certificate is a pure
        // function of the run.
        leftovers.sort_unstable_by_key(|&(cell, _)| cell);
        for (_, lc) in leftovers {
            self.resolve(lc, NEVER);
        }
        for span in &mut self.blocks {
            span.windows.sort_unstable();
        }
        ConsumptionCert {
            gap,
            allocs: self.allocs,
            blocks: self.blocks,
            valid_to: self.first_expedite,
        }
    }
}

/// Probe verdict derived from a [`ConsumptionCert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertVerdict {
    /// The capacity certainly survives the recorded horizon.
    Survives,
    /// The capacity certainly kills.
    Kills,
    /// Not certified (a flush window or the recorded run's own expedite
    /// feedback intervenes): simulate the probe.
    Unknown,
}

/// The extracted certificate: answers last-generation capacity probes for
/// one column without simulation. See the module docs for the argument.
#[derive(Clone, Debug)]
pub struct ConsumptionCert {
    /// Head/tail gap (`gap_blocks`) the recorded run maintained.
    gap: u64,
    /// Stamp of allocation `i` (= block seq `i`).
    allocs: Vec<u64>,
    blocks: Vec<BlockSpan>,
    /// Certification horizon in stamps (see [`CertLog::first_expedite`]).
    valid_to: u64,
}

impl ConsumptionCert {
    /// Verdict for a last-generation capacity of `last_cap` blocks. Only
    /// capacities at most the recorded run's are certified; the prober
    /// never asks beyond it (bisection descends from the surviving probe
    /// that produced this certificate).
    pub fn verdict(&self, last_cap: u32) -> CertVerdict {
        let m = u64::from(last_cap).saturating_sub(self.gap);
        if m == 0 {
            return CertVerdict::Unknown;
        }
        let total = self.allocs.len() as u64;
        if total <= m {
            // The ring never fills past its head-advance depth: no
            // consumption, hence no kill and no feedback, can occur.
            return CertVerdict::Survives;
        }
        for j in 0..(total - m) as usize {
            // Block `j` is consumed during the allocation of block
            // `j + m`: immediately after that stamp, before the next.
            let s = self.allocs[j + m as usize];
            if s >= self.valid_to {
                return CertVerdict::Unknown;
            }
            let span = &self.blocks[j];
            if s < span.hot_end {
                return CertVerdict::Kills;
            }
            if span.windows.iter().any(|&(from, to)| from <= s && s < to) {
                return CertVerdict::Unknown;
            }
        }
        CertVerdict::Survives
    }
}

impl crate::ElManager {
    /// Arms consumption-certificate recording. Callers (the search
    /// harness) must only record runs whose last-generation inflow is
    /// capacity-independent: recirculation off, `gap_blocks ≥ 1`, no
    /// lifetime hints.
    pub fn start_cert_recording(&mut self) {
        self.cert = Some(Box::new(CertLog::new()));
    }

    /// Extracts the certificate after a kill-free full-horizon run,
    /// ending recording. `None` if recording was never armed.
    pub fn take_consumption_cert(&mut self) -> Option<ConsumptionCert> {
        let log = self.cert.take()?;
        Some(log.into_cert(u64::from(self.cfg.log.gap_blocks)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// gap 2; blocks 0..=4 allocated at stamps 10, 20, 30, 40, 50.
    fn cert(blocks: Vec<BlockSpan>, valid_to: u64) -> ConsumptionCert {
        ConsumptionCert {
            gap: 2,
            allocs: vec![10, 20, 30, 40, 50],
            blocks,
            valid_to,
        }
    }

    fn span(hot_end: u64, windows: Vec<(u64, u64)>) -> BlockSpan {
        BlockSpan { hot_end, windows }
    }

    #[test]
    fn never_filling_capacity_survives() {
        let c = cert(vec![span(NEVER, vec![]); 5], NEVER);
        // m = 5: five allocations never trigger a head advance.
        assert_eq!(c.verdict(7), CertVerdict::Survives);
    }

    #[test]
    fn hot_block_kills_small_capacities_only() {
        // Block 0 killable until stamp 35, all later blocks cold.
        let mut blocks = vec![span(0, vec![]); 5];
        blocks[0] = span(35, vec![]);
        let c = cert(blocks, NEVER);
        // cap 5 → m = 3: block 0 consumed at stamp 40 ≥ 35 → survives.
        assert_eq!(c.verdict(5), CertVerdict::Survives);
        // cap 4 → m = 2: block 0 consumed at stamp 30 < 35 → kills.
        assert_eq!(c.verdict(4), CertVerdict::Kills);
    }

    #[test]
    fn flush_window_defers_to_simulation() {
        let mut blocks = vec![span(0, vec![]); 5];
        blocks[1] = span(0, vec![(25, 45)]);
        let c = cert(blocks, NEVER);
        // cap 4 → m = 2: block 1 consumed at stamp 40 ∈ [25, 45).
        assert_eq!(c.verdict(4), CertVerdict::Unknown);
        // cap 5 → m = 3: block 1 consumed at stamp 50 ∉ [25, 45).
        assert_eq!(c.verdict(5), CertVerdict::Survives);
    }

    #[test]
    fn kill_before_window_is_still_certain() {
        // Block 0 hot, block 1 windowed: the kill lands first.
        let mut blocks = vec![span(0, vec![]); 5];
        blocks[0] = span(NEVER, vec![]);
        blocks[1] = span(0, vec![(25, 45)]);
        let c = cert(blocks, NEVER);
        assert_eq!(c.verdict(4), CertVerdict::Kills);
    }

    #[test]
    fn recorded_expedite_truncates_certification() {
        let mut blocks = vec![span(0, vec![]); 5];
        blocks[2] = span(45, vec![]);
        // The recorded run expedited at stamp 41: the stamp-50
        // consumption comparison is beyond certification.
        let c = cert(blocks, 41);
        assert_eq!(c.verdict(4), CertVerdict::Unknown);
        // A kill resolved strictly before the expedite stays certain.
        let mut blocks = vec![span(0, vec![]); 5];
        blocks[0] = span(NEVER, vec![]);
        let c = cert(blocks, 41);
        assert_eq!(c.verdict(4), CertVerdict::Kills);
    }

    #[test]
    fn log_resolves_commit_unlink_and_leftovers() {
        let mut log = CertLog::new();
        log.on_alloc(0); // stamp 0
        log.on_alloc(1); // stamp 1
        log.on_alloc(2); // stamp 2
                         // Data record of t1 into block 0, commits at stamp 4, flushed
                         // (unlinked) at stamp 5: hot until 4, window [4, 5).
        log.on_append(7, 0, Tid(1), true, false); // stamp 3
        log.on_commit(Tid(1)); // stamp 4
        log.on_unlink(7); // stamp 5
                          // BEGIN of t2 into block 1, never commits: hot forever.
        log.on_append(8, 1, Tid(2), false, false); // stamp 6
                                                   // Forwarded committed survivor into block 2: window from append.
        log.on_append(9, 2, Tid(3), true, true); // stamp 7
        let c = log.into_cert(2);
        assert_eq!(c.blocks[0].hot_end, 4);
        assert_eq!(c.blocks[0].windows, vec![(4, 5)]);
        assert_eq!(c.blocks[1].hot_end, NEVER);
        assert!(c.blocks[1].windows.is_empty());
        assert_eq!(c.blocks[2].hot_end, 7);
        assert_eq!(c.blocks[2].windows, vec![(7, NEVER)]);
    }
}
