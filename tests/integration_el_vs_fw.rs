//! Cross-crate integration: the paper's central comparison holds end to
//! end — EL needs far less disk than FW for mixed-lifetime workloads, at a
//! modest bandwidth and memory premium.

use elog_core::MemoryModel;
use elog_harness::minspace::paper_base;
use elog_harness::runner::run;
use elog_harness::{MinSpaceResult, SearchRequest};

/// Two-generation minimum-space search.
fn el_min_space(base: &elog_harness::RunConfig) -> MinSpaceResult {
    SearchRequest::min_space(base, 2).run().min
}

#[test]
fn el_beats_fw_on_space_at_5_percent() {
    let runtime = 60;

    let mut fw_base = paper_base(0.05, false, runtime);
    fw_base.el.memory_model = MemoryModel::Firewall;
    let fw_min = SearchRequest::min_space(&fw_base, 1).run().min;

    let el_base = paper_base(0.05, false, runtime);
    let el_min = el_min_space(&el_base);

    let ratio = f64::from(fw_min.total_blocks) / f64::from(el_min.total_blocks);
    assert!(
        ratio > 2.5,
        "expected a large space reduction at 5% (paper: 3.6x over 500 s), got {ratio:.2} \
         ({} vs {:?})",
        fw_min.total_blocks,
        el_min.generation_blocks
    );

    // Measure both at their minima.
    let mut cfg = fw_base.clone();
    cfg.el.log.generation_blocks = fw_min.generation_blocks.clone();
    let fw = run(&cfg);
    let mut cfg = el_base.clone();
    cfg.el.log.generation_blocks = el_min.generation_blocks.clone();
    let el = run(&cfg);

    assert_eq!(fw.killed, 0);
    assert_eq!(el.killed, 0);

    // Bandwidth premium is positive but bounded (paper: +11%).
    let premium = el.metrics.log_write_rate / fw.metrics.log_write_rate - 1.0;
    assert!(
        premium > 0.0 && premium < 0.4,
        "EL bandwidth premium out of range: {premium:.3}"
    );

    // Memory: EL pays more (40+40 vs 22 bytes), but modestly.
    assert!(el.metrics.peak_memory_bytes > fw.metrics.peak_memory_bytes);
    assert!(
        el.metrics.peak_memory_bytes < 64 * 1024,
        "paper: modest memory"
    );

    // Nothing unsafe happened in either run.
    for r in [&fw, &el] {
        assert_eq!(r.metrics.stats.unsafe_drops, 0);
        assert_eq!(r.metrics.stats.durability_violations, 0);
    }
}

#[test]
fn equal_lifetimes_erase_els_advantage() {
    // §6: "When all transactions are approximately the same duration …
    // the FW technique requires no more disk space than EL." With 100% of
    // transactions identical and short, both techniques need roughly the
    // traffic of one transaction lifetime.
    let runtime = 40;
    let mut fw_base = paper_base(0.0, false, runtime);
    fw_base.el.memory_model = MemoryModel::Firewall;
    let fw_min = SearchRequest::min_space(&fw_base, 1).run().min;

    let el_base = paper_base(0.0, false, runtime);
    let el_min = el_min_space(&el_base);

    let ratio = f64::from(fw_min.total_blocks) / f64::from(el_min.total_blocks);
    assert!(
        ratio < 1.8,
        "uniform lifetimes should leave little EL advantage, got {ratio:.2} ({} vs {:?})",
        fw_min.total_blocks,
        el_min.generation_blocks
    );
}

#[test]
fn recirculation_shrinks_the_last_generation() {
    let runtime = 60;
    let norec = paper_base(0.05, false, runtime);
    let norec_min = el_min_space(&norec);
    let g0 = norec_min.generation_blocks[0];

    let rec = paper_base(0.05, true, runtime);
    let rec_out = SearchRequest::fixed_prefix(&rec, vec![g0]).run();
    assert!(rec_out.feasible());
    let rec_min = rec_out.min;

    assert!(
        rec_min.generation_blocks[1] <= norec_min.generation_blocks[1],
        "recirculation must not need a larger last generation: {:?} vs {:?}",
        rec_min.generation_blocks,
        norec_min.generation_blocks
    );
}
