//! Sanity checks tying the simulation directly to numbers stated in the
//! paper's text (scaled-down runtimes; the full 500 s numbers are produced
//! by the `repro` binary and recorded in EXPERIMENTS.md).

use elog_core::ElConfig;
use elog_harness::runner::{run, RunConfig};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::mean_update_rate;

fn paper_cfg(frac_long: f64, blocks: Vec<u32>, recirc: bool, secs: u64) -> RunConfig {
    let log = LogConfig {
        generation_blocks: blocks,
        recirculation: recirc,
        ..LogConfig::default()
    };
    let mut cfg = RunConfig::paper(frac_long, ElConfig::ephemeral(log, FlushConfig::default()));
    cfg.runtime = SimTime::from_secs(secs);
    cfg
}

#[test]
fn update_rates_match_section4() {
    // "the average number of updates per second rises from 210 to 280"
    assert!((mean_update_rate(0.05, 100.0) - 210.0).abs() < 1e-9);
    assert!((mean_update_rate(0.40, 100.0) - 280.0).abs() < 1e-9);
}

#[test]
fn flush_array_capacity_matches_section4() {
    // "10 disk drives with a transfer time of 25 ms (net bandwidth is 400
    // flushes per second)" and "a maximum bandwidth of 222 writes per sec"
    // at 45 ms.
    let ample = FlushConfig {
        drives: 10,
        transfer_time: SimTime::from_millis(25),
    };
    assert!((ample.max_flush_rate() - 400.0).abs() < 1e-6);
    let scarce = FlushConfig {
        drives: 10,
        transfer_time: SimTime::from_millis(45),
    };
    assert!((scarce.max_flush_rate() - 222.2).abs() < 0.1);
}

#[test]
fn paper_geometry_survives_and_hits_paper_bandwidth() {
    // At the paper's published minima, a 60 s run must be kill-free and
    // land near the published block-write rates (11.63 FW, 12.87 EL).
    let fw = run(&paper_cfg(0.05, vec![124], false, 60));
    assert_eq!(fw.killed, 0);
    assert!(
        (fw.metrics.log_write_rate - 11.63).abs() < 0.8,
        "FW bandwidth {} vs paper 11.63",
        fw.metrics.log_write_rate
    );

    let el = run(&paper_cfg(0.05, vec![18, 16], false, 60));
    assert_eq!(el.killed, 0);
    assert!(
        (el.metrics.log_write_rate - 12.87).abs() < 0.9,
        "EL bandwidth {} vs paper 12.87",
        el.metrics.log_write_rate
    );
    // Generation 0 carries the raw input (~11.3 blocks/s); generation 1
    // only the forwarded overflow (footnote 7).
    assert!(el.metrics.per_gen_write_rate[0] > 10.0);
    assert!(el.metrics.per_gen_write_rate[1] < 3.0);
}

#[test]
fn memory_estimates_match_paper_constants() {
    // "FW … 22 bytes for each transaction", "EL … 40 bytes for each
    // transaction and 40 bytes for each updated (but unflushed) object".
    // At 5%: ~145 concurrently active transactions (Little's law).
    let fw = run(&paper_cfg(0.05, vec![130], false, 30));
    let fw_txns = fw.metrics.peak_memory_bytes / 22;
    assert!(
        (140..=260).contains(&fw_txns),
        "FW peak transactions-in-system {fw_txns} out of range"
    );

    let el = run(&paper_cfg(0.05, vec![18, 16], false, 30));
    // EL peak = 40·LTT + 40·LOT; both peaks are a few hundred.
    assert!(el.metrics.peak_memory_bytes > 5_000);
    assert!(
        el.metrics.peak_memory_bytes < 40_000,
        "paper: memory is modest"
    );
}

#[test]
fn flush_locality_matches_queueing_argument() {
    // 25 ms case: queues are shallow, successive flush oids are nearly
    // random within each drive's 10^6 range → mean wraparound distance
    // ≈ 250 000·(something slightly under 1). Paper observed 235 000.
    let el = run(&paper_cfg(0.05, vec![18, 16], false, 60));
    let d = el.metrics.mean_seek_distance.expect("flushes happened");
    assert!(
        (150_000.0..260_000.0).contains(&d),
        "25 ms flush distance {d} out of the near-random band"
    );
}

#[test]
fn group_commit_latency_is_tens_of_milliseconds() {
    // A block fills in ~2000 B / 22.6 KB/s ≈ 88 ms; commits wait on
    // average half a fill plus the 15 ms transfer.
    let el = run(&paper_cfg(0.05, vec![18, 16], false, 30));
    let p50 = el.p50_commit_latency_ms.expect("commits happened");
    assert!(
        (15.0..150.0).contains(&p50),
        "p50 commit latency {p50} ms out of range"
    );
}
