//! Head-to-head: firewall logging vs ephemeral logging on one workload.
//!
//! Reproduces a single point of Figures 4–6: at the 5 % long-transaction
//! mix, find each technique's minimum disk space, then measure bandwidth
//! and memory at that minimum.
//!
//! ```text
//! cargo run --release --example compare_fw_el [frac_long] [runtime_secs]
//! ```

use elog_core::MemoryModel;
use elog_harness::minspace::paper_base;
use elog_harness::runner::run;
use elog_harness::{cli, SearchRequest};

const USAGE: &str = "compare_fw_el [frac_long] [runtime_secs]
  frac_long               fraction of 10 s transactions, in [0, 1]
                          (default 0.05)
  runtime_secs            simulated seconds per run, 1 to 3600 (default 120)";

fn parse(args: Vec<String>) -> Result<(f64, u64), String> {
    let args: cli::Args = &mut args.into_iter();
    let frac_long: f64 = cli::value_or("frac_long", args, 0.05)?;
    if !(0.0..=1.0).contains(&frac_long) {
        return Err(format!("frac_long {frac_long}: must lie in [0, 1]"));
    }
    let runtime = cli::runtime_secs(args)?;
    cli::no_more(args)?;
    Ok((frac_long, runtime))
}

fn main() {
    let (frac_long, runtime) = cli::parse_env(USAGE, parse);
    println!(
        "mix: {:.0}% ten-second transactions, {runtime} s simulated\n",
        frac_long * 100.0
    );

    // Firewall: single log, kill the oldest transaction when space runs out.
    let mut fw_base = paper_base(frac_long, false, runtime);
    fw_base.el.memory_model = MemoryModel::Firewall;
    let fw_min = SearchRequest::min_space(&fw_base, 1).run().min;
    let mut cfg = fw_base.clone();
    cfg.el.log.generation_blocks = fw_min.generation_blocks.clone();
    let fw = run(&cfg);

    // Ephemeral logging: two generations, no recirculation (Figure 4 setup).
    let el_base = paper_base(frac_long, false, runtime);
    let el_min = SearchRequest::min_space(&el_base, 2).run().min;
    let mut cfg = el_base.clone();
    cfg.el.log.generation_blocks = el_min.generation_blocks.clone();
    let el = run(&cfg);

    println!("                    {:>12} {:>16}", "firewall", "ephemeral");
    println!(
        "min disk space      {:>12} {:>16}",
        format!("{} blk", fw_min.total_blocks),
        format!(
            "{:?} = {} blk",
            el_min.generation_blocks, el_min.total_blocks
        )
    );
    println!(
        "log bandwidth       {:>12} {:>16}",
        format!("{:.2} w/s", fw.metrics.log_write_rate),
        format!("{:.2} w/s", el.metrics.log_write_rate)
    );
    println!(
        "peak memory         {:>12} {:>16}",
        format!("{} B", fw.metrics.peak_memory_bytes),
        format!("{} B", el.metrics.peak_memory_bytes)
    );
    println!(
        "kills at minimum    {:>12} {:>16}",
        fw.killed.to_string(),
        el.killed.to_string()
    );
    println!();
    println!(
        "space reduction     : {:.2}x",
        f64::from(fw_min.total_blocks) / f64::from(el_min.total_blocks)
    );
    println!(
        "bandwidth premium   : {:+.1}%",
        (el.metrics.log_write_rate / fw.metrics.log_write_rate - 1.0) * 100.0
    );
    println!(
        "memory premium      : {:.2}x",
        el.metrics.peak_memory_bytes as f64 / fw.metrics.peak_memory_bytes as f64
    );
    println!("\n(paper, 5% mix over 500 s: 123 vs 34 blocks = 3.6x, +11% bandwidth)");
}
