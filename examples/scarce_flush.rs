//! Ephemeral logging under scarce flush bandwidth (§4's closing study).
//!
//! When the stable-database drives can barely keep up with the update rate
//! (222 flushes/s against 210 updates/s), committed-but-unflushed records
//! recirculate in the last generation until their flush completes — and
//! the growing backlog *increases* flush locality, a stabilising negative
//! feedback. This example measures both effects.
//!
//! ```text
//! cargo run --release --example scarce_flush [runtime_secs]
//! ```

use elog_harness::cli;
use elog_harness::experiments::scarce;
use elog_harness::sweep::{run_scenarios, ExecOptions};

const USAGE: &str = "scarce_flush [runtime_secs]
  runtime_secs            simulated seconds per run, 1 to 3600 (default 120)";

fn parse(args: Vec<String>) -> Result<u64, String> {
    let args: cli::Args = &mut args.into_iter();
    let runtime = cli::runtime_secs(args)?;
    cli::no_more(args)?;
    Ok(runtime)
}

fn main() {
    let runtime = cli::parse_env(USAGE, parse);

    let cfg = scarce::Config {
        frac_long: 0.05,
        runtime_secs: runtime,
    };
    println!("comparing 25 ms (ample) vs 45 ms (scarce) flush transfers, {runtime} s runs...\n");
    let outcomes = run_scenarios(&scarce::scenarios_for(&cfg), &ExecOptions::default());
    let cases = scarce::cases(&outcomes);
    println!("{}", scarce::table(&cases).render());

    if let Some(gain) = scarce::locality_gain(&cases) {
        println!("locality gain under scarcity: {gain:.2}x shorter seeks");
    }
    let scarce_case = cases.last().expect("scarce case ran");
    println!(
        "scarce case: {} recirculated records, flush utilisation {:.0}%",
        scarce_case.measured.metrics.stats.recirculated_records,
        scarce_case.measured.metrics.flush_utilisation * 100.0
    );
    println!(
        "\n(paper: 31 blocks and 13.96 w/s at 45 ms; mean oid distance 109,000 vs 235,000 at 25 ms)"
    );
}
