//! The command lines of the harness binaries.
//!
//! `elsim` and `elserve` take the same run flags (`--gens --recirc
//! --frac-long --tps --poisson --runtime --drives --flush-ms --seed
//! --phases`); [`RunFlags`] parses them once and validates them into a
//! [`RunConfig`], so a 1-tenant `elserve` and `elsim` hand the run loop the
//! same configuration by construction. Everything arriving from the shell
//! is checked here — geometry, rates, tenant counts — and comes back as a
//! one-line `Err` naming the flag, so the `expect("validated
//! configuration")`s further in hold. [`parse_env`] is every binary's
//! front door: `--help` prints the usage text and exits 0, an `Err` goes to
//! stderr and exits 2. `repro` keeps its own flag loop and shares [`value`] /
//! [`positive`] with this one. [`print`] is every binary's way to stdout.

use crate::latsearch::{prefix_volume, MAX_AXES, MAX_PREFIX_COLUMNS};
use crate::runner::RunConfig;
use crate::serve::{parse_oid_ranges, validate_layout, validate_tenants, ServeConfig};
use elog_core::{ElConfig, MemoryModel};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::{ArrivalProcess, PhaseSchedule, MAX_RATE_TPS};
use std::str::FromStr;

/// The flag table of the run flags `elsim` and `elserve` share.
macro_rules! run_flags_usage {
    () => {
        "  --gens G0,G1[,G2...]    generation sizes in blocks (default 18,16)
  --recirc                enable recirculation in the last generation
  --frac-long P           fraction of 10 s transactions (default 0.05)
  --tps R                 arrivals per second, per tenant under elserve
                          (default 100; at most 1000000, one per simulated
                          microsecond, also once scaled by --phases)
  --poisson               Poisson instead of deterministic arrivals
  --runtime S             simulated seconds (default 500)
  --drives N              flush drives (default 10)
  --flush-ms T            flush transfer time, ms (default 25)
  --seed N                random seed, decimal or 0x-prefixed hex (default
                          0x5EED1993; under elserve tenant 0 uses it raw,
                          tenants 1.. draw independent splitmix64 streams
                          from it)
  --phases SPEC           piecewise workload schedule
                          `start:frac_long[@rate_factor],...` over the
                          paper type table, e.g. `0:0.1,160:0.4,330:0.1`
                          (first start must be 0; seconds, ascending)"
    };
}

/// `elsim --help`.
pub const ELSIM_USAGE: &str = concat!(
    "elsim [options]
  --mode el|fw            technique (default el)
  --fw-blocks N           FW log size (default 123; implies --mode fw)
",
    run_flags_usage!(),
    "
  --min-space             search the minimum geometry instead of running
                          (1 gen: firewall binary search; 2: gen0 scan x
                          gen1 bisection; 3+: lattice search with the
                          given sizes as per-axis ceilings)
  --jobs N                worker threads for --min-space probes
                          (default: the machine's parallelism)
  --no-cert               disable the consumption certificates: simulate
                          every probe in full (the output must not
                          change)
  --adaptive              run the online adaptive generation controller
                          (stderr summary; stdout is byte-identical to
                          a non-adaptive run when the workload is
                          static, because the controller never acts)"
);

/// `elserve --help`.
pub const ELSERVE_USAGE: &str = concat!(
    "elserve [options]
  --tenants T             logical tenants (default 2, at most 65536; 1
                          with --budget 0 is the elsim run: the stdout is
                          byte-identical)
  --budget N              per-tenant live-record admission budget; a
                          tenant at its budget has arrivals refused
                          until flushes drain its footprint (default 0
                          = unlimited; refusals never touch neighbours)
  --oid-ranges B:L,...    explicit per-tenant oid ranges (one BASE:LEN
                          per tenant; must tile the whole oid space
                          disjointly). Default: an even partition
",
    run_flags_usage!()
);

/// A binary's command line, as its parser consumes it.
pub type Args<'a> = &'a mut dyn Iterator<Item = String>;

/// Parses the process's command line with `parse`, or ends the process:
/// `--help` / `-h` anywhere prints `usage` to stdout and exits 0; a parse
/// error prints its one line to stderr and exits 2.
pub fn parse_env<T>(usage: &str, parse: impl FnOnce(Vec<String>) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print(&format!("{usage}\n"));
        std::process::exit(0);
    }
    parse(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Writes `text` to stdout, or ends the process: a reader that closed the
/// pipe (`repro | head -1`) has what it asked for, so that is a quiet exit
/// 0; any other write error is one stderr line and exit 2. `println!`
/// panics on both, which `panic = "abort"` turns into SIGABRT after all
/// the work is done.
pub fn print(text: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(2);
    }
}

/// The value following `flag`, parsed.
pub fn value<T: FromStr>(flag: &str, args: Args) -> Result<T, String> {
    let raw = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag} {raw}: not a valid value"))
}

/// Like [`value`], for counts that must be at least 1.
pub fn positive(flag: &str, args: Args) -> Result<usize, String> {
    match value(flag, args)? {
        0 => Err(format!("{flag} 0: must be at least 1")),
        n => Ok(n),
    }
}

/// Most blocks one generation may have: 2 GiB of simulated log, 256× the
/// largest search ceiling. The ring allocates a slot per block up front, so
/// a size from the shell is bounded before it sizes an allocation.
const MAX_GENERATION_BLOCKS: u32 = 1 << 20;

/// The run flags `elsim` and `elserve` share, at their defaults (the
/// paper's base configuration).
struct RunFlags {
    /// `--mode fw` / `--fw-blocks` (`elsim` only): firewall memory pricing.
    firewall: bool,
    /// `--adaptive` (`elsim` only).
    adaptive: bool,
    gens: Vec<u32>,
    /// The flag `gens` came from, for error messages: `--gens`, or
    /// `--fw-blocks` (`elsim` only).
    gens_flag: &'static str,
    recirc: bool,
    frac_long: f64,
    tps: f64,
    poisson: bool,
    runtime: u64,
    drives: u32,
    flush_ms: u64,
    seed: u64,
    phases: Option<PhaseSchedule>,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            firewall: false,
            adaptive: false,
            gens: vec![18, 16],
            gens_flag: "--gens",
            recirc: false,
            frac_long: 0.05,
            tps: 100.0,
            poisson: false,
            runtime: 500,
            drives: 10,
            flush_ms: 25,
            seed: 0x5EED_1993,
            phases: None,
        }
    }
}

impl RunFlags {
    /// Consumes `flag` (and its value) when it is a shared run flag;
    /// `Ok(false)` leaves it to the binary's own flags.
    fn accept(&mut self, flag: &str, args: Args) -> Result<bool, String> {
        match flag {
            "--gens" => {
                let list: String = value(flag, args)?;
                self.gens_flag = "--gens";
                self.gens = list
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("--gens {list}: not a list of block counts"))?;
            }
            "--recirc" => self.recirc = true,
            "--frac-long" => self.frac_long = value(flag, args)?,
            "--tps" => self.tps = value(flag, args)?,
            "--poisson" => self.poisson = true,
            "--runtime" => self.runtime = value(flag, args)?,
            "--drives" => self.drives = value(flag, args)?,
            "--flush-ms" => self.flush_ms = value(flag, args)?,
            "--seed" => {
                let raw: String = value(flag, args)?;
                let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                };
                self.seed = parsed.map_err(|_| format!("{flag} {raw}: not a valid value"))?;
            }
            "--phases" => {
                let spec: String = value(flag, args)?;
                self.phases =
                    Some(PhaseSchedule::parse(&spec).map_err(|e| format!("--phases {spec}: {e}"))?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validates the flags into a run configuration.
    fn build(self) -> Result<RunConfig, String> {
        if !(0.0..=1.0).contains(&self.frac_long) {
            return Err(format!(
                "--frac-long {}: must lie in [0, 1]",
                self.frac_long
            ));
        }
        let rate_tps = self.tps;
        let arrivals = if self.poisson {
            ArrivalProcess::Poisson { rate_tps }
        } else {
            ArrivalProcess::Deterministic { rate_tps }
        };
        arrivals
            .validate()
            .map_err(|e| format!("--tps {rate_tps}: {e}"))?;
        if let Some(phases) = &self.phases {
            let factor = phases
                .phases()
                .iter()
                .map(|p| p.rate_factor)
                .fold(1.0, f64::max);
            if rate_tps * factor > MAX_RATE_TPS {
                return Err(format!(
                    "--phases: the largest rate factor lifts --tps {rate_tps} above \
                     {MAX_RATE_TPS} arrivals per second, one per microsecond of the \
                     simulation clock"
                ));
            }
        }
        let gens_flag = self.gens_flag;
        let log = LogConfig {
            generation_blocks: self.gens,
            recirculation: self.recirc,
            ..LogConfig::default()
        };
        let gens = &log.generation_blocks;
        log.validate()
            .map_err(|e| format!("{gens_flag} {gens:?}: {e}"))?;
        if let Some(big) = gens.iter().find(|&&b| b > MAX_GENERATION_BLOCKS) {
            return Err(format!(
                "{gens_flag} {gens:?}: a generation of {big} blocks exceeds the \
                 {MAX_GENERATION_BLOCKS}-block ceiling"
            ));
        }
        let flush = FlushConfig {
            drives: self.drives,
            transfer_time: SimTime::from_millis(self.flush_ms),
        };
        flush
            .validate()
            .map_err(|e| format!("--drives {} --flush-ms {}: {e}", self.drives, self.flush_ms))?;
        let mut el = ElConfig::ephemeral(log, flush);
        if u64::from(self.drives) > el.db.num_objects {
            return Err(format!(
                "--drives {}: at most one drive per object ({} objects)",
                self.drives, el.db.num_objects
            ));
        }
        if self.firewall {
            el.memory_model = MemoryModel::Firewall;
        }
        Ok(RunConfig::paper(self.frac_long, el)
            .with_arrivals(arrivals)
            .runtime_secs(self.runtime)
            .seed(self.seed)
            .with_phases(self.phases)
            .adaptive(self.adaptive))
    }
}

/// What an `elsim` command line asks for.
#[derive(Debug)]
pub struct Elsim {
    /// The configuration to run (or to search from, under `--min-space`).
    pub run: RunConfig,
    /// `--min-space`: search the minimum geometry instead of running.
    pub min_space: bool,
    /// `--jobs`: worker threads for the search's probes.
    pub jobs: usize,
    /// Consumption certificates in the search; `--no-cert` clears this.
    pub certificates: bool,
}

/// Parses and validates an `elsim` command line (without the program
/// name). The error is one line for stderr.
pub fn elsim(args: impl IntoIterator<Item = String>) -> Result<Elsim, String> {
    let args: Args = &mut args.into_iter();
    let mut run = RunFlags::default();
    let mut min_space = false;
    let mut jobs = crate::sweep::default_jobs();
    let mut certificates = true;
    while let Some(arg) = args.next() {
        if run.accept(&arg, args)? {
            continue;
        }
        match arg.as_str() {
            "--mode" => {
                run.firewall = match value::<String>("--mode", args)?.as_str() {
                    "el" => false,
                    "fw" => true,
                    other => return Err(format!("--mode {other}: expected `el` or `fw`")),
                }
            }
            "--fw-blocks" => {
                run.firewall = true;
                run.gens_flag = "--fw-blocks";
                run.gens = vec![value("--fw-blocks", args)?];
            }
            "--adaptive" => run.adaptive = true,
            "--min-space" => min_space = true,
            "--no-cert" => certificates = false,
            "--jobs" => jobs = positive("--jobs", args)?,
            "--tenants" | "--budget" | "--oid-ranges" => {
                return Err(format!(
                    "{arg} is an elserve flag; elsim runs a single workload"
                ));
            }
            _ => return Err(format!("unknown flag `{arg}`; elsim --help lists them")),
        }
    }
    if run.gens.len() > MAX_AXES {
        return Err(format!(
            "--gens supports at most {MAX_AXES} generations, got {}",
            run.gens.len()
        ));
    }
    let firewall = run.firewall;
    let run = run.build()?;
    let log = &run.el.log;
    let gens = &log.generation_blocks;
    if min_space && !firewall && gens.len() >= 3 {
        // The leading sizes are the lattice search's scan ceilings.
        let columns = prefix_volume(log.gap_blocks, &gens[..gens.len() - 1]);
        if columns > MAX_PREFIX_COLUMNS {
            return Err(format!(
                "--gens {gens:?}: --min-space would scan {columns} prefix columns (at most \
                 {MAX_PREFIX_COLUMNS}); lower the leading sizes, which act as scan ceilings"
            ));
        }
    }
    Ok(Elsim {
        run,
        min_space,
        jobs,
        certificates,
    })
}

/// Parses and validates an `elserve` command line (without the program
/// name) into the serve configuration to run. The error is one line for
/// stderr.
pub fn elserve(args: impl IntoIterator<Item = String>) -> Result<ServeConfig, String> {
    let args: Args = &mut args.into_iter();
    let mut run = RunFlags::default();
    let mut tenants = 2usize;
    let mut budget = 0u64;
    let mut oid_ranges = None;
    while let Some(arg) = args.next() {
        if run.accept(&arg, args)? {
            continue;
        }
        match arg.as_str() {
            "--tenants" => tenants = value("--tenants", args)?,
            "--budget" => budget = value("--budget", args)?,
            "--oid-ranges" => {
                let spec: String = value("--oid-ranges", args)?;
                oid_ranges =
                    Some(parse_oid_ranges(&spec).map_err(|e| format!("--oid-ranges {spec}: {e}"))?);
            }
            _ => return Err(format!("unknown flag `{arg}`; elserve --help lists them")),
        }
    }
    let base = run.build()?;
    let num_objects = base.el.db.num_objects;
    validate_tenants(tenants, num_objects).map_err(|e| format!("--tenants {tenants}: {e}"))?;
    let cfg = ServeConfig::new(base, tenants).with_budget(budget);
    let Some(layout) = oid_ranges else {
        return Ok(cfg);
    };
    if layout.tenants() != tenants {
        return Err(format!(
            "--oid-ranges lists {} ranges for {tenants} tenants; one range per tenant",
            layout.tenants()
        ));
    }
    validate_layout(&layout, num_objects).map_err(|e| format!("--oid-ranges: {e}"))?;
    Ok(cfg.with_layout(layout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::TenantLayout;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The ten flags both binaries document, each with a non-default
    /// value.
    const SHARED: &str = "--gens 36,32,8 --recirc --frac-long 0.2 --tps 50 --poisson \
        --runtime 60 --drives 8 --flush-ms 45 --seed 7 --phases 0:0.1,30:0.4@2";

    #[test]
    fn every_documented_flag_parses() {
        let elsim_lines = [
            "",
            SHARED,
            "--mode el",
            "--mode fw --gens 123",
            "--fw-blocks 123",
            "--adaptive",
            "--min-space --jobs 2 --no-cert",
        ];
        for line in elsim_lines {
            assert!(elsim(args(line)).is_ok(), "elsim {line}");
        }
        let elserve_lines = [
            "",
            SHARED,
            "--tenants 4 --budget 64",
            "--tenants 65536",
            "--tenants 2 --oid-ranges 0:4000000,4000000:6000000",
        ];
        for line in elserve_lines {
            assert!(elserve(args(line)).is_ok(), "elserve {line}");
        }
    }

    #[test]
    fn flags_land_in_the_configuration() {
        let e = elsim(args(&format!("{SHARED} --adaptive --min-space --jobs 3"))).unwrap();
        assert_eq!(e.run.el.log.generation_blocks, vec![36, 32, 8]);
        assert!(e.run.el.log.recirculation && e.run.adaptive && e.min_space);
        assert_eq!(e.run.arrivals, ArrivalProcess::Poisson { rate_tps: 50.0 });
        assert_eq!(e.run.runtime, SimTime::from_secs(60));
        assert_eq!((e.run.el.flush.drives, e.run.seed, e.jobs), (8, 7, 3));
        assert_eq!(e.run.el.flush.transfer_time, SimTime::from_millis(45));
        assert!(e.run.phases.is_some());

        let fw = elsim(args("--fw-blocks 123")).unwrap().run.el;
        assert_eq!(fw.log.generation_blocks, vec![123]);
        assert_eq!(fw.memory_model, MemoryModel::Firewall);

        let s = elserve(args("--tenants 4 --budget 64")).unwrap();
        assert_eq!((s.tenants(), s.budget), (4, 64));
        let even = TenantLayout::even(s.base.el.db.num_objects, 4);
        assert_eq!(s.base.tenants, Some(even));
    }

    #[test]
    fn seed_reads_decimal_and_the_hex_the_usage_text_prints() {
        let seed = |line: &str| elsim(args(line)).map(|e| e.run.seed);
        assert_eq!(seed(""), Ok(0x5EED_1993));
        assert_eq!(seed("--seed 0x5EED1993"), seed(""));
        assert_eq!(seed("--seed 1592596883"), seed(""));
        assert_eq!(seed("--seed 0X5eed1993"), seed(""));
        for bad in ["--seed 0x", "--seed 0xg", "--seed 5EED1993", "--seed -1"] {
            let err = seed(bad).expect_err(bad);
            assert!(err.contains("--seed"), "`{bad}` → `{err}`");
        }
    }

    #[test]
    fn one_tenant_elserve_builds_elsims_configuration() {
        for line in ["", SHARED] {
            let sim = elsim(args(line)).unwrap().run;
            let serve = elserve(args(&format!("{line} --tenants 1"))).unwrap();
            assert_eq!(
                format!("{:?}", serve.base.with_tenants(None)),
                format!("{sim:?}"),
                "`{line}`"
            );
        }
    }

    #[test]
    fn hostile_values_are_errors_naming_the_flag() {
        type Parse = fn(Vec<String>) -> Result<(), String>;
        let sim: Parse = |a| elsim(a).map(drop);
        let serve: Parse = |a| elserve(a).map(drop);
        let table: [(Parse, &str, &str); 36] = [
            (sim, "--gens 0", "--gens"),
            (sim, "--gens 18,0", "--gens"),
            (sim, "--gens 18,x", "--gens"),
            (sim, "--gens 9,9,9,9,9,9,9,9,9", "--gens"),
            (sim, "--gens", "--gens"),
            (
                sim,
                "--gens 200,200,200,8 --runtime 5 --min-space",
                "--gens",
            ),
            (serve, "--tenants 3 --gens 0", "--gens"),
            // Sizes that would otherwise size the ring's allocation, and a
            // drive count `FlushArray::new` asserts against.
            (sim, "--gens 4294967295,4294967295 --runtime 1", "--gens"),
            (serve, "--gens 18,1048577", "--gens"),
            (sim, "--fw-blocks 4294967295 --runtime 1", "--fw-blocks"),
            (sim, "--drives 4294967295 --runtime 1", "--drives"),
            (sim, "--tps 0", "--tps"),
            (sim, "--tps nan", "--tps"),
            (serve, "--tps -5", "--tps"),
            // Rates finer than the 1 µs clock: arrivals would pile onto one
            // instant (or never advance it) instead of erroring.
            (sim, "--tps 1e12 --runtime 1", "--tps"),
            (serve, "--tps 1e12 --runtime 1", "--tps"),
            (sim, "--poisson --tps 1e9 --runtime 1", "--tps"),
            (sim, "--tps 1500000", "--tps"),
            (sim, "--phases 0:0.1@1e300 --runtime 5", "--phases"),
            (serve, "--tps 600000 --phases 0:0.1,5:0.1@2", "--phases"),
            (sim, "--mode bogus", "--mode"),
            (sim, "--frac-long 2", "--frac-long"),
            (sim, "--drives 0", "--drives"),
            (sim, "--flush-ms 0", "--flush-ms"),
            (sim, "--shards 2", "--shards"),
            (serve, "--shards 2", "--shards"),
            (sim, "--probe-jobs 4", "--probe-jobs"),
            (serve, "--probe-jobs 4", "--probe-jobs"),
            (sim, "--jobs 0", "--jobs"),
            (sim, "--phases 5:0.1", "--phases"),
            (sim, "--tenants 2", "--tenants"),
            (serve, "--tenants 0", "--tenants"),
            (serve, "--tenants 65537", "--tenants"),
            (serve, "--tenants 99999999", "--tenants"),
            (serve, "--tenants 3 --oid-ranges 0:5,5:5", "--oid-ranges"),
            (serve, "--jobs 2", "--jobs"),
        ];
        for (parse, line, flag) in table {
            let err = parse(args(line)).expect_err(line);
            assert!(
                err.contains(flag),
                "`{line}` → `{err}` does not name {flag}"
            );
            assert!(!err.contains('\n'), "`{line}` → multi-line `{err}`");
        }
        // The ceilings themselves are legal.
        let at_ceiling = format!("--gens 18,{MAX_GENERATION_BLOCKS} --drives 10000000");
        assert!(elsim(args(&at_ceiling)).is_ok());
        assert!(elsim(args("--tps 1000000")).is_ok());
        assert!(elsim(args("--tps 500000 --phases 0:0.1@2")).is_ok());
        // The two tenant limits are named in the message.
        let err = elserve(args("--tenants 65537")).unwrap_err();
        assert!(err.contains("65536"), "{err}");
        let err = elserve(args("--tenants 99999999")).unwrap_err();
        assert!(err.contains("10000000 objects"), "{err}");
    }
}
