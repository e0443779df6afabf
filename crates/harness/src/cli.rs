//! The command lines of the harness binaries.
//!
//! [`elsim`] and [`repro`] parse the two binaries' flags. [`elsim`]
//! validates the run flags into one [`RunConfig`], whose one [`TxMix`]
//! comes from `--frac-long` or `--phases`. Everything arriving from the
//! shell is checked here — geometry, rates, the mix — and comes back as a
//! one-line `Err` naming the flag, so the `expect("validated
//! configuration")`s further in hold. [`parse_env`] is
//! every binary's (and example's) front door: `--help` prints the usage
//! text and exits 0, an `Err` goes to stderr and exits 2. Both parsers read values with
//! [`value`] / [`positive`]; the examples read their positional arguments
//! with [`value_or`], [`runtime_secs`] and [`no_more`]. [`print()`] is
//! every binary's way to stdout.

use crate::experiments::registry_with;
use crate::latsearch::MAX_AXES;
use crate::runner::RunConfig;
use crate::sweep::ExecOptions;
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::{ArrivalProcess, TxMix};
use std::str::FromStr;

/// `elsim --help`.
pub const ELSIM_USAGE: &str = "elsim [options]
  --gens G0,G1[,G2...]    generation sizes in blocks (default 18,16); one
                          size without --recirc is the FW log, e.g. 123
  --recirc                enable recirculation in the last generation
  --frac-long P           fraction of 10 s transactions (default 0.05)
  --tps R                 arrivals per second (default 100; at most
                          1000000, one per simulated microsecond)
  --poisson               Poisson instead of deterministic arrivals
  --runtime S             simulated seconds (default 500)
  --drives N              flush drives (default 10)
  --flush-ms T            flush transfer time, ms (default 25)
  --seed N                random seed, decimal or 0x-prefixed hex (default
                          0x5EED1993)
  --phases SPEC           piecewise long-fraction schedule
                          `start:frac_long,...`, e.g.
                          `0:0.1,160:0.4,330:0.1` (first start must be 0;
                          seconds, ascending); instead of --frac-long
  --min-space             search the minimum geometry instead of running,
                          over every geometry with as many generations as
                          --gens gives (their sizes are not read; 1 gen
                          without --recirc: the firewall log)
  --no-cert               disable the consumption certificates: simulate
                          every probe in full (the output must not
                          change)
  --adaptive              run the online adaptive generation controller
                          (stderr summary; stdout is byte-identical to
                          a non-adaptive run when the workload is
                          static, because the controller never acts)";

/// `repro --help`.
pub const REPRO_USAGE: &str = "usage: repro [--quick] [--jobs N] [--gens N] [--only NAME] \
    [--csv DIR] [--progress] [--no-cert]";

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

/// The next positional argument, parsed and named as by [`value`], or
/// `default` once the command line has run out.
pub fn value_or<T: FromStr>(name: &str, args: Args, default: T) -> Result<T, String> {
    match args.next() {
        Some(raw) => value(name, &mut std::iter::once(raw)),
        None => Ok(default),
    }
}

/// Errs on an argument left over once a positional command line is read.
pub fn no_more(args: Args) -> Result<(), String> {
    match args.next() {
        Some(extra) => Err(format!("unexpected argument `{extra}`; --help lists them")),
        None => Ok(()),
    }
}

/// The examples' optional `runtime_secs` argument: simulated seconds per
/// run, 120 when absent. Zero measures nothing, and more than an hour is a
/// paper-scale sweep, which is `repro`'s job.
pub fn runtime_secs(args: Args) -> Result<u64, String> {
    let secs = value_or("runtime_secs", args, 120)?;
    if !(1..=3600).contains(&secs) {
        return Err(format!(
            "runtime_secs {secs}: must be 1 to 3600 simulated seconds"
        ));
    }
    Ok(secs)
}

/// Most blocks one generation may have: 2 GiB of simulated log, 1 024×
/// the search's doubling stop. The ring allocates a slot per block up front, so
/// a size from the shell is bounded before it sizes an allocation.
const MAX_GENERATION_BLOCKS: u32 = 1 << 20;

/// The flags that shape the run, at their defaults (the paper's base
/// configuration).
struct RunFlags {
    adaptive: bool,
    gens: Vec<u32>,
    recirc: bool,
    /// `--frac-long`, when given.
    frac_long: Option<f64>,
    /// `--phases`, when given.
    phases: Option<TxMix>,
    tps: f64,
    poisson: bool,
    runtime: u64,
    drives: u32,
    flush_ms: u64,
    seed: u64,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            adaptive: false,
            gens: vec![18, 16],
            recirc: false,
            frac_long: None,
            phases: None,
            tps: 100.0,
            poisson: false,
            runtime: 500,
            drives: 10,
            flush_ms: 25,
            seed: 0x5EED_1993,
        }
    }
}

impl RunFlags {
    /// Validates the flags into a run configuration.
    fn build(self) -> Result<RunConfig, String> {
        if self.frac_long.is_some() && self.phases.is_some() {
            return Err("--phases and --frac-long both set the transaction mix; give one".into());
        }
        let frac_long = self.frac_long.unwrap_or(0.05);
        if !(0.0..=1.0).contains(&frac_long) {
            return Err(format!("--frac-long {frac_long}: must lie in [0, 1]"));
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
        let log = LogConfig {
            generation_blocks: self.gens,
            recirculation: self.recirc,
            ..LogConfig::default()
        };
        let gens = &log.generation_blocks;
        log.validate()
            .map_err(|e| format!("--gens {gens:?}: {e}"))?;
        if let Some(big) = gens.iter().find(|&&b| b > MAX_GENERATION_BLOCKS) {
            return Err(format!(
                "--gens {gens:?}: a generation of {big} blocks exceeds the \
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
        let el = ElConfig::ephemeral(log, flush);
        if u64::from(self.drives) > el.db.num_objects {
            return Err(format!(
                "--drives {}: at most one drive per object ({} objects)",
                self.drives, el.db.num_objects
            ));
        }
        let run = RunConfig::paper(frac_long, el)
            .with_arrivals(arrivals)
            .runtime_secs(self.runtime)
            .seed(self.seed)
            .adaptive(self.adaptive);
        Ok(match self.phases {
            Some(phased) => run.with_mix(phased),
            None => run,
        })
    }
}

/// What an `elsim` command line asks for.
#[derive(Debug)]
pub struct Elsim {
    /// The configuration to run (or to search from, under `--min-space`).
    pub run: RunConfig,
    /// `--min-space`: search the minimum geometry instead of running.
    pub min_space: bool,
    /// Consumption certificates in the search; `--no-cert` clears this.
    pub certificates: bool,
}

/// Parses and validates an `elsim` command line (without the program
/// name). The error is one line for stderr.
pub fn elsim(args: impl IntoIterator<Item = String>) -> Result<Elsim, String> {
    let args: Args = &mut args.into_iter();
    let mut run = RunFlags::default();
    let mut min_space = false;
    let mut certificates = true;
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--gens" => {
                let list: String = value(flag, args)?;
                run.gens = list
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("--gens {list}: not a list of block counts"))?;
            }
            "--recirc" => run.recirc = true,
            "--frac-long" => run.frac_long = Some(value(flag, args)?),
            "--tps" => run.tps = value(flag, args)?,
            "--poisson" => run.poisson = true,
            "--runtime" => run.runtime = value(flag, args)?,
            "--drives" => run.drives = value(flag, args)?,
            "--flush-ms" => run.flush_ms = value(flag, args)?,
            "--seed" => {
                let raw: String = value(flag, args)?;
                let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                };
                run.seed = parsed.map_err(|_| format!("{flag} {raw}: not a valid value"))?;
            }
            "--phases" => {
                let spec: String = value(flag, args)?;
                run.phases =
                    Some(TxMix::parse(&spec).map_err(|e| format!("--phases {spec}: {e}"))?);
            }
            "--adaptive" => run.adaptive = true,
            "--min-space" => min_space = true,
            "--no-cert" => certificates = false,
            _ => return Err(format!("unknown flag `{arg}`; elsim --help lists them")),
        }
    }
    if run.gens.len() > MAX_AXES {
        return Err(format!(
            "--gens supports at most {MAX_AXES} generations, got {}",
            run.gens.len()
        ));
    }
    Ok(Elsim {
        run: run.build()?,
        min_space,
        certificates,
    })
}

/// What a `repro` command line asks for.
#[derive(Debug)]
pub struct ReproOptions {
    /// `--quick`: shrunk runtimes and sweeps.
    pub quick: bool,
    /// `--gens`: fig_ngen's generation count.
    pub gens: usize,
    /// `--only`: keep experiments whose name contains this (lower case).
    pub only: Option<String>,
    /// `--csv`: the directory the tables are also written to (created).
    pub csv_dir: Option<std::path::PathBuf>,
    /// `--jobs`, `--progress` and `--no-cert`.
    pub exec: ExecOptions,
}

/// Parses and validates a `repro` command line (without the program
/// name), creating the `--csv` directory. The error is one line for
/// stderr.
pub fn repro(args: impl IntoIterator<Item = String>) -> Result<ReproOptions, String> {
    let mut opts = ReproOptions {
        quick: false,
        gens: 3,
        only: None,
        csv_dir: None,
        exec: ExecOptions::default(),
    };
    let args: Args = &mut args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--progress" => opts.exec.progress = true,
            "--no-cert" => opts.exec.certificates = false,
            "--jobs" => opts.exec.jobs = positive("--jobs", args)?,
            "--gens" => {
                opts.gens = positive("--gens", args)?;
                if opts.gens > MAX_AXES {
                    return Err(format!(
                        "--gens {}: the lattice search supports at most {MAX_AXES} generations",
                        opts.gens
                    ));
                }
            }
            "--only" => opts.only = Some(value::<String>("--only", args)?.to_lowercase()),
            "--csv" => {
                let dir = std::path::PathBuf::from(value::<String>("--csv", args)?);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("--csv {}: cannot create: {e}", dir.display()))?;
                opts.csv_dir = Some(dir);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if let Some(only) = &opts.only {
        let names: Vec<String> = registry_with(opts.gens)
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        if !names.iter().any(|n| n.to_lowercase().contains(only)) {
            return Err(format!(
                "--only {only:?} matches no experiment; the registry holds {}",
                names.join(", ")
            ));
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The nine workload and geometry flags, each with a non-default value;
    /// `--phases` sets the mix, so `--frac-long` cannot join them.
    const RUN: &str = "--gens 36,32,8 --recirc --tps 50 --poisson \
        --runtime 60 --drives 8 --flush-ms 45 --seed 7 --phases 0:0.1,30:0.4";

    #[test]
    fn every_documented_flag_parses() {
        let lines = [
            "",
            RUN,
            "--gens 123",
            "--adaptive",
            "--min-space --no-cert",
            "--frac-long 0.2",
            "--frac-long 0.1 --frac-long 0.2",
            "--phases 0:0.1 --phases 0:0.2,5:0.3",
        ];
        for line in lines {
            assert!(elsim(args(line)).is_ok(), "elsim {line}");
        }
    }

    #[test]
    fn flags_land_in_the_configuration() {
        let e = elsim(args(&format!("{RUN} --adaptive --min-space"))).unwrap();
        assert_eq!(e.run.el.log.generation_blocks, vec![36, 32, 8]);
        assert!(e.run.el.log.recirculation && e.run.adaptive && e.min_space);
        assert_eq!(e.run.arrivals, ArrivalProcess::Poisson { rate_tps: 50.0 });
        assert_eq!(e.run.runtime, SimTime::from_secs(60));
        assert_eq!((e.run.el.flush.drives, e.run.seed), (8, 7));
        assert_eq!(e.run.el.flush.transfer_time, SimTime::from_millis(45));
        assert_eq!(e.run.mix, TxMix::phased(&[(0, 0.1), (30, 0.4)]));
        assert_eq!(e.run.tenants, None);

        let mix = |line: &str| elsim(args(line)).unwrap().run.mix;
        assert_eq!(mix(""), TxMix::paper_mix(0.05));
        assert_eq!(mix("--frac-long 0.2"), TxMix::paper_mix(0.2));
        assert_eq!(mix("--phases 0:0.2"), TxMix::paper_mix(0.2));
        // A repeated flag keeps its last value.
        assert_eq!(
            mix("--frac-long 0.1 --frac-long 0.2"),
            TxMix::paper_mix(0.2)
        );
        assert_eq!(mix("--phases 0:0.4 --phases 0:0.2"), TxMix::paper_mix(0.2));

        let fw = elsim(args("--gens 123")).unwrap().run.el;
        assert_eq!(fw.log.generation_blocks, vec![123]);
        assert!(fw.log.is_firewall());
        let recirculating = elsim(args("--gens 123 --recirc")).unwrap().run.el;
        assert!(!recirculating.log.is_firewall());
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
    fn hostile_values_are_errors_naming_the_flag() {
        let table = [
            ("--gens 0", "--gens"),
            ("--gens 18,0", "--gens"),
            ("--gens 18,x", "--gens"),
            ("--gens 9,9,9,9,9,9,9,9,9", "--gens"),
            ("--gens", "--gens"),
            // Sizes that would otherwise size the ring's allocation, and a
            // drive count `FlushArray::new` asserts against.
            ("--gens 4294967295,4294967295 --runtime 1", "--gens"),
            ("--gens 18,1048577", "--gens"),
            ("--gens 4294967295 --runtime 1", "--gens"),
            ("--drives 4294967295 --runtime 1", "--drives"),
            ("--tps 0", "--tps"),
            ("--tps nan", "--tps"),
            ("--tps -5", "--tps"),
            // Rates finer than the 1 µs clock: arrivals would pile onto one
            // instant (or never advance it) instead of erroring.
            ("--tps 1e12 --runtime 1", "--tps"),
            ("--poisson --tps 1e9 --runtime 1", "--tps"),
            ("--tps 1500000", "--tps"),
            // A phase is a start and a long fraction: the `@rate` suffix
            // is gone.
            ("--phases 0:0.1@2 --runtime 5", "--phases"),
            ("--frac-long 2", "--frac-long"),
            ("--drives 0", "--drives"),
            ("--flush-ms 0", "--flush-ms"),
            ("--shards 2", "--shards"),
            ("--probe-jobs 4", "--probe-jobs"),
            ("--min-space --jobs 2", "--jobs"),
            ("--mode fw", "--mode"),
            ("--fw-blocks 1", "--fw-blocks"),
            ("--no-analytic", "--no-analytic"),
            ("--min-space --probe-cache /tmp/x", "--probe-cache"),
            ("--phases 5:0.1", "--phases"),
            // The mix comes from one of the two flags.
            ("--frac-long 0.4 --phases 0:0.05", "--frac-long"),
            ("--phases 0:0.05 --frac-long 0.4", "--frac-long"),
            // The served mode's flags are gone.
            ("--tenants 2", "--tenants"),
            ("--budget 8", "--budget"),
            ("--oid-ranges 0:10000000", "--oid-ranges"),
        ];
        for (line, flag) in table {
            let err = elsim(args(line)).expect_err(line);
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
        assert!(elsim(args("--tps 1000000 --phases 0:0.1,5:0.4")).is_ok());
        // A mix given twice names both of its flags, in either order.
        for line in [
            "--frac-long 0.4 --phases 0:0.05",
            "--phases 0:0.05 --frac-long 0.4",
        ] {
            let err = elsim(args(line)).unwrap_err();
            assert!(
                err.contains("--phases") && err.contains("--frac-long"),
                "{err}"
            );
        }
    }

    #[test]
    fn repro_hostile_values_are_errors_naming_the_flag() {
        // A regular file cannot hold a directory, so `--csv` under it
        // cannot be created.
        let file = std::env::temp_dir().join(format!("repro-csv-{}", std::process::id()));
        std::fs::write(&file, b"").unwrap();
        let under_file = format!("--quick --csv {}", file.join("nope").display());
        let table = [
            ("--gens 9", "--gens"),
            ("--gens 0", "--gens"),
            ("--jobs 0", "--jobs"),
            ("--quick --only nosuch", "--only"),
            ("--quick --probe-cache /tmp/x", "--probe-cache"),
            ("--quick --adaptive", "--adaptive"),
            (under_file.as_str(), "--csv"),
        ];
        for (line, flag) in table {
            let err = repro(args(line)).expect_err(line);
            assert!(
                err.contains(flag),
                "`{line}` → `{err}` does not name {flag}"
            );
            assert!(!err.contains('\n'), "`{line}` → multi-line `{err}`");
        }
        std::fs::remove_file(&file).unwrap();
        let o = repro(args(
            "--quick --jobs 2 --gens 8 --only RECOVERY --no-cert --progress",
        ))
        .unwrap();
        assert!(o.quick && o.exec.progress && !o.exec.certificates);
        assert_eq!((o.exec.jobs, o.gens), (2, 8));
        assert_eq!(o.only.as_deref(), Some("recovery"));
    }
}
