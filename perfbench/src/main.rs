//! perfbench: the offline benchmark of the atd test-head stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: at most two client
//! threads drive THP/2 connections over loopback TCP into a real `atd`
//! daemon (or one caller into an in-process `atd-farm`), every result
//! digest checked against an in-process reference. `--trace 1` prints
//! the per-layer ledger instead: the same untraced phase, for the p50
//! the stage medians must reconcile with, then an in-process replay of
//! the workload's request sequence that times calls into each layer's
//! public functions. The last stdout line is one JSON object; any failed
//! check exits non-zero without printing it.
//!
//! `BENCHMARK.json` lists `warm` and `cold`. `serial` and `farm` run the
//! same way by name but are not listed, because their figures swing from
//! run to run: the daemon's 200 µs idle sleep sets serial's round trip
//! (about 35 or about 300 µs, depending on the run), and the farm
//! coordinator spawns its pool threads for every campaign.

mod e2e;
mod gen;
mod ledger;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use exec::ExecPool;

use crate::e2e::{Fixture, SetupLedger, Window};
use crate::gen::Workload;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// What a run prints.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn render_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The fixture pass: every working-set spec computed in process.
fn working_set(opts: &Options, pool: &ExecPool) -> Result<Fixture, String> {
    let specs = match opts.workload {
        Workload::Warm => gen::warm_set(opts.seed),
        Workload::Serial => gen::serial_set(opts.seed),
        Workload::Farm => gen::farm_set(opts.seed),
        Workload::Cold => Vec::new(),
    };
    e2e::fixture(specs, pool)
}

fn warmup_seconds(seconds: f64) -> f64 {
    (seconds * 0.1).clamp(0.2, 1.0)
}

/// A timed phase of `seconds`, after warm-up, with its checks.
struct Phase {
    drive: e2e::Drive,
    e2e: e2e::EndToEnd,
    /// Server-side counters over the phase.
    counters: e2e::Counters,
}

/// Runs the timed phase against a booted system and applies the
/// workload's drift gates.
fn timed_phase(
    opts: &Options,
    seconds: f64,
    system: &mut System,
    fixture: &Fixture,
    pool: &ExecPool,
) -> Result<Phase, String> {
    let window = Window {
        start: Instant::now() + Duration::from_secs_f64(warmup_seconds(seconds)),
        seconds,
    };
    let (drive, counters) = match system {
        System::Daemon(daemon) => {
            let before = daemon.stats()?;
            let drive = e2e::drive_tcp(daemon.addr, opts.workload, opts.seed, window, fixture)?;
            let after = daemon.stats()?;
            let computed = e2e::computed_between(&before, &after);
            let hits = after.cache_hits - before.cache_hits;
            match opts.workload {
                Workload::Warm | Workload::Serial if computed != 0 => {
                    return Err(format!("{} computed {computed} jobs", opts.workload.name()))
                }
                Workload::Cold if hits != 0 => return Err(format!("cold served {hits} LRU hits")),
                _ => {}
            }
            if opts.workload == Workload::Cold {
                e2e::verify_cold(opts.seed, &drive.cold, pool)?;
            }
            (drive, e2e::Counters::between(&before, &after))
        }
        System::Farm(farm) => {
            let drive = e2e::drive_farm(farm, opts.seed, window, fixture)?;
            if drive.fresh != 0 {
                return Err(format!("farm computed {} campaigns", drive.fresh));
            }
            let mut counters = e2e::Counters::default();
            for head in farm.head_stats() {
                let head = head.map_err(|e| format!("head stats: {e}"))?;
                counters.add(&e2e::Counters::between(&atd::ServiceStats::default(), &head));
            }
            (drive, counters)
        }
    };
    let e2e = e2e::summarise(&drive, seconds)?;
    Ok(Phase { drive, e2e, counters })
}

/// The system under test, booted by set-up.
enum System {
    Daemon(e2e::Daemon),
    Farm(atd_farm::Farm<atd::Client<atd::Loopback>>),
}

impl System {
    fn stop(self) -> Result<(), String> {
        match self {
            System::Daemon(d) => d.stop(),
            System::Farm(mut f) => f.shutdown().map_err(|e| e.to_string()),
        }
    }
}

fn set_up(
    opts: &Options,
    base: &std::path::Path,
    fixture: &Fixture,
    pool: &ExecPool,
    ledger: &mut SetupLedger,
) -> Result<System, String> {
    match opts.workload {
        Workload::Farm => Ok(System::Farm(e2e::farm_setups(fixture, ledger)?)),
        _ => {
            let first = e2e::probe(opts.workload, opts.seed, fixture, pool)?;
            let daemon = e2e::tcp_setups(base, opts.workload, fixture, first, ledger)?;
            Ok(System::Daemon(daemon))
        }
    }
}

fn print_context(opts: &Options, fixture: &Fixture, phase: &Phase) {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let transport = match opts.workload {
        Workload::Farm => "in-process farm (3 loopback heads), no socket",
        _ => "THP/2 over TCP on the loopback interface 127.0.0.1",
    };
    println!(
        "# context: nproc {nproc}, exec pool width {}, transport {transport}, closed loop, \
         {} connection(s) x depth {}, working set {} vs LRU {}",
        e2e::daemon_pool(opts.workload).threads(),
        opts.workload.connections(),
        opts.workload.depth(),
        if opts.workload == Workload::Cold {
            "unbounded (every spec unique)".to_string()
        } else {
            fixture.specs.len().to_string()
        },
        atd::scheduler::DEFAULT_CACHE_ENTRIES,
    );
    let (e, d) = (&phase.e2e, &phase.drive);
    println!(
        "# samples: {} in window over {} repeat(s), fewest per repeat {} (p50/p99 per repeat, \
         medians reported); attempted {} ok {} busy {} failed {}; error_share {:.6}",
        e.window_samples,
        e.repeats,
        e.min_repeat_samples,
        e.attempted,
        d.completed,
        d.busy,
        d.failed,
        e.errors as f64 / e.attempted.max(1) as f64,
    );
    let p99 = stats::sorted(e.p99_by_repeat.clone());
    let quartiles: Vec<String> = [0, 2_500, 5_000, 7_500, 10_000]
        .iter()
        .map(|bp| format!("{:.0}", stats::percentile(&p99, *bp).unwrap_or(f64::NAN)))
        .collect();
    println!("# p99 over repeats, us (min q1 median q3 max): {}", quartiles.join(" "));
    let all = d.bins.iter().flat_map(|b| b.latencies_us.iter().map(|l| f64::from(*l)));
    if let Some(p99) = stats::percentile(&stats::sorted(all.collect()), 9_900) {
        println!("# p99 over the whole window (stalls included), us: {p99:.0}");
    }
    let tenths: Vec<String> = d
        .bins
        .chunks(e2e::BINS / 10)
        .map(|c| c.iter().map(|b| b.latencies_us.len()).sum::<usize>().to_string())
        .collect();
    println!("# completions per tenth of the window: {}", tenths.join(" "));
}

fn run(opts: &Options, base: &std::path::Path) -> Result<Report, String> {
    let pool = ExecPool::from_env();
    std::fs::create_dir_all(base).map_err(|e| format!("create {}: {e}", base.display()))?;
    let fixture = working_set(opts, &pool)?;
    let mut setup = SetupLedger::default();
    let mut system = set_up(opts, base, &fixture, &pool, &mut setup)?;
    let phase = timed_phase(opts, opts.seconds, &mut system, &fixture, &pool)?;
    system.stop()?;
    // Read before the context lines copy the samples.
    let peak_rss_mb = e2e::peak_rss_mb()?;
    print_context(opts, &fixture, &phase);
    let e = &phase.e2e;
    let metrics = if opts.trace {
        let daemon_pool = e2e::daemon_pool(opts.workload);
        ledger::run(
            opts.workload,
            opts.seed,
            base,
            &fixture,
            &setup,
            &phase.counters,
            e,
            &daemon_pool,
        )?
    } else {
        vec![
            metric("setup_s", stats::median(&setup.setup_s), "s"),
            metric("jobs_per_s", e.jobs_per_s, "1/s"),
            metric("latency_p50_us", e.p50_us, "us"),
            metric("latency_p99_us", e.p99_us, "us"),
            metric("result_mb_per_s", e.mb_per_s, "MB/s"),
            metric("ok_share", 1.0 - e.errors as f64 / e.attempted.max(1) as f64, "ratio"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    for m in &metrics {
        let moves = ledger::LEDGER.iter().find(|(n, _, _)| *n == m.name).map(|(_, _, mv)| *mv);
        let moves = moves.map_or(String::new(), |mv| format!("  -> {mv}"));
        println!("{:<32} {:>16.4} {:<8}{moves}", m.name, m.value, m.unit);
    }
    Ok(Report { attempted: e.attempted, failed: e.errors, metrics })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload warm|cold|serial|farm --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let base: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    println!(
        "# perfbench workload {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let outcome = run(&opts, &base);
    let _ = std::fs::remove_dir_all(&base);
    match outcome {
        Ok(report) => println!("{}", render_json(&report)),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn workload_and_metric_names_use_the_allowed_alphabet() {
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        let manifest = include_str!("../../BENCHMARK.json");
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            line.get(at..)?.split('"').next()
        }
        let names: Vec<&str> = manifest.lines().filter_map(|l| field(l, "name")).collect();
        assert!(!names.is_empty());
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        // The per-layer section lists exactly the ledger, in order, with
        // the same direction of better.
        let per_layer = manifest.split("\"per_layer\"").nth(1).unwrap();
        let listed: Vec<(&str, &str)> = per_layer
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "better")?)))
            .collect();
        let ledger: Vec<(&str, &str)> = ledger::LEDGER.iter().map(|(n, b, _)| (*n, *b)).collect();
        assert_eq!(listed, ledger);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let report = Report { attempted: 3, failed: 0, metrics: vec![metric("setup_s", 0.5, "s")] };
        assert_eq!(
            render_json(&report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload cold --seed 4 --seconds 2 --trace 1")).unwrap();
        assert_eq!((o.workload, o.seed, o.seconds, o.trace), (Workload::Cold, 4, 2.0, true));
        assert!(parse_args(&args("--workload tepid --seed 4")).is_err());
        assert!(parse_args(&args("--workload warm --seed x")).is_err());
        assert!(parse_args(&args("--workload warm --seed 1 --trace 2")).is_err());
    }
}
