//! Times the exec-powered sweeps serial vs parallel and emits
//! `BENCH_exec.json`.
//!
//! ```text
//! cargo run --release -p gigatest-bench --bin bench_exec           # timings
//! cargo run --release -p gigatest-bench --bin bench_exec -- --canary
//! ```
//!
//! The default mode runs each sweep workload with a 1-thread pool and an
//! N-thread pool (`EXEC_THREADS`, default 4), takes the best of three wall
//! times for each, and writes the comparison as JSON. Timings are the ONLY
//! wall-clock-dependent data in the workspace, and they never feed back
//! into any result — which is why the reads below carry xlint allows.
//!
//! `--canary` prints the deterministic *outputs* of the same sweeps and no
//! timings at all: CI runs it under `EXEC_THREADS=1` and `EXEC_THREADS=4`
//! and diffs the two, proving thread-count invariance end to end.

use std::time::Instant; // xlint::allow(no-wall-clock, benchmark harness: wall time is the measurand here and never feeds back into results)

use ate::AteError;
use exec::ExecPool;
use minitester::multisite::{run_wafer_with_pool, WaferRunConfig};
use minitester::{EtCapture, MiniTesterDatapath, ShmooConfig, ShmooPlot};
use pecl::SignalChain;
use pstime::DataRate;
use rng::SeedTree;
use signal::measure::measure_transition;
use signal::{AnalogWaveform, BathtubCurve, BitStream};

/// Wall-time repetitions per measurement; the best (least-disturbed) run
/// is reported.
const REPS: u32 = 3;

/// One timed workload row for the JSON report.
struct WorkloadRow {
    name: &'static str,
    jobs: usize,
    serial_s: f64,
    parallel_s: f64,
}

impl WorkloadRow {
    fn speedup(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.serial_s / self.parallel_s
        } else {
            0.0
        }
    }
}

fn best_of<F>(f: F) -> Result<f64, AteError>
where
    F: Fn() -> Result<(), AteError>,
{
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f()?;
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok(best)
}

/// The shmoo/eye stimulus shared by several workloads.
fn prbs_setup(gbps: f64, bits: usize) -> Result<(AnalogWaveform, DataRate, BitStream), AteError> {
    let rate = DataRate::from_gbps(gbps);
    let mut path = MiniTesterDatapath::new()?;
    let expected = path.expected_prbs(rate, bits)?;
    let wave = path.prbs_stimulus(rate, bits, 17)?;
    Ok((wave, rate, expected))
}

fn wafer_config() -> WaferRunConfig {
    WaferRunConfig { dies: 24, columns: 6, sites: 8, test_bits: 256, ..WaferRunConfig::default() }
}

fn bathtub() -> BathtubCurve {
    let chain = SignalChain::minitester_datapath();
    BathtubCurve::new(chain.rj_rms(), chain.dj_pp(), DataRate::from_gbps(2.5), 0.5)
}

/// Acquisition count for the edge-jitter workload.
const JITTER_ACQS: usize = 400;

/// Runs the fig09-style acquisition loop directly on `pool` so the run's
/// [`exec::ExecStats`] are observable.
fn jitter_acquisitions(pool: &ExecPool) -> Result<exec::ExecStats, AteError> {
    let chain = SignalChain::testbed_transmitter();
    let rate = DataRate::from_gbps(2.5);
    let bits = BitStream::from_str_bits("1100");
    let tree = SeedTree::new(9).stream("bench.exec.jitter");
    let outcome = pool.run(JITTER_ACQS, |i| -> Result<pstime::Instant, AteError> {
        let wave = chain.render(&bits, rate, tree.index(i as u64).seed())?; // xlint::allow(no-lossy-cast, acquisition index widens losslessly to u64)
        Ok(measure_transition(&wave, 0, rate)?.mid_crossing)
    })?;
    for t in outcome.results {
        t?;
    }
    Ok(outcome.stats)
}

/// Prints deterministic sweep outputs and nothing else; byte-identical
/// output for every `EXEC_THREADS` is the cross-layer determinism proof.
fn canary() -> Result<(), AteError> {
    let (wave, rate, expected) = prbs_setup(2.5, 512)?;
    let plot = ShmooPlot::run(&wave, rate, &expected, &ShmooConfig::pecl(), 1)?;
    println!("== shmoo ==\n{plot}");

    let report = minitester::multisite::run_wafer(&wafer_config())?;
    println!("== wafer ==\n{report}");

    let scan =
        EtCapture::new().eye_scan_with_pool(&wave, rate, &expected, 5, &ExecPool::from_env())?;
    println!("== eye ==\n{scan}");

    let jitter = bench_support::fig09_edge_jitter(JITTER_ACQS, 9)?;
    println!("== jitter ==\n{jitter}");

    let sweep = bathtub().sweep_with_pool(10_001, &ExecPool::from_env())?;
    let digest = sweep
        .iter()
        .fold(0u64, |acc, (phase, ber)| acc ^ phase.to_bits() ^ ber.to_bits().rotate_left(17));
    println!("== ber ==\ndigest {digest:016x}");
    Ok(())
}

fn bench() -> Result<(), AteError> {
    let threads =
        exec::env::parse_positive_usize(std::env::var(exec::EXEC_THREADS_ENV).ok().as_deref())
            .filter(|n| *n > 1)
            .unwrap_or(4);
    let serial = ExecPool::serial();
    let parallel = ExecPool::new(threads);
    let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("bench_exec: serial vs {threads} threads (machine has {available})");

    let mut rows = Vec::new();

    let (wave, rate, expected) = prbs_setup(2.5, 512)?;
    let config = ShmooConfig::pecl();
    let plot = ShmooPlot::run_with_pool(&wave, rate, &expected, &config, 1, &serial)
        .map_err(AteError::from)?;
    rows.push(WorkloadRow {
        name: "shmoo",
        jobs: plot.thresholds().len() * plot.phases().len(),
        serial_s: best_of(|| {
            ShmooPlot::run_with_pool(&wave, rate, &expected, &config, 1, &serial)
                .map(|_| ())
                .map_err(AteError::from)
        })?,
        parallel_s: best_of(|| {
            ShmooPlot::run_with_pool(&wave, rate, &expected, &config, 1, &parallel)
                .map(|_| ())
                .map_err(AteError::from)
        })?,
    });
    eprintln!("  shmoo done");

    let wafer = wafer_config();
    rows.push(WorkloadRow {
        name: "wafer",
        jobs: wafer.dies,
        serial_s: best_of(|| {
            run_wafer_with_pool(&wafer, &serial).map(|_| ()).map_err(AteError::from)
        })?,
        parallel_s: best_of(|| {
            run_wafer_with_pool(&wafer, &parallel).map(|_| ()).map_err(AteError::from)
        })?,
    });
    eprintln!("  wafer done");

    let (eye_wave, eye_rate, eye_expected) = prbs_setup(2.5, 1_024)?;
    let cap = EtCapture::new();
    rows.push(WorkloadRow {
        name: "eye_scan",
        jobs: 40,
        serial_s: best_of(|| {
            cap.eye_scan_with_pool(&eye_wave, eye_rate, &eye_expected, 5, &serial)
                .map(|_| ())
                .map_err(AteError::from)
        })?,
        parallel_s: best_of(|| {
            cap.eye_scan_with_pool(&eye_wave, eye_rate, &eye_expected, 5, &parallel)
                .map(|_| ())
                .map_err(AteError::from)
        })?,
    });
    eprintln!("  eye_scan done");

    rows.push(WorkloadRow {
        name: "edge_jitter",
        jobs: JITTER_ACQS,
        serial_s: best_of(|| jitter_acquisitions(&serial).map(|_| ()))?,
        parallel_s: best_of(|| jitter_acquisitions(&parallel).map(|_| ()))?,
    });
    let stats = jitter_acquisitions(&parallel)?;
    eprintln!("  edge_jitter done ({stats})");

    let tub = bathtub();
    rows.push(WorkloadRow {
        name: "ber_sweep",
        jobs: 100_001,
        serial_s: best_of(|| {
            tub.sweep_with_pool(100_001, &serial).map(|_| ()).map_err(AteError::from)
        })?,
        parallel_s: best_of(|| {
            tub.sweep_with_pool(100_001, &parallel).map(|_| ()).map_err(AteError::from)
        })?,
    });
    eprintln!("  ber_sweep done");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"available_parallelism\": {available},\n"));
    json.push_str(&format!(
        "  \"jitter_stats\": {{ \"workers\": {}, \"steals\": {}, \"max_share\": {:.4} }},\n",
        stats.workers,
        stats.steals,
        stats.max_share()
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"jobs\": {}, \"serial_s\": {:.6}, \"parallel_s\": {:.6}, \"speedup\": {:.3} }}{}\n",
            row.name,
            row.jobs,
            row.serial_s,
            row.parallel_s,
            row.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    match std::fs::write("BENCH_exec.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_exec.json"),
        Err(e) => {
            eprintln!("failed to write BENCH_exec.json: {e}");
            std::process::exit(2);
        }
    }
    print!("{json}");
    Ok(())
}

fn main() {
    let is_canary = std::env::args().any(|a| a == "--canary");
    let result = if is_canary { canary() } else { bench() };
    if let Err(e) = result {
        eprintln!("bench_exec failed: {e}");
        std::process::exit(2);
    }
}
