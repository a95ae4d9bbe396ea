//! The untraced end-to-end path: set-up (store build, rehydrate, daemon
//! or farm boot, first verified response) and the closed-loop timed
//! phase over loopback TCP or the in-process farm.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atd::scheduler::{DEFAULT_CACHE_ENTRIES, DEFAULT_QUEUE_DEPTH};
use atd::store::{Store, StoreConfig};
use atd::{
    stream_digest, AtdError, Event, JobResult, JobSpec, PipelinedClient, Provenance, Scheduler,
    ServerConfig, Service, ServiceStats,
};
use atd_farm::Farm;
use exec::ExecPool;

use crate::gen::{self, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 31;

/// Equal time bins of the measured window: the time resolution of the
/// repeats, which are runs of adjacent bins.
pub const BINS: usize = 1_200;

/// A workload's specs with their in-process reference results.
#[derive(Debug, Default)]
pub struct Fixture {
    /// The working set (empty for `cold`, whose specs are generated on
    /// the fly).
    pub specs: Vec<JobSpec>,
    /// Canonical result encodings, by spec index.
    pub encoded: Vec<Vec<u8>>,
    /// Stream digests of `encoded`, by spec index.
    pub digests: Vec<u64>,
    /// `workload::execute` wall time per spec, by kind.
    pub exec_ms: Vec<(&'static str, f64)>,
}

/// Runs `workload::execute` on `spec`, returning the canonical encoding
/// and the call's wall time.
pub fn reference(spec: &JobSpec, pool: &ExecPool) -> Result<(Vec<u8>, f64), String> {
    let t = Instant::now();
    let result = atd::workload::execute(spec, pool)
        .map_err(|e| format!("reference {} failed: {e}", spec.kind()))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let encoded = result.encoded().map_err(|e| format!("reference encode failed: {e}"))?;
    Ok((encoded, ms))
}

/// Computes every spec's reference result (the fixture pass).
pub fn fixture(specs: Vec<JobSpec>, pool: &ExecPool) -> Result<Fixture, String> {
    let mut f = Fixture { specs, ..Fixture::default() };
    for spec in &f.specs {
        let (encoded, ms) = reference(spec, pool)?;
        f.digests.push(stream_digest(&encoded));
        f.encoded.push(encoded);
        f.exec_ms.push((spec.kind(), ms));
    }
    Ok(f)
}

/// Timings the set-up phase leaves for the per-layer ledger.
#[derive(Debug, Default)]
pub struct SetupLedger {
    /// Set-up times, s; `setup_s` reports their median.
    pub setup_s: Vec<f64>,
    /// `Store::open` (rehydrate) times, ms.
    pub open_ms: Vec<f64>,
    /// `Store::put` times while building the store, µs.
    pub put_us: Vec<f64>,
}

/// A booted daemon.
#[derive(Debug)]
pub struct Daemon {
    /// Loopback address it listens on.
    pub addr: SocketAddr,
    handle: JoinHandle<Result<Service, AtdError>>,
}

impl Daemon {
    /// Fetches the daemon's counters over a fresh THP/2 session.
    pub fn stats(&self) -> Result<ServiceStats, String> {
        let mut admin = PipelinedClient::connect(self.addr).map_err(|e| e.to_string())?;
        admin.stats().map_err(|e| format!("stats failed: {e}"))
    }

    /// Stops the daemon and waits for its thread.
    pub fn stop(self) -> Result<(), String> {
        let mut admin = PipelinedClient::connect(self.addr).map_err(|e| e.to_string())?;
        admin.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
        drop(admin);
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon failed: {e}"))?;
        Ok(())
    }
}

/// The disk bound of the store `workload`'s daemon runs with: the
/// daemon default, except for `cold`. Past the bound a put evicts the
/// oldest records and, every few puts, rewrites the whole store, so a
/// cold campaign at the default 64 MiB falls from ~420 to ~21 jobs/s
/// after ~10k results, at a point in the window that moves with machine
/// speed. Its store is sized for the campaign instead, and the ledger's
/// `store.put_full_ms` measures that put on its own.
pub fn store_bound(workload: Workload) -> u64 {
    match workload {
        Workload::Cold => 1 << 30,
        _ => atd::scheduler::DEFAULT_STORE_MAX_BYTES,
    }
}

/// The exec pool `workload`'s daemon runs jobs on: the daemon default
/// (`EXEC_THREADS`, else one worker per CPU), except for `cold`, whose
/// daemon runs each job inline on its event-loop thread. A wider pool
/// spawns its workers afresh for every job it splits, and on a 2-vCPU
/// guest those spawns, and the wake-ups of the idle vCPU, cost whatever
/// the host's load makes them cost: at two workers cold's rate swung
/// with it (10 seeds: interquartile spread 0.17 of the median on
/// jobs_per_s, 0.26 on latency_p99_us). Exec and kernel changes still
/// show at one worker; the ledgers of the other workloads time the
/// kernels on the default pool.
pub fn daemon_pool(workload: Workload) -> ExecPool {
    match workload {
        Workload::Cold => ExecPool::serial(),
        _ => ExecPool::from_env(),
    }
}

/// A store configuration with the daemon's segment size, rooted at
/// `dir`.
pub fn store_config(dir: &Path, max_bytes: u64) -> StoreConfig {
    StoreConfig::new(dir)
        .segment_bytes(atd::scheduler::DEFAULT_STORE_SEGMENT_BYTES)
        .max_bytes(max_bytes)
}

/// Builds a store holding every fixture result, timing each put.
pub fn build_store(dir: &Path, fixture: &Fixture, put_us: &mut Vec<f64>) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let config = store_config(dir, atd::scheduler::DEFAULT_STORE_MAX_BYTES);
    let mut store = Store::open(config).map_err(|e| format!("store create: {e}"))?;
    for (spec, encoded) in fixture.specs.iter().zip(&fixture.encoded) {
        let key = spec.key_bytes();
        let t = Instant::now();
        store.put(&key, encoded).map_err(|e| format!("store put: {e}"))?;
        put_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(())
}

/// Boots a daemon with the default bounds over `store`, running jobs
/// on `pool`.
fn boot(store: Store, pool: ExecPool) -> Result<Daemon, String> {
    let scheduler = Scheduler::new(DEFAULT_QUEUE_DEPTH, DEFAULT_CACHE_ENTRIES).with_store(store);
    let service = Service::new(pool, scheduler);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let handle =
        std::thread::spawn(move || atd::serve_with(&listener, service, ServerConfig::default()));
    Ok(Daemon { addr, handle })
}

/// Submits one spec on a fresh THP/2 session and checks its digest.
fn first_response(addr: SocketAddr, spec: JobSpec, want: u64) -> Result<(), String> {
    let mut client = PipelinedClient::connect(addr).map_err(|e| e.to_string())?;
    client.submit_pipelined(0, spec).map_err(|e| e.to_string())?;
    loop {
        match client.next_event().map_err(|e| e.to_string())? {
            Event::Chunk { .. } => {}
            Event::Done { digest, .. } if digest == want => return Ok(()),
            Event::Done { .. } => return Err("first response digest mismatch".to_string()),
            other => return Err(format!("first response failed: {other:?}")),
        }
    }
}

/// The spec whose verified response ends a set-up, with its reference
/// digest. For `cold` it is a probe outside the timed sequence, so the
/// daemon computes it and the store stays free of timed specs.
pub fn probe(
    workload: Workload,
    seed: u64,
    fixture: &Fixture,
    pool: &ExecPool,
) -> Result<(JobSpec, u64), String> {
    match (workload, fixture.specs.first(), fixture.digests.first()) {
        (Workload::Cold, _, _) => {
            let spec = gen::cold_spec_of_kind(!seed, 0, 0);
            let (encoded, _) = reference(&spec, pool)?;
            Ok((spec, stream_digest(&encoded)))
        }
        (_, Some(spec), Some(digest)) => Ok((*spec, *digest)),
        _ => Err("empty working set".to_string()),
    }
}

/// One TCP set-up: build the store from the fixture, reopen it
/// (rehydrate), boot the daemon over it, and wait for the first
/// verified response. Returns the daemon left running.
pub fn tcp_setup(
    dir: &Path,
    workload: Workload,
    fixture: &Fixture,
    first: (JobSpec, u64),
    ledger: &mut SetupLedger,
) -> Result<Daemon, String> {
    let t0 = Instant::now();
    build_store(dir, fixture, &mut ledger.put_us)?;
    let t_open = Instant::now();
    let config = store_config(dir, store_bound(workload));
    let store = Store::open(config).map_err(|e| format!("store open: {e}"))?;
    ledger.open_ms.push(t_open.elapsed().as_secs_f64() * 1e3);
    let daemon = boot(store, daemon_pool(workload))?;
    first_response(daemon.addr, first.0, first.1)?;
    ledger.setup_s.push(t0.elapsed().as_secs_f64());
    Ok(daemon)
}

/// Runs [`SETUP_REPEATS`] TCP set-ups, keeping the last daemon.
pub fn tcp_setups(
    base: &Path,
    workload: Workload,
    fixture: &Fixture,
    first: (JobSpec, u64),
    ledger: &mut SetupLedger,
) -> Result<Daemon, String> {
    for k in 0..SETUP_REPEATS {
        let dir = base.join(format!("store-{k}"));
        let daemon = tcp_setup(&dir, workload, fixture, first, ledger)?;
        if k + 1 == SETUP_REPEATS {
            return Ok(daemon);
        }
        daemon.stop()?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    Err("no set-up ran".to_string())
}

/// Runs [`SETUP_REPEATS`] farm set-ups (boot three in-process heads and
/// get the first verified merged response), keeping the last farm, then
/// primes the working set so the timed phase computes nothing.
pub fn farm_setups(
    fixture: &Fixture,
    ledger: &mut SetupLedger,
) -> Result<Farm<atd::Client<atd::Loopback>>, String> {
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut farm = Farm::in_proc(gen::FARM_HEADS).map_err(|e| e.to_string())?;
        let (spec, want) = (fixture.specs[0], fixture.digests[0]);
        let done = farm.submit(0, spec).map_err(|e| format!("farm first response: {e}"))?;
        if digest_of(&done.result)? != want {
            return Err("farm first response digest mismatch".to_string());
        }
        ledger.setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(farm);
    }
    let mut farm = kept.ok_or("no set-up ran")?;
    for (spec, want) in fixture.specs.iter().zip(&fixture.digests) {
        let done = farm.submit(0, *spec).map_err(|e| format!("farm prime: {e}"))?;
        if digest_of(&done.result)? != *want {
            return Err("farm prime digest mismatch".to_string());
        }
    }
    Ok(farm)
}

/// The stream digest of a result's canonical encoding.
pub fn digest_of(result: &JobResult) -> Result<u64, String> {
    Ok(stream_digest(&result.encoded().map_err(|e| e.to_string())?))
}

/// One bin's verified completions. Only latencies are kept per job (4
/// bytes each): a run completes up to a million jobs, and their storage
/// must not swamp `peak_rss_mb`.
#[derive(Debug, Clone, Default)]
pub struct Bin {
    /// Submit-to-done times, µs.
    pub latencies_us: Vec<f32>,
    /// Verified result payload bytes (chunk bytes, no frame headers).
    pub bytes: u64,
}

/// What a closed loop observed: its verified completions and its
/// failure counts.
#[derive(Debug, Default)]
pub struct Drive {
    /// Completions inside the measured window, by time bin.
    pub bins: Vec<Bin>,
    /// Every verified completion, warm-up and drain included.
    pub completed: u64,
    /// Submissions refused with `Busy`.
    pub busy: u64,
    /// Submissions that failed remotely.
    pub failed: u64,
    /// Completions not served from a cache (computed or coalesced).
    pub fresh: u64,
    /// Cold results awaiting verification.
    pub cold: Vec<ColdResult>,
}

impl Drive {
    /// An empty record for `window`, its bins reserved up front
    /// (untouched reserve is not resident) so they never grow in
    /// doubling steps that would show in `peak_rss_mb`.
    pub fn new(window: &Window) -> Drive {
        let per_bin = (window.seconds / BINS as f64 * SAMPLES_PER_SECOND) as usize + 1024;
        let bins = (0..BINS)
            .map(|_| Bin { latencies_us: Vec::with_capacity(per_bin), bytes: 0 })
            .collect();
        Drive { bins, ..Drive::default() }
    }

    /// Records a verified completion submitted at `t0`, done at `now`.
    fn record(&mut self, window: &Window, t0: Instant, now: Instant, bytes: u64) {
        self.completed += 1;
        let Some(at) = now.checked_duration_since(window.start) else { return };
        let bin = (at.as_secs_f64() / window.seconds * BINS as f64) as usize;
        if let Some(b) = self.bins.get_mut(bin) {
            b.latencies_us.push(now.duration_since(t0).as_secs_f32() * 1e6);
            b.bytes += bytes;
        }
    }

    /// Adds another client thread's record of the same window.
    fn merge(&mut self, other: Drive) {
        for (bin, more) in self.bins.iter_mut().zip(other.bins) {
            bin.latencies_us.extend(more.latencies_us);
            bin.bytes += more.bytes;
        }
        self.completed += other.completed;
        self.busy += other.busy;
        self.failed += other.failed;
        self.fresh += other.fresh;
        self.cold.extend(other.cold);
    }

    /// Submissions attempted.
    pub fn attempted(&self) -> u64 {
        self.completed + self.busy + self.failed
    }
}

/// Sample slots reserved per second of window.
const SAMPLES_PER_SECOND: f64 = 100_000.0;

/// A cold result awaiting verification: spec index and the digest the
/// daemon's stream carried.
pub type ColdResult = (usize, u64);

/// A timed closed-loop phase: warm-up, then the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When the measured window starts.
    pub start: Instant,
    /// Its length.
    pub seconds: f64,
}

impl Window {
    /// The instant submissions stop.
    pub fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds)
    }
}

/// One THP/2 connection of the closed loop.
struct Conn {
    client: PipelinedClient,
    /// Connection index: picks the session, the draw stream and the
    /// connection's share of the cold index space.
    lane: usize,
    draws: gen::Draws,
    /// correlation -> (submitted at, cold index, fixture slot, bytes so far)
    pending: BTreeMap<u64, (Instant, Option<usize>, usize, u64)>,
    sent: usize,
}

impl Conn {
    /// Submits until `depth` submissions are in flight.
    fn top_up(&mut self, workload: Workload, seed: u64, fixture: &Fixture) -> Result<(), String> {
        while self.pending.len() < workload.depth() {
            let (spec, cold_index, slot) = if workload == Workload::Cold {
                let index = self.sent * workload.connections() + self.lane;
                (gen::cold_spec(seed, index), Some(index), 0)
            } else {
                let slot = self.draws.next_index();
                (fixture.specs[slot], None, slot)
            };
            let session = self.lane as u32 + 1;
            let corr = self.client.submit_pipelined(session, spec).map_err(|e| e.to_string())?;
            self.pending.insert(corr, (Instant::now(), cold_index, slot, 0));
            self.sent += 1;
        }
        Ok(())
    }

    /// Reads events until one submission ends, recording it.
    fn settle_one(
        &mut self,
        workload: Workload,
        window: &Window,
        fixture: &Fixture,
        drive: &mut Drive,
    ) -> Result<(), String> {
        loop {
            let event = self.client.next_event().map_err(|e| format!("conn {}: {e}", self.lane))?;
            let (corr, digest, provenance) = match event {
                Event::Chunk { correlation, bytes, .. } => {
                    if let Some(p) = self.pending.get_mut(&correlation) {
                        p.3 += bytes.len() as u64;
                    }
                    continue;
                }
                Event::Done { correlation, digest, provenance, .. } => {
                    (correlation, digest, provenance)
                }
                Event::Busy { correlation, .. } => {
                    self.pending.remove(&correlation);
                    drive.busy += 1;
                    return Ok(());
                }
                Event::Failed { correlation, .. } => {
                    self.pending.remove(&correlation);
                    drive.failed += 1;
                    return Ok(());
                }
                other => return Err(format!("unexpected event {other:?}")),
            };
            let Some((t0, cold_index, slot, bytes)) = self.pending.remove(&corr) else {
                return Err(format!("event for unknown correlation {corr}"));
            };
            match cold_index {
                Some(index) => drive.cold.push((index, digest)),
                None if fixture.digests[slot] != digest => {
                    return Err(format!(
                        "digest mismatch on {} spec {slot}: got {digest:016x}, want {:016x}",
                        workload.name(),
                        fixture.digests[slot]
                    ))
                }
                None => {}
            }
            if provenance != Provenance::Cache {
                drive.fresh += 1;
            }
            drive.record(window, t0, Instant::now(), bytes);
            return Ok(());
        }
    }
}

/// Drives the daemon for the window. `warm` and `serial` use one client
/// thread: it settles one submission per connection in turn, which keeps
/// the CPU-bound load generator off the daemon's second core. `cold` is
/// bound by the daemon's exec pool and its clients mostly wait, so each
/// connection gets its own thread: a thread blocked on one connection's
/// next result would otherwise leave the other's finished results
/// unread, adding that wait to their latency and draining the queue.
pub fn drive_tcp(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    window: Window,
    fixture: &Fixture,
) -> Result<Drive, String> {
    let mut conns = Vec::new();
    for lane in 0..workload.connections() {
        conns.push(Conn {
            client: PipelinedClient::connect(addr).map_err(|e| format!("connect: {e}"))?,
            lane,
            draws: gen::draws(workload, seed, lane as u64, fixture.specs.len().max(1)),
            pending: BTreeMap::new(),
            sent: 0,
        });
    }
    if workload != Workload::Cold {
        return drive_conns(&mut conns, workload, seed, window, fixture);
    }
    let drives: Vec<Result<Drive, String>> = std::thread::scope(|s| {
        let lanes: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    drive_conns(std::slice::from_mut(conn), workload, seed, window, fixture)
                })
            })
            .collect();
        lanes
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect()
    });
    let mut drives = drives.into_iter();
    let mut total = drives.next().ok_or("no connections")??;
    for drive in drives {
        total.merge(drive?);
    }
    Ok(total)
}

/// The closed loop over `conns` from the calling thread, until the
/// window ends and every submission has settled.
fn drive_conns(
    conns: &mut [Conn],
    workload: Workload,
    seed: u64,
    window: Window,
    fixture: &Fixture,
) -> Result<Drive, String> {
    let mut drive = Drive::new(&window);
    loop {
        let open = Instant::now() < window.end();
        let mut busy = false;
        for conn in conns.iter_mut() {
            if open {
                conn.top_up(workload, seed, fixture)?;
            }
            if !conn.pending.is_empty() {
                busy = true;
                conn.settle_one(workload, &window, fixture, &mut drive)?;
            }
        }
        if !busy {
            return Ok(drive);
        }
    }
}

/// Drives the farm with one caller for the window.
pub fn drive_farm(
    farm: &mut Farm<atd::Client<atd::Loopback>>,
    seed: u64,
    window: Window,
    fixture: &Fixture,
) -> Result<Drive, String> {
    let mut draws = gen::draws(Workload::Farm, seed, 0, fixture.specs.len());
    let mut drive = Drive::new(&window);
    while Instant::now() < window.end() {
        let slot = draws.next_index();
        let t0 = Instant::now();
        let outcome = farm.submit(1, fixture.specs[slot]);
        let now = Instant::now();
        let Ok(done) = outcome else {
            drive.failed += 1;
            continue;
        };
        let encoded = done.result.encoded().map_err(|e| e.to_string())?;
        if stream_digest(&encoded) != fixture.digests[slot] {
            return Err(format!("farm digest mismatch on spec {slot}"));
        }
        drive.record(&window, t0, now, encoded.len() as u64);
        if done.provenance != Provenance::Cache {
            drive.fresh += 1;
        }
    }
    Ok(drive)
}

/// Checks every cold result against an in-process recomputation.
pub fn verify_cold(seed: u64, done: &[ColdResult], pool: &ExecPool) -> Result<usize, String> {
    // Each recomputation runs serially inside one pool worker, so the
    // whole pool stays busy across specs.
    let serial = ExecPool::serial();
    let checked = pool
        .par_map(done, |_, (index, digest)| {
            reference(&gen::cold_spec(seed, *index), &serial)
                .map(|(encoded, _)| stream_digest(&encoded) == *digest)
        })
        .map_err(|e| format!("cold verification pool: {e}"))?;
    for (ok, (index, _)) in checked.into_iter().zip(done) {
        if !ok? {
            return Err(format!("digest mismatch on cold spec {index}"));
        }
    }
    Ok(done.len())
}

/// End-to-end figures of one timed phase.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Completed jobs per second (median over repeats).
    pub jobs_per_s: f64,
    /// p50 submit-to-done latency, µs (median over repeats).
    pub p50_us: f64,
    /// p99 submit-to-done latency, µs (median over repeats).
    pub p99_us: f64,
    /// Verified payload MB/s (median over repeats).
    pub mb_per_s: f64,
    /// Submissions attempted in the whole phase.
    pub attempted: u64,
    /// Busy, failed and protocol-error submissions.
    pub errors: u64,
    /// Repeats the medians are taken over.
    pub repeats: usize,
    /// Samples per repeat (fewest).
    pub min_repeat_samples: usize,
    /// Verified completions in the measured window.
    pub window_samples: usize,
    /// Each repeat's p99, µs, in time order.
    pub p99_by_repeat: Vec<f64>,
}

/// Cuts the window into repeats, each the shortest run of adjacent bins
/// that supports a p99 (1,000 samples, ten beyond it; a short remainder
/// joins the last repeat), and takes each metric's median over them.
///
/// Short repeats keep the p99 steady. On a shared 2-vCPU guest the
/// closed loop stalls for a few ms at a time, at a rate that follows the
/// host's load; a stall delays every job in flight, so any repeat
/// holding one reports it as its p99, and the median repeat moves with
/// the stall rate unless most repeats hold none (warm, 20 s runs: p99 of
/// 0.17 s windows from 4.1 to 27 ms, their median 5.3 or 6.5 ms by run,
/// at p50 within 2%). Equal sample counts rather than equal times keep a
/// stall's own slow bins from stretching every repeat of its run. The
/// whole window's p99, stalls and all, is printed beside it.
pub fn summarise(drive: &Drive, seconds: f64) -> Result<EndToEnd, String> {
    let in_window: usize = drive.bins.iter().map(|b| b.latencies_us.len()).sum();
    let count = |group: &[Bin]| group.iter().map(|b| b.latencies_us.len()).sum::<usize>();
    let supports_p99 = |n: usize| crate::stats::supported_percentile_bp(n).unwrap_or(0) >= 9_900;
    let mut groups: Vec<&[Bin]> = Vec::new();
    let (mut start, mut n) = (0, 0);
    for (i, bin) in drive.bins.iter().enumerate() {
        n += bin.latencies_us.len();
        if supports_p99(n) {
            groups.extend(drive.bins.get(start..=i));
            (start, n) = (i + 1, 0);
        }
    }
    let Some(last) = groups.pop() else {
        return Err(format!("the window holds {in_window} samples; a p99 needs 1000"));
    };
    groups.extend(drive.bins.get(start - last.len()..));
    let bin_s = seconds / BINS as f64;
    let (mut jobs, mut p50, mut p99, mut mb) = (vec![], vec![], vec![], vec![]);
    // One repeat's sorted copy at a time, so it barely shows in
    // `peak_rss_mb`.
    for group in &groups {
        let span = group.len() as f64 * bin_s;
        let lat = group.iter().flat_map(|b| b.latencies_us.iter().map(|l| f64::from(*l)));
        let lat = crate::stats::sorted(lat.collect());
        jobs.push(lat.len() as f64 / span);
        p50.push(crate::stats::percentile(&lat, 5_000).unwrap_or(f64::NAN));
        p99.push(crate::stats::percentile(&lat, 9_900).unwrap_or(f64::NAN));
        mb.push(group.iter().map(|b| b.bytes).sum::<u64>() as f64 / span / 1e6);
    }
    Ok(EndToEnd {
        jobs_per_s: crate::stats::median(&jobs),
        p50_us: crate::stats::median(&p50),
        p99_us: crate::stats::median(&p99),
        mb_per_s: crate::stats::median(&mb),
        attempted: drive.attempted(),
        errors: drive.busy + drive.failed,
        repeats: groups.len(),
        min_repeat_samples: groups.iter().map(|g| count(g)).min().unwrap_or(0),
        window_samples: in_window,
        p99_by_repeat: p99,
    })
}

/// Server-side counters the ledger reports for a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs refused with `Busy`.
    pub shed: u64,
    /// Malformed frames.
    pub frames_rejected: u64,
    /// Connections dropped on an error.
    pub connections_failed: u64,
}

impl Counters {
    /// The counters' movement between two snapshots.
    pub fn between(a: &ServiceStats, b: &ServiceStats) -> Counters {
        Counters {
            submitted: b.submitted - a.submitted,
            shed: b.shed - a.shed,
            frames_rejected: b.frames_rejected - a.frames_rejected,
            connections_failed: b.connections_failed - a.connections_failed,
        }
    }

    /// Adds another server's counters (a farm sums its heads).
    pub fn add(&mut self, other: &Counters) {
        self.submitted += other.submitted;
        self.shed += other.shed;
        self.frames_rejected += other.frames_rejected;
        self.connections_failed += other.connections_failed;
    }
}

/// Jobs the daemon computed between two counter snapshots.
pub fn computed_between(before: &ServiceStats, after: &ServiceStats) -> u64 {
    let done = after.completed - before.completed;
    let served = (after.cache_hits - before.cache_hits)
        + (after.batched - before.batched)
        + (after.store_hits - before.store_hits);
    done.saturating_sub(served)
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn a_forced_digest_mismatch_fails_the_run() {
        let pool = ExecPool::new(2);
        let mut fixture = fixture(gen::serial_set(3), &pool).unwrap();
        let base = scratch("mismatch");
        let first = (fixture.specs[0], fixture.digests[0]);
        let mut ledger = SetupLedger::default();
        let dir = base.join("store");
        let daemon = tcp_setup(&dir, Workload::Serial, &fixture, first, &mut ledger).unwrap();
        // Every reference but one stays true; the lanes must trip on it.
        fixture.digests[2] ^= 1;
        let window = Window { start: Instant::now(), seconds: 0.5 };
        let err = drive_tcp(daemon.addr, Workload::Serial, 3, window, &fixture).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
        daemon.stop().unwrap();
        let _ = std::fs::remove_dir_all(&base);

        // The cold gate recomputes: a wrong digest fails it too.
        let spec = gen::cold_spec(3, 5);
        let (encoded, _) = reference(&spec, &pool).unwrap();
        let digest = stream_digest(&encoded);
        assert_eq!(verify_cold(3, &[(5, digest)], &pool), Ok(1));
        let err = verify_cold(3, &[(5, digest ^ 1)], &pool).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn repeats_group_bins_and_demand_a_supported_p99() {
        let bin = |n: usize| Bin {
            latencies_us: (0..n).map(|i| (i % 100) as f32).collect(),
            bytes: n as u64 * 1_000_000,
        };
        let drive = |n: usize| Drive {
            bins: vec![bin(n); BINS],
            completed: (n * BINS) as u64,
            ..Drive::default()
        };
        // One-second bins of 100: repeats of ten hold the 1,000 a p99 needs.
        let seconds = BINS as f64;
        let e = summarise(&drive(100), seconds).unwrap();
        assert_eq!(
            (e.repeats, e.min_repeat_samples, e.attempted, e.errors),
            (BINS / 10, 1_000, 100 * BINS as u64, 0)
        );
        assert_eq!((e.jobs_per_s, e.mb_per_s), (100.0, 100.0));
        assert_eq!((e.p50_us, e.p99_us), (49.0, 98.0));
        assert_eq!(summarise(&drive(1_000), seconds).unwrap().repeats, BINS);
        // Too few for two repeats: one, as long as it supports a p99.
        let mut lumpy = drive(0);
        lumpy.bins[0] = bin(1_000);
        assert_eq!(summarise(&lumpy, seconds).unwrap().repeats, 1);
        lumpy.bins[0] = bin(999);
        assert!(summarise(&lumpy, seconds).is_err());
    }
}
