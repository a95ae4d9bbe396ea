//! The traced run: an in-process replay of a workload's request sequence
//! that times calls into each layer's public functions from outside,
//! records them as spans, and reduces them to the per-layer ledger.
//!
//! Layers a workload does not route through (the farm on `warm`, the
//! THP/2 codec on `farm`, a kind of job a working set lacks) are still
//! timed on that workload's own specs, or on a seeded probe spec of the
//! missing kind, so every traced run prints the full ledger.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use atd::proto::msg;
use atd::store::Store;
use atd::wire::{self, flag};
use atd::{
    chunk_result, stream_digest, JobResult, JobSpec, Provenance, Reassembler, Request, Response,
    Scheduler, Service, ServiceStats,
};
use exec::{ExecPool, PoolJob};
use pstime::{DataRate, Duration, Millivolts};

use crate::e2e::{self, EndToEnd, Fixture, SetupLedger};
use crate::gen::{self, Workload};
use crate::stats::median;
use crate::{metric, Metric};

/// Every per-layer metric the traced run prints, in print order: name,
/// which direction is better, and the end-to-end metric (on the named
/// workload) a change in it should move.
pub const LEDGER: [(&str, &str, &str); 41] = [
    ("server.residual_us", "lower", "latency_p50_us on serial; barely cold"),
    ("server.frames_rejected", "lower", "ok_share (error_share) on all"),
    ("server.connections_failed", "lower", "ok_share (error_share) on all"),
    ("wire.encode_ns", "lower", "jobs_per_s on warm, latency_p50_us on serial"),
    ("wire.decode_ns", "lower", "jobs_per_s on warm, latency_p50_us on serial"),
    ("wire.overhead_bytes_per_job", "lower", "result_mb_per_s on warm"),
    ("stream.chunk_ns_per_kib", "lower", "result_mb_per_s and jobs_per_s on warm"),
    ("stream.digest_ns_per_kib", "lower", "result_mb_per_s and jobs_per_s on warm"),
    ("stream.reassemble_ns_per_kib", "lower", "result_mb_per_s and jobs_per_s on warm"),
    ("stream.chunks_per_job", "lower", "count; result_mb_per_s on warm"),
    ("scheduler.admit_ns", "lower", "latency_p50_us on serial"),
    ("scheduler.queue_wait_us", "lower", "latency_p50_us on warm, latency_p99_us on cold"),
    ("scheduler.job_us.cache", "lower", "jobs_per_s on warm"),
    ("scheduler.job_us.batched", "lower", "jobs_per_s on warm"),
    ("scheduler.job_us.computed", "lower", "jobs_per_s on cold"),
    ("scheduler.batched_share", "higher", "jobs_per_s on warm"),
    ("scheduler.shed_share", "lower", "ok_share (error_share) on all"),
    ("cache.hit_ratio", "higher", "jobs_per_s on warm, latency_p50_us on serial"),
    ("cache.get_ns", "lower", "jobs_per_s on warm, latency_p50_us on serial"),
    ("store.open_ms", "lower", "setup_s on warm"),
    ("store.get_us", "lower", "jobs_per_s and latency_p99_us on warm"),
    ("store.hit_ratio", "higher", "jobs_per_s and latency_p99_us on warm"),
    ("store.put_us", "lower", "jobs_per_s on cold"),
    ("store.put_full_ms", "lower", "jobs_per_s on cold past the default 64 MiB bound"),
    ("workload.exec_ms.shmoo", "lower", "jobs_per_s and latency_p50_us on cold"),
    ("workload.exec_ms.wafer", "lower", "jobs_per_s and latency_p50_us on cold"),
    ("workload.exec_ms.eye", "lower", "jobs_per_s and latency_p50_us on cold"),
    ("workload.exec_ms.bathtub", "lower", "jobs_per_s and latency_p50_us on cold"),
    ("kernel.prbs_stimulus_us", "lower", "jobs_per_s on cold"),
    ("kernel.expected_prbs_us", "lower", "jobs_per_s on cold"),
    ("kernel.eye_scan_ms", "lower", "jobs_per_s on cold"),
    ("kernel.shmoo_sweep_ms", "lower", "jobs_per_s on cold"),
    ("kernel.wafer_run_ms", "lower", "jobs_per_s on cold"),
    ("kernel.bathtub_ns_per_point", "lower", "jobs_per_s on cold"),
    ("farm.plan_us", "lower", "jobs_per_s and latency_p50_us on farm"),
    ("farm.route_ns", "lower", "jobs_per_s and latency_p50_us on farm"),
    ("farm.merge_us", "lower", "jobs_per_s and latency_p50_us on farm"),
    ("farm.submit_us", "lower", "jobs_per_s and latency_p50_us on farm"),
    ("farm.sub_specs_per_job", "lower", "count; jobs_per_s on farm"),
    ("farm.head_imbalance", "lower", "latency_p99_us on farm"),
    // Not a layer of the program: replay wall time with timers on over
    // timers off, minus one.
    ("trace.overhead_share", "lower", "none (the cost of the timers)"),
];

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (replay sequence number) it belongs to.
    pub request: u64,
    /// Bytes the stage processed, where that is meaningful.
    pub bytes: u64,
}

/// In-memory span recorder; with timers off it records nothing and reads
/// no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[t0, t1]`; returns the span's index.
    fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        t0: Option<Instant>,
        t1: Option<Instant>,
        bytes: u64,
    ) -> Option<usize> {
        let (t0, t1) = (t0?, t1?);
        let span =
            Span { name, start_ns: self.ns(t0), end_ns: self.ns(t1), parent, request, bytes };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Times `f` as one span.
    fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.record(name, request, parent, t0, t1, bytes);
        r
    }

    /// Durations (ns) of every span named `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per-request totals (ns) of spans named `name`.
    fn per_request(&self, name: &str) -> Vec<f64> {
        let mut by: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by.entry(s.request).or_default() += (s.end_ns - s.start_ns) as f64;
        }
        by.into_values().collect()
    }

    /// Median over spans named `name` of ns per KiB of their bytes.
    fn ns_per_kib(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.bytes > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1024.0 / s.bytes as f64)
            .collect();
        median_or_zero(&v)
    }

    /// Writes the spans as tab-separated lines under a context header.
    fn write(&self, path: &Path, context: &str) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let mut lines = format!("# {context}\nname\tstart_ns\tend_ns\tparent\trequest\tbytes\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            lines.push_str(&format!(
                "{}\t{}\t{}\t{parent}\t{}\t{}\n",
                s.name, s.start_ns, s.end_ns, s.request, s.bytes
            ));
        }
        out.write_all(lines.as_bytes()).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// What one replay pass observed besides its spans.
#[derive(Debug, Default)]
struct ReplayTally {
    jobs: u64,
    wire_bytes: u64,
    payload_bytes: u64,
    chunks: u64,
    batched: u64,
    service: ServiceStats,
}

/// The replay's stand-in for the daemon's LRU and store tiers: a
/// [`atd::cache::ResultCache`] fed the same lookup sequence as the
/// scheduler's own, and a store opened on the same records, so
/// `ResultCache::get` and `Store::get`/`put` can be timed from outside.
struct Mirror {
    cache: atd::cache::ResultCache,
    store: Store,
}

/// Replays `seq` through an in-process service configured like the
/// workload's daemon, `batch` submissions per drain, timing every layer
/// call. `reference` gives each request's expected digest.
#[allow(clippy::too_many_arguments)]
fn replay(
    tracer: &mut Tracer,
    service: &mut Service,
    mirror: &mut Mirror,
    seq: &[JobSpec],
    batch: usize,
    reference: &dyn Fn(&JobSpec) -> Result<u64, String>,
) -> Result<ReplayTally, String> {
    let mut tally = ReplayTally::default();
    let before = service.stats();
    for (b, group) in seq.chunks(batch.max(1)).enumerate() {
        let base = (b * batch.max(1)) as u64;
        // ticket -> (request id, admitted at)
        let mut admitted: BTreeMap<u64, (u64, Option<Instant>)> = BTreeMap::new();
        for (i, spec) in group.iter().enumerate() {
            let req = base + i as u64;
            let session = (req % 2) as u32 + 1;
            let frame = tracer.time("client.encode", req, None, 0, || {
                Request::Submit { session, spec: *spec }.to_frame2(req)
            });
            let frame = frame.map_err(|e| e.to_string())?;
            tally.wire_bytes += frame.len() as u64;
            let decoded = tracer.time("server.decode", req, None, frame.len() as u64, || {
                wire::decode_frame2(&frame)
                    .and_then(|(h, payload)| Request::from_parts(h.msg_type, payload))
            });
            let Ok(Request::Submit { session, spec }) = decoded else {
                return Err(format!("request {req} did not decode as a submission"));
            };
            let admission =
                tracer.time("scheduler.admit", req, None, 0, || service.admit(session, &[spec]));
            let atd::Admission::Accepted(tickets) = admission else {
                return Err(format!("replay request {req} was shed"));
            };
            let ticket = tickets.first().copied().ok_or("admission without a ticket")?;
            admitted.insert(ticket, (req, tracer.now()));
        }
        let mut outbox: Vec<(u64, Provenance, JobResult, Vec<Vec<u8>>)> = Vec::new();
        let mut failure = None;
        let mut prev = tracer.now();
        let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
        service.drain_each(&mut |c| {
            let t_in = tracer.now();
            let (req, admitted_at) = admitted.get(&c.ticket).copied().unwrap_or((u64::MAX, None));
            let job = tracer.record(job_stage(c.provenance), req, None, prev, t_in, 0);
            tracer.record("scheduler.queue_wait", req, None, admitted_at, prev, 0);
            match c.outcome {
                Ok(result) => match frames_for(tracer, req, job, c.ticket, c.provenance, &result) {
                    Ok(frames) => outbox.push((req, c.provenance, result, frames)),
                    Err(e) => failure = Some(e),
                },
                Err(e) => failure = Some(format!("replay job {req} failed: {e}")),
            }
            prev = tracer.now();
        });
        if let Some(e) = failure {
            return Err(e);
        }
        // The mirror replays the scheduler's lookup order: coalesced
        // duplicates skip the tiers, everything else asks the LRU, then
        // the store on a miss, and a computed result is written behind.
        for (req, provenance, result, _) in &outbox {
            let spec = group.get((*req - base) as usize).ok_or("unknown request id")?;
            let key = spec.key_bytes();
            if !seen.insert(key.clone()) {
                continue;
            }
            let hit = tracer.time("cache.get", *req, None, 0, || mirror.cache.get(&key).is_some());
            if hit {
                continue;
            }
            let stored = tracer.time("store.get", *req, None, 0, || mirror.store.get(&key));
            let stored = stored.map_err(|e| format!("mirror store get: {e}"))?;
            if stored.is_none() {
                if *provenance != Provenance::Computed {
                    return Err(format!("mirror store missed served request {req}"));
                }
                let payload = result.encoded().map_err(|e| e.to_string())?;
                let len = payload.len() as u64;
                let put =
                    tracer.time("store.put", *req, None, len, || mirror.store.put(&key, &payload));
                put.map_err(|e| format!("mirror store put: {e}"))?;
            }
            mirror.cache.insert(&key, result.clone());
        }
        // Client side: decode every frame, reassemble, verify.
        for (req, provenance, _, frames) in outbox {
            tally.jobs += 1;
            if provenance == Provenance::Batched {
                tally.batched += 1;
            }
            let spec = group.get((req - base) as usize).copied().ok_or("unknown request id")?;
            let want = reference(&spec)?;
            let got = client_side(tracer, req, &frames, &mut tally)?;
            if got != want {
                return Err(format!(
                    "replay digest mismatch on request {req}: got {got:016x}, want {want:016x}"
                ));
            }
        }
    }
    let after = service.stats();
    tally.service = ServiceStats {
        completed: after.completed - before.completed,
        cache_hits: after.cache_hits - before.cache_hits,
        batched: after.batched - before.batched,
        store_hits: after.store_hits - before.store_hits,
        store_misses: after.store_misses - before.store_misses,
        ..ServiceStats::default()
    };
    Ok(tally)
}

fn job_stage(p: Provenance) -> &'static str {
    match p {
        Provenance::Cache => "scheduler.job.cache",
        Provenance::Batched => "scheduler.job.batched",
        Provenance::Computed => "scheduler.job.computed",
    }
}

/// The daemon's streaming path for one result: chunk, digest, frame.
fn frames_for(
    tracer: &mut Tracer,
    req: u64,
    parent: Option<usize>,
    ticket: u64,
    provenance: Provenance,
    result: &JobResult,
) -> Result<Vec<Vec<u8>>, String> {
    let t0 = tracer.now();
    let chunks = chunk_result(result).map_err(|e| e.to_string())?;
    let total: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    tracer.record("stream.chunk", req, parent, t0, tracer.now(), total);
    let digest = tracer.time("stream.digest", req, parent, total, || {
        let mut d = atd::StreamDigest::new();
        for c in &chunks {
            d.absorb(c);
        }
        d.finish()
    });
    let mut frames = Vec::with_capacity(chunks.len() + 1);
    for (seq, chunk) in chunks.iter().enumerate() {
        let seq = seq as u32;
        let frame = tracer.time("server.encode", req, parent, chunk.len() as u64, || {
            let mut out = Vec::new();
            wire::encode_frame2_into(
                &mut out,
                msg::CHUNK,
                flag::CHUNK,
                req,
                &[&seq.to_be_bytes(), chunk],
            )
            .map(|()| out)
        });
        frames.push(frame.map_err(|e| e.to_string())?);
    }
    let summary = Response::Summary {
        ticket,
        provenance,
        chunks: chunks.len() as u32,
        total_bytes: total,
        digest,
    };
    let frame = tracer.time("server.encode", req, parent, 0, || summary.to_frame2(req));
    frames.push(frame.map_err(|e| e.to_string())?);
    Ok(frames)
}

/// The client's receive path for one job: decode each frame, reassemble,
/// verify against the summary. Returns the verified stream digest.
fn client_side(
    tracer: &mut Tracer,
    req: u64,
    frames: &[Vec<u8>],
    tally: &mut ReplayTally,
) -> Result<u64, String> {
    let mut asm = Reassembler::new();
    for frame in frames {
        tally.wire_bytes += frame.len() as u64;
        let decoded = tracer.time("client.decode", req, None, frame.len() as u64, || {
            wire::decode_frame2(frame).map(|(h, payload)| (h.msg_type, payload.to_vec()))
        });
        let (ty, payload) = decoded.map_err(|e| e.to_string())?;
        if ty == msg::CHUNK {
            let mut r = wire::Reader::new(&payload);
            let seq = r.u32().map_err(|e| e.to_string())?;
            let bytes = r.take_rest();
            tally.chunks += 1;
            tally.payload_bytes += bytes.len() as u64;
            let len = bytes.len() as u64;
            tracer
                .time("stream.reassemble", req, None, len, || asm.push(seq, bytes))
                .map_err(|e| e.to_string())?;
            continue;
        }
        let response = Response::from_parts(ty, &payload).map_err(|e| e.to_string())?;
        let Response::Summary { chunks, total_bytes, digest, .. } = response else {
            return Err(format!("request {req} ended with {response:?}"));
        };
        let asm = std::mem::take(&mut asm);
        let result = tracer.time("stream.reassemble", req, None, total_bytes, || {
            asm.finish(chunks, total_bytes, digest)
        });
        result.map_err(|e| format!("request {req}: {e}"))?;
        return Ok(digest);
    }
    Err(format!("request {req} had no summary"))
}

/// One spec per kind: the workload's first of that kind, else a probe
/// from the cold generator.
fn one_per_kind(specs: &[JobSpec], seed: u64) -> Vec<JobSpec> {
    (0..4)
        .map(|k| {
            let probe = gen::cold_spec_of_kind(seed ^ 0x9e37, k, k);
            specs.iter().find(|s| s.kind() == probe.kind()).copied().unwrap_or(probe)
        })
        .collect()
}

/// Times the kernel entry points `workload::execute` calls, with the
/// arguments it reconstructs, `reps` times each.
fn kernels(specs: &[JobSpec], pool: &ExecPool, reps: usize) -> Result<Vec<Metric>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (mut stim, mut expect, mut eye, mut shmoo, mut wafer, mut tub) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        for spec in specs {
            match *spec {
                JobSpec::Shmoo {
                    rate_bps,
                    bits,
                    stim_seed,
                    phase_step_fs,
                    v_start_mv,
                    v_end_mv,
                    v_step_mv,
                    seed,
                } => {
                    let rate = DataRate::from_bps(rate_bps);
                    let (expected, wave) = prbs(rate, bits, stim_seed, &mut stim, &mut expect)?;
                    let config = minitester::ShmooConfig {
                        phase_step: Duration::from_fs(phase_step_fs),
                        v_start: Millivolts::new(v_start_mv),
                        v_end: Millivolts::new(v_end_mv),
                        v_step: Millivolts::new(v_step_mv),
                    };
                    let t = Instant::now();
                    let job = minitester::ShmooJob {
                        wave: &wave,
                        rate,
                        expected: &expected,
                        config,
                        seed,
                    };
                    std::hint::black_box(job.run_on(pool).map_err(|e| err(&e))?);
                    shmoo.push(t.elapsed().as_secs_f64() * 1e3);
                }
                JobSpec::Eye { rate_bps, bits, stim_seed, seed } => {
                    let rate = DataRate::from_bps(rate_bps);
                    let (expected, wave) = prbs(rate, bits, stim_seed, &mut stim, &mut expect)?;
                    let capture = minitester::EtCapture::new();
                    let t = Instant::now();
                    let job = minitester::EyeScanJob {
                        capture: &capture,
                        wave: &wave,
                        rate,
                        expected: &expected,
                        seed,
                    };
                    std::hint::black_box(job.run_on(pool).map_err(|e| err(&e))?);
                    eye.push(t.elapsed().as_secs_f64() * 1e3);
                }
                JobSpec::Wafer {
                    columns,
                    dies,
                    sites,
                    hard_defect_rate,
                    marginal_rate,
                    rate_bps,
                    test_bits,
                    seed,
                } => {
                    let config = minitester::WaferRunConfig {
                        columns: columns as usize,
                        dies: dies as usize,
                        sites: sites as usize,
                        hard_defect_rate,
                        marginal_rate,
                        rate: DataRate::from_bps(rate_bps),
                        test_bits: test_bits as usize,
                        seed,
                    };
                    let t = Instant::now();
                    std::hint::black_box(config.run_on(pool).map_err(|e| err(&e))?);
                    wafer.push(t.elapsed().as_secs_f64() * 1e3);
                }
                JobSpec::Bathtub { rj_rms_fs, dj_pp_fs, rate_bps, transition_density, points } => {
                    let curve = signal::BathtubCurve::new(
                        Duration::from_fs(rj_rms_fs),
                        Duration::from_fs(dj_pp_fs),
                        DataRate::from_bps(rate_bps),
                        transition_density,
                    );
                    let t = Instant::now();
                    let sweep = signal::BathtubSweep { curve: &curve, points: points as usize };
                    std::hint::black_box(sweep.run_on(pool).map_err(|e| err(&e))?);
                    tub.push(t.elapsed().as_secs_f64() * 1e9 / f64::from(points.max(1)));
                }
                // `one_per_kind` yields whole specs only.
                JobSpec::ShmooRows { .. }
                | JobSpec::WaferDies { .. }
                | JobSpec::EyeRange { .. } => {}
            }
        }
    }
    Ok(vec![
        metric("kernel.prbs_stimulus_us", median_or_zero(&stim), "us"),
        metric("kernel.expected_prbs_us", median_or_zero(&expect), "us"),
        metric("kernel.eye_scan_ms", median_or_zero(&eye), "ms"),
        metric("kernel.shmoo_sweep_ms", median_or_zero(&shmoo), "ms"),
        metric("kernel.wafer_run_ms", median_or_zero(&wafer), "ms"),
        metric("kernel.bathtub_ns_per_point", median_or_zero(&tub), "ns"),
    ])
}

/// The two PRBS kernels, timed, exactly as `workload::execute` calls them.
fn prbs(
    rate: DataRate,
    bits: u32,
    stim_seed: u64,
    stim_us: &mut Vec<f64>,
    expect_us: &mut Vec<f64>,
) -> Result<(signal::BitStream, signal::AnalogWaveform), String> {
    let n = bits as usize;
    let t = Instant::now();
    let mut path = minitester::MiniTesterDatapath::new().map_err(|e| e.to_string())?;
    let expected = path.expected_prbs(rate, n).map_err(|e| e.to_string())?;
    expect_us.push(t.elapsed().as_secs_f64() * 1e6);
    let t = Instant::now();
    let mut stim_path = minitester::MiniTesterDatapath::new().map_err(|e| e.to_string())?;
    let wave = stim_path.prbs_stimulus(rate, n, stim_seed).map_err(|e| e.to_string())?;
    stim_us.push(t.elapsed().as_secs_f64() * 1e6);
    Ok((expected, wave))
}

/// The farm ledger over a workload's shardable specs: plan, route,
/// merge, and warm submissions through a fresh three-head farm.
fn farm_ledger(sequence: &[JobSpec], pool: &ExecPool) -> Result<Vec<Metric>, String> {
    let shardable: Vec<JobSpec> =
        sequence.iter().filter(|s| s.shard_extent().is_some()).take(512).copied().collect();
    let mut distinct: Vec<JobSpec> = Vec::new();
    for s in &shardable {
        if distinct.len() < 16 && !distinct.iter().any(|d| d.key_bytes() == s.key_bytes()) {
            distinct.push(*s);
        }
    }
    let replayed: Vec<JobSpec> = shardable
        .iter()
        .filter(|s| distinct.iter().any(|d| d.key_bytes() == s.key_bytes()))
        .copied()
        .collect();
    let mut farm = atd_farm::Farm::in_proc(gen::FARM_HEADS).map_err(|e| e.to_string())?;
    let (mut plan_us, mut route_ns, mut merge_us, mut submit_us) = (vec![], vec![], vec![], vec![]);
    let serial = ExecPool::serial();
    for spec in &distinct {
        let t = Instant::now();
        let subs = atd_farm::plan(spec, gen::FARM_HEADS).map_err(|e| e.to_string())?;
        plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        for sub in &subs {
            let t = Instant::now();
            std::hint::black_box(farm.route(sub));
            route_ns.push(t.elapsed().as_secs_f64() * 1e9);
        }
        let results: Vec<JobResult> = subs
            .iter()
            .map(|s| atd::workload::execute(s, &serial).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let want = e2e::digest_of(&atd::workload::execute(spec, pool).map_err(|e| e.to_string())?)?;
        for _ in 0..3 {
            let t = Instant::now();
            let merged = atd_farm::merge(spec, &results).map_err(|e| e.to_string())?;
            merge_us.push(t.elapsed().as_secs_f64() * 1e6);
            if e2e::digest_of(&merged)? != want {
                return Err("farm ledger merge digest mismatch".to_string());
            }
        }
        // Prime the heads so the timed submissions below are warm.
        farm.submit(0, *spec).map_err(|e| e.to_string())?;
    }
    for spec in &replayed {
        let t = Instant::now();
        farm.submit(1, *spec).map_err(|e| e.to_string())?;
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let stats = farm.stats().clone();
    let per_head: Vec<f64> = stats.per_head.iter().map(|h| h.submitted as f64).collect();
    let mean = per_head.iter().sum::<f64>() / per_head.len().max(1) as f64;
    let busiest = per_head.iter().copied().fold(0.0, f64::max);
    farm.shutdown().map_err(|e| e.to_string())?;
    Ok(vec![
        metric("farm.plan_us", median_or_zero(&plan_us), "us"),
        metric("farm.route_ns", median_or_zero(&route_ns), "ns"),
        metric("farm.merge_us", median_or_zero(&merge_us), "us"),
        metric("farm.submit_us", median_or_zero(&submit_us), "us"),
        metric(
            "farm.sub_specs_per_job",
            stats.sub_specs as f64 / stats.specs.max(1) as f64,
            "count",
        ),
        metric("farm.head_imbalance", if mean > 0.0 { busiest / mean } else { 0.0 }, "ratio"),
    ])
}

/// Requests a replay pass sends, and submissions per drain.
fn replay_shape(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::Warm => (4_096, workload.connections() * workload.depth()),
        Workload::Cold => (256, workload.connections() * workload.depth()),
        Workload::Serial => (2_048, 1),
        // The farm's heads admit and drain one sub-spec at a time.
        Workload::Farm => (1_024, 1),
    }
}

/// The workload's generated request sequence, as the lanes send it
/// (lanes interleaved); `pass` selects a fresh stretch of cold specs.
fn sequence(workload: Workload, seed: u64, fixture: &Fixture, pass: usize) -> Vec<JobSpec> {
    let (n, _) = replay_shape(workload);
    if workload == Workload::Cold {
        return (0..n).map(|i| gen::cold_spec(seed, pass * n + i)).collect();
    }
    let lanes = workload.connections();
    let mut draws: Vec<gen::Draws> =
        (0..lanes).map(|l| gen::draws(workload, seed, l as u64, fixture.specs.len())).collect();
    (0..n).map(|i| fixture.specs[draws[i % lanes].next_index()]).collect()
}

/// Runs the traced replay and reduces everything to the ledger.
#[allow(clippy::too_many_arguments)]
pub fn run(
    workload: Workload,
    seed: u64,
    base: &Path,
    fixture: &Fixture,
    setup: &SetupLedger,
    phase_stats: &e2e::Counters,
    untraced: &EndToEnd,
    pool: &ExecPool,
) -> Result<Vec<Metric>, String> {
    let (_, batch) = replay_shape(workload);
    let campaigns = sequence(workload, seed, fixture, 0);
    // The farm's heads see sub-specs; every other workload its requests.
    let (seq, off_seq) = if workload == Workload::Farm {
        let subs: Vec<JobSpec> = campaigns
            .iter()
            .map(|s| atd_farm::plan(s, gen::FARM_HEADS).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?
            .concat();
        (subs.clone(), subs)
    } else {
        (campaigns.clone(), sequence(workload, seed, fixture, 1))
    };
    // Reference digests: the fixture where there is one, otherwise an
    // in-process recomputation (timed, feeding workload.exec_ms).
    let mut exec_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (kind, ms) in &fixture.exec_ms {
        exec_ms.entry(kind).or_default().push(*ms);
    }
    let by_key: BTreeMap<Vec<u8>, u64> =
        fixture.specs.iter().map(JobSpec::key_bytes).zip(fixture.digests.iter().copied()).collect();
    let mut computed_refs: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut payloads: Vec<Vec<u8>> = fixture.encoded.clone();
    for spec in seq.iter().chain(&off_seq) {
        let key = spec.key_bytes();
        if by_key.contains_key(&key) || computed_refs.contains_key(&key) {
            continue;
        }
        let (encoded, ms) = e2e::reference(spec, pool)?;
        if spec.shard_extent().is_some() || matches!(spec, JobSpec::Bathtub { .. }) {
            exec_ms.entry(spec.kind()).or_default().push(ms);
        }
        computed_refs.insert(key, stream_digest(&encoded));
        if payloads.len() < 64 {
            payloads.push(encoded);
        }
    }
    let reference = |spec: &JobSpec| -> Result<u64, String> {
        let key = spec.key_bytes();
        by_key
            .get(&key)
            .or_else(|| computed_refs.get(&key))
            .copied()
            .ok_or_else(|| "no reference digest".to_string())
    };

    // A fresh service and mirror per pass, over the same stored records.
    let open_pass = |tag: &str| -> Result<(Service, Mirror), String> {
        let dir = base.join(format!("replay-{tag}"));
        let mirror_dir = base.join(format!("mirror-{tag}"));
        let mut scratch = Vec::new();
        let stored = if workload == Workload::Farm { &Fixture::default() } else { fixture };
        e2e::build_store(&dir, stored, &mut scratch)?;
        e2e::build_store(&mirror_dir, stored, &mut scratch)?;
        let bound = e2e::store_bound(workload);
        let open = |d: &Path| Store::open(e2e::store_config(d, bound)).map_err(|e| e.to_string());
        // One service stands in for the whole fleet on the farm, so it
        // gets the fleet's total LRU capacity.
        let heads = if workload == Workload::Farm { gen::FARM_HEADS } else { 1 };
        let entries = heads * atd::scheduler::DEFAULT_CACHE_ENTRIES;
        let scheduler =
            Scheduler::new(atd::scheduler::DEFAULT_QUEUE_DEPTH, entries).with_store(open(&dir)?);
        let service = Service::new(e2e::daemon_pool(workload), scheduler);
        let cache = atd::cache::ResultCache::new(entries);
        Ok((service, Mirror { cache, store: open(&mirror_dir)? }))
    };

    // Timers off first (it also primes the caches on the warm
    // workloads), then on, then off again over an equal sequence.
    let (mut service, mut mirror) = open_pass("traced")?;
    let mut off = Tracer::new(false);
    if workload != Workload::Cold {
        replay(&mut off, &mut service, &mut mirror, &seq, batch, &reference)?;
    }
    let mut traced = Tracer::new(true);
    let t = Instant::now();
    let tally = replay(&mut traced, &mut service, &mut mirror, &seq, batch, &reference)?;
    let on_s = t.elapsed().as_secs_f64();
    let (mut service_off, mut mirror_off) = open_pass("untimed")?;
    if workload != Workload::Cold {
        replay(&mut off, &mut service_off, &mut mirror_off, &off_seq, batch, &reference)?;
    }
    let t = Instant::now();
    replay(&mut off, &mut service_off, &mut mirror_off, &off_seq, batch, &reference)?;
    let off_s = t.elapsed().as_secs_f64();

    // Stage medians per request, in µs, in path order.
    let us = |name: &str| median_or_zero(&traced.per_request(name)) / 1e3;
    let job_all: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name.starts_with("scheduler.job."))
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let mut stages: Vec<(&str, f64)> = vec![
        ("client.encode", us("client.encode")),
        ("server.decode", us("server.decode")),
        ("scheduler.admit", us("scheduler.admit")),
        ("scheduler.queue_wait", us("scheduler.queue_wait")),
        ("scheduler.job (all provenances)", median_or_zero(&job_all) / 1e3),
        ("stream.chunk", us("stream.chunk")),
        ("stream.digest", us("stream.digest")),
        ("server.encode", us("server.encode")),
        ("client.decode", us("client.decode")),
        ("stream.reassemble", us("stream.reassemble")),
    ];
    let farm = farm_ledger(&campaigns, pool)?;
    let farm_value = |name: &str| farm.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    if workload == Workload::Farm {
        // A farm campaign's path: plan, route each shard, one head
        // round trip per shard (its admit, queue and job), merge.
        let shards = farm_value("farm.sub_specs_per_job");
        let per_shard =
            us("scheduler.admit") + us("scheduler.queue_wait") + median_or_zero(&job_all) / 1e3;
        stages = vec![
            ("farm.plan", farm_value("farm.plan_us")),
            ("farm.route x shards", farm_value("farm.route_ns") * shards / 1e3),
            ("head admit+queue+job x shards", per_shard * shards),
            ("farm.merge", farm_value("farm.merge_us")),
        ];
    }
    let staged: f64 = stages.iter().map(|(_, v)| v).sum();
    let residual = untraced.p50_us - staged;
    println!("# reconciliation (stage medians per job, us), {} replayed requests:", seq.len());
    for (name, v) in &stages {
        println!("#   {name:<34} {v:>12.3}");
    }
    println!("#   {:<34} {residual:>12.3}", "server.residual_us");
    println!("#   {:<34} {:>12.3}  (untraced latency_p50_us)", "total", staged + residual);
    println!(
        "# tracing overhead: replay {on_s:.4} s with timers on vs {off_s:.4} s off ({} spans)",
        traced.spans.len()
    );

    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let context = format!(
        "workload {} seed {seed} nproc {nproc} exec_threads {} untraced_p50_samples {} \
         replayed_requests {} batch {batch} transport in-process replay (untraced phase: {})",
        workload.name(),
        pool.threads(),
        untraced.min_repeat_samples,
        seq.len(),
        if workload == Workload::Farm { "in-process farm" } else { "TCP loopback" },
    );
    let spans_path = base.parent().unwrap_or(base).join(format!("spans-{}.tsv", workload.name()));
    traced.write(&spans_path, &context)?;
    println!("# spans: {} written to {}", traced.spans.len(), spans_path.display());

    let job_us = |name: &str| median_or_zero(&traced.durations(name)) / 1e3;
    let frame_ns = |names: [&str; 2]| {
        let v: Vec<f64> = names.iter().flat_map(|n| traced.durations(n)).collect();
        median_or_zero(&v)
    };
    let lookups = tally.jobs - tally.batched;
    let store_lookups = tally.service.store_hits + tally.service.store_misses;
    let mut put_us = setup.put_us.clone();
    put_us.extend(traced.durations("store.put").iter().map(|ns| ns / 1e3));
    let mut metrics = vec![
        metric("server.residual_us", residual, "us"),
        metric("server.frames_rejected", phase_stats.frames_rejected as f64, "count"),
        metric("server.connections_failed", phase_stats.connections_failed as f64, "count"),
        metric("wire.encode_ns", frame_ns(["client.encode", "server.encode"]), "ns"),
        metric("wire.decode_ns", frame_ns(["server.decode", "client.decode"]), "ns"),
        metric(
            "wire.overhead_bytes_per_job",
            (tally.wire_bytes - tally.payload_bytes) as f64 / tally.jobs.max(1) as f64,
            "bytes",
        ),
        metric("stream.chunk_ns_per_kib", traced.ns_per_kib("stream.chunk"), "ns/KiB"),
        metric("stream.digest_ns_per_kib", traced.ns_per_kib("stream.digest"), "ns/KiB"),
        metric("stream.reassemble_ns_per_kib", reassemble_ns_per_kib(&traced), "ns/KiB"),
        metric("stream.chunks_per_job", tally.chunks as f64 / tally.jobs.max(1) as f64, "count"),
        metric("scheduler.admit_ns", median_or_zero(&traced.durations("scheduler.admit")), "ns"),
        metric("scheduler.queue_wait_us", job_us("scheduler.queue_wait"), "us"),
        metric("scheduler.job_us.cache", job_us("scheduler.job.cache"), "us"),
        metric("scheduler.job_us.batched", job_us("scheduler.job.batched"), "us"),
        metric("scheduler.job_us.computed", job_us("scheduler.job.computed"), "us"),
        metric("scheduler.batched_share", tally.batched as f64 / tally.jobs.max(1) as f64, "ratio"),
        metric(
            "scheduler.shed_share",
            phase_stats.shed as f64 / (phase_stats.submitted + phase_stats.shed).max(1) as f64,
            "ratio",
        ),
        metric("cache.hit_ratio", tally.service.cache_hits as f64 / lookups.max(1) as f64, "ratio"),
        metric("cache.get_ns", median_or_zero(&traced.durations("cache.get")), "ns"),
        metric("store.open_ms", median_or_zero(&setup.open_ms), "ms"),
        metric("store.get_us", median_or_zero(&traced.durations("store.get")) / 1e3, "us"),
        metric(
            "store.hit_ratio",
            tally.service.store_hits as f64 / store_lookups.max(1) as f64,
            "ratio",
        ),
        metric("store.put_us", median_or_zero(&put_us), "us"),
        metric("store.put_full_ms", put_at_bound(base, &payloads)?, "ms"),
    ];
    // Kinds the replay never executed are timed on probe specs.
    let kinds = one_per_kind(&campaigns, seed);
    for spec in &kinds {
        let ms = exec_ms.entry(spec.kind()).or_default();
        if ms.is_empty() {
            for _ in 0..3 {
                ms.push(e2e::reference(spec, pool)?.1);
            }
        }
    }
    for kind in ["shmoo", "wafer", "eye", "bathtub"] {
        let ms = exec_ms.get(kind).map_or(0.0, |v| median_or_zero(v));
        metrics.push(metric(&format!("workload.exec_ms.{kind}"), ms, "ms"));
    }
    metrics.extend(kernels(&kinds, pool, 3)?);
    metrics.extend(farm);
    metrics.push(metric("trace.overhead_share", on_s / off_s - 1.0, "ratio"));
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = LEDGER.iter().map(|(name, _, _)| *name).collect();
    if names != want {
        return Err(format!("ledger printed {names:?}"));
    }
    Ok(metrics)
}

/// Puts timed past the store bound.
const PUTS_PAST_BOUND: u32 = 8;

/// The mean time of a put into a store already past the daemon's
/// default disk bound, filled with the workload's own results under
/// distinct keys. Past the bound a put evicts, and every few puts one
/// rewrites the whole store, so the mean is the rate-limiting cost.
fn put_at_bound(base: &Path, payloads: &[Vec<u8>]) -> Result<f64, String> {
    if payloads.is_empty() {
        return Ok(0.0);
    }
    let dir = base.join("full-store");
    let _ = std::fs::remove_dir_all(&dir);
    let config = e2e::store_config(&dir, atd::scheduler::DEFAULT_STORE_MAX_BYTES);
    let mut store = Store::open(config).map_err(|e| e.to_string())?;
    let put = |store: &mut Store, n: u64| {
        let payload = &payloads[n as usize % payloads.len()];
        store.put(&n.to_be_bytes(), payload).map_err(|e| e.to_string())
    };
    let mut n = 0u64;
    while store.stats().compactions == 0 {
        put(&mut store, n)?;
        n += 1;
    }
    let t = Instant::now();
    for k in 0..u64::from(PUTS_PAST_BOUND) {
        put(&mut store, n + k)?;
    }
    let ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(PUTS_PAST_BOUND);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ms)
}

/// Reassembly cost per KiB of result: per job, the summed push and
/// finish spans over the job's payload bytes.
fn reassemble_ns_per_kib(tracer: &Tracer) -> f64 {
    let mut by: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for s in tracer.spans.iter().filter(|s| s.name == "stream.reassemble") {
        let e = by.entry(s.request).or_default();
        e.0 += (s.end_ns - s.start_ns) as f64;
        e.1 = e.1.max(s.bytes);
    }
    let v: Vec<f64> =
        by.into_values().filter(|(_, b)| *b > 0).map(|(ns, b)| ns * 1024.0 / b as f64).collect();
    median_or_zero(&v)
}
