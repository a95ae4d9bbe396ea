//! Cross-version goldens for computed results.
//!
//! Every canary elsewhere compares one build against itself (1 worker vs
//! 4, 1 head vs 3). This file pins the bytes themselves: the
//! [`stream_digest`] of each result's canonical encoding, for a fixed spec
//! list that covers every [`JobSpec`] kind. A kernel change that moves a
//! single result byte fails here. The pins were frozen before the signal
//! and datapath kernels were made linear-time, so they also certify that
//! those rewrites are exact.

use atd::stream::stream_digest;
use atd::workload::execute;
use atd::JobSpec;
use exec::ExecPool;
use pstime::{DataRate, Duration, Millivolts};

fn shmoo() -> JobSpec {
    JobSpec::shmoo(DataRate::from_gbps(2.5), 256, 17, &minitester::ShmooConfig::pecl(), 5)
}

fn wafer() -> JobSpec {
    JobSpec::wafer(&minitester::WaferRunConfig {
        dies: 8,
        columns: 4,
        sites: 4,
        test_bits: 256,
        ..minitester::WaferRunConfig::default()
    })
}

fn eye() -> JobSpec {
    JobSpec::eye(DataRate::from_gbps(2.5), 256, 21, 9)
}

/// Threshold rows from VOL to VOH in 100 mV steps: the first and last
/// rows compare against a settled rail itself.
fn shmoo_on_the_rails() -> JobSpec {
    let config = minitester::ShmooConfig {
        v_start: Millivolts::new(-1700),
        v_end: Millivolts::new(-900),
        v_step: Millivolts::new(100),
        ..minitester::ShmooConfig::pecl()
    };
    JobSpec::shmoo(DataRate::from_gbps(2.5), 256, 19, &config, 23)
}

/// A marginal-defect rate of one half (3 of these 12 dies draw one), so
/// several dies test through the degraded loopback channel.
fn wafer_marginal() -> JobSpec {
    JobSpec::wafer(&minitester::WaferRunConfig {
        dies: 12,
        columns: 4,
        sites: 4,
        test_bits: 256,
        hard_defect_rate: 0.1,
        marginal_rate: 0.5,
        seed: 29,
        ..minitester::WaferRunConfig::default()
    })
}

/// The spec list and its frozen digests, one row per kind plus a long
/// eye whose capture exercises thousands of edges per strobe.
fn goldens() -> Vec<(&'static str, JobSpec, u64)> {
    let slice = |spec: JobSpec, start, count| spec.slice(start, count).expect("in-range shard");
    vec![
        ("shmoo", shmoo(), 0x15B8_B919_EC70_4436),
        ("wafer", wafer(), 0x3902_8A74_DBBF_8385),
        ("eye", eye(), 0x41A9_6BC9_9BF6_AD41),
        (
            "bathtub",
            JobSpec::bathtub(
                Duration::from_ps_f64(3.2),
                Duration::from_ps(20),
                DataRate::from_gbps(2.5),
                0.5,
                101,
            ),
            0xDF4C_A4CD_A7F9_72ED,
        ),
        ("shmoo-rows", slice(shmoo(), 1, 2), 0x5AAF_D59E_1D42_21AF),
        ("wafer-dies", slice(wafer(), 3, 4), 0x67E4_4E6C_14D1_E61C),
        ("eye-range", slice(eye(), 5, 7), 0x8F66_91BC_0BC2_5F5B),
        ("eye-4096", JobSpec::eye(DataRate::from_gbps(5.0), 4_096, 3, 11), 0xE8A1_4B56_4C30_BBC1),
        // Specs whose strobes often sit close to the threshold, frozen
        // before strobe decisions were certified, so they pin the slow
        // path as well as the settled one: heavy ISI at 5 Gb/s, threshold
        // rows exactly on both rails, degraded loopback channels, and a
        // slow eye with long settled stretches.
        ("eye-5g", JobSpec::eye(DataRate::from_gbps(5.0), 512, 7, 13), 0xE08E_6766_D40F_9AEF),
        ("shmoo-rails", shmoo_on_the_rails(), 0xB5DD_C1D6_DD66_3F36),
        ("wafer-marginal", wafer_marginal(), 0xAFF9_A203_EB6D_E672),
        ("eye-1g", JobSpec::eye(DataRate::from_gbps(1.0), 256, 5, 17), 0x3818_D1AE_EE7C_6665),
    ]
}

fn digest_of(spec: &JobSpec, pool: &ExecPool) -> u64 {
    let result = execute(spec, pool).expect("golden spec executes");
    stream_digest(&result.encoded().expect("golden result encodes"))
}

fn assert_pins(pool: &ExecPool) {
    let mut drift = Vec::new();
    for (name, spec, want) in goldens() {
        let got = digest_of(&spec, pool);
        if got != want {
            drift.push(format!("{name}: got {got:#018X}, pinned {want:#018X}"));
        }
    }
    assert!(drift.is_empty(), "computed result bytes drifted:\n{}", drift.join("\n"));
}

#[test]
fn computed_digests_are_frozen_serially() {
    assert_pins(&ExecPool::new(1));
}

#[test]
fn computed_digests_are_frozen_on_two_workers() {
    assert_pins(&ExecPool::new(2));
}

#[test]
fn golden_list_covers_every_spec_kind() {
    let kinds: Vec<&str> = goldens().iter().map(|(_, spec, _)| spec.kind()).collect();
    for kind in ["shmoo", "wafer", "eye", "bathtub", "shmoo-rows", "wafer-dies", "eye-range"] {
        assert!(kinds.contains(&kind), "no golden for {kind}");
    }
}
