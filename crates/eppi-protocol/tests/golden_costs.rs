//! Golden cost table: the traffic, circuit and state figures of one
//! fixed small lifecycle (m = 8, n = 16, c = 3, seed 7: build, then a
//! 3-column delta) on each of the four backends, pinned to the values
//! the pre-unification code produced. `bench/`'s `wire_kb` is the sum
//! of exactly these byte counters at a larger scale, so a refactor that
//! would move it fails here first.
//!
//! The pipelined backend coalesces lane items into frames by arrival
//! timing, so its GMW `messages` (frames) vary from run to run and
//! `bytes` with them by one 4-byte frame header each — the benchmark's
//! 0.2 % `wire_kb` jitter. What is deterministic, and pinned exactly,
//! is the item payload `bytes − 4 · messages`; the frame count is only
//! bounded by "no coalescing at all".

use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi_protocol::{
    construct_delta, construct_distributed, construct_epoch, Backend, ConstructionReport,
    IndexEpoch, ProtocolConfig,
};

const M: usize = 8;
const N: usize = 16;

/// `[secsum rounds, messages, bytes]`, then per MPC stage (CountBelow,
/// mix) `[messages, bits, bytes, gates, AND gates, AND depth]`.
type Costs = [u64; 15];

const LOCKSTEP_BUILD: Costs = [
    2, 24, 3192, 60, 5082, 1488, 1109, 389, 8, 120, 12960, 3360, 3520, 912, 18,
];
const LOCKSTEP_DELTA: Costs = [
    2, 24, 696, 90, 1530, 1608, 332, 115, 6, 120, 2430, 2400, 660, 171, 18,
];
/// `Pipelined { workers: 2 }`: 4 lanes for the 16-column build, 3 (+ 2
/// over the retained shares, CountBelow only) for the 3-column delta.
/// A stage's `messages` slot holds its lane count and its `bytes` slot
/// the frame-header-free payload.
const PIPELINED_BUILD: Costs = [
    2, 24, 3192, 4, 4920, 4992, 1068, 372, 6, 4, 12960, 13632, 3520, 912, 18,
];
const PIPELINED_DELTA: Costs = [
    2, 24, 696, 5, 1470, 4560, 320, 110, 4, 3, 2430, 9792, 660, 171, 18,
];
/// State digests are backend-independent: every backend publishes the
/// same bits from the same shares.
const BUILD_DIGEST: u64 = 0x2999_2f28_6ef5_e980;
const DELTA_DIGEST: u64 = 0x2e71_ca6c_3f5d_6453;

fn costs(r: &ConstructionReport) -> Costs {
    let mut out = [r.secsum.rounds as u64, r.secsum.messages, r.secsum.bytes].to_vec();
    for s in [&r.count_stage, &r.mix_stage] {
        let c = s.circuit;
        out.extend([s.messages, s.bits, s.bytes]);
        out.extend([c.total_gates, c.and_gates, c.and_depth].map(|v| v as u64));
    }
    out.try_into().expect("15 figures")
}

fn check(what: &str, mut got: Costs, want: Costs, pipelined: bool) {
    for stage in [3, 9].into_iter().filter(|_| pipelined) {
        let (frames, lanes, and_depth) = (got[stage], want[stage], want[stage + 5]);
        // One item per lane, step and ordered coordinator pair.
        let items = lanes * (and_depth + 2) * 3 * 2;
        assert!(
            (1..=items).contains(&frames),
            "{what}: {frames} frames for at most {items} items"
        );
        got[stage] = lanes;
        got[stage + 2] -= 4 * frames;
    }
    assert_eq!(got, want, "{what}");
}

/// FNV-1a over every retained field of an epoch: published words, β
/// bits, decisions, λ, common count, thresholds and coordinator shares.
fn state_digest(epoch: &IndexEpoch) -> u64 {
    let matrix = epoch.index().matrix();
    let words = matrix
        .provider_ids()
        .flat_map(|p| matrix.row_words(p).to_vec());
    let scalars = [
        epoch.lambda().to_bits(),
        epoch.common_count(),
        epoch.epoch(),
    ];
    words
        .chain(epoch.index().betas().iter().map(|b| b.to_bits()))
        .chain(epoch.decisions().iter().map(|&d| u64::from(d)))
        .chain(scalars)
        .chain(epoch.thresholds().iter().copied())
        .chain(epoch.shares().iter().flatten().copied())
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn lifecycle_costs_and_state_match_the_recorded_table() {
    let mut matrix = MembershipMatrix::new(M, N);
    for j in 0..N {
        for p in 0..(j * 5 + 3) % (M + 1) {
            let provider = ProviderId(((p * 3 + j) % M) as u32);
            matrix.set(provider, OwnerId(j as u32), true);
        }
    }
    let epsilons: Vec<Epsilon> = (0..N)
        .map(|j| Epsilon::new(0.2 + (j % 7) as f64 / 10.0).unwrap())
        .collect();

    // Owners 2 and 9 change, owner 16 registers.
    let mut next = matrix.clone();
    next.grow_owners(N + 1);
    let mut delta = IndexDelta::new(N);
    for (provider, owner, change, eps) in [
        (1, 2, ColumnChange::Changed, 0.3),
        (6, 9, ColumnChange::Changed, 0.8),
        (4, 16, ColumnChange::Added, 0.5),
    ] {
        let (provider, owner) = (ProviderId(provider), OwnerId(owner));
        next.set(provider, owner, !next.get(provider, owner));
        delta.record(DeltaEntry {
            owner,
            change,
            epsilon: Epsilon::new(eps).unwrap(),
        });
    }

    for (backend, build, refresh) in [
        (Backend::InProcess, LOCKSTEP_BUILD, LOCKSTEP_DELTA),
        (Backend::Threaded, LOCKSTEP_BUILD, LOCKSTEP_DELTA),
        (Backend::Simulated, LOCKSTEP_BUILD, LOCKSTEP_DELTA),
        (
            Backend::Pipelined { workers: 2 },
            PIPELINED_BUILD,
            PIPELINED_DELTA,
        ),
    ] {
        let config = ProtocolConfig {
            backend,
            seed: 7,
            ..ProtocolConfig::default()
        };
        let pipelined = matches!(backend, Backend::Pipelined { .. });
        let full = construct_distributed(&matrix, &epsilons, &config).unwrap();
        let what = format!("{backend:?} build");
        check(&what, costs(&full.report), build, pipelined);
        let epoch0 = construct_epoch(&matrix, &epsilons, &config).unwrap();
        assert_eq!(epoch0.index(), &full.index, "{what}");
        assert_eq!(state_digest(&epoch0), BUILD_DIGEST, "{what}");
        let built = construct_delta(&epoch0, &next, &delta).unwrap();
        let what = format!("{backend:?} delta");
        check(&what, costs(&built.report), refresh, pipelined);
        assert_eq!(state_digest(&built.epoch), DELTA_DIGEST, "{what}");
    }
}
