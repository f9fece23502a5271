//! The generic-MPC stage among the `c` coordinators (Alg. 1 stage 2).
//!
//! Packed GMW (`eppi_mpc::gmw_core`) is the only MPC engine; what
//! varies is how it is run. `Backend::execute` is the single place
//! that knows, and [`run_count_below`] / [`run_mix_decision`] are
//! written once on top of it: split the columns into the backend's
//! lanes, compile one circuit per lane, encode, execute, decode. The
//! four backends:
//!
//! * [`Backend::InProcess`] — the single-threaded reference evaluator
//!   (`eppi_mpc::gmw`), exact and fast, used by tests and large sweeps;
//! * [`Backend::Threaded`] — one OS thread per coordinator with real
//!   message exchange, used by the wall-clock experiments (Fig. 6a/6c);
//! * [`Backend::Simulated`] — the round-based network simulator, which
//!   additionally reports *simulated network time* under a LAN link
//!   model (the quantity that dominated the paper's Emulab numbers);
//! * [`Backend::Pipelined`] — the stage-based pipelined runtime
//!   (DESIGN.md §15): the column batch is split into independent
//!   pipeline lanes evaluated concurrently by a worker pool, with
//!   per-peer send coalescing. Counts are summed and decisions
//!   concatenated across lanes — exact, because CountBelow is a sum of
//!   per-column indicators and the mix coins are keyed by global owner
//!   id.
//!
//! All produce identical results; only the reported cost differs (a
//! multi-lane stage's `circuit` stats merge the per-lane circuits:
//! gate counts are summed, depths maxed). The SecSumShare runtime that
//! goes with each backend is [`Backend::secsumshare`].

use crate::pipelined_gmw::{execute_pipelined_with_registry, LaneSpec, PipelineConfig};
use crate::secsum::{secsumshare_sim, secsumshare_threaded_stats, SecSumOutput};
use crate::sim_gmw::execute_simulated;
use crate::threaded_gmw::execute_threaded_with_registry;
use eppi_core::model::{LocalVector, OwnerId};
use eppi_mpc::circuit::{Circuit, CircuitStats, InputLayout};
use eppi_mpc::circuits::{lambda_threshold, CountBelowCircuit, MixDecisionCircuit};
use eppi_mpc::field::Modulus;
use eppi_mpc::gmw;
use eppi_net::sim::LinkModel;
use eppi_trace::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Which MPC engine executes the coordinator circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Single-threaded reference evaluation.
    #[default]
    InProcess,
    /// One OS thread per coordinator (wall-clock backend).
    Threaded,
    /// Round-based network simulation (simulated-time backend; LAN link
    /// model).
    Simulated,
    /// Stage-based pipelined runtime: the column batch runs as
    /// independent lanes on `workers` worker threads per coordinator,
    /// with streamed triple dealing and coalesced sends.
    Pipelined {
        /// Lane-evaluation worker threads per coordinator.
        workers: usize,
    },
}

impl Backend {
    /// Evaluates every lane's circuit on this backend — the one place
    /// that knows how a backend runs circuits. Returns the lanes' opened
    /// outputs in lane order and the stage cost: traffic summed over the
    /// lanes, `circuit` their [`CircuitStats::merge`]. The lockstep
    /// backends run the lanes one after another, the pipelined backend
    /// concurrently over one shared network; an empty batch costs
    /// nothing. The wall-clock backends report and trace into `obs` —
    /// the caller's, handed down unchanged (the in-process evaluator
    /// and the simulator emit nothing).
    ///
    /// # Panics
    ///
    /// Panics if a lane's inputs disagree with its layout or its layout
    /// with its circuit.
    pub(crate) fn execute(
        self,
        lanes: &[LaneSpec<'_>],
        obs: Obs<'_>,
    ) -> (Vec<Vec<bool>>, StageReport) {
        let mut report = StageReport {
            circuit: lanes
                .iter()
                .map(|l| l.circuit.stats())
                .fold(CircuitStats::default(), CircuitStats::merge),
            ..StageReport::default()
        };
        let mut traffic = |messages: u64, bits: u64, bytes: u64, simulated_us: f64| {
            report.messages += messages;
            report.bits += bits;
            report.bytes += bytes;
            report.simulated_us += simulated_us;
        };
        let outputs = match self {
            Backend::Pipelined { workers } => {
                let config = PipelineConfig::with_workers(workers);
                let (outs, r) = execute_pipelined_with_registry(lanes, &config, obs)
                    .expect("in-process pipeline cannot lose a party");
                traffic(r.messages, r.bits_sent, r.bytes, 0.0);
                outs
            }
            Backend::Simulated => lanes
                .iter()
                .map(|l| {
                    let (out, net) =
                        execute_simulated(l.circuit, l.layout, l.inputs, LinkModel::LAN, l.seed);
                    traffic(net.messages, net.bits, net.bytes, net.simulated_us);
                    out
                })
                .collect(),
            Backend::InProcess | Backend::Threaded => lanes
                .iter()
                .map(|l| {
                    let (out, g) = if self == Backend::Threaded {
                        execute_threaded_with_registry(l.circuit, l.layout, l.inputs, l.seed, obs)
                    } else {
                        let mut rng = StdRng::seed_from_u64(l.seed);
                        gmw::execute(l.circuit, l.layout, l.inputs, &mut rng)
                    };
                    traffic(g.messages, g.bits_sent, g.bytes, 0.0);
                    out
                })
                .collect(),
        };
        (outputs, report)
    }

    /// Runs SecSumShare on this backend's runtime: the wall-clock
    /// backends (threaded, pipelined) sum over real threads, the others
    /// keep the round simulator under `link`. Per-provider seeding is
    /// identical, so the shares — and every downstream bit — do not
    /// depend on this choice.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`secsumshare_sim`].
    pub fn secsumshare(
        self,
        vectors: &[LocalVector],
        c: usize,
        modulus: Modulus,
        link: LinkModel,
        seed: u64,
    ) -> SecSumOutput {
        match self {
            Backend::Threaded | Backend::Pipelined { .. } => {
                secsumshare_threaded_stats(vectors, c, modulus, seed)
            }
            Backend::InProcess | Backend::Simulated => {
                secsumshare_sim(vectors, c, modulus, link, seed)
            }
        }
    }

    /// Splits a batch of `columns` columns into this backend's lanes
    /// (contiguous column ranges, in order): the pipelined backend
    /// spreads the batch over enough lanes to keep every worker busy
    /// with headroom, never more than columns; the lockstep backends run
    /// it as one circuit. A zero-column batch is zero lanes.
    fn lane_ranges(self, columns: usize) -> Vec<Range<usize>> {
        if columns == 0 {
            return Vec::new();
        }
        let lanes = match self {
            Backend::Pipelined { workers } => (workers.max(1) * 2).min(columns),
            _ => 1,
        };
        let chunk = columns.div_ceil(lanes);
        (0..columns)
            .step_by(chunk)
            .map(|lo| lo..(lo + chunk).min(columns))
            .collect()
    }
}

/// Seed of lane `i` in a batch seeded `s`: each lane runs as a
/// standalone circuit with its own dealer and party randomness.
fn lane_seed(seed: u64, lane: usize) -> u64 {
    seed ^ (lane as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Assembles the batch `backend.execute` runs: lane `i` evaluates
/// `circuits[i]` on `inputs[i]` (one bit vector per party).
fn lane_specs<'a>(
    circuits: impl Iterator<Item = (&'a Circuit, &'a InputLayout)>,
    inputs: &'a [Vec<Vec<bool>>],
    seed: u64,
) -> Vec<LaneSpec<'a>> {
    circuits
        .zip(inputs)
        .enumerate()
        .map(|(i, ((circuit, layout), inputs))| LaneSpec {
            circuit,
            layout,
            inputs,
            seed: lane_seed(seed, i),
        })
        .collect()
}

/// Cost report of one secure stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageReport {
    /// Statistics of the compiled circuit (the paper's circuit-size
    /// metric); for a multi-lane stage the [`CircuitStats::merge`] of
    /// the lane circuits.
    pub circuit: CircuitStats,
    /// Messages exchanged during evaluation.
    pub messages: u64,
    /// Logical payload bits exchanged (the paper's cost model; see the
    /// traffic convention in `eppi-net`'s crate docs).
    pub bits: u64,
    /// On-the-wire bytes of the packed encoding exchanged.
    pub bytes: u64,
    /// Simulated network time in microseconds (only the
    /// [`Backend::Simulated`] backend fills this; 0 otherwise).
    pub simulated_us: f64,
}

impl StageReport {
    /// The cost of two stages run back to back: traffic and simulated
    /// time add, circuit statistics [`CircuitStats::merge`].
    #[must_use]
    pub fn merge(self, other: StageReport) -> StageReport {
        StageReport {
            circuit: self.circuit.merge(other.circuit),
            messages: self.messages + other.messages,
            bits: self.bits + other.bits,
            bytes: self.bytes + other.bytes,
            simulated_us: self.simulated_us + other.simulated_us,
        }
    }
}

fn check_shares(coordinator_shares: &[Vec<u64>], columns: usize) {
    assert!(
        !coordinator_shares.is_empty(),
        "at least one coordinator required"
    );
    assert!(
        coordinator_shares.iter().all(|v| v.len() == columns),
        "share vectors must match the threshold count"
    );
}

/// Runs the CountBelow MPC: returns the number of common identities
/// (`Σ_{σ ≥ σ'} 1`) without revealing which identities are common.
///
/// `coordinator_shares[k][j]` is coordinator `k`'s additive share of
/// identity `j`'s frequency over `Z_{2^width}`. The columns run as
/// `backend`'s lanes, one CountBelow sub-circuit each; the per-lane
/// counts sum to exactly the single-circuit count. No columns, no MPC:
/// the count is 0 at zero cost.
///
/// # Panics
///
/// Panics if the share vectors are ragged or disagree with
/// `thresholds.len()`.
pub fn run_count_below(
    coordinator_shares: &[Vec<u64>],
    thresholds: &[u64],
    width: usize,
    backend: Backend,
    seed: u64,
) -> (u64, StageReport) {
    run_count_below_with_registry(
        coordinator_shares,
        thresholds,
        width,
        backend,
        seed,
        Obs::default(),
    )
}

/// [`run_count_below`] under a caller's observability context: the
/// backend's MPC telemetry and spans (see
/// [`execute_threaded_with_registry`] and
/// [`execute_pipelined_with_registry`]) go to `obs`.
///
/// # Panics
///
/// Panics under the same conditions as [`run_count_below`].
pub fn run_count_below_with_registry<'a>(
    coordinator_shares: &[Vec<u64>],
    thresholds: &[u64],
    width: usize,
    backend: Backend,
    seed: u64,
    obs: impl Into<Obs<'a>>,
) -> (u64, StageReport) {
    check_shares(coordinator_shares, thresholds.len());
    let c = coordinator_shares.len();
    let ranges = backend.lane_ranges(thresholds.len());
    let circuits: Vec<CountBelowCircuit> = ranges
        .iter()
        .map(|r| CountBelowCircuit::build(c, &thresholds[r.clone()], width))
        .collect();
    let inputs: Vec<Vec<Vec<bool>>> = ranges
        .iter()
        .zip(&circuits)
        .map(|(r, cc)| {
            coordinator_shares
                .iter()
                .map(|s| cc.encode_party_input(&s[r.clone()]))
                .collect()
        })
        .collect();
    let lanes = lane_specs(
        circuits.iter().map(|cc| (cc.circuit(), cc.layout())),
        &inputs,
        seed,
    );
    let (outs, report) = backend.execute(&lanes, obs.into());
    let count = outs
        .iter()
        .zip(&circuits)
        .map(|(out, cc)| cc.decode_count(out))
        .sum();
    (count, report)
}

/// Coordinator `k`'s coin contribution for `owner`: `coin_bits` uniform
/// bits through a splitmix64-style finalizer keyed by `(seed, k,
/// owner)`.
///
/// Keying by the *global* owner id — rather than drawing a sequential
/// RNG stream over vector positions — makes the joint coin a pure
/// function of the identity and the lineage seed. A delta construction
/// that re-runs the mix MPC over a column-sliced share vector therefore
/// reproduces exactly the coins a from-scratch run would use for those
/// owners, which is what makes delta and full constructions
/// bit-identical (see `epoch::construct_delta`).
fn mix_coin(seed: u64, coordinator: usize, owner: OwnerId, coin_bits: usize) -> u64 {
    let mut h = seed
        ^ 0xc01_u64
        ^ ((coordinator as u64) << 32)
        ^ (u64::from(owner.0) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h & ((1u64 << coin_bits) - 1)
}

/// Runs the mix-decision MPC: per identity, the bit
/// `common_j ∨ coin_j(λ)` (Eq. 6). Each coordinator contributes its own
/// coin randomness, so the joint coin stays uniform as long as one
/// coordinator is honest.
///
/// # Panics
///
/// Panics under the same conditions as [`run_count_below`].
pub fn run_mix_decision(
    coordinator_shares: &[Vec<u64>],
    thresholds: &[u64],
    width: usize,
    coin_bits: usize,
    lambda: f64,
    backend: Backend,
    seed: u64,
) -> (Vec<bool>, StageReport) {
    let owners: Vec<OwnerId> = (0..thresholds.len() as u32).map(OwnerId).collect();
    run_mix_decision_for_owners(
        coordinator_shares,
        thresholds,
        &owners,
        width,
        coin_bits,
        lambda,
        backend,
        seed,
        Obs::default(),
    )
}

/// [`run_mix_decision`] over an explicit owner-id slice: position `j`
/// of the share/threshold vectors belongs to global identity
/// `owners[j]`, and the coordinator coins are keyed by that id. A full
/// construction passes `owners = [0, 1, …, n-1]`; a delta construction
/// passes only its touched columns and gets the same coins — and hence
/// the same decisions — a from-scratch run would produce for them. For
/// the same reason the split into `backend`'s lanes is exact: each lane
/// reproduces the coins of its columns, and the decisions concatenate
/// in column order. The backend's MPC telemetry and spans go to `obs`.
///
/// # Panics
///
/// Panics under the same conditions as [`run_count_below`], or if
/// `owners.len()` disagrees with `thresholds.len()`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mix_decision_for_owners(
    coordinator_shares: &[Vec<u64>],
    thresholds: &[u64],
    owners: &[OwnerId],
    width: usize,
    coin_bits: usize,
    lambda: f64,
    backend: Backend,
    seed: u64,
    obs: Obs<'_>,
) -> (Vec<bool>, StageReport) {
    check_shares(coordinator_shares, thresholds.len());
    assert_eq!(
        owners.len(),
        thresholds.len(),
        "one owner id per column required"
    );
    let c = coordinator_shares.len();
    let lam = lambda_threshold(lambda, coin_bits);
    let ranges = backend.lane_ranges(thresholds.len());
    let circuits: Vec<MixDecisionCircuit> = ranges
        .iter()
        .map(|r| MixDecisionCircuit::build(c, &thresholds[r.clone()], width, coin_bits, lam))
        .collect();
    let inputs: Vec<Vec<Vec<bool>>> = ranges
        .iter()
        .zip(&circuits)
        .map(|(r, mc)| {
            coordinator_shares
                .iter()
                .enumerate()
                .map(|(k, s)| {
                    let coins: Vec<u64> = owners[r.clone()]
                        .iter()
                        .map(|&owner| mix_coin(seed, k, owner, coin_bits))
                        .collect();
                    mc.encode_party_input(&s[r.clone()], &coins)
                })
                .collect()
        })
        .collect();
    let lanes = lane_specs(
        circuits.iter().map(|mc| (mc.circuit(), mc.layout())),
        &inputs,
        seed ^ 0xdec,
    );
    let (outs, report) = backend.execute(&lanes, obs);
    let decisions = outs
        .iter()
        .zip(&circuits)
        .flat_map(|(out, mc)| mc.decode_decisions(out))
        .collect();
    (decisions, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_mpc::gmw_core::logical_bits;
    use eppi_mpc::share::split;

    fn share_out(freqs: &[u64], c: usize, width: usize, seed: u64) -> Vec<Vec<u64>> {
        let q = Modulus::pow2(width as u32);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut per = vec![vec![0u64; freqs.len()]; c];
        for (j, &f) in freqs.iter().enumerate() {
            let s = split(f, c, q, &mut rng);
            for (k, &v) in s.values().iter().enumerate() {
                per[k][j] = v;
            }
        }
        per
    }

    const BACKENDS: [Backend; 6] = [
        Backend::InProcess,
        Backend::Threaded,
        Backend::Simulated,
        Backend::Pipelined { workers: 1 },
        Backend::Pipelined { workers: 2 },
        Backend::Pipelined { workers: 4 },
    ];

    /// What `backend` must report for a stage over `columns` columns,
    /// from the structure of its lane circuits alone: `(logical bits,
    /// merged circuit stats)`, with `lane` compiling one lane's circuit.
    fn expected_cost(
        backend: Backend,
        columns: usize,
        lane: impl Fn(Range<usize>) -> (Circuit, InputLayout),
    ) -> (u64, CircuitStats) {
        backend.lane_ranges(columns).into_iter().map(lane).fold(
            (0, CircuitStats::default()),
            |(bits, stats), (circuit, layout)| {
                (
                    bits + logical_bits(&circuit, &layout),
                    stats.merge(circuit.stats()),
                )
            },
        )
    }

    #[test]
    fn every_backend_and_lane_split_matches_cleartext_and_accounts_exactly() {
        let freqs = [120u64, 3, 77, 200, 9, 64, 101, 50, 100];
        let thresholds = [100u64, 100, 70, 100, 100, 60, 100, 100, 100];
        let (c, width, coin_bits, lambda) = (3usize, 10usize, 8usize, 0.5f64);
        let (count_seed, mix_seed) = (21u64, 22u64);
        let lam = lambda_threshold(lambda, coin_bits);
        for k in [1usize, 2, 5, 9] {
            let (f, t) = (&freqs[..k], &thresholds[..k]);
            let shares = share_out(f, c, width, 40 + k as u64);
            let count_clear = f.iter().zip(t).filter(|(f, t)| f >= t).count() as u64;
            let mix_clear: Vec<bool> = (0..k)
                .map(|j| {
                    let owner = OwnerId(j as u32);
                    let coin = (0..c).fold(0, |u, p| u ^ mix_coin(mix_seed, p, owner, coin_bits));
                    f[j] >= t[j] || coin < lam
                })
                .collect();
            // A column slice, as a delta construction would pass it.
            let idx: Vec<usize> = (0..k).filter(|j| j % 3 != 1).collect();
            let sliced: Vec<Vec<u64>> = shares
                .iter()
                .map(|v| idx.iter().map(|&j| v[j]).collect())
                .collect();
            let sliced_t: Vec<u64> = idx.iter().map(|&j| t[j]).collect();
            let sliced_owners: Vec<OwnerId> = idx.iter().map(|&j| OwnerId(j as u32)).collect();

            let mut single_lane: Vec<(StageReport, StageReport)> = Vec::new();
            for backend in BACKENDS {
                let what = format!("{backend:?}, {k} columns");
                // (i) results equal cleartext.
                let (count, rc) = run_count_below(&shares, t, width, backend, count_seed);
                assert_eq!(count, count_clear, "{what}");
                let (decisions, rm) =
                    run_mix_decision(&shares, t, width, coin_bits, lambda, backend, mix_seed);
                assert_eq!(decisions, mix_clear, "{what}");

                // (ii) reported cost is the lane circuits' structure.
                let (count_bits, count_stats) = expected_cost(backend, k, |r| {
                    let cc = CountBelowCircuit::build(c, &t[r], width);
                    (cc.circuit().clone(), cc.layout().clone())
                });
                assert_eq!((rc.bits, rc.circuit), (count_bits, count_stats), "{what}");
                let (mix_bits, mix_stats) = expected_cost(backend, k, |r| {
                    let mc = MixDecisionCircuit::build(c, &t[r], width, coin_bits, lam);
                    (mc.circuit().clone(), mc.layout().clone())
                });
                assert_eq!((rm.bits, rm.circuit), (mix_bits, mix_stats), "{what}");
                assert!(rc.bytes > 0 && rm.bytes > 0, "{what}: real traffic");
                assert_eq!(
                    rc.simulated_us > 0.0,
                    backend == Backend::Simulated,
                    "{what}: only the simulator reports simulated time"
                );

                match backend {
                    Backend::Pipelined { .. } => {
                        // Per-column comparators are identical; only the
                        // count adders are split across lanes.
                        let whole = single_lane[0].0.circuit;
                        assert!(rc.circuit.and_gates <= whole.and_gates, "{what}");
                    }
                    _ => single_lane.push((rc, rm)),
                }

                // (iv) a column slice reproduces the full run's
                // decisions for its owners (coins keyed by owner id).
                let (part, _) = run_mix_decision_for_owners(
                    &sliced,
                    &sliced_t,
                    &sliced_owners,
                    width,
                    coin_bits,
                    lambda,
                    backend,
                    mix_seed,
                    Obs::default(),
                );
                let expect: Vec<bool> = idx.iter().map(|&j| decisions[j]).collect();
                assert_eq!(part, expect, "{what}: sliced owners {idx:?}");
            }

            // (iii) the single-lane backends run the same circuit and
            // count the same traffic.
            let traffic = |r: &StageReport| (r.messages, r.bits, r.bytes, r.circuit);
            for (rc, rm) in &single_lane[1..] {
                assert_eq!(traffic(rc), traffic(&single_lane[0].0), "{k} columns");
                assert_eq!(traffic(rm), traffic(&single_lane[0].1), "{k} columns");
            }
        }
    }

    /// The per-adapter "matches cleartext / reports logical bits / a
    /// lone party sends nothing" checks, once over the four backends
    /// and arbitrary (non-protocol) circuits.
    #[test]
    fn every_backend_evaluates_any_circuit_like_cleartext_and_a_lone_party_sends_nothing() {
        use eppi_mpc::builder::{to_bits, CircuitBuilder};
        use rand::Rng;

        // 3 parties, single-bit output: (a + b) ≥ c.
        let sum_ge = {
            let mut cb = CircuitBuilder::new();
            let (a, b, c) = (cb.input_word(6), cb.input_word(6), cb.input_word(7));
            let sum = cb.add_words_expand(&a, &b);
            let ge = cb.ge_words(&sum, &c);
            (cb.finish(vec![ge]), InputLayout::new(vec![6, 6, 7]))
        };
        // 2 parties, word + flag outputs, a constant operand.
        let sum_and_flag = {
            let mut cb = CircuitBuilder::new();
            let (a, b) = (cb.input_word(5), cb.input_word(5));
            let sum = cb.add_words_expand(&a, &b);
            let twenty = cb.const_word(20, 6);
            let ge = cb.ge_words(&sum, &twenty);
            let mut outs = sum.bits().to_vec();
            outs.push(ge);
            (cb.finish(outs), InputLayout::new(vec![5, 5]))
        };
        // A lone party: multi-level AND depth, but nobody to talk to.
        let alone = {
            let mut cb = CircuitBuilder::new();
            let a = cb.input_word(4);
            let nine = cb.const_word(9, 4);
            let ge = cb.ge_words(&a, &nine);
            (cb.finish(vec![ge]), InputLayout::new(vec![4]))
        };

        let mut rng = StdRng::seed_from_u64(7);
        for (circuit, layout) in [sum_ge, sum_and_flag, alone] {
            let parties = layout.parties();
            for trial in 0..6u64 {
                let inputs: Vec<Vec<bool>> = (0..parties)
                    .map(|p| {
                        let width = layout.range_of(p).len();
                        to_bits(rng.gen_range(0..1u64 << width), width)
                    })
                    .collect();
                let clear = circuit.eval(&layout.flatten(&inputs));
                let lane = LaneSpec {
                    circuit: &circuit,
                    layout: &layout,
                    inputs: &inputs,
                    seed: 1000 + trial,
                };
                for backend in [
                    Backend::InProcess,
                    Backend::Threaded,
                    Backend::Simulated,
                    Backend::Pipelined { workers: 2 },
                ] {
                    let what = format!("{backend:?}, {parties} parties, trial {trial}");
                    let (outs, report) = backend.execute(&[lane], Obs::default());
                    assert_eq!(outs, vec![clear.clone()], "{what}");
                    assert_eq!(report.circuit, circuit.stats(), "{what}");
                    assert_eq!(report.bits, logical_bits(&circuit, &layout), "{what}");
                    if parties == 1 {
                        let sent = (report.messages, report.bits, report.bytes);
                        assert_eq!(sent, (0, 0, 0), "{what}: a lone party sends nothing");
                    } else {
                        assert!(report.messages > 0 && report.bytes > 0, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_columns_are_zero_lanes() {
        let shares = vec![Vec::new(); 3];
        for backend in BACKENDS {
            assert_eq!(
                run_count_below(&shares, &[], 10, backend, 1),
                (0, StageReport::default()),
                "{backend:?}"
            );
            assert_eq!(
                run_mix_decision(&shares, &[], 10, 8, 0.5, backend, 1),
                (Vec::new(), StageReport::default()),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn mix_decision_respects_commons_and_lambda_extremes() {
        let freqs = [120u64, 3];
        let thresholds = [100u64, 100];
        let shares = share_out(&freqs, 3, 10, 2);
        let (d0, _) = run_mix_decision(&shares, &thresholds, 10, 8, 0.0, Backend::InProcess, 3);
        assert_eq!(d0, vec![true, false]);
        let (d1, _) = run_mix_decision(&shares, &thresholds, 10, 8, 1.0, Backend::InProcess, 3);
        assert_eq!(d1, vec![true, true]);
    }

    #[test]
    #[should_panic(expected = "must match the threshold count")]
    fn ragged_shares_rejected() {
        run_count_below(&[vec![1, 2], vec![3]], &[1, 1], 8, Backend::InProcess, 0);
    }
}
