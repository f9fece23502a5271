//! The generic-MPC stage among the `c` coordinators (Alg. 1 stage 2).
//!
//! Packed GMW (`eppi_mpc::gmw_core`) is the only MPC engine; what
//! varies is which driver runs it. `Backend::execute` is the single
//! place that knows, and [`run_count_below`] / [`run_mix_decision`] are
//! written once on top of it: compile the column batch into one
//! circuit, encode, execute, decode. There are two drivers:
//!
//! * [`Backend::InProcess`] — the lockstep hub
//!   (`eppi_mpc::gmw::execute`): all parties on one thread, exact and
//!   fast, used by tests and large sweeps. It also reports *simulated
//!   network time* under the lineage's link model (the quantity that
//!   dominated the paper's Emulab numbers);
//! * [`Backend::Threaded`] — one pooled thread per coordinator with real
//!   message exchange ([`execute_threaded_with_registry`]), used by the
//!   wall-clock experiments (Fig. 6a/6c).
//!
//! Both open identical results and count identical traffic; only the
//! lockstep run prices simulated time. The SecSumShare runtime that
//! goes with each backend is [`Backend::secsumshare`].

use crate::secsum::{secsumshare_sim, secsumshare_threaded_stats, SecSumOutput};
use crate::threaded_gmw::execute_threaded_with_registry;
use eppi_core::model::{LocalVector, OwnerId};
use eppi_mpc::circuit::{Circuit, CircuitStats, InputLayout};
use eppi_mpc::circuits::{lambda_threshold, CountBelowCircuit, MixDecisionCircuit};
use eppi_mpc::field::Modulus;
use eppi_mpc::gmw;
use eppi_net::sim::LinkModel;
use eppi_trace::Obs;

/// Which MPC driver executes the coordinator circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Single-threaded lockstep evaluation over the in-process hub; it
    /// reports simulated network time under the lineage's link model.
    #[default]
    InProcess,
    /// One pooled thread per coordinator (wall-clock backend).
    Threaded,
    /// Runs as [`Backend::InProcess`]. A name only: persisted lineages
    /// carry it (checkpoint backend tag 2) and the lifecycle benchmark
    /// still names it. It goes once the benchmark stops using it.
    Simulated,
    /// Runs as [`Backend::Threaded`]; `workers` is ignored. A name
    /// only: persisted lineages carry it (checkpoint backend tag 3) and
    /// the lifecycle benchmark still names it. It goes once the
    /// benchmark stops using it.
    Pipelined {
        /// Ignored; kept so persisted tags and callers still decode.
        workers: usize,
    },
}

impl Backend {
    /// Evaluates `circuit` on this backend's driver — the one place
    /// that knows how a backend runs a circuit. Returns the opened
    /// outputs and the stage cost: the circuit's statistics, its
    /// traffic and its simulated time under `link` (the threaded driver
    /// measures wall time and reports none). The threaded driver
    /// reports and traces into `obs` — the caller's, handed down
    /// unchanged (the lockstep evaluator emits nothing).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` disagree with `layout` or `layout` with
    /// `circuit`.
    pub(crate) fn execute(
        self,
        circuit: &Circuit,
        layout: &InputLayout,
        inputs: &[Vec<bool>],
        seed: u64,
        link: LinkModel,
        obs: Obs<'_>,
    ) -> (Vec<bool>, StageReport) {
        let (outputs, stats) = match self {
            Backend::Threaded | Backend::Pipelined { .. } => {
                execute_threaded_with_registry(circuit, layout, inputs, seed, obs)
            }
            Backend::InProcess | Backend::Simulated => {
                gmw::execute(circuit, layout, inputs, link, seed)
            }
        };
        let report = StageReport {
            circuit: circuit.stats(),
            messages: stats.messages,
            bits: stats.bits_sent,
            bytes: stats.bytes,
            simulated_us: stats.simulated_us,
        };
        (outputs, report)
    }

    /// Runs SecSumShare on this backend's runtime: the threaded backend
    /// sums over real threads, the lockstep one keeps the round
    /// simulator under `link`. Per-provider seeding is identical, so
    /// the shares — and every downstream bit — do not depend on this
    /// choice.
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
}

/// Cost report of one secure stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageReport {
    /// Statistics of the compiled circuit (the paper's circuit-size
    /// metric); for stages run back to back, their
    /// [`CircuitStats::merge`].
    pub circuit: CircuitStats,
    /// Messages exchanged during evaluation.
    pub messages: u64,
    /// Logical payload bits exchanged (the paper's cost model; see the
    /// traffic convention in `eppi-net`'s crate docs).
    pub bits: u64,
    /// On-the-wire bytes of the packed encoding exchanged.
    pub bytes: u64,
    /// Simulated network time in microseconds under the stage's link
    /// model (the lockstep backend fills this; the wall-clock threaded
    /// backend leaves it 0).
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
/// identity `j`'s frequency over `Z_{2^width}`. The columns run as one
/// CountBelow circuit. No columns, no MPC: the count is 0 at zero
/// cost.
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
/// [`execute_threaded_with_registry`]) go to `obs`.
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
    count_below_stage(
        coordinator_shares,
        thresholds,
        width,
        backend,
        LinkModel::default(),
        seed,
        obs.into(),
    )
}

/// [`run_count_below_with_registry`] with the lockstep run priced under
/// `link` — the stage a construction runs, under its lineage's link.
pub(crate) fn count_below_stage(
    coordinator_shares: &[Vec<u64>],
    thresholds: &[u64],
    width: usize,
    backend: Backend,
    link: LinkModel,
    seed: u64,
    obs: Obs<'_>,
) -> (u64, StageReport) {
    check_shares(coordinator_shares, thresholds.len());
    if thresholds.is_empty() {
        return (0, StageReport::default());
    }
    let cc = CountBelowCircuit::build(coordinator_shares.len(), thresholds, width);
    let inputs: Vec<Vec<bool>> = coordinator_shares
        .iter()
        .map(|s| cc.encode_party_input(s))
        .collect();
    let (out, report) = backend.execute(cc.circuit(), cc.layout(), &inputs, seed, link, obs);
    (cc.decode_count(&out), report)
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
        LinkModel::default(),
        seed,
        Obs::default(),
    )
}

/// [`run_mix_decision`] over an explicit owner-id slice: position `j`
/// of the share/threshold vectors belongs to global identity
/// `owners[j]`, and the coordinator coins are keyed by that id. A full
/// construction passes `owners = [0, 1, …, n-1]`; a delta construction
/// passes only its touched columns and gets the same coins — and hence
/// the same decisions — a from-scratch run would produce for them. The
/// lockstep run is priced under `link`; the backend's MPC telemetry and
/// spans go to `obs`.
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
    link: LinkModel,
    seed: u64,
    obs: Obs<'_>,
) -> (Vec<bool>, StageReport) {
    check_shares(coordinator_shares, thresholds.len());
    assert_eq!(
        owners.len(),
        thresholds.len(),
        "one owner id per column required"
    );
    if thresholds.is_empty() {
        return (Vec::new(), StageReport::default());
    }
    let lam = lambda_threshold(lambda, coin_bits);
    let mc = MixDecisionCircuit::build(coordinator_shares.len(), thresholds, width, coin_bits, lam);
    let inputs: Vec<Vec<bool>> = coordinator_shares
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let coins: Vec<u64> = owners
                .iter()
                .map(|&owner| mix_coin(seed, k, owner, coin_bits))
                .collect();
            mc.encode_party_input(s, &coins)
        })
        .collect();
    let (out, report) =
        backend.execute(mc.circuit(), mc.layout(), &inputs, seed ^ 0xdec, link, obs);
    (mc.decode_decisions(&out), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_mpc::gmw_core::logical_bits;
    use eppi_mpc::share::split;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    const BACKENDS: [Backend; 2] = [Backend::InProcess, Backend::Threaded];

    /// Both backends over batches of 1 to 130 columns, each batch one
    /// circuit.
    #[test]
    fn every_backend_and_lane_split_matches_cleartext_and_accounts_exactly() {
        let freqs: Vec<u64> = [120u64, 3, 77, 200, 9, 64, 101, 50, 100]
            .into_iter()
            .cycle()
            .take(130)
            .collect();
        let thresholds: Vec<u64> = [100u64, 100, 70, 100, 100, 60, 100, 100, 100]
            .into_iter()
            .cycle()
            .take(130)
            .collect();
        let (c, width, coin_bits, lambda) = (3usize, 10usize, 8usize, 0.5f64);
        let (count_seed, mix_seed) = (21u64, 22u64);
        let lam = lambda_threshold(lambda, coin_bits);
        for k in [1usize, 2, 5, 9, 130] {
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

            // What every backend must report: the one circuit's structure.
            let cc = CountBelowCircuit::build(c, t, width);
            let mc = MixDecisionCircuit::build(c, t, width, coin_bits, lam);
            let count_cost = (
                logical_bits(cc.circuit(), cc.layout()),
                cc.circuit().stats(),
            );
            let mix_cost = (
                logical_bits(mc.circuit(), mc.layout()),
                mc.circuit().stats(),
            );

            let mut reports: Vec<(StageReport, StageReport)> = Vec::new();
            for backend in BACKENDS {
                let what = format!("{backend:?}, {k} columns");
                // (i) results equal cleartext.
                let (count, rc) = run_count_below(&shares, t, width, backend, count_seed);
                assert_eq!(count, count_clear, "{what}");
                let (decisions, rm) =
                    run_mix_decision(&shares, t, width, coin_bits, lambda, backend, mix_seed);
                assert_eq!(decisions, mix_clear, "{what}");

                // (ii) reported cost is the circuit's structure.
                assert_eq!((rc.bits, rc.circuit), count_cost, "{what}");
                assert_eq!((rm.bits, rm.circuit), mix_cost, "{what}");
                assert!(rc.bytes > 0 && rm.bytes > 0, "{what}: real traffic");
                assert_eq!(
                    rc.simulated_us > 0.0,
                    backend == Backend::InProcess,
                    "{what}: the lockstep backend reports simulated time; threaded reports 0"
                );

                // (iii) a column slice reproduces the full run's
                // decisions for its owners (coins keyed by owner id).
                let (part, _) = run_mix_decision_for_owners(
                    &sliced,
                    &sliced_t,
                    &sliced_owners,
                    width,
                    coin_bits,
                    lambda,
                    backend,
                    LinkModel::default(),
                    mix_seed,
                    Obs::default(),
                );
                let expect: Vec<bool> = idx.iter().map(|&j| decisions[j]).collect();
                assert_eq!(part, expect, "{what}: sliced owners {idx:?}");
                reports.push((rc, rm));
            }

            // (iv) both backends run the same circuit and count the
            // same traffic.
            let traffic = |r: &StageReport| (r.messages, r.bits, r.bytes, r.circuit);
            let (rc, rm) = &reports[1];
            assert_eq!(traffic(rc), traffic(&reports[0].0), "{k} columns");
            assert_eq!(traffic(rm), traffic(&reports[0].1), "{k} columns");
        }
    }

    /// The per-driver "matches cleartext / reports logical bits / a
    /// lone party sends nothing" checks, once over both backends and
    /// arbitrary (non-protocol) circuits.
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
                for backend in BACKENDS {
                    let what = format!("{backend:?}, {parties} parties, trial {trial}");
                    let (outs, report) = backend.execute(
                        &circuit,
                        &layout,
                        &inputs,
                        1000 + trial,
                        LinkModel::default(),
                        Obs::default(),
                    );
                    assert_eq!(outs, clear, "{what}");
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

    /// A zero-column batch compiles and runs no circuit.
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
