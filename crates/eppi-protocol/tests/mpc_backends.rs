//! Cross-backend equivalence of the one packed GMW core.
//!
//! All four execution backends (in-process, simulated, threaded,
//! pipelined) are adapters over `eppi_mpc::gmw_core`; these property
//! tests drive random circuits, seeds and party counts through every
//! backend plus the frozen pre-refactor `Vec<bool>` reference executor
//! and demand:
//!
//! * bit-identical opened outputs everywhere (and equal to the
//!   cleartext evaluation),
//! * identical protocol-round counts on every report — the analytic
//!   `protocol_rounds` figure all backends now share — and
//! * identical logical-bit accounting, with the pipelined runtime's
//!   multi-lane aggregate equal to the per-lane lockstep-oracle sum.

use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi_mpc::builder::{to_bits, CircuitBuilder, Word};
use eppi_mpc::circuit::{Circuit, InputLayout};
use eppi_mpc::gmw;
use eppi_mpc::gmw_core::{logical_bits, reference};
use eppi_net::sim::LinkModel;
use eppi_protocol::construct::{construct_distributed, ProtocolConfig};
use eppi_protocol::epoch::{construct_delta, construct_epoch};
use eppi_protocol::sim_gmw::execute_simulated;
use eppi_protocol::threaded_gmw::execute_threaded;
use eppi_protocol::{execute_pipelined, Backend, LaneSpec, PipelineConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random layered circuit over `parties` input words: a few
/// rounds of randomly chosen word combinators (mixing AND-heavy and
/// free operations), outputting one surviving word plus a comparison
/// bit so both multi-bit and single-bit openings are exercised.
fn random_circuit(
    parties: usize,
    width: usize,
    ops: usize,
    gen_seed: u64,
) -> (Circuit, InputLayout) {
    let mut rng = StdRng::seed_from_u64(gen_seed);
    let mut cb = CircuitBuilder::new();
    let mut pool: Vec<Word> = (0..parties).map(|_| cb.input_word(width)).collect();
    for _ in 0..ops {
        let a = pool[rng.gen_range(0..pool.len())].clone();
        let b = pool[rng.gen_range(0..pool.len())].clone();
        let w = match rng.gen_range(0..6u32) {
            0 => cb.add_words(&a, &b),
            1 => cb.sub_words(&a, &b),
            2 => cb.xor_words(&a, &b),
            3 => {
                let sel = cb.lt_words(&a, &b);
                cb.mux_word(sel, &a, &b)
            }
            4 => {
                let bits: Vec<_> = a.bits().to_vec();
                let count = cb.popcount(&bits);
                cb.resize_word(&count, width)
            }
            _ => {
                let k = rng.gen_range(0..width.max(1));
                let shifted = cb.shl_words(&a, k);
                cb.resize_word(&shifted, width)
            }
        };
        pool.push(w);
    }
    let last = pool[pool.len() - 1].clone();
    let prev = pool[pool.len() - 2].clone();
    let cmp = cb.ge_words(&last, &prev);
    let mut outs = last.bits().to_vec();
    outs.push(cmp);
    (cb.finish(outs), InputLayout::new(vec![width; parties]))
}

/// One published column as packed provider words plus its β — the unit
/// the delta-equivalence property compares bit-for-bit.
fn column(index: &PublishedIndex, owner: OwnerId) -> (Vec<u64>, f64) {
    (
        index.matrix().column_words(owner),
        index.betas()[owner.index()],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Outputs are bit-identical across all four executors and match
    /// the cleartext evaluation; all round counts agree.
    #[test]
    fn all_backends_agree_bit_for_bit(
        parties in 2usize..=4,
        width in 3usize..=6,
        ops in 2usize..=6,
        gen_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let (circuit, layout) = random_circuit(parties, width, ops, gen_seed);
        let mut input_rng = StdRng::seed_from_u64(gen_seed ^ 0x1249);
        let inputs: Vec<Vec<bool>> = (0..parties)
            .map(|_| to_bits(input_rng.gen_range(0..(1u64 << width)), width))
            .collect();
        let clear = circuit.eval(&layout.flatten(&inputs));

        let mut ref_rng = StdRng::seed_from_u64(run_seed);
        let (ref_out, ref_stats) =
            reference::execute_unpacked(&circuit, &layout, &inputs, &mut ref_rng);
        prop_assert_eq!(&ref_out, &clear, "reference vs cleartext");

        let mut rng = StdRng::seed_from_u64(run_seed ^ 0x5eed);
        let (packed_out, packed_stats) = gmw::execute(&circuit, &layout, &inputs, &mut rng);
        prop_assert_eq!(&packed_out, &clear, "packed in-process vs cleartext");

        let (thr_out, thr_report) = execute_threaded(&circuit, &layout, &inputs, run_seed);
        prop_assert_eq!(&thr_out, &clear, "threaded vs cleartext");

        let (sim_out, sim_stats) =
            execute_simulated(&circuit, &layout, &inputs, LinkModel::LAN, run_seed);
        prop_assert_eq!(&sim_out, &clear, "simulated vs cleartext");

        // The pipelined runtime running this circuit as one lane at the
        // same seed is the lockstep oracle's equal: same outputs, same
        // analytic rounds, same logical bits.
        let lanes = [LaneSpec { circuit: &circuit, layout: &layout, inputs: &inputs, seed: run_seed }];
        let (mut pipe_outs, pipe_report) =
            execute_pipelined(&lanes, &PipelineConfig::with_workers(2)).expect("pipelined run");
        prop_assert_eq!(&pipe_outs.swap_remove(0), &clear, "pipelined vs cleartext");

        // Identical round counts on every report.
        prop_assert_eq!(packed_stats.rounds, ref_stats.rounds);
        prop_assert_eq!(thr_report.rounds, ref_stats.rounds);
        prop_assert_eq!(sim_stats.rounds, ref_stats.rounds);
        prop_assert_eq!(pipe_report.lane_reports[0].rounds, ref_stats.rounds);

        // Identical logical-bit accounting (the paper's cost model is
        // framing-independent, so packing must not change it).
        let bits = logical_bits(&circuit, &layout);
        prop_assert_eq!(ref_stats.bits_sent, bits);
        prop_assert_eq!(packed_stats.bits_sent, bits);
        prop_assert_eq!(thr_report.bits_sent, bits);
        prop_assert_eq!(sim_stats.bits, bits);
        prop_assert_eq!(pipe_report.bits_sent, bits);
    }

    /// Many concurrent pipeline lanes are each bit-identical to a
    /// lockstep oracle run of the same lane at the same seed, and the
    /// runtime's aggregate accounting equals the per-lane analytic sum
    /// regardless of worker count.
    #[test]
    fn pipelined_lanes_match_the_lockstep_oracle(
        parties in 2usize..=3,
        lanes_n in 2usize..=4,
        workers in 1usize..=4,
        gen_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let specs: Vec<(Circuit, InputLayout, Vec<Vec<bool>>)> = (0..lanes_n)
            .map(|i| {
                let (circuit, layout) =
                    random_circuit(parties, 4, 3, gen_seed ^ (i as u64) << 17);
                let mut input_rng = StdRng::seed_from_u64(gen_seed ^ 0xabc ^ i as u64);
                let inputs: Vec<Vec<bool>> = (0..parties)
                    .map(|_| to_bits(input_rng.gen_range(0..16), 4))
                    .collect();
                (circuit, layout, inputs)
            })
            .collect();
        let lane_specs: Vec<LaneSpec> = specs
            .iter()
            .enumerate()
            .map(|(i, (circuit, layout, inputs))| LaneSpec {
                circuit,
                layout,
                inputs,
                seed: run_seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            })
            .collect();
        let (outs, report) =
            execute_pipelined(&lane_specs, &PipelineConfig::with_workers(workers))
                .expect("pipelined run");

        let mut oracle_bits = 0u64;
        for (i, spec) in lane_specs.iter().enumerate() {
            let (oracle_out, oracle_report) =
                execute_threaded(spec.circuit, spec.layout, spec.inputs, spec.seed);
            prop_assert_eq!(&outs[i], &oracle_out, "lane {} diverges from oracle", i);
            prop_assert_eq!(report.lane_reports[i].rounds, oracle_report.rounds);
            prop_assert_eq!(report.lane_reports[i].bits_sent, oracle_report.bits_sent);
            oracle_bits += oracle_report.bits_sent;
        }
        prop_assert_eq!(report.bits_sent, oracle_bits);
        // Coalescing only merges frames; it never invents or drops
        // logical traffic.
        prop_assert!(report.messages <= report.coalesced_items);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The epoch/delta lifecycle is backend-independent and equivalent
    /// to from-scratch construction: under every MPC backend, a delta
    /// run reproduces the touched columns a full construction of the
    /// new matrix would publish (bit-for-bit, β included), carries
    /// untouched columns over verbatim from the previous epoch, and all
    /// three backends agree on the resulting index exactly.
    #[test]
    fn construct_delta_matches_full_construction_on_every_backend(
        providers in 8usize..=18,
        owners in 3usize..=6,
        fill_seed in any::<u64>(),
        run_seed in any::<u64>(),
        added in 0usize..=2,
    ) {
        let mut rng = StdRng::seed_from_u64(fill_seed);
        let mut base = MembershipMatrix::new(providers, owners);
        for p in 0..providers {
            for j in 0..owners {
                if rng.gen_bool(0.4) {
                    base.set(ProviderId(p as u32), OwnerId(j as u32), true);
                }
            }
        }
        let mut epsilons: Vec<Epsilon> = (0..owners)
            .map(|_| Epsilon::saturating(rng.gen_range(0.1..0.9)))
            .collect();

        // The change batch: every pre-existing owner is independently
        // churned (bit flips and/or a new ε); `added` new owners append.
        let new_owners = owners + added;
        let mut next = MembershipMatrix::new(providers, new_owners);
        for p in 0..providers {
            for j in 0..owners {
                next.set(ProviderId(p as u32), OwnerId(j as u32),
                         base.get(ProviderId(p as u32), OwnerId(j as u32)));
            }
        }
        let mut delta = IndexDelta::new(owners);
        #[allow(clippy::needless_range_loop)] // j indexes both the matrix column and epsilons
        for j in 0..owners {
            if rng.gen_bool(0.5) {
                let flips = rng.gen_range(1usize..=3);
                for _ in 0..flips {
                    let p = ProviderId(rng.gen_range(0..providers) as u32);
                    let owner = OwnerId(j as u32);
                    next.set(p, owner, !next.get(p, owner));
                }
                epsilons[j] = Epsilon::saturating(rng.gen_range(0.1..0.9));
                delta.record(DeltaEntry {
                    owner: OwnerId(j as u32),
                    change: ColumnChange::Changed,
                    epsilon: epsilons[j],
                });
            }
        }
        for j in owners..new_owners {
            let eps = Epsilon::saturating(rng.gen_range(0.1..0.9));
            epsilons.push(eps);
            for _ in 0..rng.gen_range(1usize..=3) {
                next.set(ProviderId(rng.gen_range(0..providers) as u32),
                         OwnerId(j as u32), true);
            }
            delta.record(DeltaEntry {
                owner: OwnerId(j as u32),
                change: ColumnChange::Added,
                epsilon: eps,
            });
        }

        let base_eps = &epsilons[..owners];
        let mut outcomes = Vec::new();
        for backend in [
            Backend::InProcess,
            Backend::Threaded,
            Backend::Simulated,
            Backend::Pipelined { workers: 2 },
        ] {
            let config = ProtocolConfig { backend, seed: run_seed, ..ProtocolConfig::default() };
            let epoch0 = construct_epoch(&base, base_eps, &config).expect("epoch 0");
            let built = construct_delta(&epoch0, &next, &delta).expect("delta");
            let full = construct_distributed(&next, &epsilons, &config).expect("full");

            // Touched columns: bit-identical to a from-scratch build.
            for entry in delta.entries() {
                prop_assert_eq!(
                    column(built.epoch.index(), entry.owner),
                    column(&full.index, entry.owner),
                    "backend {:?}: touched owner {:?} diverges from full construction",
                    backend, entry.owner
                );
            }
            // Untouched columns: carried over verbatim from epoch 0.
            for j in 0..owners as u32 {
                if !delta.contains(OwnerId(j)) {
                    prop_assert_eq!(
                        column(built.epoch.index(), OwnerId(j)),
                        column(epoch0.index(), OwnerId(j)),
                        "backend {:?}: untouched owner {} re-randomized",
                        backend, j
                    );
                }
            }
            prop_assert_eq!(built.epoch.common_count(), full.common_count);
            outcomes.push(built.epoch);
        }
        // All backends agree on the delta epoch exactly — including
        // the pipelined runtime driving both the threaded SecSumShare
        // and the lane-chunked CountBelow/mix circuits.
        for other in &outcomes[1..] {
            prop_assert_eq!(outcomes[0].index(), other.index());
            prop_assert_eq!(outcomes[0].decisions(), other.decisions());
            prop_assert_eq!(outcomes[0].lambda(), other.lambda());
        }
    }
}
