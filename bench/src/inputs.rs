//! Seeded input generation and the setup-time sanity checks.
//!
//! Everything the program under test sees — matrices, ε vectors,
//! deltas, owner streams — is generated here from `--seed`; the same
//! seed gives the same inputs. Setup also builds the answer oracle
//! (`PublishedIndex::query`) the rounds check against, and rejects a
//! served index nobody would serve.

use crate::spec::{Workload, FLIPS_PER_COLUMN};
use crate::stats::quartiles;
use eppi_audit::AuditParams;
use eppi_core::construct::{construct, ConstructionConfig};
use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi_core::rowstore::RowBackend;
use eppi_protocol::{
    construct_distributed_with_registry, construct_epoch, AuditConfig, ConstructionReport,
    IndexEpoch, ProtocolConfig,
};
use eppi_serve::{PrivateEngine, ServeConfig, ServeEngine};
use eppi_telemetry::Registry;
use eppi_workload::collections::{tiered_epsilons, CollectionTable};
use eppi_workload::{Preset, QueryWorkload};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Share of owners demanding the VIP privacy degree.
const VIP_FRACTION: f64 = 0.05;
/// Entries of a pre-generated Zipf owner stream (cycled by clients).
const STREAM_LEN: usize = 1 << 14;

fn vip() -> Epsilon {
    Epsilon::saturating(0.9)
}

fn regular() -> Epsilon {
    Epsilon::saturating(0.5)
}

/// One delta of the refresh script: the membership bits to flip in
/// the raw matrix, and the change batch describing them.
#[derive(Debug, Clone)]
pub struct DeltaStep {
    /// Cells toggled in the raw matrix.
    pub flips: Vec<(ProviderId, OwnerId)>,
    /// The batch handed to `advance`.
    pub delta: IndexDelta,
}

impl DeltaStep {
    /// Applies the step's flips to the raw matrix.
    pub fn apply(&self, matrix: &mut MembershipMatrix) {
        for &(p, o) in &self.flips {
            matrix.set(p, o, !matrix.get(p, o));
        }
    }
}

/// Serving configuration every engine in the benchmark uses: one
/// shard, so the host's core count does not change what is measured.
pub fn serve_config(backend: RowBackend) -> ServeConfig {
    ServeConfig {
        shards: 1,
        backend,
        ..ServeConfig::default()
    }
}

/// The epoch lineage every workload drives.
#[derive(Debug)]
pub struct Lineage {
    /// Raw membership matrix of epoch 0.
    pub matrix: MembershipMatrix,
    /// Per-owner privacy degrees of epoch 0.
    pub epsilons: Vec<Epsilon>,
    /// Protocol configuration (backend, seed).
    pub proto: ProtocolConfig,
    /// Audit configuration (repetitions, prover seed).
    pub audit: AuditConfig,
    /// The delta installed through `advance_audited`.
    pub audited_step: DeltaStep,
    /// The `D` deltas installed through `advance`.
    pub steps: Vec<DeltaStep>,
    /// Zipf(1.0) owner stream over the lineage's owners.
    pub stream: Vec<OwnerId>,
    /// The epoch every round's build must reproduce.
    pub reference: IndexEpoch,
    /// `PublishedIndex::query` of the reference epoch, per owner.
    pub oracle: Vec<Vec<ProviderId>>,
}

impl Lineage {
    /// Cost report of one full build at this scale, from a build that
    /// reports into a caller-owned `Registry` (an `IndexEpoch` does not
    /// carry its report). Each pass calls this once, after its rounds.
    ///
    /// # Panics
    ///
    /// Panics if the build fails; the same build succeeded at set-up.
    pub fn build_report(&self) -> ConstructionReport {
        construct_distributed_with_registry(
            &self.matrix,
            &self.epsilons,
            &self.proto,
            &Registry::new(),
        )
        .expect("the reference build succeeded at set-up")
        .report
    }
}

/// Bytes one full build puts on the wire.
pub fn wire_bytes(report: &ConstructionReport) -> u64 {
    report.secsum.bytes + report.count_stage.bytes + report.mix_stage.bytes
}

/// The paper-scale served index and its long-lived engines.
#[derive(Debug)]
pub struct Paper {
    /// The published index the engines serve.
    pub index: PublishedIndex,
    /// Zipf(1.0) owner stream over the served owners.
    pub stream: Vec<OwnerId>,
    /// `PublishedIndex::query` per owner (filled for stream owners).
    pub oracle: Vec<Vec<ProviderId>>,
    /// Plaintext engine, compressed rows.
    pub engine: ServeEngine,
    /// Private engine: two dense replicas.
    pub private: PrivateEngine,
}

/// Everything a run sets up before its first round.
#[derive(Debug)]
pub struct Setup {
    /// The epoch lineage.
    pub lineage: Lineage,
    /// The paper-scale served index (`serve_paper` only).
    pub paper: Option<Paper>,
    /// Wall of input generation alone, in milliseconds.
    pub gen_ms: f64,
    /// Lines describing the served indexes (λ, common count, answer
    /// quartiles).
    pub notes: Vec<String>,
    /// Common identities of the lineage's reference epoch.
    pub common: u64,
    /// Median answer length of the index the query slices hit.
    pub median_answer: f64,
}

/// Draws one delta touching `width` evenly spread columns starting at
/// `offset`, flipping [`FLIPS_PER_COLUMN`] bits in each and redrawing
/// its ε from the tiers.
fn draw_step(w: &Workload, offset: usize, rng: &mut StdRng) -> DeltaStep {
    let (m, n) = (w.providers, w.owners);
    let mut flips = Vec::with_capacity(w.width * FLIPS_PER_COLUMN);
    let mut delta = IndexDelta::new(n);
    for j in 0..w.width {
        let owner = OwnerId(((j * n / w.width + offset) % n) as u32);
        for p in sample(rng, m, FLIPS_PER_COLUMN.min(m)) {
            flips.push((ProviderId(p as u32), owner));
        }
        let epsilon = if rng.gen::<f64>() < VIP_FRACTION {
            vip()
        } else {
            regular()
        };
        delta.record(DeltaEntry {
            owner,
            change: ColumnChange::Changed,
            epsilon,
        });
    }
    DeltaStep { flips, delta }
}

/// Answer-length quartiles of `index` over `owners`, as a note line.
fn describe(
    label: &str,
    lambda: f64,
    common: u64,
    lengths: &[f64],
    providers: usize,
) -> (String, f64) {
    let [q1, q2, q3] = quartiles(lengths);
    (
        format!(
            "served[{label}]: lambda={lambda:.4} common={common} answer_len q1={q1} median={q2} q3={q3} providers={providers}"
        ),
        q2,
    )
}

/// Rejects an index nobody would serve: every answer the whole
/// network (λ = 1), a median answer of a tenth of the network or more,
/// or the raw matrix passed off as published. Small networks get a
/// looser answer limit — half the network below 1,000 providers (the
/// lineage's true frequencies alone reach a quarter), none below 64
/// (the Chernoff term ln 10 / m is then ≥ 0.04 per cell, so `--quick`
/// answers are most of the network by construction).
fn reject_degenerate(
    label: &str,
    lambda: f64,
    median_answer: f64,
    raw: &MembershipMatrix,
    index: &PublishedIndex,
) -> Result<(), String> {
    let m = raw.providers();
    let limit = match m {
        1000.. => m / 10,
        64.. => m / 2,
        _ => m + 1,
    };
    if lambda >= 1.0 {
        return Err(format!(
            "{label}: lambda = {lambda}, every answer is the whole network"
        ));
    }
    if median_answer >= limit as f64 {
        return Err(format!(
            "{label}: median answer {median_answer} >= {limit} of {m} providers"
        ));
    }
    if index.matrix().ones() <= raw.ones() {
        return Err(format!(
            "{label}: published index has no false positives (raw matrix served)"
        ));
    }
    Ok(())
}

/// `true` when every true provider of every listed owner is in the
/// oracle answer (the truthful-publication rule: 100 % recall).
pub fn recall_holds<A: AsRef<[ProviderId]>>(
    raw: &MembershipMatrix,
    answers: impl Iterator<Item = (OwnerId, A)>,
) -> bool {
    for (owner, answer) in answers {
        if !raw
            .providers_of(owner)
            .iter()
            .all(|p| answer.as_ref().binary_search(p).is_ok())
        {
            return false;
        }
    }
    true
}

impl Setup {
    /// Generates the inputs of `w` from `seed`, publishes the served
    /// indexes, starts the long-lived engines and checks the result.
    ///
    /// # Errors
    ///
    /// A message naming the sanity check a degenerate index failed.
    pub fn new(w: &Workload, seed: u64, quick: bool) -> Result<Setup, String> {
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11fe_c7c1e);
        let (m, n) = (w.providers, w.owners);
        let matrix = CollectionTable::new(m, n)
            .zipf_exponent(1.0)
            .min_frequency(1)
            .max_frequency((m / 4).max(1))
            .build(&mut rng);
        let epsilons = tiered_epsilons(n, VIP_FRACTION, vip(), regular(), &mut rng);
        let stride = (n / (w.deltas + 1)).max(1) | 1;
        let audited_step = draw_step(w, 0, &mut rng);
        let steps: Vec<DeltaStep> = (1..=w.deltas)
            .map(|i| draw_step(w, i * stride, &mut rng))
            .collect();
        let stream = QueryWorkload::new(n, 1.0, &mut rng).batch(STREAM_LEN, &mut rng);
        let paper_raw = w.paper.then(|| {
            let preset = if quick { Preset::Mini } else { Preset::Default };
            let raw = preset.build(&mut rng);
            let eps = tiered_epsilons(raw.owners(), VIP_FRACTION, vip(), regular(), &mut rng);
            let stream =
                QueryWorkload::new(raw.owners(), 1.0, &mut rng).batch(STREAM_LEN, &mut rng);
            (raw, eps, stream)
        });
        let gen_ms = started.elapsed().as_secs_f64() * 1e3;

        let proto = ProtocolConfig {
            backend: w.backend,
            seed,
            ..ProtocolConfig::default()
        };
        let audit = AuditConfig {
            params: AuditParams {
                repetitions: w.repetitions,
            },
            prover_seed: seed ^ 0x5eed,
        };
        // The reference build: the oracle every round's build must
        // reproduce.
        let reference = construct_epoch(&matrix, &epsilons, &proto).map_err(|e| e.to_string())?;
        let oracle: Vec<Vec<ProviderId>> = matrix
            .owner_ids()
            .map(|o| reference.index().query(o))
            .collect();
        let lengths: Vec<f64> = oracle.iter().map(|a| a.len() as f64).collect();
        let (note, lineage_median) = describe(
            "lineage",
            reference.lambda(),
            reference.common_count(),
            &lengths,
            m,
        );
        let mut notes = vec![note];
        reject_degenerate(
            "lineage",
            reference.lambda(),
            lineage_median,
            &matrix,
            reference.index(),
        )?;
        if !recall_holds(&matrix, matrix.owner_ids().zip(&oracle)) {
            return Err("lineage: reference epoch loses a true provider".into());
        }
        let common = reference.common_count();

        let mut median_answer = lineage_median;
        let paper = match paper_raw {
            None => None,
            Some((raw, eps, stream)) => {
                let built = construct(&raw, &eps, ConstructionConfig::default(), &mut rng)
                    .map_err(|e| e.to_string())?;
                let plan = built.mix_plan.as_ref().expect("mixing is on by default");
                let (lambda, paper_common) = (plan.lambda(), plan.common_count() as u64);
                let index = built.index;
                let mut oracle = vec![Vec::new(); raw.owners()];
                let mut asked: Vec<OwnerId> = stream.clone();
                asked.sort_unstable();
                asked.dedup();
                for &o in &asked {
                    oracle[o.index()] = index.query(o);
                }
                let lengths: Vec<f64> = asked
                    .iter()
                    .map(|o| oracle[o.index()].len() as f64)
                    .collect();
                let (note, median) =
                    describe("paper", lambda, paper_common, &lengths, raw.providers());
                notes.push(note);
                reject_degenerate("paper", lambda, median, &raw, &index)?;
                if !recall_holds(&raw, asked.iter().map(|&o| (o, &oracle[o.index()]))) {
                    return Err("paper: published index loses a true provider".into());
                }
                median_answer = median;
                let engine = ServeEngine::start(&index, serve_config(RowBackend::Compressed));
                let private = PrivateEngine::start(&index, serve_config(RowBackend::Dense));
                Some(Paper {
                    index,
                    stream,
                    oracle,
                    engine,
                    private,
                })
            }
        };

        Ok(Setup {
            lineage: Lineage {
                matrix,
                epsilons,
                proto,
                audit,
                audited_step,
                steps,
                stream,
                reference,
                oracle,
            },
            paper,
            gen_ms,
            notes,
            common,
            median_answer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (MembershipMatrix, PublishedIndex) {
        let mut raw = MembershipMatrix::new(64, 4);
        raw.set(ProviderId(1), OwnerId(0), true);
        let mut published = raw.clone();
        published.set(ProviderId(2), OwnerId(0), true);
        (raw, PublishedIndex::new(published, vec![0.1; 4]))
    }

    #[test]
    fn a_sane_index_passes() {
        let (raw, index) = tiny();
        assert!(reject_degenerate("t", 0.2, 3.0, &raw, &index).is_ok());
    }

    #[test]
    fn degenerate_indexes_are_rejected() {
        let (raw, index) = tiny();
        // λ = 1: every answer is every provider.
        assert!(reject_degenerate("t", 1.0, 3.0, &raw, &index).is_err());
        // Median answer of half the network.
        assert!(reject_degenerate("t", 0.2, 32.0, &raw, &index).is_err());
        // The raw matrix passed off as the published index.
        let unpublished = PublishedIndex::new(raw.clone(), vec![0.1; 4]);
        assert!(reject_degenerate("t", 0.2, 3.0, &raw, &unpublished).is_err());
    }

    #[test]
    fn recall_check_spots_a_lost_provider() {
        let (raw, index) = tiny();
        let full = raw.owner_ids().map(|o| (o, index.query(o)));
        assert!(recall_holds(&raw, full));
        let lossy = raw.owner_ids().map(|o| (o, Vec::new()));
        assert!(!recall_holds(&raw, lossy));
    }
}
