//! The private serve mode: a two-replica XOR-PIR front-end over two
//! plaintext engines' snapshots (DESIGN.md §12).
//!
//! The plaintext [`ServeClient`](crate::ServeClient) tells the server
//! *which owner* every query is about — exactly the access pattern the
//! paper's threat model says a curious locator service will mine. The
//! private mode removes that signal with the classic two-server
//! information-theoretic PIR (Chor–Goldreich–Kushilevitz–Sudan):
//!
//! 1. The client draws a uniformly random selection vector `a` over
//!    the `n` owner rows and sends `a` to replica A and `a ⊕ e_j` to
//!    replica B, where `j` is the queried owner.
//! 2. Each replica XORs together the packed provider rows its vector
//!    selects — by obliviously scanning *every* resident row under a
//!    branchless mask ([`eppi_pir::xor_scan_indexed_batch`]), so its
//!    work and its memory-access shape are query-independent.
//! 3. The client XORs the two answer shares: everything cancels except
//!    row `j`, which decodes to exactly the plaintext answer.
//!
//! Each replica alone sees a uniformly random vector whatever the
//! target, so privacy holds against either server individually; the
//! only assumption is that the two replicas do not collude (§12 spells
//! out why this fits the e-PPI deployment, where the index is already
//! replicated across brokers). Both replicas live in this process —
//! the crate models the trust split, it does not deploy it.
//!
//! The linear scan is the price of information-theoretic privacy. The
//! batched path ([`PrivateClient::query_batch`]) recovers most of it:
//! one pass over the rows serves a whole batch of vectors (row-outer,
//! query-inner), so per-query cost falls roughly linearly with batch
//! size until the vector set stops fitting in cache.
//!
//! ## Epoch consistency
//!
//! Refreshes and delta installs keep running under private traffic.
//! Each replica pins one snapshot per scan ([`ServeEngine::pir_scan`]),
//! so its own share is always internally consistent; when an install
//! lands *between* the two replicas' scans, their answers carry
//! different versions and the client regenerates and retries
//! (`pir.version_retries`). Vectors built against a slightly stale
//! owner count stay safe either way: [`SelectionVector::mask`] is zero
//! beyond the vector span on both replicas, so the XOR still cancels
//! cleanly.
//!
//! ## Failure is not "nobody holds this owner"
//!
//! An empty answer is a statement about the index — no provider
//! publishes the owner — and the paper's 100 %-recall contract rests on
//! it. A query that could not be answered is a different thing:
//! [`PrivateClient::try_query`] / [`PrivateClient::try_query_batch`]
//! return a typed [`PrivateQueryError`] when a replica is gone or the
//! version race outlasts the retry budget, count it in
//! `pir.failed_batches{reason=…}` and mark the trace with a
//! `pir.failed` instant. [`PrivateClient::query`] /
//! [`PrivateClient::query_batch`] are the fail-closed wrappers that
//! turn such an error into empty answers.

use crate::engine::{PirServerAnswer, ServeConfig, ServeEngine, ServeStats};
use crate::shard::EpochOrderError;
use eppi_core::model::{OwnerId, ProviderId, PublishedIndex};
use eppi_core::rows::providers_in_row;
use eppi_pir::{QueryPair, SelectionVector};
use eppi_trace::{Obs, SpanCtx, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Retry budget for replica-version mismatches. Installs are rare
/// relative to queries; two replicas settle on the same version as soon
/// as the install has reached both, so even 2 would almost always do.
const MAX_VERSION_RETRIES: usize = 64;

/// Why a private query produced no answer — as opposed to the empty
/// answer, which says no provider publishes the owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PrivateQueryError {
    /// A replica did not deliver its share: the engine was shut down.
    ReplicaGone,
    /// Installs kept landing between the two replicas' scans, so their
    /// answers never carried the same snapshot version.
    VersionRaceExhausted {
        /// Attempts made, each a full scan on both replicas.
        retries: usize,
    },
}

impl fmt::Display for PrivateQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrivateQueryError::ReplicaGone => {
                f.write_str("a private-serve replica is gone (engine shut down)")
            }
            PrivateQueryError::VersionRaceExhausted { retries } => write!(
                f,
                "the two replicas answered from different snapshot versions {retries} times in a row"
            ),
        }
    }
}

impl Error for PrivateQueryError {}

/// Two non-colluding serve replicas behind one handle.
///
/// Both replicas are full [`ServeEngine`]s over the same published
/// index and report into the same telemetry registry, so the `pir.*`
/// counters aggregate across replicas (each private query performs one
/// scan on *each* replica — `pir.scans` moves by 2 per submission
/// round).
///
/// ```
/// use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
/// use eppi_serve::{PrivateEngine, ServeConfig};
///
/// let mut m = MembershipMatrix::new(4, 2);
/// m.set(ProviderId(1), OwnerId(0), true);
/// let index = PublishedIndex::new(m, vec![0.0, 0.0]);
/// let config = ServeConfig { shards: 2, ..ServeConfig::default() };
/// let engine = PrivateEngine::start(&index, config);
/// let mut client = engine.client(7);
/// assert_eq!(client.query(OwnerId(0)), vec![ProviderId(1)]);
/// assert!(client.query(OwnerId(1)).is_empty());
/// engine.shutdown();
/// ```
#[derive(Debug)]
pub struct PrivateEngine {
    a: Arc<ServeEngine>,
    b: Arc<ServeEngine>,
}

impl PrivateEngine {
    /// Starts both replicas, reporting into the process-global
    /// telemetry registry.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    pub fn start(index: &PublishedIndex, config: ServeConfig) -> Self {
        Self::start_with_registry(index, config, Obs::default())
    }

    /// [`start`](Self::start) under a caller's observability context
    /// (see [`ServeEngine::start_with_registry`]): both replicas report
    /// into `obs.registry` and share `obs.tracer`, and every client
    /// query opens a `private.query` root span whose children cover
    /// vector generation, each replica's `pir.scatter` with one
    /// oblivious `pir.scan` per data shard, and the final recombine.
    /// The traced tree is oblivious by construction — every span name,
    /// count, and payload on this path depends only on the batch length
    /// and the snapshot shape, never on which owners are probed
    /// (enforced by the `trace_obliviousness` property test).
    ///
    /// Whatever row backend `config` names, both replicas are pinned to
    /// [`RowBackend::Dense`](eppi_core::rowstore::RowBackend::Dense):
    /// the oblivious scan's memory traffic must depend only on the
    /// snapshot shape, and a compressed row's decode cost tracks its
    /// content — exactly the signal PIR exists to hide (DESIGN.md §14).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    pub fn start_with_registry<'a>(
        index: &PublishedIndex,
        config: ServeConfig,
        obs: impl Into<Obs<'a>>,
    ) -> Self {
        let obs = obs.into();
        let config = ServeConfig {
            backend: eppi_core::rowstore::RowBackend::Dense,
            ..config
        };
        PrivateEngine {
            a: Arc::new(ServeEngine::start_with_registry(index, config, obs)),
            b: Arc::new(ServeEngine::start_with_registry(index, config, obs)),
        }
    }

    /// A private-query client. `seed` drives the client's query-vector
    /// generator ([`StdRng`]) — deterministic here for reproducible
    /// tests and benches; a real deployment would use a CSPRNG, since
    /// vector unpredictability is the entire privacy guarantee.
    pub fn client(&self, seed: u64) -> PrivateClient {
        PrivateClient {
            a: Arc::clone(&self.a),
            b: Arc::clone(&self.b),
            rng: StdRng::seed_from_u64(seed),
            tracer: self.a.tracer().clone(),
        }
    }

    /// The engines' shared tracer ([`Tracer::disabled`] unless the
    /// engine was started with a live one in its [`Obs`]).
    pub fn tracer(&self) -> &Tracer {
        self.a.tracer()
    }

    /// Installs a re-published index on both replicas (A first, then
    /// B). A client scanning between the two installs observes a
    /// version mismatch and retries; see the module docs.
    pub fn refresh(&self, index: &PublishedIndex) {
        self.a.refresh(index);
        self.b.refresh(index);
    }

    /// Installs the next epoch incrementally on both replicas
    /// ([`ServeEngine::apply_delta`]). Returns the installed version.
    ///
    /// # Errors
    ///
    /// Surfaces [`EpochOrderError`] from the first replica that rejects
    /// the delta; a replica that already installed it keeps the new
    /// version (the client's version check masks the transient skew,
    /// and the caller is expected to re-drive both replicas to the same
    /// lineage).
    pub fn apply_delta(
        &self,
        index: &PublishedIndex,
        touched: &[OwnerId],
    ) -> Result<u64, EpochOrderError> {
        let version = self.a.apply_delta(index, touched)?;
        let other = self.b.apply_delta(index, touched)?;
        debug_assert_eq!(version, other, "replicas diverged");
        Ok(version)
    }

    /// Replica A — also the replica whose snapshot the clients read
    /// public metadata (row count) from.
    pub fn replica_a(&self) -> &ServeEngine {
        &self.a
    }

    /// Replica B.
    pub fn replica_b(&self) -> &ServeEngine {
        &self.b
    }

    /// The shared engine counters (both replicas report here).
    pub fn stats(&self) -> &ServeStats {
        self.a.stats()
    }

    /// Stops both replicas. Idempotent, and implied by drop. Clients
    /// answer empty afterwards, like the plaintext
    /// [`ServeClient`](crate::ServeClient); `try_query*` reports
    /// [`PrivateQueryError::ReplicaGone`].
    pub fn shutdown(&self) {
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// A private-query client: generates per-query [`QueryPair`]s, has
/// replica A and then replica B scan their halves, and recombines the
/// answer shares.
///
/// Not `Clone` (it owns its RNG stream); create one per thread via
/// [`PrivateEngine::client`] with distinct seeds.
#[derive(Debug)]
pub struct PrivateClient {
    a: Arc<ServeEngine>,
    b: Arc<ServeEngine>,
    rng: StdRng,
    tracer: Tracer,
}

impl PrivateClient {
    /// Privately evaluates `QueryPPI(owner)`: bit-identical to the
    /// plaintext [`ServeClient::query`](crate::ServeClient::query) on
    /// the same snapshot, while neither replica learns `owner`. Unknown
    /// owners cost exactly one real query (a null pair scans the same
    /// rows) and answer empty. Fails closed: a query that could not be
    /// answered ([`try_query`](Self::try_query)'s error) also answers
    /// empty.
    pub fn query(&mut self, owner: OwnerId) -> Vec<ProviderId> {
        self.try_query(owner).unwrap_or_default()
    }

    /// [`query`](Self::query) that tells "no provider publishes this
    /// owner" (`Ok` of an empty list) from "the query was not
    /// answered".
    ///
    /// # Errors
    ///
    /// Same contract as [`try_query_batch`](Self::try_query_batch).
    pub fn try_query(&mut self, owner: OwnerId) -> Result<Vec<ProviderId>, PrivateQueryError> {
        let mut answers = self.try_query_batch(std::slice::from_ref(&owner))?;
        Ok(answers.pop().unwrap_or_default())
    }

    /// Privately evaluates a batch: one oblivious pass per replica
    /// serves every vector in the batch (`result[i]` answers
    /// `owners[i]`), amortizing the linear scan that single-shot
    /// private queries pay per query. Fails closed like
    /// [`query`](Self::query): an unanswered batch is all-empty.
    pub fn query_batch(&mut self, owners: &[OwnerId]) -> Vec<Vec<ProviderId>> {
        self.try_query_batch(owners)
            .unwrap_or_else(|_| vec![Vec::new(); owners.len()])
    }

    /// [`query_batch`](Self::query_batch) with failure kept apart from
    /// the empty answer.
    ///
    /// # Errors
    ///
    /// [`PrivateQueryError::ReplicaGone`] when a replica does not
    /// deliver its share (engine shut down);
    /// [`PrivateQueryError::VersionRaceExhausted`] when installs kept
    /// the two replicas on different snapshot versions for the whole
    /// retry budget. Either one bumps `pir.failed_batches{reason=…}`
    /// and drops a `pir.failed` instant (payload = batch length) under
    /// the query's root span.
    pub fn try_query_batch(
        &mut self,
        owners: &[OwnerId],
    ) -> Result<Vec<Vec<ProviderId>>, PrivateQueryError> {
        if owners.is_empty() {
            return Ok(Vec::new());
        }
        // Every span and payload below is owner-independent: the root
        // and generate/recombine payloads are the public batch length,
        // the scatter/scan payloads are snapshot-shape byte and word
        // counts. The `trace_obliviousness` test holds this door shut.
        let mut root = self.tracer.root("private.query");
        root.set_payload(owners.len() as u64);
        let rctx = root.ctx();
        for _ in 0..MAX_VERSION_RETRIES {
            // Row count is public metadata (the index's owner universe);
            // reading it from replica A costs no privacy.
            let rows = self.a.current().owners();
            let (to_a, to_b): (Vec<SelectionVector>, Vec<SelectionVector>) = {
                let mut gen = self.tracer.child(rctx, "pir.generate");
                gen.set_payload(owners.len() as u64);
                owners
                    .iter()
                    .map(|&o| {
                        let pair = if o.index() < rows {
                            QueryPair::generate(rows, o.index(), &mut self.rng)
                        } else {
                            QueryPair::null(rows, &mut self.rng)
                        };
                        (pair.a, pair.b)
                    })
                    .unzip()
            };
            let answers = self
                .a
                .pir_scan(&to_a, rctx)
                .zip(self.b.pir_scan(&to_b, rctx));
            let Some((share_a, share_b)) = answers else {
                return Err(self.failed(rctx, owners.len(), PrivateQueryError::ReplicaGone));
            };
            if share_a.version != share_b.version {
                self.a.stats().note_version_retry();
                self.tracer.instant(rctx, "pir.version_retry", 1);
                continue;
            }
            let mut rec = self.tracer.child(rctx, "pir.recombine");
            rec.set_payload(owners.len() as u64);
            return Ok(recombine(&share_a, &share_b));
        }
        // Installs outpaced the retry budget; fail rather than mix
        // versions.
        let exhausted = PrivateQueryError::VersionRaceExhausted {
            retries: MAX_VERSION_RETRIES,
        };
        Err(self.failed(rctx, owners.len(), exhausted))
    }

    /// Records an unanswered batch — counter and trace mark, both
    /// functions of the public batch length only — and hands the error
    /// back.
    fn failed(&self, root: SpanCtx, batch: usize, error: PrivateQueryError) -> PrivateQueryError {
        self.a.stats().note_failed_batch(&error);
        self.tracer.instant(root, "pir.failed", batch as u64);
        error
    }
}

/// XORs two replicas' answer shares and decodes each recovered row.
/// Null pairs (unknown owners) recombine to the all-zero row, i.e. the
/// empty candidate list.
fn recombine(a: &PirServerAnswer, b: &PirServerAnswer) -> Vec<Vec<ProviderId>> {
    debug_assert_eq!(a.version, b.version);
    a.shares
        .iter()
        .zip(&b.shares)
        .map(|(sa, sb)| {
            let row: Vec<u64> = sa.iter().zip(sb).map(|(x, y)| x ^ y).collect();
            providers_in_row(&row, a.providers)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::MembershipMatrix;
    use eppi_telemetry::{MetricValue, Registry};
    use rand::Rng;

    fn random_index(seed: u64, providers: usize, owners: usize, p: f64) -> PublishedIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut matrix = MembershipMatrix::new(providers, owners);
        for pr in 0..providers as u32 {
            for o in 0..owners as u32 {
                if rng.gen_bool(p) {
                    matrix.set(ProviderId(pr), OwnerId(o), true);
                }
            }
        }
        PublishedIndex::new(matrix, vec![0.2; owners])
    }

    fn config() -> ServeConfig {
        ServeConfig {
            shards: 3,
            backend: eppi_core::rowstore::RowBackend::Dense,
            telemetry: true,
        }
    }

    /// A compressed-backend config must still yield dense replicas: the
    /// obliviousness invariant cannot be configured away.
    #[test]
    fn private_replicas_are_pinned_dense_whatever_the_config() {
        use eppi_core::rowstore::RowBackend;

        let index = random_index(49, 40, 60, 0.3);
        let registry = Registry::new();
        let cfg = ServeConfig {
            backend: RowBackend::Compressed,
            ..config()
        };
        let engine = PrivateEngine::start_with_registry(&index, cfg, &registry);
        assert_eq!(engine.replica_a().backend(), RowBackend::Dense);
        assert_eq!(engine.replica_b().backend(), RowBackend::Dense);
        assert_eq!(engine.replica_a().current().backend(), RowBackend::Dense);
        let mut client = engine.client(9);
        let plain = engine.replica_a().client();
        // Scan volume stays owner-independent under the pinned backend.
        let mut deltas = Vec::new();
        for o in [0u32, 30, 59, 9999] {
            let before = engine.stats().pir_scanned_words();
            let got = client.query(OwnerId(o));
            deltas.push(engine.stats().pir_scanned_words() - before);
            if o < 60 {
                assert_eq!(got, plain.query(OwnerId(o)), "owner {o}");
            } else {
                assert!(got.is_empty());
            }
        }
        assert!(
            deltas.windows(2).all(|w| w[0] == w[1]),
            "scan volume varies: {deltas:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn private_answers_match_plaintext_for_every_owner() {
        let index = random_index(41, 70, 90, 0.25);
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(&index, config(), &registry);
        let mut client = engine.client(1);
        let plain = engine.replica_a().client();
        for o in 0..90u32 {
            assert_eq!(
                client.query(OwnerId(o)),
                plain.query(OwnerId(o)),
                "owner {o}"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn batch_matches_singles_and_unknowns_are_empty() {
        let index = random_index(42, 33, 50, 0.4);
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(&index, config(), &registry);
        let mut client = engine.client(2);
        let owners: Vec<OwnerId> = vec![OwnerId(3), OwnerId(49), OwnerId(1000), OwnerId(3)];
        let batch = client.query_batch(&owners);
        assert_eq!(batch.len(), owners.len());
        let plain = engine.replica_a().client();
        assert_eq!(batch[0], plain.query(OwnerId(3)));
        assert_eq!(batch[1], plain.query(OwnerId(49)));
        assert!(batch[2].is_empty(), "unknown owner answers empty");
        assert_eq!(batch[3], batch[0]);
        engine.shutdown();
    }

    #[test]
    fn refresh_and_delta_keep_private_answers_current() {
        let before = random_index(43, 30, 40, 0.2);
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(&before, config(), &registry);
        let mut client = engine.client(3);

        let after = random_index(44, 30, 40, 0.6);
        engine.refresh(&after);
        let plain = engine.replica_a().client();
        for o in 0..40u32 {
            assert_eq!(client.query(OwnerId(o)), plain.query(OwnerId(o)));
        }

        // Delta-install one touched + one appended owner.
        let mut matrix = after.matrix().clone();
        matrix.grow_owners(41);
        matrix.set(ProviderId(2), OwnerId(5), true);
        matrix.set(ProviderId(7), OwnerId(40), true);
        let mut betas = after.betas().to_vec();
        betas.push(0.3);
        let next = PublishedIndex::new(matrix, betas);
        let v = engine
            .apply_delta(&next, &[OwnerId(5), OwnerId(40)])
            .unwrap();
        assert_eq!(v, 2);
        for o in 0..41u32 {
            assert_eq!(
                client.query(OwnerId(o)),
                plain.query(OwnerId(o)),
                "owner {o}"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn scan_transcript_is_owner_independent() {
        let index = random_index(45, 64, 128, 0.3);
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(&index, config(), &registry);
        let mut client = engine.client(4);
        let words_per_query = |engine: &PrivateEngine| engine.stats().pir_scanned_words();
        let mut rng = StdRng::seed_from_u64(46);
        let mut deltas = Vec::new();
        for _ in 0..6 {
            let before = words_per_query(&engine);
            client.query(OwnerId(rng.gen_range(0..128)));
            deltas.push(words_per_query(&engine) - before);
        }
        // Unknown owner: same scan volume as any real one.
        let before = words_per_query(&engine);
        client.query(OwnerId(9999));
        deltas.push(words_per_query(&engine) - before);
        assert!(
            deltas.windows(2).all(|w| w[0] == w[1]),
            "scan volume varies with the queried owner: {deltas:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn trace_obliviousness() {
        use eppi_trace::{TraceConfig, Tracer};

        let index = random_index(48, 48, 96, 0.3);
        let registry = Registry::new();
        let tracer = Tracer::new(TraceConfig::default());
        let obs = Obs {
            tracer: &tracer,
            ..Obs::from(&registry)
        };
        let engine = PrivateEngine::start_with_registry(&index, config(), obs);
        let mut client = engine.client(6);
        // Probe the extremes, the middle, and an owner beyond the
        // universe (the unknown-owner null pair). If trace structure
        // leaked anything about the target, these would differ.
        let probes = [OwnerId(0), OwnerId(47), OwnerId(95), OwnerId(4000)];
        for &owner in &probes {
            client.query(owner);
        }
        engine.shutdown();

        let log = tracer.collect();
        let traces = log.trace_ids();
        assert_eq!(traces.len(), probes.len(), "one trace per probe");
        let shapes: Vec<_> = traces
            .iter()
            .map(|&t| log.shape(t).expect("trace survived the ring"))
            .collect();

        // The first probe's trace must be the full private-query tree:
        // root -> generate, two scatters each fanning into one scan per
        // shard, then the recombine.
        let tree = log.span_tree(traces[0]).unwrap();
        assert_eq!(tree.name, "private.query");
        assert_eq!(tree.count("pir.generate"), 1);
        assert_eq!(tree.count("pir.scatter"), 2);
        assert_eq!(tree.count("pir.scan"), 2 * config().shards);
        assert_eq!(tree.count("pir.recombine"), 1);

        // The obliviousness property itself: every probe's normalized
        // shape — names, kinds, payloads, child multisets — is
        // identical whichever owner was targeted.
        for (i, shape) in shapes.iter().enumerate().skip(1) {
            assert_eq!(
                shape, &shapes[0],
                "trace shape distinguishes probe {i} ({:?}) from probe 0",
                probes[i]
            );
        }
    }

    #[test]
    fn shutdown_fails_fast_with_empty_answers() {
        let index = random_index(47, 10, 12, 0.5);
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(&index, config(), &registry);
        let mut client = engine.client(5);
        engine.shutdown();
        engine.shutdown();
        assert!(client.query(OwnerId(0)).is_empty());
        assert!(client
            .query_batch(&[OwnerId(0), OwnerId(1)])
            .iter()
            .all(Vec::is_empty));
    }

    fn failed_batches(registry: &Registry, reason: &str) -> u64 {
        match registry
            .snapshot()
            .expect("pir.failed_batches", &[("reason", reason)])
        {
            Ok(m) => match m.value {
                MetricValue::Counter(v) => v,
                ref other => panic!("unexpected metric {other:?}"),
            },
            Err(miss) => panic!("{miss:?}"),
        }
    }

    #[test]
    fn shut_down_engine_is_replica_gone_not_an_empty_answer() {
        // Every provider holds owner 0: an empty answer would be a
        // recall violation.
        let mut matrix = MembershipMatrix::new(6, 2);
        for p in 0..6 {
            matrix.set(ProviderId(p), OwnerId(0), true);
        }
        let index = PublishedIndex::new(matrix, vec![0.0; 2]);
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(&index, config(), &registry);
        let mut client = engine.client(8);
        assert_eq!(client.try_query(OwnerId(0)).unwrap().len(), 6);
        assert_eq!(failed_batches(&registry, "replica_gone"), 0);
        engine.shutdown();

        assert_eq!(
            client.try_query_batch(&[OwnerId(0), OwnerId(1)]),
            Err(PrivateQueryError::ReplicaGone)
        );
        assert_eq!(failed_batches(&registry, "replica_gone"), 1);
        assert_eq!(failed_batches(&registry, "version_race_exhausted"), 0);
        // The infallible form still fails closed, and still counts.
        assert!(client.query(OwnerId(0)).is_empty());
        assert_eq!(failed_batches(&registry, "replica_gone"), 2);
    }

    #[test]
    fn one_sided_refresh_exhausts_the_version_race() {
        use eppi_trace::TraceConfig;

        let index = random_index(50, 12, 16, 0.5);
        let registry = Registry::new();
        // Both replicas scan on this thread, so all 64 attempts' spans
        // (≈ 19 events each) land in its one ring.
        let tracer = Tracer::new(TraceConfig {
            capacity_per_thread: 1 << 12,
            ..TraceConfig::default()
        });
        let obs = Obs {
            tracer: &tracer,
            ..Obs::from(&registry)
        };
        let engine = PrivateEngine::start_with_registry(&index, config(), obs);
        let mut client = engine.client(9);
        // Replica A moves to version 1, B stays at 0: the versions
        // never meet, whatever the client retries.
        engine.replica_a().refresh(&index);
        let owners = [OwnerId(1), OwnerId(2), OwnerId(3)];
        assert_eq!(
            client.try_query_batch(&owners),
            Err(PrivateQueryError::VersionRaceExhausted { retries: 64 })
        );
        assert_eq!(engine.stats().pir_version_retries(), 64);
        assert_eq!(failed_batches(&registry, "version_race_exhausted"), 1);
        assert_eq!(failed_batches(&registry, "replica_gone"), 0);
        engine.shutdown();

        // The trace says so too: one `pir.failed` mark carrying the
        // batch length under the query root, and no recombine.
        let log = tracer.collect();
        let traces = log.trace_ids();
        assert_eq!(traces.len(), 1);
        let tree = log.span_tree(traces[0]).unwrap();
        assert_eq!(tree.name, "private.query");
        assert_eq!(tree.count("pir.version_retry"), 64);
        assert_eq!(tree.count("pir.recombine"), 0);
        let marks: Vec<u64> = tree
            .children
            .iter()
            .filter(|c| c.name == "pir.failed")
            .map(|c| c.payload)
            .collect();
        assert_eq!(marks, vec![3], "{}", log.render(traces[0]));
    }
}
