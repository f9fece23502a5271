//! The query engine: every read runs on the caller's thread.
//!
//! `QueryPPI(t_j)` is one row lookup in the published `M'` (§II-A), so
//! a [`ServeClient`] answers it where it is asked: it loads the current
//! `Arc<ShardedIndex>` from the engine's [`SnapshotCell`] once and reads
//! the owner's row from it — no thread hop, no queue, no lock. Because
//! a request loads one `Arc`, it sees exactly one snapshot version: a
//! [`refresh`](ServeEngine::refresh) or
//! [`apply_delta`](ServeEngine::apply_delta) publishes the next version
//! to the cell without ever blocking readers, requests already holding
//! the old `Arc` finish on it, and later ones see the new one. The
//! private mode's server half, [`ServeEngine::pir_scan`], pins one
//! snapshot the same way and scans every data shard of it in order.
//!
//! ## Telemetry
//!
//! The engine reports through [`eppi_telemetry`] (DESIGN.md §8): the
//! cumulative `serve.*` and `pir.*` counters (always on — each is one
//! relaxed atomic add), and, when [`ServeConfig::telemetry`] is set, one
//! `serve.service_ns` histogram of caller-side service time per single
//! or batch request (two clock reads and a few relaxed atomic adds).

use crate::private::PrivateQueryError;
use crate::shard::{EpochOrderError, ShardedIndex};
use crate::snapshot::SnapshotCell;
use eppi_core::model::{OwnerId, ProviderId, PublishedIndex};
use eppi_core::rowstore::RowBackend;
use eppi_durability::serve_cache::{load_serve_snapshot, save_serve_snapshot};
use eppi_durability::{DurableStore, StoreError};
use eppi_pir::SelectionVector;
use eppi_telemetry::{Counter, Gauge, Histogram, Registry};
use eppi_trace::{Obs, SpanCtx, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default base shard count: one per hardware thread (4 when
/// parallelism cannot be determined). Shared by [`ServeConfig::default`]
/// and the bench harness's paper-scale configuration.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

/// Owners per base shard before the default shard count stops being
/// CPU-bound and starts scaling with the population.
const OWNERS_PER_SHARD: usize = 16_384;

/// Hard ceiling on the auto-chosen shard count — past this, more shards
/// only buy routing-table overhead on any plausible machine.
const MAX_DEFAULT_SHARDS: usize = 256;

/// Default base shard count for a known owner population: at least
/// [`default_shards`], but growing with the population (one shard per
/// 16,384 owners, capped at 256) so million-owner indexes don't funnel
/// through paper-scale shard counts: a shard is the unit a delta
/// install rebuilds copy-on-write. The chosen count is observable as
/// the `serve.shards` gauge on any engine started with it.
pub fn default_shards_for(owners: usize) -> usize {
    default_shards()
        .max(owners / OWNERS_PER_SHARD)
        .min(MAX_DEFAULT_SHARDS)
}

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of base data shards ([`ShardMap`]). Every layout the
    /// engine builds — at start, on [`refresh`](ServeEngine::refresh),
    /// and the only cached layout a warm
    /// [`from_store`](ServeEngine::from_store) accepts — has exactly
    /// this many; appending owners adds shards past it.
    ///
    /// [`ShardMap`]: crate::shard::ShardMap
    pub shards: usize,
    /// Physical row storage for the snapshots this engine serves
    /// (DESIGN.md §14). [`RowBackend::Compressed`] cuts resident memory
    /// ~10× at paper-like sparsity but cannot serve oblivious PIR
    /// scans — the private serve mode pins its replicas to
    /// [`RowBackend::Dense`] regardless of this field.
    pub backend: RowBackend,
    /// Records the `serve.service_ns` histogram. The cumulative
    /// counters stay on either way; disabling this removes two
    /// `Instant::now` calls and one histogram record per request.
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: default_shards(),
            backend: RowBackend::Dense,
            telemetry: true,
        }
    }
}

/// Cumulative engine counters, registered in the engine's telemetry
/// registry as `serve.queries`, `serve.batches`, and `serve.refreshes`
/// (relaxed atomics, monotone).
#[derive(Debug, Clone)]
pub struct ServeStats {
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    batch_dupes: Arc<Counter>,
    refreshes: Arc<Counter>,
    deltas: Arc<Counter>,
    pir_scans: Arc<Counter>,
    pir_queries: Arc<Counter>,
    pir_scanned_words: Arc<Counter>,
    pir_answer_bytes: Arc<Counter>,
    pir_version_retries: Arc<Counter>,
    pir_failed_replica_gone: Arc<Counter>,
    pir_failed_version_race: Arc<Counter>,
}

impl ServeStats {
    fn register(registry: &Registry) -> Self {
        ServeStats {
            queries: registry.counter("serve.queries", &[]),
            batches: registry.counter("serve.batches", &[]),
            batch_dupes: registry.counter("serve.batch_dupes", &[]),
            refreshes: registry.counter("serve.refreshes", &[]),
            deltas: registry.counter("serve.delta_refreshes", &[]),
            pir_scans: registry.counter("pir.scans", &[]),
            pir_queries: registry.counter("pir.queries", &[]),
            pir_scanned_words: registry.counter("pir.scanned_words", &[]),
            pir_answer_bytes: registry.counter("pir.answer_bytes", &[]),
            pir_version_retries: registry.counter("pir.version_retries", &[]),
            pir_failed_replica_gone: registry
                .counter("pir.failed_batches", &[("reason", "replica_gone")]),
            pir_failed_version_race: registry.counter(
                "pir.failed_batches",
                &[("reason", "version_race_exhausted")],
            ),
        }
    }

    /// Total single queries answered (batch members included).
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Total batch requests answered (one per
    /// [`ServeClient::query_batch`] call).
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// Snapshot refreshes installed (counted once per publication;
    /// delta installs included).
    pub fn refreshes(&self) -> u64 {
        self.refreshes.get()
    }

    /// The subset of refreshes installed through the copy-on-write
    /// delta path ([`ServeEngine::apply_delta`]).
    pub fn delta_refreshes(&self) -> u64 {
        self.deltas.get()
    }

    /// Duplicate batch members answered from an already-resolved row
    /// instead of a second row read (batch coalescing).
    pub fn batch_dupes(&self) -> u64 {
        self.batch_dupes.get()
    }

    /// Oblivious scan passes served (one per [`ServeEngine::pir_scan`],
    /// however many query vectors it carried).
    pub fn pir_scans(&self) -> u64 {
        self.pir_scans.get()
    }

    /// PIR query vectors answered (batch members included).
    pub fn pir_queries(&self) -> u64 {
        self.pir_queries.get()
    }

    /// `u64` words XOR-scanned by PIR scans — moves by exactly
    /// `owners × words_per_row` per scan pass, whatever the queries
    /// select (the obliviousness invariant, asserted by tests) and
    /// however many vectors the pass serves (the batch kernel reads
    /// each data word once per pass — the amortization lever).
    pub fn pir_scanned_words(&self) -> u64 {
        self.pir_scanned_words.get()
    }

    /// Bytes of PIR answer shares returned to clients.
    pub fn pir_answer_bytes(&self) -> u64 {
        self.pir_answer_bytes.get()
    }

    /// Private-client retries forced by the two replicas answering from
    /// different snapshot versions (an install landed between the two
    /// replicas' scans).
    pub fn pir_version_retries(&self) -> u64 {
        self.pir_version_retries.get()
    }

    /// Counts one replica-version mismatch retry (private client side).
    pub(crate) fn note_version_retry(&self) {
        self.pir_version_retries.inc();
    }

    /// Counts one private batch that was not answered (private client
    /// side): `pir.failed_batches{reason=…}`.
    pub(crate) fn note_failed_batch(&self, error: &PrivateQueryError) {
        match error {
            PrivateQueryError::ReplicaGone => self.pir_failed_replica_gone.inc(),
            PrivateQueryError::VersionRaceExhausted { .. } => self.pir_failed_version_race.inc(),
        }
    }
}

/// The sharded serving engine: the published snapshot, its install
/// path, and the instruments its clients report into. It owns no
/// threads — queries and PIR scans run on whichever thread asks.
///
/// Shutdown is idempotent: [`shutdown`](Self::shutdown) may be called
/// any number of times, and dropping the engine implies it. Clients
/// outlive the engine safely and answer empty once it is shut down.
///
/// ```
/// use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
/// use eppi_serve::{ServeConfig, ServeEngine};
///
/// let mut m = MembershipMatrix::new(4, 2);
/// m.set(ProviderId(1), OwnerId(0), true);
/// let index = PublishedIndex::new(m, vec![0.0, 0.0]);
/// let config = ServeConfig { shards: 2, ..ServeConfig::default() };
/// let engine = ServeEngine::start(&index, config);
/// let client = engine.client();
/// assert_eq!(client.query(OwnerId(0)), vec![ProviderId(1)]);
/// assert_eq!(client.query_batch(&[OwnerId(1), OwnerId(0)]).len(), 2);
/// engine.shutdown();
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    snapshot: Arc<SnapshotCell<ShardedIndex>>,
    /// Set by the first shutdown (explicit or via drop), shared with
    /// every client. Accessed `Relaxed`: the flag publishes no other
    /// data.
    stopped: Arc<AtomicBool>,
    stats: ServeStats,
    version: AtomicU64,
    /// Serializes snapshot installs ([`refresh`](Self::refresh) /
    /// [`apply_delta`](Self::apply_delta)): concurrent installers could
    /// otherwise pair a freshly drawn version with a stale snapshot and
    /// publish out of epoch order. The read path never takes it.
    install: Mutex<()>,
    /// Base shard count of every layout this engine builds
    /// ([`ServeConfig::shards`]).
    shards: usize,
    backend: RowBackend,
    /// The `serve.service_ns` histogram, when [`ServeConfig::telemetry`]
    /// is set.
    service: Option<Arc<Histogram>>,
    tracer: Tracer,
    /// Resident bytes of the serving snapshot's row storage, labeled by
    /// backend — re-set on every publish so the ~10× compressed-memory
    /// claim is a readable gauge, not an inference.
    index_bytes: Arc<Gauge>,
    /// Data shards in the serving snapshot (base + append); the base
    /// count is the `serve.shards` gauge.
    data_shards: Arc<Gauge>,
}

impl ServeEngine {
    /// Shards `index` into `config.shards` base shards and starts
    /// serving it, reporting into the process-global telemetry
    /// registry.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    pub fn start(index: &PublishedIndex, config: ServeConfig) -> Self {
        Self::start_with_registry(index, config, Obs::default())
    }

    /// [`start`](Self::start) under a caller's observability context.
    /// The engine registers its instruments in `obs.registry` — the
    /// bench harness passes its own `&registry` so each run snapshots
    /// only its own metrics — and keeps a clone of `obs.tracer` for its
    /// lifetime: requests submitted through this engine's clients open
    /// their own root spans (`obs.parent` is not used), so traced
    /// requests produce complete span trees while untraced ones (a
    /// [`Tracer::disabled`] handle, or a PIR scan under
    /// [`SpanCtx::NONE`]) record nothing.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    pub fn start_with_registry<'a>(
        index: &PublishedIndex,
        config: ServeConfig,
        obs: impl Into<Obs<'a>>,
    ) -> Self {
        let initial = ShardedIndex::from_index_with(index, config.shards, config.backend, 0);
        Self::boot(initial, config, obs.into())
    }

    /// Common boot tail: wraps an already-built serving layout in the
    /// snapshot cell and registers telemetry. The engine's version
    /// counter starts at the layout's own snapshot version (0 for cold
    /// boots, the cached version for warm ones).
    fn boot(initial: ShardedIndex, config: ServeConfig, obs: Obs<'_>) -> Self {
        let registry = obs.registry;
        let backend_labels: &[(&str, &str)] = &[("backend", config.backend.name())];
        let index_bytes = registry.gauge("serve.index_bytes", backend_labels);
        index_bytes.set(initial.resident_bytes() as i64);
        let data_shards = registry.gauge("serve.data_shards", &[]);
        data_shards.set(initial.shard_count() as i64);
        registry
            .gauge("serve.shards", &[])
            .set(config.shards as i64);
        ServeEngine {
            version: AtomicU64::new(initial.version()),
            snapshot: Arc::new(SnapshotCell::new(Arc::new(initial))),
            stopped: Arc::new(AtomicBool::new(false)),
            stats: ServeStats::register(registry),
            install: Mutex::new(()),
            shards: config.shards,
            backend: config.backend,
            service: config
                .telemetry
                .then(|| registry.histogram("serve.service_ns", &[])),
            tracer: obs.tracer.clone(),
            index_bytes,
            data_shards,
        }
    }

    /// Warm serve boot: starts serving the head of a recovered
    /// [`DurableStore`] directly — the recovered epoch goes live with
    /// no reconstruction and no MPC re-run (reporting into the
    /// process-global telemetry registry).
    ///
    /// When the store directory holds a valid EPPI v3 serve cache (see
    /// [`persist_serve_cache`](Self::persist_serve_cache)) stamped with
    /// the head's epoch and matching this config's backend and shard
    /// count, the cached layout is restored as-is and the re-shard
    /// (transpose, routing, row re-encoding) is skipped entirely. The
    /// cache is advisory: any mismatch, corruption, or restore failure
    /// falls back to the cold path. The chosen path is visible as the
    /// `serve.boots{mode="warm"|"cold"}` counter.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    pub fn from_store(store: &DurableStore, config: ServeConfig) -> Self {
        Self::from_store_with_registry(store, config, Obs::default())
    }

    /// [`from_store`](Self::from_store) under a caller's observability
    /// context (see [`start_with_registry`](Self::start_with_registry)).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    pub fn from_store_with_registry<'a>(
        store: &DurableStore,
        config: ServeConfig,
        obs: impl Into<Obs<'a>>,
    ) -> Self {
        let obs = obs.into();
        let registry = obs.registry;
        assert!(config.shards > 0, "at least one shard required");
        let head = store.head();
        if let Ok(Some(record)) = load_serve_snapshot(store.dir()) {
            // The cache must describe exactly the layout this engine
            // would rebuild: same lineage position (head epoch), same
            // storage backend, same base shard count, and the same
            // published contents. Anything else is a stale or foreign
            // cache — fall back to the cold re-shard.
            let index = head.index();
            let usable = record.snapshot_version == head.epoch()
                && record.backend == config.backend
                && record.base_shards as usize == config.shards
                && record.providers as usize == index.matrix().providers()
                && record.betas == index.betas();
            if usable {
                if let Ok(restored) = ShardedIndex::from_record(&record) {
                    registry.counter("serve.boots", &[("mode", "warm")]).inc();
                    return Self::boot(restored, config, obs);
                }
            }
        }
        registry.counter("serve.boots", &[("mode", "cold")]).inc();
        Self::start_with_registry(head.index(), config, obs)
    }

    /// Persists the currently serving layout as the store directory's
    /// EPPI v3 serve cache, stamped with the store head's epoch, so the
    /// next [`from_store`](Self::from_store) at this lineage position
    /// boots warm. Call it when the serving snapshot reflects the store
    /// head (e.g. right after checkpointing the epoch the engine
    /// serves); a later head moves the lineage past the stamp and the
    /// cache reads as stale. Returns the encoded byte count.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if writing the cache file fails; the previous
    /// cache (if any) survives unless the atomic replace completed.
    pub fn persist_serve_cache(&self, store: &DurableStore) -> Result<u64, StoreError> {
        let mut record = self.current().to_record();
        record.snapshot_version = store.head().epoch();
        save_serve_snapshot(store.dir(), &record)
    }

    /// A cloneable client handle; any number of threads may hold one.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            snapshot: Arc::clone(&self.snapshot),
            stopped: Arc::clone(&self.stopped),
            stats: self.stats.clone(),
            service: self.service.clone(),
            tracer: self.tracer.clone(),
        }
    }

    /// The engine's tracer ([`Tracer::disabled`] unless the engine was
    /// started with a live one in its [`Obs`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Base shard count ([`ServeConfig::shards`]); every layout this
    /// engine builds or restores has exactly this many base shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Data shards resident in the current snapshot (base + append);
    /// can exceed [`shards`](Self::shards) after appending growth.
    pub fn data_shards(&self) -> usize {
        self.current().shard_count()
    }

    /// The physical row backend this engine's snapshots use.
    pub fn backend(&self) -> RowBackend {
        self.backend
    }

    /// Engine counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The latest installed index version (also readable without the
    /// engine via [`current`](Self::current)).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// The latest published sharded snapshot (lock-free read).
    pub fn current(&self) -> Arc<ShardedIndex> {
        self.snapshot.load()
    }

    /// Installs a re-published index: stamps the next version, shards
    /// it into [`ServeConfig::shards`] base shards, and publishes the
    /// snapshot. Readers keep executing throughout; a request that
    /// already loaded the old snapshot finishes on it.
    pub fn refresh(&self, index: &PublishedIndex) {
        let _guard = self.install.lock().expect("install lock poisoned");
        let version = self.version.load(Ordering::SeqCst) + 1;
        let sharded = ShardedIndex::from_index_with(index, self.shards, self.backend, version);
        self.publish(sharded, version);
        self.stats.refreshes.inc();
    }

    /// Publishes an already-built snapshot. Callers hold the install
    /// lock.
    fn publish(&self, sharded: ShardedIndex, version: u64) {
        self.index_bytes.set(sharded.resident_bytes() as i64);
        self.data_shards.set(sharded.shard_count() as i64);
        self.snapshot.store(Arc::new(sharded));
        self.version.store(version, Ordering::SeqCst);
    }

    /// Installs the next epoch incrementally: builds the new snapshot
    /// copy-on-write from the current one
    /// ([`ShardedIndex::apply_delta`] — shards without a touched owner
    /// share their row words with the previous snapshot), then
    /// publishes it exactly like [`refresh`](Self::refresh), with
    /// readers never blocked. Installs are serialized on the engine's
    /// install lock, so the delta always builds on the snapshot it is
    /// stamped against. Returns the installed version.
    ///
    /// # Errors
    ///
    /// Surfaces [`EpochOrderError`] from
    /// [`ShardedIndex::apply_delta`] when the delta does not extend the
    /// current snapshot by exactly one version; nothing is installed
    /// and the current snapshot keeps serving.
    ///
    /// # Panics
    ///
    /// Panics under the same dimension conditions as
    /// [`ShardedIndex::apply_delta`].
    pub fn apply_delta(
        &self,
        index: &PublishedIndex,
        touched: &[OwnerId],
    ) -> Result<u64, EpochOrderError> {
        let _guard = self.install.lock().expect("install lock poisoned");
        let version = self.version.load(Ordering::SeqCst) + 1;
        let sharded = self.current().apply_delta(index, touched, version)?;
        self.publish(sharded, version);
        self.stats.refreshes.inc();
        self.stats.deltas.inc();
        Ok(version)
    }

    /// One replica's half of a private query: obliviously XOR-scans
    /// every data shard of the current snapshot for `queries` and
    /// returns this server's answer shares — `None` once the engine is
    /// shut down.
    ///
    /// The scan is pinned to one snapshot: it loads the
    /// [`SnapshotCell`] value once, so every shard is scanned at the
    /// same version even while a [`refresh`](Self::refresh) or
    /// [`apply_delta`](Self::apply_delta) publishes the next one — the
    /// XOR of per-shard partial shares is only meaningful over a single
    /// version. Every data shard, append shards included, is scanned in
    /// shard order: the work and the spans depend only on the snapshot
    /// shape, never on which owners the vectors select (this server's
    /// whole transcript is query-independent).
    ///
    /// Vectors shorter or longer than the snapshot's owner count are
    /// served as-is: rows outside a vector's span contribute nothing
    /// ([`SelectionVector::mask`] is 0 out of range), which keeps a
    /// client that generated its vectors against a slightly stale owner
    /// count consistent across both replicas of a 2-server deployment.
    ///
    /// Under a traced request (`parent` not [`SpanCtx::NONE`], engine
    /// tracer live) the scan opens a `pir.scatter` span with one
    /// `pir.scan` child per data shard (payload: words scanned). The
    /// `pir.scatter` payload is the answer-share byte count — like
    /// every payload on the private path, a function of the snapshot
    /// shape only, never of what the vectors select.
    pub fn pir_scan(
        &self,
        queries: &[SelectionVector],
        parent: SpanCtx,
    ) -> Option<PirServerAnswer> {
        if self.stopped.load(Ordering::Relaxed) {
            return None;
        }
        let mut span = self.tracer.child(parent, "pir.scatter");
        let snapshot = self.current();
        let wpr = snapshot.words_per_row();
        let mut shares = vec![vec![0u64; wpr]; queries.len()];
        let mut words = 0;
        for shard in 0..snapshot.shard_count() {
            let mut scan = self.tracer.child(span.ctx(), "pir.scan");
            let scanned = snapshot.pir_scan_shard(shard, queries, &mut shares);
            scan.set_payload(scanned);
            words += scanned;
        }
        let answer_bytes = (queries.len() * wpr * 8) as u64;
        span.set_payload(answer_bytes);
        self.stats.pir_scans.inc();
        self.stats.pir_queries.add(queries.len() as u64);
        self.stats.pir_scanned_words.add(words);
        self.stats.pir_answer_bytes.add(answer_bytes);
        Some(PirServerAnswer {
            version: snapshot.version(),
            rows: snapshot.owners(),
            providers: snapshot.providers(),
            shares,
        })
    }

    /// Stops serving: clients created from this engine answer empty
    /// and [`pir_scan`](Self::pir_scan) returns `None` from now on.
    /// Idempotent, and implied by drop.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::Relaxed);
    }
}

impl Drop for ServeEngine {
    /// Dropping the engine shuts it down, so clients that outlive it
    /// answer empty.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One server's complete answer to a PIR scan: its XOR share of each
/// requested row, stamped with the snapshot version it was scanned
/// against. A client XORs the `shares` of the two replicas positionwise
/// to recover the selected rows — but only when both answers carry the
/// same `version` (otherwise it regenerates and retries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PirServerAnswer {
    /// Snapshot version the scan ran against.
    pub version: u64,
    /// Owner rows resident in that snapshot.
    pub rows: usize,
    /// Provider universe size (decodes the recombined row).
    pub providers: usize,
    /// One answer share per submitted selection vector, each
    /// `words_per_row` words.
    pub shares: Vec<Vec<u64>>,
}

/// A handle for submitting queries; cheap to clone and share. Each
/// request runs on the calling thread against one loaded snapshot.
#[derive(Debug, Clone)]
pub struct ServeClient {
    snapshot: Arc<SnapshotCell<ShardedIndex>>,
    stopped: Arc<AtomicBool>,
    stats: ServeStats,
    service: Option<Arc<Histogram>>,
    /// Roots a span per request when the engine was started traced.
    tracer: Tracer,
}

impl ServeClient {
    /// Evaluates `QueryPPI(owner)`: one row read in the current
    /// snapshot. Unknown owners (beyond the current index) and a
    /// shut-down engine both answer with the empty candidate list,
    /// matching an empty `PpiServer`.
    pub fn query(&self, owner: OwnerId) -> Vec<ProviderId> {
        let mut span = self.tracer.root("serve.query");
        if self.stopped.load(Ordering::Relaxed) {
            return Vec::new();
        }
        let timer = self.service.as_ref().map(|h| (h, Instant::now()));
        let result = self.snapshot.load().try_query(owner).unwrap_or_default();
        self.stats.queries.inc();
        if let Some((h, started)) = timer {
            h.record(started.elapsed().as_nanos() as u64);
        }
        span.set_payload(result.len() as u64);
        result
    }

    /// Evaluates a batch of queries against one snapshot and returns
    /// results in request order (`result[i]` answers `owners[i]`).
    /// Duplicate owners cost one row read: the batch is resolved in
    /// owner order, and each repeat copies the row just read.
    pub fn query_batch(&self, owners: &[OwnerId]) -> Vec<Vec<ProviderId>> {
        let mut span = self.tracer.root("serve.query_batch");
        span.set_payload(owners.len() as u64);
        let mut results = vec![Vec::new(); owners.len()];
        if self.stopped.load(Ordering::Relaxed) {
            return results;
        }
        let timer = self.service.as_ref().map(|h| (h, Instant::now()));
        let snapshot = self.snapshot.load();
        let mut order: Vec<usize> = (0..owners.len()).collect();
        order.sort_unstable_by_key(|&i| owners[i].index());
        let mut last: Option<usize> = None;
        let mut dupes = 0u64;
        for i in order {
            results[i] = match last {
                Some(prev) if owners[prev] == owners[i] => {
                    dupes += 1;
                    results[prev].clone()
                }
                _ => {
                    last = Some(i);
                    snapshot.try_query(owners[i]).unwrap_or_default()
                }
            };
        }
        self.stats.queries.add(owners.len() as u64);
        self.stats.batches.inc();
        if dupes > 0 {
            self.stats.batch_dupes.add(dupes);
        }
        if let Some((h, started)) = timer {
            h.record(started.elapsed().as_nanos() as u64);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_of;
    use eppi_core::model::MembershipMatrix;
    use eppi_index::server::PpiServer;
    use eppi_telemetry::MetricValue;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_index(rng: &mut StdRng, providers: usize, owners: usize, p: f64) -> PublishedIndex {
        let mut matrix = MembershipMatrix::new(providers, owners);
        for pr in 0..providers as u32 {
            for o in 0..owners as u32 {
                if rng.gen_bool(p) {
                    matrix.set(ProviderId(pr), OwnerId(o), true);
                }
            }
        }
        let betas = vec![0.1; owners];
        PublishedIndex::new(matrix, betas)
    }

    fn config(shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            backend: RowBackend::Dense,
            telemetry: true,
        }
    }

    #[test]
    fn engine_answers_like_the_unsharded_server() {
        let mut rng = StdRng::seed_from_u64(21);
        let index = random_index(&mut rng, 50, 200, 0.2);
        let server = PpiServer::new(index.clone());
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(4), &registry);
        let client = engine.client();
        for o in 0..200u32 {
            assert_eq!(
                client.query(OwnerId(o)),
                server.query(OwnerId(o)),
                "owner {o}"
            );
        }
        let owners: Vec<OwnerId> = (0..200).map(OwnerId).collect();
        assert_eq!(client.query_batch(&owners), server.query_batch(&owners));
        assert_eq!(engine.stats().queries(), 400);
        assert_eq!(engine.stats().batches(), 1, "one per query_batch call");
        engine.shutdown();
    }

    #[test]
    fn unknown_owner_answers_empty() {
        let index = random_index(&mut StdRng::seed_from_u64(22), 8, 4, 0.5);
        let engine = ServeEngine::start_with_registry(&index, config(2), &Registry::new());
        assert!(engine.client().query(OwnerId(4000)).is_empty());
    }

    #[test]
    fn refresh_installs_new_version_for_later_queries() {
        let mut rng = StdRng::seed_from_u64(23);
        let before = random_index(&mut rng, 30, 60, 0.1);
        let after = random_index(&mut rng, 30, 60, 0.6);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&before, config(3), &registry);
        let client = engine.client();
        let expect_before = PpiServer::new(before.clone());
        for o in 0..60u32 {
            assert_eq!(client.query(OwnerId(o)), expect_before.query(OwnerId(o)));
        }
        engine.refresh(&after);
        assert_eq!(engine.version(), 1);
        assert_eq!(engine.current().version(), 1);
        let expect_after = PpiServer::new(after.clone());
        for o in 0..60u32 {
            assert_eq!(client.query(OwnerId(o)), expect_after.query(OwnerId(o)));
        }
        assert_eq!(engine.stats().refreshes(), 1);
        engine.shutdown();
    }

    #[test]
    fn queries_after_shutdown_fail_fast_and_empty() {
        let index = random_index(&mut StdRng::seed_from_u64(24), 10, 10, 0.9);
        let engine = ServeEngine::start_with_registry(&index, config(2), &Registry::new());
        let client = engine.client();
        engine.shutdown();
        assert!(client.query(OwnerId(0)).is_empty());
        assert!(client
            .query_batch(&[OwnerId(0), OwnerId(1)])
            .iter()
            .all(Vec::is_empty));
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        // Every provider holds owner 1, so an empty answer can only
        // mean the engine is shut down.
        let mut matrix = MembershipMatrix::new(10, 20);
        for p in 0..10 {
            matrix.set(ProviderId(p), OwnerId(1), true);
        }
        let index = PublishedIndex::new(matrix, vec![0.1; 20]);
        let engine = ServeEngine::start_with_registry(&index, config(2), &Registry::new());
        let client = engine.client();
        assert_eq!(client.query(OwnerId(1)).len(), 10);
        let rows = engine.current().owners();
        let probe = [SelectionVector::zero(rows)];
        assert!(engine.pir_scan(&probe, SpanCtx::NONE).is_some());
        engine.shutdown();
        engine.shutdown();
        engine.shutdown();
        // Every client, old or new, answers empty; scans answer nothing.
        for c in [&client, &engine.client()] {
            assert!(c.query(OwnerId(1)).is_empty());
            assert!(c.query_batch(&[OwnerId(1)]).iter().all(Vec::is_empty));
        }
        assert!(engine.pir_scan(&probe, SpanCtx::NONE).is_none());
        assert_eq!(engine.stats().queries(), 1, "nothing served after shutdown");
        // Drop after shutdown is a no-op; a client outliving the engine
        // keeps answering empty.
        drop(engine);
        assert!(client.query(OwnerId(1)).is_empty());
        // Dropping a live engine shuts it down too.
        let engine = ServeEngine::start_with_registry(&index, config(2), &Registry::new());
        let orphan = engine.client();
        drop(engine);
        assert!(orphan.query(OwnerId(1)).is_empty());
    }

    #[test]
    fn batch_duplicates_coalesce_to_one_row_read() {
        let mut rng = StdRng::seed_from_u64(30);
        let index = random_index(&mut rng, 40, 60, 0.3);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(3), &registry);
        let client = engine.client();
        // 5 distinct owners, each asked 4 times, shuffled across the batch.
        let distinct = [
            OwnerId(1),
            OwnerId(7),
            OwnerId(20),
            OwnerId(33),
            OwnerId(59),
        ];
        let mut owners = Vec::new();
        for round in 0..4 {
            for i in 0..distinct.len() {
                owners.push(distinct[(i + round) % distinct.len()]);
            }
        }
        let got = client.query_batch(&owners);
        let server = PpiServer::new(index.clone());
        for (o, row) in owners.iter().zip(&got) {
            assert_eq!(row, &server.query(*o), "owner {o}");
        }
        // 20 batch members but only 5 unique rows: 15 answered from the
        // coalesced previous result.
        assert_eq!(engine.stats().batch_dupes(), 15);
        engine.shutdown();
    }

    #[test]
    fn pir_scan_answers_match_plaintext_and_scan_everything() {
        let mut rng = StdRng::seed_from_u64(32);
        let index = random_index(&mut rng, 70, 90, 0.25);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(3), &registry);
        let snapshot = engine.current();
        let (rows, wpr) = (snapshot.owners(), snapshot.words_per_row());

        let targets = [0usize, 41, 89];
        let pairs: Vec<eppi_pir::QueryPair> = targets
            .iter()
            .map(|&t| eppi_pir::QueryPair::generate(rows, t, &mut rng))
            .collect();
        let a: Vec<SelectionVector> = pairs.iter().map(|p| p.a.clone()).collect();
        let b: Vec<SelectionVector> = pairs.iter().map(|p| p.b.clone()).collect();
        let answer_a = engine.pir_scan(&a, SpanCtx::NONE).unwrap();
        let answer_b = engine.pir_scan(&b, SpanCtx::NONE).unwrap();
        assert_eq!(answer_a.version, answer_b.version);
        for (i, &t) in targets.iter().enumerate() {
            let row: Vec<u64> = answer_a.shares[i]
                .iter()
                .zip(&answer_b.shares[i])
                .map(|(x, y)| x ^ y)
                .collect();
            assert_eq!(
                eppi_core::providers_in_row(&row, answer_a.providers),
                snapshot.query(OwnerId(t as u32)),
                "target {t}"
            );
        }
        // Two scans, each one full pass over the packed rows —
        // the batch kernel reads each data word once per pass no matter
        // how many vectors ride along (the amortization the private
        // batch path banks on).
        assert_eq!(engine.stats().pir_scans(), 2);
        assert_eq!(engine.stats().pir_queries(), 6);
        assert_eq!(engine.stats().pir_scanned_words(), (2 * rows * wpr) as u64);
        assert_eq!(engine.stats().pir_answer_bytes(), (6 * wpr * 8) as u64);
        engine.shutdown();
        // After shutdown the scan answers nothing.
        assert!(engine.pir_scan(&a, SpanCtx::NONE).is_none());
    }

    /// Every `serve.*` family an engine registers; any other `serve.*`
    /// name in a snapshot fails [`assert_only_serve_families`].
    const SERVE_FAMILIES: [&str; 9] = [
        "serve.batch_dupes",
        "serve.batches",
        "serve.data_shards",
        "serve.delta_refreshes",
        "serve.index_bytes",
        "serve.queries",
        "serve.refreshes",
        "serve.service_ns",
        "serve.shards",
    ];

    fn assert_only_serve_families(snap: &eppi_telemetry::Snapshot) {
        for m in &snap.metrics {
            if m.name.starts_with("serve.") {
                assert!(
                    SERVE_FAMILIES.contains(&m.name.as_str()),
                    "{} registered",
                    m.id()
                );
            }
        }
    }

    #[test]
    fn telemetry_covers_the_serve_path() {
        let mut rng = StdRng::seed_from_u64(27);
        let index = random_index(&mut rng, 30, 64, 0.2);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(2), &registry);
        let client = engine.client();
        for o in 0..64u32 {
            client.query(OwnerId(o));
        }
        let owners: Vec<OwnerId> = (0..64).map(OwnerId).collect();
        client.query_batch(&owners);
        engine.refresh(&index);
        client.query(OwnerId(0));
        engine.shutdown();
        // Answered empty after shutdown: not a served request.
        client.query(OwnerId(1));

        let snap = registry.snapshot();
        let service = snap
            .expect("serve.service_ns", &[])
            .unwrap_or_else(|miss| panic!("{miss}"));
        match &service.value {
            // 65 singles + 1 batch, one observation per request.
            MetricValue::Histogram(h) => assert_eq!(h.count, 66),
            other => panic!("unexpected metric {other:?}"),
        }
        assert_eq!(
            snap.family("serve.service_ns").len(),
            1,
            "one unlabelled histogram"
        );
        assert_only_serve_families(&snap);
    }

    #[test]
    fn telemetry_off_keeps_counters_only() {
        let index = random_index(&mut StdRng::seed_from_u64(28), 10, 16, 0.4);
        let registry = Registry::new();
        let cfg = ServeConfig {
            telemetry: false,
            ..config(2)
        };
        let engine = ServeEngine::start_with_registry(&index, cfg, &registry);
        let client = engine.client();
        for o in 0..16u32 {
            client.query(OwnerId(o));
        }
        client.query_batch(&[OwnerId(0), OwnerId(1)]);
        engine.shutdown();
        assert_eq!(engine.stats().queries(), 18);
        let snap = registry.snapshot();
        assert!(snap.family("serve.service_ns").is_empty());
        assert_only_serve_families(&snap);
    }

    #[test]
    fn apply_delta_installs_next_epoch_and_shares_untouched_shards() {
        let mut rng = StdRng::seed_from_u64(29);
        let index = random_index(&mut rng, 30, 120, 0.2);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(4), &registry);
        let client = engine.client();
        let before = engine.current();

        // One changed owner + one appended owner.
        let mut matrix = index.matrix().clone();
        matrix.grow_owners(121);
        matrix.set(ProviderId(3), OwnerId(7), true);
        matrix.set(ProviderId(9), OwnerId(120), true);
        let mut betas = index.betas().to_vec();
        betas.push(0.5);
        let next = PublishedIndex::new(matrix, betas);
        let touched = [OwnerId(7), OwnerId(120)];
        let installed = engine.apply_delta(&next, &touched).unwrap();

        assert_eq!(installed, 1);
        assert_eq!(engine.version(), 1);
        assert_eq!(engine.stats().refreshes(), 1);
        assert_eq!(engine.stats().delta_refreshes(), 1);
        let after = engine.current();
        // The changed owner dirties its base shard; the appended owner
        // opens an append shard past the base four. Every other base
        // shard shares its row block with the previous snapshot.
        assert_eq!(after.shard_count(), 5);
        let hot = shard_of(OwnerId(7), 4);
        for s in 0..4 {
            assert_eq!(after.shares_rows_with(&before, s), s != hot, "shard {s}");
        }
        // Served answers match the new index.
        let server = PpiServer::new(next.clone());
        for o in 0..121u32 {
            assert_eq!(client.query(OwnerId(o)), server.query(OwnerId(o)));
        }
        engine.shutdown();
    }

    #[test]
    fn default_shards_scale_with_owner_count() {
        let cpu = default_shards();
        assert_eq!(default_shards_for(0), cpu);
        assert_eq!(default_shards_for(20_000), cpu.max(1));
        assert!(default_shards_for(1_000_000) >= 61);
        assert!(default_shards_for(1_000_000_000) <= 256);
        // Monotone in the population.
        assert!(default_shards_for(1_000_000) <= default_shards_for(2_000_000));
    }

    #[test]
    fn compressed_backend_serves_identically_and_reports_bytes() {
        let mut rng = StdRng::seed_from_u64(33);
        let index = random_index(&mut rng, 300, 150, 0.02);
        let registry = Registry::new();
        let cfg = ServeConfig {
            backend: eppi_core::rowstore::RowBackend::Compressed,
            ..config(3)
        };
        let engine = ServeEngine::start_with_registry(&index, cfg, &registry);
        assert_eq!(
            engine.backend(),
            eppi_core::rowstore::RowBackend::Compressed
        );
        let client = engine.client();
        let server = PpiServer::new(index.clone());
        for o in 0..150u32 {
            assert_eq!(client.query(OwnerId(o)), server.query(OwnerId(o)));
        }
        let snap = registry.snapshot();
        let bytes = snap
            .expect("serve.index_bytes", &[("backend", "compressed")])
            .unwrap_or_else(|miss| panic!("{miss}"));
        match &bytes.value {
            MetricValue::Gauge { value, .. } => {
                assert_eq!(*value, engine.current().resident_bytes() as i64);
                assert!(*value > 0);
            }
            other => panic!("unexpected metric {other:?}"),
        }
        let shards_gauge = snap
            .expect("serve.shards", &[])
            .unwrap_or_else(|miss| panic!("{miss}"));
        match &shards_gauge.value {
            MetricValue::Gauge { value, .. } => assert_eq!(*value, 3),
            other => panic!("unexpected metric {other:?}"),
        }
        engine.shutdown();
    }

    /// Appending growth makes the snapshot hold more data shards than
    /// the engine's base count; the PIR scan must still cover every
    /// shard, and the scan volume stays exactly `owners × words_per_row`
    /// per pass.
    #[test]
    fn pir_covers_append_shards_beyond_the_base_shards() {
        let mut rng = StdRng::seed_from_u64(34);
        let index = random_index(&mut rng, 70, 90, 0.25);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(2), &registry);

        // Grow by enough owners to open an append shard.
        let mut matrix = index.matrix().clone();
        matrix.grow_owners(140);
        for o in 90..140u32 {
            matrix.set(ProviderId(o % 70), OwnerId(o), true);
        }
        let mut betas = index.betas().to_vec();
        betas.resize(140, 0.1);
        let next = PublishedIndex::new(matrix, betas);
        engine.apply_delta(&next, &[]).unwrap();
        assert!(engine.data_shards() > engine.shards());

        let snapshot = engine.current();
        let (rows, wpr) = (snapshot.owners(), snapshot.words_per_row());
        // Recover an appended owner's row privately.
        let target = 123usize;
        let pair = eppi_pir::QueryPair::generate(rows, target, &mut rng);
        let a = engine.pir_scan(&[pair.a], SpanCtx::NONE).unwrap();
        let b = engine.pir_scan(&[pair.b], SpanCtx::NONE).unwrap();
        let row: Vec<u64> = a.shares[0]
            .iter()
            .zip(&b.shares[0])
            .map(|(x, y)| x ^ y)
            .collect();
        assert_eq!(
            eppi_core::providers_in_row(&row, a.providers),
            snapshot.query(OwnerId(target as u32))
        );
        assert_eq!(engine.stats().pir_scanned_words(), (2 * rows * wpr) as u64);
        engine.shutdown();
    }

    #[test]
    fn from_store_serves_the_recovered_head_without_rebuild() {
        use eppi_core::model::Epsilon;
        use eppi_protocol::{construct_epoch, ProtocolConfig};

        let dir = std::env::temp_dir().join(format!("eppi-boot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut matrix = MembershipMatrix::new(12, 4);
        for o in 0..4u32 {
            for p in 0..=o {
                matrix.set(ProviderId(p * 3), OwnerId(o), true);
            }
        }
        let epsilons = vec![Epsilon::new(0.5).unwrap(); 4];
        let protocol = ProtocolConfig {
            seed: 77,
            ..ProtocolConfig::default()
        };
        let registry = Registry::new();
        let epoch0 = construct_epoch(&matrix, &epsilons, &protocol).unwrap();
        DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();

        // Restart: recover and boot the engine straight off the store.
        let (store, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.replayed, 0);
        let engine = ServeEngine::from_store_with_registry(&store, config(2), &registry);
        let client = engine.client();
        let server = PpiServer::new(epoch0.index().clone());
        for o in 0..4u32 {
            assert_eq!(client.query(OwnerId(o)), server.query(OwnerId(o)));
        }
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn seeded_store(dir: &std::path::Path, registry: &Registry) -> eppi_protocol::IndexEpoch {
        use eppi_core::model::Epsilon;
        use eppi_protocol::{construct_epoch, ProtocolConfig};

        let _ = std::fs::remove_dir_all(dir);
        let mut matrix = MembershipMatrix::new(10, 6);
        for o in 0..6u32 {
            for p in 0..=(o % 5) {
                matrix.set(ProviderId(p * 2), OwnerId(o), true);
            }
        }
        let epsilons = vec![Epsilon::new(0.5).unwrap(); 6];
        let protocol = ProtocolConfig {
            seed: 91,
            ..ProtocolConfig::default()
        };
        let epoch0 = construct_epoch(&matrix, &epsilons, &protocol).unwrap();
        DurableStore::create_with_registry(dir, &epoch0, registry).unwrap();
        epoch0
    }

    fn boots(registry: &Registry, mode: &str) -> u64 {
        match registry.snapshot().expect("serve.boots", &[("mode", mode)]) {
            Ok(m) => match &m.value {
                MetricValue::Counter(v) => *v,
                other => panic!("unexpected metric {other:?}"),
            },
            Err(_) => 0,
        }
    }

    #[test]
    fn warm_boot_restores_the_cached_layout_without_resharding() {
        let dir = std::env::temp_dir().join(format!("eppi-warmboot-{}", std::process::id()));
        let registry = Registry::new();
        let epoch0 = seeded_store(&dir, &registry);

        // First boot finds no cache: cold re-shard, version 0. Persist
        // the layout it built for the next boot.
        let (store, _) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        let cold = ServeEngine::from_store_with_registry(&store, config(2), &registry);
        assert_eq!((boots(&registry, "cold"), boots(&registry, "warm")), (1, 0));
        assert_eq!(cold.version(), 0);
        cold.persist_serve_cache(&store).unwrap();
        cold.shutdown();

        // Second boot restores the cached layout: no re-shard (the
        // warm counter moves, cold does not), and the engine resumes
        // at the head's lineage position instead of version 0.
        let warm = ServeEngine::from_store_with_registry(&store, config(2), &registry);
        assert_eq!((boots(&registry, "cold"), boots(&registry, "warm")), (1, 1));
        assert_eq!(warm.version(), store.head().epoch());
        assert_eq!(warm.current().version(), store.head().epoch());
        let client = warm.client();
        let server = PpiServer::new(epoch0.index().clone());
        for o in 0..6u32 {
            assert_eq!(client.query(OwnerId(o)), server.query(OwnerId(o)));
        }
        warm.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_serve_cache_falls_back_to_a_cold_boot() {
        use eppi_durability::serve_cache::load_serve_snapshot as load_raw;
        use eppi_durability::serve_cache::save_serve_snapshot as save_raw;

        let dir = std::env::temp_dir().join(format!("eppi-staleboot-{}", std::process::id()));
        let registry = Registry::new();
        let epoch0 = seeded_store(&dir, &registry);
        let (store, _) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        let first = ServeEngine::from_store_with_registry(&store, config(2), &registry);
        first.persist_serve_cache(&store).unwrap();
        first.shutdown();

        // A cache stamped for a different lineage position is stale:
        // the boot must re-shard, never serve it.
        let mut record = load_raw(store.dir()).unwrap().unwrap();
        record.snapshot_version += 7;
        save_raw(store.dir(), &record).unwrap();
        let engine = ServeEngine::from_store_with_registry(&store, config(2), &registry);
        assert_eq!(boots(&registry, "cold"), 2);
        assert_eq!(boots(&registry, "warm"), 0);
        assert_eq!(engine.version(), 0);
        engine.shutdown();

        // So is one built for a different shard count, even at the
        // right version.
        record.snapshot_version -= 7;
        save_raw(store.dir(), &record).unwrap();
        let engine = ServeEngine::from_store_with_registry(&store, config(3), &registry);
        assert_eq!(boots(&registry, "cold"), 3);
        assert_eq!(boots(&registry, "warm"), 0);
        let client = engine.client();
        let server = PpiServer::new(epoch0.index().clone());
        for o in 0..6u32 {
            assert_eq!(client.query(OwnerId(o)), server.query(OwnerId(o)));
        }
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `refresh` re-shards into `ServeConfig::shards` base shards on any
    /// host, so a layout persisted after a refresh still matches the
    /// config and the next boot with that config is warm.
    #[test]
    fn refresh_keeps_the_configured_shards_so_the_next_boot_is_warm() {
        let dir = std::env::temp_dir().join(format!("eppi-refreshboot-{}", std::process::id()));
        let registry = Registry::new();
        seeded_store(&dir, &registry);
        let (store, _) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        // More base shards than 4× the host's hardware threads.
        let shards = 4 * std::thread::available_parallelism().map_or(1, |p| p.get()) + 1;
        let engine =
            ServeEngine::start_with_registry(store.head().index(), config(shards), &registry);
        engine.refresh(store.head().index());
        assert_eq!(engine.current().shard_map().base_shards(), shards);
        assert_eq!(engine.shards(), shards);
        engine.persist_serve_cache(&store).unwrap();
        drop(engine);

        let warm = ServeEngine::from_store_with_registry(&store, config(shards), &registry);
        assert_eq!(boots(&registry, "warm"), 1);
        assert_eq!(boots(&registry, "cold"), 0);
        assert_eq!(warm.current().shard_map().base_shards(), shards);
        drop(warm);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The acceptance stress: ≥ 4 shards, ≥ 8 client threads, refreshes
    /// alternating between two indexes under full query load. Every
    /// result must exactly equal one version's answer — never a blend —
    /// and the engine must never deadlock.
    #[test]
    fn refresh_under_concurrent_load_is_never_torn() {
        let mut rng = StdRng::seed_from_u64(25);
        let owners = 128u32;
        let a = random_index(&mut rng, 40, owners as usize, 0.15);
        let b = random_index(&mut rng, 40, owners as usize, 0.45);
        let expect_a: Vec<Vec<ProviderId>> = (0..owners).map(|o| a.query(OwnerId(o))).collect();
        let expect_b: Vec<Vec<ProviderId>> = (0..owners).map(|o| b.query(OwnerId(o))).collect();

        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&a, config(4), &registry);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let client = engine.client();
                let expect_a = &expect_a;
                let expect_b = &expect_b;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + t);
                    for i in 0..2_000 {
                        let o = OwnerId(rng.gen_range(0..owners));
                        let got = client.query(o);
                        let ok = got == expect_a[o.index()] || got == expect_b[o.index()];
                        assert!(ok, "thread {t} iter {i}: torn/wrong result for {o}");
                        if i % 97 == 0 {
                            let batch: Vec<OwnerId> =
                                (0..16).map(|_| OwnerId(rng.gen_range(0..owners))).collect();
                            for (q, row) in batch.iter().zip(client.query_batch(&batch)) {
                                assert!(
                                    row == expect_a[q.index()] || row == expect_b[q.index()],
                                    "thread {t}: torn batch row for {q}"
                                );
                            }
                        }
                    }
                });
            }
            // Refresh continuously while the clients hammer queries.
            for round in 0..200 {
                engine.refresh(if round % 2 == 0 { &b } else { &a });
            }
        });
        assert_eq!(engine.stats().refreshes(), 200);
        assert!(engine.stats().queries() >= 8 * 2_000);
        engine.shutdown();
    }
}
