//! The concurrent query engine: one worker thread per shard over
//! bounded channels.
//!
//! Request flow mirrors the threaded construction runtime in
//! `eppi-net::threaded` (OS threads + channels, no async runtime): a
//! [`ServeClient`] routes each `QueryPPI` to the owner's shard worker
//! through a bounded queue (back-pressure instead of unbounded memory
//! growth under overload) and blocks on a one-shot reply channel.
//! Batched requests are scattered to the involved shards and gathered
//! back in request order.
//!
//! Each worker *owns* its shard view as a plain `Arc` — the read path
//! takes no lock of any kind. A [`refresh`](ServeEngine::refresh)
//! publishes the new version to the engine's [`SnapshotCell`] and
//! enqueues an install message per worker, so in-flight queries finish
//! on the old version and later ones see the new one: readers are never
//! blocked and never observe a torn index.
//!
//! ## Telemetry
//!
//! The engine reports through [`eppi_telemetry`] (DESIGN.md §8): the
//! cumulative `serve.queries`/`serve.batches`/`serve.refreshes`
//! counters (always on — each is one relaxed atomic add, the same cost
//! as the counters they replaced), and, when
//! [`ServeConfig::telemetry`] is set, per-shard queue-depth gauges and
//! enqueue-wait / in-service / batch-size / install-lag histograms plus
//! a shutdown-drain histogram. Worker-side latency recording goes
//! through per-thread [`Recorder`]s, and each queue-depth gauge is
//! written only by its own shard worker (sampled from the channel at
//! dequeue) — the hot read path never contends on a shared cache line
//! per query. Recorders merge into the shared family on refresh, on
//! shutdown, and every [`FLUSH_EVERY`](eppi_telemetry::FLUSH_EVERY)
//! observations.

use crate::private::PrivateQueryError;
use crate::shard::{shard_of, EpochOrderError, ShardedIndex};
use crate::snapshot::SnapshotCell;
use crossbeam::channel::{bounded, Receiver, Sender};
use eppi_core::model::{OwnerId, ProviderId, PublishedIndex};
use eppi_core::rowstore::RowBackend;
use eppi_durability::serve_cache::{load_serve_snapshot, save_serve_snapshot};
use eppi_durability::{DurableStore, StoreError};
use eppi_pir::SelectionVector;
use eppi_telemetry::{Counter, Gauge, Histogram, Recorder, Registry};
use eppi_trace::{Obs, SpanCtx, SpanGuard, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default shard count: one worker per hardware thread (minimum 4 when
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

/// Default shard count for a known owner population: at least one
/// worker per hardware thread (as [`default_shards`]), but growing with
/// the population (one shard per 16,384 owners, capped at
/// 256) so million-owner indexes don't funnel
/// through paper-scale shard counts: shards bound both the per-shard
/// rebuild unit on delta installs and the granularity of PIR scan
/// parallelism. The chosen count is observable as the `serve.shards`
/// gauge on any engine started with it.
pub fn default_shards_for(owners: usize) -> usize {
    default_shards()
        .max(owners / OWNERS_PER_SHARD)
        .min(MAX_DEFAULT_SHARDS)
}

/// Ceiling on spawned worker threads: 4× the hardware parallelism
/// (minimum 4). Workers are symmetric — every worker serves any data
/// shard via the shared snapshot, and clients route over the worker
/// pool, not the shard map — so more runnable workers than hardware
/// threads buys nothing but scheduler queueing in the latency tail.
/// Data-shard counts ([`ServeConfig::shards`] and append growth) are
/// unaffected; only thread spawning is capped.
fn worker_cap() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get() * 4)
}

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of base data shards. The data-shard count can grow past
    /// this as owners append ([`ShardMap`]). Worker threads default to
    /// one per shard but are capped at 4× the hardware parallelism —
    /// workers are symmetric, so extra runnable threads only add
    /// scheduler queueing — and serve data shards round-robin
    /// (`shard % workers`).
    ///
    /// [`ShardMap`]: crate::shard::ShardMap
    pub shards: usize,
    /// Bounded depth of each shard's request queue.
    pub queue_depth: usize,
    /// Physical row storage for the snapshots this engine serves
    /// (DESIGN.md §14). [`RowBackend::Compressed`] cuts resident memory
    /// ~10× at paper-like sparsity but cannot serve oblivious PIR
    /// scans — the private serve mode pins its replicas to
    /// [`RowBackend::Dense`] regardless of this field.
    pub backend: RowBackend,
    /// Enables per-shard latency/queue instrumentation. The cumulative
    /// counters stay on either way; disabling this removes the two
    /// `Instant::now` calls and recorder writes from the read path
    /// (measured at < 5% throughput difference — DESIGN.md §8).
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: default_shards(),
            queue_depth: 1024,
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

    /// Total batch requests answered.
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// Snapshot refreshes installed (counted once per publication, not
    /// per shard; delta installs included).
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

    /// Oblivious scan passes served (one per [`ServeEngine::pir_submit`],
    /// however many query vectors it carried).
    pub fn pir_scans(&self) -> u64 {
        self.pir_scans.get()
    }

    /// PIR query vectors answered (batch members included).
    pub fn pir_queries(&self) -> u64 {
        self.pir_queries.get()
    }

    /// `u64` words XOR-scanned by PIR jobs — moves by exactly
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
    /// different snapshot versions (an install raced the scatter).
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

enum Job {
    Query {
        owner: OwnerId,
        /// Enqueue time, for the `serve.enqueue_wait_ns` histogram.
        at: Instant,
        /// Trace context of the submitting request ([`SpanCtx::NONE`]
        /// when untraced — the worker then records nothing).
        ctx: SpanCtx,
        reply: Sender<Vec<ProviderId>>,
    },
    Batch {
        /// `(position in the caller's batch, owner)` pairs for this shard.
        entries: Vec<(u32, OwnerId)>,
        at: Instant,
        ctx: SpanCtx,
        reply: Sender<Vec<(u32, Vec<ProviderId>)>>,
    },
    /// Obliviously XOR-scan one shard of a pinned snapshot for a batch
    /// of PIR selection vectors. The job carries the snapshot so every
    /// shard of one submission scans the *same* version even while an
    /// install is racing through the workers — the cross-shard XOR of
    /// partial shares is only meaningful over a single version.
    PirScan {
        snapshot: Arc<ShardedIndex>,
        shard: usize,
        queries: Arc<Vec<SelectionVector>>,
        /// Scatter-span context the per-shard scan spans hang under.
        ctx: SpanCtx,
        /// One partial answer share per query vector.
        reply: Sender<Vec<Vec<u64>>>,
    },
    Install {
        view: Arc<ShardedIndex>,
        /// Publication time, for the `serve.install_lag_ns` histogram.
        published_at: Instant,
    },
    Shutdown,
}

/// Everything one worker thread needs besides its receiver and view.
struct WorkerCtx {
    stats: ServeStats,
    telemetry: bool,
    tracer: Tracer,
    queue_depth: Arc<Gauge>,
    install_lag: Arc<Histogram>,
    enqueue_wait: Recorder,
    service: Recorder,
    batch_size: Recorder,
}

/// The sharded serving engine; owns the worker threads.
///
/// Shutdown is idempotent: [`shutdown`](Self::shutdown) may be called
/// any number of times, and dropping the engine (with or without a
/// prior explicit shutdown) performs the same ordered drain — queued
/// queries are answered, workers joined. Clients outlive the engine
/// safely and fail fast (empty answers) once it is gone.
///
/// ```
/// use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
/// use eppi_serve::{ServeConfig, ServeEngine};
///
/// let mut m = MembershipMatrix::new(4, 2);
/// m.set(ProviderId(1), OwnerId(0), true);
/// let index = PublishedIndex::new(m, vec![0.0, 0.0]);
/// let config = ServeConfig { shards: 2, queue_depth: 16, ..ServeConfig::default() };
/// let engine = ServeEngine::start(&index, config);
/// let client = engine.client();
/// assert_eq!(client.query(OwnerId(0)), vec![ProviderId(1)]);
/// assert_eq!(client.query_batch(&[OwnerId(1), OwnerId(0)]).len(), 2);
/// engine.shutdown();
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    senders: Vec<Sender<Job>>,
    /// Drained by the first shutdown (explicit or via drop).
    workers: Mutex<Vec<JoinHandle<()>>>,
    snapshot: Arc<SnapshotCell<ShardedIndex>>,
    stats: ServeStats,
    version: AtomicU64,
    /// Serializes snapshot installs ([`refresh`](Self::refresh) /
    /// [`apply_delta`](Self::apply_delta)): concurrent installers could
    /// otherwise pair a freshly drawn version with a stale snapshot and
    /// publish out of epoch order. The read path never takes it.
    install: Mutex<()>,
    backend: RowBackend,
    telemetry: bool,
    tracer: Tracer,
    shutdown_drain: Arc<Histogram>,
    /// Resident bytes of the serving snapshot's row storage, labeled by
    /// backend — re-set on every publish so the ~10× compressed-memory
    /// claim is a readable gauge, not an inference.
    index_bytes: Arc<Gauge>,
    /// Data shards in the serving snapshot (base + append); the fixed
    /// worker count is the `serve.shards` gauge.
    data_shards: Arc<Gauge>,
}

impl ServeEngine {
    /// Shards `index` and spawns one worker thread per shard (capped
    /// at 4× the hardware parallelism), reporting into the
    /// process-global telemetry registry.
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
    /// their own root spans (`obs.parent` is not used), and shard
    /// workers hang per-job child spans under whatever [`SpanCtx`]
    /// arrives in the job — so traced requests produce complete
    /// cross-thread span trees while untraced ones (a
    /// [`Tracer::disabled`] handle, or jobs carrying
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
        let initial = Arc::new(ShardedIndex::from_index_with(
            index,
            config.shards,
            config.backend,
            0,
        ));
        Self::boot(initial, config, obs.into())
    }

    /// Common boot tail: wraps an already-built serving layout in the
    /// snapshot cell, registers telemetry, and spawns the shard worker
    /// pool. The engine's version counter starts at the layout's own
    /// snapshot version (0 for cold boots, the cached version for warm
    /// ones).
    fn boot(initial: Arc<ShardedIndex>, config: ServeConfig, obs: Obs<'_>) -> Self {
        let registry = obs.registry;
        let tracer = obs.tracer.clone();
        let snapshot = Arc::new(SnapshotCell::new(Arc::clone(&initial)));
        let stats = ServeStats::register(registry);
        let backend_labels: &[(&str, &str)] = &[("backend", config.backend.name())];
        let index_bytes = registry.gauge("serve.index_bytes", backend_labels);
        index_bytes.set(initial.resident_bytes() as i64);
        let data_shards = registry.gauge("serve.data_shards", &[]);
        data_shards.set(initial.shard_count() as i64);
        let worker_count = config.shards.min(worker_cap());
        registry.gauge("serve.shards", &[]).set(worker_count as i64);
        let mut senders = Vec::with_capacity(worker_count);
        let mut workers = Vec::with_capacity(worker_count);
        for shard in 0..worker_count {
            let label = shard.to_string();
            let labels: &[(&str, &str)] = &[("shard", &label)];
            let ctx = WorkerCtx {
                stats: stats.clone(),
                telemetry: config.telemetry,
                tracer: tracer.clone(),
                queue_depth: registry.gauge("serve.queue_depth", labels),
                install_lag: registry.histogram("serve.install_lag_ns", labels),
                enqueue_wait: registry.recorder("serve.enqueue_wait_ns", labels),
                service: registry.recorder("serve.service_ns", labels),
                batch_size: registry.recorder("serve.batch_size", labels),
            };
            let (tx, rx) = bounded(config.queue_depth.max(1));
            senders.push(tx);
            let view = Arc::clone(&initial);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("eppi-serve-{shard}"))
                    .spawn(move || worker_loop(rx, view, ctx))
                    .expect("spawn shard worker"),
            );
        }
        ServeEngine {
            senders,
            workers: Mutex::new(workers),
            snapshot,
            stats,
            version: AtomicU64::new(initial.version()),
            install: Mutex::new(()),
            backend: config.backend,
            telemetry: config.telemetry,
            tracer,
            shutdown_drain: registry.histogram("serve.shutdown_drain_ns", &[]),
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
                    return Self::boot(Arc::new(restored), config, obs);
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
            senders: self.senders.clone(),
            telemetry: self.telemetry,
            epoch: Instant::now(),
            tracer: self.tracer.clone(),
        }
    }

    /// The engine's tracer ([`Tracer::disabled`] unless the engine was
    /// started with a live one in its [`Obs`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Number of worker threads (base shards at start, capped at 4×
    /// the hardware parallelism).
    pub fn shards(&self) -> usize {
        self.senders.len()
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
    /// it, publishes the snapshot, and hands every worker the new view.
    /// Readers keep executing throughout; queries already queued finish
    /// against whichever version their worker holds at dequeue time.
    pub fn refresh(&self, index: &PublishedIndex) {
        let _guard = self.install.lock().expect("install lock poisoned");
        let version = self.version.load(Ordering::SeqCst) + 1;
        let sharded = Arc::new(ShardedIndex::from_index_with(
            index,
            self.senders.len(),
            self.backend,
            version,
        ));
        self.publish(sharded, version);
        self.stats.refreshes.inc();
    }

    /// Publishes an already-built snapshot: snapshot cell first, then
    /// one install message per worker. Callers hold the install lock.
    fn publish(&self, sharded: Arc<ShardedIndex>, version: u64) {
        self.index_bytes.set(sharded.resident_bytes() as i64);
        self.data_shards.set(sharded.shard_count() as i64);
        self.snapshot.store(Arc::clone(&sharded));
        self.version.store(version, Ordering::SeqCst);
        let published_at = Instant::now();
        for tx in &self.senders {
            // A worker gone mid-shutdown just misses the update.
            let _ = tx.send(Job::Install {
                view: Arc::clone(&sharded),
                published_at,
            });
        }
    }

    /// Installs the next epoch incrementally: builds the new snapshot
    /// copy-on-write from the current one
    /// ([`ShardedIndex::apply_delta`] — shards without a touched owner
    /// share their row words with the previous snapshot), then installs
    /// it exactly like [`refresh`](Self::refresh): through the
    /// [`SnapshotCell`] plus one install message per worker, with
    /// readers never blocked and in-flight queries finishing on the
    /// version their worker holds at dequeue time. Installs are
    /// serialized on the engine's install lock, so the delta always
    /// builds on the snapshot it is stamped against. Returns the
    /// installed version.
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
        let sharded = Arc::new(self.current().apply_delta(index, touched, version)?);
        self.publish(sharded, version);
        self.stats.refreshes.inc();
        self.stats.deltas.inc();
        Ok(version)
    }

    /// Submits a batch of PIR selection vectors for an oblivious scan
    /// and returns a handle to gather the answer shares.
    ///
    /// The scan is pinned to one snapshot: `pir_submit` loads the
    /// current [`SnapshotCell`] value once and ships that `Arc` inside
    /// every per-shard job, so all shards scan the *same* version even
    /// while a [`refresh`](Self::refresh) or
    /// [`apply_delta`](Self::apply_delta) races through the worker
    /// queues. Every shard is always scanned — the set of jobs, their
    /// sizes, and the scan work per job depend only on the snapshot
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
    /// tracer live) the submission opens a `pir.scatter` span (closed
    /// when [`PendingPir::gather`] returns, so it covers the whole
    /// replica round trip) whose children are the per-shard `pir.scan`
    /// worker spans. The scatter span's payload is the answer-share
    /// byte count — like every payload on the private path, a function
    /// of the snapshot shape only, never of what the vectors select.
    pub fn pir_submit(&self, queries: Arc<Vec<SelectionVector>>, parent: SpanCtx) -> PendingPir {
        let span = self.tracer.child(parent, "pir.scatter");
        let scan_ctx = span.ctx();
        let snapshot = self.current();
        self.stats.pir_scans.inc();
        self.stats.pir_queries.add(queries.len() as u64);
        // One job per *data* shard of the pinned snapshot — append
        // shards from owner growth included — routed round-robin onto
        // the fixed worker pool. The job set is a function of the
        // snapshot shape alone, so the scatter stays query-independent.
        let data_shards = snapshot.shard_count();
        let workers = self.senders.len();
        let mut replies = Vec::with_capacity(data_shards);
        for shard in 0..data_shards {
            let (reply, rx) = bounded(1);
            let job = Job::PirScan {
                snapshot: Arc::clone(&snapshot),
                shard,
                queries: Arc::clone(&queries),
                ctx: scan_ctx,
                reply,
            };
            if self.senders[shard % workers].send(job).is_ok() {
                replies.push(rx);
            }
        }
        PendingPir {
            snapshot,
            expected: data_shards,
            queries: queries.len(),
            replies,
            stats: self.stats.clone(),
            tracer: self.tracer.clone(),
            span: Some(span),
        }
    }

    /// Stops all workers and joins them. Queued queries are answered
    /// first; clients created from this engine fail fast afterwards.
    /// Idempotent: later calls (and the eventual drop) are no-ops.
    pub fn shutdown(&self) {
        let mut workers = self.workers.lock().expect("worker list poisoned");
        if workers.is_empty() {
            return;
        }
        let drain_started = Instant::now();
        for tx in &self.senders {
            let _ = tx.send(Job::Shutdown);
        }
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
        if self.telemetry {
            self.shutdown_drain
                .record(drain_started.elapsed().as_nanos() as u64);
        }
    }
}

impl Drop for ServeEngine {
    /// Drops perform the same ordered drain as [`shutdown`](Self::shutdown)
    /// (and are a no-op after an explicit shutdown).
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: Receiver<Job>, mut view: Arc<ShardedIndex>, mut ctx: WorkerCtx) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Query {
                owner,
                at,
                ctx: span_ctx,
                reply,
            } => {
                let started = if ctx.telemetry {
                    // This worker is the gauge's only writer: the store
                    // stays in its own cache line, uncontended.
                    ctx.queue_depth.set(rx.len() as i64);
                    let now = Instant::now();
                    ctx.enqueue_wait
                        .record(now.saturating_duration_since(at).as_nanos() as u64);
                    Some(now)
                } else {
                    None
                };
                ctx.stats.queries.inc();
                let result = {
                    let mut span = ctx.tracer.child(span_ctx, "serve.shard_query");
                    let result = view.try_query(owner).unwrap_or_default();
                    span.set_payload(result.len() as u64);
                    result
                };
                if let Some(started) = started {
                    ctx.service.record(started.elapsed().as_nanos() as u64);
                }
                let _ = reply.send(result);
            }
            Job::Batch {
                mut entries,
                at,
                ctx: span_ctx,
                reply,
            } => {
                let started = if ctx.telemetry {
                    ctx.queue_depth.set(rx.len() as i64);
                    let now = Instant::now();
                    ctx.enqueue_wait
                        .record(now.saturating_duration_since(at).as_nanos() as u64);
                    ctx.batch_size.record(entries.len() as u64);
                    Some(now)
                } else {
                    None
                };
                ctx.stats.queries.add(entries.len() as u64);
                ctx.stats.batches.inc();
                let mut span = ctx.tracer.child(span_ctx, "serve.shard_batch");
                span.set_payload(entries.len() as u64);
                // Coalesce duplicate owners: sort by owner so repeats are
                // adjacent, resolve each unique row once, and answer the
                // repeats from the previous result. The reply carries
                // batch positions, so the reordering is invisible to the
                // gathering client.
                entries.sort_unstable_by_key(|&(_, owner)| owner.index());
                let mut results: Vec<(u32, Vec<ProviderId>)> = Vec::with_capacity(entries.len());
                let mut last_owner: Option<OwnerId> = None;
                let mut dupes = 0u64;
                for (pos, owner) in entries {
                    if last_owner == Some(owner) {
                        dupes += 1;
                        let prev = results.last().map(|(_, r)| r.clone()).unwrap_or_default();
                        results.push((pos, prev));
                    } else {
                        last_owner = Some(owner);
                        results.push((pos, view.try_query(owner).unwrap_or_default()));
                    }
                }
                if dupes > 0 {
                    ctx.stats.batch_dupes.add(dupes);
                }
                // End the span before replying so the gathering client
                // observes a complete trace.
                drop(span);
                if let Some(started) = started {
                    ctx.service.record(started.elapsed().as_nanos() as u64);
                }
                let _ = reply.send(results);
            }
            Job::PirScan {
                snapshot,
                shard,
                queries,
                ctx: span_ctx,
                reply,
            } => {
                let wpr = snapshot.words_per_row();
                let mut accs = vec![vec![0u64; wpr]; queries.len()];
                let words = {
                    // The scan span's payload is the words scanned —
                    // `rows × words_per_row` for this shard whatever
                    // the vectors select, so a traced private query
                    // leaks nothing the scan-volume counters don't.
                    let mut span = ctx.tracer.child(span_ctx, "pir.scan");
                    let words = snapshot.pir_scan_shard(shard, &queries, &mut accs);
                    span.set_payload(words);
                    words
                };
                ctx.stats.pir_scanned_words.add(words);
                let _ = reply.send(accs);
            }
            Job::Install {
                view: v,
                published_at,
            } => {
                view = v;
                if ctx.telemetry {
                    ctx.install_lag
                        .record(published_at.elapsed().as_nanos() as u64);
                    // Make the just-served traffic visible to snapshots
                    // taken after the refresh.
                    ctx.enqueue_wait.flush();
                    ctx.service.flush();
                    ctx.batch_size.flush();
                }
            }
            Job::Shutdown => {
                if ctx.telemetry {
                    // The queue is drained; leave the truthful level.
                    ctx.queue_depth.set(0);
                }
                break;
            }
        }
    }
    // Recorder drops flush the tail observations.
}

/// An in-flight PIR scan: one receiver per shard worker, gathered into
/// the server's full answer shares by [`gather`](Self::gather).
#[derive(Debug)]
pub struct PendingPir {
    snapshot: Arc<ShardedIndex>,
    /// Shards the scan was supposed to reach.
    expected: usize,
    /// Query vectors in the submission.
    queries: usize,
    replies: Vec<Receiver<Vec<Vec<u64>>>>,
    stats: ServeStats,
    tracer: Tracer,
    /// The `pir.scatter` span, closed when the gather completes.
    span: Option<SpanGuard>,
}

impl PendingPir {
    /// Blocks for every shard's partial shares and XORs them into the
    /// server's answer (one share per submitted vector). `None` if any
    /// shard worker was gone or died mid-scan (engine shut down) — the
    /// PIR analogue of the plaintext client's fail-fast empty answer.
    pub fn gather(self) -> Option<PirServerAnswer> {
        let PendingPir {
            snapshot,
            expected,
            queries,
            replies,
            stats,
            tracer,
            mut span,
        } = self;
        if replies.len() != expected {
            return None;
        }
        let scatter_ctx = span.as_ref().map_or(SpanCtx::NONE, SpanGuard::ctx);
        let gather_span = tracer.child(scatter_ctx, "pir.gather");
        let wpr = snapshot.words_per_row();
        let mut shares = vec![vec![0u64; wpr]; queries];
        for rx in replies {
            let partials = rx.recv().ok()?;
            for (share, partial) in shares.iter_mut().zip(partials) {
                for (s, p) in share.iter_mut().zip(partial) {
                    *s ^= p;
                }
            }
        }
        drop(gather_span);
        let answer_bytes = (queries * wpr * 8) as u64;
        stats.pir_answer_bytes.add(answer_bytes);
        if let Some(span) = &mut span {
            span.set_payload(answer_bytes);
        }
        Some(PirServerAnswer {
            version: snapshot.version(),
            rows: snapshot.owners(),
            providers: snapshot.providers(),
            shares,
        })
    }
}

/// One server's complete answer to a PIR submission: its XOR share of
/// each requested row, stamped with the snapshot version it was scanned
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

/// A handle for submitting queries; cheap to clone and share.
#[derive(Debug, Clone)]
pub struct ServeClient {
    senders: Vec<Sender<Job>>,
    telemetry: bool,
    /// Placeholder enqueue stamp when telemetry is off (skips the
    /// clock read on the submit path).
    epoch: Instant,
    /// Roots a span per request when the engine was started traced.
    tracer: Tracer,
}

impl ServeClient {
    /// The enqueue stamp for a job submitted now.
    fn stamp(&self) -> Instant {
        if self.telemetry {
            Instant::now()
        } else {
            self.epoch
        }
    }

    /// Evaluates `QueryPPI(owner)` on the owner's shard. Unknown owners
    /// (beyond the current index) and a shut-down engine both answer
    /// with the empty candidate list, matching an empty `PpiServer`.
    pub fn query(&self, owner: OwnerId) -> Vec<ProviderId> {
        let mut span = self.tracer.root("serve.query");
        let (reply, rx) = bounded(1);
        let shard = shard_of(owner, self.senders.len());
        let job = Job::Query {
            owner,
            at: self.stamp(),
            ctx: span.ctx(),
            reply,
        };
        if self.senders[shard].send(job).is_err() {
            return Vec::new();
        }
        let result = rx.recv().unwrap_or_default();
        span.set_payload(result.len() as u64);
        result
    }

    /// Evaluates a batch of queries: scatters the owners to their
    /// shards, gathers the per-shard answers, and returns results in
    /// request order (`result[i]` answers `owners[i]`).
    pub fn query_batch(&self, owners: &[OwnerId]) -> Vec<Vec<ProviderId>> {
        let mut span = self.tracer.root("serve.query_batch");
        span.set_payload(owners.len() as u64);
        let shards = self.senders.len();
        let mut per_shard: Vec<Vec<(u32, OwnerId)>> = vec![Vec::new(); shards];
        for (pos, &owner) in owners.iter().enumerate() {
            per_shard[shard_of(owner, shards)].push((pos as u32, owner));
        }
        let mut results: Vec<Vec<ProviderId>> = vec![Vec::new(); owners.len()];
        let mut replies = Vec::new();
        for (shard, entries) in per_shard.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let (reply, rx) = bounded(1);
            let job = Job::Batch {
                entries,
                at: self.stamp(),
                ctx: span.ctx(),
                reply,
            };
            if self.senders[shard].send(job).is_ok() {
                replies.push(rx);
            }
        }
        for rx in replies {
            if let Ok(part) = rx.recv() {
                for (pos, row) in part {
                    results[pos as usize] = row;
                }
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn config(shards: usize, queue_depth: usize) -> ServeConfig {
        ServeConfig {
            shards,
            queue_depth,
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
        let engine = ServeEngine::start_with_registry(&index, config(4, 64), &registry);
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
        assert!(engine.stats().queries() >= 400);
        assert_eq!(engine.stats().batches(), 4);
        engine.shutdown();
    }

    #[test]
    fn unknown_owner_answers_empty() {
        let index = random_index(&mut StdRng::seed_from_u64(22), 8, 4, 0.5);
        let engine = ServeEngine::start_with_registry(&index, config(2, 8), &Registry::new());
        assert!(engine.client().query(OwnerId(4000)).is_empty());
    }

    #[test]
    fn refresh_installs_new_version_for_later_queries() {
        let mut rng = StdRng::seed_from_u64(23);
        let before = random_index(&mut rng, 30, 60, 0.1);
        let after = random_index(&mut rng, 30, 60, 0.6);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&before, config(3, 16), &registry);
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
        let engine = ServeEngine::start_with_registry(&index, config(2, 4), &Registry::new());
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
        let index = random_index(&mut StdRng::seed_from_u64(26), 10, 20, 0.3);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(2, 8), &registry);
        let client = engine.client();
        assert!(!client.query(OwnerId(1)).is_empty() || client.query(OwnerId(1)).is_empty());
        engine.shutdown();
        engine.shutdown();
        engine.shutdown();
        // Queries keep failing fast, drop after shutdown is a no-op.
        assert!(client.query(OwnerId(0)).is_empty());
        drop(engine);
        // The drain was recorded exactly once, by the first shutdown.
        // `expect` turns an absent metric into a typed, printable miss
        // instead of an opaque `unwrap` panic.
        let snap = registry.snapshot();
        let drain = snap
            .expect("serve.shutdown_drain_ns", &[])
            .unwrap_or_else(|miss| panic!("{miss}"));
        match &drain.value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("unexpected metric {other:?}"),
        }
    }

    #[test]
    fn batch_duplicates_coalesce_to_one_row_read() {
        let mut rng = StdRng::seed_from_u64(30);
        let index = random_index(&mut rng, 40, 60, 0.3);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(3, 16), &registry);
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
    fn pir_submit_answers_match_plaintext_and_scan_everything() {
        let mut rng = StdRng::seed_from_u64(32);
        let index = random_index(&mut rng, 70, 90, 0.25);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(3, 16), &registry);
        let snapshot = engine.current();
        let (rows, wpr) = (snapshot.owners(), snapshot.words_per_row());

        let targets = [0usize, 41, 89];
        let pairs: Vec<eppi_pir::QueryPair> = targets
            .iter()
            .map(|&t| eppi_pir::QueryPair::generate(rows, t, &mut rng))
            .collect();
        let a: Arc<Vec<SelectionVector>> = Arc::new(pairs.iter().map(|p| p.a.clone()).collect());
        let b: Arc<Vec<SelectionVector>> = Arc::new(pairs.iter().map(|p| p.b.clone()).collect());
        let answer_a = engine.pir_submit(a, SpanCtx::NONE).gather().unwrap();
        let answer_b = engine.pir_submit(b, SpanCtx::NONE).gather().unwrap();
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
        // Two submissions, each one full pass over the packed rows —
        // the batch kernel reads each data word once per pass no matter
        // how many vectors ride along (the amortization the private
        // batch path banks on).
        assert_eq!(engine.stats().pir_scans(), 2);
        assert_eq!(engine.stats().pir_queries(), 6);
        assert_eq!(engine.stats().pir_scanned_words(), (2 * rows * wpr) as u64);
        assert_eq!(engine.stats().pir_answer_bytes(), (6 * wpr * 8) as u64);
        engine.shutdown();
        // After shutdown the scatter fails fast: gather reports the miss.
        let dead = engine.pir_submit(Arc::new(vec![SelectionVector::zero(rows)]), SpanCtx::NONE);
        assert!(dead.gather().is_none());
    }

    #[test]
    fn telemetry_covers_the_serve_path() {
        let mut rng = StdRng::seed_from_u64(27);
        let index = random_index(&mut rng, 30, 64, 0.2);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(2, 32), &registry);
        let client = engine.client();
        for o in 0..64u32 {
            client.query(OwnerId(o));
        }
        let owners: Vec<OwnerId> = (0..64).map(OwnerId).collect();
        client.query_batch(&owners);
        engine.refresh(&index);
        // One more query after the refresh so both shards saw traffic.
        client.query(OwnerId(0));
        engine.shutdown();

        let snap = registry.snapshot();
        let service: u64 = snap
            .family("serve.service_ns")
            .iter()
            .map(|m| match &m.value {
                MetricValue::Histogram(h) => h.count,
                other => panic!("unexpected metric {other:?}"),
            })
            .sum();
        // 65 singles + one batch job per shard involved.
        assert!(service >= 66, "service histogram undercounts: {service}");
        let waits: u64 = snap
            .family("serve.enqueue_wait_ns")
            .iter()
            .map(|m| match &m.value {
                MetricValue::Histogram(h) => h.count,
                other => panic!("unexpected metric {other:?}"),
            })
            .sum();
        assert_eq!(waits, service, "every served job has an enqueue wait");
        let batch_sizes = snap.family("serve.batch_size");
        let recorded: u64 = batch_sizes
            .iter()
            .map(|m| match &m.value {
                MetricValue::Histogram(h) => h.sum,
                other => panic!("unexpected metric {other:?}"),
            })
            .sum();
        assert_eq!(recorded, 64, "batch members recorded once each");
        let lags = snap.family("serve.install_lag_ns");
        let installs: u64 = lags
            .iter()
            .map(|m| match &m.value {
                MetricValue::Histogram(h) => h.count,
                other => panic!("unexpected metric {other:?}"),
            })
            .sum();
        assert_eq!(installs, 2, "one install per shard per refresh");
        // All queues drained back to zero (depth is sampled by the
        // worker at dequeue, so the peak may legitimately stay 0 when
        // clients always block on replies).
        for m in snap.family("serve.queue_depth") {
            match &m.value {
                MetricValue::Gauge { value, peak } => {
                    assert_eq!(*value, 0, "queue depth leaked on {}", m.id());
                    assert!(*peak >= 0);
                }
                other => panic!("unexpected metric {other:?}"),
            }
        }
    }

    #[test]
    fn telemetry_off_keeps_counters_only() {
        let index = random_index(&mut StdRng::seed_from_u64(28), 10, 16, 0.4);
        let registry = Registry::new();
        let cfg = ServeConfig {
            shards: 2,
            queue_depth: 8,
            backend: RowBackend::Dense,
            telemetry: false,
        };
        let engine = ServeEngine::start_with_registry(&index, cfg, &registry);
        let client = engine.client();
        for o in 0..16u32 {
            client.query(OwnerId(o));
        }
        engine.shutdown();
        assert_eq!(engine.stats().queries(), 16);
        let snap = registry.snapshot();
        for m in snap.family("serve.service_ns") {
            match &m.value {
                MetricValue::Histogram(h) => assert_eq!(h.count, 0, "{} recorded", m.id()),
                other => panic!("unexpected metric {other:?}"),
            }
        }
        for m in snap.family("serve.queue_depth") {
            match &m.value {
                MetricValue::Gauge { value, peak } => {
                    assert_eq!((*value, *peak), (0, 0), "{} moved", m.id())
                }
                other => panic!("unexpected metric {other:?}"),
            }
        }
    }

    #[test]
    fn apply_delta_installs_next_epoch_and_shares_untouched_shards() {
        let mut rng = StdRng::seed_from_u64(29);
        let index = random_index(&mut rng, 30, 120, 0.2);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(4, 16), &registry);
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
            ..config(3, 16)
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
    /// the engine has workers; the PIR scatter must still cover every
    /// shard (round-robin onto the fixed pool), and the scan volume
    /// stays exactly `owners × words_per_row` per pass.
    #[test]
    fn pir_covers_append_shards_beyond_the_worker_pool() {
        let mut rng = StdRng::seed_from_u64(34);
        let index = random_index(&mut rng, 70, 90, 0.25);
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, config(2, 16), &registry);

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
        let a = engine
            .pir_submit(Arc::new(vec![pair.a]), SpanCtx::NONE)
            .gather()
            .unwrap();
        let b = engine
            .pir_submit(Arc::new(vec![pair.b]), SpanCtx::NONE)
            .gather()
            .unwrap();
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
        let engine = ServeEngine::from_store_with_registry(&store, config(2, 8), &registry);
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
        let cold = ServeEngine::from_store_with_registry(&store, config(2, 8), &registry);
        assert_eq!((boots(&registry, "cold"), boots(&registry, "warm")), (1, 0));
        assert_eq!(cold.version(), 0);
        cold.persist_serve_cache(&store).unwrap();
        cold.shutdown();

        // Second boot restores the cached layout: no re-shard (the
        // warm counter moves, cold does not), and the engine resumes
        // at the head's lineage position instead of version 0.
        let warm = ServeEngine::from_store_with_registry(&store, config(2, 8), &registry);
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
        let first = ServeEngine::from_store_with_registry(&store, config(2, 8), &registry);
        first.persist_serve_cache(&store).unwrap();
        first.shutdown();

        // A cache stamped for a different lineage position is stale:
        // the boot must re-shard, never serve it.
        let mut record = load_raw(store.dir()).unwrap().unwrap();
        record.snapshot_version += 7;
        save_raw(store.dir(), &record).unwrap();
        let engine = ServeEngine::from_store_with_registry(&store, config(2, 8), &registry);
        assert_eq!(boots(&registry, "cold"), 2);
        assert_eq!(boots(&registry, "warm"), 0);
        assert_eq!(engine.version(), 0);
        engine.shutdown();

        // So is one built for a different shard count, even at the
        // right version.
        record.snapshot_version -= 7;
        save_raw(store.dir(), &record).unwrap();
        let engine = ServeEngine::from_store_with_registry(&store, config(3, 8), &registry);
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
        let engine = ServeEngine::start_with_registry(&a, config(4, 32), &registry);
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
