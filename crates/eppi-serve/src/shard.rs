//! Sharded, query-optimized storage for a published index.
//!
//! `QueryPPI(t_j)` reads one owner *column* of the published matrix
//! `M'`, but [`eppi_core::model::MembershipMatrix`] is provider-row
//! major: a column read strides through `m` cache lines. The serving
//! layer therefore keeps a transposed copy — one packed `u64` provider
//! bitmap per owner, so a query is a single contiguous row read — and
//! partitions owners into shards by a [`ShardMap`], so a delta install
//! rebuilds only the shards that hold a touched owner.
//!
//! Physical row storage is pluggable ([`eppi_core::rowstore`], DESIGN.md
//! §14): the plaintext serve path can hold shards as EWAH-compressed
//! bitmaps (~10× smaller at paper-like sparsity), while the PIR
//! replicas keep the dense packed layout their oblivious scans require.
//!
//! Owner growth is append-only: the [`ShardMap`] routes owners past the
//! build-time population into capacity-bounded *append shards*, so
//! [`ShardedIndex::apply_delta`] with a grown owner set adds shards
//! instead of rebuilding the ones already serving.

use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi_core::rowstore::{CompressedRows, DenseRows, RowBackend, RowBlock, RowStore};
use eppi_index::codec::{CodecError, ServeShardRecord, ServeSnapshotRecord, ShardRowsRecord};
use eppi_pir::SelectionVector;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

const BLOCK_BITS: usize = 64;

/// Owners routed into one append shard before the next one opens. Large
/// enough that append shards amortize like base shards under load,
/// small enough that rebuilding the one partially-filled tail shard on
/// further growth stays cheap.
pub const DEFAULT_APPEND_CAPACITY: u32 = 8192;

/// A delta was submitted out of snapshot order: its version is not
/// exactly one past the snapshot it would build on. Installing it would
/// silently skip (or replay) an epoch — the serving layer's equivalent
/// of the lineage-order check the durable store enforces on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochOrderError {
    /// The only acceptable next version (`current + 1`).
    pub expected: u64,
    /// The version actually submitted.
    pub actual: u64,
}

impl fmt::Display for EpochOrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delta out of snapshot order: expected version {}, got {}",
            self.expected, self.actual
        )
    }
}

impl Error for EpochOrderError {}

/// Routes an owner to its shard: Fibonacci (multiplicative) hashing of
/// the owner id, folded onto `0..shards`. Dense owner ids therefore
/// spread evenly even when query workloads are rank-correlated.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_of(owner: OwnerId, shards: usize) -> usize {
    assert!(shards >= 1, "at least one shard required");
    let h = (owner.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // Multiply-shift onto the shard range: unbiased enough for routing
    // and much cheaper than a modulo on the hot path.
    ((h >> 32).wrapping_mul(shards as u64) >> 32) as usize
}

/// The extendable owner → shard routing function.
///
/// Owners known at build time (`id < base_owners`) hash onto the
/// `base_shards` base shards via [`shard_of`]. Owners appended later
/// fill *append shards* in arrival order, `append_capacity` owners per
/// shard: owner `o ≥ base_owners` lives in shard
/// `base_shards + (o − base_owners) / append_capacity`.
///
/// Routing is a pure function of the owner id and the three frozen
/// parameters — no per-epoch state — so every replica, the codec, and a
/// from-scratch rebuild of the same population all agree on placement,
/// and growth can only ever touch the one partially-filled tail shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    base_shards: u32,
    base_owners: u32,
    append_capacity: u32,
}

impl ShardMap {
    /// A map with `base_shards` hash-routed shards over the first
    /// `base_owners` owners and the default append capacity.
    ///
    /// # Panics
    ///
    /// Panics if `base_shards == 0`.
    pub fn new(base_shards: usize, base_owners: usize) -> Self {
        Self::with_append_capacity(base_shards, base_owners, DEFAULT_APPEND_CAPACITY)
    }

    /// As [`new`](Self::new) with an explicit append-shard capacity.
    ///
    /// # Panics
    ///
    /// Panics if `base_shards == 0` or `append_capacity == 0`.
    pub fn with_append_capacity(
        base_shards: usize,
        base_owners: usize,
        append_capacity: u32,
    ) -> Self {
        assert!(base_shards >= 1, "at least one shard required");
        assert!(append_capacity >= 1, "append capacity must be positive");
        ShardMap {
            base_shards: u32::try_from(base_shards).expect("shard count fits u32"),
            base_owners: u32::try_from(base_owners).expect("owner count fits u32"),
            append_capacity,
        }
    }

    /// Which shard `owner` lives in.
    pub fn shard_of_owner(&self, owner: OwnerId) -> usize {
        if owner.0 < self.base_owners {
            shard_of(owner, self.base_shards as usize)
        } else {
            (self.base_shards + (owner.0 - self.base_owners) / self.append_capacity) as usize
        }
    }

    /// Total shard count once `owners` owners are resident.
    pub fn shard_count_for(&self, owners: usize) -> usize {
        let appended = owners.saturating_sub(self.base_owners as usize);
        self.base_shards as usize + appended.div_ceil(self.append_capacity as usize)
    }

    /// Number of hash-routed base shards.
    pub fn base_shards(&self) -> usize {
        self.base_shards as usize
    }

    /// Owner population the base shards were hashed over.
    pub fn base_owners(&self) -> usize {
        self.base_owners as usize
    }

    /// Owners per append shard.
    pub fn append_capacity(&self) -> u32 {
        self.append_capacity
    }
}

/// Where an owner's row lives: which shard, and which slot inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotRef {
    shard: u32,
    slot: u32,
}

/// One shard: the provider bitmaps of the owners routed to it, held in
/// a backend-tagged [`RowBlock`] (dense packed words or EWAH-compressed
/// — see `eppi_core::rowstore`).
///
/// The row block sits behind an [`Arc`] so [`ShardedIndex::apply_delta`]
/// can build the next snapshot copy-on-write: shards with no touched
/// owner share their rows with the previous snapshot instead of copying
/// them. `PartialEq` still compares contents (with the usual pointer
/// fast path).
#[derive(Debug, Clone, PartialEq)]
struct Shard {
    /// Slot → owner, for reassembly and introspection.
    owners: Vec<OwnerId>,
    /// Packed provider bitmaps, shared across snapshots for untouched
    /// shards.
    rows: Arc<RowBlock>,
}

/// A published index re-laid out for serving: transposed to owner-major
/// provider bitmaps and partitioned into shards by a [`ShardMap`].
///
/// Query results are bit-for-bit identical to
/// [`PpiServer::query`](eppi_index::server::PpiServer::query) on the
/// same index (providers in ascending id order), whichever storage
/// backend holds the rows — asserted by property tests across random
/// matrices, shard counts, and backends.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedIndex {
    shards: Vec<Shard>,
    map: ShardMap,
    route: Vec<SlotRef>,
    providers: usize,
    betas: Vec<f64>,
    backend: RowBackend,
    version: u64,
}

impl ShardedIndex {
    /// Builds the sharded layout from a published index (version 0,
    /// dense rows).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn from_index(index: &PublishedIndex, shards: usize) -> Self {
        Self::from_index_versioned(index, shards, 0)
    }

    /// Builds the dense sharded layout carrying an explicit snapshot
    /// version (the serve engine stamps each re-publication).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn from_index_versioned(index: &PublishedIndex, shards: usize, version: u64) -> Self {
        Self::from_index_with(index, shards, RowBackend::Dense, version)
    }

    /// Builds the sharded layout with an explicit storage backend: the
    /// current owner population becomes the [`ShardMap`]'s base.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn from_index_with(
        index: &PublishedIndex,
        shards: usize,
        backend: RowBackend,
        version: u64,
    ) -> Self {
        let map = ShardMap::new(shards, index.matrix().owners());
        Self::from_index_mapped(index, map, backend, version)
    }

    /// Builds the sharded layout under an explicit [`ShardMap`] — the
    /// fully general constructor (codec restore, tests exercising
    /// append shards from scratch). Owners beyond the map's base route
    /// into append shards exactly as successive
    /// [`apply_delta`](Self::apply_delta) growth would place them.
    pub fn from_index_mapped(
        index: &PublishedIndex,
        map: ShardMap,
        backend: RowBackend,
        version: u64,
    ) -> Self {
        let matrix = index.matrix();
        let (m, n) = (matrix.providers(), matrix.owners());
        let words_per_row = m.div_ceil(BLOCK_BITS).max(1);
        let shards = map.shard_count_for(n);

        // Route every owner, counting per-shard slot occupancy.
        let mut route = Vec::with_capacity(n);
        let mut counts = vec![0u32; shards];
        for o in 0..n as u32 {
            let shard = map.shard_of_owner(OwnerId(o)) as u32;
            route.push(SlotRef {
                shard,
                slot: counts[shard as usize],
            });
            counts[shard as usize] += 1;
        }
        let mut owners_by_shard: Vec<Vec<OwnerId>> = counts
            .iter()
            .map(|&c| vec![OwnerId(0); c as usize])
            .collect();
        let mut rows_by_shard: Vec<Vec<u64>> = counts
            .iter()
            .map(|&c| vec![0u64; c as usize * words_per_row])
            .collect();
        for (o, slot_ref) in route.iter().enumerate() {
            owners_by_shard[slot_ref.shard as usize][slot_ref.slot as usize] = OwnerId(o as u32);
        }

        // Word-level transpose: walk each provider row once and scatter
        // its set bits into the owners' shard rows — O(ones + m·n/64)
        // instead of m·n single-bit probes.
        for p in 0..m {
            let (word, mask) = (p / BLOCK_BITS, 1u64 << (p % BLOCK_BITS));
            for (block, &w) in matrix.row_words(ProviderId(p as u32)).iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let o = block * BLOCK_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if o >= n {
                        break;
                    }
                    let slot_ref = route[o];
                    rows_by_shard[slot_ref.shard as usize]
                        [slot_ref.slot as usize * words_per_row + word] |= mask;
                }
            }
        }

        ShardedIndex {
            shards: owners_by_shard
                .into_iter()
                .zip(rows_by_shard)
                .map(|(owners, rows)| Shard {
                    owners,
                    rows: Arc::new(RowBlock::build(backend, rows, m)),
                })
                .collect(),
            map,
            route,
            providers: m,
            betas: index.betas().to_vec(),
            backend,
            version,
        }
    }

    /// Builds the *next* snapshot from this one copy-on-write: only the
    /// shards holding a `touched` owner get fresh row blocks, and
    /// appended owners route into capacity-bounded append shards past
    /// the existing ones — growth never rebuilds a full shard already
    /// serving (only the partially-filled tail append shard, if any,
    /// absorbs more owners). Every other shard shares its rows with
    /// `self` via [`Arc`] — verifiable with
    /// [`shares_rows_with`](Self::shares_rows_with).
    ///
    /// `index` is the next epoch's published index. Owners may only be
    /// appended (`index.matrix().owners() >= self.owners()`); the
    /// [`ShardMap`]'s parameters are frozen at first build, so a
    /// delta-grown snapshot and
    /// [`from_index_mapped`](Self::from_index_mapped) over the same map
    /// and population lay out identically.
    ///
    /// # Errors
    ///
    /// [`EpochOrderError`] unless `version` is exactly this snapshot's
    /// version + 1 — a skipped or replayed epoch would serve a state
    /// the lineage never published.
    ///
    /// # Panics
    ///
    /// Panics if the provider count changed, the owner count shrank, or
    /// a touched owner is out of range of the new index.
    pub fn apply_delta(
        &self,
        index: &PublishedIndex,
        touched: &[OwnerId],
        version: u64,
    ) -> Result<ShardedIndex, EpochOrderError> {
        if version != self.version + 1 {
            return Err(EpochOrderError {
                expected: self.version + 1,
                actual: version,
            });
        }
        let matrix = index.matrix();
        let (m, n_new) = (matrix.providers(), matrix.owners());
        assert_eq!(m, self.providers, "provider count must not change");
        let n_old = self.route.len();
        assert!(
            n_new >= n_old,
            "owners cannot shrink ({n_old} -> {n_new}); withdrawn owners keep their slot"
        );
        let shards = self.map.shard_count_for(n_new);
        let words_per_row = m.div_ceil(BLOCK_BITS).max(1);

        // Route appended owners; the map sends them into append shards
        // at or past the current tail, never into a full shard.
        let mut route = self.route.clone();
        let mut counts: Vec<u32> = self.shards.iter().map(|s| s.owners.len() as u32).collect();
        counts.resize(shards, 0);
        let mut added: Vec<Vec<OwnerId>> = vec![Vec::new(); shards];
        for o in n_old..n_new {
            let shard = self.map.shard_of_owner(OwnerId(o as u32)) as u32;
            route.push(SlotRef {
                shard,
                slot: counts[shard as usize],
            });
            counts[shard as usize] += 1;
            added[shard as usize].push(OwnerId(o as u32));
        }
        // Touched pre-existing owners, grouped by shard.
        let mut dirty: Vec<Vec<OwnerId>> = vec![Vec::new(); shards];
        for &owner in touched {
            assert!(
                owner.index() < n_new,
                "touched owner {} out of range {n_new}",
                owner.0
            );
            if owner.index() < n_old {
                dirty[route[owner.index()].shard as usize].push(owner);
            }
        }

        let new_shards: Vec<Shard> = (0..shards)
            .map(|s| {
                let existing = self.shards.get(s);
                let clean = dirty[s].is_empty() && added[s].is_empty();
                if let (Some(shard), true) = (existing, clean) {
                    // Untouched shard: share the row block, zero copies.
                    return shard.clone();
                }
                // Rebuild: decompress the previous block (if any), grow
                // it, splice in the dirty and appended owners' columns,
                // then re-encode in this layout's backend.
                let (mut rows, mut owners) = match existing {
                    Some(shard) => (shard.rows.to_dense_words(), shard.owners.clone()),
                    None => (Vec::new(), Vec::new()),
                };
                rows.resize(counts[s] as usize * words_per_row, 0);
                owners.extend(&added[s]);
                for &owner in dirty[s].iter().chain(&added[s]) {
                    let slot = route[owner.index()].slot as usize;
                    let column = matrix.column_words(owner);
                    rows[slot * words_per_row..(slot + 1) * words_per_row]
                        .copy_from_slice(&column[..words_per_row]);
                }
                Shard {
                    owners,
                    rows: Arc::new(RowBlock::build(self.backend, rows, m)),
                }
            })
            .collect();

        Ok(ShardedIndex {
            shards: new_shards,
            map: self.map,
            route,
            providers: m,
            betas: index.betas().to_vec(),
            backend: self.backend,
            version,
        })
    }

    /// `true` if shard `s` of `self` and `other` share the same
    /// physical row block (the copy-on-write reuse check:
    /// `Arc::ptr_eq`, not content equality).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range of either index.
    pub fn shares_rows_with(&self, other: &ShardedIndex, s: usize) -> bool {
        Arc::ptr_eq(&self.shards[s].rows, &other.shards[s].rows)
    }

    /// Number of shards currently resident (base + append).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The frozen owner → shard routing parameters.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// The physical row-storage backend every shard uses.
    pub fn backend(&self) -> RowBackend {
        self.backend
    }

    /// Heap bytes resident in this snapshot's row storage (all shards'
    /// row blocks plus the routing table and slot→owner maps) — the
    /// quantity the `serve.index_bytes` gauge reports.
    pub fn resident_bytes(&self) -> usize {
        let rows: usize = self.shards.iter().map(|s| s.rows.resident_bytes()).sum();
        let owners: usize = self
            .shards
            .iter()
            .map(|s| s.owners.capacity() * std::mem::size_of::<OwnerId>())
            .sum();
        rows + owners + self.route.capacity() * std::mem::size_of::<SlotRef>()
    }

    /// Number of owners indexed.
    pub fn owners(&self) -> usize {
        self.route.len()
    }

    /// Number of providers in the network.
    pub fn providers(&self) -> usize {
        self.providers
    }

    /// The per-owner publishing probabilities (public data).
    pub fn betas(&self) -> &[f64] {
        &self.betas
    }

    /// The snapshot version stamped at construction.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Evaluates `QueryPPI(owner)`: the published candidate providers in
    /// ascending id order, bit-identical to the unsharded row lookup.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is out of range.
    pub fn query(&self, owner: OwnerId) -> Vec<ProviderId> {
        self.try_query(owner)
            .unwrap_or_else(|| panic!("owner {} out of range {}", owner.0, self.route.len()))
    }

    /// As [`query`](Self::query), but `None` for an unknown owner — the
    /// non-panicking form the serve engine uses on untrusted input.
    pub fn try_query(&self, owner: OwnerId) -> Option<Vec<ProviderId>> {
        let slot_ref = *self.route.get(owner.index())?;
        Some(
            self.shards[slot_ref.shard as usize]
                .rows
                .providers_in_slot(slot_ref.slot as usize),
        )
    }

    /// Words per packed provider row (`ceil(m / 64)`, minimum 1) — the
    /// accumulator size a PIR scan over this snapshot needs.
    pub fn words_per_row(&self) -> usize {
        self.providers.div_ceil(BLOCK_BITS).max(1)
    }

    /// Obliviously XOR-scans shard `s` for a batch of PIR selection
    /// vectors, accumulating each query's partial answer share into
    /// `accs[i]`. The kernel reads every resident row under a
    /// branchless mask (`eppi_pir::xor_scan_indexed_batch`), so the
    /// scan shape depends only on the shard's size — never on which
    /// owner the vectors select. Partial shares from all shards XOR
    /// together into the server's full answer share (XOR is
    /// associative and each owner is resident in exactly one shard).
    ///
    /// Returns the number of `u64` words scanned.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's rows are not [`RowBackend::Dense`]:
    /// decompressing on the scan path would make memory traffic depend
    /// on row content, voiding the obliviousness invariant, so a
    /// compressed snapshot fails loudly instead of scanning. (The
    /// private serve mode pins its replicas to the dense backend.)
    /// Also panics if `s` is out of range, `queries` and `accs` differ
    /// in length, or an accumulator is not
    /// [`words_per_row`](Self::words_per_row) words long.
    pub fn pir_scan_shard(
        &self,
        s: usize,
        queries: &[SelectionVector],
        accs: &mut [Vec<u64>],
    ) -> u64 {
        let shard = &self.shards[s];
        let dense = shard.rows.as_dense().expect(
            "oblivious scans require the dense row backend; \
             compressed snapshots must not serve PIR",
        );
        eppi_pir::xor_scan_indexed_batch(dense, self.words_per_row(), &shard.owners, queries, accs)
    }

    /// Batched queries, result `i` answering `owners[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any owner is out of range.
    pub fn query_batch(&self, owners: &[OwnerId]) -> Vec<Vec<ProviderId>> {
        owners.iter().map(|&o| self.query(o)).collect()
    }

    /// Reassembles the published index this layout was built from
    /// (matrix + βs). Used by codec round-trip tests to show the shard
    /// transform is lossless, and to compare delta-grown snapshots
    /// against from-scratch builds whose shard layouts differ.
    pub fn reassemble(&self) -> PublishedIndex {
        let mut matrix = MembershipMatrix::new(self.providers, self.route.len());
        let words_per_row = self.words_per_row();
        let mut row = vec![0u64; words_per_row];
        for shard in &self.shards {
            for (slot, &owner) in shard.owners.iter().enumerate() {
                shard.rows.read_row_into(slot, &mut row);
                for (block, &w) in row.iter().enumerate() {
                    let mut bits = w;
                    while bits != 0 {
                        let p = block * BLOCK_BITS + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        matrix.set(ProviderId(p as u32), owner, true);
                    }
                }
            }
        }
        PublishedIndex::new(matrix, self.betas.clone())
    }

    /// Snapshots this layout into the codec's version-3 record — the
    /// persistable form `eppi_durability::serve_cache` writes so a
    /// serve node can boot warm without re-sharding (DESIGN.md §14).
    /// Physical layout is preserved exactly: dense blocks keep their
    /// packed words, compressed blocks keep their token streams, and
    /// the [`ShardMap`] manifest rides along so restored snapshots
    /// route (and grow) identically.
    pub fn to_record(&self) -> ServeSnapshotRecord {
        let shards = self
            .shards
            .iter()
            .map(|shard| ServeShardRecord {
                owners: shard.owners.iter().map(|o| o.0).collect(),
                rows: match shard.rows.as_ref() {
                    RowBlock::Dense(d) => ShardRowsRecord::Dense(d.words().to_vec()),
                    RowBlock::Compressed(c) => ShardRowsRecord::Compressed {
                        stream: c.stream().to_vec(),
                        offsets: c.offsets().to_vec(),
                    },
                },
            })
            .collect();
        ServeSnapshotRecord {
            snapshot_version: self.version,
            backend: self.backend,
            providers: self.providers as u32,
            betas: self.betas.clone(),
            base_shards: self.map.base_shards() as u32,
            base_owners: self.map.base_owners() as u32,
            append_capacity: self.map.append_capacity(),
            shards,
        }
    }

    /// Restores a layout from a version-3 record, re-deriving the
    /// routing table and validating the record against the shard map:
    /// every owner must sit in exactly the shard and slot the map
    /// assigns it, and every row block must be well-formed for the
    /// declared backend. A record that decoded cleanly (checksum, βs)
    /// but was assembled inconsistently is rejected here.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidShard`] when a shard's owners disagree with
    /// the map's routing, a dense block is mis-sized, or a compressed
    /// stream fails structural validation; [`CodecError::InvalidField`]
    /// when the manifest itself is degenerate (zero base shards or
    /// append capacity, or a shard count disagreeing with the owner
    /// population).
    pub fn from_record(record: &ServeSnapshotRecord) -> Result<Self, CodecError> {
        if record.base_shards == 0 || record.append_capacity == 0 {
            return Err(CodecError::InvalidField {
                field: "shard map manifest",
            });
        }
        let map = ShardMap::with_append_capacity(
            record.base_shards as usize,
            record.base_owners as usize,
            record.append_capacity,
        );
        let n = record.betas.len();
        if record.shards.len() != map.shard_count_for(n) {
            return Err(CodecError::InvalidField {
                field: "shard count",
            });
        }
        let providers = record.providers as usize;
        let words_per_row = providers.div_ceil(BLOCK_BITS).max(1);

        // Re-derive the canonical route, then check each shard holds
        // exactly the owners the map sends it, in slot order.
        let mut route = Vec::with_capacity(n);
        let mut counts = vec![0u32; record.shards.len()];
        for o in 0..n as u32 {
            let shard = map.shard_of_owner(OwnerId(o)) as u32;
            route.push(SlotRef {
                shard,
                slot: counts[shard as usize],
            });
            counts[shard as usize] += 1;
        }
        let mut shards = Vec::with_capacity(record.shards.len());
        for (s, shard) in record.shards.iter().enumerate() {
            if shard.owners.len() != counts[s] as usize {
                return Err(CodecError::InvalidShard {
                    shard: s as u32,
                    reason: "owner count disagrees with the shard map",
                });
            }
            for (slot, &o) in shard.owners.iter().enumerate() {
                let ok = (o as usize) < n
                    && route[o as usize]
                        == SlotRef {
                            shard: s as u32,
                            slot: slot as u32,
                        };
                if !ok {
                    return Err(CodecError::InvalidShard {
                        shard: s as u32,
                        reason: "owner routed to a different shard or slot",
                    });
                }
            }
            let rows = match (&shard.rows, record.backend) {
                (ShardRowsRecord::Dense(words), RowBackend::Dense) => {
                    if words.len() != shard.owners.len() * words_per_row {
                        return Err(CodecError::InvalidShard {
                            shard: s as u32,
                            reason: "dense block not sized to its slots",
                        });
                    }
                    RowBlock::Dense(DenseRows::from_words(words.clone(), providers))
                }
                (ShardRowsRecord::Compressed { stream, offsets }, RowBackend::Compressed) => {
                    if offsets.len() != shard.owners.len() + 1 {
                        return Err(CodecError::InvalidShard {
                            shard: s as u32,
                            reason: "offset table not sized to its slots",
                        });
                    }
                    match CompressedRows::from_parts(stream.clone(), offsets.clone(), providers) {
                        Ok(rows) => RowBlock::Compressed(rows),
                        Err(reason) => {
                            return Err(CodecError::InvalidShard {
                                shard: s as u32,
                                reason,
                            })
                        }
                    }
                }
                _ => {
                    return Err(CodecError::InvalidShard {
                        shard: s as u32,
                        reason: "row variant disagrees with the snapshot backend",
                    })
                }
            };
            shards.push(Shard {
                owners: shard.owners.iter().map(|&o| OwnerId(o)).collect(),
                rows: Arc::new(rows),
            });
        }

        Ok(ShardedIndex {
            shards,
            map,
            route,
            providers,
            betas: record.betas.clone(),
            backend: record.backend,
            version: record.snapshot_version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::rows::providers_in_row;
    use eppi_index::server::PpiServer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_index(rng: &mut StdRng, providers: usize, owners: usize) -> PublishedIndex {
        let mut matrix = MembershipMatrix::new(providers, owners);
        for p in 0..providers as u32 {
            for o in 0..owners as u32 {
                if rng.gen_bool(0.3) {
                    matrix.set(ProviderId(p), OwnerId(o), true);
                }
            }
        }
        let betas: Vec<f64> = (0..owners).map(|_| rng.gen::<f64>()).collect();
        PublishedIndex::new(matrix, betas)
    }

    #[test]
    fn shard_routing_is_total_and_stable() {
        for shards in 1..=16 {
            for o in 0..1000u32 {
                let s = shard_of(OwnerId(o), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(OwnerId(o), shards));
            }
        }
    }

    #[test]
    fn shard_routing_spreads_dense_ids() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for o in 0..8000u32 {
            counts[shard_of(OwnerId(o), shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "shard {s} holds {c} of 8000");
        }
    }

    #[test]
    fn shard_map_appends_past_the_base() {
        let map = ShardMap::with_append_capacity(4, 100, 8);
        for o in 0..100u32 {
            assert!(map.shard_of_owner(OwnerId(o)) < 4);
        }
        assert_eq!(map.shard_of_owner(OwnerId(100)), 4);
        assert_eq!(map.shard_of_owner(OwnerId(107)), 4);
        assert_eq!(map.shard_of_owner(OwnerId(108)), 5);
        assert_eq!(map.shard_count_for(100), 4);
        assert_eq!(map.shard_count_for(101), 5);
        assert_eq!(map.shard_count_for(108), 5);
        assert_eq!(map.shard_count_for(109), 6);
    }

    #[test]
    fn query_matches_unsharded_server_across_backends() {
        let mut rng = StdRng::seed_from_u64(11);
        for backend in [RowBackend::Dense, RowBackend::Compressed] {
            for shards in [1, 2, 3, 7, 16] {
                let index = random_index(&mut rng, 70, 90);
                let server = PpiServer::new(index.clone());
                let sharded = ShardedIndex::from_index_with(&index, shards, backend, 0);
                assert_eq!(sharded.shard_count(), shards);
                assert_eq!(sharded.backend(), backend);
                for o in 0..90u32 {
                    assert_eq!(
                        sharded.query(OwnerId(o)),
                        server.query(OwnerId(o)),
                        "owner {o}, {shards} shards, {backend}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_matches_singles() {
        let mut rng = StdRng::seed_from_u64(12);
        let index = random_index(&mut rng, 40, 30);
        let sharded = ShardedIndex::from_index(&index, 4);
        let owners: Vec<OwnerId> = (0..30).map(OwnerId).collect();
        let batched = sharded.query_batch(&owners);
        for (o, row) in owners.iter().zip(&batched) {
            assert_eq!(row, &sharded.query(*o));
        }
    }

    #[test]
    fn reassemble_roundtrips() {
        let mut rng = StdRng::seed_from_u64(13);
        let index = random_index(&mut rng, 65, 129);
        for backend in [RowBackend::Dense, RowBackend::Compressed] {
            for shards in [1, 5, 16] {
                let back = ShardedIndex::from_index_with(&index, shards, backend, 0).reassemble();
                assert_eq!(&back, &index, "{shards} shards, {backend}");
            }
        }
    }

    #[test]
    fn compressed_resident_bytes_shrink_sparse_indexes() {
        // Paper-like sparsity: each owner names a handful of the 10k
        // providers, so compressed rows should sit far below dense.
        let mut rng = StdRng::seed_from_u64(14);
        let providers = 10_000;
        let owners = 256;
        let mut matrix = MembershipMatrix::new(providers, owners);
        for o in 0..owners as u32 {
            for _ in 0..12 {
                matrix.set(
                    ProviderId(rng.gen_range(0..providers as u32)),
                    OwnerId(o),
                    true,
                );
            }
        }
        let index = PublishedIndex::new(matrix, vec![0.5; owners]);
        let dense = ShardedIndex::from_index_with(&index, 4, RowBackend::Dense, 0);
        let comp = ShardedIndex::from_index_with(&index, 4, RowBackend::Compressed, 0);
        let ratio = comp.resident_bytes() as f64 / dense.resident_bytes() as f64;
        assert!(ratio < 0.5, "compressed/dense resident ratio {ratio:.3}");
        for o in 0..owners as u32 {
            assert_eq!(comp.query(OwnerId(o)), dense.query(OwnerId(o)));
        }
    }

    #[test]
    fn try_query_handles_unknown_owner() {
        let index = PublishedIndex::new(MembershipMatrix::new(3, 2), vec![0.0, 0.0]);
        let sharded = ShardedIndex::from_index(&index, 2);
        assert_eq!(sharded.try_query(OwnerId(1)), Some(vec![]));
        assert_eq!(sharded.try_query(OwnerId(2)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_out_of_range_panics() {
        let index = PublishedIndex::new(MembershipMatrix::new(1, 1), vec![0.0]);
        ShardedIndex::from_index(&index, 1).query(OwnerId(1));
    }

    #[test]
    fn version_is_stamped() {
        let index = PublishedIndex::new(MembershipMatrix::new(1, 1), vec![0.5]);
        assert_eq!(ShardedIndex::from_index(&index, 1).version(), 0);
        assert_eq!(
            ShardedIndex::from_index_versioned(&index, 1, 9).version(),
            9
        );
    }

    /// Grows an index by two owners and flips a few columns; the delta
    /// must answer exactly like a from-scratch build of the grown index
    /// under the *same* shard map (growth adds append shards, so the
    /// layout legitimately differs from a fresh build whose base covers
    /// all owners — equivalence is semantic: reassembly and queries).
    #[test]
    fn apply_delta_equals_from_scratch_build() {
        let mut rng = StdRng::seed_from_u64(21);
        let index = random_index(&mut rng, 70, 90);
        for backend in [RowBackend::Dense, RowBackend::Compressed] {
            for shards in [1, 3, 8] {
                let base = ShardedIndex::from_index_with(&index, shards, backend, 1);
                // Flip a few owners' columns, grow by two owners, change βs.
                let mut matrix = index.matrix().clone();
                matrix.grow_owners(92);
                let touched = [OwnerId(5), OwnerId(41), OwnerId(90), OwnerId(91)];
                for &o in &touched {
                    for p in 0..70u32 {
                        matrix.set(ProviderId(p), o, (p + o.0) % 3 == 0);
                    }
                }
                let mut betas = index.betas().to_vec();
                betas.extend([0.2, 0.9]);
                betas[5] = 0.7;
                let next_index = PublishedIndex::new(matrix, betas);

                let next = base.apply_delta(&next_index, &touched, 2).unwrap();
                // Same map + same population ⇒ bit-identical layout.
                let scratch =
                    ShardedIndex::from_index_mapped(&next_index, base.shard_map(), backend, 2);
                assert_eq!(next, scratch, "{shards} shards, {backend}");
                assert_eq!(next.reassemble(), next_index);
                assert_eq!(next.version(), 2);
                // The two appended owners opened one append shard.
                assert_eq!(next.shard_count(), shards + 1);
                for o in 0..92u32 {
                    assert_eq!(
                        next.try_query(OwnerId(o)),
                        scratch.try_query(OwnerId(o)),
                        "owner {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn apply_delta_shares_untouched_shard_rows() {
        let mut rng = StdRng::seed_from_u64(22);
        let index = random_index(&mut rng, 40, 200);
        let shards = 8;
        let base = ShardedIndex::from_index(&index, shards);
        // Touch exactly one owner: only its shard may reallocate.
        let touched = [OwnerId(17)];
        let hot = shard_of(touched[0], shards);
        let mut matrix = index.matrix().clone();
        matrix.set(ProviderId(0), touched[0], true);
        let next_index = PublishedIndex::new(matrix, index.betas().to_vec());
        let next = base.apply_delta(&next_index, &touched, 1).unwrap();
        for s in 0..shards {
            assert_eq!(
                next.shares_rows_with(&base, s),
                s != hot,
                "shard {s} (hot = {hot})"
            );
        }
        // The shared snapshot still answers like a from-scratch build.
        let scratch = ShardedIndex::from_index_versioned(&next_index, shards, 1);
        assert_eq!(next, scratch);
    }

    /// The carried-over re-shard item, closed: growing the owner set
    /// with no touched columns appends new shards and leaves every
    /// pre-existing shard's rows physically shared (`Arc::ptr_eq`).
    #[test]
    fn growth_appends_shards_without_touching_existing_ones() {
        let mut rng = StdRng::seed_from_u64(25);
        let index = random_index(&mut rng, 50, 60);
        for backend in [RowBackend::Dense, RowBackend::Compressed] {
            let map = ShardMap::with_append_capacity(4, 60, 8);
            let base = ShardedIndex::from_index_mapped(&index, map, backend, 0);
            assert_eq!(base.shard_count(), 4);

            // Grow by 20 owners: 8 + 8 + 4 → three new append shards.
            let mut matrix = index.matrix().clone();
            matrix.grow_owners(80);
            for o in 60..80u32 {
                for p in 0..50u32 {
                    if (p * 7 + o) % 5 == 0 {
                        matrix.set(ProviderId(p), OwnerId(o), true);
                    }
                }
            }
            let mut betas = index.betas().to_vec();
            betas.extend(std::iter::repeat_n(0.4, 20));
            let next_index = PublishedIndex::new(matrix.clone(), betas.clone());
            let next = base.apply_delta(&next_index, &[], 1).unwrap();
            assert_eq!(next.shard_count(), 7);
            for s in 0..4 {
                assert!(
                    next.shares_rows_with(&base, s),
                    "base shard {s} was rebuilt by append-only growth ({backend})"
                );
            }
            // Appended owners land in arrival order at capacity 8.
            assert_eq!(next.shards[4].owners.len(), 8);
            assert_eq!(next.shards[5].owners.len(), 8);
            assert_eq!(next.shards[6].owners.len(), 4);
            assert_eq!(next.reassemble(), next_index);

            // Growing again fills the partial tail shard (6) and opens
            // another; full append shards 4 and 5 stay shared too.
            let mut matrix2 = matrix.clone();
            matrix2.grow_owners(90);
            let mut betas2 = betas.clone();
            betas2.extend(std::iter::repeat_n(0.4, 10));
            let next2 = next
                .apply_delta(&PublishedIndex::new(matrix2, betas2), &[], 2)
                .unwrap();
            assert_eq!(next2.shard_count(), 8);
            for s in 0..6 {
                assert!(next2.shares_rows_with(&next, s), "shard {s} rebuilt");
            }
            assert!(!next2.shares_rows_with(&next, 6), "tail shard must grow");
            assert_eq!(next2.shards[6].owners.len(), 8);
            assert_eq!(next2.shards[7].owners.len(), 6);
        }
    }

    #[test]
    fn empty_delta_shares_every_shard() {
        let mut rng = StdRng::seed_from_u64(23);
        let index = random_index(&mut rng, 30, 50);
        let base = ShardedIndex::from_index(&index, 4);
        let next = base.apply_delta(&index, &[], 1).unwrap();
        for s in 0..4 {
            assert!(next.shares_rows_with(&base, s), "shard {s} copied");
        }
        assert_eq!(next.version(), 1);
    }

    #[test]
    fn out_of_order_deltas_are_rejected() {
        let mut rng = StdRng::seed_from_u64(24);
        let index = random_index(&mut rng, 30, 50);
        let base = ShardedIndex::from_index_versioned(&index, 4, 3);
        // Skipping ahead, replaying the current version, and going
        // backwards are all epoch-order violations.
        for bad in [0, 3, 5, 7] {
            let err = base.apply_delta(&index, &[], bad).unwrap_err();
            assert_eq!((err.expected, err.actual), (4, bad));
            assert!(err.to_string().contains("expected version 4"));
        }
        assert_eq!(base.apply_delta(&index, &[], 4).unwrap().version(), 4);
    }

    #[test]
    fn pir_scan_across_shards_recovers_any_row() {
        use eppi_pir::QueryPair;

        let mut rng = StdRng::seed_from_u64(31);
        let index = random_index(&mut rng, 70, 90);
        let sharded = ShardedIndex::from_index(&index, 4);
        let wpr = sharded.words_per_row();
        let rows = sharded.owners();
        for target in [0usize, 41, 89] {
            let pair = QueryPair::generate(rows, target, &mut rng);
            let mut share_a = vec![vec![0u64; wpr]];
            let mut share_b = vec![vec![0u64; wpr]];
            let mut words = 0;
            for s in 0..sharded.shard_count() {
                words += sharded.pir_scan_shard(s, std::slice::from_ref(&pair.a), &mut share_a);
                sharded.pir_scan_shard(s, std::slice::from_ref(&pair.b), &mut share_b);
            }
            // Every scan covers every resident row, whatever the target.
            assert_eq!(words, (rows * wpr) as u64);
            let row: Vec<u64> = share_a[0]
                .iter()
                .zip(&share_b[0])
                .map(|(a, b)| a ^ b)
                .collect();
            assert_eq!(
                providers_in_row(&row, sharded.providers()),
                sharded.query(OwnerId(target as u32)),
                "target {target}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "oblivious scans require the dense row backend")]
    fn pir_scan_refuses_compressed_snapshots() {
        let index = PublishedIndex::new(MembershipMatrix::new(3, 2), vec![0.0; 2]);
        let sharded = ShardedIndex::from_index_with(&index, 1, RowBackend::Compressed, 0);
        let mut accs = vec![vec![0u64; sharded.words_per_row()]];
        let pair = eppi_pir::QueryPair::generate(2, 0, &mut StdRng::seed_from_u64(1));
        sharded.pir_scan_shard(0, std::slice::from_ref(&pair.a), &mut accs);
    }

    #[test]
    #[should_panic(expected = "provider count must not change")]
    fn apply_delta_rejects_provider_growth() {
        let index = PublishedIndex::new(MembershipMatrix::new(3, 2), vec![0.0; 2]);
        let grown = PublishedIndex::new(MembershipMatrix::new(4, 2), vec![0.0; 2]);
        let _ = ShardedIndex::from_index(&index, 2).apply_delta(&grown, &[], 1);
    }

    /// The v3 record round-trip is the identity on the full struct —
    /// routing, shard map, physical layout, βs, version — for both
    /// backends, including a snapshot that has grown append shards.
    #[test]
    fn v3_record_roundtrips_grown_snapshots_in_both_backends() {
        let mut rng = StdRng::seed_from_u64(0xc0dec);
        for backend in [RowBackend::Dense, RowBackend::Compressed] {
            let base = random_index(&mut rng, 70, 60);
            let map = ShardMap::with_append_capacity(4, 60, 8);
            let sharded = ShardedIndex::from_index_mapped(&base, map, backend, 1);
            let grown_index = random_index(&mut rng, 70, 80);
            let touched: Vec<OwnerId> = (60..80).map(OwnerId).collect();
            let grown = sharded.apply_delta(&grown_index, &touched, 2).unwrap();
            assert!(grown.shard_count() > grown.shard_map().base_shards());

            for snapshot in [&sharded, &grown] {
                let record = snapshot.to_record();
                let bytes = eppi_index::codec::encode_serve_snapshot(&record);
                let decoded = eppi_index::codec::decode_serve_snapshot(&bytes).unwrap();
                let restored = ShardedIndex::from_record(&decoded).unwrap();
                assert_eq!(&restored, snapshot, "{backend}");
                assert_eq!(restored.reassemble(), snapshot.reassemble());
            }
        }
    }

    /// `from_record` rejects records whose shards disagree with the
    /// map's routing or whose blocks are structurally unsound, even
    /// when the bytes themselves decode cleanly.
    #[test]
    fn from_record_rejects_inconsistent_records() {
        let mut rng = StdRng::seed_from_u64(0xbad);
        let index = random_index(&mut rng, 40, 30);
        let sharded = ShardedIndex::from_index_with(&index, 3, RowBackend::Dense, 0);

        let mut swapped = sharded.to_record();
        let o = swapped.shards[0].owners[0];
        swapped.shards[0].owners[0] = swapped.shards[1].owners[0];
        swapped.shards[1].owners[0] = o;
        assert!(matches!(
            ShardedIndex::from_record(&swapped),
            Err(CodecError::InvalidShard { .. })
        ));

        let mut short = sharded.to_record();
        if let ShardRowsRecord::Dense(words) = &mut short.shards[2].rows {
            words.pop();
        }
        assert!(matches!(
            ShardedIndex::from_record(&short),
            Err(CodecError::InvalidShard { shard: 2, .. })
        ));

        let mut degenerate = sharded.to_record();
        degenerate.append_capacity = 0;
        assert!(matches!(
            ShardedIndex::from_record(&degenerate),
            Err(CodecError::InvalidField { .. })
        ));

        let mut miscounted = sharded.to_record();
        miscounted.shards.pop();
        assert!(matches!(
            ShardedIndex::from_record(&miscounted),
            Err(CodecError::InvalidField { .. })
        ));
    }
}
