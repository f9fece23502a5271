//! One round of a workload's lifecycle script, through the public API
//! only:
//!
//! `construct_epoch` → `certify_epoch` + `verify_epoch` →
//! `DurableStore::create_audited` → `ServeEngine::from_store` /
//! `PrivateEngine::start` → plaintext + private queries →
//! `advance_audited` + `apply_delta` → `advance` + `apply_delta` (with
//! one `checkpoint` after delta `D − W`) → drop (crash) →
//! `DurableStore::open` + `from_store` → queries.
//!
//! Every phase runs once per round in this order, so drift hits all
//! metrics alike, and every phase yields one sample of its metric per
//! round: an operation shorter than 15 ms is timed as a burst and
//! divided, a throughput is owners answered over its whole slice.
//! Every answer is checked and counted in the tally.

use crate::inputs::{recall_holds, serve_config, Setup};
use crate::spec::{Workload, BATCH, QUERIES_PER_INSTALL};
use crate::stats::{Samples, Tally};
use eppi_core::model::{OwnerId, ProviderId};
use eppi_core::rowstore::RowBackend;
use eppi_durability::{encode_epoch, DurableStore};
use eppi_protocol::{certify_epoch, construct_epoch, verify_epoch, AuditedEpoch};
use eppi_serve::{PrivateClient, PrivateEngine, ServeClient, ServeEngine};
use eppi_trace::{SpanCtx, Tracer};
use std::path::Path;
use std::time::{Duration, Instant};

/// Serialized bytes of one `ColumnCommitment` (provider, owner count,
/// two 256-bit digests) — what a certificate adds to its proof.
const COMMITMENT_BYTES: usize = 4 + 4 + 32 + 32;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Cursor over a pre-generated owner stream.
#[derive(Debug)]
pub struct Stream<'a> {
    owners: &'a [OwnerId],
    at: usize,
}

impl<'a> Stream<'a> {
    /// Starts at the head of `owners`.
    pub fn new(owners: &'a [OwnerId]) -> Self {
        Stream { owners, at: 0 }
    }

    /// The next owner (cycling).
    pub fn next_owner(&mut self) -> OwnerId {
        let owner = self.owners[self.at % self.owners.len()];
        self.at += 1;
        owner
    }

    /// The next [`BATCH`] owners (cycling by whole batches).
    pub fn next_batch(&mut self) -> &'a [OwnerId] {
        let batches = self.owners.len() / BATCH;
        let start = (self.at % batches) * BATCH;
        self.at += 1;
        &self.owners[start..start + BATCH]
    }
}

/// A closed-loop query slice: one client thread issues `op` for
/// `slice` (the clock is read every `calls_per_clock_read` calls), each
/// call answering `per_call` owners. Owners answered per second over
/// the whole slice is the round's sample of `metric`. `op` returns how
/// many of its answers were wrong.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    slice: Duration,
    calls_per_clock_read: u64,
    per_call: usize,
    metric: &'static str,
    what: &str,
    tally: &mut Tally,
    out: &mut Samples,
    mut op: impl FnMut() -> u64,
) {
    let started = Instant::now();
    let (mut calls, mut wrong) = (0u64, 0u64);
    let wall = loop {
        for _ in 0..calls_per_clock_read {
            wrong += op();
        }
        calls += calls_per_clock_read;
        let wall = started.elapsed();
        if wall >= slice {
            break wall;
        }
    };
    let owners = calls * per_call as u64;
    out.push(metric, owners as f64 / wall.as_secs_f64());
    tally.add(owners, wrong, what);
}

/// One checked plaintext query.
fn ask(client: &ServeClient, owner: OwnerId, oracle: &[Vec<ProviderId>]) -> u64 {
    u64::from(client.query(owner) != oracle[owner.index()])
}

/// Wrong answers of one checked batch.
fn wrong_in_batch(
    answers: &[Vec<ProviderId>],
    owners: &[OwnerId],
    oracle: &[Vec<ProviderId>],
) -> u64 {
    if answers.len() != owners.len() {
        return owners.len() as u64;
    }
    answers
        .iter()
        .zip(owners)
        .filter(|(a, o)| **a != oracle[o.index()])
        .count() as u64
}

/// The four (three on `churn`, which interleaves single queries with
/// its installs) closed-loop query slices.
#[allow(clippy::too_many_arguments)]
fn query_slices(
    w: &Workload,
    client: &ServeClient,
    private: &mut PrivateClient,
    owners: &[OwnerId],
    oracle: &[Vec<ProviderId>],
    tracer: &Tracer,
    parent: SpanCtx,
    tally: &mut Tally,
    out: &mut Samples,
) {
    if !w.interleave {
        let _s = tracer.child(parent, "query.single");
        let mut stream = Stream::new(owners);
        closed_loop(
            w.slice,
            32,
            1,
            "query_qps",
            "plaintext answer == oracle",
            tally,
            out,
            || ask(client, stream.next_owner(), oracle),
        );
    }
    {
        let _s = tracer.child(parent, "query.batch");
        let mut stream = Stream::new(owners);
        closed_loop(
            w.slice,
            1,
            BATCH,
            "batch_qps",
            "batch answer == oracle",
            tally,
            out,
            || {
                let batch = stream.next_batch();
                wrong_in_batch(&client.query_batch(batch), batch, oracle)
            },
        );
    }
    // An empty private answer for a held owner is a mismatch with the
    // (non-empty) oracle answer, so it counts as a failure here.
    {
        let _s = tracer.child(parent, "query.private");
        let mut stream = Stream::new(owners);
        closed_loop(
            w.slice,
            1,
            1,
            "private_qps",
            "private answer == oracle",
            tally,
            out,
            || {
                let owner = stream.next_owner();
                u64::from(private.query(owner) != oracle[owner.index()])
            },
        );
    }
    let _s = tracer.child(parent, "query.private_batch");
    let mut stream = Stream::new(owners);
    closed_loop(
        w.slice,
        1,
        BATCH,
        "private_batch_qps",
        "private batch answer == oracle",
        tally,
        out,
        || {
            let batch = stream.next_batch();
            wrong_in_batch(&private.query_batch(batch), batch, oracle)
        },
    );
}

/// Runs one round of `w` in `dir` (created and removed here), pushing
/// one sample of every per-round metric into `out`. With a recording
/// `tracer` the round is one trace: a `round` root span with a child
/// around every call into a layer.
///
/// # Panics
///
/// Panics when the program under test returns an error on inputs that
/// cannot fail (a construction, journal or install error): the
/// benchmark's workloads contain no failing operation.
pub fn run_round(
    w: &Workload,
    setup: &Setup,
    dir: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
    out: &mut Samples,
) {
    let lin = &setup.lineage;
    let config = serve_config(RowBackend::Dense);
    let _ = std::fs::remove_dir_all(dir);
    let round = tracer.root("round");
    let span = |name| tracer.child(round.ctx(), name);
    let round_started = Instant::now();

    // Build: `builds` identical constructions timed as one burst.
    let s = span("build");
    let started = Instant::now();
    let mut epoch = None;
    for _ in 0..w.builds {
        epoch = Some(construct_epoch(&lin.matrix, &lin.epsilons, &lin.proto).expect("build"));
    }
    out.push("build_ms", ms(started.elapsed()) / w.builds as f64);
    drop(s);
    let epoch = epoch.expect("at least one build per round");
    tally.check(
        epoch.index() == lin.reference.index(),
        "build reproduces the reference epoch",
    );

    // Audit: time until the epoch may be installed.
    let s = span("audit");
    let started = Instant::now();
    let c = tracer.child(s.ctx(), "audit.certify");
    let certificates = certify_epoch(&lin.matrix, &epoch, &lin.audit);
    drop(c);
    let v = tracer.child(s.ctx(), "audit.verify");
    let accepted = verify_epoch(&epoch, &certificates, &lin.audit).is_ok();
    drop(v);
    out.push("audit_ms", ms(started.elapsed()));
    drop(s);
    tally.check(accepted, "verify_epoch accepts the honest epoch");
    let proof_bytes: usize = certificates
        .iter()
        .map(|c| c.proof.size_bytes() + COMMITMENT_BYTES)
        .sum();
    out.push("proof_kb", proof_bytes as f64 / 1024.0);

    // Install: durable anchor, then the engines boot from it.
    let s = span("store.create");
    let anchor = AuditedEpoch {
        epoch,
        certificates,
    };
    let mut store = DurableStore::create_audited(dir, &anchor).expect("create store");
    drop(s);
    let s = span("serve.boot");
    let engine = ServeEngine::from_store(&store, config);
    let lineage_private = (!w.paper).then(|| PrivateEngine::start(store.head().index(), config));
    drop(s);

    // Serve: the query slices hit the paper-scale engines when the
    // workload has them, the lineage's own otherwise.
    let s = span("query");
    match &setup.paper {
        Some(paper) => query_slices(
            w,
            &paper.engine.client(),
            &mut paper.private.client(lin.proto.seed),
            &paper.stream,
            &paper.oracle,
            tracer,
            s.ctx(),
            tally,
            out,
        ),
        None => query_slices(
            w,
            &engine.client(),
            &mut lineage_private
                .as_ref()
                .expect("lineage workloads start a private engine")
                .client(lin.proto.seed),
            &lin.stream,
            &lin.oracle,
            tracer,
            s.ctx(),
            tally,
            out,
        ),
    }
    drop(s);
    let s = span("serve.stop_private");
    drop(lineage_private);
    drop(s);

    // Refresh, audited: one delta certified and verified before it is
    // journaled and installed.
    let mut matrix = lin.matrix.clone();
    let mut oracle = w.interleave.then(|| lin.oracle.clone());
    lin.audited_step.apply(&mut matrix);
    let s = span("refresh_audited");
    let started = Instant::now();
    let built = store
        .advance_audited(&matrix, &lin.audited_step.delta, &lin.audit)
        .expect("advance_audited");
    let touched = lin.audited_step.delta.touched();
    engine
        .apply_delta(built.delta.epoch.index(), &touched)
        .expect("install audited delta");
    out.push("refresh_audited_ms", ms(started.elapsed()));
    drop(s);
    if let Some(oracle) = oracle.as_mut() {
        for &o in &touched {
            oracle[o.index()] = built.delta.epoch.index().query(o);
        }
    }

    // Refresh: D deltas, submitted → durable → visible; one checkpoint
    // after delta D − W leaves W records in the journal at the crash.
    // On `churn` the client reads between installs.
    let s = span("refresh");
    let client = engine.client();
    let mut stream = Stream::new(&lin.stream);
    let (mut installing, mut reading) = (Duration::ZERO, Duration::ZERO);
    let (mut reads, mut wrong_reads) = (0u64, 0u64);
    for (i, step) in lin.steps.iter().enumerate() {
        if i == w.deltas - w.wal_at_crash {
            let c = tracer.child(s.ctx(), "checkpoint");
            let receipt = store.checkpoint().expect("checkpoint");
            drop(c);
            out.push("durability.checkpoint_ms", ms(receipt.wall));
            out.push("durability.checkpoint_kb", receipt.bytes as f64 / 1024.0);
        }
        if let Some(oracle) = oracle.as_ref() {
            let r = tracer.child(s.ctx(), "refresh.read");
            let started = Instant::now();
            for _ in 0..QUERIES_PER_INSTALL {
                wrong_reads += ask(&client, stream.next_owner(), oracle);
            }
            reading += started.elapsed();
            reads += QUERIES_PER_INSTALL as u64;
            drop(r);
        }
        step.apply(&mut matrix);
        let a = tracer.child(s.ctx(), "refresh.advance");
        let started = Instant::now();
        let built = store.advance(&matrix, &step.delta).expect("advance");
        drop(a);
        let touched = step.delta.touched();
        let a = tracer.child(s.ctx(), "refresh.install");
        engine
            .apply_delta(built.epoch.index(), &touched)
            .expect("install delta");
        installing += started.elapsed();
        drop(a);
        if let Some(oracle) = oracle.as_mut() {
            for &o in &touched {
                oracle[o.index()] = built.epoch.index().query(o);
            }
        }
    }
    drop(s);
    out.push("refresh_ms", ms(installing) / w.deltas as f64);
    if w.interleave {
        out.push(
            "query_qps",
            reads as f64 / (reading + installing).as_secs_f64(),
        );
        tally.add(reads, wrong_reads, "interleaved answer == oracle");
    }

    // Crash: remember the head, drop everything in memory.
    let s = span("crash");
    let head_before = encode_epoch(store.head());
    drop(client);
    drop(engine);
    drop(store);
    drop(s);

    // Recover: open + warm boot + first verified answer.
    let probe = lin.stream[0];
    let s = span("recover");
    let started = Instant::now();
    let o = tracer.child(s.ctx(), "recover.open");
    let (store, recovery) = DurableStore::open(dir).expect("recover store");
    drop(o);
    let b = tracer.child(s.ctx(), "recover.boot");
    let engine = ServeEngine::from_store(&store, config);
    let first = engine.client().query(probe);
    drop(b);
    out.push("recover_ms", ms(started.elapsed()));
    drop(s);

    // Check what came back: replay count, bit-identical head, recall
    // against the raw matrix, answers through the recovered engine.
    let s = span("verify_recovered");
    tally.check(
        recovery.replayed == w.wal_at_crash && recovery.tail_defect.is_none(),
        "recovery replays exactly the journaled records",
    );
    tally.check(
        encode_epoch(store.head()) == head_before,
        "recovered head is bit-identical to the pre-crash head",
    );
    let head = store.head().index();
    tally.check(first == head.query(probe), "first answer after recovery");
    tally.check(
        recall_holds(&matrix, matrix.owner_ids().map(|o| (o, head.query(o)))),
        "recovered head keeps 100% recall against the raw matrix",
    );
    let client = engine.client();
    let wrong = lin.stream[..BATCH]
        .iter()
        .filter(|&&o| client.query(o) != head.query(o))
        .count();
    tally.add(BATCH as u64, wrong as u64, "post-recovery answer == head");
    drop(s);

    let s = span("cleanup");
    drop(client);
    drop(engine);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    drop(s);

    out.push("lifecycle_s", round_started.elapsed().as_secs_f64());
}
