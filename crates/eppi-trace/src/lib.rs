//! # eppi-trace — privacy-audited causal span tracing
//!
//! Aggregate histograms (eppi-telemetry) answer *how fast is the system
//! overall*; this crate answers *where did this query spend its time*.
//! A [`Tracer`] hands out request-scoped trace ids; spans form a
//! parent/child tree linked by [`SpanCtx`] values that travel across
//! threads inside `eppi-serve` Job messages, across the `eppi-net`
//! `Transport` trait, and through `eppi-durability` recovery.
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths never allocate or block.** Every span event is a
//!    fixed-size record written into a per-thread seqlock ring buffer
//!    ([`ring::RingBuffer`]); overflow drops the oldest events.
//! 2. **Tracing must be provably leakage-free.** In private serve mode
//!    the span tree of a query — names, counts, shape, payload sizes —
//!    must be independent of the owner probed, mirroring the oblivious
//!    scan's transcript independence. [`collect::TraceLog::shape`]
//!    produces the timestamp-normalized form the
//!    `trace_obliviousness` property test compares.
//! 3. **Exports are standard.** [`collect::TraceLog::render`] prints a
//!    text tree; [`chrome::to_chrome_string`] emits Chrome
//!    `trace_event` JSON viewable in `chrome://tracing` / Perfetto.
//!
//! A disabled tracer ([`Tracer::disabled`], also [`Tracer::default`])
//! costs one branch per call site, so production paths take a `Tracer`
//! unconditionally.
//!
//! ## One observability context
//!
//! [`Obs`] is the one handle through which observability context — the
//! metrics [`Registry`], the [`Tracer`] and the parent [`SpanCtx`] —
//! enters and moves through `eppi-audit`, `eppi-protocol`,
//! `eppi-durability` and `eppi-serve`. Every operation there has two
//! forms: the bare one (`= Obs::default()`: process-global registry,
//! disabled tracer, no parent) and `<op>_with_registry`, whose last
//! parameter is `impl Into<Obs<'_>>` — pass `&registry` for isolated
//! metrics, or a full `Obs { registry, tracer, parent }` to also hang
//! the operation's spans under a caller-owned span. Below an entry
//! point the handle is only ever passed down (re-parented with
//! [`Obs::under`]), never replaced.
//!
//! ```
//! use eppi_trace::{TraceConfig, Tracer};
//!
//! let tracer = Tracer::new(TraceConfig::default());
//! let root = tracer.root("request");
//! {
//!     let mut scan = tracer.child(root.ctx(), "scan");
//!     scan.set_payload(4096); // e.g. words scanned
//! }
//! drop(root);
//! let log = tracer.collect();
//! let trace = log.trace_ids()[0];
//! assert!(log.render(trace).contains("scan"));
//! assert_eq!(log.shape(trace).unwrap().children.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod collect;
pub mod ring;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

pub use collect::{SpanKind, SpanNode, TraceLog, TraceShape};
use eppi_telemetry::Registry;

use collect::ThreadEvents;
use ring::{RawEvent, RingBuffer, KIND_BEGIN, KIND_END, KIND_INSTANT};

/// Propagated identity of an active span: `(trace id, span id)`.
///
/// This is the only thing that crosses thread and message boundaries —
/// 16 bytes, `Copy`, and [`SpanCtx::NONE`] when the request is
/// untraced, so carrying it in `Job` messages is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanCtx {
    trace: u64,
    span: u64,
}

impl SpanCtx {
    /// The untraced context: children of `NONE` record nothing.
    pub const NONE: SpanCtx = SpanCtx { trace: 0, span: 0 };

    /// True when this context records nothing.
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }

    /// Trace id, 0 when untraced.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// Span id, 0 when untraced.
    pub fn span_id(&self) -> u64 {
        self.span
    }
}

impl Default for SpanCtx {
    fn default() -> SpanCtx {
        SpanCtx::NONE
    }
}

/// The observability context of one operation: where its metrics go,
/// who records its spans, and which span they hang under.
///
/// `Copy`, three words; see the crate docs for the two-form rule. An
/// operation that opens a span passes `obs.under(span.ctx())` to what
/// it calls, so a caller's `parent` becomes the root of everything
/// beneath the entry point.
///
/// ```
/// use eppi_telemetry::Registry;
/// use eppi_trace::{Obs, SpanCtx, TraceConfig, Tracer};
///
/// let (registry, tracer) = (Registry::new(), Tracer::new(TraceConfig::default()));
/// let root = tracer.root("epoch");
/// let obs = Obs { registry: &registry, tracer: &tracer, parent: root.ctx() };
/// drop(obs.tracer.child(obs.parent, "phase"));
/// // `&registry` alone isolates metrics and traces nothing.
/// let quiet: Obs<'_> = (&registry).into();
/// assert!(!quiet.tracer.enabled() && quiet.parent == SpanCtx::NONE);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Obs<'a> {
    /// Where metrics are reported.
    pub registry: &'a Registry,
    /// Who records spans ([`Tracer::disabled`] records nothing).
    pub tracer: &'a Tracer,
    /// The span the operation's spans hang under. Sites that open a
    /// fresh trace root when there is no parent say so in their docs;
    /// everywhere else [`SpanCtx::NONE`] records nothing.
    pub parent: SpanCtx,
}

impl Default for Obs<'_> {
    /// The bare form of every operation: process-global registry,
    /// disabled tracer, no parent.
    fn default() -> Self {
        static DISABLED: Tracer = Tracer { inner: None };
        Obs {
            registry: eppi_telemetry::global(),
            tracer: &DISABLED,
            parent: SpanCtx::NONE,
        }
    }
}

impl<'a> From<&'a Registry> for Obs<'a> {
    /// Metrics into `registry`, nothing traced.
    fn from(registry: &'a Registry) -> Self {
        Obs {
            registry,
            ..Obs::default()
        }
    }
}

impl<'a> Obs<'a> {
    /// The same context with its spans hanging under `parent`.
    #[must_use]
    pub fn under(self, parent: SpanCtx) -> Obs<'a> {
        Obs { parent, ..self }
    }
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Events retained per thread before oldest-drop (min 1).
    pub capacity_per_thread: usize,
    /// Root spans at least this long are kept in the slow-query
    /// exemplar log (`None` disables the log).
    pub slow_threshold: Option<Duration>,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            // 1024 slots * 56 B = 56 KiB per thread: history for a
            // couple hundred recent spans while staying small enough
            // that the ring's cache footprint doesn't tax the traced
            // hot path (larger rings measurably slow writers by
            // evicting the working set from L2).
            capacity_per_thread: 1 << 10,
            slow_threshold: None,
        }
    }
}

/// One entry of the slow-query exemplar log: the slowest root spans
/// seen, so their complete span trees can be pulled from
/// [`Tracer::collect`] and rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowExemplar {
    /// Trace id of the slow request.
    pub trace: u64,
    /// Interned name of the root span (resolve via the collected log).
    pub name: u32,
    /// Root span duration.
    pub duration: Duration,
}

/// Maximum retained slow exemplars; the fastest is evicted first.
const SLOW_EXEMPLAR_CAP: usize = 32;

struct NameTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl NameTable {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }
}

struct ThreadReg {
    label: String,
    buffer: Arc<RingBuffer>,
}

/// 128-byte-aligned so the `Arc` refcounts (which precede the data in
/// the allocation and are bumped once per span guard) land on their own
/// cache line instead of invalidating `epoch`/`config`, which every
/// event reads.
#[repr(align(128))]
struct TracerInner {
    /// Process-unique tracer id, the key of the thread-local caches.
    id: u64,
    /// [`now_ticks`] at creation; event timestamps are nanoseconds
    /// relative to this.
    epoch_ticks: u64,
    /// Cached [`ns_per_tick`], so the hot path reads it alongside
    /// `epoch_ticks` instead of through the calibration `OnceLock`.
    tick_ns: f64,
    config: TraceConfig,
    next_id: AtomicU64,
    names: Mutex<NameTable>,
    threads: Mutex<Vec<ThreadReg>>,
    slow: Mutex<Vec<SlowExemplar>>,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

/// Span ids handed to each thread per refill of its private block, so
/// the hot path touches the shared counter once every `SPAN_ID_BLOCK`
/// spans instead of bouncing its cache line on every one.
const SPAN_ID_BLOCK: u64 = 512;

/// Per-(thread, tracer) hot state: the ring, a private span-id block,
/// and the interned-name memo — one thread-local lookup serves every
/// event.
struct ThreadSlot {
    tracer_id: u64,
    /// Dead once the tracer and every guard it handed out are gone; the
    /// slot (and its ring) is then dropped on this thread's next miss.
    tracer: Weak<TracerInner>,
    ring: Arc<RingBuffer>,
    /// Next span id in this thread's private block (`0..0` = empty).
    next_span: u64,
    span_end: u64,
    /// (`&'static str` address, interned id) memo, so steady-state
    /// span creation never takes the name-table lock.
    names: Vec<(usize, u32)>,
}

impl ThreadSlot {
    fn span_id(&mut self, inner: &TracerInner) -> u64 {
        if self.next_span == self.span_end {
            self.next_span = inner.next_id.fetch_add(SPAN_ID_BLOCK, Ordering::Relaxed);
            self.span_end = self.next_span + SPAN_ID_BLOCK;
        }
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    fn intern(&mut self, inner: &TracerInner, name: &'static str) -> u32 {
        let key = name.as_ptr() as usize;
        if let Some(&(_, id)) = self.names.iter().find(|(ptr, _)| *ptr == key) {
            return id;
        }
        let id = inner.names.lock().unwrap().intern(name);
        self.names.push((key, id));
        id
    }
}

thread_local! {
    /// This thread's slot per live tracer. A Vec scan: a thread rarely
    /// sees more than one live tracer, and slots of dead tracers are
    /// reclaimed on the next miss.
    static TRACE_TLS: RefCell<Vec<ThreadSlot>> = const { RefCell::new(Vec::new()) };
}

/// Handle to a trace collector. Cheap to clone and share; a
/// [`Tracer::disabled`] handle makes every call a no-op.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => write!(f, "Tracer(id={})", inner.id),
        }
    }
}

impl Tracer {
    /// A no-op tracer: records nothing, costs one branch per call.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A live tracer with its own id space and per-thread rings.
    pub fn new(config: TraceConfig) -> Tracer {
        // Calibrating the tick clock up front (it blocks briefly, once
        // per process) keeps the cost out of the first traced span.
        let tick_ns = ns_per_tick();
        Tracer {
            inner: Some(Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                epoch_ticks: now_ticks(),
                tick_ns,
                config,
                next_id: AtomicU64::new(1),
                names: Mutex::new(NameTable {
                    by_name: HashMap::new(),
                    names: Vec::new(),
                }),
                threads: Mutex::new(Vec::new()),
                slow: Mutex::new(Vec::new()),
            })),
        }
    }

    /// True unless this is a [`Tracer::disabled`] handle.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a new root span under a fresh trace id.
    ///
    /// Returns a no-op guard on a disabled tracer.
    pub fn root(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::noop();
        };
        with_slot(inner, |slot| {
            // Read the clock once the slot exists: a thread's first span
            // must not absorb the allocation of its ring.
            let t_ns = elapsed_ns(inner);
            let id = slot.span_id(inner);
            let name = slot.intern(inner, name);
            slot.ring.push(&RawEvent {
                kind: KIND_BEGIN,
                name,
                trace: id,
                span: id,
                parent: 0,
                t_ns,
                payload: 0,
            });
            SpanGuard {
                tracer: Some(inner.clone()),
                ctx: SpanCtx {
                    trace: id,
                    span: id,
                },
                parent: 0,
                name,
                payload: 0,
                t0_ns: t_ns,
                root: true,
            }
        })
    }

    /// Opens a child span of `parent`.
    ///
    /// Returns a no-op guard when the tracer is disabled or `parent`
    /// is [`SpanCtx::NONE`], so untraced requests flowing through a
    /// traced engine record nothing.
    pub fn child(&self, parent: SpanCtx, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::noop();
        };
        if parent.is_none() {
            return SpanGuard::noop();
        }
        with_slot(inner, |slot| {
            let t_ns = elapsed_ns(inner);
            let span = slot.span_id(inner);
            let name = slot.intern(inner, name);
            slot.ring.push(&RawEvent {
                kind: KIND_BEGIN,
                name,
                trace: parent.trace,
                span,
                parent: parent.span,
                t_ns,
                payload: 0,
            });
            SpanGuard {
                tracer: Some(inner.clone()),
                ctx: SpanCtx {
                    trace: parent.trace,
                    span,
                },
                parent: parent.span,
                name,
                payload: 0,
                t0_ns: t_ns,
                root: false,
            }
        })
    }

    /// Records a point event inside `parent` (no-op for `NONE`).
    pub fn instant(&self, parent: SpanCtx, name: &'static str, payload: u64) {
        let Some(inner) = &self.inner else { return };
        if parent.is_none() {
            return;
        }
        with_slot(inner, |slot| {
            let t_ns = elapsed_ns(inner);
            let span = slot.span_id(inner);
            let name = slot.intern(inner, name);
            slot.ring.push(&RawEvent {
                kind: KIND_INSTANT,
                name,
                trace: parent.trace,
                span,
                parent: parent.span,
                t_ns,
                payload,
            });
        });
    }

    /// Snapshots every thread's ring into a [`TraceLog`].
    ///
    /// Safe to call while writers are active: slots mid-overwrite are
    /// skipped, so a busy system yields a slightly shorter log, never
    /// a corrupt one. Returns an empty log on a disabled tracer.
    pub fn collect(&self) -> TraceLog {
        let Some(inner) = &self.inner else {
            return TraceLog::empty();
        };
        let names = inner.names.lock().unwrap().names.clone();
        let threads = inner
            .threads
            .lock()
            .unwrap()
            .iter()
            .map(|reg| ThreadEvents {
                label: reg.label.clone(),
                events: reg.buffer.snapshot(),
                pushed: reg.buffer.pushed(),
                dropped: reg.buffer.dropped(),
            })
            .collect();
        TraceLog::new(names, threads)
    }

    /// The retained slow-query exemplars, slowest first.
    pub fn slow_exemplars(&self) -> Vec<SlowExemplar> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = inner.slow.lock().unwrap().clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.duration));
        out
    }
}

/// RAII span: records a begin event when opened and an end event (with
/// the final payload) on drop. Obtain via [`Tracer::root`] /
/// [`Tracer::child`]; pass [`SpanGuard::ctx`] across threads to hang
/// children under it.
pub struct SpanGuard {
    tracer: Option<Arc<TracerInner>>,
    ctx: SpanCtx,
    parent: u64,
    name: u32,
    payload: u64,
    /// Begin timestamp, nanoseconds since the tracer epoch (reused for
    /// the slow-query check so a span costs two clock reads total).
    t0_ns: u64,
    root: bool,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("trace", &self.ctx.trace)
            .field("span", &self.ctx.span)
            .finish_non_exhaustive()
    }
}

impl SpanGuard {
    fn noop() -> SpanGuard {
        SpanGuard {
            tracer: None,
            ctx: SpanCtx::NONE,
            parent: 0,
            name: 0,
            payload: 0,
            t0_ns: 0,
            root: false,
        }
    }

    /// The context children should reference ([`SpanCtx::NONE`] for a
    /// no-op guard).
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }

    /// Sets the payload reported by the end event (e.g. words
    /// scanned, batch size). Last write wins.
    pub fn set_payload(&mut self, payload: u64) {
        self.payload = payload;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = &self.tracer else { return };
        let t_ns = elapsed_ns(inner);
        let event = RawEvent {
            kind: KIND_END,
            name: self.name,
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.parent,
            t_ns,
            payload: self.payload,
        };
        with_slot(inner, |slot| slot.ring.push(&event));
        if self.root {
            if let Some(threshold) = inner.config.slow_threshold {
                let took = Duration::from_nanos(t_ns.saturating_sub(self.t0_ns));
                if took >= threshold {
                    note_slow(
                        inner,
                        SlowExemplar {
                            trace: self.ctx.trace,
                            name: self.name,
                            duration: took,
                        },
                    );
                }
            }
        }
    }
}

/// The raw timestamp counter: on x86-64 `rdtsc` (roughly half the cost
/// of `Instant::now`, and an event's two biggest costs are its clock
/// reads), elsewhere monotonic nanoseconds. Ticks convert to
/// nanoseconds via the process-wide [`ns_per_tick`] calibration.
#[cfg(target_arch = "x86_64")]
fn now_ticks() -> u64 {
    // SAFETY: `rdtsc` is unprivileged and available on every x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// See the x86-64 variant: nanoseconds from a process-global epoch, so
/// `ns_per_tick` is exactly 1.
#[cfg(not(target_arch = "x86_64"))]
fn now_ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds per [`now_ticks`] tick, calibrated once per process
/// against the OS monotonic clock (the TSC is assumed invariant, which
/// holds on every x86-64 made this decade).
fn ns_per_tick() -> f64 {
    static NS_PER_TICK: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        if cfg!(not(target_arch = "x86_64")) {
            return 1.0;
        }
        let t0 = Instant::now();
        let c0 = now_ticks();
        std::thread::sleep(Duration::from_millis(2));
        let c1 = now_ticks();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ticks = c1.wrapping_sub(c0);
        if ticks == 0 {
            return 1.0; // stuck counter; timestamps degrade, spans survive
        }
        ns as f64 / ticks as f64
    })
}

fn elapsed_ns(inner: &TracerInner) -> u64 {
    let ticks = now_ticks().wrapping_sub(inner.epoch_ticks);
    (ticks as f64 * inner.tick_ns) as u64
}

/// Rare path: slow roots only. Keeps the `SLOW_EXEMPLAR_CAP` slowest.
fn note_slow(inner: &TracerInner, exemplar: SlowExemplar) {
    let mut slow = inner.slow.lock().unwrap();
    if slow.len() < SLOW_EXEMPLAR_CAP {
        slow.push(exemplar);
        return;
    }
    if let Some(min) = slow
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.duration)
        .map(|(i, _)| i)
    {
        if slow[min].duration < exemplar.duration {
            slow[min] = exemplar;
        }
    }
}

/// Runs `f` against this thread's slot for `inner`'s tracer, creating
/// and registering the slot (and its ring) on first use — the only
/// time a tracing thread allocates, and so also when it lets go of the
/// slots of tracers that no longer exist: a long-lived thread keeps one
/// ring per *live* tracer, not one per tracer it ever saw.
fn with_slot<R>(inner: &Arc<TracerInner>, f: impl FnOnce(&mut ThreadSlot) -> R) -> R {
    TRACE_TLS.with(|slots| {
        let mut slots = slots.borrow_mut();
        if let Some(slot) = slots.iter_mut().find(|s| s.tracer_id == inner.id) {
            return f(slot);
        }
        slots.retain(|s| s.tracer.strong_count() > 0);
        let ring = Arc::new(RingBuffer::new(inner.config.capacity_per_thread));
        let mut threads = inner.threads.lock().unwrap();
        let label = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{}", threads.len()));
        threads.push(ThreadReg {
            label,
            buffer: ring.clone(),
        });
        drop(threads);
        slots.push(ThreadSlot {
            tracer_id: inner.id,
            tracer: Arc::downgrade(inner),
            ring,
            next_span: 0,
            span_end: 0,
            names: Vec::new(),
        });
        f(slots.last_mut().unwrap())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let tracer = Tracer::disabled();
        let root = tracer.root("request");
        assert!(root.ctx().is_none());
        let child = tracer.child(root.ctx(), "inner");
        assert!(child.ctx().is_none());
        tracer.instant(root.ctx(), "tick", 1);
        drop(child);
        drop(root);
        assert_eq!(tracer.collect().total_events(), 0);
    }

    #[test]
    fn spans_nest_across_threads() {
        let tracer = Tracer::new(TraceConfig::default());
        let root = tracer.root("request");
        let ctx = root.ctx();
        let t2 = {
            let tracer = tracer.clone();
            std::thread::spawn(move || {
                let mut shard = tracer.child(ctx, "shard");
                shard.set_payload(42);
            })
        };
        t2.join().unwrap();
        drop(root);

        let log = tracer.collect();
        let traces = log.trace_ids();
        assert_eq!(traces.len(), 1);
        let tree = log.span_tree(traces[0]).unwrap();
        assert_eq!(tree.name, "request");
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].name, "shard");
        assert_eq!(tree.children[0].payload, 42);
        // Two distinct threads contributed events.
        assert_eq!(
            log.threads.iter().filter(|t| !t.events.is_empty()).count(),
            2
        );
    }

    #[test]
    fn child_of_none_records_nothing_on_live_tracer() {
        let tracer = Tracer::new(TraceConfig::default());
        let child = tracer.child(SpanCtx::NONE, "inner");
        assert!(child.ctx().is_none());
        drop(child);
        tracer.instant(SpanCtx::NONE, "tick", 0);
        assert_eq!(tracer.collect().total_events(), 0);
    }

    #[test]
    fn dead_tracers_release_their_thread_slots() {
        // Own thread: the slot list is per thread and other tests'
        // tracers must not be counted.
        std::thread::spawn(|| {
            let mut rings = Vec::new();
            for _ in 0..1_000 {
                let tracer = Tracer::new(TraceConfig::default());
                drop(tracer.root("round"));
                TRACE_TLS.with(|slots| {
                    let slots = slots.borrow();
                    // The previous tracer's slot goes on this one's
                    // first event; nothing older survives.
                    assert!(slots.len() <= 2, "{} slots", slots.len());
                    rings.push(Arc::downgrade(&slots.last().unwrap().ring));
                });
            }
            let live = rings.iter().filter(|r| r.strong_count() > 0).count();
            assert_eq!(live, 1, "only the last tracer's ring is still held");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn obs_defaults_to_global_and_disabled_and_reparents() {
        let bare = Obs::default();
        assert!(std::ptr::eq(bare.registry, eppi_telemetry::global()));
        assert!(!bare.tracer.enabled() && bare.parent.is_none());

        let registry = Registry::new();
        let tracer = Tracer::new(TraceConfig::default());
        let root = tracer.root("request");
        let obs = Obs::from(&registry).under(root.ctx());
        assert!(std::ptr::eq(obs.registry, &registry));
        assert!(!obs.tracer.enabled(), "`&registry` alone traces nothing");
        assert_eq!(obs.parent, root.ctx());
    }

    #[test]
    fn slow_exemplar_log_keeps_slowest_roots() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold: Some(Duration::ZERO),
            ..TraceConfig::default()
        });
        for _ in 0..(SLOW_EXEMPLAR_CAP + 5) {
            drop(tracer.root("request"));
        }
        let slow = tracer.slow_exemplars();
        assert_eq!(slow.len(), SLOW_EXEMPLAR_CAP);
        assert!(slow.windows(2).all(|w| w[0].duration >= w[1].duration));
        // Fast child spans never enter the exemplar log.
        let root = tracer.root("request");
        drop(tracer.child(root.ctx(), "inner"));
        drop(root);
        assert!(tracer.slow_exemplars().iter().all(|e| {
            let log = tracer.collect();
            log.name(e.name) == "request"
        }));
    }
}
