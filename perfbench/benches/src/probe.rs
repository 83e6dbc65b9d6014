//! Instruments the benchmark wraps around the program from outside: the
//! wall clock, a counting allocator, a timing and counting oracle
//! decorator, and an in-memory span log.

use crate::measure::Interval;
use lcakp_knapsack::{Item, ItemId, Norms};
use lcakp_oracle::{AccessSnapshot, ItemOracle, OracleError, WeightedSampler};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The one wall-clock read of the benchmark: every timing goes through
/// here.
pub fn now() -> Instant {
    // lcakp-lint: allow(D002) reason="the benchmark times the program from outside; wall time is its measurement, never an input to the program"
    Instant::now()
}

/// The bias one timed interval carries from the clock reads themselves:
/// the median of back-to-back read pairs, ns. Subtracted from each timed
/// oracle access, which lasts only a few clock reads.
pub fn timer_overhead_ns() -> u64 {
    let mut pairs: Vec<u64> = (0..10_001)
        .map(|_| {
            let first = now();
            ns_since(first)
        })
        .collect();
    pairs.sort_unstable();
    pairs[pairs.len() / 2]
}

/// Nanoseconds from `origin` to now.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(now().duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation and
/// the bytes requested. Counters are statistics only, so `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only read
// `layout.size()` / `new_size` and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` counted so far.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

/// What a [`TracedOracle`] saw since its last [`TracedOracle::reset`].
#[derive(Debug, Default)]
pub struct AccessLog {
    /// Every weighted draw in order (only when capturing).
    pub draws: Vec<(ItemId, Item)>,
    /// Every access's interval, draws and point queries, in order (only
    /// when capturing).
    pub intervals: Vec<Interval>,
    /// Weighted draws made.
    pub samples: u64,
    /// Nanoseconds spent inside weighted draws.
    pub sample_ns: u64,
    /// Point queries made.
    pub points: u64,
    /// Nanoseconds spent inside point queries.
    pub point_ns: u64,
    /// End of the last weighted draw.
    pub last_sample_end: u64,
    /// Start of the first point query.
    pub first_point_start: Option<u64>,
}

impl AccessLog {
    /// Time inside the oracle, ns.
    pub fn busy_ns(&self) -> u64 {
        self.sample_ns + self.point_ns
    }
}

/// An `ItemOracle + WeightedSampler` decorator that times and counts
/// every access, and optionally records each draw and its interval so
/// the benchmark can rebuild the query's later stages from its inputs.
pub struct TracedOracle<'o, O> {
    inner: &'o O,
    origin: Instant,
    timer_ns: u64,
    capture: bool,
    log: RefCell<AccessLog>,
}

impl<'o, O: ItemOracle + WeightedSampler> TracedOracle<'o, O> {
    /// Wraps `inner`; times are ns since `origin`, each access's less
    /// `timer_ns` of clock-read bias. With `capture`, room for `reserve`
    /// accesses is made up front so recording allocates nothing inside a
    /// measured query.
    pub fn new(
        inner: &'o O,
        origin: Instant,
        timer_ns: u64,
        capture: bool,
        reserve: usize,
    ) -> Self {
        let mut log = AccessLog::default();
        if capture {
            log.draws.reserve(reserve);
            log.intervals.reserve(reserve);
        }
        TracedOracle {
            inner,
            origin,
            timer_ns,
            capture,
            log: RefCell::new(log),
        }
    }

    /// Clears the log, keeping its buffers' capacity.
    pub fn reset(&self) {
        let mut log = self.log.borrow_mut();
        log.draws.clear();
        log.intervals.clear();
        log.samples = 0;
        log.sample_ns = 0;
        log.points = 0;
        log.point_ns = 0;
        log.last_sample_end = 0;
        log.first_point_start = None;
    }

    /// End of an access that started at `start`, less the clock-read
    /// bias.
    fn end_of(&self, start: u64) -> u64 {
        ns_since(self.origin)
            .saturating_sub(self.timer_ns)
            .max(start)
    }

    /// The clock-read bias subtracted from each access.
    pub fn timer_ns(&self) -> u64 {
        self.timer_ns
    }

    /// Read access to the log.
    pub fn log(&self) -> std::cell::Ref<'_, AccessLog> {
        self.log.borrow()
    }
}

impl<O: ItemOracle + WeightedSampler> ItemOracle for TracedOracle<'_, O> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn norms(&self) -> Norms {
        self.inner.norms()
    }

    fn try_query(&self, id: ItemId) -> Result<Item, OracleError> {
        let start = ns_since(self.origin);
        let result = self.inner.try_query(id);
        let end = self.end_of(start);
        let mut log = self.log.borrow_mut();
        log.points += 1;
        log.point_ns += end - start;
        log.first_point_start.get_or_insert(start);
        if self.capture {
            log.intervals.push(Interval { start, end });
        }
        result
    }

    fn stats(&self) -> AccessSnapshot {
        self.inner.stats()
    }
}

impl<O: ItemOracle + WeightedSampler> WeightedSampler for TracedOracle<'_, O> {
    fn try_sample_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(ItemId, Item), OracleError> {
        let start = ns_since(self.origin);
        let result = self.inner.try_sample_weighted(rng);
        let end = self.end_of(start);
        let mut log = self.log.borrow_mut();
        log.samples += 1;
        log.sample_ns += end - start;
        log.last_sample_end = end;
        if self.capture {
            log.intervals.push(Interval { start, end });
            if let Ok(draw) = result {
                log.draws.push(draw);
            }
        }
        result
    }
}

/// One recorded span: a named interval, the span that caused it, and the
/// query it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `reproducible.rquantile`.
    pub name: &'static str,
    /// Interval, ns since the log's origin.
    pub at: Interval,
    /// Index of the parent span in the log.
    pub parent: Option<usize>,
    /// Query (or arrival) the span belongs to.
    pub query: u64,
}

/// Spans kept in memory during a traced run and written out once at its
/// end.
#[derive(Debug)]
pub struct SpanLog {
    /// Time origin of every span.
    pub origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log starting now.
    pub fn new() -> Self {
        SpanLog {
            origin: now(),
            spans: Vec::new(),
        }
    }

    /// Ns since the origin.
    pub fn now(&self) -> u64 {
        ns_since(self.origin)
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        at: Interval,
        parent: Option<usize>,
        query: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            at,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `index` (for spans opened before their
    /// children).
    pub fn close(&mut self, index: usize, end: u64) {
        self.spans[index].at.end = end;
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                span.name, span.at.start, span.at.end, span.query
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
