//! End-to-end span tracing for the GLP stack.
//!
//! One [`Tracer`] handle is threaded through engines
//! (`RunOptions::tracer`), the simulated device (kernel launches and PCIe
//! transfers), and the serving pipeline, so a single flag lights up the
//! whole stack. The design constraints, in order:
//!
//! * **Zero dependencies.** Both `glp-gpusim` and `glp-core` depend on
//!   this crate, so it must sit below everything else in the workspace.
//! * **Simulated time is the timeline.** Device-side spans carry the cost
//!   model's charged seconds ([`Clock::Modeled`]), not wall time; host-side
//!   stages (serve, the resilience ladder, the host engines) use wall
//!   seconds since the recording started ([`Clock::Wall`],
//!   [`Tracer::wall_now`]). Nesting is *structural* — a span's
//!   parent is whatever span the recording thread had open — so the two
//!   clocks compose without comparison.
//! * **Lock-free-enough.** Each thread records into a thread-local ring
//!   buffer; the shared sink's mutex is only taken when a ring fills or
//!   the thread's span stack empties (end of an engine run / serve stage).
//!
//! Recorded traces export to Chrome trace-event JSON
//! ([`Trace::chrome_json`], loadable in `chrome://tracing` or Perfetto), a
//! durations-free structural form ([`Trace::structure`]) pinned by the
//! golden-trace regression test, and a per-kernel aggregation table
//! ([`KernelProfile`]) surfaced in `LpRunReport` and serve telemetry.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What layer of the stack a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// One `Engine::run` invocation.
    Run,
    /// One BSP iteration.
    Iteration,
    /// Degree-bucket dispatch (the propagate phase of an iteration).
    Dispatch,
    /// One simulated kernel launch; duration is the cost model's charge.
    Kernel,
    /// One modeled PCIe transfer (upload / download / hybrid stream).
    Transfer,
    /// Fault-tolerance events: snapshot, retry, degrade, repartition.
    Resilience,
    /// Serving-pipeline stages: ingest, batch, apply, recluster, swap.
    Serve,
}

impl Category {
    /// Lower-case label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Run => "run",
            Category::Iteration => "iteration",
            Category::Dispatch => "dispatch",
            Category::Kernel => "kernel",
            Category::Transfer => "transfer",
            Category::Resilience => "resilience",
            Category::Serve => "serve",
        }
    }
}

/// Which timeline a span's timestamps live on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Clock {
    /// The simulator's modeled seconds (the paper's reported time).
    Modeled,
    /// Host wall seconds since the recording started
    /// ([`Tracer::wall_now`]).
    Wall,
}

/// Span or point event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An interval with a duration.
    Span,
    /// A zero-duration marker.
    Instant,
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Unique per tracer; assigned in begin/record order, so a parent's id
    /// is always smaller than its children's.
    pub id: u64,
    /// Enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// Nesting depth on the recording thread (roots are 0).
    pub depth: u16,
    /// Stack layer.
    pub cat: Category,
    /// Span name (engine tier, kernel name, serve stage, ...).
    pub name: &'static str,
    /// Timeline of `start_s`/`dur_s`.
    pub clock: Clock,
    /// Rendering track: 0 = host/engine thread, `device id + 1` for
    /// device-side events. Not part of the pinned structure.
    pub track: u32,
    /// Start time in seconds on `clock`.
    pub start_s: f64,
    /// Duration in seconds (0 for instants).
    pub dur_s: f64,
    /// Span or instant.
    pub kind: Kind,
    /// Whether the span ended on an error path.
    pub err: bool,
    /// Optional small payload (iteration index, batch size, ...).
    pub arg: Option<u64>,
}

impl Event {
    /// End time in seconds on this event's clock.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }
}

/// Identity of a span that ended on an error path — enough to parent a
/// follow-up resilience event to it from another stack context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ErrorSpan {
    /// The failed span's event id.
    pub id: u64,
    /// Its recorded depth.
    pub depth: u16,
}

/// A span begun but not yet ended on some thread.
struct OpenSpan {
    id: u64,
    parent: u64,
    depth: u16,
    cat: Category,
    name: &'static str,
    clock: Clock,
    start_s: f64,
    arg: Option<u64>,
}

/// Per-thread recording state for one tracer.
#[derive(Default)]
struct ThreadState {
    stack: Vec<OpenSpan>,
    ring: Vec<Event>,
}

thread_local! {
    /// Ring buffers and span stacks, keyed by tracer key. Entries persist
    /// for the thread's lifetime; they are tiny and tests churn through
    /// tracers far too slowly for this to matter.
    static THREAD_STATES: RefCell<HashMap<usize, ThreadState>> = RefCell::new(HashMap::new());
}

/// Process-unique tracer keys for the thread-local map.
static NEXT_TRACER_KEY: AtomicUsize = AtomicUsize::new(1);

struct Inner {
    key: usize,
    /// When the recording started: the base of every wall-clock stamp.
    epoch: Instant,
    ring_capacity: usize,
    seq: AtomicU64,
    open: AtomicI64,
    dropped: AtomicU64,
    last_error: Mutex<Option<ErrorSpan>>,
    /// The in-memory sink: every flushed event, up to `max_events`.
    events: Mutex<Vec<Event>>,
    max_events: usize,
}

/// A cheap, cloneable handle to one trace recording.
///
/// All methods take `&self`; recording is thread-safe and (on the hot
/// path) lock-free: events land in a thread-local ring that is flushed to
/// the sink when full or when the thread's span stack empties.
///
/// ```
/// use glp_trace::{Category, Clock, Tracer};
/// let tracer = Tracer::new();
/// tracer.begin(Category::Run, "GLP", Clock::Modeled, 0.0);
/// tracer.complete(Category::Kernel, "pick_label", Clock::Modeled, 0.0, 1e-6);
/// tracer.end(2e-6);
/// let trace = tracer.finish();
/// assert_eq!(trace.events.len(), 2);
/// assert_eq!(trace.events[1].parent, trace.events[0].id);
/// ```
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer(#{})", self.inner.key)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Default ring size: large enough that a full BSP iteration's kernels
/// flush in one batch.
const DEFAULT_RING: usize = 256;
/// Default sink bound: events past this are counted as dropped instead of
/// growing without limit.
const DEFAULT_MAX_EVENTS: usize = 1 << 20;

impl Tracer {
    /// A tracer with the default in-memory sink and capacities.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING, DEFAULT_MAX_EVENTS)
    }

    /// A tracer with explicit per-thread ring size and sink bound.
    pub fn with_capacity(ring_capacity: usize, max_events: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                key: NEXT_TRACER_KEY.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                ring_capacity: ring_capacity.max(1),
                seq: AtomicU64::new(1),
                open: AtomicI64::new(0),
                dropped: AtomicU64::new(0),
                last_error: Mutex::new(None),
                events: Mutex::new(Vec::new()),
                max_events,
            }),
        }
    }

    fn with_state<R>(&self, f: impl FnOnce(&Inner, &mut ThreadState) -> R) -> R {
        THREAD_STATES.with(|states| {
            let mut states = states.borrow_mut();
            let state = states.entry(self.inner.key).or_default();
            f(&self.inner, state)
        })
    }

    fn next_id(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn push(inner: &Inner, state: &mut ThreadState, event: Event) {
        state.ring.push(event);
        if state.ring.len() >= inner.ring_capacity || state.stack.is_empty() {
            Self::flush_state(inner, state);
        }
    }

    fn flush_state(inner: &Inner, state: &mut ThreadState) {
        if state.ring.is_empty() {
            return;
        }
        let mut events = inner.events.lock().expect("trace sink poisoned");
        let room = inner.max_events.saturating_sub(events.len());
        let kept = state.ring.len().min(room);
        events.extend_from_slice(&state.ring[..kept]);
        drop(events);
        let lost = (state.ring.len() - kept) as u64;
        if lost > 0 {
            inner.dropped.fetch_add(lost, Ordering::Relaxed);
        }
        state.ring.clear();
    }

    /// Host wall seconds since this recording started — the one time
    /// base of [`Clock::Wall`] stamps. Every layer that stamps wall spans
    /// reads it here, so a wall span always lies inside the wall span it
    /// nests under, whichever layer opened that one.
    pub fn wall_now(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span on the calling thread's stack. Returns its event id.
    pub fn begin(&self, cat: Category, name: &'static str, clock: Clock, start_s: f64) -> u64 {
        self.begin_inner(cat, name, clock, start_s, None)
    }

    /// [`begin`](Self::begin) with a small payload (iteration index, ...).
    pub fn begin_arg(
        &self,
        cat: Category,
        name: &'static str,
        clock: Clock,
        start_s: f64,
        arg: u64,
    ) -> u64 {
        self.begin_inner(cat, name, clock, start_s, Some(arg))
    }

    fn begin_inner(
        &self,
        cat: Category,
        name: &'static str,
        clock: Clock,
        start_s: f64,
        arg: Option<u64>,
    ) -> u64 {
        let id = self.next_id();
        self.inner.open.fetch_add(1, Ordering::Relaxed);
        self.with_state(|_, state| {
            let (parent, depth) = match state.stack.last() {
                Some(top) => (top.id, top.depth + 1),
                None => (0, 0),
            };
            state.stack.push(OpenSpan {
                id,
                parent,
                depth,
                cat,
                name,
                clock,
                start_s,
                arg,
            });
        });
        id
    }

    /// Ends the innermost open span on the calling thread.
    ///
    /// # Panics
    /// Panics if no span is open on this thread (unbalanced instrumentation
    /// is a bug, not a runtime condition).
    pub fn end(&self, end_s: f64) {
        self.end_inner(end_s, false);
    }

    /// Ends the innermost open span on an error path, remembering it so a
    /// recovery layer can parent follow-up events to it via
    /// [`take_error_span`](Self::take_error_span).
    pub fn end_err(&self, end_s: f64) {
        self.end_inner(end_s, true);
    }

    fn end_inner(&self, end_s: f64, err: bool) {
        self.end_full(end_s, err, err);
    }

    fn end_full(&self, end_s: f64, err: bool, record_error: bool) {
        self.inner.open.fetch_sub(1, Ordering::Relaxed);
        self.with_state(|inner, state| {
            let open = state.stack.pop().expect("Tracer::end with no open span");
            if record_error {
                *inner.last_error.lock().expect("trace state poisoned") = Some(ErrorSpan {
                    id: open.id,
                    depth: open.depth,
                });
            }
            let event = Event {
                id: open.id,
                parent: open.parent,
                depth: open.depth,
                cat: open.cat,
                name: open.name,
                clock: open.clock,
                track: 0,
                start_s: open.start_s,
                dur_s: (end_s - open.start_s).max(0.0),
                kind: Kind::Span,
                err,
                arg: open.arg,
            };
            Self::push(inner, state, event);
        });
    }

    /// Error-path unwind: ends every span the calling thread opened above
    /// `mark` (a depth captured with [`open_depth`](Self::open_depth))
    /// innermost-first, all flagged as errors. The innermost
    /// [`Category::Iteration`] span being unwound — the iteration the
    /// fault actually interrupted — is what
    /// [`take_error_span`](Self::take_error_span) reports afterwards (the
    /// innermost span overall when no iteration span is open).
    pub fn fail_open_to(&self, mark: usize, end_s: f64) {
        let (depth, anchor) = self.with_state(|_, state| {
            let mark = mark.min(state.stack.len());
            let anchor = state.stack[mark..]
                .iter()
                .rev()
                .position(|s| s.cat == Category::Iteration)
                .map(|from_top| state.stack.len() - 1 - from_top);
            (state.stack.len(), anchor)
        });
        if depth <= mark {
            return;
        }
        let anchor = anchor.unwrap_or(depth - 1);
        for idx in (mark..depth).rev() {
            self.end_full(end_s, true, idx == anchor);
        }
    }

    /// Number of spans the calling thread currently has open.
    pub fn open_depth(&self) -> usize {
        self.with_state(|_, state| state.stack.len())
    }

    /// Consumes the most recent error span (set by
    /// [`end_err`](Self::end_err) / [`fail_open_to`](Self::fail_open_to)).
    pub fn take_error_span(&self) -> Option<ErrorSpan> {
        self.inner
            .last_error
            .lock()
            .expect("trace state poisoned")
            .take()
    }

    /// Records a complete leaf span (a kernel launch or transfer whose
    /// duration is already known), parented to the calling thread's
    /// innermost open span.
    pub fn complete(
        &self,
        cat: Category,
        name: &'static str,
        clock: Clock,
        start_s: f64,
        dur_s: f64,
    ) {
        self.complete_on(cat, name, clock, 0, start_s, dur_s);
    }

    /// [`complete`](Self::complete) on an explicit rendering track
    /// (devices pass `id + 1`).
    pub fn complete_on(
        &self,
        cat: Category,
        name: &'static str,
        clock: Clock,
        track: u32,
        start_s: f64,
        dur_s: f64,
    ) {
        let id = self.next_id();
        self.with_state(|inner, state| {
            let (parent, depth) = match state.stack.last() {
                Some(top) => (top.id, top.depth + 1),
                None => (0, 0),
            };
            let event = Event {
                id,
                parent,
                depth,
                cat,
                name,
                clock,
                track,
                start_s,
                dur_s: dur_s.max(0.0),
                kind: Kind::Span,
                err: false,
                arg: None,
            };
            Self::push(inner, state, event);
        });
    }

    /// Records a point event, parented to the calling thread's innermost
    /// open span.
    pub fn instant(&self, cat: Category, name: &'static str, clock: Clock, at_s: f64) {
        self.instant_with_parent(cat, name, clock, at_s, None);
    }

    /// Records a point event under an explicit parent (typically an
    /// [`ErrorSpan`] from [`take_error_span`](Self::take_error_span)); with
    /// `None` it parents to the thread's innermost open span.
    pub fn instant_with_parent(
        &self,
        cat: Category,
        name: &'static str,
        clock: Clock,
        at_s: f64,
        parent: Option<ErrorSpan>,
    ) {
        let id = self.next_id();
        self.with_state(|inner, state| {
            let (parent, depth) = match (parent, state.stack.last()) {
                (Some(p), _) => (p.id, p.depth + 1),
                (None, Some(top)) => (top.id, top.depth + 1),
                (None, None) => (0, 0),
            };
            let event = Event {
                id,
                parent,
                depth,
                cat,
                name,
                clock,
                track: 0,
                start_s: at_s,
                dur_s: 0.0,
                kind: Kind::Instant,
                err: false,
                arg: None,
            };
            Self::push(inner, state, event);
        });
    }

    /// Flushes the calling thread's ring to the sink. Rings also flush
    /// automatically when full or when the thread's span stack empties, so
    /// this is only needed for threads that record leaf events without
    /// ever opening a span.
    pub fn flush(&self) {
        self.with_state(Self::flush_state);
    }

    /// Events dropped at the sink bound so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Spans currently open across all threads (0 for a balanced trace).
    pub fn open_spans(&self) -> i64 {
        self.inner.open.load(Ordering::Relaxed)
    }

    /// Flushes the calling thread and drains the in-memory sink into a
    /// [`Trace`], sorted by event id (begin order). Other threads must
    /// have closed their spans (their rings flush on stack-empty).
    pub fn finish(&self) -> Trace {
        self.flush();
        let mut events =
            std::mem::take(&mut *self.inner.events.lock().expect("trace sink poisoned"));
        events.sort_by_key(|e| e.id);
        Trace {
            events,
            dropped: self.dropped(),
        }
    }
}

/// A finished recording: every flushed event, in begin order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events sorted by id (= begin/record order per thread).
    pub events: Vec<Event>,
    /// Events lost at the sink bound.
    pub dropped: u64,
}

impl Trace {
    /// The event with this id, if present.
    pub fn event(&self, id: u64) -> Option<&Event> {
        self.events
            .binary_search_by_key(&id, |e| e.id)
            .ok()
            .map(|i| &self.events[i])
    }

    /// All events with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Sum of durations over all spans with this name.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.named(name)
            .filter(|e| e.kind == Kind::Span)
            .map(|e| e.dur_s)
            .sum()
    }

    /// Sum of durations over all spans in this category.
    pub fn category_seconds(&self, cat: Category) -> f64 {
        self.events
            .iter()
            .filter(|e| e.cat == cat && e.kind == Kind::Span)
            .map(|e| e.dur_s)
            .sum()
    }

    /// Structural validity: unique ids, existing span parents with
    /// consistent depths, and — for a child sharing its parent's clock —
    /// interval containment within `eps` seconds. Returns the first
    /// violation as an error string.
    pub fn check_well_formed(&self, eps: f64) -> Result<(), String> {
        let mut by_id: HashMap<u64, &Event> = HashMap::with_capacity(self.events.len());
        for e in &self.events {
            if e.id == 0 {
                return Err(format!("event id 0 is reserved ({})", e.name));
            }
            if by_id.insert(e.id, e).is_some() {
                return Err(format!("duplicate event id {}", e.id));
            }
        }
        for e in &self.events {
            if e.parent == 0 {
                if e.depth != 0 {
                    return Err(format!("root {} has depth {}", e.name, e.depth));
                }
                continue;
            }
            let p = by_id
                .get(&e.parent)
                .ok_or_else(|| format!("{} parents missing event {}", e.name, e.parent))?;
            if p.kind != Kind::Span {
                return Err(format!("{} parents non-span {}", e.name, p.name));
            }
            if e.depth != p.depth + 1 {
                return Err(format!(
                    "{} depth {} under {} depth {}",
                    e.name, e.depth, p.name, p.depth
                ));
            }
            if p.id >= e.id {
                return Err(format!("{} begins before its parent {}", e.name, p.name));
            }
            if e.clock == p.clock && (e.start_s < p.start_s - eps || e.end_s() > p.end_s() + eps) {
                return Err(format!(
                    "{} [{}, {}] escapes parent {} [{}, {}]",
                    e.name,
                    e.start_s,
                    e.end_s(),
                    p.name,
                    p.start_s,
                    p.end_s()
                ));
            }
        }
        Ok(())
    }

    /// Durations-free structural export: one line per event, indented by
    /// nesting depth, `category:name` plus `!` for error spans and `*` for
    /// instants. Timestamps, tracks, and args are deliberately excluded so
    /// the string is byte-stable across shard counts and cost-model
    /// changes — this is what the golden-trace test pins.
    pub fn structure(&self) -> String {
        let mut children: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
        let mut roots: Vec<&Event> = Vec::new();
        for e in &self.events {
            if e.parent == 0 {
                roots.push(e);
            } else {
                children.entry(e.parent).or_default().push(e);
            }
        }
        let mut out = String::new();
        fn emit(out: &mut String, e: &Event, depth: usize, children: &BTreeMap<u64, Vec<&Event>>) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(e.cat.as_str());
            out.push(':');
            out.push_str(e.name);
            if e.err {
                out.push_str(" !");
            }
            if e.kind == Kind::Instant {
                out.push_str(" *");
            }
            out.push('\n');
            if let Some(kids) = children.get(&e.id) {
                for kid in kids {
                    emit(out, kid, depth + 1, children);
                }
            }
        }
        for root in roots {
            emit(&mut out, root, 0, &children);
        }
        out
    }

    /// Chrome trace-event JSON (the "JSON object format"): load the string
    /// in `chrome://tracing` or <https://ui.perfetto.dev>. Modeled-clock
    /// events render under pid 1, wall-clock events under pid 2; device
    /// events use their track as the tid.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(concat!(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,",
            "\"args\":{\"name\":\"modeled time\"}},",
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"tid\":0,",
            "\"args\":{\"name\":\"wall time\"}}"
        ));
        for e in &self.events {
            let pid = match e.clock {
                Clock::Modeled => 1,
                Clock::Wall => 2,
            };
            out.push(',');
            let _ = write!(
                out,
                "{{\"ph\":\"{}\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
                match e.kind {
                    Kind::Span => "X",
                    Kind::Instant => "i",
                },
                escape_json(e.name),
                e.cat.as_str(),
                e.start_s * 1e6,
                pid,
                e.track,
            );
            match e.kind {
                Kind::Span => {
                    let _ = write!(out, ",\"dur\":{}", e.dur_s * 1e6);
                }
                Kind::Instant => out.push_str(",\"s\":\"t\""),
            }
            let _ = write!(out, ",\"args\":{{\"id\":{}", e.id);
            if e.parent != 0 {
                let _ = write!(out, ",\"parent\":{}", e.parent);
            }
            if let Some(arg) = e.arg {
                let _ = write!(out, ",\"arg\":{arg}");
            }
            if e.err {
                out.push_str(",\"err\":true");
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
            self.dropped
        );
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Per-kernel aggregation: launch count and total seconds, keyed by
/// (engine tier, kernel name). Engines fill one from their devices' kernel
/// logs after every run (tracer or not), so `LpRunReport::kernel_profile`
/// is always populated; serve telemetry merges profiles across recluster
/// passes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelProfile {
    rows: BTreeMap<(&'static str, &'static str), KernelRow>,
}

/// Aggregated launches of one kernel on one engine tier.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelRow {
    /// Number of launches.
    pub count: u64,
    /// Total modeled seconds across launches.
    pub total_s: f64,
}

impl KernelProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one launch of `kernel` on `tier`.
    pub fn record(&mut self, tier: &'static str, kernel: &'static str, seconds: f64) {
        let row = self.rows.entry((tier, kernel)).or_default();
        row.count += 1;
        row.total_s += seconds;
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &KernelProfile) {
        for (&(tier, kernel), row) in &other.rows {
            let mine = self.rows.entry((tier, kernel)).or_default();
            mine.count += row.count;
            mine.total_s += row.total_s;
        }
    }

    /// Whether any launch has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of (tier, kernel) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Rows in (tier, kernel) order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, &KernelRow)> + '_ {
        self.rows.iter().map(|(&(t, k), row)| (t, k, row))
    }

    /// Total seconds across every row.
    pub fn total_seconds(&self) -> f64 {
        self.rows.values().map(|r| r.total_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn nesting_is_structural_and_ordered() {
        let t = Tracer::new();
        let run = t.begin(Category::Run, "GLP", Clock::Modeled, 0.0);
        let iter = t.begin_arg(Category::Iteration, "iteration", Clock::Modeled, 0.0, 0);
        t.complete(Category::Kernel, "pick_label", Clock::Modeled, 0.0, 0.5);
        t.instant(Category::Resilience, "snapshot", Clock::Modeled, 0.6);
        t.end(1.0); // iteration
        t.end(2.0); // run
        let trace = t.finish();
        assert_eq!(trace.events.len(), 4);
        trace.check_well_formed(1e-12).unwrap();
        let kernel = trace.named("pick_label").next().unwrap();
        assert_eq!(kernel.parent, iter);
        assert_eq!(kernel.depth, 2);
        let snap = trace.named("snapshot").next().unwrap();
        assert_eq!(snap.parent, iter);
        assert_eq!(snap.kind, Kind::Instant);
        let run_ev = trace.event(run).unwrap();
        assert_eq!(run_ev.parent, 0);
        assert_eq!(run_ev.dur_s, 2.0);
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn fail_open_to_unwinds_innermost_first_and_records_error_span() {
        let t = Tracer::new();
        let mark = t.open_depth();
        t.begin(Category::Run, "GLP", Clock::Modeled, 0.0);
        let iter = t.begin(Category::Iteration, "iteration", Clock::Modeled, 0.1);
        t.begin(Category::Dispatch, "dispatch", Clock::Modeled, 0.2);
        t.fail_open_to(mark, 0.5);
        assert_eq!(t.open_depth(), 0);
        let err = t.take_error_span().expect("error span recorded");
        assert_eq!(err.id, iter, "the failed *iteration* is the anchor");
        assert_eq!(err.depth, 1);
        assert!(t.take_error_span().is_none(), "consumed once");
        t.instant_with_parent(Category::Resilience, "degrade", Clock::Wall, 0.6, Some(err));
        let trace = t.finish();
        trace.check_well_formed(1e-12).unwrap();
        assert!(trace
            .events
            .iter()
            .all(|e| e.kind == Kind::Instant || e.err));
        let degrade = trace.named("degrade").next().unwrap();
        assert_eq!(degrade.parent, iter);
    }

    #[test]
    fn rings_flush_across_threads() {
        let t = Tracer::with_capacity(4, 1 << 16);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                thread::spawn(move || {
                    t.begin(Category::Serve, "apply", Clock::Wall, 0.0);
                    for _ in 0..10 {
                        t.complete(Category::Kernel, "update_vertex", Clock::Modeled, 0.0, 0.1);
                    }
                    t.end(1.0);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = t.finish();
        assert_eq!(trace.events.len(), 44);
        assert_eq!(trace.dropped, 0);
        trace.check_well_formed(1e-12).unwrap();
        // ids are unique and sorted even across threads
        assert!(trace.events.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn sink_bound_counts_dropped() {
        let t = Tracer::with_capacity(2, 3);
        for _ in 0..5 {
            t.instant(Category::Serve, "ingest", Clock::Wall, 0.0);
        }
        let trace = t.finish();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.dropped, 2);
    }

    #[test]
    fn structure_excludes_durations() {
        let build = |scale: f64| {
            let t = Tracer::new();
            t.begin(Category::Run, "GLP", Clock::Modeled, 0.0);
            t.complete(Category::Kernel, "pick_label", Clock::Modeled, 0.0, scale);
            t.end(2.0 * scale);
            t.finish().structure()
        };
        let a = build(1.0);
        let b = build(123.456);
        assert_eq!(a, b, "structure must not depend on timings");
        assert_eq!(a, "run:GLP\n  kernel:pick_label\n");
    }

    #[test]
    fn chrome_json_is_valid_and_scaled_to_micros() {
        let t = Tracer::new();
        t.begin(Category::Run, "GLP", Clock::Modeled, 0.0);
        t.complete(Category::Kernel, "pick_label", Clock::Modeled, 0.25, 0.5);
        t.instant(Category::Resilience, "retry", Clock::Wall, 1.0);
        t.end(2.0);
        let json = t.finish().chrome_json();
        let value = serde_json::from_str(&json).expect("chrome export parses");
        let events = value["traceEvents"].as_array().unwrap();
        // 2 metadata + 3 recorded
        assert_eq!(events.len(), 5);
        let kernel = events
            .iter()
            .find(|e| e["name"].as_str() == Some("pick_label"))
            .unwrap();
        assert_eq!(kernel["ph"].as_str(), Some("X"));
        assert!((kernel["ts"].as_f64().unwrap() - 0.25e6).abs() < 1e-6);
        assert!((kernel["dur"].as_f64().unwrap() - 0.5e6).abs() < 1e-6);
        assert_eq!(kernel["pid"].as_u64(), Some(1));
        let retry = events
            .iter()
            .find(|e| e["name"].as_str() == Some("retry"))
            .unwrap();
        assert_eq!(retry["ph"].as_str(), Some("i"));
        assert_eq!(retry["pid"].as_u64(), Some(2), "wall clock renders apart");
    }

    #[test]
    fn well_formedness_catches_escaping_child() {
        let trace = Trace {
            events: vec![
                Event {
                    id: 1,
                    parent: 0,
                    depth: 0,
                    cat: Category::Run,
                    name: "GLP",
                    clock: Clock::Modeled,
                    track: 0,
                    start_s: 0.0,
                    dur_s: 1.0,
                    kind: Kind::Span,
                    err: false,
                    arg: None,
                },
                Event {
                    id: 2,
                    parent: 1,
                    depth: 1,
                    cat: Category::Kernel,
                    name: "late",
                    clock: Clock::Modeled,
                    track: 0,
                    start_s: 0.9,
                    dur_s: 0.5,
                    kind: Kind::Span,
                    err: false,
                    arg: None,
                },
            ],
            dropped: 0,
        };
        let err = trace.check_well_formed(1e-9).unwrap_err();
        assert!(err.contains("escapes"), "{err}");
    }

    #[test]
    fn kernel_profile_aggregates_by_tier_and_kernel() {
        let mut p = KernelProfile::new();
        p.record("GLP", "pick_label", 0.2);
        p.record("GLP", "pick_label", 0.4);
        p.record("GLP", "pick_label", 0.3);
        p.record("GLP-hybrid", "pick_label", 1.0);
        let mut other = KernelProfile::new();
        other.record("GLP", "pick_label", 0.1);
        p.merge(&other);
        assert_eq!(p.len(), 2);
        let (tier, kernel, row) = p.rows().next().unwrap();
        assert_eq!((tier, kernel), ("GLP", "pick_label"));
        assert_eq!(row.count, 4);
        assert!((row.total_s - 1.0).abs() < 1e-12);
        assert!((p.total_seconds() - 2.0).abs() < 1e-12);
    }
}
