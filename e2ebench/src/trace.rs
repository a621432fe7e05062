//! Layer spans recorded from the benchmark's side of each layer boundary.
//!
//! A span covers one call into a layer's public API. Synchronous calls are
//! timed directly; futures are timed per `poll`, so a span's *busy* time
//! is the time the rank actually ran inside it and its *elapsed* time
//! (first poll to completion) also covers the time it stayed parked.
//!
//! Spans nest on a per-thread stack. Under the task runtime a rank runs on
//! one worker thread for the whole of a poll, so everything a poll does —
//! the nested layer calls included — lands on that thread's stack, and a
//! span's *self* time is its busy time minus the busy time of the spans
//! nested inside it. Every span kind accumulates into one [`Tracer`]
//! shared by the whole world.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::task::Context;
use std::time::Instant;

/// What a span covers. Each kind is owned by exactly one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// A whole rank future: the rank's busy time.
    Root,
    /// The benchmark's own work inside a rank: phase barriers, read-back
    /// comparison, serial checks.
    Bench,
    /// `simmpi` collective call.
    Coll,
    /// `simmpi` point-to-point call (`send`, `recv`, `try_recv`, `recycle`).
    P2p,
    /// `sion::par` collective write open.
    ParOpen,
    /// `sion::par` collective write close.
    ParClose,
    /// `sion::par` collective read open.
    ParReadOpen,
    /// `sion::par` read-side close.
    ParReadClose,
    /// Stream engine: `SionParWriter::write`/`flush` on a rank that writes
    /// its own chunks (independent writer or aggregator).
    StreamWrite,
    /// Stream engine: `SionParReader::read`.
    StreamRead,
    /// `SionParWriter::write`/`flush` on an aggregation member.
    AggMemberWrite,
    /// Any `Vfs`/`VfsFile` call.
    Vfs,
    /// `sion::Multifile::open`.
    SerialOpen,
    /// `sion::Multifile::seek_logical` + `read_at`.
    SerialLookup,
}

pub const SPAN_KINDS: usize = 14;

impl Span {
    pub const ALL: [Span; SPAN_KINDS] = [
        Span::Root,
        Span::Bench,
        Span::Coll,
        Span::P2p,
        Span::ParOpen,
        Span::ParClose,
        Span::ParReadOpen,
        Span::ParReadClose,
        Span::StreamWrite,
        Span::StreamRead,
        Span::AggMemberWrite,
        Span::Vfs,
        Span::SerialOpen,
        Span::SerialLookup,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Totals of one span kind, in nanoseconds summed over ranks.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    /// Completed calls.
    pub calls: u64,
    /// Time the rank ran inside the span, nested spans included.
    pub busy_ns: u64,
    /// `busy_ns` minus the busy time of nested spans.
    pub self_ns: u64,
    /// First poll to completion (equals `busy_ns` for synchronous calls).
    pub elapsed_ns: u64,
}

impl SpanTotals {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Time spent parked inside the span.
    pub fn wait_s(&self) -> f64 {
        self.elapsed_ns.saturating_sub(self.busy_ns) as f64 * 1e-9
    }

    fn minus(&self, base: &SpanTotals) -> SpanTotals {
        SpanTotals {
            calls: self.calls - base.calls,
            busy_ns: self.busy_ns - base.busy_ns,
            self_ns: self.self_ns - base.self_ns,
            elapsed_ns: self.elapsed_ns - base.elapsed_ns,
        }
    }
}

/// Extra attribution the span kinds alone cannot express.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Extras {
    /// Parked time of aggregation acknowledgement receives.
    pub ack_wait_ns: u64,
    /// Busy time of write closes on aggregator ranks (replay included).
    pub aggregator_close_busy_ns: u64,
    /// Payload bytes of point-to-point sends.
    pub p2p_bytes: u64,
    /// The tracer's own time closing spans.
    pub bookkeeping_ns: u64,
    /// The part of [`Span::Root`]'s self time spent re-entering a rank's
    /// future chain down to its first call of the poll and leaving it
    /// after its last: the task runtime's cost of resuming a parked rank.
    pub resume_ns: u64,
}

// Counter slots: four per span kind (calls, busy, self, elapsed), then
// the extras.
const CALLS: usize = 0;
const BUSY: usize = 1;
const SELF: usize = 2;
const ELAPSED: usize = 3;
const ACK_WAIT: usize = 4 * SPAN_KINDS;
const AGGREGATOR_CLOSE_BUSY: usize = ACK_WAIT + 1;
const P2P_BYTES: usize = ACK_WAIT + 2;
const BOOKKEEPING: usize = ACK_WAIT + 3;
const RESUME: usize = ACK_WAIT + 4;
const SLOTS: usize = RESUME + 1;

/// Span accumulators of one traced world.
pub struct Tracer {
    counters: [AtomicU64; SLOTS],
    /// Rank roles, learned from the layers: set when a rank's write open
    /// asks the VFS for a shadow file, which only aggregation members do.
    member: Vec<AtomicBool>,
}

/// A point-in-time copy of a [`Tracer`]'s accumulators.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Snapshot {
    pub spans: [SpanTotals; SPAN_KINDS],
    pub extras: Extras,
}

impl Snapshot {
    pub fn span(&self, s: Span) -> SpanTotals {
        self.spans[s.index()]
    }

    /// Accumulation between `base` and `self`.
    pub fn minus(&self, base: &Snapshot) -> Snapshot {
        let mut spans = [SpanTotals::default(); SPAN_KINDS];
        for (i, s) in spans.iter_mut().enumerate() {
            *s = self.spans[i].minus(&base.spans[i]);
        }
        Snapshot {
            spans,
            extras: Extras {
                ack_wait_ns: self.extras.ack_wait_ns - base.extras.ack_wait_ns,
                aggregator_close_busy_ns: self.extras.aggregator_close_busy_ns
                    - base.extras.aggregator_close_busy_ns,
                p2p_bytes: self.extras.p2p_bytes - base.extras.p2p_bytes,
                bookkeeping_ns: self.extras.bookkeeping_ns - base.extras.bookkeeping_ns,
                resume_ns: self.extras.resume_ns - base.extras.resume_ns,
            },
        }
    }
}

struct Frame {
    start: Instant,
    child_ns: u64,
    /// When the first nested span of this poll started and the last one
    /// ended: a [`Span::Root`] frame's time before the first and after the
    /// last is the runtime re-entering and leaving the rank's future chain.
    first_child: Option<Instant>,
    last_done: Option<Instant>,
}

impl Frame {
    fn new(start: Instant) -> Frame {
        Frame {
            start,
            child_ns: 0,
            first_child: None,
            last_done: None,
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static RANK: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The rank whose future this thread is polling (`usize::MAX` outside one).
pub fn current_rank() -> usize {
    RANK.with(|r| r.get())
}

fn push() -> Instant {
    let start = Instant::now();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(parent) = s.last_mut() {
            parent.first_child.get_or_insert(start);
        }
        s.push(Frame::new(start));
    });
    start
}

fn nanos(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

impl Tracer {
    pub fn new(ranks: usize) -> Tracer {
        Tracer {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            member: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn add(&self, slot: usize, v: u64) {
        self.counters[slot].fetch_add(v, Relaxed);
    }

    fn record(&self, kind: Span, busy: u64, self_ns: u64) {
        self.add(4 * kind.index() + BUSY, busy);
        self.add(4 * kind.index() + SELF, self_ns);
    }

    /// Close the innermost frame as a `kind` span; `first` is the start of
    /// the call when it completes with this frame. Returns the frame's busy
    /// time and, on completion, the call's elapsed time. The bookkeeping
    /// after the span's end is charged to [`Extras::bookkeeping_ns`], not to
    /// the parent, so tracing does not inflate the parents' self times.
    fn pop(&self, kind: Span, first: Option<Instant>) -> (u64, u64) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            let f = s.pop().expect("span stack underflow");
            let end = Instant::now();
            let busy = nanos(end - f.start);
            self.record(kind, busy, busy.saturating_sub(f.child_ns));
            if kind == Span::Root {
                let enter = f.first_child.unwrap_or(end) - f.start;
                let leave = end - f.last_done.unwrap_or(end);
                self.add(RESUME, nanos(enter + leave));
            }
            let elapsed = first.map_or(0, |t| {
                let elapsed = nanos(end - t);
                self.add(4 * kind.index() + CALLS, 1);
                self.add(4 * kind.index() + ELAPSED, elapsed);
                elapsed
            });
            let done = Instant::now();
            self.add(BOOKKEEPING, nanos(done - end));
            if let Some(parent) = s.last_mut() {
                parent.child_ns += nanos(done - f.start);
                parent.last_done = Some(done);
            }
            (busy, elapsed)
        })
    }

    /// Time a synchronous call as one `kind` span; returns its busy time
    /// in nanoseconds with the call's result.
    pub fn sync<T>(&self, kind: Span, f: impl FnOnce() -> T) -> (T, u64) {
        let start = push();
        let out = f();
        let (busy, _) = self.pop(kind, Some(start));
        (out, busy)
    }

    pub fn add_ack_wait(&self, ns: u64) {
        self.add(ACK_WAIT, ns);
    }

    pub fn add_aggregator_close_busy(&self, ns: u64) {
        self.add(AGGREGATOR_CLOSE_BUSY, ns);
    }

    pub fn add_p2p_bytes(&self, n: u64) {
        self.add(P2P_BYTES, n);
    }

    /// Mark the rank this thread is polling as an aggregation member.
    pub fn note_shadow_open(&self) {
        if let Some(m) = self.member.get(current_rank()) {
            m.store(true, Relaxed);
        }
    }

    pub fn is_member(&self, rank: usize) -> bool {
        self.member[rank].load(Relaxed)
    }

    /// Copy the accumulators. Called from a rank at the top level of its
    /// body (only its [`Span::Root`] frame open) while every other rank is
    /// parked, so no span straddles the copy: the caller's own root frame
    /// is charged up to now and restarted.
    pub fn snapshot(&self) -> Snapshot {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            assert!(s.len() <= 1, "snapshot taken inside a span");
            if let Some(root) = s.first_mut() {
                let busy = root.start.elapsed().as_nanos() as u64;
                self.record(Span::Root, busy, busy.saturating_sub(root.child_ns));
                *root = Frame::new(Instant::now());
            }
        });
        let c: [u64; SLOTS] = std::array::from_fn(|i| self.counters[i].load(Relaxed));
        let mut spans = [SpanTotals::default(); SPAN_KINDS];
        for (i, s) in spans.iter_mut().enumerate() {
            *s = SpanTotals {
                calls: c[4 * i + CALLS],
                busy_ns: c[4 * i + BUSY],
                self_ns: c[4 * i + SELF],
                elapsed_ns: c[4 * i + ELAPSED],
            };
        }
        Snapshot {
            spans,
            extras: Extras {
                ack_wait_ns: c[ACK_WAIT],
                aggregator_close_busy_ns: c[AGGREGATOR_CLOSE_BUSY],
                p2p_bytes: c[P2P_BYTES],
                bookkeeping_ns: c[BOOKKEEPING],
                resume_ns: c[RESUME],
            },
        }
    }
}

/// Busy and elapsed time of one completed [`timed`] call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Times {
    pub busy_ns: u64,
    pub elapsed_ns: u64,
}

/// Run `fut` timed per poll as one `kind` span. With no tracer the
/// future is awaited as is.
pub async fn timed<F: Future>(tracer: Option<&Tracer>, kind: Span, fut: F) -> (F::Output, Times) {
    timed_as(tracer, kind, usize::MAX, fut).await
}

/// A rank's whole body: [`Span::Root`], publishing `rank` to
/// [`current_rank`] while polled.
pub async fn root<F: Future>(tracer: Option<&Tracer>, rank: usize, fut: F) -> F::Output {
    timed_as(tracer, Span::Root, rank, fut).await.0
}

async fn timed_as<F: Future>(
    tracer: Option<&Tracer>,
    kind: Span,
    rank: usize,
    fut: F,
) -> (F::Output, Times) {
    let Some(tracer) = tracer else {
        return (fut.await, Times::default());
    };
    let mut fut = std::pin::pin!(fut);
    let first = Instant::now();
    let mut busy_ns = 0;
    std::future::poll_fn(|cx: &mut Context<'_>| {
        if kind == Span::Root {
            RANK.with(|r| r.set(rank));
        }
        push();
        let out = fut.as_mut().poll(cx);
        let (busy, elapsed_ns) = tracer.pop(kind, out.is_ready().then_some(first));
        busy_ns += busy;
        if kind == Span::Root {
            RANK.with(|r| r.set(usize::MAX));
        }
        out.map(|v| {
            (
                v,
                Times {
                    busy_ns,
                    elapsed_ns,
                },
            )
        })
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_busy_into_self_times() {
        let t = Tracer::new(1);
        let ((), outer) = t.sync(Span::Bench, || {
            t.sync(Span::Vfs, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let s = t.snapshot();
        let bench = s.span(Span::Bench);
        let vfs = s.span(Span::Vfs);
        assert_eq!(bench.busy_ns, outer);
        // The parent's nested time is the child's busy time plus the
        // child's bookkeeping, which is charged to the tracer instead.
        let nested = bench.busy_ns - bench.self_ns;
        assert!(nested >= vfs.busy_ns);
        assert!(nested - vfs.busy_ns <= s.extras.bookkeeping_ns);
        assert!(vfs.busy_ns >= 5_000_000);
        assert_eq!((bench.calls, vfs.calls), (1, 1));
    }
}
