//! One task world running closed-loop checkpoint/restart cycles.
//!
//! Every rank runs the same cycle: collective write open, its record
//! stream, collective close, collective read open, read-back, read close.
//! Each rank compares its read-back bytes with its input right after its
//! read phase ends, outside the phase's time. Each phase starts at a world
//! barrier issued on a benchmark-private communicator; a phase's time runs
//! from the first rank leaving that barrier to the last rank leaving the
//! phase. Rank 0 then checks the produced multifile serially (open,
//! lookups, `sionverify`, file sizes), removes it, and decides whether
//! another cycle fits the time budget. Cycle 0 is the warm-up: it counts
//! toward set-up time and is excluded from every metric.

use crate::timed_comm::TimedComm;
use crate::timed_vfs::{TimedVfs, VfsCounts};
use crate::trace::{self, timed, Snapshot, Span, Tracer};
use crate::workload::{Inputs, Spec};
use crate::WORKERS;
use simmpi::{CoComm, CommStats, SchedPolicy, SchedStats, TaskComm, TaskWorld};
use sion::{AggStats, IoCounters, Multifile, SionParReader, SionParWriter};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vfs::Vfs;

/// The phases of a cycle, in order.
pub const PHASES: [&str; 6] = [
    "open_write",
    "write",
    "close_write",
    "open_read",
    "read",
    "close_read",
];

/// Serial `Multifile::open` calls per cycle.
pub const SERIAL_OPENS: usize = 64;

/// Wall-clock times of one cycle's phases, in seconds.
#[derive(Debug, Clone, Default)]
pub struct CycleTimes {
    pub phase: [f64; 6],
}

impl CycleTimes {
    /// Write open to write close.
    pub fn write_s(&self) -> f64 {
        self.phase[0] + self.phase[1] + self.phase[2]
    }

    /// Read open to read close.
    pub fn read_s(&self) -> f64 {
        self.phase[3] + self.phase[4] + self.phase[5]
    }
}

/// Operation and byte counts of one cycle, summed over ranks, that do not
/// depend on the schedule: a traced and an untraced run of the same inputs
/// must produce identical ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub write_io: IoCounters,
    pub read_io: IoCounters,
    pub agg: AggStats,
    /// `CommStats` of the world communicator (this cycle's share) and of
    /// the communicators the writer and reader expose: barriers, bcasts,
    /// gathers, scatters, allgathers, reduces, splits, sends, recvs,
    /// bytes sent.
    pub comm: [u64; 10],
    /// Bytes of the multifile's physical files.
    pub file_bytes: u64,
}

/// Per-role sums, known only to a traced run (roles come from the trace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoleCounts {
    pub member_agg: AggStats,
    pub member_user_bytes: u64,
}

/// Everything recorded about one measured cycle.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    pub times: CycleTimes,
    pub counts: Counts,
    pub roles: RoleCounts,
    /// VFS reads issued by one serial `Multifile::open` (traced runs).
    pub serial_open_reads: u64,
    /// VFS reads issued by all serial lookups (traced runs).
    pub lookup_reads: u64,
}

/// Trace data of a traced world's measured cycles.
pub struct TraceOut {
    pub spans: Snapshot,
    pub vfs: VfsCounts,
    /// Wall time of the measured cycles.
    pub wall_s: f64,
}

/// Outcome of one world.
pub struct WorldOut {
    /// Input generation through the end of the warm-up cycle.
    pub setup_s: f64,
    pub cycles: Vec<Cycle>,
    /// Latency of every serial lookup of the measured cycles.
    pub lookup_us: Vec<f64>,
    /// Duration of every serial `Multifile::open` of the measured cycles.
    pub serial_open_s: Vec<f64>,
    pub sched: SchedStats,
    pub trace: Option<TraceOut>,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the report (first few only).
    pub failures: Vec<String>,
}

/// How long to keep cycling after the warm-up: until `time` has passed
/// and at least `min_cycles` measured cycles ran.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub time: Duration,
    pub min_cycles: usize,
}

impl Budget {
    /// Stop after the warm-up cycle.
    pub const WARMUP_ONLY: Budget = Budget {
        time: Duration::ZERO,
        min_cycles: 0,
    };
}

/// One rank's phase stamps.
#[derive(Default)]
struct RankStamps([AtomicU64; 2 * PHASES.len()]);

thread_local! {
    /// Where a rank's read-back lands: one buffer per worker thread, grown
    /// in the warm-up cycle and reused, so the timed reads neither
    /// allocate nor fault pages in. A rank uses it only between two
    /// awaits, so no other rank on the thread touches it meanwhile.
    static READ_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

struct Shared<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    /// The backend, undecorated: serial checks and cleanup.
    raw_fs: &'a dyn Vfs,
    /// In a traced run, what the parallel program sees.
    par_timed: Option<&'a TimedVfs>,
    /// In a traced run, what the serial opens and lookups see.
    serial_timed: Option<&'a TimedVfs>,
    tracer: Option<&'a Arc<Tracer>>,
    budget: Budget,
    setup_start: Instant,
    epoch: Instant,
    /// Per rank and phase: when the rank left the phase's barrier and
    /// when it finished the phase, in nanoseconds since `epoch`.
    stamps: Vec<RankStamps>,
    counts: Mutex<(Counts, RoleCounts)>,
    attempted: AtomicU64,
    failed: AtomicU64,
    out: Mutex<RankZero>,
}

/// What rank 0 collects across cycles.
#[derive(Default)]
struct RankZero {
    setup_s: f64,
    cycles: Vec<Cycle>,
    lookup_us: Vec<f64>,
    serial_open_s: Vec<f64>,
    failures: Vec<String>,
    trace_base: Option<(Snapshot, VfsCounts, Instant)>,
}

impl Shared<'_> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn stamp(&self, rank: usize, p: usize, end: bool) {
        self.stamps[rank].0[2 * p + end as usize].store(self.now(), Relaxed);
    }

    /// First rank leaving the barrier to last rank leaving the phase.
    fn phase_seconds(&self, p: usize) -> f64 {
        let first = self
            .stamps
            .iter()
            .map(|s| s.0[2 * p].load(Relaxed))
            .min()
            .unwrap_or(0);
        let last = self
            .stamps
            .iter()
            .map(|s| s.0[2 * p + 1].load(Relaxed))
            .max()
            .unwrap_or(0);
        last.saturating_sub(first) as f64 * 1e-9
    }

    fn par_fs(&self) -> &dyn Vfs {
        self.par_timed.map_or(self.raw_fs, |t| t)
    }

    fn serial_fs(&self) -> &dyn Vfs {
        self.serial_timed.map_or(self.raw_fs, |t| t)
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.map(|t| t.as_ref())
    }

    fn note_failure(&self, msg: String) {
        let mut out = self.out.lock().expect("result lock");
        if out.failures.len() < 8 {
            out.failures.push(msg);
        }
    }

    /// Count one operation; a failed one is noted with `what`.
    fn attempt<T, E: std::fmt::Display>(&self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted.fetch_add(1, Relaxed);
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed.fetch_add(1, Relaxed);
                self.note_failure(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one check; a failed one is noted with `what()`.
    fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Relaxed);
        if !ok {
            self.failed.fetch_add(1, Relaxed);
            self.note_failure(what());
        }
    }

    /// Run a synchronous call as a `kind` span when tracing.
    fn sync<T>(&self, kind: Span, f: impl FnOnce() -> T) -> T {
        match self.tracer() {
            Some(t) => t.sync(kind, f).0,
            None => f(),
        }
    }
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        add_io(&mut self.write_io, &o.write_io);
        add_io(&mut self.read_io, &o.read_io);
        add_agg(&mut self.agg, &o.agg);
        for (x, y) in self.comm.iter_mut().zip(o.comm) {
            *x += y;
        }
        self.file_bytes += o.file_bytes;
    }
}

impl RoleCounts {
    pub fn add(&mut self, o: &RoleCounts) {
        add_agg(&mut self.member_agg, &o.member_agg);
        self.member_user_bytes += o.member_user_bytes;
    }
}

fn add_io(a: &mut IoCounters, b: &IoCounters) {
    a.user_calls += b.user_calls;
    a.vfs_calls += b.vfs_calls;
    a.vfs_bytes += b.vfs_bytes;
    a.flushes += b.flushes;
    a.rescue_patches += b.rescue_patches;
    a.bytes_copied += b.bytes_copied;
    a.allocs += b.allocs;
    a.vectored_writes += b.vectored_writes;
}

fn add_agg(a: &mut AggStats, b: &AggStats) {
    a.shipments += b.shipments;
    a.acked_shipments += b.acked_shipments;
    a.shipped_bytes += b.shipped_bytes;
    a.acked_bytes += b.acked_bytes;
}

fn comm_counts(s: &CommStats) -> [u64; 10] {
    [
        s.barriers(),
        s.bcasts(),
        s.gathers(),
        s.scatters(),
        s.allgathers(),
        s.reduces(),
        s.splits(),
        s.sends(),
        s.recvs(),
        s.bytes_sent(),
    ]
}

fn add_comm(a: &mut [u64; 10], s: Option<Arc<CommStats>>) {
    if let Some(s) = s {
        for (x, y) in a.iter_mut().zip(comm_counts(&s)) {
            *x += y;
        }
    }
}

/// Run one world of `spec.ranks` ranks on [`WORKERS`] work-stealing
/// workers over the file system `fs`. `setup_start` is when this set-up
/// began (before input generation).
pub fn run_world(
    spec: &Spec,
    inputs: &Inputs,
    fs: Arc<dyn Vfs>,
    traced: bool,
    budget: Budget,
    setup_start: Instant,
) -> WorldOut {
    let tracer = traced.then(|| Arc::new(Tracer::new(spec.ranks)));
    let par_timed = tracer
        .as_ref()
        .map(|t| TimedVfs::new(fs.clone(), t.clone()));
    let serial_timed = tracer
        .as_ref()
        .map(|t| TimedVfs::new(fs.clone(), t.clone()));
    let raw_fs: &dyn Vfs = fs.as_ref();
    let sh = Shared {
        spec,
        inputs,
        raw_fs,
        par_timed: par_timed.as_ref(),
        serial_timed: serial_timed.as_ref(),
        tracer: tracer.as_ref(),
        budget,
        setup_start,
        epoch: Instant::now(),
        stamps: (0..spec.ranks).map(|_| RankStamps::default()).collect(),
        counts: Mutex::default(),
        attempted: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        out: Mutex::default(),
    };
    let sh = &sh;
    let (_, sched) = TaskWorld::run_with(
        SchedPolicy::WorkSteal { workers: WORKERS },
        spec.ranks,
        |c: TaskComm| async move {
            let rank = c.rank();
            match sh.tracer {
                Some(t) => {
                    let tc = TimedComm::new(Box::new(c), t.clone());
                    trace::root(sh.tracer(), rank, rank_main(sh, tc.inner(), &tc)).await;
                }
                None => rank_main(sh, &c, &c).await,
            }
        },
    );
    let end = Instant::now();
    let out = std::mem::take(&mut *sh.out.lock().expect("result lock"));
    let trace = match (sh.tracer, out.trace_base) {
        (Some(t), Some((spans, vfs, start))) => Some(TraceOut {
            spans: t.snapshot().minus(&spans),
            vfs: sh.par_timed.expect("traced").stats().counts().minus(&vfs),
            wall_s: (end - start).as_secs_f64(),
        }),
        _ => None,
    };
    WorldOut {
        setup_s: out.setup_s,
        cycles: out.cycles,
        lookup_us: out.lookup_us,
        serial_open_s: out.serial_open_s,
        sched,
        trace,
        attempted: sh.attempted.load(Relaxed),
        failed: sh.failed.load(Relaxed),
        failures: out.failures,
    }
}

/// A rank's whole life: `raw` is the undecorated world communicator the
/// benchmark synchronizes on, `comm` what the program under test gets.
async fn rank_main(sh: &Shared<'_>, raw: &dyn CoComm, comm: &dyn CoComm) {
    let rank = raw.rank();
    let t = sh.tracer();
    // Phase barriers run on a private duplicate, so the world
    // communicator's counters hold the program's own traffic only.
    let (bench, _) = timed(t, Span::Bench, raw.split(0, rank as u64)).await;
    let world_stats = raw.stats();
    let mut cycle = 0usize;
    let mut measure_start = Instant::now();
    loop {
        let before = world_stats.as_deref().map(comm_counts);
        run_cycle(sh, bench.as_ref(), comm, rank, cycle).await;
        if let (Some(s), Some(b)) = (world_stats.as_deref(), before) {
            sh.sync(Span::Bench, || {
                let mut counts = sh.counts.lock().expect("counts lock");
                for ((x, now), b) in counts.0.comm.iter_mut().zip(comm_counts(s)).zip(b) {
                    *x += now - b;
                }
            });
        }
        timed(t, Span::Bench, bench.barrier()).await;
        let go = if rank == 0 {
            rank_zero_cycle_end(sh, cycle);
            if cycle == 0 {
                // End of set-up. Open the trace window while every other
                // rank is parked in the broadcast below.
                let mut out = sh.out.lock().expect("result lock");
                out.setup_s = sh.setup_start.elapsed().as_secs_f64();
                if let (Some(tr), Some(v)) = (sh.tracer, sh.par_timed) {
                    out.trace_base = Some((tr.snapshot(), v.stats().counts(), Instant::now()));
                }
                measure_start = Instant::now();
            }
            let b = sh.budget;
            let more = cycle < b.min_cycles || measure_start.elapsed() < b.time;
            Some(more as u64)
        } else {
            None
        };
        let (go, _) = timed(t, Span::Bench, bench.bcast_u64(go, 0)).await;
        if go == 0 {
            break;
        }
        cycle += 1;
    }
}

fn base_name(spec: &Spec, cycle: usize) -> String {
    format!("c{cycle}/{}.sion", spec.name)
}

async fn phase_barrier(sh: &Shared<'_>, bench: &dyn CoComm, p: usize) {
    timed(sh.tracer(), Span::Bench, bench.barrier()).await;
    sh.stamp(bench.rank(), p, false);
}

async fn run_cycle(
    sh: &Shared<'_>,
    bench: &dyn CoComm,
    comm: &dyn CoComm,
    rank: usize,
    cycle: usize,
) {
    let spec = sh.spec;
    let t = sh.tracer();
    let base = base_name(spec, cycle);
    let params = spec.params();
    let data = sh.inputs.expected(rank);
    let mut counts = Counts::default();
    let mut roles = RoleCounts::default();

    phase_barrier(sh, bench, 0).await;
    let (opened, _) = timed(
        t,
        Span::ParOpen,
        sion::paropen_write_co(sh.par_fs(), &base, &params, comm),
    )
    .await;
    sh.stamp(rank, 0, true);
    let mut writer = sh.attempt("write open", opened);
    let member = t.is_some_and(|t| t.is_member(rank));
    let write_span = if member {
        Span::AggMemberWrite
    } else {
        Span::StreamWrite
    };

    phase_barrier(sh, bench, 1).await;
    if let Some(w) = &mut writer {
        // The loop around the calls is the benchmark's own work.
        sh.sync(Span::Bench, || write_stream(sh, w, rank, write_span));
    }
    sh.stamp(rank, 1, true);

    phase_barrier(sh, bench, 2).await;
    let (closed, close_times) = match writer {
        Some(w) => {
            // The handles keep counting through the close.
            let handles = [w.local_comm_stats(), w.global_comm_stats()];
            let (r, times) = timed(t, Span::ParClose, w.close_co()).await;
            handles
                .into_iter()
                .for_each(|h| add_comm(&mut counts.comm, h));
            (Some(r), times)
        }
        None => (None, Default::default()),
    };
    sh.stamp(rank, 2, true);
    if let Some(cs) = closed.and_then(|r| sh.attempt("write close", r)) {
        sh.check(cs.user_bytes == data.len() as u64, || {
            format!("rank {rank}: close reports {} user bytes", cs.user_bytes)
        });
        add_io(&mut counts.write_io, &cs.write_io);
        add_agg(&mut counts.agg, &cs.agg);
        if let Some(t) = t {
            if member {
                add_agg(&mut roles.member_agg, &cs.agg);
                roles.member_user_bytes += cs.user_bytes;
            } else if cs.agg.shipments > 0 {
                t.add_aggregator_close_busy(close_times.busy_ns);
            }
        }
    }

    phase_barrier(sh, bench, 3).await;
    let (opened, _) = timed(
        t,
        Span::ParReadOpen,
        sion::paropen_read_co(sh.par_fs(), &base, comm),
    )
    .await;
    sh.stamp(rank, 3, true);
    let mut reader = sh.attempt("read open", opened);

    let len = data.len();
    READ_BUF.with_borrow_mut(|b| b.resize(len.max(b.len()), 0));
    phase_barrier(sh, bench, 4).await;
    let got = reader.as_mut().map(|r| {
        READ_BUF.with_borrow_mut(|b| sh.sync(Span::Bench, || read_back(sh, r, &mut b[..len])))
    });
    sh.stamp(rank, 4, true);
    if let (Some(got), Some(r)) = (got, &reader) {
        sh.sync(Span::Bench, || {
            READ_BUF.with_borrow(|b| check_read_back(sh, rank, &b[..got]))
        });
        add_io(&mut counts.read_io, &r.io_counters());
    }

    phase_barrier(sh, bench, 5).await;
    let closed = match reader {
        Some(r) => {
            let handles = [r.local_comm_stats(), r.global_comm_stats()];
            let closed = timed(t, Span::ParReadClose, r.close_co()).await.0;
            handles
                .into_iter()
                .for_each(|h| add_comm(&mut counts.comm, h));
            Some(closed)
        }
        None => None,
    };
    sh.stamp(rank, 5, true);
    if let Some(r) = closed {
        sh.attempt("read close", r);
    }

    sh.sync(Span::Bench, || {
        let mut all = sh.counts.lock().expect("counts lock");
        all.0.add(&counts);
        all.1.add(&roles);
    });
}

/// Write `rank`'s record stream, with an explicit flush every
/// `flush_every` bytes; each call is a `span` span.
fn write_stream(sh: &Shared<'_>, w: &mut SionParWriter, rank: usize, span: Span) {
    let data = sh.inputs.expected(rank);
    let every = sh.spec.flush_every as usize;
    let mut off = 0usize;
    let mut next_flush = every;
    for &len in &sh.inputs.records[rank] {
        let rec = &data[off..off + len as usize];
        sh.attempt("write", sh.sync(span, || w.write(rec)));
        off += len as usize;
        if every > 0 && off >= next_flush {
            sh.attempt("flush", sh.sync(span, || w.flush()));
            next_flush += every;
        }
    }
}

/// Read the stream into `buf` (its length) in `read_size` calls and check
/// that the stream ends there; returns the bytes read. Comparing them is
/// [`check_read_back`]'s job, outside the timed phase.
fn read_back(sh: &Shared<'_>, r: &mut SionParReader, buf: &mut [u8]) -> usize {
    let mut pos = 0usize;
    while pos < buf.len() {
        let end = buf.len().min(pos + sh.spec.read_size);
        let read = sh.sync(Span::StreamRead, || r.read(&mut buf[pos..end]));
        match sh.attempt("read", read) {
            Some(n) if n > 0 => pos += n,
            _ => return pos,
        }
    }
    let eof = sh.sync(Span::StreamRead, || r.feof());
    sh.check(eof, || "stream continues past its bytes".into());
    pos
}

/// Compare `rank`'s read-back bytes with what it wrote, byte for byte.
fn check_read_back(sh: &Shared<'_>, rank: usize, got: &[u8]) {
    let data = sh.inputs.expected(rank);
    sh.check(got == data, || {
        match got.iter().zip(data).position(|(a, b)| a != b) {
            Some(i) => format!("rank {rank}: read-back differs at byte {i}"),
            None => format!(
                "rank {rank}: read-back ends at byte {} of {}",
                got.len(),
                data.len()
            ),
        }
    });
}

/// Rank 0, with every other rank parked: harvest the cycle, check the
/// multifile serially, and remove it.
fn rank_zero_cycle_end(sh: &Shared<'_>, cycle: usize) {
    let spec = sh.spec;
    let base = base_name(spec, cycle);
    let mut times = CycleTimes::default();
    for (p, t) in times.phase.iter_mut().enumerate() {
        *t = sh.phase_seconds(p);
    }
    let (mut counts, roles) = std::mem::take(&mut *sh.counts.lock().expect("counts lock"));
    let serial_reads = || sh.serial_timed.map_or(0, |v| v.stats().counts().read_calls);

    // Serial opens of the fresh multifile: one takes milliseconds at
    // most, too short to time once per cycle. Lookups use the last one.
    let reads0 = serial_reads();
    let mut serial_open_s = Vec::with_capacity(SERIAL_OPENS);
    let mut opened = None;
    for _ in 0..SERIAL_OPENS {
        let t0 = Instant::now();
        let mf = sh.sync(Span::SerialOpen, || Multifile::open(sh.serial_fs(), &base));
        serial_open_s.push(t0.elapsed().as_secs_f64());
        opened = sh.attempt("serial open", mf);
    }
    let serial_open_reads = (serial_reads() - reads0) / SERIAL_OPENS as u64;
    let mut lookup_us = Vec::with_capacity(spec.lookups);
    let reads0 = serial_reads();
    if let Some(mf) = opened {
        sh.check(mf.ntasks() == spec.ranks, || {
            format!("serial open sees {} tasks", mf.ntasks())
        });
        let mut buf = vec![0u8; spec.lookup_len as usize];
        for l in &sh.inputs.lookups {
            let want = &mut buf[..l.len as usize];
            let t0 = Instant::now();
            let got = sh.sync(Span::SerialLookup, || lookup(&mf, l.rank, l.pos, want));
            lookup_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if sh.attempt("lookup", got).is_some() {
                let start = l.pos as usize;
                let expect = &sh.inputs.expected(l.rank)[start..start + l.len as usize];
                sh.check(want == expect, || {
                    format!("lookup of rank {} at {}", l.rank, l.pos)
                });
            }
        }
    }
    let lookup_reads = serial_reads() - reads0;

    sh.sync(Span::Bench, || {
        let report = sion_tools::verify(sh.raw_fs, &base);
        if let Some(r) = sh.attempt("sionverify", report) {
            sh.check(r.is_clean(), || format!("sionverify: {:?}", r.problems));
            sh.check(r.tasks_ok == spec.ranks, || {
                format!("sionverify certifies {}", r.tasks_ok)
            });
        }
        for k in 0..spec.nfiles {
            let name = sion::physical_name(&base, k);
            let len = sh.raw_fs.open(&name).and_then(|f| f.len());
            counts.file_bytes += sh.attempt("physical file size", len).unwrap_or(0);
            sh.attempt("remove", sh.raw_fs.remove(&name));
        }
    });

    if cycle > 0 {
        let mut out = sh.out.lock().expect("result lock");
        out.lookup_us.extend(lookup_us);
        out.serial_open_s.extend(serial_open_s);
        out.cycles.push(Cycle {
            times,
            counts,
            roles,
            serial_open_reads,
            lookup_reads,
        });
    }
}

/// `len` bytes of `rank`'s logical stream at `pos`, through the serial
/// global view: resolve the chunk, then read, continuing into the next
/// chunk when the range crosses one.
fn lookup(mf: &Multifile, rank: usize, pos: u64, buf: &mut [u8]) -> sion::Result<()> {
    let mut done = 0;
    while done < buf.len() {
        let at = pos + done as u64;
        let (chunk, off) = mf
            .seek_logical(rank, at)?
            .ok_or_else(|| sion::SionError::InvalidArg(format!("rank {rank}: {at} past end")))?;
        let n = mf.read_at(rank, chunk, off, &mut buf[done..])?;
        if n == 0 {
            return Err(sion::SionError::InvalidArg(format!(
                "rank {rank}: empty read at {at}"
            )));
        }
        done += n;
    }
    Ok(())
}
