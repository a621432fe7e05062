//! Metrics, checks and the result line.

use crate::run::{Counts, RoleCounts, WorldOut};
use crate::trace::Span;
use crate::workload::Spec;
use crate::WORKERS;
use sion::{DEFAULT_READ_AHEAD, DEFAULT_WRITE_BUFFER};

/// Largest share of summed rank busy time the layer spans may leave
/// uncovered before the traced run fails its attribution check.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// Entries of the serial `Multifile` location cache (`sion::serial`).
const LOCATION_LRU: usize = 256;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every end-to-end metric of an untraced world; `setups` holds the
/// set-up time of every set-up made in the run. A workload reports those
/// in its `spec.metrics`.
pub fn end_to_end(spec: &Spec, setups: &[f64], w: &WorldOut) -> Vec<Metric> {
    let gb = spec.total_bytes() as f64 / 1e9;
    let per = |f: &dyn Fn(&crate::run::CycleTimes) -> f64| -> f64 {
        median(&w.cycles.iter().map(|c| f(&c.times)).collect::<Vec<_>>())
    };
    // Each cycle's percentile over its own lookups, then the median over
    // cycles, like every other timing: a noisy cycle moves one sample.
    let lookup = |p: f64| {
        let per_cycle: Vec<f64> = w
            .lookup_us
            .chunks(spec.lookups.max(1))
            .map(|c| percentile(c, p))
            .collect();
        median(&per_cycle)
    };
    vec![
        m("setup_s", median(setups), "s"),
        m("write_gbps", per(&|t| gb / t.write_s()), "GB/s"),
        m("read_gbps", per(&|t| gb / t.read_s()), "GB/s"),
        m("open_write_s", per(&|t| t.phase[0]), "s"),
        m("close_write_s", per(&|t| t.phase[2]), "s"),
        m("open_read_s", per(&|t| t.phase[3]), "s"),
        m("serial_open_s", median(&w.serial_open_s), "s"),
        m("lookup_p50_us", lookup(50.0), "us"),
        m("lookup_p99_us", lookup(99.0), "us"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Compare the schedule-independent counts of a traced world with those
/// of the untraced world over the same inputs: every cycle must match.
pub fn fidelity(untraced: &WorldOut, traced: &WorldOut) -> Result<(), String> {
    let reference: &Counts = match untraced.cycles.first() {
        Some(c) => &c.counts,
        None => return Err("untraced run measured no cycle".into()),
    };
    for (which, w) in [("untraced", untraced), ("traced", traced)] {
        for (i, c) in w.cycles.iter().enumerate() {
            if c.counts != *reference {
                return Err(format!(
                    "{which} cycle {i} counts differ from untraced cycle 0:\n  got      {:?}\n  expected {:?}",
                    c.counts, reference
                ));
            }
        }
    }
    if traced.cycles.is_empty() {
        return Err("traced run measured no cycle".into());
    }
    Ok(())
}

/// Share of summed rank busy time that no layer span covers and that is
/// not the runtime resuming a parked rank.
pub fn unattributed_frac(traced: &WorldOut) -> f64 {
    traced.trace.as_ref().map_or(1.0, |t| {
        let root = t.spans.span(Span::Root);
        ratio(
            root.self_ns.saturating_sub(t.spans.extras.resume_ns),
            root.busy_ns,
        )
    })
}

/// Per-layer metrics of a traced world, per measured cycle; `untraced` is
/// the untraced world over the same inputs (for the tracing overhead).
pub fn per_layer(spec: &Spec, untraced: &WorldOut, traced: &WorldOut) -> Vec<Metric> {
    let tr = traced.trace.as_ref().expect("traced world");
    let n = traced.cycles.len().max(1) as f64;
    let s = |k: Span| tr.spans.span(k);
    let mut c = Counts::default();
    let mut roles = RoleCounts::default();
    let (mut serial_open_reads, mut lookup_reads) = (0, 0);
    for cy in &traced.cycles {
        c.add(&cy.counts);
        roles.add(&cy.roles);
        serial_open_reads += cy.serial_open_reads;
        lookup_reads += cy.lookup_reads;
    }
    let member_agg = roles.member_agg;
    let member_bytes = roles.member_user_bytes;
    let user_bytes = spec.total_bytes() as f64 * n;
    let sched = &traced.sched;
    // The scheduler counts the whole world: warm-up plus measured cycles.
    let world_cycles = n + 1.0;
    let bytes_sent = c.comm[9];
    let sends = c.comm[7];
    let v = &tr.vfs;
    let lookups = s(Span::SerialLookup);
    let cycle_total = |w: &WorldOut| {
        median(
            &w.cycles
                .iter()
                .map(|c| c.times.write_s() + c.times.read_s())
                .collect::<Vec<_>>(),
        )
    };
    vec![
        m("simmpi.coll_calls", s(Span::Coll).calls as f64 / n, "count"),
        m("simmpi.coll_busy_s", s(Span::Coll).busy_s() / n, "s"),
        m("simmpi.coll_wait_s", s(Span::Coll).wait_s() / n, "s"),
        m(
            "simmpi.coll_bytes",
            bytes_sent.saturating_sub(tr.spans.extras.p2p_bytes) as f64 / n,
            "B",
        ),
        m("simmpi.p2p_msgs", sends as f64 / n, "count"),
        m("simmpi.polls", sched.polls as f64 / world_cycles, "count"),
        m("simmpi.parks", sched.parks as f64 / world_cycles, "count"),
        m("simmpi.steals", sched.steals as f64 / world_cycles, "count"),
        m(
            "simmpi.peak_mailbox_bytes",
            sched.peak_mailbox_bytes as f64,
            "B",
        ),
        m(
            "simmpi.frame_reuse_ratio",
            ratio(sched.frame_reuses, sched.frame_reuses + sched.frame_allocs),
            "ratio",
        ),
        m(
            "simmpi.resume_s",
            tr.spans.extras.resume_ns as f64 * 1e-9 / n,
            "s",
        ),
        m(
            "simmpi.worker_busy_frac",
            s(Span::Root).busy_s() / (tr.wall_s * WORKERS as f64),
            "ratio",
        ),
        m("par.open_self_s", s(Span::ParOpen).self_s() / n, "s"),
        m("par.close_self_s", s(Span::ParClose).self_s() / n, "s"),
        m(
            "par.read_open_self_s",
            s(Span::ParReadOpen).self_s() / n,
            "s",
        ),
        m(
            "par.read_close_self_s",
            s(Span::ParReadClose).self_s() / n,
            "s",
        ),
        m(
            "stream.write_self_s",
            s(Span::StreamWrite).self_s() / n,
            "s",
        ),
        m("stream.read_self_s", s(Span::StreamRead).self_s() / n, "s"),
        m(
            "stream.vfs_calls_per_user_call",
            ratio(c.write_io.vfs_calls, c.write_io.user_calls),
            "ratio",
        ),
        m(
            "stream.copied_per_byte",
            c.write_io.bytes_copied as f64 / user_bytes,
            "ratio",
        ),
        m(
            "stream.allocs",
            (c.write_io.allocs + c.read_io.allocs) as f64 / n,
            "count",
        ),
        m("stream.flushes", c.write_io.flushes as f64 / n, "count"),
        m(
            "stream.rescue_patches",
            c.write_io.rescue_patches as f64 / n,
            "count",
        ),
        m(
            "stream.vectored_frac",
            ratio(c.write_io.vectored_writes, c.write_io.vfs_calls),
            "ratio",
        ),
        m(
            "stream.read_vfs_calls_per_call",
            ratio(c.read_io.vfs_calls, c.read_io.user_calls),
            "ratio",
        ),
        m(
            "stream.read_copied_per_byte",
            c.read_io.bytes_copied as f64 / user_bytes,
            "ratio",
        ),
        m("agg.shipments", member_agg.shipments as f64 / n, "count"),
        m(
            "agg.ship_bytes_per_user_byte",
            ratio(member_agg.shipped_bytes, member_bytes),
            "ratio",
        ),
        m(
            "agg.ack_ratio",
            ratio(member_agg.acked_shipments, member_agg.shipments),
            "ratio",
        ),
        m(
            "agg.member_write_self_s",
            s(Span::AggMemberWrite).self_s() / n,
            "s",
        ),
        m(
            "agg.member_close_wait_s",
            tr.spans.extras.ack_wait_ns as f64 * 1e-9 / n,
            "s",
        ),
        m(
            "agg.aggregator_close_busy_s",
            tr.spans.extras.aggregator_close_busy_ns as f64 * 1e-9 / n,
            "s",
        ),
        m("vfs.write_calls", v.write_calls as f64 / n, "count"),
        m("vfs.write_bytes", v.write_bytes as f64 / n, "B"),
        m("vfs.write_busy_s", v.write_ns as f64 * 1e-9 / n, "s"),
        m("vfs.vectored_calls", v.vectored_calls as f64 / n, "count"),
        m("vfs.read_calls", v.read_calls as f64 / n, "count"),
        m("vfs.read_busy_s", v.read_ns as f64 * 1e-9 / n, "s"),
        m(
            "vfs.lease_hit_ratio",
            ratio(v.lease_hits, v.lease_calls),
            "ratio",
        ),
        m("vfs.sync_calls", v.sync_calls as f64 / n, "count"),
        m("vfs.sync_s", v.sync_ns as f64 * 1e-9 / n, "s"),
        m("vfs.creates", v.creates as f64 / n, "count"),
        m("vfs.errors", v.errors as f64 / n, "count"),
        m(
            "serial.open_vfs_reads",
            serial_open_reads as f64 / n,
            "count",
        ),
        m(
            "serial.lookup_vfs_reads",
            ratio(lookup_reads, lookups.calls),
            "count",
        ),
        m(
            "serial.lookup_self_us",
            ratio(lookups.self_ns, lookups.calls) * 1e-3,
            "us",
        ),
        m(
            "trace.unattributed_frac",
            unattributed_frac(traced),
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            cycle_total(traced) / cycle_total(untraced) - 1.0,
            "ratio",
        ),
    ]
}

/// The result line: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Environment lines printed ahead of every result.
pub fn environment(spec: &Spec, seed: u64) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let backend = format!(
        "vfs::MemFs ({} B blocks) in process memory: no file system is mounted or written",
        spec.fs_block
    );
    let rank_set = spec.bytes_per_rank;
    vec![
        format!("workload {} seed {seed}", spec.name),
        format!("nproc {nproc}, workers {WORKERS} (SchedPolicy::WorkSteal), closed loop: every rank issues its next call when the previous one returns"),
        format!("backend {backend}"),
        format!("transparent_hugepage {}", read_trim("/sys/kernel/mm/transparent_hugepage/enabled")),
        format!("kernel {}", read_trim("/proc/sys/kernel/osrelease")),
        format!(
            "ranks {}, {} B per rank, {} B per cycle, {} physical files, {:?}, rescue {}",
            spec.ranks,
            rank_set,
            spec.total_bytes(),
            spec.nfiles,
            spec.io_mode,
            spec.rescue
        ),
        format!(
            "working set vs program buffers: per rank {} B = {:.1}x the {} B write buffer and {:.1}x the {} B read-ahead window; {} ranks vs the {}-entry location LRU",
            rank_set,
            rank_set as f64 / DEFAULT_WRITE_BUFFER as f64,
            DEFAULT_WRITE_BUFFER,
            rank_set as f64 / DEFAULT_READ_AHEAD as f64,
            DEFAULT_READ_AHEAD,
            spec.ranks,
            LOCATION_LRU
        ),
    ]
}
