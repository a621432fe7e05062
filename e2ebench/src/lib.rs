//! End-to-end checkpoint/restart benchmark of `sion::par` on the task
//! runtime, with per-layer attribution. See `README.md` in this directory.

pub mod report;
pub mod run;
pub mod timed_comm;
pub mod timed_vfs;
pub mod trace;
pub mod workload;

use report::{Metric, ATTRIBUTION_TOLERANCE};
use run::{run_world, Budget, WorldOut};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Span;
use vfs::MemFs;
use workload::{Inputs, Spec};

/// Work-stealing workers the rank tasks run on. One: on a 2-vCPU VM, two
/// busy workers drew 10-26 % CPU steal from the host and run-to-run
/// spreads of 18-31 %; one drew about 1 % steal and spreads of 3-13 %.
pub const WORKERS: usize = 1;
/// Set-ups per untraced run; `setup_s` is their median. Seven, because the
/// first two or three in a process run up to 2x slower than the rest
/// while the allocator grows the heap: the median lands past them.
pub const SETUP_REPS: usize = 7;
/// Measured cycles a world runs even when its time budget is spent.
pub const MIN_CYCLES: usize = 3;

/// What one run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The first failures, for the report.
    pub failures: Vec<String>,
    /// Human-readable detail printed ahead of the metrics.
    pub notes: Vec<String>,
}

/// One set-up (inputs, backend, world with its warm-up cycle) followed by
/// `budget`.
fn world(spec: &Spec, seed: u64, traced: bool, budget: Budget) -> WorldOut {
    let start = Instant::now();
    let inputs = Inputs::generate(spec, seed);
    let fs = Arc::new(MemFs::with_block_size(spec.fs_block));
    run_world(spec, &inputs, fs, traced, budget, start)
}

/// The untraced run: [`SETUP_REPS`] set-ups, the last of which goes on to
/// measure cycles for `seconds`; reports the end-to-end metrics.
pub fn measure(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let budget = if rep + 1 == SETUP_REPS {
            Budget {
                time: Duration::from_secs_f64(seconds),
                min_cycles: MIN_CYCLES,
            }
        } else {
            Budget::WARMUP_ONLY
        };
        let w = world(spec, seed, false, budget);
        setups.push(w.setup_s);
        last = Some(w);
    }
    let w = last.expect("at least one set-up");
    let mut notes = vec![
        format!("set-up seconds: {setups:.3?}"),
        format!("cycle seconds: {}", run::PHASES.join(", ")),
    ];
    let lookups = w.lookup_us.chunks(spec.lookups.max(1));
    for (i, (c, l)) in w.cycles.iter().zip(lookups).enumerate() {
        notes.push(format!(
            "  {i}: {:.4?}, lookup p50/p99 {:.2}/{:.2} us",
            c.times.phase,
            report::percentile(l, 50.0),
            report::percentile(l, 99.0)
        ));
    }
    notes.push(format!(
        "{} measured cycles; {} lookups; {} serial opens",
        w.cycles.len(),
        w.lookup_us.len(),
        w.serial_open_s.len()
    ));
    let (metrics, others): (Vec<_>, Vec<_>) = report::end_to_end(spec, &setups, &w)
        .into_iter()
        .partition(|x| spec.metrics.contains(&x.name));
    for x in others {
        notes.push(format!(
            "also measured, not reported for {}: {} {:.6} {}",
            spec.name, x.name, x.value, x.unit
        ));
    }
    Outcome {
        metrics,
        attempted: w.attempted,
        failed: w.failed,
        failures: w.failures,
        notes,
    }
}

/// The traced run: half of `seconds` untraced as the reference, half with
/// every layer decorated; reports the per-layer metrics after the fidelity
/// and attribution checks.
pub fn trace(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let time = Duration::from_secs_f64(seconds / 2.0);
    let budget = Budget {
        time,
        min_cycles: MIN_CYCLES,
    };
    let plain = world(spec, seed, false, budget);
    let traced = world(spec, seed, true, budget);
    // Both runs' operations, plus the two checks below.
    let attempted = plain.attempted + traced.attempted + 2;
    let mut failed = plain.failed + traced.failed;
    let mut failures = [plain.failures.clone(), traced.failures.clone()].concat();
    if let Err(e) = report::fidelity(&plain, &traced) {
        failed += 1;
        failures.push(format!("fidelity check: {e}"));
    }
    let unattributed = report::unattributed_frac(&traced);
    if unattributed > ATTRIBUTION_TOLERANCE {
        failed += 1;
        failures.push(format!(
            "attribution check: {:.2}% of rank busy time is in no span (tolerance {:.0}%)",
            unattributed * 100.0,
            ATTRIBUTION_TOLERANCE * 100.0
        ));
    }
    let mut notes = vec![format!(
        "traced {} cycles against {} untraced; attribution tolerance {:.0}% of summed rank busy time",
        traced.cycles.len(),
        plain.cycles.len(),
        ATTRIBUTION_TOLERANCE * 100.0
    )];
    if let Some(tr) = &traced.trace {
        let n = traced.cycles.len().max(1) as f64;
        let root = tr.spans.span(Span::Root);
        notes.push(format!(
            "tracer bookkeeping {:.1}% of summed rank busy time (charged to no layer)",
            100.0 * tr.spans.extras.bookkeeping_ns as f64 / root.busy_ns.max(1) as f64
        ));
        notes.push(
            "span kind: calls, busy s, self s, parked s, per cycle, summed over ranks".into(),
        );
        for k in Span::ALL {
            let t = tr.spans.span(k);
            notes.push(format!(
                "  {k:?}: {:.0} {:.6} {:.6} {:.6}",
                t.calls as f64 / n,
                t.busy_s() / n,
                t.self_s() / n,
                t.wait_s() / n
            ));
        }
    }
    Outcome {
        metrics: report::per_layer(spec, &plain, &traced),
        attempted,
        failed,
        failures,
        notes,
    }
}
