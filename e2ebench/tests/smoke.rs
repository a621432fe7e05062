//! The benchmark's own tests: every workload at smoke scale, untraced and
//! traced, through the same entry points the command uses. One test runs
//! them in turn, so the traced runs' timing checks do not share the CPU
//! with each other.

use e2ebench::run::{run_world, Budget};
use e2ebench::workload::{Inputs, Scale, Spec, WORKLOADS};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vfs::{IoSlice, MemFs, Vfs, VfsFile};

fn value(out: &e2ebench::Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn every_workload_runs_correctly_untraced_and_traced() {
    for name in WORKLOADS {
        let spec = Spec::get(name, Scale::Smoke).unwrap();

        let plain = e2ebench::measure(&spec, 11, 0.2);
        assert_eq!(plain.failed, 0, "{name}: {:?}", plain.failures);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, spec.metrics, "{name}");
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{name}: {} reads {}", m.name, m.value);
        }

        // Fails (and counts a failure) unless the decorated run's counts
        // match the plain run's and the spans cover the rank busy time.
        let traced = e2ebench::trace(&spec, 11, 0.4);
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.failures);
        let aggregated = name == "agg_small";
        assert_eq!(value(&traced, "agg.shipments") > 0.0, aggregated, "{name}");
        assert_eq!(
            value(&traced, "agg.ack_ratio"),
            if aggregated { 1.0 } else { 0.0 }
        );
        assert!(value(&traced, "simmpi.coll_calls") > 0.0);
        assert!(value(&traced, "vfs.write_bytes") >= spec.total_bytes() as f64);
        assert!(value(&traced, "par.open_self_s") > 0.0);
        assert!(value(&traced, "serial.open_vfs_reads") > 0.0);
    }
}

/// A VFS that flips one byte of every large data write: what a broken
/// data path would do. Everything else is forwarded.
struct Corrupting(MemFs);

struct CorruptingFile(Arc<dyn VfsFile>);

fn flipped(buf: &[u8]) -> Vec<u8> {
    let mut v = buf.to_vec();
    let mid = v.len() / 2;
    if v.len() >= 4096 {
        v[mid] ^= 0x40;
    }
    v
}

impl VfsFile for CorruptingFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.0.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.0.write_at(&flipped(buf), offset)
    }
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.0.write_all_at(&flipped(buf), offset)
    }
    fn write_vectored_at(&self, bufs: &[IoSlice<'_>], offset: u64) -> io::Result<()> {
        let joined: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
        self.0.write_all_at(&flipped(&joined), offset)
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn len(&self) -> io::Result<u64> {
        self.0.len()
    }
    fn sync(&self) -> io::Result<()> {
        self.0.sync()
    }
}

impl Vfs for Corrupting {
    fn create(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        Ok(Arc::new(CorruptingFile(self.0.create(path)?)))
    }
    fn open(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.0.open(path)
    }
    fn open_rw(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        Ok(Arc::new(CorruptingFile(self.0.open_rw(path)?)))
    }
    fn remove(&self, path: &str) -> io::Result<()> {
        self.0.remove(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.0.exists(path)
    }
    fn block_size(&self) -> u64 {
        self.0.block_size()
    }
    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        self.0.list(prefix)
    }
}

#[test]
fn corrupted_data_is_counted_as_failed() {
    let spec = Spec::get("ckpt_stream", Scale::Smoke).unwrap();
    let inputs = Inputs::generate(&spec, 5);
    let fs = Arc::new(Corrupting(MemFs::with_block_size(spec.fs_block)));
    let budget = Budget {
        time: Duration::ZERO,
        min_cycles: 1,
    };
    let w = run_world(&spec, &inputs, fs, false, budget, Instant::now());
    assert!(w.failed > 0, "a corrupted data path went unnoticed");
    assert!(
        w.failures.iter().any(|f| f.contains("differs")),
        "{:?}",
        w.failures
    );
}
