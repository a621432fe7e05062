//! `TimedVfs`: a `Vfs`/`VfsFile` decorator that times and counts every
//! call and otherwise forwards it unchanged — including the methods with
//! default bodies, so the backend's own overrides (MemFs leases, LocalFs
//! coalesced vectored writes) still run.

use crate::trace::{Span, Tracer};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use vfs::{ByteLease, IoSlice, Vfs, VfsFile};

/// Counter slots of a [`VfsStats`].
#[derive(Clone, Copy)]
enum Slot {
    WriteCalls,
    WriteBytes,
    WriteNs,
    VectoredCalls,
    ReadCalls,
    ReadNs,
    LeaseCalls,
    LeaseHits,
    SyncCalls,
    SyncNs,
    Creates,
    Errors,
}

const SLOTS: usize = Slot::Errors as usize + 1;

/// Call, byte and time counters of one [`TimedVfs`] and its files.
#[derive(Default)]
pub struct VfsStats([AtomicU64; SLOTS]);

/// A plain copy of [`VfsStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VfsCounts {
    pub write_calls: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub vectored_calls: u64,
    pub read_calls: u64,
    pub read_ns: u64,
    pub lease_calls: u64,
    pub lease_hits: u64,
    pub sync_calls: u64,
    pub sync_ns: u64,
    pub creates: u64,
    pub errors: u64,
}

impl VfsStats {
    fn add(&self, slot: Slot, v: u64) {
        self.0[slot as usize].fetch_add(v, Relaxed);
    }

    pub fn counts(&self) -> VfsCounts {
        let get = |s: Slot| self.0[s as usize].load(Relaxed);
        VfsCounts {
            write_calls: get(Slot::WriteCalls),
            write_bytes: get(Slot::WriteBytes),
            write_ns: get(Slot::WriteNs),
            vectored_calls: get(Slot::VectoredCalls),
            read_calls: get(Slot::ReadCalls),
            read_ns: get(Slot::ReadNs),
            lease_calls: get(Slot::LeaseCalls),
            lease_hits: get(Slot::LeaseHits),
            sync_calls: get(Slot::SyncCalls),
            sync_ns: get(Slot::SyncNs),
            creates: get(Slot::Creates),
            errors: get(Slot::Errors),
        }
    }
}

impl VfsCounts {
    pub fn minus(&self, b: &VfsCounts) -> VfsCounts {
        VfsCounts {
            write_calls: self.write_calls - b.write_calls,
            write_bytes: self.write_bytes - b.write_bytes,
            write_ns: self.write_ns - b.write_ns,
            vectored_calls: self.vectored_calls - b.vectored_calls,
            read_calls: self.read_calls - b.read_calls,
            read_ns: self.read_ns - b.read_ns,
            lease_calls: self.lease_calls - b.lease_calls,
            lease_hits: self.lease_hits - b.lease_hits,
            sync_calls: self.sync_calls - b.sync_calls,
            sync_ns: self.sync_ns - b.sync_ns,
            creates: self.creates - b.creates,
            errors: self.errors - b.errors,
        }
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Write,
    Read,
    Sync,
    Meta,
}

#[derive(Clone)]
struct Timer {
    tracer: Arc<Tracer>,
    stats: Arc<VfsStats>,
}

impl Timer {
    /// Run one forwarded call as a [`Span::Vfs`] span and count it.
    fn call<T>(&self, kind: Kind, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let (out, ns) = self.tracer.sync(Span::Vfs, f);
        let counted = match kind {
            Kind::Write => Some((Slot::WriteCalls, Slot::WriteNs)),
            Kind::Read => Some((Slot::ReadCalls, Slot::ReadNs)),
            Kind::Sync => Some((Slot::SyncCalls, Slot::SyncNs)),
            Kind::Meta => None,
        };
        if let Some((calls, time)) = counted {
            self.stats.add(calls, 1);
            self.stats.add(time, ns);
        }
        if out.is_err() {
            self.stats.add(Slot::Errors, 1);
        }
        out
    }

    fn write<T>(&self, bytes: usize, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        self.stats.add(Slot::WriteBytes, bytes as u64);
        self.call(Kind::Write, f)
    }

    fn file(&self, inner: Arc<dyn VfsFile>) -> Arc<dyn VfsFile> {
        Arc::new(TimedFile {
            inner,
            t: self.clone(),
        })
    }
}

/// Timing decorator over any [`Vfs`].
pub struct TimedVfs {
    inner: Arc<dyn Vfs>,
    t: Timer,
}

impl TimedVfs {
    pub fn new(inner: Arc<dyn Vfs>, tracer: Arc<Tracer>) -> TimedVfs {
        TimedVfs {
            inner,
            t: Timer {
                tracer,
                stats: Arc::default(),
            },
        }
    }

    pub fn stats(&self) -> &VfsStats {
        &self.t.stats
    }
}

impl Vfs for TimedVfs {
    fn create(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.t.stats.add(Slot::Creates, 1);
        self.t
            .call(Kind::Meta, || self.inner.create(path))
            .map(|f| self.t.file(f))
    }

    fn open(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.t
            .call(Kind::Meta, || self.inner.open(path))
            .map(|f| self.t.file(f))
    }

    fn open_rw(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.t
            .call(Kind::Meta, || self.inner.open_rw(path))
            .map(|f| self.t.file(f))
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.t.call(Kind::Meta, || self.inner.remove(path))
    }

    fn exists(&self, path: &str) -> bool {
        self.t.tracer.sync(Span::Vfs, || self.inner.exists(path)).0
    }

    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        self.t.call(Kind::Meta, || self.inner.list(prefix))
    }

    /// Forwarded and returned as is: the shadow discards (or, under a
    /// checking VFS, records) a member's writes and performs no I/O, so it
    /// is timed as part of the member's write calls, not as VFS work. The
    /// request itself tells the tracer this rank is an aggregation member.
    fn create_shadow(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.t.tracer.note_shadow_open();
        self.inner.create_shadow(path)
    }
}

struct TimedFile {
    inner: Arc<dyn VfsFile>,
    t: Timer,
}

impl VfsFile for TimedFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.t.call(Kind::Read, || self.inner.read_at(buf, offset))
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.t.write(buf.len(), || self.inner.write_at(buf, offset))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.t.call(Kind::Meta, || self.inner.set_len(len))
    }

    fn len(&self) -> io::Result<u64> {
        self.t.call(Kind::Meta, || self.inner.len())
    }

    fn is_empty(&self) -> io::Result<bool> {
        self.t.call(Kind::Meta, || self.inner.is_empty())
    }

    fn sync(&self) -> io::Result<()> {
        self.t.call(Kind::Sync, || self.inner.sync())
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.t
            .call(Kind::Read, || self.inner.read_exact_at(buf, offset))
    }

    fn write_vectored_at(&self, bufs: &[IoSlice<'_>], offset: u64) -> io::Result<()> {
        self.t.stats.add(Slot::VectoredCalls, 1);
        let bytes = bufs.iter().map(|b| b.len()).sum();
        self.t
            .write(bytes, || self.inner.write_vectored_at(bufs, offset))
    }

    fn read_lease(&self, offset: u64, max_len: usize) -> Option<ByteLease> {
        let s = &self.t.stats;
        let (lease, ns) = self
            .t
            .tracer
            .sync(Span::Vfs, || self.inner.read_lease(offset, max_len));
        s.add(Slot::ReadCalls, 1);
        s.add(Slot::ReadNs, ns);
        s.add(Slot::LeaseCalls, 1);
        s.add(Slot::LeaseHits, lease.is_some() as u64);
        lease
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.t
            .write(buf.len(), || self.inner.write_all_at(buf, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::MemFs;

    #[test]
    fn forwards_overrides_and_counts() {
        let mem = Arc::new(MemFs::with_block_size(4096));
        let t = TimedVfs::new(mem.clone(), Arc::new(Tracer::new(1)));
        let f = t.create("a").unwrap();
        f.write_vectored_at(&[IoSlice::new(&[1; 4096]), IoSlice::new(&[2; 4096])], 0)
            .unwrap();
        f.write_all_at(&[3; 10], 8192).unwrap();
        // MemFs overrides read_lease; the decorator must reach it.
        let lease = f.read_lease(0, 4096).expect("MemFs leases pages");
        assert_eq!(lease.bytes(), &[1; 4096][..]);
        let mut buf = [0u8; 10];
        f.read_exact_at(&mut buf, 8192).unwrap();
        assert_eq!(buf, [3; 10]);
        f.sync().unwrap();
        assert_eq!(mem.open("a").unwrap().len().unwrap(), 8202);
        assert!(t.open("missing").is_err());
        let c = t.stats().counts();
        assert_eq!(
            (c.write_calls, c.write_bytes, c.vectored_calls),
            (2, 8202, 1)
        );
        assert_eq!((c.read_calls, c.lease_calls, c.lease_hits), (2, 1, 1));
        assert_eq!((c.sync_calls, c.creates, c.errors), (1, 1, 1));
    }
}
