//! `TimedComm`: a `CoComm` decorator that times every call as a `simmpi`
//! span and otherwise forwards it unchanged. The provided methods
//! (`allgather_shared`, the `*_u64` helpers, `try_recv`, `recycle`) are
//! forwarded too, so a runtime's overrides keep running, and the
//! communicators `split` returns are wrapped in turn.

use crate::trace::{timed, Span, Tracer};
use simmpi::{AllGathered, BoxFut, CoComm, CommStats, ReduceOp, AGG_ACK_TAG_PREFIX, COLL_TAG_MASK};
use std::sync::Arc;

pub struct TimedComm {
    inner: Box<dyn CoComm>,
    tracer: Arc<Tracer>,
}

impl TimedComm {
    pub fn new(inner: Box<dyn CoComm>, tracer: Arc<Tracer>) -> TimedComm {
        TimedComm { inner, tracer }
    }

    /// The undecorated communicator.
    pub fn inner(&self) -> &dyn CoComm {
        self.inner.as_ref()
    }

    fn coll<'a, T: 'a>(&'a self, fut: BoxFut<'a, T>) -> BoxFut<'a, T> {
        Box::pin(async move { timed(Some(&self.tracer), Span::Coll, fut).await.0 })
    }
}

impl CoComm for TimedComm {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn stats(&self) -> Option<Arc<CommStats>> {
        self.inner.stats()
    }

    fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        self.tracer.add_p2p_bytes(data.len() as u64);
        self.tracer
            .sync(Span::P2p, || self.inner.send(dest, tag, data));
    }

    fn recv<'a>(&'a self, src: usize, tag: u64) -> BoxFut<'a, Vec<u8>> {
        Box::pin(async move {
            let (buf, times) =
                timed(Some(&self.tracer), Span::P2p, self.inner.recv(src, tag)).await;
            if tag & COLL_TAG_MASK == AGG_ACK_TAG_PREFIX {
                self.tracer.add_ack_wait(times.elapsed_ns);
            }
            buf
        })
    }

    fn try_recv(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
        self.tracer
            .sync(Span::P2p, || self.inner.try_recv(src, tag))
            .0
    }

    fn recycle(&self, buf: Vec<u8>) {
        self.tracer.sync(Span::P2p, || self.inner.recycle(buf));
    }

    fn barrier<'a>(&'a self) -> BoxFut<'a, ()> {
        self.coll(self.inner.barrier())
    }

    fn gather<'a>(&'a self, data: &'a [u8], root: usize) -> BoxFut<'a, Option<Vec<Vec<u8>>>> {
        self.coll(self.inner.gather(data, root))
    }

    fn scatter<'a>(&'a self, parts: Option<Vec<Vec<u8>>>, root: usize) -> BoxFut<'a, Vec<u8>> {
        self.coll(self.inner.scatter(parts, root))
    }

    fn bcast<'a>(&'a self, data: Option<Vec<u8>>, root: usize) -> BoxFut<'a, Vec<u8>> {
        self.coll(self.inner.bcast(data, root))
    }

    fn allgather<'a>(&'a self, data: &'a [u8]) -> BoxFut<'a, Vec<Vec<u8>>> {
        self.coll(self.inner.allgather(data))
    }

    fn allgather_shared<'a>(&'a self, data: &'a [u8]) -> BoxFut<'a, AllGathered> {
        self.coll(self.inner.allgather_shared(data))
    }

    fn reduce_u64<'a>(&'a self, value: u64, op: ReduceOp, root: usize) -> BoxFut<'a, Option<u64>> {
        self.coll(self.inner.reduce_u64(value, op, root))
    }

    fn split<'a>(&'a self, color: u64, key: u64) -> BoxFut<'a, Box<dyn CoComm>> {
        let tracer = self.tracer.clone();
        self.coll(Box::pin(async move {
            let sub = self.inner.split(color, key).await;
            Box::new(TimedComm::new(sub, tracer)) as Box<dyn CoComm>
        }))
    }

    fn bcast_u64<'a>(&'a self, value: Option<u64>, root: usize) -> BoxFut<'a, u64> {
        self.coll(self.inner.bcast_u64(value, root))
    }

    fn gather_u64<'a>(&'a self, value: u64, root: usize) -> BoxFut<'a, Option<Vec<u64>>> {
        self.coll(self.inner.gather_u64(value, root))
    }

    fn scatter_u64<'a>(&'a self, values: Option<Vec<u64>>, root: usize) -> BoxFut<'a, u64> {
        self.coll(self.inner.scatter_u64(values, root))
    }

    fn allgather_u64<'a>(&'a self, value: u64) -> BoxFut<'a, Vec<u64>> {
        self.coll(self.inner.allgather_u64(value))
    }

    fn allreduce_u64<'a>(&'a self, value: u64, op: ReduceOp) -> BoxFut<'a, u64> {
        self.coll(self.inner.allreduce_u64(value, op))
    }

    fn gather_u64s<'a>(
        &'a self,
        values: &'a [u64],
        root: usize,
    ) -> BoxFut<'a, Option<Vec<Vec<u64>>>> {
        self.coll(self.inner.gather_u64s(values, root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKERS;
    use simmpi::{SchedPolicy, TaskWorld};

    #[test]
    fn forwards_collectives_and_wraps_splits() {
        let tracer = Arc::new(Tracer::new(4));
        let (out, _) = TaskWorld::run_with(SchedPolicy::WorkSteal { workers: WORKERS }, 4, |c| {
            let tracer = tracer.clone();
            async move {
                let c = TimedComm::new(Box::new(c), tracer);
                let sum = c.allreduce_u64(c.rank() as u64, ReduceOp::Sum).await;
                let sub = c.split((c.rank() % 2) as u64, 0).await;
                let all = sub.allgather_u64(c.rank() as u64).await;
                sub.barrier().await;
                let stats = c.stats().unwrap();
                (sum, all, sub.size(), stats.collectives())
            }
        });
        for (r, (sum, all, size, colls)) in out.into_iter().enumerate() {
            assert_eq!(sum, 6);
            assert_eq!(all, if r % 2 == 0 { vec![0, 2] } else { vec![1, 3] });
            assert_eq!(size, 2);
            // allreduce (one allgather underneath) + split on the parent.
            assert_eq!(colls, 2);
        }
        // Per rank: allreduce, split on the parent; allgather, barrier on
        // the (wrapped) child.
        let s = tracer.snapshot();
        assert_eq!(s.span(Span::Coll).calls, 16);
    }
}
