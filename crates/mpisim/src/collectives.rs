//! Collective operations, implemented with the same algorithms MPICH 1.2
//! used, on top of the point-to-point layer — so their cost structure
//! (trees, rings, pairwise exchanges) and network footprint are emergent,
//! exactly as on the paper's cluster.
//!
//! Tag space: every collective type owns a distinct tag above
//! [`COLLECTIVE_TAG_BASE`]; correctness across back-to-back collectives of
//! the same type follows from MPI's per-pair FIFO matching.

use crate::msg::{MsgMeta, COLLECTIVE_TAG_BASE};
use crate::rank::{decode_f64s, encode_f64s, Proc};
use bytes::Bytes;
use std::cell::Cell;
use std::rc::Rc;

const TAG_BARRIER: u64 = COLLECTIVE_TAG_BASE;
const TAG_BCAST: u64 = COLLECTIVE_TAG_BASE + 1;
const TAG_REDUCE: u64 = COLLECTIVE_TAG_BASE + 2;
const TAG_GATHER: u64 = COLLECTIVE_TAG_BASE + 3;
const TAG_SCATTER: u64 = COLLECTIVE_TAG_BASE + 4;
const TAG_ALLGATHER: u64 = COLLECTIVE_TAG_BASE + 5;
const TAG_ALLTOALL: u64 = COLLECTIVE_TAG_BASE + 6;

/// Reduction operators for [`Proc::reduce_f64s`] / [`Proc::allreduce_f64s`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    fn combine(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce buffers differ in length");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Min => a.min(*b),
                ReduceOp::Max => a.max(*b),
            };
        }
    }
}

/// While one lives, the point-to-point operations its [`Proc`] issues are
/// marked `in_collective` in recorded traces.
struct InCollective(Rc<Cell<u32>>);

impl Drop for InCollective {
    fn drop(&mut self) {
        self.0.set(self.0.get() - 1);
    }
}

impl Proc {
    fn collective(&self) -> InCollective {
        self.coll_depth.set(self.coll_depth.get() + 1);
        InCollective(Rc::clone(&self.coll_depth))
    }

    /// Dissemination barrier: ⌈log₂ n⌉ rounds of pairwise notifications.
    pub async fn barrier(&mut self) {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        if n == 1 {
            return;
        }
        let mut k = 1usize;
        while k < n {
            let dst = (r + k) % n;
            let src = (r + n - k % n) % n;
            let sreq = self.isend_size(dst, TAG_BARRIER, 0);
            let _ = self.recv(src, TAG_BARRIER).await;
            self.wait(sreq).await;
            k <<= 1;
        }
    }

    /// Binomial-tree broadcast of a real payload from `root`. Every rank
    /// returns the payload.
    pub async fn bcast(&mut self, root: usize, payload: Option<Bytes>) -> Bytes {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        let mut data = if r == root {
            payload.expect("root must supply the broadcast payload")
        } else {
            Bytes::new()
        };
        if n == 1 {
            return data;
        }
        let vr = (r + n - root % n) % n;
        // Receive phase: find the subtree parent.
        let mut mask = 1usize;
        while mask < n {
            if vr & mask != 0 {
                let src = (vr - mask + root) % n;
                let (_, p) = self.recv(src, TAG_BCAST).await;
                data = p;
                break;
            }
            mask <<= 1;
        }
        // Send phase: fan out to children.
        mask >>= 1;
        while mask > 0 {
            if vr + mask < n {
                let dst = (vr + mask + root) % n;
                self.send(dst, TAG_BCAST, data.clone()).await;
            }
            mask >>= 1;
        }
        data
    }

    /// Broadcast of a synthetic `bytes`-sized message (benchmark use).
    pub async fn bcast_size(&mut self, root: usize, bytes: u64) {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        if n == 1 {
            return;
        }
        let vr = (r + n - root % n) % n;
        let mut mask = 1usize;
        while mask < n {
            if vr & mask != 0 {
                let src = (vr - mask + root) % n;
                let _ = self.recv(src, TAG_BCAST).await;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vr + mask < n {
                let dst = (vr + mask + root) % n;
                self.send_size(dst, TAG_BCAST, bytes).await;
            }
            mask >>= 1;
        }
    }

    /// Binomial-tree reduction of `f64` vectors to `root`. Returns the
    /// reduced vector at the root, `None` elsewhere.
    pub async fn reduce_f64s(
        &mut self,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        let mut acc = data.to_vec();
        if n == 1 {
            return Some(acc);
        }
        let vr = (r + n - root % n) % n;
        let mut mask = 1usize;
        while mask < n {
            if vr & mask == 0 {
                let peer = vr | mask;
                if peer < n {
                    let src = (peer + root) % n;
                    let (_, p) = self.recv(src, TAG_REDUCE).await;
                    op.combine(&mut acc, &decode_f64s(&p));
                }
            } else {
                let dst = (vr - mask + root) % n;
                self.send(dst, TAG_REDUCE, encode_f64s(&acc)).await;
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Allreduce = reduce-to-0 + broadcast (the MPICH 1.2 composition).
    pub async fn allreduce_f64s(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let reduced = self.reduce_f64s(0, data, op).await;
        let payload = reduced.map(|v| encode_f64s(&v));
        let out = self.bcast(0, payload).await;
        decode_f64s(&out)
    }

    /// Linear gather of per-rank payloads to `root`; returns the payloads
    /// in rank order at the root, `None` elsewhere.
    pub async fn gather(&mut self, root: usize, payload: Bytes) -> Option<Vec<Bytes>> {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        if r == root {
            let mut out: Vec<Bytes> = vec![Bytes::new(); n];
            out[root] = payload;
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    let (_, p) = self.recv(src, TAG_GATHER).await;
                    *slot = p;
                }
            }
            Some(out)
        } else {
            self.send(root, TAG_GATHER, payload).await;
            None
        }
    }

    /// Linear scatter of per-rank payloads from `root`; returns this
    /// rank's chunk.
    pub async fn scatter(&mut self, root: usize, chunks: Option<Vec<Bytes>>) -> Bytes {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        if r == root {
            let chunks = chunks.expect("root must supply scatter chunks");
            assert_eq!(chunks.len(), n, "scatter needs one chunk per rank");
            let mut reqs = Vec::new();
            for (dst, chunk) in chunks.iter().enumerate() {
                if dst != root {
                    reqs.push(self.isend(dst, TAG_SCATTER, chunk.clone()));
                }
            }
            let mine = chunks[root].clone();
            self.waitall(reqs).await;
            mine
        } else {
            let (_, p) = self.recv(root, TAG_SCATTER).await;
            p
        }
    }

    /// Ring allgather: n−1 steps, each rank forwarding the newest block to
    /// its right neighbour. Returns all ranks' payloads in rank order.
    pub async fn allgather(&mut self, payload: Bytes) -> Vec<Bytes> {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[r] = payload;
        if n == 1 {
            return out;
        }
        let right = (r + 1) % n;
        let left = (r + n - 1) % n;
        let mut have = r; // index of the newest block we hold
        for _ in 0..n - 1 {
            let sreq = self.isend(right, TAG_ALLGATHER, out[have].clone());
            let (_, p) = self.recv(left, TAG_ALLGATHER).await;
            have = (have + n - 1) % n;
            out[have] = p;
            self.wait(sreq).await;
        }
        out
    }

    /// Pairwise-exchange all-to-all of synthetic `bytes`-per-peer messages.
    pub async fn alltoall_size(&mut self, bytes: u64) {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        for step in 1..n {
            let dst = (r + step) % n;
            let src = (r + n - step) % n;
            let sreq = self.isend_size(dst, TAG_ALLTOALL, bytes);
            let _ = self.recv(src, TAG_ALLTOALL).await;
            self.wait(sreq).await;
        }
    }

    /// Pairwise-exchange all-to-all with real payloads (one per peer, in
    /// rank order). Returns the payloads received, indexed by source rank.
    pub async fn alltoall(&mut self, chunks: Vec<Bytes>) -> Vec<Bytes> {
        let _in = self.collective();
        let n = self.nranks();
        let r = self.rank();
        assert_eq!(chunks.len(), n, "alltoall needs one chunk per rank");
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[r] = chunks[r].clone();
        for step in 1..n {
            let dst = (r + step) % n;
            let src = (r + n - step) % n;
            let sreq = self.isend(dst, TAG_ALLTOALL, chunks[dst].clone());
            let (meta, p): (MsgMeta, Bytes) = self.recv(src, TAG_ALLTOALL).await;
            debug_assert_eq!(meta.src, src);
            out[src] = p;
            self.wait(sreq).await;
        }
        out
    }
}
