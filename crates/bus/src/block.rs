//! Fixed-capacity transaction blocks and the recycling pool behind them.
//!
//! The board keeps up with a 100 MHz bus because its FPGAs consume the
//! transaction stream in bulk; the software reproduction gets the same
//! effect by moving transactions through the whole data path — host bus,
//! address filter, engine shards, trace IO — in [`TransactionBlock`]s: flat
//! fixed-capacity buffers of [`Transaction`]s. Blocks are handed out by a
//! [`BlockPool`] and return to it automatically when dropped, so a steady
//! stream recycles the same few buffers forever instead of allocating one
//! `Vec` per batch.
//!
//! The pool is `Clone + Send + Sync`; a [`PooledBlock`] can cross threads
//! (the pipelined host producer ships filled blocks over a bounded channel)
//! and can be shared read-only behind an `Arc` (the sharded engine
//! broadcasts one block to every worker; the last worker's drop recycles
//! the buffer).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::transaction::Transaction;

/// Buffers kept on a pool's free list at most; beyond this, returned
/// buffers are simply freed. In-flight block count is bounded by the
/// queue depths of the data path, so this is never reached in practice.
const MAX_FREE: usize = 64;

/// A fixed-capacity flat buffer of bus transactions.
///
/// The capacity is fixed at construction and [`push`](Self::push) beyond it
/// panics — callers check [`is_full`](Self::is_full) and hand the block
/// downstream before refilling. Dereferences to `[Transaction]` for
/// zero-cost read access.
#[derive(Debug)]
pub struct TransactionBlock {
    txns: Vec<Transaction>,
    cap: usize,
}

impl TransactionBlock {
    /// Creates an empty block able to hold `capacity` transactions
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TransactionBlock {
            txns: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Fixed capacity of this block.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// `true` once the block holds `capacity` transactions.
    pub fn is_full(&self) -> bool {
        self.txns.len() >= self.cap
    }

    /// Appends a transaction.
    ///
    /// # Panics
    ///
    /// Panics if the block is already full.
    pub fn push(&mut self, txn: Transaction) {
        assert!(
            self.txns.len() < self.cap,
            "TransactionBlock overfilled (capacity {})",
            self.cap
        );
        self.txns.push(txn);
    }

    /// Empties the block, keeping its buffer.
    pub fn clear(&mut self) {
        self.txns.clear();
    }

    /// Keeps only the transactions for which `keep` returns `true`,
    /// preserving order — in-place filtering, no allocation.
    pub fn retain(&mut self, keep: impl FnMut(&Transaction) -> bool) {
        self.txns.retain(keep);
    }

    /// The filled prefix as a slice.
    pub fn as_slice(&self) -> &[Transaction] {
        &self.txns
    }

    /// Takes the backing buffer out, leaving the block empty with no
    /// capacity. Used by the pool on recycle.
    fn take_buffer(&mut self) -> Vec<Transaction> {
        self.cap = 0;
        std::mem::take(&mut self.txns)
    }
}

impl Deref for TransactionBlock {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        &self.txns
    }
}

impl<'a> IntoIterator for &'a TransactionBlock {
    type Item = &'a Transaction;
    type IntoIter = std::slice::Iter<'a, Transaction>;

    fn into_iter(self) -> Self::IntoIter {
        self.txns.iter()
    }
}

/// Allocation counters of a [`BlockPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Blocks served by recycling a returned buffer (no allocation).
    pub hits: u64,
    /// Blocks that required a fresh allocation (free list empty).
    pub fresh: u64,
}

struct PoolInner {
    capacity: usize,
    free: Mutex<Vec<Vec<Transaction>>>,
    hits: AtomicU64,
    fresh: AtomicU64,
}

/// A recycling pool of equally-sized [`TransactionBlock`]s.
///
/// [`take`](Self::take) pops a buffer off the free list (or allocates one
/// if none is available); dropping the returned [`PooledBlock`] puts the
/// buffer back. Cloning the pool is cheap — clones share the same free
/// list and counters.
#[derive(Clone)]
pub struct BlockPool {
    inner: Arc<PoolInner>,
}

impl BlockPool {
    /// Creates a pool of blocks holding `block_capacity` transactions each
    /// (clamped to at least 1).
    pub fn new(block_capacity: usize) -> Self {
        BlockPool {
            inner: Arc::new(PoolInner {
                capacity: block_capacity.max(1),
                free: Mutex::new(Vec::new()),
                hits: AtomicU64::new(0),
                fresh: AtomicU64::new(0),
            }),
        }
    }

    /// Capacity of every block this pool hands out.
    pub fn block_capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Takes an empty block — recycled if one is free, freshly allocated
    /// otherwise.
    pub fn take(&self) -> PooledBlock {
        let recycled = self
            .inner
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        let txns = match recycled {
            Some(buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.inner.fresh.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(self.inner.capacity)
            }
        };
        PooledBlock {
            block: TransactionBlock {
                txns,
                cap: self.inner.capacity,
            },
            pool: Arc::clone(&self.inner),
        }
    }

    /// Lifetime allocation counters: recycled vs. freshly allocated blocks.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            fresh: self.inner.fresh.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for BlockPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockPool")
            .field("block_capacity", &self.inner.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A [`TransactionBlock`] on loan from a [`BlockPool`].
///
/// Dereferences to the block; on drop the backing buffer returns to the
/// pool's free list. Safe to move across threads and to share behind an
/// `Arc` — whichever owner drops last performs the recycle.
pub struct PooledBlock {
    block: TransactionBlock,
    pool: Arc<PoolInner>,
}

impl PooledBlock {
    /// Splits the block at `at`: `self` keeps `[..at]` and the returned
    /// block, taken from the same pool, holds `[at..]`. This is how a
    /// stream position cuts a block without re-packing the part before
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    #[must_use]
    pub fn split_off(&mut self, at: usize) -> PooledBlock {
        let pool = BlockPool {
            inner: Arc::clone(&self.pool),
        };
        let mut tail = pool.take();
        tail.block.txns.extend_from_slice(&self.block.txns[at..]);
        self.block.txns.truncate(at);
        tail
    }
}

impl Deref for PooledBlock {
    type Target = TransactionBlock;

    fn deref(&self) -> &TransactionBlock {
        &self.block
    }
}

impl DerefMut for PooledBlock {
    fn deref_mut(&mut self) -> &mut TransactionBlock {
        &mut self.block
    }
}

impl Drop for PooledBlock {
    fn drop(&mut self) {
        let mut buf = self.block.take_buffer();
        if buf.capacity() >= self.pool.capacity {
            buf.clear();
            let mut free = self.pool.free.lock().unwrap_or_else(|e| e.into_inner());
            if free.len() < MAX_FREE {
                free.push(buf);
            }
        }
    }
}

impl std::fmt::Debug for PooledBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBlock")
            .field("len", &self.block.len())
            .field("capacity", &self.block.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, ProcId};
    use crate::op::BusOp;
    use crate::transaction::SnoopResponse;

    fn txn(i: u64) -> Transaction {
        Transaction::new(
            i,
            i * 60,
            ProcId::new((i % 4) as u8),
            BusOp::Read,
            Address::new(i * 128),
            SnoopResponse::Null,
        )
    }

    #[test]
    fn block_fills_to_capacity_and_clears() {
        let mut block = TransactionBlock::with_capacity(4);
        assert_eq!(block.capacity(), 4);
        assert!(block.is_empty());
        for i in 0..4 {
            assert!(!block.is_full());
            block.push(txn(i));
        }
        assert!(block.is_full());
        assert_eq!(block.len(), 4);
        assert_eq!(block.as_slice()[2], txn(2));
        block.clear();
        assert!(block.is_empty());
        assert_eq!(block.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn overfilling_panics() {
        let mut block = TransactionBlock::with_capacity(1);
        block.push(txn(0));
        block.push(txn(1));
    }

    #[test]
    fn retain_filters_in_place() {
        let mut block = TransactionBlock::with_capacity(8);
        for i in 0..8 {
            block.push(txn(i));
        }
        block.retain(|t| t.seq % 2 == 0);
        assert_eq!(block.len(), 4);
        assert!(block.iter().all(|t| t.seq % 2 == 0));
    }

    #[test]
    fn pool_recycles_dropped_blocks() {
        let pool = BlockPool::new(16);
        let first = pool.take();
        assert_eq!(pool.stats(), PoolStats { hits: 0, fresh: 1 });
        drop(first);
        let second = pool.take();
        assert_eq!(pool.stats(), PoolStats { hits: 1, fresh: 1 });
        assert!(second.is_empty());
        assert_eq!(second.capacity(), 16);
    }

    #[test]
    fn concurrent_takes_allocate_then_recycle() {
        let pool = BlockPool::new(8);
        let a = pool.take();
        let b = pool.take();
        assert_eq!(pool.stats(), PoolStats { hits: 0, fresh: 2 });
        drop(a);
        drop(b);
        let _c = pool.take();
        let _d = pool.take();
        assert_eq!(pool.stats(), PoolStats { hits: 2, fresh: 2 });
    }

    #[test]
    fn shared_block_recycles_on_last_drop() {
        let pool = BlockPool::new(4);
        let mut block = pool.take();
        block.push(txn(0));
        let shared = std::sync::Arc::new(block);
        let other = std::sync::Arc::clone(&shared);
        drop(shared);
        assert_eq!(pool.stats(), PoolStats { hits: 0, fresh: 1 });
        drop(other);
        let recycled = pool.take();
        assert_eq!(pool.stats(), PoolStats { hits: 1, fresh: 1 });
        assert!(recycled.is_empty());
    }

    #[test]
    fn split_off_keeps_the_head_and_returns_the_tail_from_the_pool() {
        let pool = BlockPool::new(8);
        let mut head = pool.take();
        for i in 0..6 {
            head.push(txn(i));
        }
        let tail = head.split_off(4);
        assert_eq!(head.as_slice(), &[txn(0), txn(1), txn(2), txn(3)]);
        assert_eq!(tail.as_slice(), &[txn(4), txn(5)]);
        assert_eq!((head.capacity(), tail.capacity()), (8, 8));
        assert_eq!(pool.stats(), PoolStats { hits: 0, fresh: 2 });

        // Both halves go back to the pool they came from.
        drop(head);
        drop(tail);
        let mut block = pool.take();
        let _other = pool.take();
        assert_eq!(pool.stats(), PoolStats { hits: 2, fresh: 2 });

        // Either end is a valid cut.
        block.push(txn(0));
        block.push(txn(1));
        assert!(block.split_off(2).is_empty());
        let all = block.split_off(0);
        assert!(block.is_empty());
        assert_eq!(all.as_slice(), &[txn(0), txn(1)]);
    }

    #[test]
    fn pool_crosses_threads() {
        let pool = BlockPool::new(4);
        let worker = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut block = pool.take();
                block.push(txn(7));
                block
            })
        };
        let block = worker.join().unwrap();
        assert_eq!(block.as_slice(), &[txn(7)]);
        drop(block);
        assert_eq!(pool.stats().hits + pool.stats().fresh, 1);
    }
}
