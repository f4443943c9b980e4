//! A bounded pool of [`SwapWorkspace`]s for cross-request reuse.
//!
//! The workspace module makes per-*run* reuse explicit: pass the same
//! `&mut SwapWorkspace` to successive runs and the sweep loop allocates
//! nothing in the steady state. A long-running server adds one wrinkle —
//! runs come from many threads, each serving a different job, and tying a
//! workspace to a thread would strand grown buffers on idle threads. The
//! [`WorkspacePool`] instead checks workspaces in and out of a shared,
//! bounded free list: a worker acquires one for the duration of a job
//! segment (an RAII [`PooledWorkspace`] guard), and on drop it returns to
//! the pool unless the pool is already full, in which case it is simply
//! freed.
//!
//! Reuse never affects results: a [`SwapWorkspace`]'s documented invariant
//! is that runs are byte-identical on a fresh or reused workspace, so the
//! pool is a pure allocation-amortization layer (asserted by the
//! `pooled_runs_match_fresh_runs` test).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::SwapWorkspace;

/// A bounded free list of [`SwapWorkspace`]s. Cheap to share
/// (`Arc<WorkspacePool>`); see the module docs.
#[derive(Debug)]
pub struct WorkspacePool {
    free: Mutex<Vec<SwapWorkspace>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WorkspacePool {
    /// A pool retaining at most `capacity` idle workspaces. A capacity of
    /// zero is allowed: every acquire builds fresh and every release frees,
    /// which degrades performance but never correctness.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            free: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Check a workspace out of the pool (reusing an idle one when
    /// available, building fresh otherwise). The guard returns it on drop.
    pub fn acquire(self: &Arc<Self>) -> PooledWorkspace {
        let reused = self
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        let ws = match reused {
            Some(ws) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                ws
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                SwapWorkspace::new()
            }
        };
        PooledWorkspace {
            ws: Some(ws),
            pool: Arc::clone(self),
        }
    }

    /// Idle workspaces currently retained.
    pub fn idle(&self) -> usize {
        self.free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Acquires served from the free list.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquires that had to build a fresh workspace.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn release(&self, ws: SwapWorkspace) {
        let mut free = self
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if free.len() < self.capacity {
            free.push(ws);
        }
        // else: drop — the pool stays bounded even under a worker surge.
    }
}

/// RAII guard over a checked-out [`SwapWorkspace`]; derefs to it and
/// returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledWorkspace {
    ws: Option<SwapWorkspace>,
    pool: Arc<WorkspacePool>,
}

impl std::ops::Deref for PooledWorkspace {
    type Target = SwapWorkspace;

    fn deref(&self) -> &SwapWorkspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledWorkspace {
    fn deref_mut(&mut self) -> &mut SwapWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl PooledWorkspace {
    /// Drop the workspace instead of returning it to the pool.
    ///
    /// A workspace whose run was interrupted by a caught panic may hold
    /// arbitrarily inconsistent internal state; discarding it guarantees
    /// the poison never reaches a later job through the free list. After
    /// `discard` the guard must not be dereferenced.
    pub fn discard(&mut self) {
        self.ws = None;
    }
}

impl Drop for PooledWorkspace {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.release(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_swap_edges;
    use graphcore::EdgeList;

    fn ring(n: u32) -> EdgeList {
        EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn pool_reuses_up_to_capacity() {
        let pool = WorkspacePool::new(1);
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
            assert_eq!(pool.misses(), 2);
        }
        // Both dropped; only one retained.
        assert_eq!(pool.idle(), 1);
        let _c = pool.acquire();
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn zero_capacity_pool_never_retains() {
        let pool = WorkspacePool::new(0);
        drop(pool.acquire());
        assert_eq!(pool.idle(), 0);
        drop(pool.acquire());
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.misses(), 2);
    }

    #[test]
    fn discarded_workspace_never_returns_to_the_pool() {
        let pool = WorkspacePool::new(4);
        let mut ws = pool.acquire();
        ws.discard();
        drop(ws);
        assert_eq!(pool.idle(), 0, "discarded workspace must not be pooled");
    }

    #[test]
    fn pooled_runs_match_fresh_runs() {
        let (sweeps, seed) = (3, 0xFEED);
        let mut fresh = ring(64);
        try_swap_edges(&mut fresh, sweeps, seed, &mut SwapWorkspace::new()).unwrap();

        let pool = WorkspacePool::new(2);
        // Warm the pool with a differently-sized run, then reuse.
        {
            let mut ws = pool.acquire();
            let mut warm = ring(200);
            try_swap_edges(&mut warm, sweeps, seed, &mut ws).unwrap();
        }
        let mut ws = pool.acquire();
        assert_eq!(pool.hits(), 1);
        let mut reused = ring(64);
        try_swap_edges(&mut reused, sweeps, seed, &mut ws).unwrap();
        assert_eq!(fresh.edges(), reused.edges());
    }
}
