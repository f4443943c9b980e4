//! Edge-key encodings: what the swap kernel needs to know about an edge.
//!
//! The kernel (register → permute → propose → claim → commit) touches an
//! edge only through the few operations of [`SwapEdge`], so one
//! implementation serves every graph kind whose edges pack two vertex ids
//! into a 64-bit table key. Dispatch is static: each encoding gets its own
//! monomorphized copy of the kernel, and the undirected one compiles to the
//! same code as a kernel written for [`Edge`] alone.
//!
//! * [`Edge`] — the canonical unordered pair: key `(min << 32) | max`, and
//!   the sweep's side bit picks one of the two rewirings `{u,x},{v,y}` /
//!   `{u,y},{v,x}`.
//! * `directed::DiEdge` — the ordered pair: key `(from << 32) | to`, and the
//!   single degree-preserving rewiring `(a→b, c→d) → (a→d, c→b)`, which
//!   ignores the side bit.

use graphcore::{Edge, EdgeList};

/// An edge the swap kernel can register, propose and commit.
pub trait SwapEdge: Copy + Send + Sync + 'static {
    /// The 64-bit table key: the two vertex ids in the high and low 32
    /// bits. Distinct edges must have distinct keys, and ids below
    /// `u32::MAX` keep the key below the tables' empty sentinel.
    fn key(&self) -> u64;

    /// The two vertex ids, in key order (high half first).
    fn endpoints(&self) -> (u32, u32);

    /// `true` when both endpoints coincide.
    fn is_self_loop(&self) -> bool;

    /// The two replacement edges of the double-edge swap of `(self,
    /// other)`. `side` is the pair's partner-choice bit for the sweep; an
    /// encoding with a single degree-preserving rewiring ignores it.
    fn swap_with(&self, other: &Self, side: bool) -> (Self, Self);
}

/// An edge list the swap kernel can mix in place.
pub trait SwapGraph {
    /// The edge encoding of this graph kind.
    type Edge: SwapEdge;

    /// Vertex count: every endpoint is below it.
    fn num_vertices(&self) -> usize;

    /// The edges, in slot order.
    fn edges(&self) -> &[Self::Edge];

    /// Mutable edge view; the kernel writes the final edges back here.
    fn edges_mut(&mut self) -> &mut [Self::Edge];

    /// `true` when no edge is a self loop and no key repeats. The driver
    /// asks only for a run that ends before its first sweep; a sweep reads
    /// the same answer off the membership table it fills anyway.
    fn is_simple(&self) -> bool;
}

impl SwapEdge for Edge {
    #[inline(always)]
    fn key(&self) -> u64 {
        Edge::key(self)
    }

    #[inline(always)]
    fn endpoints(&self) -> (u32, u32) {
        Edge::endpoints(self)
    }

    #[inline(always)]
    fn is_self_loop(&self) -> bool {
        Edge::is_self_loop(self)
    }

    #[inline(always)]
    fn swap_with(&self, other: &Self, side: bool) -> (Self, Self) {
        Edge::swap_with(self, other, side)
    }
}

impl SwapGraph for EdgeList {
    type Edge = Edge;

    #[inline]
    fn num_vertices(&self) -> usize {
        EdgeList::num_vertices(self)
    }

    #[inline]
    fn edges(&self) -> &[Edge] {
        EdgeList::edges(self)
    }

    #[inline]
    fn edges_mut(&mut self) -> &mut [Edge] {
        EdgeList::edges_mut(self)
    }

    fn is_simple(&self) -> bool {
        EdgeList::is_simple(self)
    }
}
