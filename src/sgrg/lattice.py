"""Torus block geometry, polymers, closures and the large-set regulator.

Blocks are closed unit squares centered on the integer lattice points of
the two-dimensional torus (side length L^M in block units).  A polymer is a nonempty set
of block indices.  Two blocks are adjacent when their closed squares
intersect, so corner contact counts; two polymers are *region disjoint*
when no pair of their blocks is adjacent (their closed regions are
disjoint), which is the disjointness used by the polymer exponential.

The closure onto the L-block lattice, ``partition_closure``, assigns each
block to the unique L-block whose square contains it, ties on straddling
blocks broken upward.  The scaling map uses this partition so that
single-block activities rescale with the exact L^d block count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

Block = tuple[int, ...]

ENUM_MAX_SIZE_CAP = 6
WHOLE_TORUS_SIDE_CAP = 8  # largest side that enumerate_all_connected scans
THETA_NU = 2.0  # power of (1 + MST length) in the large-set regulator


class CapError(RuntimeError):
    """A request beyond a resource cap: a polymer enumeration, a subset scan
    or a kernel's mode sum or certified derivative order."""


@dataclass(frozen=True)
class TorusSpec:
    """Block lattice on the 2-D torus: side length L^M unit blocks per axis."""

    L: int
    M: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("block scale L must be >= 2")
        if self.M < 0:
            raise ValueError("torus exponent M must be >= 0")

    @property
    def side(self) -> int:
        return self.L**self.M

    @property
    def n_blocks(self) -> int:
        return self.side**2

    @property
    def volume(self) -> float:
        return float(self.side**2)

    def wrap(self, coords) -> Block:
        s = self.side
        return tuple(int(c) % s for c in coords)

    def delta(self, b1: Block, b2: Block) -> tuple[int, ...]:
        """Minimal-image coordinate difference b1 - b2, components in (-side/2, side/2]."""
        s = self.side
        out = []
        for a, b in zip(b1, b2):
            diff = (a - b) % s
            if diff > s // 2:
                diff -= s
            out.append(diff)
        return tuple(out)

    def cheb(self, b1: Block, b2: Block) -> int:
        return max(abs(c) for c in self.delta(b1, b2))

    def coarse(self) -> "TorusSpec":
        if self.M < 1:
            raise ValueError("no coarser lattice below M=0")
        return TorusSpec(self.L, self.M - 1)


@dataclass(frozen=True)
class Polymer:
    """Nonempty set of blocks with cached size and connectivity count."""

    blocks: frozenset

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("polymer must contain at least one block")

    @property
    def size(self) -> int:
        return len(self.blocks)

    def sorted_blocks(self) -> list[Block]:
        return sorted(self.blocks)

    def shape_key(self) -> tuple[Block, ...]:
        """Translation-canonical form: blocks shifted so the min corner is 0."""
        bs = self.sorted_blocks()
        base = tuple(min(b[i] for b in bs) for i in range(len(bs[0])))
        return tuple(tuple(c - base[i] for i, c in enumerate(b)) for b in bs)

    def translate(self, shift) -> "Polymer":
        return Polymer(frozenset(tuple(c + s for c, s in zip(b, shift)) for b in self.blocks))


def polymer(blocks) -> Polymer:
    return Polymer(frozenset(tuple(b) for b in blocks))


def neighbors(b: Block, torus: TorusSpec):
    """Blocks other than b whose closed squares intersect b's (Chebyshev distance 1)."""
    offs = itertools.product((-1, 0, 1), repeat=2)
    for off in offs:
        if all(o == 0 for o in off):
            continue
        yield torus.wrap(tuple(c + o for c, o in zip(b, off)))


def is_connected(blocks, torus: TorusSpec) -> bool:
    blocks = set(blocks)
    if not blocks:
        return False
    seen = {next(iter(blocks))}
    stack = list(seen)
    while stack:
        b = stack.pop()
        for nb in neighbors(b, torus):
            if nb in blocks and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(blocks)


def region_disjoint(p1: Polymer, p2: Polymer, torus: TorusSpec) -> bool:
    """True when the closed regions are disjoint: no pair of blocks adjacent or equal."""
    for a in p1.blocks:
        for b in p2.blocks:
            if torus.cheb(a, b) <= 1:
                return False
    return True


def region_intersects(p1: Polymer, p2: Polymer, torus: TorusSpec) -> bool:
    return not region_disjoint(p1, p2, torus)


@lru_cache(maxsize=None)
def halo(p: Polymer, torus: TorusSpec) -> frozenset:
    """Blocks of p together with every block adjacent to p (one frozenset per
    distinct polymer and torus, built once)."""
    out = set(p.blocks)
    for b in p.blocks:
        out.update(neighbors(b, torus))
    return frozenset(out)


def enumerate_polymers(
    torus: TorusSpec,
    max_size: int,
    anchor: Block,
) -> list[Polymer]:
    """All connected polymers containing ``anchor`` with size <= max_size, each once."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if max_size > ENUM_MAX_SIZE_CAP:
        raise CapError(
            f"max_size={max_size} exceeds enumeration cap {ENUM_MAX_SIZE_CAP}"
        )
    anchor = torus.wrap(anchor)
    start = frozenset({anchor})
    seen = {start}
    frontier = [start]
    out = [start]
    for _ in range(max_size - 1):
        nxt = []
        for s in frontier:
            for b in s:
                for nb in neighbors(b, torus):
                    if nb in s:
                        continue
                    t = s | {nb}
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
                        out.append(t)
        frontier = nxt
    return sorted((Polymer(s) for s in out), key=lambda p: (p.size, p.sorted_blocks()))


def enumerate_all_connected(torus: TorusSpec, max_size: int) -> list[Polymer]:
    """Every connected polymer of the torus with size <= max_size (whole-torus scan)."""
    if torus.side > WHOLE_TORUS_SIDE_CAP:
        raise CapError(
            f"torus side {torus.side} exceeds whole-torus enumeration cap {WHOLE_TORUS_SIDE_CAP}"
        )
    seen = set()
    out = []
    for anchor in itertools.product(range(torus.side), repeat=2):
        for p in enumerate_polymers(torus, max_size, anchor):
            if p.blocks not in seen:
                seen.add(p.blocks)
                out.append(p)
    return sorted(out, key=lambda p: (p.size, p.sorted_blocks()))


def enumerate_shapes(max_size: int) -> list[Polymer]:
    """Translation classes of connected polymers (anchored with min corner at 0)."""
    aux = TorusSpec(L=2, M=max(4, max_size.bit_length() + 2))
    center = (aux.side // 2, aux.side // 2)
    shapes = set()
    for p in enumerate_polymers(aux, max_size, center):
        shapes.add(p.shape_key())
    return sorted(
        (Polymer(frozenset(s)) for s in shapes), key=lambda p: (p.size, p.sorted_blocks())
    )


def is_small(p: Polymer, torus: TorusSpec) -> bool:
    """Small set: connected with at most 2^d = 4 blocks."""
    return p.size <= 4 and is_connected(p.blocks, torus)


def count_small_supersets(torus: TorusSpec) -> int:
    """Number of small polymers containing a block (by translation, any
    block: the one at the torus center)."""
    center = (torus.side // 2, torus.side // 2)
    return sum(1 for p in enumerate_polymers(torus, 4, center))


@lru_cache(maxsize=None)
def small_shapes() -> tuple[Polymer, ...]:
    """Translation classes of small sets (connected, size <= 2^d = 4)."""
    return tuple(enumerate_shapes(4))


def partition_block(k: int, L: int) -> int:
    """Index of the L-block assigned to block k; straddling blocks go upward."""
    return (k + L // 2) // L


def partition_closure(p: Polymer, torus: TorusSpec) -> Polymer:
    """Partition closure used by the scaling map: every block to one L-block."""
    coarse = torus.coarse()
    L = torus.L
    return Polymer(
        frozenset(coarse.wrap(tuple(partition_block(k, L) for k in b)) for b in p.blocks)
    )


def block_quadrature_nodes(block, n_q: int):
    """Midpoint nodes of the closed unit square centered at the block index."""
    return [(block[0] - 0.5 + (i + 0.5) / n_q, block[1] - 0.5 + (j + 0.5) / n_q)
            for i in range(n_q) for j in range(n_q)]


def block_distance(b1: Block, b2: Block, torus: TorusSpec) -> float:
    """Euclidean torus distance between block centers."""
    return math.sqrt(sum(c * c for c in torus.delta(b1, b2)))


def mst_length(p: Polymer, torus: TorusSpec) -> float:
    """Minimal spanning tree length over block centers (Prim)."""
    bs = p.sorted_blocks()
    n = len(bs)
    if n <= 1:
        return 0.0
    in_tree = [False] * n
    dist = [math.inf] * n
    dist[0] = 0.0
    total = 0.0
    for _ in range(n):
        j = min((i for i in range(n) if not in_tree[i]), key=lambda i: dist[i])
        in_tree[j] = True
        total += dist[j]
        for i in range(n):
            if not in_tree[i]:
                d = block_distance(bs[j], bs[i], torus)
                if d < dist[i]:
                    dist[i] = d
    return total


def log_gamma_p(X: Polymer, p: int, torus: TorusSpec) -> float:
    """log of the large-set regulator Gamma_p(X) = 2^{p|X|} A^{|X|} (1 + MST
    length)^THETA_NU, with the amplitude A = L^{d+3} of the torus:
    |X| (p log 2 + log A) + THETA_NU log(1 + MST length)."""
    n = X.size
    return (
        p * n * math.log(2.0)
        + n * math.log(float(torus.L ** (2 + 3)))
        + THETA_NU * math.log1p(mst_length(X, torus))
    )
