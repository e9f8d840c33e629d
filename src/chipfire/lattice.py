"""Finite posets and lattices: irreducibles, codings, detectors, constructions.

Orders are stored as boolean ``leq`` matrices on elements 0..n-1, and sets of
elements as ints (bit x is element x). Covers are kept when the order is built
from them (``Poset.from_covers`` closes up-sets over them; set families pass
their one-element steps) and derived from ``leq`` otherwise.

A lattice builds only its join table at construction, by dynamic programming
over covers vectorised over whole levels of rows: for incomparable x and y,
x∨y is the least of c∨y over the upper covers c of x, and there is no join
when the candidates have no least element. Every join plus a least element
make a finite order a lattice; meets, the same recurrence on the dual, are
built on request. Distributivity is read off the meet-irreducible coding,
one recurrence over upper covers (``_mi_codes``): a finite lattice is
distributive iff it is upper locally distributive (ULD) with as many join-
as meet-irreducibles, so the triple law only names a witness. That coding,
the cover-step test and the verdict rules are shared with
``engine.ConfigSpace``, which reads the coding off its moves instead of a
dense order, and its rank off its covers, each of which adds one firing.
"""

from __future__ import annotations

import graphlib
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import CapExceeded, DetectorDisagreement, NotALatticeError


def _row_masks(matrix) -> tuple[int, ...]:
    """Each row of a boolean matrix as an int whose bit i is column i."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _some(a, b) -> np.ndarray:
    """Boolean matrix product: entry (i, k) says a[i, j] and b[j, k] for some j."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


# Rules shared by Lattice and engine.ConfigSpace. Both expose J, M,
# _mx_masks, uld_detectors and the two detector witnesses; a Lattice reads
# them off its dense order and covers, a ConfigSpace off its moves.
# The rank is not shared: a ConfigSpace is ranked by total firings.


def _mi_codes(M, ups, order) -> tuple[int, ...]:
    """mi_above as bitmask over positions in M: mx(x) = (bit b if x is M[b]) |
    the OR of mx over the upper covers ``ups[x]``, filled in reverse along the
    linear extension ``order``."""
    codes = [0] * len(ups)
    for b, m in enumerate(M):
        codes[m] = 1 << b
    for x in reversed(order):
        for c in ups[x]:
            codes[x] |= codes[c]
    return tuple(codes)


def _first_bad_step(cover_pairs, masks):
    """First cover (lo, hi) that removes != 1 meet-irreducible from the
    mi_above ``masks``, or None."""
    for lo, hi in cover_pairs:
        if (masks[lo] & ~masks[hi]).bit_count() != 1:
            return (lo, hi)
    return None


def _uld_verdict(order) -> bool:
    """The common verdict of the two ULD detectors; DetectorDisagreement,
    naming both witnesses, when they split."""
    by_cube, by_step = order.uld_detectors
    if by_cube != by_step:
        raise DetectorDisagreement(
            f"local-distributivity detectors disagree: hypercube={by_cube} "
            f"(witness {order._hypercube_witness()}), cover-step={by_step} "
            f"(witness {order._cover_step_witness()})"
        )
    return by_cube


def _distributive_verdict(order) -> bool:
    """Distributive iff ULD and |J| = |M|.

    Every cover drops at least one meet-irreducible from ``mi_above`` and
    adds at least one join-irreducible to ``ji_below``. If each drops
    exactly one (ULD), every maximal chain has length |M| = |J|, so each
    also adds exactly one: the dual is ULD too, which makes the lattice
    distributive (Dilworth 1940; Monjardet 1985).
    """
    return len(order.J) == len(order.M) and order.is_uld


class Poset:
    """Finite partial order given by its full ``leq`` relation."""

    def __init__(self, leq, labels=None, _checked=False, _covers=None):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise ValueError("leq must be a square matrix")
        n = leq.shape[0]
        if labels is None:
            labels = tuple(f"e{i}" for i in range(n))
        labels = tuple(str(x) for x in labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be unique and match the element count")
        if not _checked:
            if not leq.diagonal().all():
                raise ValueError("order is not reflexive")
            if (leq & leq.T).sum() != n:
                raise ValueError("order is not antisymmetric")
            if (_some(leq, leq) & ~leq).any():
                raise ValueError("order is not transitive")
        leq.flags.writeable = False
        self.leq = leq
        self.n = n
        self.labels = labels
        if _covers is not None:
            self.cover_pairs = _covers

    @classmethod
    def from_covers(cls, n, covers, labels=None, **kwargs):
        """Build from cover pairs (lower, upper); rejects cyclic input.

        Repeated pairs and pairs implied by transitivity are dropped; the
        reduced, sorted list is kept as ``cover_pairs``.
        """
        up = [set() for _ in range(n)]
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n) or lo == hi:
                raise ValueError(f"bad cover pair ({lo},{hi})")
            up[lo].add(operator.index(hi))  # a numpy-integer shift overflows past bit 63
        try:  # each element after its upper covers
            order = tuple(graphlib.TopologicalSorter(dict(enumerate(up))).static_order())
        except graphlib.CycleError:
            raise ValueError("cover relation contains a cycle") from None
        above = [0] * n  # strict up-sets
        kept = []
        for v in order:  # a pair reached in two or more steps is implied
            far = 0
            for w in up[v]:
                far |= above[w]
            kept += [(v, w) for w in up[v] if not far >> w & 1]
            above[v] = far | sum(1 << w for w in up[v])
        width = -(-n // 8)
        rows = b"".join((m | 1 << v).to_bytes(width, "little") for v, m in enumerate(above))
        packed = np.frombuffer(rows, dtype=np.uint8).reshape(n, width)
        leq = np.unpackbits(packed, axis=1, count=n, bitorder="little")
        return cls(leq, labels=labels, _checked=True, _covers=tuple(sorted(kept)), **kwargs)

    def _check(self, x) -> int:
        """x as a plain int; ValueError unless it is an element id."""
        i = operator.index(x) if hasattr(x, "__index__") else -1
        if not 0 <= i < self.n:
            raise ValueError(f"unknown element id {x!r}")
        return i

    def le(self, x, y) -> bool:
        return bool(self.leq[self._check(x), self._check(y)])

    def lt(self, x, y) -> bool:
        return self.le(x, y) and x != y

    @cached_property
    def _cover_matrix(self) -> np.ndarray:
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        return strict & ~_some(strict, strict)

    @cached_property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        los, his = np.nonzero(self._cover_matrix)
        return tuple(sorted(zip(los.tolist(), his.tolist())))

    @cached_property
    def _upper_covers(self) -> tuple[tuple[int, ...], ...]:
        ups = [[] for _ in range(self.n)]
        for lo, hi in self.cover_pairs:
            ups[lo].append(hi)
        return tuple(tuple(u) for u in ups)

    @cached_property
    def _lower_covers(self) -> tuple[tuple[int, ...], ...]:
        downs = [[] for _ in range(self.n)]
        for lo, hi in self.cover_pairs:
            downs[hi].append(lo)
        return tuple(tuple(d) for d in downs)

    def upper_covers(self, x) -> tuple[int, ...]:
        return self._upper_covers[self._check(x)]

    def lower_covers(self, x) -> tuple[int, ...]:
        return self._lower_covers[self._check(x)]

    @cached_property
    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._lower_covers[x])

    @cached_property
    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._upper_covers[x])

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Elements sorted by down-set size; a linear extension."""
        below = self.leq.sum(axis=0)
        return tuple(np.argsort(below, kind="stable").tolist())

    def restrict(self, elements: Iterable[int]) -> "Poset":
        """Induced suborder, keeping labels; elements in ascending index order."""
        keep = sorted(set(elements))
        sub = self.leq[np.ix_(keep, keep)]
        return Poset(sub, labels=tuple(self.labels[x] for x in keep), _checked=True)

    @cached_property
    def _down_masks(self) -> tuple[int, ...]:
        """Bitmask of {y : y <= x} for each x."""
        return _row_masks(self.leq.T)

    def ideal_masks(self, cap=None) -> list[int]:
        """All down-closed subsets as bitmasks, sorted by (size, value).

        Walks a linear extension: the ideals holding x are those of the
        elements before x that hold everything below x, each plus x.
        """
        down = self._down_masks
        ideals = [0]
        for x in self.topo_order:
            if cap is not None and len(ideals) > cap:
                break
            bit = 1 << x
            ideals += [m | bit for m in ideals if down[x] & ~m == bit]
        if cap is not None and len(ideals) > cap:
            raise CapExceeded(f"ideal family exceeds cap {cap}")
        return sorted(ideals, key=lambda m: (bin(m).count("1"), m))

    def ideals(self, cap=None) -> tuple[frozenset[int], ...]:
        """All down-closed subsets as sets of elements, in ``ideal_masks`` order."""
        return tuple(
            frozenset(i for i in range(self.n) if m >> i & 1)
            for m in self.ideal_masks(cap)
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.n} elements)"


# table cells per slice of a join-table build; bounds its temporary arrays
_CELLS = 1 << 18


def _join_table(le, covers, seq):
    """The join table of an order, or None when some pair has no join.

    ``le[x, y]`` says x <= y, ``covers[x]`` lists the upper covers of x. The
    order is renumbered along the linear extension ``seq``, so every element's
    index is below those of the elements above it and the least of a set of
    upper bounds, if it has one, is its smallest index. Rows are filled
    top-down, a level at a time (a level holds the elements whose covers all
    lie in earlier levels): x∨y is y when x <= y, x when y <= x, and otherwise
    the least of c∨y over the covers c of x. That is exact, because every
    upper bound above x lies above some c and so above c∨y; if the smallest
    candidate is not below all the others, x and y have no join.
    """
    n = len(le)
    rank = np.argsort(seq)  # the inverse permutation
    at = rank.tolist()
    ups = [tuple(at[c] for c in covers[x]) for x in seq.tolist()]
    le = le[seq][:, seq]
    deg = np.array([len(u) for u in ups], dtype=np.intp)
    level = [0] * n
    for x in range(n - 1, -1, -1):
        if ups[x]:
            level[x] = 1 + max(level[c] for c in ups[x])
    level = np.array(level)
    width = int(deg.max())
    padded = np.array([u + (0,) * (width - len(u)) for u in ups], dtype=np.intp).reshape(n, width)
    flat = le.ravel()
    everyone = np.arange(n, dtype=np.int32)
    table = np.empty((n, n), dtype=np.int32)
    # by level, then by falling degree, so the rows using cover slot i are a prefix
    by = np.lexsort((-deg, level))
    step = max(1, _CELLS // n)
    for group in np.split(by, np.flatnonzero(np.diff(level[by])) + 1):
        for start in range(0, group.size, step):
            xs = group[start:start + step]
            above = le[xs]
            apart = ~(above | le[:, xs].T)
            rows = np.where(above, everyone, xs[:, None].astype(np.int32))
            if apart.any():
                d = deg[xs]
                if d[0] == 0:
                    return None  # maximal elements below no common bound
                slots = [(np.count_nonzero(d > i), padded[xs, i]) for i in range(d[0])]
                best = table[slots[0][1]]
                for m, cs in slots[1:]:
                    np.minimum(best[:m], table[cs[:m]], out=best[:m])
                base = best.astype(np.intp) * n
                for m, cs in slots:
                    if (apart[:m] & ~flat.take(base[:m] + table[cs[:m]])).any():
                        return None
                rows = np.where(apart, best, rows)
            table[xs] = rows
    table = seq.astype(np.int32)[table[rank][:, rank]]
    table.flags.writeable = False
    return table


def _subset_label(labels, mask) -> str:
    return "{" + ",".join(labels[b] for b in range(mask.bit_length()) if mask >> b & 1) + "}"


def _family_lattice(members, codes, ground_labels) -> "Lattice":
    """Bitmask ``members`` under inclusion, each labelled by its ground elements
    (bit b is ``ground_labels[b]``). Every cover drops one bit of its code, as in
    ideals and antimatroids, so the covers are the pairs of ``codes`` one bit apart."""
    index = {code: i for i, code in enumerate(codes)}
    covers = [
        (index[code ^ 1 << b], j)
        for j, code in enumerate(codes) for b in range(code.bit_length())
        if code >> b & 1 and code ^ 1 << b in index
    ]
    labels = tuple(_subset_label(ground_labels, m) for m in members)
    return Lattice.from_covers(len(codes), covers, labels=labels)


class Lattice(Poset):
    """Bounded lattice; construction checks every join and a least element.

    ``join_table`` is :func:`_join_table`, built at construction;
    ``meet_table`` is the same run on the dual order, built on first use. On
    a failure the pairs are rescanned in index order, so the error names the
    first offending pair.

    ``cover_labels`` optionally annotates cover edges (e.g. with the vertex
    fired along a configuration-space edge).
    """

    def __init__(self, leq, labels=None, cover_labels=None, _checked=False, _covers=None):
        super().__init__(leq, labels=labels, _checked=_checked, _covers=_covers)
        self.cover_labels = dict(cover_labels) if cover_labels else {}
        self._build_tables()

    def _witness_pair(self, i, j, rows, reverse, kind):
        """Raise for i and j; ``reverse`` holds the other side's masks."""
        common = rows[i] & rows[j]
        li, lj = self.labels[i], self.labels[j]
        if not common:
            raise NotALatticeError(f"not a lattice: {li} and {lj} have no common {kind} bound")
        extreme = [
            a for a in range(common.bit_length())
            if common >> a & 1 and reverse[a] & common == 1 << a
        ]
        word = "minimal" if kind == "upper" else "maximal"
        names = ", ".join(self.labels[a] for a in extreme[:4])
        raise NotALatticeError(
            f"not a lattice: {li} and {lj} have {len(extreme)} {word} common "
            f"{kind} bounds ({names})"
        )

    def _raise_first_failure(self):
        """Raise for the first pair (i, j), i <= j in index order, without a
        join or, checked second, a meet: its common upper (lower) bounds are
        not the up-set (down-set) of any element."""
        up, down = _row_masks(self.leq), self._down_masks
        ups, downs = set(up), set(down)
        for i in range(self.n):
            for j in range(i, self.n):
                if up[i] & up[j] not in ups:
                    self._witness_pair(i, j, up, down, "upper")
                if down[i] & down[j] not in downs:
                    self._witness_pair(i, j, down, up, "lower")
        raise RuntimeError("table build failed although every pair has a join and a meet")

    def _build_tables(self):
        if self.n == 0:
            raise NotALatticeError("not a lattice: empty element set")
        order = np.array(self.topo_order, dtype=np.intp)
        table = _join_table(self.leq, self._upper_covers, order)
        # with every join, a least element makes every meet exist too
        if table is None or len(self.minimal_elements) != 1:
            self._raise_first_failure()
        self.join_table = table
        self.bottom, self.top = int(order[0]), int(order[-1])

    @cached_property
    def meet_table(self) -> np.ndarray:
        """The join table of the dual order, built on first use."""
        return _join_table(self.leq.T, self._lower_covers, np.array(self.topo_order[::-1]))

    def join(self, x, y) -> int:
        return int(self.join_table[self._check(x), self._check(y)])

    def meet(self, x, y) -> int:
        return int(self.meet_table[self._check(x), self._check(y)])

    def restrict(self, elements):
        # restricting a lattice generally yields only a poset
        return Poset.restrict(self, elements)

    # irreducibles and codings

    @cached_property
    def J(self) -> tuple[int, ...]:
        """Join-irreducibles: elements with exactly one lower cover."""
        return tuple(x for x, lows in enumerate(self._lower_covers) if len(lows) == 1)

    @cached_property
    def M(self) -> tuple[int, ...]:
        """Meet-irreducibles: elements with exactly one upper cover."""
        return tuple(x for x, ups in enumerate(self._upper_covers) if len(ups) == 1)

    def j_lower(self, j) -> int:
        """The unique lower cover of a join-irreducible."""
        (lo,) = self.lower_covers(j)
        return lo

    def m_upper(self, m) -> int:
        """The unique upper cover of a meet-irreducible."""
        (hi,) = self.upper_covers(m)
        return hi

    def ji_below(self, x) -> frozenset[int]:
        """Join-irreducibles below-or-equal x; x is their join."""
        return frozenset(j for j in self.J if self.leq[j, x])

    def mi_above(self, x) -> frozenset[int]:
        """Meet-irreducibles above-or-equal x; x is their meet."""
        return frozenset(m for m in self.M if self.leq[x, m])

    @cached_property
    def _mx_masks(self) -> tuple[int, ...]:
        """mi_above as bitmask over positions in M, for each element."""
        return _mi_codes(self.M, self._upper_covers, self.topo_order)

    def le_by_coding(self, x, y) -> bool:
        """Order test through the irreducible codings; both must agree with leq."""
        by_j = self.ji_below(x) <= self.ji_below(y)
        by_m = self.mi_above(y) <= self.mi_above(x)
        if by_j != by_m or by_j != self.le(x, y):
            raise RuntimeError(f"coding disagreement on ({x},{y})")
        return by_j

    # rank structure

    @cached_property
    def _rank_info(self) -> tuple[bool, int, tuple[int, ...]]:
        """(is_ranked, height, longest-path rank per element): ranked when
        every element's lower covers share one rank."""
        rank = [0] * self.n
        ranked = True
        for x in self.topo_order:  # a linear extension
            lows = self._lower_covers[x]
            if lows:
                values = {rank[c] for c in lows}
                ranked = ranked and len(values) == 1
                rank[x] = max(values) + 1
        return ranked, rank[self.top], tuple(rank)

    @property
    def is_ranked(self) -> bool:
        return self._rank_info[0]

    @property
    def height(self) -> int:
        """Common chain length if ranked, else the longest chain length."""
        return self._rank_info[1]

    # distributivity

    def distributivity_witness(self):
        """A triple (x, y, z) with x∧(y∨z) != (x∧y)∨(x∧z), or None.

        The triple law checked for every x; it names a witness once
        :attr:`is_distributive` has said no.
        """
        jt, mt = self.join_table, self.meet_table
        for x in range(self.n):
            lhs = mt[x][jt]
            rhs = jt[np.ix_(mt[x], mt[x])]
            bad = np.nonzero(lhs != rhs)
            if bad[0].size:
                return (x, int(bad[0][0]), int(bad[1][0]))
        return None

    @cached_property
    def is_distributive(self) -> bool:
        """Distributive iff ULD and |J| = |M| (see ``_distributive_verdict``)."""
        return _distributive_verdict(self)

    # upper local distributivity, two detectors

    def _hypercube_witness(self):
        """Least element whose cover interval is not a hypercube, or None.

        Elements with k >= 2 upper covers are checked together, per k: the 2^k
        joins of subsets of covers must be distinct and fill the interval up
        to the join of all k.
        """
        covers, table, le = self._upper_covers, self.join_table, self.leq
        bad = []
        for k in sorted({len(ups) for ups in covers} - {0, 1}):
            xs = np.array([x for x, ups in enumerate(covers) if len(ups) == k])
            if 1 << k > self.n:
                bad.extend(xs.tolist())  # fewer elements than subsets of covers
                continue
            ups = np.array([covers[x] for x in xs])
            joins = xs[:, None]
            for b in range(k):
                joins = np.hstack((joins, table[joins, ups[:, b:b + 1]]))
            distinct = (np.diff(np.sort(joins, axis=1), axis=1) != 0).all(axis=1)
            size = np.count_nonzero(le[xs] & le[:, joins[:, -1]].T, axis=1)
            bad.extend(xs[~distinct | (size != 1 << k)].tolist())
        return min(bad, default=None)

    def _cover_step_witness(self):
        """Cover that removes != 1 meet-irreducible, or None."""
        return _first_bad_step(self.cover_pairs, self._mx_masks)

    @cached_property
    def uld_detectors(self) -> tuple[bool, bool]:
        """(hypercube-interval verdict, cover-step verdict); must agree."""
        return (self._hypercube_witness() is None, self._cover_step_witness() is None)

    @cached_property
    def is_uld(self) -> bool:
        return _uld_verdict(self)

    def edge_labels(self) -> dict[tuple[int, int], int]:
        """Map each cover (x, y) to the unique meet-irreducible leaving mi_above."""
        if not self.is_uld:
            raise ValueError("edge labelling requires an upper locally distributive lattice")
        masks = self._mx_masks
        out = {}
        for lo, hi in self.cover_pairs:
            diff = masks[lo] & ~masks[hi]
            out[(lo, hi)] = self.M[diff.bit_length() - 1]
        return out

    # arrow relations and the induced partition of J

    @cached_property
    def _arrows(self) -> tuple[np.ndarray, np.ndarray]:
        """(down, up) as boolean |J|×|M| matrices over positions in J and M:
        j ↓ m when j ≰ m and j_lower(j) <= m, j ↑ m when j ≰ m and
        j <= m_upper(m)."""
        J = np.array(self.J, dtype=np.intp)
        M = np.array(self.M, dtype=np.intp)
        j_lower = np.array([self.j_lower(j) for j in self.J], dtype=np.intp)
        m_upper = np.array([self.m_upper(m) for m in self.M], dtype=np.intp)
        apart = ~self.leq[np.ix_(J, M)]
        return apart & self.leq[np.ix_(j_lower, M)], apart & self.leq[np.ix_(J, m_upper)]

    @cached_property
    def arrow_relations(self) -> "ArrowRelations":
        down, up = self._arrows

        def pairs(matrix):
            rows, cols = np.nonzero(matrix)
            return frozenset((self.J[a], self.M[b]) for a, b in zip(rows.tolist(), cols.tolist()))

        return ArrowRelations(pairs(down), pairs(up), pairs(down & up))

    def arrow_partition(self) -> "ArrowPartition":
        """Partition of J by the unique up-down arrow partner in M: j's down
        arrows go to the labels of the cover j_lower(j) < j, in a ULD lattice
        one m, which is j's partner when also j <= m_upper(m)."""
        if not self.is_uld:
            raise ValueError("the arrow partition requires an upper locally distributive lattice")
        labels = self.edge_labels()
        partner = {}
        for j in self.J:
            m = labels[(self.j_lower(j), j)]
            if not self.leq[j, self.m_upper(m)]:
                raise RuntimeError(f"join-irreducible {j} has 0 up-down partners")
            partner[j] = m
        classes = {
            m: frozenset(j for j in self.J if partner[j] == m) for m in self.M
        }
        if any(not members for members in classes.values()):
            raise RuntimeError("empty arrow class: some meet-irreducible labels no cover")
        return ArrowPartition(partner, classes)

    # derived orders and constructions

    def meet_irreducible_poset(self) -> Poset:
        """The order induced on the meet-irreducibles."""
        return Poset.restrict(self, self.M)

    def join_irreducible_poset(self) -> Poset:
        """The order induced on the join-irreducibles."""
        return Poset.restrict(self, self.J)

    def interval(self, a, b) -> "Lattice":
        """The sublattice {x : a <= x <= b}."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"element ids must lie in range({self.n}), got {a} and {b}")
        if not self.le(a, b):
            raise ValueError(
                f"interval requires {self.labels[a]} <= {self.labels[b]}"
            )
        keep = [x for x in range(self.n) if self.leq[a, x] and self.leq[x, b]]
        pos = {x: i for i, x in enumerate(keep)}
        sub_labels = tuple(self.labels[x] for x in keep)
        sub_cover_labels = {
            (pos[lo], pos[hi]): lab
            for (lo, hi), lab in self.cover_labels.items()
            if lo in pos and hi in pos
        }
        # an interval is convex, so its covers are the lattice's covers inside it
        sub_covers = tuple(
            (pos[lo], pos[hi]) for lo, hi in self.cover_pairs if lo in pos and hi in pos
        )
        return Lattice(
            self.leq[np.ix_(keep, keep)],
            labels=sub_labels,
            cover_labels=sub_cover_labels,
            _checked=True,
            _covers=sub_covers,
        )

    def ideal_quotient(self, cap=None) -> "Lattice":
        """Ideals of the join-irreducible order, grouped by the arrow partition.

        Two ideals are grouped when each element of the symmetric difference
        has a partner-equivalent element on the other side; each group keeps
        its unique maximal member. The result is isomorphic to the lattice.
        The groups' keys (their members' partners) are union-closed and change
        by at most one partner when an ideal loses a maximal element: they form
        an antimatroid, so each cover adds one partner to the key.
        """
        partition = self.arrow_partition()
        jp = self.join_irreducible_poset()
        m_pos = {m: i for i, m in enumerate(self.M)}
        partner_bit = [1 << m_pos[partition.partner[j]] for j in self.J]
        groups: dict[int, int] = {}
        for mask in jp.ideal_masks(cap):
            key = 0
            for b in range(mask.bit_length()):
                if mask >> b & 1:
                    key |= partner_bit[b]
            groups[key] = groups.get(key, 0) | mask
        keys, reps = zip(*sorted(groups.items(), key=lambda kv: (kv[1].bit_count(), kv[1])))
        if len(set(reps)) != len(reps):
            raise RuntimeError("distinct ideal groups produced the same representative")
        return _family_lattice(reps, keys, jp.labels)

    # stock shapes

    @classmethod
    def chain(cls, n_elements: int) -> "Lattice":
        return cls.from_covers(n_elements, [(x, x + 1) for x in range(n_elements - 1)])

    @classmethod
    def boolean(cls, dim: int) -> "Lattice":
        subsets = range(1 << dim)
        return _family_lattice(subsets, subsets, [chr(ord("a") + i) for i in range(dim)])


@dataclass(frozen=True)
class ArrowRelations:
    """The down/up arrow relations between join- and meet-irreducibles."""

    down: frozenset[tuple[int, int]]
    up: frozenset[tuple[int, int]]
    updown: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class ArrowPartition:
    """Each join-irreducible's unique up-down partner, and the classes per partner."""

    partner: Mapping[int, int]
    classes: Mapping[int, frozenset[int]]

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.classes.values()), reverse=True))


@dataclass(frozen=True)
class ArrowWitnessReport:
    """Existence of arrow witnesses below/above every element.

    ``down_ok``: every (x, m) with x not<= m admits j <= x with j down-arrow m.
    ``updown_ok``: in the locally distributive case the witness can be chosen
    with j up-down m; None when the lattice is not ULD.
    ``up_ok``: the dual clause, checked under the symmetric reading
    (for every j and x with j not<= x there is m >= x with j up-arrow m);
    the reading is interpretive, hence reported as a separate flag.
    """

    down_ok: bool
    updown_ok: bool | None
    up_ok: bool
    failures: tuple[tuple[str, int, int], ...]

    @property
    def passed(self) -> bool:
        return self.down_ok and self.up_ok and self.updown_ok is not False


def arrow_witness_report(lattice: Lattice) -> ArrowWitnessReport:
    """Every clause checked at once by boolean matrix products over J and M.

    ``failures`` lists down/updown failures m-major, then x, followed by up
    failures j-major, then x.
    """
    down, up = lattice._arrows
    uld = lattice.is_uld
    J = np.array(lattice.J, dtype=np.intp)
    M = np.array(lattice.M, dtype=np.intp)
    j_below = lattice.leq[J].T  # (x, j): j <= x
    below_m = lattice.leq[:, M]  # (x, m): x <= m
    has_down = _some(j_below, down)
    down_bad = ~below_m & ~has_down
    updown_bad = ~below_m & has_down & ~_some(j_below, down & up) if uld else np.zeros_like(down_bad)
    failures = []
    for b, x in zip(*(side.tolist() for side in np.nonzero((down_bad | updown_bad).T))):
        failures.append(("down" if down_bad[x, b] else "updown", x, lattice.M[b]))
    up_bad = ~lattice.leq[J] & ~_some(up, below_m.T)
    for a, x in zip(*(side.tolist() for side in np.nonzero(up_bad))):
        failures.append(("up", lattice.J[a], x))
    return ArrowWitnessReport(
        down_ok=not down_bad.any(),
        updown_ok=not updown_bad.any() if uld else None,
        up_ok=not up_bad.any(),
        failures=tuple(failures),
    )


def ideal_lattice(poset: Poset, cap=None) -> Lattice:
    """The lattice of all ideals of a poset ordered by inclusion.

    This is the Birkhoff representation: the result is distributive, and
    every distributive lattice arises this way from its meet-irreducibles.
    """
    masks = poset.ideal_masks(cap)
    return _family_lattice(masks, masks, poset.labels)


def _base_invariants(lattice: Lattice) -> list[tuple]:
    ranks = lattice._rank_info[2]
    j_set, m_set = set(lattice.J), set(lattice.M)
    return [
        (
            len(lattice.upper_covers(x)),
            len(lattice.lower_covers(x)),
            x in j_set,
            x in m_set,
            ranks[x],
            len(lattice.ji_below(x)),
            len(lattice.mi_above(x)),
        )
        for x in range(lattice.n)
    ]


def _refine_pair(a: Lattice, b: Lattice) -> tuple[list[int], list[int]]:
    """Joint neighbourhood refinement with a shared palette, so that colours
    are comparable across the two lattices."""
    palette: dict = {}
    ca = [palette.setdefault(s, len(palette)) for s in _base_invariants(a)]
    cb = [palette.setdefault(s, len(palette)) for s in _base_invariants(b)]

    def signatures(lattice, colour):
        return [
            (
                colour[x],
                tuple(sorted(colour[y] for y in lattice.upper_covers(x))),
                tuple(sorted(colour[y] for y in lattice.lower_covers(x))),
            )
            for x in range(lattice.n)
        ]

    for _ in range(max(a.n, b.n)):
        palette = {}
        na = [palette.setdefault(s, len(palette)) for s in signatures(a, ca)]
        nb = [palette.setdefault(s, len(palette)) for s in signatures(b, cb)]
        if len(set(na) | set(nb)) == len(set(ca) | set(cb)):
            return na, nb
        ca, cb = na, nb
    return ca, cb


def find_isomorphism(a: Lattice, b: Lattice, cap: int = 5000):
    """An order-isomorphism a -> b as an index list, or None.

    Backtracking over colour classes produced by invariant refinement
    (rank, degrees, irreducibility, coding sizes, iterated neighbourhoods).
    It is the oracle for arbitrary pairs, for library use and in the tests.
    The CLI never calls it: its round trips check the construction's own map
    (:func:`chipfire.transforms.is_hasse_isomorphism`) and nothing else.
    """
    if a.n != b.n:
        return None
    if a.n > cap or b.n > cap:
        raise CapExceeded(f"isomorphism search capped at {cap} elements")
    n = a.n
    if n == 0:
        return []
    ca, cb = _refine_pair(a, b)
    if sorted(ca) != sorted(cb):
        return None
    by_colour: dict[int, list[int]] = {}
    for y in range(n):
        by_colour.setdefault(cb[y], []).append(y)
    class_size = {c: len(v) for c, v in by_colour.items()}
    order = sorted(range(n), key=lambda x: (class_size.get(ca[x], 0), ca[x], x))
    mapping = [-1] * n
    used = [False] * n
    assigned: list[int] = []
    choice_stack: list[list[int]] = []

    def candidates(x):
        out = []
        for y in by_colour.get(ca[x], ()):
            if used[y]:
                continue
            img = [mapping[z] for z in assigned]
            if np.array_equal(a.leq[x, assigned], b.leq[y, img]) and np.array_equal(
                a.leq[assigned, x], b.leq[img, y]
            ):
                out.append(y)
        return out

    depth = 0
    choice_stack.append(candidates(order[0]))
    while True:
        if choice_stack[depth]:
            x = order[depth]
            y = choice_stack[depth].pop()
            mapping[x] = y
            used[y] = True
            assigned.append(x)
            depth += 1
            if depth == n:
                perm = np.array(mapping)
                if np.array_equal(a.leq, b.leq[np.ix_(perm, perm)]):
                    return mapping
                # spurious full assignment: undo and continue
                assigned.pop()
                used[y] = False
                mapping[x] = -1
                depth -= 1
                continue
            choice_stack.append(candidates(order[depth]))
        else:
            choice_stack.pop()
            depth -= 1
            if depth < 0:
                return None
            x = order[depth]
            used[mapping[x]] = False
            mapping[x] = -1
            assigned.pop()


def is_isomorphic(a: Lattice, b: Lattice, cap: int = 5000) -> bool:
    return find_isomorphism(a, b, cap=cap) is not None
