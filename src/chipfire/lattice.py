"""Finite posets and lattices: irreducibles, codings, detectors, constructions.

Sets of elements are ints (bit x is element x), and so is the order: bit y of
``_up_masks[x]`` says x <= y, and bit y of ``_down_masks[x]`` says y <= x.
Covers are kept when the order is built from them (``Poset.from_covers``
closes the up-sets over them; set families pass their one-element steps) and
derived from the up-sets otherwise; the down-sets are closed over the lower
covers.

A lattice is first verified by its codes (``Lattice._antimatroid``): the
code of x is the set of meet-irreducibles not above x. With a least element,
distinct codes, one new code element per cover and commuting labels, as in
the engine's commuting-moves test, the order is a ULD lattice, isomorphic to
the antimatroid of its codes: no up-set is compared and no cube is walked.

Any other order with a least element is a lattice iff x∨j exists for every
element x and join-irreducible j: along a linear extension, an element y
above the least element and outside J is the join of two lower covers a and
b, so x∨y = (x∨a)∨b. And x∨j exists iff the common up-set of x and j is the
up-set of some element (for x comparable with j it is x or j). So a lattice
is verified by one containment check per join-irreducible j: the common
up-sets of j and the elements incomparable with it, picked in C by the bits
of one mask, are all keys of the index of up-sets. Every join and meet is
one lookup. No dense matrix or table is built: the triple law and the
isomorphism search read the same ints.

Distributivity is read off the meet-irreducible coding, one recurrence over
upper covers (``Lattice._mx_masks``): a finite lattice is distributive iff it
is upper locally distributive (ULD) with as many join- as meet-irreducibles,
so the triple law only names a witness. The irreducibles, that coding, the
cover-step detector and the verdicts read nothing but the covers per element,
``_upper_covers`` (the lower covers are filled from it), so
``engine.ConfigSpace`` takes these very members over the covers of its
moves; it keeps its own rank and hypercube detector. The arrow witness
report reads the arrow table and codes gathered over the covers, so a
certified lattice checks every verdict of ``chipfire check`` without its
down-sets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from typing import Iterable, Mapping

from .errors import CapExceeded, DetectorDisagreement, NotALatticeError


def _bits(mask):
    """The elements of a set, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _picked(items, mask):
    """The items at the set bits of ``mask``, picked in C: its binary digits,
    lowest first, select them."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGITS))


def _matrix_rows(leq) -> tuple[int, ...]:
    """Each row of a square boolean matrix as an int whose bit y is column y."""
    try:
        rows = [[bool(v) for v in row] for row in leq]
    except (TypeError, ValueError):  # not a matrix of truth values
        rows = None
    if rows is None or any(len(row) != len(rows) for row in rows):
        raise ValueError("leq must be a square matrix")
    return tuple(int("".join("1" if v else "0" for v in reversed(row)), 2) for row in rows)


def _commuting(n, covers):
    """Each element's moves as a mask, bit v for an upper cover labelled v,
    from (lower, upper, label) covers; and the first cover (x, y, u) after
    which another move of x is not a move of y, as (x, y, u, v) with v the
    lowest such move, or None when every move keeps every other."""
    moves = [0] * n
    for lo, _, v in covers:
        moves[lo] |= 1 << v
    for x, y, u in covers:
        lost = moves[x] & ~moves[y] & ~(1 << u)
        if lost:
            return moves, (x, y, u, (lost & -lost).bit_length() - 1)
    return moves, None


def _gather(seeds, covers, order) -> tuple[int, ...]:
    """Each x's seed OR-ed with the results of ``covers[x]``, filled along
    ``order``, where every x comes after its ``covers[x]``."""
    out = list(seeds)
    for x in order:
        for c in covers[x]:
            out[x] |= out[c]
    return tuple(out)


class Poset:
    """Finite partial order, stored as the up-set of each element.

    ``Poset(leq)`` takes a square boolean matrix and checks that it is an
    order; ``from_covers`` builds one from its covers.
    """

    def __init__(self, leq=None, labels=None, _checked=False, _covers=None, _up=None):
        up = _matrix_rows(leq) if _up is None else _up
        n = len(up)
        if labels is None:
            labels = tuple(f"e{i}" for i in range(n))
        labels = tuple(str(x) for x in labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be unique and match the element count")
        if not _checked:
            if any(not m >> x & 1 for x, m in enumerate(up)):
                raise ValueError("order is not reflexive")
            if any(up[y] >> x & 1 for x, m in enumerate(up) for y in _bits(m ^ 1 << x)):
                raise ValueError("order is not antisymmetric")
            if any(up[y] & ~m for m in up for y in _bits(m)):
                raise ValueError("order is not transitive")
        self._up_masks = up
        self.n = n
        self.labels = labels
        if _covers is not None:
            self.cover_pairs = _covers

    @classmethod
    def from_covers(cls, n, covers, labels=None, **kwargs):
        """Build from cover pairs (lower, upper); rejects cyclic input.

        Every pair is checked first. Kahn's queue then places the elements
        from the top, each once all its upper covers are placed, and fewer
        than n placed means a cycle. Along that order each strict up-set is
        the union of its upper covers and their strict up-sets; a pair whose
        upper element is in it already is implied or repeated and dropped.
        The reduced, sorted list is kept as ``cover_pairs``, and each strict
        up-set is made reflexive in place, so one copy of the order is held.
        """
        up = [[] for _ in range(n)]  # upper covers, as listed
        below = [[] for _ in range(n)]  # lower covers, as listed
        for lo, hi in covers:
            try:  # plain ints: a numpy-integer shift overflows past bit 63
                a, b = operator.index(lo), operator.index(hi)
            except TypeError:
                a = b = -1
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad cover pair ({lo},{hi})")
            up[a].append(b)
            below[b].append(a)
        left = [len(ups) for ups in up]  # listed pairs whose upper element is not placed
        order = [v for v in range(n) if not left[v]]
        for w in order:  # grows while it is read: each element after its upper covers
            for v in below[w]:
                left[v] -= 1
                if not left[v]:
                    order.append(v)
        if len(order) < n:
            raise ValueError("cover relation contains a cycle")
        above = [0] * n  # strict up-sets
        kept = []
        for v in order:
            near = 0
            for w in up[v]:
                near |= above[w]
            for w in up[v]:  # reached in two or more steps, or listed before
                if not near >> w & 1:
                    kept.append((v, w))
                    near |= 1 << w
            above[v] = near
        del up, below, order
        for v in range(n):  # each up-set made reflexive in place: one copy at a time
            above[v] |= 1 << v
        return cls(
            labels=labels, _checked=True, _covers=tuple(sorted(kept)), _up=tuple(above), **kwargs
        )

    _id_kind = "element"  # the noun of ``_check``'s message

    def _check(self, x) -> int:
        """x as a plain int; ValueError unless it is an id below ``n``. The one
        id rule: graphs (vertex ids) and ``ConfigSpace`` take it by assignment."""
        try:
            i = operator.index(x)
        except TypeError:
            i = -1
        if not 0 <= i < self.n:
            raise ValueError(f"unknown {self._id_kind} id {x!r}")
        return i

    def le(self, x, y) -> bool:
        return bool(self._up_masks[self._check(x)] >> self._check(y) & 1)

    def lt(self, x, y) -> bool:
        return self.le(x, y) and x != y

    @cached_property
    def _cover_matrix(self) -> tuple[int, ...]:
        """Each element's upper covers as a set: its strict up-set less all
        that lies strictly above a member. Derives the covers of an order
        given without them."""
        strict = [m ^ 1 << x for x, m in enumerate(self._up_masks)]
        return tuple(s & ~reduce(operator.or_, (strict[y] for y in _bits(s)), 0) for s in strict)

    @cached_property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, y) for x, m in enumerate(self._cover_matrix) for y in _bits(m))

    @cached_property
    def _upper_covers(self) -> tuple[tuple[int, ...], ...]:
        ups = [[] for _ in range(self.n)]
        for lo, hi in self.cover_pairs:
            ups[lo].append(hi)
        return tuple(tuple(u) for u in ups)

    @cached_property
    def _lower_covers(self) -> tuple[tuple[int, ...], ...]:
        downs = [[] for _ in range(self.n)]
        for lo, ups in enumerate(self._upper_covers):
            for hi in ups:
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
        """Elements sorted stably by up-set size, largest first; a linear
        extension, as x < y gives x the larger up-set."""
        up = self._up_masks
        return tuple(sorted(range(self.n), key=lambda x: -up[x].bit_count()))

    def restrict(self, elements: Iterable[int]) -> "Poset":
        """Induced suborder, keeping labels; elements in ascending index order."""
        keep = sorted({self._check(x) for x in elements})
        up = [self._up_masks[x] for x in keep]
        pairs = [
            (a, b) for a, m in enumerate(up) for b, y in enumerate(keep) if a != b and m >> y & 1
        ]
        return Poset.from_covers(len(keep), pairs, labels=tuple(self.labels[x] for x in keep))

    @cached_property
    def _down_masks(self) -> tuple[int, ...]:
        """Bitmask of {y : y <= x} for each x: x and the down-sets of its
        lower covers, filled from the bottom along ``topo_order``."""
        return _gather([1 << x for x in range(self.n)], self._lower_covers, self.topo_order)

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
        return tuple(frozenset(_bits(m)) for m in self.ideal_masks(cap))

    def __repr__(self):
        return f"{type(self).__name__}({self.n} elements)"


def _subset_label(labels, mask) -> str:
    return "{" + ",".join(labels[b] for b in _bits(mask)) + "}"


def _family_lattice(members, codes, ground_labels) -> "Lattice":
    """Bitmask ``members`` under inclusion, each labelled by its ground elements
    (bit b is ``ground_labels[b]``). Every cover drops one bit of its code, as in
    ideals and antimatroids, so the covers are the pairs of ``codes`` one bit apart."""
    index = {code: i for i, code in enumerate(codes)}
    covers = [
        (index[code ^ 1 << b], j)
        for j, code in enumerate(codes) for b in _bits(code)
        if code ^ 1 << b in index
    ]
    labels = tuple(_subset_label(ground_labels, m) for m in members)
    return Lattice.from_covers(len(codes), covers, labels=labels)


class Lattice(Poset):
    """Bounded lattice, verified at construction by a least element and the
    certificate ``_antimatroid``, which reads the covers' meet-irreducible
    codes and accepts exactly the ULD lattices. Any other order falls back
    to one containment check per join-irreducible j, that x∨j exists for
    every element x (see the module docstring). On a failure the pairs are
    rescanned in index order, so the error names the first offending pair.
    A join or a meet looks up a common up-set or down-set.

    ``cover_labels`` optionally annotates cover edges (e.g. with the vertex
    fired along a configuration-space edge).

    ``J``, ``M``, ``_mx_masks``, ``_cover_step_witness``, ``uld_detectors``,
    ``is_uld`` and ``is_distributive`` read only ``n``, ``topo_order``,
    ``_upper_covers``, ``_lower_covers`` (filled from ``_upper_covers``) and
    ``_hypercube_witness``: ``engine.ConfigSpace`` provides those and takes
    the members themselves by assignment. The cover-step detector walks
    ``_upper_covers`` in the order of the sorted ``cover_pairs``.
    """

    def __init__(self, leq=None, labels=None, cover_labels=None, **kwargs):
        super().__init__(leq, labels=labels, **kwargs)
        self.cover_labels = dict(cover_labels) if cover_labels else {}
        self._verify()

    def _witness_pair(self, i, j, rows, reverse, kind):
        """Raise for i and j; ``reverse`` holds the other side's masks."""
        common = rows[i] & rows[j]
        li, lj = self.labels[i], self.labels[j]
        if not common:
            raise NotALatticeError(f"not a lattice: {li} and {lj} have no common {kind} bound")
        extreme = [a for a in _bits(common) if reverse[a] & common == 1 << a]
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
        up, down, ups, downs = self._up_masks, self._down_masks, self._up_index, self._down_index
        for i in range(self.n):
            for j in range(i, self.n):
                if up[i] & up[j] not in ups:
                    self._witness_pair(i, j, up, down, "upper")
                if down[i] & down[j] not in downs:
                    self._witness_pair(i, j, down, up, "lower")
        raise RuntimeError("lattice check failed although every pair has a join and a meet")

    def _verify(self):
        """A least element and the code certificate ``_antimatroid`` make a
        ULD lattice. Failing the certificate, x∨j for each j in J and each x
        incomparable with j (else it is x or j) make every join and meet
        exist: one containment check per j, no common up-set of j and those
        x is missing from ``_up_index``. Else raise for the first pair."""
        if self.n == 0:
            raise NotALatticeError("not a lattice: empty element set")
        up, every = self._up_masks, (1 << self.n) - 1
        if len(self.minimal_elements) != 1 or not self._antimatroid and any(
            {u & up[j] for u in _picked(up, every & ~(up[j] | self._down_masks[j]))}
            .difference(self._up_index)  # a dict: the set's hashes are reused
            for j in self.J
        ):
            self._raise_first_failure()
        (self.bottom,), (self.top,) = self.minimal_elements, self.maximal_elements

    @cached_property
    def _antimatroid(self) -> bool:
        """True when the meet-irreducible codes certify a ULD lattice; read
        off the covers alone, and sound once a least element is known.

        The code S(x) of x is the set of meet-irreducibles not above it, the
        complement of ``_mx_masks[x]``, so x <= y gives S(x) ⊆ S(y). The
        certificate: the codes are distinct, each cover adds one element to
        the code, its label, and at each x any two labels commute: after the
        cover labelled u the label v is still open (``_commuting``, the rule
        ``engine.ConfigSpace._moves`` runs on firings). Then any two upper
        covers a and b of x have a common upper cover with code S(a) ∪ S(b):
        the v-cover of a and the u-cover of b share that code, so they are
        one element. By induction down from the top, any two elements above
        x have an upper bound coded by the union of their codes; from the
        least element, so do any y and z. If w is that bound and u is any
        upper bound of y and z, the bound of w and u is coded S(u), so it is
        u, and w <= u: w is the join. So the order is a lattice that S
        embeds, and the codes, closed under union and grown one element per
        cover from the empty set, are an antimatroid (Korte, Lovász &
        Schrader 1991): the lattice is ULD, and each cover interval is the
        cube of the unions of its labels. A ULD lattice passes, as every
        cover interval is such a cube, so the certificate refuses exactly the
        orders that are not ULD lattices.
        """
        mx = self._mx_masks
        if len(set(mx)) < self.n:
            return False
        labelled = []
        for lo, hi in self.cover_pairs:
            step = mx[lo] ^ mx[hi]  # the meet-irreducibles the cover drops
            if step & (step - 1):
                return False
            labelled.append((lo, hi, step.bit_length() - 1))
        return _commuting(self.n, labelled)[1] is None

    @cached_property
    def _up_index(self) -> dict[int, int]:
        """The element of each up-set: x∨y has the up-set up[x] & up[y]."""
        return {m: x for x, m in enumerate(self._up_masks)}

    @cached_property
    def _down_index(self) -> dict[int, int]:
        """The element of each down-set: x∧y has the down-set down[x] & down[y]."""
        return {m: x for x, m in enumerate(self._down_masks)}

    def join(self, x, y) -> int:
        return self._up_index[self._up_masks[self._check(x)] & self._up_masks[self._check(y)]]

    def meet(self, x, y) -> int:
        return self._down_index[self._down_masks[self._check(x)] & self._down_masks[self._check(y)]]

    restrict = Poset.restrict  # a plain Poset: a restricted lattice is generally none

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
        """The unique lower cover of a join-irreducible; else ValueError."""
        lows = self.lower_covers(j)
        if len(lows) != 1:
            raise ValueError(f"element {self.labels[j]} is not join-irreducible")
        return lows[0]

    def m_upper(self, m) -> int:
        """The unique upper cover of a meet-irreducible; else ValueError."""
        ups = self.upper_covers(m)
        if len(ups) != 1:
            raise ValueError(f"element {self.labels[m]} is not meet-irreducible")
        return ups[0]

    def ji_below(self, x) -> frozenset[int]:
        """Join-irreducibles below-or-equal x; x is their join."""
        down = self._down_masks[self._check(x)]
        return frozenset(j for j in self.J if down >> j & 1)

    def mi_above(self, x) -> frozenset[int]:
        """Meet-irreducibles above-or-equal x; x is their meet."""
        up = self._up_masks[self._check(x)]
        return frozenset(m for m in self.M if up >> m & 1)

    @cached_property
    def _mx_masks(self) -> tuple[int, ...]:
        """mi_above as bitmask over positions in M, for each element: its own
        bit if it is in M, OR-ed with its upper covers' masks, filled from the
        top down a linear extension."""
        seeds = [0] * self.n
        for b, m in enumerate(self.M):
            seeds[m] = 1 << b
        return _gather(seeds, self._upper_covers, reversed(self.topo_order))

    def le_by_coding(self, x, y) -> bool:
        """Order test through the irreducible codings; both must agree with le."""
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

        The first triple in index order; it names a witness once
        :attr:`is_distributive` has said no. For each x, f(y) = x∧y is
        monotone and every z is the join of the j <= z in J, so f keeps all
        joins iff f(y∨j) = f(y)∨f(j) for every y and j in J: n·|J| pairs. Only
        the first x that fails them is scanned over all (y, z).
        """
        up, down, ups, downs = self._up_masks, self._down_masks, self._up_index, self._down_index
        J = self.J
        for x in range(self.n):
            meet = [downs[down[x] & d] for d in down]
            image = [up[m] for m in meet]

            def kept(y, z):
                return meet[ups[up[y] & up[z]]] == ups[image[y] & image[z]]

            if all(kept(y, j) for y in range(self.n) for j in J):
                continue
            for y in range(self.n):
                for z in range(self.n):
                    if not kept(y, z):
                        return (x, y, z)
        return None

    @cached_property
    def is_distributive(self) -> bool:
        """Distributive iff ULD and |J| = |M|.

        Every cover drops at least one meet-irreducible from ``mi_above`` and
        adds at least one join-irreducible to ``ji_below``. If each drops
        exactly one (ULD), every maximal chain has length |M| = |J|, so each
        also adds exactly one: the dual is ULD too, which makes the lattice
        distributive (Dilworth 1940; Monjardet 1985).
        """
        return len(self.J) == len(self.M) and self.is_uld

    # upper local distributivity, two detectors

    def _hypercube_witness(self):
        """Least element whose cover interval is not a hypercube, or None.

        None on a lattice that passed ``_antimatroid``: its labels commute,
        so by the induction of ``engine.ConfigSpace._hypercube_witness`` the
        unions of any k labels out of x are 2^k distinct codes, the whole
        interval. Else, for x with k >= 2 upper covers, the 2^k joins of
        subsets of covers, each a common up-set, must be distinct and fill the
        interval from x to the join of all k.
        """
        if self._antimatroid:
            return None
        up, down, index = self._up_masks, self._down_masks, self._up_index
        for x, covers in enumerate(self._upper_covers):
            k = len(covers)
            if k < 2:
                continue
            if 1 << k > self.n:
                return x  # fewer elements than subsets of covers
            joins = [up[x]]
            for c in covers:
                joins += [m & up[c] for m in joins]
            size = (up[x] & down[index[joins[-1]]]).bit_count()
            if size != 1 << k or len(set(joins)) != 1 << k:
                return x
        return None

    def _cover_step_witness(self):
        """First cover, in (lower, upper) order, that removes != 1
        meet-irreducible, or None."""
        mx = self._mx_masks
        for lo, ups in enumerate(self._upper_covers):
            for hi in ups:
                if (mx[lo] & ~mx[hi]).bit_count() != 1:
                    return (lo, hi)
        return None

    @cached_property
    def uld_detectors(self) -> tuple[bool, bool]:
        """(hypercube-interval verdict, cover-step verdict); must agree."""
        return (self._hypercube_witness() is None, self._cover_step_witness() is None)

    @cached_property
    def is_uld(self) -> bool:
        """The common verdict of the two ULD detectors; DetectorDisagreement,
        naming both witnesses, when they split."""
        by_cube, by_step = self.uld_detectors
        if by_cube != by_step:
            raise DetectorDisagreement(
                f"local-distributivity detectors disagree: hypercube={by_cube} "
                f"(witness {self._hypercube_witness()}), cover-step={by_step} "
                f"(witness {self._cover_step_witness()})"
            )
        return by_cube

    def edge_labels(self) -> dict[tuple[int, int], int]:
        """Map each cover (x, y) to the unique meet-irreducible leaving mi_above."""
        if not self.is_uld:
            raise ValueError("edge labelling requires an upper locally distributive lattice")
        mx = self._mx_masks
        return {(a, b): self.M[(mx[a] & ~mx[b]).bit_length() - 1] for a, b in self.cover_pairs}

    # arrow relations and the induced partition of J

    @cached_property
    def _arrows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(down, up): for each position in J, the positions in M of the m
        with j ↓ m (j ≰ m and j_lower(j) <= m) and with j ↑ m (j ≰ m and
        j <= m_upper(m)), as masks."""
        mx, up = self._mx_masks, self._up_masks
        m_upper = [self.m_upper(m) for m in self.M]
        down_rows, up_rows = [], []
        for j in self.J:
            apart = ~mx[j]
            down_rows.append(mx[self.j_lower(j)] & apart)
            up_rows.append(sum(1 << b for b, u in enumerate(m_upper) if up[j] >> u & 1) & apart)
        return tuple(down_rows), tuple(up_rows)

    @cached_property
    def arrow_relations(self) -> "ArrowRelations":
        down, up = self._arrows

        def pairs(rows):
            return frozenset((j, self.M[b]) for j, row in zip(self.J, rows) for b in _bits(row))

        return ArrowRelations(pairs(down), pairs(up), pairs(d & u for d, u in zip(down, up)))

    def arrow_partition(self) -> "ArrowPartition":
        """Partition of J by the unique up-down arrow partner in M: in a ULD
        lattice j has one down arrow, to the m that the cover
        j_lower(j) < j removes, and that m is j's partner when j ↑ m too."""
        if not self.is_uld:
            raise ValueError("the arrow partition requires an upper locally distributive lattice")
        partner = {}
        for j, down, up in zip(self.J, *self._arrows):
            if not down & up:
                raise RuntimeError(f"join-irreducible {j} has 0 up-down partners")
            partner[j] = self.M[(down & up).bit_length() - 1]
        classes = {
            m: frozenset(j for j in self.J if partner[j] == m) for m in self.M
        }
        if any(not members for members in classes.values()):
            raise RuntimeError("empty arrow class: some meet-irreducible labels no cover")
        return ArrowPartition(partner, classes)

    # derived orders and constructions

    def meet_irreducible_poset(self) -> Poset:
        """The order induced on the meet-irreducibles."""
        return self.restrict(self.M)

    def join_irreducible_poset(self) -> Poset:
        """The order induced on the join-irreducibles."""
        return self.restrict(self.J)

    def interval(self, a, b) -> "Lattice":
        """The sublattice {x : a <= x <= b}."""
        a, b = self._check(a), self._check(b)
        if not self.le(a, b):
            raise ValueError(
                f"interval requires {self.labels[a]} <= {self.labels[b]}"
            )
        pos = {x: i for i, x in enumerate(_bits(self._up_masks[a] & self._down_masks[b]))}
        # an interval is convex, so its covers are the lattice's covers inside it
        return Lattice.from_covers(
            len(pos),
            [(pos[lo], pos[hi]) for lo, hi in self.cover_pairs if lo in pos and hi in pos],
            labels=tuple(self.labels[x] for x in pos),
            cover_labels={
                (pos[lo], pos[hi]): lab
                for (lo, hi), lab in self.cover_labels.items()
                if lo in pos and hi in pos
            },
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
            key = reduce(operator.or_, (partner_bit[b] for b in _bits(mask)), 0)
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
    """Every clause read off codes per element x, with no up- or down-set:
    x ≤ m iff m is in ``_mx_masks[x]``. One pass up the covers gathers, from
    the join-irreducibles below x, the m with a down witness j <= x (j ↓ m),
    those with an up-down one (j ↕ m), and the j <= x; one pass down gathers,
    from the meet-irreducibles above x, the j with j ↑ m for some m >= x. So
    x fails the down (up-down) clause for each m ≱ x without such a witness,
    and the up clause for each j ≰ x that the pass down did not reach.

    ``failures`` lists down/updown failures m-major, then x, followed by up
    failures j-major, then x.
    """
    down_rows, up_rows = lattice._arrows
    uld = lattice.is_uld
    J, M, mx, n, k = lattice.J, lattice.M, lattice._mx_masks, lattice.n, len(lattice.M)
    below, above = [0] * n, [0] * n  # bits: the m ↓ j, the m ↕ j, j; at m: the j ↑ m
    for p, (j, d, u) in enumerate(zip(J, down_rows, up_rows)):
        below[j] = d | (d & u) << k | 1 << 2 * k + p
        for b in _bits(u):
            above[M[b]] |= 1 << p
    below = _gather(below, lattice._lower_covers, lattice.topo_order)
    above = _gather(above, lattice._upper_covers, reversed(lattice.topo_order))
    every_m, every_j = (1 << k) - 1, (1 << len(J)) - 1
    down = [every_m & ~(m | w) for m, w in zip(mx, below)]
    updown = [every_m & ~(m | w >> k) for m, w in zip(mx, below)] if uld else down
    up = [every_j & ~(w >> 2 * k | a) for w, a in zip(below, above)]
    m_fails = sorted((b, x) for x, f in enumerate(updown) if f for b in _bits(f))
    j_fails = sorted((p, x) for x, f in enumerate(up) if f for p in _bits(f))
    failures = [("down" if down[x] >> b & 1 else "updown", x, M[b]) for b, x in m_fails]
    failures += [("up", J[p], x) for p, x in j_fails]
    kinds = {kind for kind, _, _ in failures}
    return ArrowWitnessReport(
        down_ok="down" not in kinds,
        updown_ok="updown" not in kinds if uld else None,
        up_ok="up" not in kinds,
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
    up_a, down_a, up_b, down_b = a._up_masks, a._down_masks, b._up_masks, b._down_masks
    mapping = [-1] * n
    assigned = used = 0  # the mapped elements of a, and their images in b
    choice_stack: list[list[int]] = []

    def image(mask):
        return sum(1 << mapping[z] for z in _bits(mask))

    def candidates(x):
        """The unused y of x's colour related to every image as x is to its preimage."""
        above, below = image(up_a[x] & assigned), image(down_a[x] & assigned)
        return [
            y for y in by_colour.get(ca[x], ())
            if not used >> y & 1 and up_b[y] & used == above and down_b[y] & used == below
        ]

    depth = 0
    choice_stack.append(candidates(order[0]))
    while True:
        if choice_stack[depth]:
            x = order[depth]
            y = choice_stack[depth].pop()
            mapping[x] = y
            used |= 1 << y
            assigned |= 1 << x
            depth += 1
            if depth == n:
                if all(image(m) == up_b[mapping[i]] for i, m in enumerate(up_a)):
                    return mapping
                # spurious full assignment: undo and continue
                assigned ^= 1 << x
                used ^= 1 << y
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
            used ^= 1 << mapping[x]
            mapping[x] = -1
            assigned ^= 1 << x


def is_isomorphic(a: Lattice, b: Lattice, cap: int = 5000) -> bool:
    return find_isomorphism(a, b, cap=cap) is not None
