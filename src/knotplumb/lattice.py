"""Exhaustive lattice-embedding search into (Z^r, -Id).

A lattice embedding of a plumbing tree's negative-definite intersection
form G assigns to each vertex i a vector v_i in Z^r with <v_i, v_j>_{-Id}
= -(v_i . v_j) = G[i][j].  Existence of such an embedding at r = rank(G)
is necessary for the plumbed 4-manifold's boundary to bound a rational
homology 4-ball, so a completed search that finds nothing is a proof of
obstruction.  The search reads G as rows, each diagonal entry and the
row's nonzero off-diagonal entries, and checks every embedding it
completes against those rows (_reproduces); no n x n Gram matrix is built.

The search is complete backtracking over candidate vectors of the right
norm, with symmetry breaking: after placing some vectors, coordinates of
the target whose placed columns agree are interchangeable (and coordinates
nobody has touched can also flip sign), so candidates are generated only
in canonical form with respect to that stabilizer subgroup -- entries
sorted within each column class, non-negative on untouched columns.  Any
embedding can be moved into this form step by step by self-isometries of
(Z^r, -Id) fixing the earlier vectors, so the pruning loses nothing; a
"none" answer is exhaustive.

The column classes are kept incrementally.  A canonical vector's
entries do not increase within a class, so every class is an interval
of coordinates, the intervals in coordinate order are the classes in
signature order (descending, untouched last), and placing a vector
splits only the classes it is nonzero on, into runs of equal entries in
the parent's place.  Each class carries its signature sparsely, as the
(depth, entry) pairs of its column's nonzero entries, and an undo log per
depth merges the split classes again on backtracking.  No node rebuilds
the partition or reads a depth-long column.

A candidate is one nonincreasing tuple per column class, and a class's
tuple moves dot product j by the class's signature at j times the
tuple's sum.  So candidates are found gap first.  While some target is
unmet and 3 or more of the norm is unspent, the shallowest unmet one, at
depth j, is closed by the classes of placed[j]'s coordinates, at most
its norm of them.  With every target met, 3 or more of the norm left is
spent by walking the remaining classes, and less than 3 only by one
neutral fill, since a cancelling combination of distinct signatures
costs at least 3.  A Cauchy-Schwarz bound over the undecided classes
gives each class a window of sums and, per sum, a largest sum of
squares: the entries still free have squared norm at most the unspent
norm, so gap j can close by at most sqrt(unspent norm * the squared norm
of placed[j] in the undecided classes).  The bound is in exact integers
and drops only choices with no completion.  A class's tuples of one sum
come sparse, built for min(width, budget) coordinates, so none is as
long as its class; one coordinate wide, a class takes its sum or nothing
(_one_wide).  No list is cached, so none outlives its search: caching
them saved nothing on the desk range, the family witnesses or the wide
sweep.  For {-2, -w} the list of the sum that closes the gap grows as
sqrt(w).

The last 1 or 2 units of norm, with a target unmet, take no walk: they
are +-1 entries, and one signature lookup lists every completion.  One
entry c in class C meets the gaps when c * sig_C equals them, so C is
the class keyed by the gaps or their negative, c the shallowest gap's
sign.  Two entries, a in class A and b in class B, meet them when a *
sig_A + b * sig_B does: the shallowest gap, at depth j, is nonzero, so A
can be taken among the classes of placed[j]'s coordinates, and A and a
fix b * sig_B, which one dict lookup finds.  The keys are the exact
sparse signatures, so a lookup costs the few depths a column touches,
at any depth of the search.  Most vertices of the plumbing trees are -2
vertices placed next to a placed neighbour, norm 2 with a target unmet
from the start, so each of them is this one lookup; the first vertex of
a light component, with zero targets, gets its neutral fills by the
walk.  The few candidates are then sorted into descending order of their
dense entries, the order in which a class-by-class enumeration lists
them; the test suite keeps that enumeration as its oracle, and the
lists, node counts and witnesses are its own.

An embedding touches at most -trace(G) coordinates, each vector at most
its norm of them, and in canonical form the touched coordinates come
first.  So the search runs at min(rank, -trace(G)): a larger rank only
widens the untouched class, whose tuples then differ by trailing zeros,
and the candidates, node counts and witnesses are the same.  A witness
and every class enumerate_embeddings returns stay sparse, so
none holds the zeros past the searched width; a witness is made dense,
at the full rank, only when a caller reads a SearchResult's or a
SweepRow's witness.

Neither the placement depth, nor the number of classes, nor the width
of a class costs a call-stack frame: the search's iterators and the
candidate walk's generators sit in lists, and the tuple builders keep
explicit stacks, so long chains stay clear of the recursion limit.

A node budget turns an over-long search into an explicit indeterminate
outcome, never a wrong answer.

Vertices are placed in one fixed order (_Searcher._order): first those
of norm at most 2, depth first (_depth_first), so that each one after
the first of its light component is placed next to one already placed;
then the heavy ones, of norm 3 or more, in ascending norm, the heaviest
last.  A heavy vertex's untouched fills are as many as the partitions of
its norm into squares; placed last, it is tried only against the few
columns left, and a search that fails mostly fails before it.  The
order affects speed only, never the verdict: the search is complete in
any order.

All arithmetic is on plain integers.
"""

import sys
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, islice
from math import isqrt

from .plumbing import _read_matrix, form_invariants


class SearchStatus(Enum):
    FOUND = "found"
    NONE = "none"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SearchResult:
    """A search's status, node count and target rank and, when FOUND, its
    checked witness at that rank.  vectors holds the witness as the search
    checked it, one sparse vector per vertex in ascending vertex id, each
    its (coordinate, entry) pairs ascending, and is None otherwise;
    witness, the same vectors as tuples of rank ints, is made from them
    when first read and kept, so a caller that renders or writes the
    sparse vectors (cli's embed) never holds a dense copy."""

    status: SearchStatus
    vectors: tuple | None
    nodes: int
    rank: int

    @cached_property
    def witness(self):
        return None if self.vectors is None else _dense(self.vectors, self.rank)


def verify_embedding(gram, vectors) -> bool:
    """Exact check that -(v_i . v_j) reproduces the Gram matrix entrywise,
    read as det_exact reads it but with any support: _reproduces on its
    rows and the vectors' supports; ints only, one vector per row."""
    diag, off = _read_matrix(gram)
    if len(vectors) != len(diag):
        raise ValueError(f"{len(vectors)} vectors for a rank-{len(diag)} Gram matrix")
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors of mixed lengths")
    if not {int}.issuperset(map(type, chain.from_iterable(vectors))):
        raise TypeError("vector entries must be integers")
    return _reproduces(diag, off.values(), [_sparse(v) for v in vectors])


def _reproduces(diag, off, vectors):
    """Exact check that the sparse vectors, (coordinate, entry) pairs, give
    -(v_i . v_j) = diag[i] for j = i, off[i][j] for j > i in off[i], and 0
    for every other j > i.  Products are taken per coordinate over the
    vectors nonzero there: no pair with disjoint supports is multiplied
    out, and no n x n matrix is built."""
    columns = {}
    for i, vec in enumerate(vectors):
        norm = diag[i]
        for k, x in vec:
            norm += x * x
            columns.setdefault(k, []).append((i, x))
        if norm:
            return False
    meets = {}  # (i, j), i < j: -(v_i . v_j)
    for column in columns.values():
        while len(column) > 1:
            j, y = column.pop()
            for i, x in column:
                meets[i, j] = meets.get((i, j), 0) - x * y
    edges = {(i, j): a for i, row in enumerate(off) for j, a in row.items() if i < j}
    return {pair: d for pair, d in meets.items() if d} == edges


def _support(vec):
    """The coordinates of vec's nonzero entries, ascending.  Counting the
    zeros and skipping them both run in C, and the walk stops after the
    last nonzero entry, so a wide vector costs no bytecode per zero."""
    return islice(compress(count(), vec), len(vec) - vec.count(0))


def _sparse(vec):
    """vec's nonzero entries as (coordinate, entry) pairs, ascending."""
    return [(k, vec[k]) for k in _support(vec)]


def _depth_first(adj):
    """Depth-first preorder of the vertices, given their neighbours.

    The walk starts from the lowest index, visits neighbours in ascending
    index, and starts each further component at its lowest unplaced
    index.  Every vertex after the first of its component then comes
    after one of its neighbours, so its dot-product targets prune
    candidates from the start.  The search places its light vertices in
    this order (_Searcher._order); any complete order gives the same
    verdict, and the order only affects speed.
    """
    placed = [False] * len(adj)
    order = []
    for root in range(len(adj)):
        if placed[root]:
            continue
        stack = [root]
        while stack:
            v = stack.pop()
            if placed[v]:
                continue
            placed[v] = True
            order.append(v)
            nxt = []
            for w in adj[v]:
                if not placed[w]:
                    nxt.append(w)
            if len(nxt) > 1:
                nxt.sort(reverse=True)
            stack.extend(nxt)
    return order


def _parts(total, slots, budget):
    """The nonincreasing tuples of at most `slots` positive integers with
    this total and sum of squares <= budget, as (parts, sum of squares)."""
    out = []
    stack = [((), total, slots, budget, total)]
    while stack:
        parts, rest, slots, room, top = stack.pop()
        if not rest:
            out.append((parts, budget - room))
        elif rest * rest <= slots * room:
            # slots parts summing to rest square to at least rest**2 / slots
            # (Cauchy-Schwarz), and each part p leaves rest - p <= (slots - 1) * p
            for p in range(min(top, rest, isqrt(room)), -(-rest // slots) - 1, -1):
                stack.append((parts + (p,), rest - p, slots - 1, room - p * p, p))
    return out


def _touched_tuples(width, budget, total):
    """A touched class's tuples of one sum: the nonincreasing tuples of
    width integers with sum total and sum of squares <= budget, as
    (entries, q) pairs, q the sum of squares, in ascending q.

    entries is sparse, (offset, entry) pairs: the positive entries at
    offsets 0, 1, ... from the class's first coordinate, the negative ones
    at -1, -2, ... from past its last, the most negative at -1.  At most
    budget entries are nonzero, so callers pass min(width, budget): no
    tuple is built as long as its class.  Built per sum, so that a class
    that must close a gap exactly builds only the tuples of that sum, and
    afresh on each call, for the caller alone.  The search takes a class
    one coordinate wide from _one_wide instead.
    """
    out = []
    most = isqrt(width * budget)  # the largest |sum| of such a tuple
    for pos in range(max(total, 0), min(most, most + total, (budget + total) // 2) + 1):
        neg = pos - total  # pos, neg: the sums of the positive and negative entries
        for ps, q in _parts(pos, width - (neg > 0), budget):
            for ns, r in _parts(neg, width - len(ps), budget - q):
                out.append((tuple(enumerate(ps)) + tuple((-1 - i, -x) for i, x in enumerate(ns)),
                            q + r))
    out.sort(key=lambda e: e[1])
    return out


def _one_wide(width, budget, total):
    """_touched_tuples(1, budget, total) in closed form, 12% faster on the
    desk squares: the total as the one entry, or nothing past the budget."""
    q = total * total
    if q > budget:
        return []
    return [(((0, total),) if total > 0 else ((-1, total),) if total else (), q)]


def _untouched_fills(width, budget):
    """The untouched class's tuples that spend exactly budget: nonincreasing,
    non-negative, sum of squares budget, sparse as in _touched_tuples, for
    a class min(width, budget) wide."""
    out = []
    stack = [((), budget, width, isqrt(budget))]
    while stack:
        parts, rest, slots, top = stack.pop()
        if not rest:
            out.append(tuple(enumerate(parts)))
        elif rest <= slots * top * top:
            for p in range(min(top, isqrt(rest)), 0, -1):
                stack.append((parts + (p,), rest - p * p, slots - 1, p))
    return out


def _reading(vec):
    """Sort key of a sparse vector that orders vectors as their dense
    entries do, read in coordinate order: at the first coordinate where
    two differ, the larger entry wins, and a missing (zero) entry beats a
    negative one and loses to a positive one."""
    return tuple((1, -k, x) if x > 0 else (-1, k, x) for k, x in vec) + ((0,),)


class _Class:
    """A column class: the coordinates lo, ..., hi - 1, whose columns of
    placed entries all equal sig.  sig is sparse, the (depth, entry) pairs
    of the column's nonzero entries in depth order, so the untouched
    class has sig ()."""

    __slots__ = ("lo", "hi", "sig")

    def __init__(self, lo, hi, sig):
        self.lo, self.hi, self.sig = lo, hi, sig


class _Searcher:
    """One search of a form: its vertices in placement order (_order, light
    vertices depth first, heavy ones after them), the vectors placed so
    far, and the column classes they leave."""

    def __init__(self, diag, off, rank, budget=None):
        # the form: diag[i] its i-th diagonal entry, off[i] {j: entry} for
        # each non-zero off-diagonal entry of row i
        self.diag, self.off = diag, off
        self.n = len(diag)
        # an embedding touches at most -trace(G) coordinates (each vector at
        # most its norm), so any further coordinates stay zero
        self.rank = min(rank, -sum(diag))
        self.order = self._order(diag, off)
        depth_of = [0] * self.n
        for d, v in enumerate(self.order):
            depth_of[v] = d
        self.norms = [-diag[v] for v in self.order]
        # links[d]: (depth j, target) for each neighbour placed before depth
        # d; every other target of the vertex at depth d is 0
        self.links = []
        for d, v in enumerate(self.order):
            links = []
            for w, a in off[v].items():
                if depth_of[w] < d:
                    links.append((depth_of[w], -a))
            if len(links) > 1:
                links.sort()
            self.links.append(tuple(links))
        # room[j]: placed[j]'s squared norm in the classes a candidate walk
        # has not decided, restored as the walk backs out
        self.room = list(self.norms)
        self.budget = budget
        self.nodes = 0
        self.exhausted = False
        # placed vectors, sparse: (coordinate, entry) pairs, ascending
        self.placed = []
        # the column-class partition: owner[k] is the class of coordinate
        # k, by_sig maps each nonempty class's signature to it, and undo
        # holds one log per placed vector
        whole = _Class(0, self.rank, ())
        self.owner = [whole] * self.rank
        self.by_sig = {(): whole}
        self.undo = []

    @staticmethod
    def _order(diag, off):
        """The placement order: the vertices of norm at most 2 in
        _depth_first's order, then those of norm 3 or more in ascending
        (norm, index), the heaviest last.  In a tree, a light vertex whose
        parent in the walk is heavy is the first of its light component,
        so every other light vertex still follows a neighbour."""
        light = [v for v in _depth_first(off) if diag[v] >= -2]
        return light + sorted((v for v in range(len(diag)) if diag[v] <= -3),
                              key=lambda v: (-diag[v], v))

    def embeddings(self):
        """Every completed embedding, in depth-first order, sparse, each
        checked against the rows (_reproduces) by a raise that -O keeps.

        its[d] iterates over the candidates for the vertex at depth d, and
        placed[d] is the one it proposed last, so the placement depth uses
        no Python frames.  Each placed vector is a node; placing vector
        budget + 1 sets exhausted and ends the search.
        """
        placed = self.placed
        its = []
        while True:
            depth = len(placed)
            if depth == self.n:
                rows = [None] * self.n
                for slot, vec in zip(self.order, placed):
                    rows[slot] = vec
                if not _reproduces(self.diag, self.off, rows):
                    raise AssertionError("search produced an embedding that fails verification")
                yield rows
            else:
                its.append(iter(self._candidates(depth)))
            # backtrack to the deepest depth with a candidate left
            while its:
                if len(placed) == len(its):
                    self._unplace()
                vec = next(its[-1], None)
                if vec is not None:
                    self.nodes += 1
                    if self.budget is not None and self.nodes > self.budget:
                        self.exhausted = True
                        return
                    self._place(vec)
                    break
                its.pop()
            else:
                return

    def _place(self, vec):
        """Place vec and split the column classes it touches.

        The classes are intervals of coordinates, in the order of the
        candidates' reading: at depth 0 one class holds every coordinate,
        and a canonical vector's entries do not increase within a class
        (nor go negative on the untouched one), so its positive entries
        take the first coordinates of a class and its negative entries the
        last.  Each run of equal nonzero entries becomes a child class in
        its parent's place, runs in coordinate order, which is descending
        signature order; the zero run keeps the parent's record and
        signature.  A touched signature starts with a positive entry, so
        the children of the untouched class also sort after every touched
        class, and the untouched class stays last.  One pass over vec's
        entries does it, writing each of their coordinates' owner once.
        """
        depth = len(self.placed)
        owner, by_sig = self.owner, self.by_sig
        log = []
        cls = child = None
        for k, x in vec:
            parent = owner[k]
            if parent is cls and x == child.sig[-1][1]:  # child's run goes on
                child.hi = k + 1
                owner[k] = child
                if x > 0:
                    cls.lo = k + 1
                continue
            if parent is not cls:
                if cls is not None and cls.lo == cls.hi:
                    del by_sig[cls.sig]
                cls = parent
                children = []
                log.append((cls, cls.lo, cls.hi, children))
            child = _Class(k, k + 1, cls.sig + ((depth, x),))
            owner[k] = child
            by_sig[child.sig] = child
            children.append(child)
            if x > 0:
                cls.lo = k + 1
            elif cls.hi > k:  # the first negative run
                cls.hi = k
        if cls is not None and cls.lo == cls.hi:
            del by_sig[cls.sig]
        self.placed.append(vec)
        self.undo.append(log)

    def _unplace(self):
        """Remove the last placed vector and merge the classes it split."""
        self.placed.pop()
        owner, by_sig = self.owner, self.by_sig
        for cls, lo, hi, children in self.undo.pop():
            if cls.lo == cls.hi:
                by_sig[cls.sig] = cls
            cls.lo, cls.hi = lo, hi
            for child in children:
                del by_sig[child.sig]
                if child.hi - child.lo == 1:
                    owner[child.lo] = cls
                else:
                    owner[child.lo:child.hi] = [cls] * (child.hi - child.lo)

    def _candidates(self, depth):
        """All vectors for the vertex at this depth: its norm, dot products
        with the placed vectors equal to its targets, and canonical form
        for the placed columns.  Vectors are sparse, like placed ones.

        A candidate is one tuple per column class, nonincreasing, and
        non-negative on the untouched class; a class's tuple moves dot
        product j by sig[j] times its sum.  Classes are decided one at a
        time, the next one read off the choices so far:

        - while a gap (target minus dot product) is open and 3 or more of
          the norm is unspent, an undecided owner of a coordinate of
          placed[j], j the shallowest open gap;
        - with a gap open and at most 2 unspent, none: one signature
          lookup lists every completion (_finish);
        - with no gap open and 3 or more unspent, the next undecided
          class in coordinate order, the untouched one last, taking
          exactly what is left;
        - with no gap open and less than 3 unspent, none: a nonzero sum
          in a touched class opens gaps that only a cancelling
          combination of distinct signatures closes, and that costs 3 or
          more (two signatures, both starting positive, cancel only as
          s_a * sig_a = -s_b * sig_b with |s_a| != |s_b|).  What remains
          is (1, ..., -1) in one undecided touched class 2 or more wide,
          or (1) or (1, 1) in the untouched class (_filled).

        A vertex of norm 1 or 2 with a placed neighbour decides no class:
        its targets are open gaps, so _finish answers it outright.

        The undecided classes touching depth j hold room[j] of placed[j]'s
        squared norm, and the entries still free square to at most the
        unspent norm, so by Cauchy-Schwarz every completion has gap_j**2
        <= unspent norm * room[j].  That bound gives each class a window
        of sums and each sum a largest sum of squares; it drops only
        choices with no completion.  Every choice of a class is listed,
        so every candidate comes once; the few are sorted into descending
        order of their dense entries, the order of the class-by-class
        enumeration the test suite keeps as its oracle
        (oracles.reference_candidates).
        """
        norm, links = self.norms[depth], self.links[depth]
        if norm <= 2 and links:
            out = self._finish((), norm, links, ())
        else:
            out = list(self._walk(norm, links))
        if len(out) > 1:  # an unguarded one-element sort costs 1.0 us, the guard 0.03
            out.sort(key=_reading, reverse=True)
        return out

    def _walk(self, norm, links):
        """_candidates' class-by-class walk, yielding its candidates unsorted."""
        placed, owner, rank, room = self.placed, self.owner, self.rank, self.room
        decided = set()

        def options(cls, budget, gaps):
            """(entries, unspent norm, gaps) for each tuple of cls that keeps
            every open gap within its room; cls is already decided.  room is
            read lazily, and the walk restores it before it returns to a
            frame, so each read sees what it held when the frame was pushed."""
            width = min(cls.hi - cls.lo, budget)
            if not cls.sig:
                yield from ((entries, 0, gaps) for entries in _untouched_fills(width, budget))
                return
            tuples = _touched_tuples if width > 1 else _one_wide
            hi = isqrt(width * budget)
            lo = -hi
            for j, x in cls.sig:  # |gap_j - x * sum| <= reach
                g = gaps.get(j, 0)
                if x < 0:
                    x, g = -x, -g
                reach = isqrt(budget * room[j])
                lo = max(lo, -((reach - g) // x))
                hi = min(hi, (g + reach) // x)
            for s in range(hi, lo - 1, -1):
                new = gaps
                if s:
                    new = dict(gaps)
                    for j, x in cls.sig:
                        g = new.pop(j, 0) - x * s
                        if g:
                            new[j] = g
                # an open gap always has room: the window closes a gap at
                # a depth whose room is gone
                need = 0
                for j, g in new.items():
                    need = max(need, -(-g * g // room[j]))
                for entries, q in tuples(width, budget, s):
                    if q > budget - need:
                        break
                    yield entries, budget - q, new

        stack = []  # per decided class: [class, its options, cursor, entries]
        budget, gaps, cursor = norm, dict(links), 0
        while True:
            cls = None
            if not gaps:
                if budget >= 3:
                    while cursor < rank and owner[cursor] in decided:
                        cursor = owner[cursor].hi
                    if cursor < rank:
                        cls = owner[cursor]
                else:
                    yield from self._filled(stack, budget, decided)
            elif budget >= 3:
                for k, _ in placed[min(gaps)]:
                    if owner[k] not in decided:
                        cls = owner[k]
                        break
            else:
                yield from self._finish(stack, budget, sorted(gaps.items()), decided)
            if cls is not None:
                decided.add(cls)
                width = cls.hi - cls.lo
                for j, x in cls.sig:
                    room[j] -= width * x * x
                stack.append([cls, options(cls, budget, gaps), cursor, ()])
            while stack:
                frame = stack[-1]
                option = next(frame[1], None)
                if option is not None:
                    frame[3], budget, gaps = option
                    cursor = frame[2]
                    break
                stack.pop()
                cls = frame[0]
                decided.discard(cls)
                width = cls.hi - cls.lo
                for j, x in cls.sig:
                    room[j] += width * x * x
            else:
                return

    @staticmethod
    def _base(stack):
        """The entries the decided classes on stack chose, at their coordinates."""
        return [(cls.lo + o if o >= 0 else cls.hi + o, x)
                for cls, _, _, entries in stack for o, x in entries]

    def _filled(self, stack, budget, decided):
        """The candidates that complete the choices on stack with no gap
        open and budget < 3 unspent: the undecided classes stay zero but
        for at most one neutral fill."""
        base = self._base(stack)
        if not budget:
            return [tuple(sorted(base))]
        fills = []
        last = self.owner[self.rank - 1]
        if not last.sig and last.hi - last.lo >= budget:
            fills.append([(last.lo + i, 1) for i in range(budget)])
        if budget == 2:
            fills.extend([(cls.lo, 1), (cls.hi - 1, -1)] for cls in self.by_sig.values()
                         if cls.sig and cls.hi - cls.lo >= 2 and cls not in decided)
        return [tuple(sorted(base + fill)) for fill in fills]

    def _finish(self, stack, budget, gaps, decided):
        """The candidates that complete the choices on stack with gaps
        open, the (depth, gap) pairs in depth order, and budget 1 or 2
        unspent, by signature lookup; unsorted.  (The walk never leaves a
        gap open with no norm left to close it.)

        What is left is budget entries +-1, in undecided classes: a
        single entry of a class is its first coordinate if +1 and its
        last if -1, and an untouched class takes only +1.  One entry, c
        in class C, meets the gaps when c * sig_C = gaps, and every
        touched signature starts positive, so c is the sign of the
        shallowest gap and C is by_sig[c * gaps].

        Two entries in classes A and B (signs a, b) meet the gaps when a
        * sig_A + b * sig_B = gaps.  The shallowest gap, at depth j, is
        nonzero, so sig_A[j] or sig_B[j] is: one of the two classes holds
        a coordinate of placed[j].  So class A ranges over the classes of
        those coordinates only, at most placed[j]'s norm of them, each
        pair is counted from its lower class when both qualify, and A and
        a fix b * sig_B = gaps - a * sig_A: b is the sign of its first
        entry, or +1 for the untouched class's (), and one dict lookup
        finds B.  B = A is the case (1, 1, 0, ...) or (..., -1, -1),
        gaps = 2a * sig_A; (1, 0, ..., -1) in one class meets zero gaps
        only.  A norm-2 vertex with a placed neighbour asks for B = A
        only in a form that is not definite: the vectors placed before it
        have norm at most 2, so one that is +-1 on two coordinates of a
        class is +-(the candidate).
        """
        by_sig = self.by_sig
        finishes = []
        if budget == 1:
            c = 1 if gaps[0][1] > 0 else -1
            c_cls = by_sig.get(tuple([(j, c * g) for j, g in gaps]))
            if c_cls is not None and c_cls not in decided:
                finishes.append(((c_cls.lo, 1),) if c > 0 else ((c_cls.hi - 1, -1),))
        else:
            owner = self.owner
            j0, g0 = gaps[0]
            near = {}  # each class of placed[j0]'s coordinates: its entry there
            for k, x in self.placed[j0]:
                near[owner[k]] = x
            entries = near.values()
            for a_cls, x in near.items():
                if a_cls in decided:
                    continue
                for a in (1, -1):
                    # b * sig_B[j0]: 0, or +- the entry there of a class in near
                    y = g0 - a * x
                    if y and y not in entries and -y not in entries:
                        continue
                    # b * sig_B = gaps - a * sig_A = -a * m, m = sig_A - a * gaps
                    m = a_cls.sig
                    for j, g in gaps:
                        i = bisect_left(m, (j,))
                        if i < len(m) and m[i][0] == j:
                            t = m[i][1] - a * g
                            m = m[:i] + ((j, t),) + m[i + 1:] if t else m[:i] + m[i + 1:]
                        else:
                            m = m[:i] + ((j, -a * g),) + m[i:]
                    if not m:
                        b, b_cls = 1, by_sig.get(m)
                    elif m[0][1] > 0:
                        b, b_cls = -a, by_sig.get(m)
                    else:
                        b, b_cls = a, by_sig.get(tuple([(j, -t) for j, t in m]))
                    if b_cls is None or b_cls in decided:
                        continue
                    if b_cls is a_cls:  # gaps = 2a * sig_A
                        if a_cls.hi - a_cls.lo >= 2:
                            finishes.append(((a_cls.lo, 1), (a_cls.lo + 1, 1)) if a > 0
                                            else ((a_cls.hi - 2, -1), (a_cls.hi - 1, -1)))
                    elif b_cls not in near or a_cls.lo < b_cls.lo:
                        ka = (a_cls.lo, 1) if a > 0 else (a_cls.hi - 1, -1)
                        kb = (b_cls.lo, 1) if b > 0 else (b_cls.hi - 1, -1)
                        finishes.append((ka, kb) if ka < kb else (kb, ka))
        if not stack:
            return finishes
        base = self._base(stack)
        return [tuple(sorted([*base, *finish])) for finish in finishes]


def find_embedding(tree, rank=None, budget=None) -> SearchResult:
    """Decide embeddability of a plumbing tree's negative-definite
    intersection form into (Z^r, -Id).

    Returns FOUND with the first embedding the search completes, checked
    against the form's rows as each one is (_Searcher.embeddings), one
    vector per vertex in ascending vertex id, kept sparse (SearchResult),
    NONE after exhausting the (symmetry-pruned but complete) search
    space, or INDETERMINATE when the node budget runs out.  rank defaults
    to the vertex count, the rank relevant to the rational-homology-ball
    obstruction.  Raises ValueError for a form that is not negative
    definite, or a rank below 1.  tree may also be a form's rows
    (_search_input), as classify_one passes its builder's.
    """
    diag, off, r = _search_input(tree, rank)
    searcher = _Searcher(diag, off, r, budget)
    witness = next(searcher.embeddings(), None)
    if searcher.exhausted:
        return SearchResult(SearchStatus.INDETERMINATE, None, searcher.nodes, r)
    if witness is None:
        return SearchResult(SearchStatus.NONE, None, searcher.nodes, r)
    return SearchResult(SearchStatus.FOUND, tuple(witness), searcher.nodes, r)


def _dense(vectors, rank):
    """Sparse vectors as tuples of rank entries, one row list at a time."""
    dense = []
    for vec in vectors:
        row = [0] * rank
        for k, x in vec:
            row[k] = x
        dense.append(tuple(row))
    return tuple(dense)


def _search_input(tree, rank):
    """Validate the search input; returns the form's rows (the diagonal,
    and per row {column: entry} for each nonzero off-diagonal entry) and
    the target rank.  A tree is read in ascending vertex id as in
    gram_matrix, with its memoised definiteness; a tuple holds the rows
    and definiteness already, as classify_one has them from its builder."""
    if type(tree) is tuple:
        diag, off, definite = tree
    else:
        order = tree.vertices()
        index = {v: i for i, v in enumerate(order)}
        diag = [tree.weight(v) for v in order]
        off = [{index[u]: 1 for u in tree.neighbors(v)} for v in order]
        definite = form_invariants(tree)[1]
    if not definite:
        # embeddings into -Id exist only for negative-definite forms
        raise ValueError("intersection form is not negative definite")
    r = len(diag) if rank is None else rank
    if type(r) is not int:  # int() would search rank 2 for 2.9, rank 1 for True
        raise TypeError(f"rank must be an integer, got {r!r}")
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if r > sys.maxsize:
        # a witness holds one entry per coordinate
        raise ValueError(f"rank must be at most {sys.maxsize}, got {r}")
    return diag, off, r


def _canonical(vectors):
    """Canonical representative of sparse vectors under the self-isometries
    of the target, the signed permutations of coordinates: each nonzero
    column, its (vertex, entry) pairs, flipped so its first entry is
    positive, the columns in descending order of their dense entries
    (_reading) and numbered from 0.  Returns it and its column count."""
    columns = {}
    for i, vec in enumerate(vectors):
        for k, x in vec:
            columns.setdefault(k, []).append((i, x))
    flipped = [col if col[0][1] > 0 else [(i, -x) for i, x in col] for col in columns.values()]
    flipped.sort(key=_reading, reverse=True)
    rows = [[] for _ in vectors]
    for k, col in enumerate(flipped):
        for i, x in col:
            rows[i].append((k, x))
    return tuple(map(tuple, rows)), len(flipped)


def enumerate_embeddings(tree, rank=None, locally_minimal_only=False) -> list:
    """All embeddings of a plumbing tree's form up to self-isometry of the
    target, canonically presented; rank and ValueError as in find_embedding.

    Intended for small instances (the search collects every completion).
    The stepwise pruning already quotients by most of the symmetry; the
    final canonicalisation removes what it cannot see (columns that are
    negatives of each other), so the returned list has one entry per
    isometry class.

    Each class is sparse, as SearchResult.vectors.  Solutions, checked
    against the rows as the search completes them, are canonicalised
    (_canonical) at the searched width, -trace(G) at most, so a class is
    the same at any larger rank; one is locally minimal when it uses
    every coordinate of that width.  The classes come in ascending order
    of their dense rows.
    """
    diag, off, r = _search_input(tree, rank)
    searcher = _Searcher(diag, off, r)
    if locally_minimal_only and r > searcher.rank:
        return []
    seen = set()
    for sol in searcher.embeddings():
        sol, width = _canonical(sol)
        if not locally_minimal_only or width == searcher.rank:
            seen.add(sol)
    return sorted(seen, key=lambda sol: [_reading(vec) for vec in sol])


# -- presentation ------------------------------------------------------------


def render_vector(vec) -> str:
    """Human-readable form such as 'e1-e2+2e5'; the zero vector renders as '0'."""
    return _render(_sparse(vec))


def _render(pairs) -> str:
    """render_vector's text of a sparse vector, its (coordinate, entry)
    pairs ascending, at any rank."""
    parts = []
    for k, x in pairs:
        mag = "" if abs(x) == 1 else str(abs(x))
        parts.append(("-" if x < 0 else ("+" if parts else "")) + mag + f"e{k + 1}")
    return "".join(parts) if parts else "0"


def embedding_from_json_obj(obj) -> tuple:
    """Vectors of a witness file's decoded object; TypeError unless rank and
    every entry are ints, since truncation could make a non-witness verify."""
    rank = obj["rank"]
    vectors = tuple(tuple(v) for v in obj["vectors"])
    if type(rank) is not int or any(type(x) is not int for v in vectors for x in v):
        raise TypeError("witness rank and entries must be integers")
    if any(len(v) != rank for v in vectors):
        raise ValueError("vector length disagrees with declared rank")
    return vectors
