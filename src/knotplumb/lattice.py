"""Exhaustive lattice-embedding search into (Z^r, -Id).

A lattice embedding of a plumbing tree's negative-definite intersection
form G assigns to each vertex i a vector v_i in Z^r with <v_i, v_j>_{-Id}
= -(v_i . v_j) = G[i][j].  Existence of such an embedding at r = rank(G)
is necessary for the plumbed 4-manifold's boundary to bound a rational
homology 4-ball, so a completed search that finds nothing is a proof of
obstruction.  The search reads G off the tree's weights and edges (the
Gram matrix is built only to re-verify a witness).

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

A candidate's entries are chosen one column class at a time, and a
partial choice is dropped once a Cauchy-Schwarz bound over all the
columns still free shows that it cannot meet a dot-product target: those
entries have squared norm at most the unspent norm, so the gap to each
target can close by at most sqrt(unspent norm * sum of the placed
vector's squared entries in the free columns).  The bound is checked in
exact integers, only on the nonzero gaps, and drops only choices with no
completion, so it changes the speed of the search, never its candidates
or its node count.

Most vertices of the plumbing trees are -2 vertices, and a norm-2 vector
is +-1 in two coordinates.  Its candidates skip the class-by-class
enumeration.  When the targets are nonzero, one of the two classes holding
a +-1 meets the support of a placed neighbour; so only those classes, at
most the neighbours' norms of them, are tried as class A, and a +-1 in
class A fixes the sparse signature of the class of the other +-1, which
one dict lookup finds.  Zero targets (the first vertex of a component)
allow only two entries in one class.  These candidates are sorted by a
key that reproduces the enumeration's order (descending lexicographic in
the entries in coordinate order), so both ways give the same list,
element for element, and the same nodes and witnesses.

An embedding touches at most -trace(G) coordinates, each vector at most
its norm of them, and in canonical form the touched coordinates come
first.  So the search runs at min(rank, -trace(G)) and pads a witness
with zero columns after verifying it: a larger rank only widens the
untouched class, whose tuples then differ by trailing zeros, and the
candidates, node counts and witnesses are the same.

Neither the placement depth, nor the number of classes, nor the width
of a class costs a Python frame: the search and the class-by-class
enumeration keep explicit stacks, and a class's tuples recurse only
once per nonzero entry, so long chains stay clear of the recursion
limit.

A node budget turns an over-long search into an explicit indeterminate
outcome, never a wrong answer.

Vertices are placed in one fixed depth-first order (_depth_first), so
each vertex after the first of its component is placed next to one
already placed.  The order affects speed only, never the verdict.

All arithmetic is on plain integers.
"""

import sys
from dataclasses import dataclass
from enum import Enum
from math import isqrt

from .plumbing import form_invariants, gram_matrix


class SearchStatus(Enum):
    FOUND = "found"
    NONE = "none"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    witness: tuple | None
    nodes: int


def verify_embedding(gram, vectors) -> bool:
    """Exact check that -(v_i . v_j) reproduces the Gram matrix entrywise."""
    n = len(gram)
    if len(vectors) != n:
        raise ValueError(f"{len(vectors)} vectors for a rank-{n} Gram matrix")
    r = len(vectors[0]) if vectors else 0
    if any(len(v) != r for v in vectors):
        raise ValueError("vectors of mixed lengths")
    for i in range(n):
        for j in range(i, n):
            dot = sum(a * b for a, b in zip(vectors[i], vectors[j]))
            if -dot != gram[i][j]:
                return False
    return True


def _depth_first(adj):
    """Order in which the search places vertices, given their neighbours.

    Depth-first preorder from the lowest index, neighbours visited in
    ascending index, each further component started at its lowest
    unplaced index.  Every vertex after the first of its component is
    then placed next to an already-placed one, so its dot-product targets
    prune candidates from the start.  Any complete order gives the same
    verdict; the order only affects speed.
    """
    placed = [False] * len(adj)
    order = []
    for root in range(len(adj)):
        stack = [root]
        while stack:
            v = stack.pop()
            if placed[v]:
                continue
            placed[v] = True
            order.append(v)
            stack.extend(sorted((w for w in adj[v] if not placed[w]), reverse=True))
    return order


def _sorted_tuples(size, budget, lo, hi):
    """Nonincreasing integer tuples of the given size with entries in
    [lo, hi] and sum of squares <= budget, in descending lexicographic
    order; yields (tuple, sum, sumsq).

    Such a tuple is its positive entries, then a block of zeros, then its
    negative entries.  Every nonzero entry spends at least 1 of the
    budget and the zero block is placed in one step, so the recursion is
    at most budget + 1 deep however long the tuple is.
    """
    if size == 0:
        yield (), 0, 0
        return
    for x in range(hi, lo - 1, -1):
        if x == 0:
            # a leading zero: zeros, then j negative entries; fewer
            # negatives come first in descending order
            most = min(size - 1, budget) if lo < 0 else 0
            for j in range(most + 1):
                zeros = (0,) * (size - j)
                for rest, s, q in _sorted_tuples(j, budget, lo, -1):
                    yield zeros + rest, s, q
            continue
        sq = x * x
        if sq > budget:
            continue
        for rest, s, q in _sorted_tuples(size - 1, budget - sq, lo, min(hi, x)):
            yield (x,) + rest, s + x, q + sq


class _Class:
    """A column class: the coordinates lo, ..., hi - 1, whose columns of
    placed entries all equal sig.  sig is sparse, the (depth, entry) pairs
    of the column's nonzero entries in depth order, so the untouched
    class has sig ()."""

    __slots__ = ("lo", "hi", "sig")

    def __init__(self, lo, hi, sig):
        self.lo, self.hi, self.sig = lo, hi, sig


class _Searcher:
    def __init__(self, diag, off, rank, budget=None):
        # the form: diag[i] its i-th diagonal entry, off[i] {j: entry} for
        # each non-zero off-diagonal entry of row i
        self.diag, self.off = diag, off
        self.n = len(diag)
        # an embedding touches at most -trace(G) coordinates (each vector at
        # most its norm), so any further coordinates stay zero
        self.rank = min(rank, -sum(diag))
        self.order = _depth_first(off)
        depth_of = [0] * self.n
        for d, v in enumerate(self.order):
            depth_of[v] = d
        self.norms = [-diag[v] for v in self.order]
        # links[d]: (depth j, target) for each neighbour placed before depth
        # d; every other target of the vertex at depth d is 0
        self.links = [
            sorted((depth_of[w], -a) for w, a in off[v].items() if depth_of[w] < d)
            for d, v in enumerate(self.order)
        ]
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

    def embeddings(self):
        """Every completed embedding, in depth-first order, at self.rank.

        frames[d] iterates the candidates for the vertex at depth d and
        placed[d] is the one it proposed last, so the placement depth
        uses no Python frames.  Each placed vector is a node; placing
        vector budget + 1 sets exhausted and ends the search.
        """
        placed = self.placed
        frames = []
        while True:
            depth = len(placed)
            if depth == self.n:
                rows = [None] * self.n
                for slot, vec in zip(self.order, placed):
                    row = [0] * self.rank
                    for k, x in vec:
                        row[k] = x
                    rows[slot] = tuple(row)
                yield tuple(rows)
            else:
                frames.append(iter(self._candidates(depth)))
            # backtrack to the deepest depth with a candidate left
            while frames:
                if len(placed) == len(frames):
                    self._unplace()
                vec = next(frames[-1], None)
                if vec is not None:
                    self.nodes += 1
                    if self.budget is not None and self.nodes > self.budget:
                        self.exhausted = True
                        return
                    self._place(vec)
                    break
                frames.pop()
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
        class, and the untouched class stays last.
        """
        depth = len(self.placed)
        owner, by_sig = self.owner, self.by_sig
        log = []
        i = 0
        while i < len(vec):
            cls = owner[vec[i][0]]
            lo, hi = cls.lo, cls.hi
            children = []
            while i < len(vec) and vec[i][0] < hi:
                k, x = vec[i]
                if children and children[-1].sig[-1][1] == x:
                    children[-1].hi = k + 1
                else:
                    children.append(_Class(k, k + 1, cls.sig + ((depth, x),)))
                i += 1
            for child in children:
                owner[child.lo:child.hi] = [child] * (child.hi - child.lo)
                by_sig[child.sig] = child
                if child.sig[-1][1] > 0:
                    cls.lo = child.hi
                else:
                    cls.hi = min(cls.hi, child.lo)
            if cls.lo == cls.hi:
                del by_sig[cls.sig]
            log.append((cls, lo, hi, children))
        self.placed.append(vec)
        self.undo.append(log)

    def _unplace(self):
        """Remove the last placed vector and merge the classes it split."""
        self.placed.pop()
        for cls, lo, hi, children in self.undo.pop():
            if cls.lo == cls.hi:
                self.by_sig[cls.sig] = cls
            cls.lo, cls.hi = lo, hi
            for child in children:
                del self.by_sig[child.sig]
                self.owner[child.lo:child.hi] = [cls] * (child.hi - child.lo)

    def _classes(self):
        """The column classes in order, the untouched class (if any) last."""
        k = 0
        while k < self.rank:
            cls = self.owner[k]
            yield cls
            k = cls.hi

    def _candidates(self, depth):
        """All vectors for the vertex at this depth: its norm, dot products
        with the placed vectors equal to its targets, and canonical form
        for the placed columns.  Vectors are sparse, like placed ones.

        The entries are chosen class by class in the partition's order,
        each class as a nonincreasing tuple, the untouched class last.  A
        partial choice is kept only if it can still meet every target: the
        entries not yet chosen have squared norm at most the remaining
        budget, and they move dot product j by sum_k sig(k)[j] * x_k, so
        by Cauchy-Schwarz the gap to target j must satisfy
            gap_j**2 <= remaining budget * sum over later classes u of
                        size_u * sig_u[j]**2.
        A zero gap always does, so only the nonzero gaps are kept and
        tested.  The right-hand sums are one suffix table per depth j,
        over the classes whose signature is nonzero at j: those holding a
        coordinate where the vector placed at depth j is nonzero.  Only
        partial choices that cannot complete are skipped, so the output is
        exactly the unpruned enumeration's, in the same order.

        Class by class, each class's tuples in descending lexicographic
        order, the enumeration lists its output in descending lexicographic
        order of the entries read class by class, which is coordinate
        order.  Norm 2 is answered by signature lookup instead
        (_norm_two), which sorts its candidates into that order, so it
        returns the same list.
        """
        norm = self.norms[depth]
        if norm == 2:
            return self._norm_two(depth)
        classes = list(self._classes())
        # suffix[j]: [u, sum over classes v >= u of size_v * sig_v[j]**2]
        # for each class u whose signature is nonzero at depth j
        suffix = {}
        for u, cls in enumerate(classes):
            for j, x in cls.sig:
                suffix.setdefault(j, []).append([u, (cls.hi - cls.lo) * x * x])
        for rows in suffix.values():
            for a in range(len(rows) - 2, -1, -1):
                rows[a][1] += rows[a + 1][1]
        cap = isqrt(norm)

        def frame(idx, budget, gaps):
            # the tuples for class idx, with the unspent norm and gaps
            # {j: targets[j] - (dot product with placed[j])} before it,
            # nonzero gaps only; the untouched class takes only entries >= 0
            cls = classes[idx]
            tuples = _sorted_tuples(cls.hi - cls.lo, budget, -cap if cls.sig else 0, cap)
            return tuples, budget, gaps

        last = len(classes) - 1
        out = []
        chosen = [None] * len(classes)
        stack = [frame(0, norm, dict(self.links[depth]))]
        while stack:
            idx = len(stack) - 1
            tuples, budget, gaps = stack[-1]
            cls = classes[idx]
            for tup, s, q in tuples:
                if not cls.sig and q != budget:
                    continue  # untouched columns must exactly finish the norm
                rem_budget = budget - q
                new_gaps = gaps
                if s:
                    new_gaps = dict(gaps)
                    for j, x in cls.sig:
                        g = new_gaps.pop(j, 0) - x * s
                        if g:
                            new_gaps[j] = g
                for j, g in new_gaps.items():
                    for u, room in suffix.get(j, ()):
                        if u > idx:
                            break
                    else:
                        room = 0  # no later class moves dot product j
                    if g * g > rem_budget * room:
                        break
                else:
                    break
            else:
                stack.pop()
                continue
            chosen[idx] = tup
            if idx < last:
                stack.append(frame(idx + 1, rem_budget, new_gaps))
            elif rem_budget == 0 and not new_gaps:
                out.append(tuple(
                    (c.lo + i, x) for c, t in zip(classes, chosen) for i, x in enumerate(t) if x
                ))
        return out

    def _norm_two(self, depth):
        """_candidates for norm 2, by signature lookup.

        A norm-2 vector is +-1 in two coordinates.  In canonical form a
        single entry of a class is its first coordinate if +1 and its last
        if -1, and an untouched class takes only +1.  Two entries in one
        class are (1, 1, 0, ...), (1, 0, ..., -1) or (..., -1, -1), meeting
        targets equal to 2 * sig, 0 or -2 * sig; the untouched class takes
        only (1, 1, 0, ...).

        With the entries in different classes A and B (signs a, b), the
        targets demand a * sig_A + b * sig_B = targets.  If the targets are
        0, that asks for sig_B = -sig_A, and no class has it: every touched
        signature starts with a positive entry.  Otherwise some target
        t_j != 0, so sig_A[j] or sig_B[j] is nonzero: one of the two classes
        holds a coordinate where the placed neighbour at depth j is
        nonzero.  So class A ranges over the classes of those coordinates
        only, at most the neighbours' norms of them, each pair is counted
        from its earlier class when both qualify, and A and a fix the
        sparse signature of B, found by one dict lookup; 2 * sig = targets
        is the case where that lookup finds A itself.

        The general enumeration lists its candidates in descending
        lexicographic order of the entries in coordinate order.  With the
        two nonzero entries of a candidate at coordinates k1 < k2, values
        v1 and v2, the key (v1, -v1*k1, v2, -v2*k2) sorts in that same
        order (a +1 earlier, or a -1 later, makes the vector larger), so
        the two paths return equal lists.
        """
        links = self.links[depth]
        found = []  # (k1, v1, k2, v2) with k1 < k2
        if not links:
            for cls in self._classes():
                if cls.hi - cls.lo >= 2:
                    found.append((cls.lo, 1, cls.hi - 1, -1) if cls.sig
                                 else (cls.lo, 1, cls.lo + 1, 1))
        else:
            owner, by_sig = self.owner, self.by_sig
            near = {owner[k]: None for j, _ in links for k, _ in self.placed[j]}
            for a_cls in near:
                for a in (1, -1):
                    rest = dict(links)
                    for j, x in a_cls.sig:
                        t = rest.pop(j, 0) - a * x
                        if t:
                            rest[j] = t
                    key = tuple(sorted(rest.items()))
                    # the untouched class (signature ()) takes only +1
                    flipped = by_sig.get(tuple([(j, -t) for j, t in key])) if key else None
                    for b, b_cls in ((1, by_sig.get(key)), (-1, flipped)):
                        if b_cls is None:
                            continue
                        if b_cls is a_cls:  # the targets are 2 * a * sig_A
                            if a_cls.hi - a_cls.lo >= 2:
                                found.append((a_cls.lo, 1, a_cls.lo + 1, 1) if a > 0
                                             else (a_cls.hi - 2, -1, a_cls.hi - 1, -1))
                        elif b_cls not in near or a_cls.lo < b_cls.lo:
                            ka = a_cls.lo if a > 0 else a_cls.hi - 1
                            kb = b_cls.lo if b > 0 else b_cls.hi - 1
                            found.append((ka, a, kb, b) if ka < kb else (kb, b, ka, a))
            found.sort(key=lambda f: (f[1], -f[1] * f[0], f[3], -f[3] * f[2]), reverse=True)
        return [((k1, v1), (k2, v2)) for k1, v1, k2, v2 in found]


def find_embedding(tree, rank=None, budget=None) -> SearchResult:
    """Decide embeddability of a plumbing tree's negative-definite
    intersection form into (Z^r, -Id).

    Returns FOUND with a verified witness, one vector per vertex in
    ascending vertex id, NONE after exhausting the (symmetry-pruned but
    complete) search space, or INDETERMINATE when the node budget runs
    out.  rank defaults to the vertex count, the rank relevant to the
    rational-homology-ball obstruction.  Raises ValueError for a form that
    is not negative definite, or a rank below 1.
    """
    r = _target_rank(tree, rank)
    searcher = _Searcher(*_form_rows(tree), r, budget)
    witness = next(searcher.embeddings(), None)
    if searcher.exhausted:
        return SearchResult(SearchStatus.INDETERMINATE, None, searcher.nodes)
    if witness is None:
        return SearchResult(SearchStatus.NONE, None, searcher.nodes)
    if not verify_embedding(gram_matrix(tree), witness):
        raise AssertionError("search produced a witness that fails verification")
    return SearchResult(SearchStatus.FOUND, _padded(witness, r - searcher.rank), searcher.nodes)


def _padded(vectors, extra):
    """The vectors with extra zero entries appended."""
    zeros = (0,) * extra
    return tuple(v + zeros for v in vectors)


def _form_rows(tree):
    """The tree's intersection form as _Searcher takes it: the diagonal
    and, per row, {column: 1} for each neighbour, rows and columns in
    ascending vertex id as in gram_matrix."""
    order = tree.vertices()
    index = {v: i for i, v in enumerate(order)}
    return (
        [tree.weight(v) for v in order],
        [{index[u]: 1 for u in tree.neighbors(v)} for v in order],
    )


def _target_rank(tree, rank):
    """Validate the search input; returns the target rank."""
    if not form_invariants(tree)[1]:
        # embeddings into -Id exist only for negative-definite forms
        raise ValueError("intersection form is not negative definite")
    r = len(tree) if rank is None else rank
    if type(r) is not int:  # int() would search rank 2 for 2.9, rank 1 for True
        raise TypeError(f"rank must be an integer, got {r!r}")
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if r > sys.maxsize:
        # a witness holds one entry per coordinate
        raise ValueError(f"rank must be at most {sys.maxsize}, got {r}")
    return r


def matrix_canonical_form(vectors) -> tuple:
    """Canonical representative under self-isometries of the target.

    Self-isometries of (Z^r, -Id) are signed permutations of coordinates,
    acting on the embedding matrix as column sign flips and column swaps:
    flip each column so its first nonzero entry is positive, then sort
    columns.  Rows (the vertices) stay put.
    """
    if not vectors:
        return ()
    cols = [tuple(v[k] for v in vectors) for k in range(len(vectors[0]))]
    normed = []
    for col in cols:
        lead = next((x for x in col if x != 0), 0)
        normed.append(tuple(-x for x in col) if lead < 0 else col)
    normed.sort(reverse=True)
    return tuple(tuple(col[i] for col in normed) for i in range(len(vectors)))


def is_locally_minimal(vectors) -> bool:
    """Every coordinate of the target is hit by some vector."""
    if not vectors:
        return True
    return all(any(v[k] != 0 for v in vectors) for k in range(len(vectors[0])))


def enumerate_embeddings(tree, rank=None, locally_minimal_only=False) -> list:
    """All embeddings of a plumbing tree's form up to self-isometry of the
    target, canonically presented; rank and ValueError as in find_embedding.

    Intended for small instances (the search collects every completion).
    The stepwise pruning already quotients by most of the symmetry; the
    final canonicalisation removes what it cannot see (columns that are
    negatives of each other), so the returned list has one entry per
    isometry class.
    """
    r = _target_rank(tree, rank)
    seen = {}
    searcher = _Searcher(*_form_rows(tree), r)
    for sol in searcher.embeddings():
        sol = _padded(sol, r - searcher.rank)
        if locally_minimal_only and not is_locally_minimal(sol):
            continue
        seen[matrix_canonical_form(sol)] = True
    return sorted(seen)


# -- presentation ------------------------------------------------------------


def render_vector(vec) -> str:
    """Human-readable form such as 'e1-e2+2e5'; the zero vector renders as '0'."""
    parts = []
    for k, x in enumerate(vec, start=1):
        if x == 0:
            continue
        mag = "" if abs(x) == 1 else str(abs(x))
        parts.append(("-" if x < 0 else ("+" if parts else "")) + mag + f"e{k}")
    return "".join(parts) if parts else "0"


def embedding_to_json_obj(vectors) -> dict:
    return {"rank": len(vectors[0]) if vectors else 0, "vectors": [list(v) for v in vectors]}


def embedding_from_json_obj(obj) -> tuple:
    """Vectors of an embedding_to_json_obj object; TypeError unless rank
    and every entry are ints, since truncation could make a non-witness verify."""
    rank = obj["rank"]
    vectors = tuple(tuple(v) for v in obj["vectors"])
    if type(rank) is not int or any(type(x) is not int for v in vectors for x in v):
        raise TypeError("witness rank and entries must be integers")
    if any(len(v) != rank for v in vectors):
        raise ValueError("vector length disagrees with declared rank")
    return vectors
