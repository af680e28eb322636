"""Exhaustive lattice-embedding search into (Z^r, -Id).

A lattice embedding of a negative-definite Gram matrix G assigns to each
index i a vector v_i in Z^r with <v_i, v_j>_{-Id} = -(v_i . v_j) = G[i][j].
Existence of such an embedding at r = rank(G) is necessary for the
plumbed 4-manifold's boundary to bound a rational homology 4-ball, so a
completed search that finds nothing is a proof of obstruction.

The search is complete backtracking over candidate vectors of the right
norm, with symmetry breaking: after placing some vectors, coordinates of
the target whose placed columns agree are interchangeable (and coordinates
nobody has touched can also flip sign), so candidates are generated only
in canonical form with respect to that stabilizer subgroup -- entries
sorted within each column class, non-negative on untouched columns.  Any
embedding can be moved into this form step by step by self-isometries of
(Z^r, -Id) fixing the earlier vectors, so the pruning loses nothing; a
"none" answer is exhaustive.

A candidate's entries are chosen one column class at a time, and a
partial choice is dropped once a Cauchy-Schwarz bound over all the
columns still free shows that it cannot meet a dot-product target: those
entries have squared norm at most the unspent norm, so the gap to each
target can close by at most sqrt(unspent norm * sum of the placed
vector's squared entries in the free columns).  The bound is checked in
exact integers and drops only choices with no completion, so it changes
the speed of the search, never its candidates or its node count.

Most vertices of the plumbing trees are -2 vertices, and a norm-2 vector
is +-1 in two coordinates.  Its candidates skip the class-by-class
enumeration: a +-1 in class A fixes the signature the class of the other
+-1 must have, so one dict from signature to class finds it, and the
few two-in-one-class cases are tested directly.  These candidates are
sorted by a key that reproduces the enumeration's order (descending
lexicographic in the entries read class by class), so both ways give the
same list, element for element, and the same nodes and witnesses.

Neither the placement depth, nor the number of classes, nor the width
of a class costs a Python frame: the search and the class-by-class
enumeration keep explicit stacks, and a class's tuples recurse only
once per nonzero entry, so long chains stay clear of the recursion
limit.

A node budget turns an over-long search into an explicit indeterminate
outcome, never a wrong answer.

Vertices are placed in one fixed depth-first order (placement_order), so
each vertex after the first of its component is placed next to one
already placed.  The order affects speed only, never the verdict.

All arithmetic is on plain integers.
"""

import sys
from dataclasses import dataclass
from enum import Enum
from math import isqrt


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


def _adjacency(gram):
    n = len(gram)
    return [
        frozenset(j for j in range(n) if j != i and gram[i][j] != 0)
        for i in range(n)
    ]


def placement_order(gram) -> list:
    """Order in which the search places vertices.

    Depth-first preorder from the lowest index, neighbours visited in
    ascending index, each further component started at its lowest
    unplaced index.  Every vertex after the first of its component is
    then placed next to an already-placed one, so its dot-product targets
    prune candidates from the start.  Any complete order gives the same
    verdict; the order only affects speed.
    """
    adj = _adjacency(gram)
    placed = [False] * len(gram)
    order = []
    for root in range(len(gram)):
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


class _Searcher:
    def __init__(self, gram, rank, budget=None):
        self.gram = gram
        self.n = len(gram)
        self.rank = rank
        self.order = placement_order(gram)
        self.budget = budget
        self.nodes = 0
        self.exhausted = False

    def embeddings(self):
        """Every completed embedding, in depth-first order.

        frames[d] iterates the candidates for the vertex at depth d and
        placed[d] is the one it proposed last, so the placement depth
        uses no Python frames.  Each placed vector is a node; placing
        vector budget + 1 sets exhausted and ends the search.
        """
        placed = []
        frames = []
        while True:
            depth = len(placed)
            if depth == self.n:
                rows = [None] * self.n
                for slot, vec in zip(self.order, placed):
                    rows[slot] = vec
                yield tuple(rows)
            else:
                vertex = self.order[depth]
                norm = -self.gram[vertex][vertex]
                targets = [-self.gram[vertex][self.order[j]] for j in range(depth)]
                frames.append(iter(self._candidates(placed, norm, targets)))
            # backtrack to the deepest depth with a candidate left
            while frames:
                if len(placed) == len(frames):
                    placed.pop()
                vec = next(frames[-1], None)
                if vec is not None:
                    self.nodes += 1
                    if self.budget is not None and self.nodes > self.budget:
                        self.exhausted = True
                        return
                    placed.append(vec)
                    break
                frames.pop()
            else:
                return

    def _candidates(self, placed, norm, targets):
        """All vectors of the given norm whose dot products with the placed
        vectors are the targets, in canonical form for the placed columns.

        Coordinates are grouped into classes of equal placed column (the
        class signature sig); the entries are chosen class by class, each
        class as a nonincreasing tuple, the untouched class last.  A partial
        choice is kept only if it can still meet every target: the entries
        not yet chosen have squared norm at most the remaining budget, and
        they move dot product j by sum_k sig(k)[j] * x_k, so by
        Cauchy-Schwarz the gap to target j must satisfy
            gap_j**2 <= remaining budget * sum over later classes u of
                        size_u * sig_u[j]**2.
        The right-hand sums are one suffix table per call.  Only partial
        choices that cannot complete are skipped, so the output is exactly
        the unpruned enumeration's, in the same order.

        Class by class, each class's tuples in descending lexicographic
        order, the enumeration lists its output in descending lexicographic
        order of the entries read class by class.  Norm 2 is answered by
        signature lookup instead (_norm_two), which sorts its candidates
        into that order, so it returns the same list.
        """
        # group target coordinates by their column of placed entries
        classes = {}
        for k, sig in enumerate(zip(*placed) if placed else [()] * self.rank):
            classes.setdefault(sig, []).append(k)
        items = sorted(classes.items(), key=lambda kv: kv[0], reverse=True)
        zero_sig = tuple([0] * len(placed))
        # untouched columns last: they take whatever norm is left over
        items.sort(key=lambda kv: kv[0] == zero_sig)
        sigs = [sig for sig, _ in items]
        coords = [cs for _, cs in items]
        if norm == 2:
            return self._norm_two(sigs, coords, targets)
        sizes = [len(cs) for cs in coords]
        cap = isqrt(norm)
        # tails[t][j] = sum over classes u >= t of size_u * sig_u[j]**2
        tails = [[0] * len(targets)]
        for sig, size in zip(reversed(sigs), reversed(sizes)):
            tails.append([w + size * x * x for w, x in zip(tails[-1], sig)])
        tails.reverse()
        last = len(sigs) - 1
        # the untouched class takes only nonnegative entries
        los = [0 if sig == zero_sig else -cap for sig in sigs]
        out = []
        chosen = [None] * len(sigs)
        # stack[i]: the tuples for class i, with the unspent norm and
        # gaps[j] = targets[j] - (dot product with placed[j]) before it
        stack = [(_sorted_tuples(sizes[0], norm, los[0], cap), norm, list(targets))]
        while stack:
            idx = len(stack) - 1
            tuples, budget, gaps = stack[-1]
            sig = sigs[idx]
            rest = tails[idx + 1]
            exact = sig == zero_sig
            for tup, s, q in tuples:
                if exact and q != budget:
                    continue  # untouched columns must exactly finish the norm
                rem_budget = budget - q
                for g, x, w in zip(gaps, sig, rest):
                    g -= x * s
                    if g * g > rem_budget * w:
                        break
                else:
                    break
            else:
                stack.pop()
                continue
            new_gaps = [g - x * s for g, x in zip(gaps, sig)]
            chosen[idx] = tup
            if idx < last:
                stack.append(
                    (_sorted_tuples(sizes[idx + 1], rem_budget, los[idx + 1], cap),
                     rem_budget, new_gaps)
                )
            elif rem_budget == 0 and not any(new_gaps):
                vec = [0] * self.rank
                for cs, tup in zip(coords, chosen):
                    for k, x in zip(cs, tup):
                        vec[k] = x
                out.append(tuple(vec))
        return out

    def _norm_two(self, sigs, coords, targets):
        """_candidates for norm 2, by signature lookup.

        A norm-2 vector is +-1 in two coordinates.  In canonical form a
        single entry of a class is its first coordinate if +1 and its last
        if -1, and an untouched class takes only +1.  With the entries in
        different classes A and B (signs a, b), the targets demand
        a * sig_A + b * sig_B = targets, so A and a fix sig_B and one dict
        lookup finds B.  Two entries in one class are (1, 1, 0, ...),
        (1, 0, ..., -1) or (..., -1, -1), meeting targets equal to
        2 * sig, 0 or -2 * sig; the untouched class takes only (1, 1, 0, ...).

        The general enumeration lists its candidates in descending
        lexicographic order of the entries read class by class.  With the
        two nonzero entries of a candidate at positions p1 < p2 of that
        reading, values v1 and v2, the key (v1, -v1*p1, v2, -v2*p2) sorts
        in that same order (a +1 earlier, or a -1 later, makes the vector
        larger), so the two paths return equal lists.
        """
        untouched = len(sigs) - 1 if not any(sigs[-1]) else None
        index = {sig: c for c, sig in enumerate(sigs)}
        # the class whose negated signature is the key; never the untouched one
        flipped = {
            tuple([-x for x in sig]): c for c, sig in enumerate(sigs) if c != untouched
        }
        starts = [0]
        for cs in coords:
            starts.append(starts[-1] + len(cs))
        found = []  # (order key, coordinate 1, value 1, coordinate 2, value 2)

        def add(c1, i1, v1, c2, i2, v2):
            # v1 at index i1 of class c1, v2 at index i2 of class c2 (a
            # negative index counts from the end), c1 before c2 or i1 < i2
            p1 = starts[c1] + i1 % len(coords[c1])
            p2 = starts[c2] + i2 % len(coords[c2])
            found.append(((v1, -v1 * p1, v2, -v2 * p2), coords[c1][i1], v1, coords[c2][i2], v2))

        for a_idx, sig in enumerate(sigs):
            if a_idx == untouched:
                break
            for a in (1, -1):
                rest = tuple([t - a * x for t, x in zip(targets, sig)])
                for b, b_idx in ((1, index.get(rest)), (-1, flipped.get(rest))):
                    if b_idx is not None and b_idx > a_idx:
                        add(a_idx, 0 if a > 0 else -1, a, b_idx, 0 if b > 0 else -1, b)
        if not any(targets):
            for c, cs in enumerate(coords):
                if len(cs) >= 2:
                    if c == untouched:
                        add(c, 0, 1, c, 1, 1)
                    else:
                        add(c, 0, 1, c, -1, -1)
        elif not any(t % 2 for t in targets):
            half = tuple([t // 2 for t in targets])
            c = index.get(half)
            if c is not None and len(coords[c]) >= 2:
                add(c, 0, 1, c, 1, 1)
            c = flipped.get(half)
            if c is not None and len(coords[c]) >= 2:
                add(c, -2, -1, c, -1, -1)
        found.sort(reverse=True)
        out = []
        for _, k1, v1, k2, v2 in found:
            vec = [0] * self.rank
            vec[k1] = v1
            vec[k2] = v2
            out.append(tuple(vec))
        return out


def find_embedding(gram, rank=None, budget=None) -> SearchResult:
    """Decide embeddability of a negative-definite Gram matrix into (Z^r, -Id).

    Returns FOUND with a verified witness, NONE after exhausting the
    (symmetry-pruned but complete) search space, or INDETERMINATE when the
    node budget runs out.  rank defaults to the dimension of the matrix,
    the rank relevant to the rational-homology-ball obstruction.  Raises
    ValueError for a matrix that is not square and negative definite, or a
    rank below 1.
    """
    r = _check_gram(gram, rank)
    searcher = _Searcher(gram, r, budget)
    witness = next(searcher.embeddings(), None)
    if searcher.exhausted:
        return SearchResult(SearchStatus.INDETERMINATE, None, searcher.nodes)
    if witness is None:
        return SearchResult(SearchStatus.NONE, None, searcher.nodes)
    if not verify_embedding(gram, witness):
        raise AssertionError("search produced a witness that fails verification")
    return SearchResult(SearchStatus.FOUND, witness, searcher.nodes)


def _check_gram(gram, rank=None):
    """Validate the search input; returns the target rank."""
    from .plumbing import is_negative_definite

    n = len(gram)
    for i in range(n):
        if len(gram[i]) != n:
            raise ValueError("Gram matrix is not square")
    if not is_negative_definite(gram):
        # embeddings into -Id exist only for negative-definite forms
        raise ValueError("intersection form is not negative definite")
    r = n if rank is None else int(rank)
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if r > sys.maxsize:
        # the search keeps a list with one slot per coordinate
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


def enumerate_embeddings(gram, rank=None, locally_minimal_only=False) -> list:
    """All embeddings up to self-isometry of the target, canonically presented.

    Intended for small instances (the search collects every completion).
    The stepwise pruning already quotients by most of the symmetry; the
    final canonicalisation removes what it cannot see (columns that are
    negatives of each other), so the returned list has one entry per
    isometry class.
    """
    r = _check_gram(gram, rank)
    seen = {}
    for sol in _Searcher(gram, r).embeddings():
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
    rank = obj["rank"]
    vectors = tuple(tuple(int(x) for x in v) for v in obj["vectors"])
    if any(len(v) != rank for v in vectors):
        raise ValueError("vector length disagrees with declared rank")
    return vectors
