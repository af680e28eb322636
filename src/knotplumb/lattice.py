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

A node budget turns an over-long search into an explicit indeterminate
outcome, never a wrong answer.

Vertices are placed in one fixed depth-first order (placement_order), so
each vertex after the first of its component is placed next to one
already placed.  The order affects speed only, never the verdict.

All arithmetic is on plain integers.
"""

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

    def __bool__(self):
        return self.status is SearchStatus.FOUND


class BudgetExceeded(Exception):
    pass


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
    [lo, hi] and sum of squares <= budget; yields (tuple, sum, sumsq)."""
    if size == 0:
        yield (), 0, 0
        return
    for x in range(hi, lo - 1, -1):
        sq = x * x
        if sq > budget:
            continue
        for rest, s, q in _sorted_tuples(size - 1, budget - sq, lo, min(hi, x)):
            yield (x,) + rest, s + x, q + sq


class _Searcher:
    def __init__(self, gram, rank, order, budget, collect=False):
        self.gram = gram
        self.n = len(gram)
        self.rank = rank
        self.order = order
        self.budget = budget
        self.collect = collect
        self.nodes = 0
        self.solutions = []
        self.witness = None

    def run(self):
        self._extend([])
        return self.solutions if self.collect else self.witness

    def _tick(self):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceeded

    def _extend(self, placed):
        depth = len(placed)
        if depth == self.n:
            rows = [None] * self.n
            for slot, vec in zip(self.order, placed):
                rows[slot] = vec
            if self.collect:
                self.solutions.append(tuple(rows))
                return False
            self.witness = tuple(rows)
            return True
        vertex = self.order[depth]
        norm = -self.gram[vertex][vertex]
        targets = [-self.gram[vertex][self.order[j]] for j in range(depth)]
        for vec in self._candidates(placed, norm, targets):
            self._tick()
            if self._extend(placed + [vec]):
                return True
        return False

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
        sizes = [len(cs) for cs in coords]
        cap = isqrt(norm)
        # tails[t][j] = sum over classes u >= t of size_u * sig_u[j]**2
        tails = [[0] * len(targets)]
        for sig, size in zip(reversed(sigs), reversed(sizes)):
            tails.append([w + size * x * x for w, x in zip(tails[-1], sig)])
        tails.reverse()
        out = []

        def rec(idx, budget, gaps, chosen):
            # gaps[j] = targets[j] - (dot product with placed[j] so far)
            if idx == len(sigs):
                if budget == 0 and not any(gaps):
                    vec = [0] * self.rank
                    for cs, tup in zip(coords, chosen):
                        for k, x in zip(cs, tup):
                            vec[k] = x
                    out.append(tuple(vec))
                return
            sig = sigs[idx]
            size = sizes[idx]
            rest = tails[idx + 1]
            is_zero = sig == zero_sig
            lo = 0 if is_zero else -cap
            for tup, s, q in _sorted_tuples(size, budget, lo, cap):
                if is_zero and q != budget:
                    continue  # untouched columns must exactly finish the norm
                rem_budget = budget - q
                for g, x, w in zip(gaps, sig, rest):
                    g -= x * s
                    if g * g > rem_budget * w:
                        break
                else:
                    new_gaps = [g - x * s for g, x in zip(gaps, sig)]
                    rec(idx + 1, rem_budget, new_gaps, chosen + [tup])

        rec(0, norm, list(targets), [])
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
    searcher = _Searcher(gram, r, placement_order(gram), budget)
    try:
        witness = searcher.run()
    except BudgetExceeded:
        return SearchResult(SearchStatus.INDETERMINATE, None, searcher.nodes)
    if witness is None:
        return SearchResult(SearchStatus.NONE, None, searcher.nodes)
    if not verify_embedding(gram, witness):
        raise AssertionError("search produced a witness that fails verification")
    return SearchResult(SearchStatus.FOUND, witness, searcher.nodes)


def _check_gram(gram, rank):
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
    searcher = _Searcher(gram, r, placement_order(gram), None, collect=True)
    seen = {}
    for sol in searcher.run():
        if locally_minimal_only and not is_locally_minimal(sol):
            continue
        seen[matrix_canonical_form(sol)] = True
    return sorted(seen)


# -- presentation ------------------------------------------------------------


def render_vector(vec, symbol="e") -> str:
    """Human-readable form such as 'e1-e2+2e5'; the zero vector renders as '0'."""
    parts = []
    for k, x in enumerate(vec, start=1):
        if x == 0:
            continue
        mag = "" if abs(x) == 1 else str(abs(x))
        parts.append(("-" if x < 0 else ("+" if parts else "")) + mag + f"{symbol}{k}")
    return "".join(parts) if parts else "0"


def embedding_to_json_obj(vectors) -> dict:
    return {"rank": len(vectors[0]) if vectors else 0, "vectors": [list(v) for v in vectors]}


def embedding_from_json_obj(obj) -> tuple:
    rank = obj["rank"]
    vectors = tuple(tuple(int(x) for x in v) for v in obj["vectors"])
    if any(len(v) != rank for v in vectors):
        raise ValueError("vector length disagrees with declared rank")
    return vectors
