"""Independent oracles for the test suite.

Everything here deliberately avoids the implementation's algorithms: the
determinant is cofactor expansion or fraction-free (Bareiss) elimination
of the whole matrix instead of leaf elimination along the tree, and
definiteness is the leading-minor test, one determinant per minor; leaf
elimination itself has a reference with Fraction pivots, against the
implementation's integer continuants; the inertia is a
congruence diagonalisation; the embedding search is plain depth-first
over all candidate vectors with no symmetry pruning, the column
classes the search keeps incrementally are grouped from scratch, and
reference_candidates lists any vertex's candidates class by class in
the search's order, where the implementation closes gaps first or, for
norm 2, looks signatures up, and sorts; it reads the searcher's classes
(search_classes) but calls none of its candidate code; the partial
reduction below re-implements the move loop without the leaf-flattening
step so the intermediate "minimal" graph can be inspected; and
reference_reduce_tree runs the public moves at the sites reference_sites
finds by a full scan at every step, where the implementation keeps them
move by move, and breaks key ties by reference_ranks, which finds the
centres by eccentricity and orders branches by recursive nested keys,
where the implementation peels leaves.
centroid_isomorphic compares the least preorder serialization rooted at
a centroid, where the implementation peels leaves layer by layer.
closed_form_reference builds the two-iteration centipede from its closed
formulas, where the implementation derives it by the junction rule;
two_iter_parameters derives the quantities those formulas read.
junction_form eliminates the junction rule's tree entry by entry over
the builder's lists, where the implementation (cabling._fold) folds it
from its hooks with no list; fold_mismatches holds the two together over
a range of tuples.
fresh_id, a helper only the tests use, lives here too, as does a JSON
form of a spec (spec_to_json_obj, spec_from_json_obj) that no command
reads or writes.
reference_tree_json encodes a tree by json.dumps of a list of vertex
dicts and a sorted edge list, where the implementation formats the text
itself.

search_gram and enumerate_gram are adapters, not oracles: they run the
implementation's search (lattice._Searcher) on a matrix that is no
plumbing tree's form -- a forest, a support with a cycle, off-diagonal
entries other than 1.  find_embedding and enumerate_embeddings take such
a form too, as its rows and definiteness (diag, off, definite), and the
tests hold them to the adapters there; the adapters stay as the
references that pad each solution before canonicalising it, dense, by
their own matrix_canonical_form and is_locally_minimal (where
enumerate_embeddings canonicalises sparse at the searched width), and
that re-check a witness by verify_embedding.  Definiteness comes from the
leading-minor test, and plain_verify_embedding checks verify_embedding
entry by entry over the whole matrix.  depth_first_search is the
implementation's search too, with every vertex placed in plain
depth-first order where the implementation places heavy vertices last:
the reference that the verdict does not depend on the placement order.

eager_parser is the command's parser as argparse builds it by default,
with every subcommand's parser made and given its arguments up front, by
cli's own define functions: its formatters each size themselves to the
terminal and add_subparsers formats the subcommands' prog, where the
implementation makes only the parser that argparse hands argv, asks the
terminal once and names the prog.
"""

import argparse
import itertools
import json
import math
import random
from math import isqrt
from fractions import Fraction
from itertools import chain

from knotplumb import cli, lattice, plumbing
from knotplumb.cabling import (
    CableTower,
    SurgerySpec,
    _fold,
    _junction_builder,
    _require_two_iter,
    _TreeBuilder,
)
from knotplumb.hjcf import ceil_div
from knotplumb.lattice import SearchResult, SearchStatus, verify_embedding
from knotplumb.plumbing import (
    WeightedTree,
    absorb_zero,
    blow_down,
    flatten_positive_leaf,
    gram_matrix,
)


def cofactor_det(matrix) -> int:
    """Laplace expansion along the first row."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * cofactor_det(minor)
    return total


def bareiss_det(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def leading_principal_minors(matrix) -> list:
    """Determinants of the leading k-by-k blocks, k = 1..n."""
    return [bareiss_det([row[: k + 1] for row in matrix[: k + 1]]) for k in range(len(matrix))]


def minors_negative_definite(matrix) -> bool:
    """Sylvester test: (-1)^k times the k-th leading principal minor > 0."""
    return all(
        (-1) ** k * bareiss_det([row[:k] for row in matrix[:k]]) > 0
        for k in range(1, len(matrix) + 1)
    )


def fraction_forest_elimination(matrix):
    """(det, negative definite) of a symmetric matrix by leaf elimination
    with every pivot a Fraction: the reference for the integer kernel
    plumbing._forest_elimination, which it must match wherever that
    decides.  A leaf of diagonal d joined to p by a lowers d_p by a^2 / d;
    a zero leaf is expanded away with p, det S = -a^2 det(S - {v, p}), and
    makes the form indefinite.  None for a non-square or asymmetric
    matrix, or one whose support has a cycle.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return None
    diag = []
    adj = []
    for i, row in enumerate(matrix):
        nbrs = {j: a for j, a in enumerate(row) if a and j != i}
        if any(matrix[j][i] != a for j, a in nbrs.items()):
            return None
        diag.append(Fraction(row[i]))
        adj.append(nbrs)
    det = Fraction(1)
    negative = True
    left = n
    alive = [True] * n
    leaves = [v for v in range(n) if len(adj[v]) <= 1]
    while leaves:
        v = leaves.pop()
        if not alive[v]:
            continue
        alive[v] = False
        left -= 1
        d = diag[v]
        if adj[v]:
            ((p, a),) = adj[v].items()
            del adj[p][v]
            if d == 0:
                det *= -a * a
                negative = False
                alive[p] = False
                left -= 1
                for u in adj[p]:
                    del adj[u][p]
                    if len(adj[u]) <= 1:
                        leaves.append(u)
                continue
            diag[p] -= a * a / d
            if len(adj[p]) <= 1:
                leaves.append(p)
        det *= d
        negative = negative and d < 0
    if left:
        return None
    return int(det), negative


def signature(matrix) -> tuple:
    """(positive, zero, negative) inertia of a symmetric integer matrix.

    Symmetric congruence diagonalisation over the rationals; exact, so
    usable as an oracle for the index bookkeeping of the calculus moves.
    """
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                zero += 1
                continue
            if m[pivot][pivot] != 0:
                m[k], m[pivot] = m[pivot], m[k]
                for row in m:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                # both diagonals vanish but m[pivot][k] != 0: adding
                # row+column pivot into k makes m[k][k] = 2*m[pivot][k]
                for j in range(n):
                    m[k][j] += m[pivot][j]
                for i in range(n):
                    m[i][k] += m[i][pivot]
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = m[i][k] / d
            if f == 0:
                continue
            for j in range(n):
                m[i][j] -= f * m[k][j]
            for j in range(n):
                m[j][i] -= f * m[j][k]
    return pos, zero, neg


def square_decompositions(m: int) -> tuple:
    """All multisets of positive integers whose squares sum to m, nonincreasing."""
    if m < 1:
        raise ValueError("need a positive integer")

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for k in range(min(cap, math.isqrt(remaining)), 0, -1):
            for rest in rec(remaining - k * k, k):
                yield (k,) + rest

    return tuple(rec(m, math.isqrt(m)))


def render_vector_densely(vec) -> str:
    """lattice.render_vector by a loop over every coordinate."""
    parts = []
    for k, x in enumerate(vec, start=1):
        if x == 0:
            continue
        mag = "" if abs(x) == 1 else str(abs(x))
        parts.append(("-" if x < 0 else ("+" if parts else "")) + mag + f"e{k}")
    return "".join(parts) if parts else "0"


def all_vectors_of_norm(norm, rank):
    """Every v in Z^rank with v.v == norm, no symmetry reduction."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == rank:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        k = 0
        while k * k <= remaining:
            for x in ((k,) if k == 0 else (k, -k)):
                rec(prefix + [x], remaining - k * k)
            k += 1

    rec([], norm)
    return out


def column_classes(placed, rank):
    """The column classes of the placed vectors, grouped from scratch:
    (sig, coordinates) pairs, sig the class's column of placed entries
    and the coordinates ascending, by descending sig with the untouched
    class (all-zero sig) last."""
    classes = {}
    for k, sig in enumerate(zip(*placed) if placed else [()] * rank):
        classes.setdefault(sig, []).append(k)
    items = sorted(classes.items(), reverse=True)
    items.sort(key=lambda item: not any(item[0]))
    return items


def canonical_candidates(placed, norm, targets, rank):
    """The list of vectors the pruned search must propose after `placed`:
    every v with v.v == norm and v.placed[j] == targets[j], in canonical
    form for the placed columns -- nonincreasing (in coordinate order)
    within each class of coordinates whose placed columns agree, and
    nonnegative on coordinates no placed vector touches.

    The list is in the search's order: descending lexicographic in the
    entries read class by class, the classes by descending placed column
    with the untouched class last, each class in ascending coordinate
    order."""
    columns = [tuple(p[k] for p in placed) for k in range(rank)]
    out = []
    for v in all_vectors_of_norm(norm, rank):
        if any(sum(a * b for a, b in zip(v, p)) != t for p, t in zip(placed, targets)):
            continue
        if any(
            columns[k] == columns[l] and v[k] < v[l]
            for k in range(rank)
            for l in range(k + 1, rank)
        ):
            continue
        if any(v[k] < 0 and not any(columns[k]) for k in range(rank)):
            continue
        out.append(v)
    reading = sorted(
        range(rank), key=lambda k: (not any(columns[k]), [-x for x in columns[k]], k)
    )
    return sorted(out, key=lambda v: [v[k] for k in reading], reverse=True)


def naive_find_embedding(gram, rank):
    """First embedding found by unpruned depth-first search, else None."""
    n = len(gram)
    candidates = [all_vectors_of_norm(-gram[i][i], rank) for i in range(n)]

    def rec(placed):
        i = len(placed)
        if i == n:
            return list(placed)
        for vec in candidates[i]:
            ok = True
            for j, prev in enumerate(placed):
                if -sum(a * b for a, b in zip(vec, prev)) != gram[i][j]:
                    ok = False
                    break
            if ok:
                result = rec(placed + [vec])
                if result is not None:
                    return result
        return None

    return rec([])


def plain_verify_embedding(gram, vectors):
    """verify_embedding by the plain n x n check: every entry on and above
    the diagonal against -(v_i . v_j) summed over every coordinate, where
    the implementation reads the nonzero entries and multiplies only
    within the vectors' supports.  ValueError, as there, for a vector
    count other than n or vectors of mixed lengths."""
    n = len(gram)
    if len(vectors) != n:
        raise ValueError(f"{len(vectors)} vectors for a rank-{n} Gram matrix")
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors of mixed lengths")
    return all(
        -sum(x * y for x, y in zip(vectors[i], vectors[j])) == gram[i][j]
        for i in range(n)
        for j in range(i, n)
    )


def gram_rows(gram):
    """The matrix as lattice._Searcher takes a form: its diagonal, and per
    row {column: entry} for each non-zero off-diagonal entry."""
    return (
        [row[i] for i, row in enumerate(gram)],
        [{j: x for j, x in enumerate(row) if x and j != i} for i, row in enumerate(gram)],
    )


def _gram_searcher(gram, rank, budget=None):
    """(target rank, lattice._Searcher on the rows of gram)."""
    if not minors_negative_definite(gram):
        raise ValueError("intersection form is not negative definite")
    r = len(gram) if rank is None else rank
    return r, lattice._Searcher(*gram_rows(gram), r, budget)


def search_gram(gram, rank=None, budget=None):
    """find_embedding on a symmetric integer matrix: the same SearchResult,
    rank defaulting to the dimension."""
    r, searcher = _gram_searcher(gram, rank, budget)
    return _first_embedding(searcher, gram, r)


class _DepthFirstSearcher(lattice._Searcher):
    """lattice._Searcher placing every vertex in plain lattice._depth_first
    order, heavy ones where the walk meets them."""

    @staticmethod
    def _order(diag, off):
        return lattice._depth_first(off)


def depth_first_search(tree, rank=None, budget=None):
    """find_embedding with the vertices placed in plain depth-first order:
    the reference for the verdict's independence of the placement order."""
    diag, off, r = lattice._search_input(tree, rank)
    searcher = _DepthFirstSearcher(diag, off, r, budget)
    return _first_embedding(searcher, gram_matrix(tree), r)


def _first_embedding(searcher, gram, r):
    """The SearchResult of searcher's first embedding at target rank r."""
    witness = next(searcher.embeddings(), None)
    if searcher.exhausted:
        return SearchResult(SearchStatus.INDETERMINATE, None, searcher.nodes, r)
    if witness is None:
        return SearchResult(SearchStatus.NONE, None, searcher.nodes, r)
    result = SearchResult(SearchStatus.FOUND, tuple(witness), searcher.nodes, r)
    if not verify_embedding(gram, result.witness):
        raise AssertionError("search produced a witness that fails verification")
    return result


def enumerate_gram(gram, rank=None, locally_minimal_only=False):
    """enumerate_embeddings on a symmetric integer matrix, its classes dense:
    each solution padded to the full rank first, then canonicalised."""
    r, searcher = _gram_searcher(gram, rank)
    seen = set()
    for sol in searcher.embeddings():
        sol = lattice._dense(sol, r)
        if not locally_minimal_only or is_locally_minimal(sol):
            seen.add(matrix_canonical_form(sol))
    return sorted(seen)


def matrix_canonical_form(vectors) -> tuple:
    """Canonical representative of dense vectors under self-isometries of
    the target, the signed permutations of coordinates, acting on the
    embedding matrix as column sign flips and column swaps: flip each
    column so its first nonzero entry is positive, then sort the columns
    descending, zero columns included.  Rows (the vertices) stay put."""
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
    """Every coordinate of the target is hit by some dense vector."""
    if not vectors:
        return True
    return all(any(v[k] != 0 for v in vectors) for k in range(len(vectors[0])))


def sorted_tuples(size, budget, lo, hi):
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
                for rest, s, q in sorted_tuples(j, budget, lo, -1):
                    yield zeros + rest, s, q
            continue
        sq = x * x
        if sq > budget:
            continue
        for rest, s, q in sorted_tuples(size - 1, budget - sq, lo, min(hi, x)):
            yield (x,) + rest, s + x, q + sq


def search_classes(searcher):
    """The searcher's column classes in coordinate order, the untouched
    class (if any) last, read off its owner table."""
    out, k = [], 0
    while k < searcher.rank:
        out.append(searcher.owner[k])
        k = out[-1].hi
    return out


def reference_candidates(searcher, depth):
    """lattice._Searcher._candidates by the class-by-class enumeration
    that it replaced, on the searcher's state at this depth.

    All vectors for the vertex at this depth: its norm, dot products
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
    order.  Every norm, 2 included, is answered this way.
    """
    norm = searcher.norms[depth]
    classes = search_classes(searcher)
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
        tuples = sorted_tuples(cls.hi - cls.lo, budget, -cap if cls.sig else 0, cap)
        return tuples, budget, gaps

    last = len(classes) - 1
    out = []
    chosen = [None] * len(classes)
    stack = [frame(0, norm, dict(searcher.links[depth]))]
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


def contract_junctions(tree: WeightedTree) -> WeightedTree:
    """The reduction loop without leaf flattening: blow down -1's of
    valence 2 with negative neighbours and absorb valence-2 zeros."""
    t = tree
    while True:
        v = next(
            (
                u
                for u in t.vertices()
                if t.weight(u) == -1
                and t.valence(u) == 2
                and all(t.weight(w) <= -1 for w in t.neighbors(u))
            ),
            None,
        )
        if v is not None:
            t = blow_down(t, v)
            continue
        v = next(
            (u for u in t.vertices() if t.weight(u) == 0 and t.valence(u) == 2),
            None,
        )
        if v is not None:
            t = absorb_zero(t, v)
            continue
        return t


def _nested_key(tree, v, parent):
    """(height, weight, sorted child keys) of the branch at v away from
    parent, built recursively: the order of rooted subtrees that
    _canonical_ranks' peel ids give."""
    kids = sorted(_nested_key(tree, c, v) for c in tree.neighbors(v) if c != parent)
    return (kids[-1][0] + 1 if kids else 0, tree.weight(v), tuple(kids))


def _eccentricity(tree, v):
    """The greatest distance from v, by breadth-first search."""
    dist = {v: 0}
    queue = [v]
    for u in queue:
        for w in tree.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return max(dist.values())


def reference_ranks(tree: WeightedTree) -> dict:
    """The canonical numbering reduce_tree breaks key ties by: the centres,
    the vertices of least eccentricity, by their nested keys (each away
    from the other centre), then every other vertex breadth first, the
    children of each by (nested key, vertex id)."""
    ecc = {v: _eccentricity(tree, v) for v in tree.vertices()}
    least = min(ecc.values())
    centres = [v for v in ecc if ecc[v] == least]
    parent = {c: next((d for d in centres if d != c), None) for c in centres}
    order = sorted(centres, key=lambda c: (_nested_key(tree, c, parent[c]), c))
    for v in order:
        kids = [c for c in tree.neighbors(v) if c != parent[v]]
        for c in kids:
            parent[c] = v
        order += sorted(kids, key=lambda c: (_nested_key(tree, c, v), c))
    return {v: r for r, v in enumerate(order)}


def reference_sites(tree: WeightedTree) -> tuple:
    """The sites of reduce_tree's three move classes in tree, by a full
    scan each, in ascending id: positive leaves next to a -1 (flatten),
    -1's of valence 2 between negative weights (blow-down), and 0's of
    valence 2 (absorb)."""
    vs = tree.vertices()
    return (
        [
            v
            for v in vs
            if tree.valence(v) == 1
            and tree.weight(v) >= 1
            and tree.weight(next(iter(tree.neighbors(v)))) == -1
        ],
        [
            v
            for v in vs
            if tree.weight(v) == -1
            and tree.valence(v) == 2
            and all(tree.weight(u) <= -1 for u in tree.neighbors(v))
        ],
        [v for v in vs if tree.weight(v) == 0 and tree.valence(v) == 2],
    )


def reference_reduce_tree(tree: WeightedTree) -> WeightedTree:
    """The reduction loop of plumbing.reduce_tree through the public moves:
    at every step the first class with a site (reference_sites, a full
    scan), and in it the site of least key, its weight and its least
    neighbour's.  Sites tied on the key are taken by least rank: at the
    first tie the tree is numbered (reference_ranks), and from then on a
    flatten's chain takes the next numbers outward and an absorb's merged
    vertex the lesser number of the two it merges."""
    t, ranks = tree, None
    moves = (flatten_positive_leaf, blow_down, absorb_zero)
    while True:
        for sites, move in zip(reference_sites(t), moves):
            if sites:
                break
        else:
            return t
        key = {v: (t.weight(v), min(t.weight(u) for u in t.neighbors(v))) for v in sites}
        least = min(key.values())
        tied = [v for v in sites if key[v] == least]
        if len(tied) > 1 and ranks is None:
            ranks = reference_ranks(t)
            fresh = itertools.count(len(t))
        v = min(tied, key=lambda v: ranks[v]) if len(tied) > 1 else tied[0]
        if ranks is not None and move is absorb_zero:
            a, b = t.neighbors(v)
            ranks[min(a, b)] = min(ranks[a], ranks[b])
        moved = move(t, v)
        if ranks is not None:
            # a flatten's chain: ids above the rest, or the leaf's own id
            old = t.weights
            created = sorted(x for x in moved.vertices() if x == v or x not in old)
            ranks.update(zip(created, fresh))
        t = moved


def relabel(tree: WeightedTree, mapping) -> WeightedTree:
    """Copy of the tree with vertex ids renamed by the injective mapping."""
    return WeightedTree(
        {mapping[v]: w for v, w in tree.weights.items()},
        [(mapping[a], mapping[b]) for a, b in tree.edges],
    )


def reference_tree_json(tree: WeightedTree) -> str:
    """WeightedTree.to_json's text, by json.dumps of the object it stands for."""
    obj = {
        "vertices": [{"id": v, "weight": tree.weight(v)} for v in tree.vertices()],
        "edges": [list(e) for e in sorted(tree.edges)],
    }
    return json.dumps(obj)


def fresh_id(tree: WeightedTree) -> int:
    """The least id above every vertex of tree: the one a blow-up gives
    the -1 it adds."""
    return max(tree.vertices()) + 1


def brute_force_isomorphic(t1: WeightedTree, t2: WeightedTree) -> bool:
    """Weight-preserving tree isomorphism by trying every vertex bijection."""
    v1, v2 = t1.vertices(), t2.vertices()
    if len(v1) != len(v2):
        return False
    edges, target = t1.edges, {frozenset(e) for e in t2.edges}
    for image in itertools.permutations(v2):
        f = dict(zip(v1, image))
        if all(t1.weight(v) == t2.weight(f[v]) for v in v1) and {
            frozenset((f[a], f[b])) for a, b in edges
        } == target:
            return True
    return False


def _breadth_first(tree, root):
    """The vertices breadth first from root, and each one's parent (root's
    None)."""
    parent, order = {root: None}, [root]
    for v in order:
        for c in tree.neighbors(v):
            if c != parent[v]:
                parent[c] = v
                order.append(c)
    return order, parent


def _centroids(tree):
    """The one or two vertices whose removal leaves the smallest largest
    component, from subtree sizes in one pass."""
    order, parent = _breadth_first(tree, tree.vertices()[0])
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    heaviest = {
        v: max([len(order) - size[v]] + [size[c] for c in tree.neighbors(v) if c != parent[v]])
        for v in order
    }
    best = min(heaviest.values())
    return [v for v in order if heaviest[v] == best]


def _flat_encoding(tree, root):
    """Preorder serialization of the tree rooted at root: a vertex's weight
    and child count, then its children's serializations in sorted order.

    A flat tuple of integers, so building and comparing it never recurses,
    however deep the tree.  The child counts make it decode uniquely, so
    two rooted trees get equal serializations iff they are isomorphic.
    """
    order, parent = _breadth_first(tree, root)
    enc = {}
    for v in reversed(order):
        kids = sorted(enc.pop(c) for c in tree.neighbors(v) if c != parent[v])
        enc[v] = tuple(chain((tree.weight(v), len(kids)), *kids))
    return enc[root]


def centroid_canonical_form(tree: WeightedTree):
    """Label-independent encoding: equal iff trees are weight-isomorphic.

    The least flat serialization (_flat_encoding) rooted at a centroid; it
    is compared only for equality.
    """
    return min(_flat_encoding(tree, c) for c in _centroids(tree))


def centroid_isomorphic(t1: WeightedTree, t2: WeightedTree) -> bool:
    """Weight-preserving tree isomorphism."""
    if len(t1) != len(t2):
        return False
    if sorted(t1.weights.values()) != sorted(t2.weights.values()):
        return False
    return centroid_canonical_form(t1) == centroid_canonical_form(t2)


def catalogue_count(lengths, rank) -> int:
    """Number of embedding classes of a disjoint union of -2-chains,
    predicted from the catalogue of building blocks.

    Each component embeds as a staircase (k+1 coordinates); a length-3
    component may instead use the special embedding (3 coordinates); and
    length-1 components may pair up, a matched pair sharing 2 coordinates.
    Components are labelled, so distinct pairings and distinct choices of
    which 3-chains go special are distinct classes; coordinate budgets
    must fit inside the target rank.
    """
    singles = [i for i, k in enumerate(lengths) if k == 1]
    threes = sum(1 for k in lengths if k == 3)
    base = sum(k + 1 for k in lengths if k not in (1, 3))

    def matchings(s, m):
        # ways to choose m disjoint pairs from s labelled items
        out = 1
        items = s
        for _ in range(m):
            out *= items * (items - 1) // 2
            items -= 2
        return out // math.factorial(m)

    total = 0
    for specials in range(threes + 1):
        ways_three = math.comb(threes, specials)
        coords_three = specials * 3 + (threes - specials) * 4
        for m in range(len(singles) // 2 + 1):
            coords_single = 2 * m + 2 * (len(singles) - 2 * m)
            if base + coords_three + coords_single <= rank:
                total += ways_three * matchings(len(singles), m)
    return total


def random_tree(rng: random.Random, max_vertices=12, weights=(-4, 3)) -> WeightedTree:
    """Random tree with arbitrary ids and weights drawn from the given range."""
    n = rng.randint(1, max_vertices)
    ids = rng.sample(range(1000), n)
    lo, hi = weights
    weight_map = {v: rng.randint(lo, hi) for v in ids}
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    return WeightedTree(weight_map, edges)


def two_iter_parameters(spec) -> dict:
    """Derived quantities of a two-iteration spec in the +-1 congruence families.

    Returns p1, a1, k1, p2, a2, k2 (= ceil(a2/p2) - 1), the congruence sign
    of a2 modulo p2 (-1 is preferred when p2 = 2, where both hold), the
    reduced framing N, and l = k2 - 1 - p1*a1 (the number of -2's left at
    the head of Torso 2; l = -1 is the algebraic-only boundary case).
    Raises UnsupportedTowerError, as cabling._require_two_iter does, on any
    other tower, or one not algebraic.
    """
    _require_two_iter(spec)
    (p1, a1), (p2, a2) = spec.knot.pairs
    k2 = ceil_div(a2, p2) - 1
    return {
        "p1": p1,
        "a1": a1,
        "k1": (a1 - 1) // p1,
        "p2": p2,
        "a2": a2,
        "k2": k2,
        "sign": -1 if a2 % p2 == p2 - 1 else +1,
        "N": spec.reduced_framing,
        "l": k2 - 1 - p1 * a1,
    }


def closed_form_reference(par) -> _TreeBuilder:
    """The builder of the reduced centipede graph of a two-iteration surgery,
    given its two_iter_parameters with N >= 1, written from the closed
    formulas (see closed_form_two_iter): the reference that the junction
    rule's closed_form_two_iter must equal in ids, weights, roles and form,
    the form plumbing._eliminate's over its lists, checked |det| = n.
    Each stretch of -2's the formulas name is one run entry, the legs'
    and torso 2's inner ones too, where the junction rule makes runs only
    of each torso's leading -2's and the tail: the two forms take
    different steps, and a tail of N - 1 -2's is one step in both."""
    p1, k1, p2, sign, n_red, l = (
        par["p1"],
        par["k1"],
        par["p2"],
        par["sign"],
        par["N"],
        par["l"],
    )
    build = _TreeBuilder()

    def twos(role, attach, count):
        """A run of count -2's hung off attach; attach itself if none."""
        return build.add(-2, role, attach, count) if count else attach

    low = -3 if sign == -1 else -(p2 + 1)  # torso 2's vertex after its l -2's
    prev = twos("torso1", None, k1 - 1)
    prev = build.add(-(p1 + 1), "torso1", prev)
    # at l = -1 the low vertex of torso 2 merges into node 1
    prev = node1 = build.add(-2 if l >= 0 else low, "node1", prev)
    twos("leg1", node1, p1 - 1)
    if l >= 0:
        prev = build.add(low, "torso2", twos("torso2", node1, l))
    if sign == -1:
        prev = twos("torso2", prev, p2 - 2)
    node2 = build.add(-2, "node2", prev)
    if sign == -1:
        build.add(-p2, "leg2", node2)
    else:
        twos("leg2", node2, p2 - 1)
    twos("tail", node2, n_red - 1)
    build.form = plumbing._eliminate(build.weight, build.parent, build.runs)
    n = n_red + p2 * par["a2"]
    if abs(build.form[0]) != n:
        raise AssertionError(f"closed formulas' determinant {build.form[0]} is not +-{n}")
    return build


def junction_form(spec) -> tuple:
    """(det, negative definite, vertex count) of the junction rule's tree
    (N >= 1) by plumbing._eliminate and vertices() on the lists of
    _junction_builder: the reference for cabling._fold."""
    build = _junction_builder(spec, False, None)
    return (*plumbing._eliminate(build.weight, build.parent, build.runs), build.vertices())


def fold_mismatches(tuples) -> list:
    """The two-iteration tuples (p1, a1, p2, a2, n), N >= 1, on which
    cabling._fold differs from junction_form."""
    specs = (SurgerySpec(CableTower((t[:2], t[2:4])), t[4]) for t in tuples)
    return [spec for spec in specs if _fold(spec) != junction_form(spec)]


def spec_to_json_obj(spec) -> dict:
    """A spec as {"pairs": [[p, a], ...], "n": n}, a JSON form no command
    reads or writes."""
    return {"pairs": [list(pair) for pair in spec.knot.pairs], "n": spec.n}


def spec_from_json_obj(obj):
    """The spec of spec_to_json_obj's form, checked by its constructors."""
    return SurgerySpec(CableTower(tuple(tuple(p) for p in obj["pairs"])), obj["n"])


def eager_parser():
    parser = argparse.ArgumentParser(
        prog="knotplumb",
        description="Plumbing graphs and the lattice-embedding obstruction "
        "for integral surgeries on algebraic iterated torus knots.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, define in (
        ("contfrac", "negative continued fractions", cli._define_contfrac),
        ("graph", "build a plumbing graph for a surgery", cli._define_graph),
        ("embed", "decide lattice embeddability", cli._define_embed),
        ("sweep", "sweep over a tuple range", cli._define_sweep),
        ("audit", "audit over a tuple range", cli._define_audit),
    ):
        define(sub.add_parser(name, help=text))
    return parser
