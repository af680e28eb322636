"""Independent oracles for the test suite.

Everything here deliberately avoids the implementation's algorithms: the
determinant is cofactor expansion instead of fraction-free elimination,
the embedding search is plain depth-first over all candidate vectors with
no symmetry pruning, and the partial reduction below re-implements the
move loop without the leaf-flattening step so the intermediate "minimal"
graph can be inspected.
"""

import math
import random

from knotplumb.plumbing import WeightedTree, absorb_zero, blow_down


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


def canonical_candidates(placed, norm, targets, rank):
    """The set of vectors the pruned search must propose after `placed`:
    every v with v.v == norm and v.placed[j] == targets[j], in canonical
    form for the placed columns -- nonincreasing (in coordinate order)
    within each class of coordinates whose placed columns agree, and
    nonnegative on coordinates no placed vector touches."""
    columns = [tuple(p[k] for p in placed) for k in range(rank)]
    out = set()
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
        out.add(v)
    return out


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
