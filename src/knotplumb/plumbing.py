"""Weighted plumbing trees, their intersection forms, and calculus moves.

A plumbing tree is a finite tree with an integer weight on each vertex.  Its
intersection form is the symmetric matrix with the weights on the diagonal
and a 1 in entry (i, j) exactly when i and j are adjacent.  The moves
implemented here (blow-down of a (-1)-vertex of valence <= 2, its inverse
blow-ups, absorption of a 0-weighted valence-2 vertex, and the composite
move flattening a positive leaf next to a -1 into a chain of -2's) all
preserve the boundary 3-manifold and hence the absolute value of the
determinant of the intersection form.

Trees are immutable values: every move returns a new tree, so instances can
be shared freely between worker processes.  All linear algebra is exact
integer arithmetic on integer matrices.

The determinant and the negative-definiteness test (form_invariants, run
once per tree and kept on it) take the tree's own route: a leaf is
eliminated into its neighbour by a Schur complement (the neighbour's
diagonal drops by a^2/d for a leaf of diagonal d joined by a), leaf after
leaf toward the rest, O(n) steps in all.  This is the continued-fraction
bookkeeping of Neumann's plumbing calculus, kept in integers: each diagonal
is a numerator over a positive denominator, the numerator being the
continuant (the determinant, up to sign) of the subtree eliminated into
that vertex and the denominator the product of its children's.  A leaf
whose diagonal has become 0 cannot be a pivot; it is expanded away with its
neighbour instead, det S = -a^2 det(S - {leaf, neighbour}), and the form is
then indefinite.  A matrix whose off-diagonal support has a cycle, or that
is not symmetric, has no leaf order to follow and takes one fraction-free
(Bareiss) pass instead, which gives both answers.  Entries must be ints: a
float, Fraction or bool entry raises TypeError instead of being truncated.
"""

import json
from itertools import chain, compress


class InvalidMoveError(ValueError):
    """A calculus move was requested at a vertex where it does not apply."""


class WeightedTree:
    """Immutable finite tree with integer vertex weights.

    Vertices are arbitrary integer ids, each given once with its weight,
    as a dict or as (id, weight) pairs.  The edge set must form a tree
    (connected and acyclic) on them; the empty tree is disallowed.  This
    constructor is the one check of a tree from outside input.
    """

    __slots__ = ("_weights", "_edges", "_adj", "_form")

    def __init__(self, weights, edges):
        w = {}
        for v, wt in weights.items() if isinstance(weights, dict) else weights:
            # type(x) is int: a bool (JSON true) must not pass for 1
            if type(v) is not int or type(wt) is not int:
                raise TypeError("vertex ids and weights must be integers")
            if v in w:  # a dict would keep the last weight only
                raise ValueError(f"duplicate vertex id {v}")
            w[v] = wt
        if not w:
            raise ValueError("the empty tree is not a plumbing")
        es = set()
        adj = {v: set() for v in w}
        for a, b in edges:
            # True or 1.0 would find vertex 1 and be stored as an end
            if type(a) is not int or type(b) is not int:
                raise TypeError("edge ends must be integer vertex ids")
            if a not in w or b not in w:
                raise ValueError(f"edge ({a},{b}) references a missing vertex")
            if a == b:
                raise ValueError(f"loop edge at vertex {a}")
            e = (a, b) if a < b else (b, a)
            if e in es:
                raise ValueError(f"duplicate edge {e}")
            es.add(e)
            adj[a].add(b)
            adj[b].add(a)
        if len(es) != len(w) - 1:
            raise ValueError("edge count does not match a tree")
        # connectivity: |E| = |V| - 1 plus connectedness <=> tree
        seen = set()
        stack = [next(iter(w))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        if len(seen) != len(w):
            raise ValueError("graph is not connected")
        self._weights = w
        self._edges = frozenset(es)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._form = None

    @classmethod
    def _trusted(cls, weights, edges, adj):
        """A tree from parts known to form one, checked and copied not at
        all: weights a dict, edges a frozenset of (low, high) pairs, adj a
        dict of frozensets, none of them shared with a caller that might
        mutate it.  The calculus moves build their results this way."""
        tree = object.__new__(cls)
        tree._weights = weights
        tree._edges = edges
        tree._adj = adj
        tree._form = None
        return tree

    # -- basic accessors ---------------------------------------------------

    @property
    def weights(self) -> dict:
        return dict(self._weights)

    @property
    def edges(self) -> frozenset:
        return self._edges

    def vertices(self) -> list:
        return sorted(self._weights)

    def weight(self, v: int) -> int:
        return self._weights[v]

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def valence(self, v: int) -> int:
        return len(self._adj[v])

    def __len__(self):
        return len(self._weights)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedTree)
            and self._weights == other._weights
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((tuple(sorted(self._weights.items())), self._edges))

    def __repr__(self):
        ws = ", ".join(f"{v}:{w}" for v, w in sorted(self._weights.items()))
        return f"WeightedTree({{{ws}}}, {sorted(self._edges)})"

    def fresh_id(self) -> int:
        return max(self._weights) + 1

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "vertices": [{"id": v, "weight": self._weights[v]} for v in self.vertices()],
            "edges": [list(e) for e in sorted(self._edges)],
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "WeightedTree":
        obj = json.loads(text)
        return cls([(v["id"], v["weight"]) for v in obj["vertices"]], obj["edges"])

    def to_dot(self, roles=None) -> str:
        """GraphViz rendering with weights as labels.

        roles, if given, maps vertex ids to segment names (torso/leg/node/
        tail) which are attached as a node attribute.
        """
        lines = ["graph plumbing {", "  node [shape=circle];"]
        for v in self.vertices():
            attrs = [f'label="{self._weights[v]}"']
            if roles and v in roles:
                attrs.append(f'role="{roles[v]}"')
            lines.append(f"  {v} [{', '.join(attrs)}];")
        for a, b in sorted(self._edges):
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines)


# -- intersection form and exact linear algebra ----------------------------


def gram_matrix(tree: WeightedTree) -> list:
    """Intersection form of the plumbing, rows/columns in ascending vertex id."""
    order = tree.vertices()
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(order):
        m[i][i] = tree.weight(v)
    for a, b in tree.edges:
        i, j = index[a], index[b]
        m[i][j] = 1
        m[j][i] = 1
    return m


def form_invariants(tree: WeightedTree) -> tuple:
    """(det, negative definite) of the tree's intersection form, by
    _eliminate on its own edges; computed once and kept on the tree."""
    if tree._form is None:
        index = {v: i for i, v in enumerate(tree._weights)}
        adj = [dict.fromkeys([index[u] for u in tree._adj[v]], 1) for v in tree._weights]
        tree._form = _eliminate(list(tree._weights.values()), adj)
    return tree._form


def _forest_elimination(matrix):
    """_eliminate on a matrix; None, having decided nothing, if it is not
    square and symmetric or its support has a cycle.  Every entry read --
    the diagonal and the non-zero entries -- must be an int (type(x) is
    int, so not a bool), else TypeError: a float or Fraction entry has no
    exact integer determinant to return."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return None
    cols = range(n)
    num = []
    adj = []
    for i, row in enumerate(matrix):
        nbrs = {j: row[j] for j in compress(cols, row)}
        nbrs.pop(i, None)
        num.append(row[i])
        adj.append(nbrs)
    if not {int}.issuperset(map(type, chain(num, *map(dict.values, adj)))):
        raise TypeError("matrix entries must be integers")
    for i, nbrs in enumerate(adj):
        for j, a in nbrs.items():
            if adj[j].get(i) != a:
                return None
    return _eliminate(num, adj)


def _eliminate(num, adj):
    """(det, negative definite) of the symmetric matrix with integer
    diagonal num and non-zero off-diagonal entries adj[i] = {j: a}, by leaf
    elimination in integers; None if the support has a cycle.  Consumes both.

    Each vertex keeps its Schur-complemented diagonal as an integer
    numerator over a positive integer denominator, at first its entry
    over 1.  A leaf v with pivot d/q and one neighbour p, joined by the
    entry a, is eliminated toward the rest: if d != 0 the pivot d/q goes
    into the determinant and p's diagonal drops by a^2 q / d, that is
    num[p] <- num[p] d - a^2 q den[p] and den[p] <- den[p] d, both
    negated when d < 0; if d == 0 the expansion det S = -a^2 det(S - {v, p})
    removes v and p together.  An isolated vertex contributes its pivot.
    num[p] is then, up to sign, the determinant of the subtree eliminated
    into p (a continuant of the plumbing calculus) and den[p] the product
    of its children's, so no entry outgrows the minors it stands for and
    no gcd is taken.  The determinant is the product of the pivots,
    divided out once at the end.  The matrix is negative definite exactly
    when every pivot numerator is negative and the zero rule never fired.
    O(n) integer steps.
    """
    n = len(num)
    den = [1] * n
    det_num = det_den = 1
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
        d = num[v]
        q = den[v]
        if adj[v]:
            ((p, a),) = adj[v].items()
            del adj[p][v]
            if d == 0:
                det_num *= -a * a
                negative = False
                alive[p] = False
                left -= 1
                for u in adj[p]:
                    del adj[u][p]
                    if len(adj[u]) <= 1:
                        leaves.append(u)
                continue
            drop = a * a * q * den[p]
            if d > 0:
                num[p] = num[p] * d - drop
                den[p] *= d
            else:
                num[p] = drop - num[p] * d
                den[p] *= -d
            if len(adj[p]) <= 1:
                leaves.append(p)
        det_num *= d
        det_den *= q
        negative = negative and d < 0
    if left:
        return None
    det, rest = divmod(det_num, det_den)
    if rest:
        raise AssertionError("leaf elimination left a fractional determinant")
    return det, negative


def _bareiss(matrix):
    """(det, negative definite) of a square integer matrix by one
    fraction-free (Bareiss) pass, swapping in a lower row at a zero pivot;
    ValueError unless square, TypeError unless every entry is an int
    (type(x) is int, so not a bool).  Until the first swap, pivot k is the
    k-th leading principal minor, so a symmetric matrix is negative
    definite exactly when no swap was needed and the pivots alternate in
    sign, negative first (Sylvester's criterion).  O(n^3)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if any(type(x) is not int for row in matrix for x in row):
        raise TypeError("matrix entries must be integers")
    m = [list(row) for row in matrix]
    sign = prev = 1
    negative = True
    for k in range(n):
        if m[k][k] == 0:
            negative = False
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, False
        pivot = m[k][k]
        negative = negative and (pivot > 0 if k % 2 else pivot < 0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * prev, negative


def det_exact(matrix) -> int:
    """Exact determinant of a square integer matrix.

    A symmetric matrix whose off-diagonal support is a forest -- the
    intersection form of any plumbing, or a disjoint union of them -- is
    done by integer leaf elimination (_forest_elimination) in O(n) steps;
    any other, one with a cycle in its support or an asymmetric one, by
    one Bareiss pass (_bareiss), O(n^3).  Raises TypeError if an entry
    either path reads is not an int (a bool, float or Fraction), rather
    than truncating it, and ValueError if the matrix is not square.
    """
    return (_forest_elimination(matrix) or _bareiss(matrix))[0]


def is_negative_definite(matrix) -> bool:
    """Whether a symmetric integer matrix is negative definite.

    A forest-supported matrix is decided by integer leaf elimination
    (_forest_elimination) in O(n) steps: definite exactly when every
    pivot is negative and no zero pivot had to be expanded away; any
    other symmetric matrix (a cycle in its support) by the Sylvester test
    on the pivots of det_exact's Bareiss pass (_bareiss), O(n^3).  Raises
    TypeError if an entry read is not an int, and ValueError if the matrix
    is not square or not symmetric.
    """
    result = _forest_elimination(matrix)
    if result is None:
        result = _bareiss(matrix)
        if any(row[j] != matrix[j][i] for i, row in enumerate(matrix) for j in range(i)):
            raise ValueError("matrix is not symmetric")
    return result[1]


# -- calculus moves ---------------------------------------------------------


def _edge(a, b):
    return (a, b) if a < b else (b, a)


def _rewired(tree, weights, cut, join):
    """The move result with the given weights and tree's edges less cut
    plus join (sets of (low, high) pairs), by the trusted constructor: a
    move on a tree yields a tree.  Only the ends of cut and joined edges
    get new adjacency; an end missing from weights is a deleted vertex."""
    adj = dict(tree._adj)
    for a, b in cut:
        for x, y in ((a, b), (b, a)):
            if x in weights:
                adj[x] = adj[x] - {y}
            else:
                adj.pop(x, None)
    for a, b in join:
        adj[a] = adj.get(a, frozenset()) | {b}
        adj[b] = adj.get(b, frozenset()) | {a}
    return WeightedTree._trusted(weights, (tree._edges - cut) | join, adj)


def blow_down(tree: WeightedTree, v: int) -> WeightedTree:
    """Remove a (-1)-vertex of valence <= 2, raising its neighbours by one.

    If the vertex had two neighbours they become adjacent.  Preserves the
    boundary and |det| of the intersection form.
    """
    if tree.weight(v) != -1:
        raise InvalidMoveError(f"vertex {v} has weight {tree.weight(v)}, not -1")
    ns = sorted(tree.neighbors(v))
    if len(ns) > 2:
        raise InvalidMoveError(f"vertex {v} has valence {len(ns)} > 2")
    if len(tree) == 1:
        raise InvalidMoveError("cannot blow down the last vertex")
    weights = tree.weights
    del weights[v]
    for u in ns:
        weights[u] += 1
    join = {tuple(ns)} if len(ns) == 2 else set()
    return _rewired(tree, weights, {_edge(v, u) for u in ns}, join)


def blow_up(tree: WeightedTree, site) -> WeightedTree:
    """Inverse of blow_down at a vertex or an edge.

    Vertex site v: attach a fresh (-1)-leaf to v and lower v's weight by 1.
    Edge site (a, b): replace the edge by a fresh (-1)-vertex adjacent to
    both ends, lowering each end's weight by 1.  A free blow-up would
    disconnect the tree and is rejected.
    """
    if site == "free":
        raise InvalidMoveError("free blow-ups are rejected: trees must stay connected")
    new = tree.fresh_id()
    weights = tree.weights
    if isinstance(site, int):
        if site not in weights:
            raise InvalidMoveError(f"no vertex {site}")
        weights[site] -= 1
        weights[new] = -1
        return _rewired(tree, weights, set(), {(site, new)})
    a, b = site
    e = _edge(a, b)
    if e not in tree.edges:
        raise InvalidMoveError(f"no edge {site}")
    weights[a] -= 1
    weights[b] -= 1
    weights[new] = -1
    return _rewired(tree, weights, {e}, {(a, new), (b, new)})


def absorb_zero(tree: WeightedTree, v: int) -> WeightedTree:
    """Merge the two neighbours of a 0-weighted valence-2 vertex.

    The neighbours a, b are replaced by a single vertex (keeping the
    smaller id) of weight weight(a) + weight(b) inheriting all their other
    edges.  Drops one positive and one negative eigenvalue of the form.
    """
    if tree.weight(v) != 0:
        raise InvalidMoveError(f"vertex {v} has weight {tree.weight(v)}, not 0")
    ns = sorted(tree.neighbors(v))
    if len(ns) != 2:
        raise InvalidMoveError(f"vertex {v} has valence {len(ns)}, need 2")
    a, b = ns
    weights = tree.weights
    merged = weights[a] + weights[b]
    del weights[v], weights[b]
    weights[a] = merged
    moved = tree.neighbors(b) - {v}
    cut = {_edge(v, a), _edge(v, b)} | {_edge(b, x) for x in moved}
    return _rewired(tree, weights, cut, {_edge(a, x) for x in moved})


def flatten_positive_leaf(tree: WeightedTree, leaf: int) -> WeightedTree:
    """Trade a positive leaf next to a -1 for a chain of -2's.

    The configuration is a leaf of weight N >= 1 whose unique neighbour has
    weight -1.  The net effect of the blow-up/blow-down sequence is that
    the two vertices become a chain of N vertices of weight -2 hanging
    where the -1 was; the positive index of the form drops by exactly one
    and |det| is preserved.
    """
    n = tree.weight(leaf)
    if tree.valence(leaf) != 1 or n < 1:
        raise InvalidMoveError(f"vertex {leaf} is not a positive leaf")
    (nb,) = tree.neighbors(leaf)
    if tree.weight(nb) != -1:
        raise InvalidMoveError(f"neighbour of leaf {leaf} has weight {tree.weight(nb)}, not -1")
    weights = tree.weights
    del weights[leaf]
    weights[nb] = -2
    join = set()
    prev = nb
    fresh = max(weights) + 1
    for _ in range(n - 1):
        weights[fresh] = -2
        join.add((prev, fresh))
        prev = fresh
        fresh += 1
    return _rewired(tree, weights, {_edge(leaf, nb)}, join)


class NoNegativeDefiniteFormError(ValueError):
    """Reduction cannot reach a negative-definite normal form (the N < 0 regime)."""


def _flatten_sites(tree):
    w, adj = tree._weights, tree._adj
    return [
        v
        for v, wt in w.items()
        if wt >= 1 and len(adj[v]) == 1 and w[next(iter(adj[v]))] == -1
    ]


def _blow_down_sites(tree):
    w, adj = tree._weights, tree._adj
    return [
        v
        for v, wt in w.items()
        if wt == -1 and len(adj[v]) == 2 and all(w[u] <= -1 for u in adj[v])
    ]


def _absorb_sites(tree):
    adj = tree._adj
    return [v for v, wt in tree._weights.items() if wt == 0 and len(adj[v]) == 2]


def reduction_measure(tree: WeightedTree) -> int:
    """Vertex count plus total positive weight; strictly drops at each loop move."""
    return len(tree) + sum(w for w in tree._weights.values() if w > 0)


def reduce_tree(tree: WeightedTree) -> WeightedTree:
    """Apply calculus moves until none applies, deterministically.

    Strategy, repeated to a fixed point: flatten a positive leaf whose
    neighbour is a -1; else blow down a (-1)-vertex of valence exactly 2
    both of whose neighbours have negative weight; else absorb a
    0-weighted valence-2 vertex.  Within a move class the site is chosen
    by the canonical encoding of the tree rooted there (vertex id only as
    the final tiebreak), so the choice depends on the isomorphism class
    alone: sites with equal encodings are automorphic images of each other
    and yield isomorphic results, which makes the fixed point independent
    of the vertex labelling -- the normal form is a property of the graph,
    not of the order the moves happen to be found in.  On identical input
    the run is deterministic byte for byte.

    Termination: the measure reduction_measure (vertex count plus total
    positive weight) strictly decreases at every step.  Flattening a leaf
    of weight N adds N - 2 vertices but removes N of positive weight; a
    loop blow-down removes a vertex without pushing any weight above 0
    (that is what the negative-neighbour condition buys); an absorption
    removes two vertices and positive weight is subadditive under the
    merge.  The measure is checked, not just documented.

    Blow-downs at valence 0/1 and at -1's with a non-negative neighbour
    are legal moves (see blow_down) but are left out of the loop: the
    surgery pipeline never needs them, and applying them eagerly can push
    weights positive and break the termination measure.

    Idempotent by construction.  The output for a raw surgery graph with
    N >= 1 has every weight <= -2; callers interpret other terminal shapes
    (see cabling.reduced_plumbing for the N <= 0 regimes).
    """
    t = tree
    measure = reduction_measure(t)
    memo = {}
    while True:
        for finder, move in (
            (_flatten_sites, flatten_positive_leaf),
            (_blow_down_sites, blow_down),
            (_absorb_sites, absorb_zero),
        ):
            sites = finder(t)
            if sites:
                if len(sites) == 1:
                    (site,) = sites
                else:
                    site = min(sites, key=lambda v: (_rooted_encoding(t, v, memo), v))
                    for v in sites:
                        memo.pop((v, None), None)
                moved = move(t, site)
                _drop_stale(memo, t, moved)
                t = moved
                break
        else:
            return t
        new_measure = reduction_measure(t)
        if new_measure >= measure:
            raise AssertionError("reduction measure failed to decrease")
        measure = new_measure


# -- canonical forms and isomorphism ----------------------------------------


def _rooted_encoding(tree, root, memo):
    """Nested encoding (weight, sorted child encodings) of the tree rooted
    at root; reduce_tree orders its candidate sites by it.

    memo maps (vertex, parent) to the encoding of the branch at vertex
    away from parent, the whole tree under (root, None).  It is closed
    under children: a branch is entered only after every branch below it.
    Calls that share a memo build each branch once, so the encodings from
    several roots share every branch they have in common.  reduce_tree
    keeps one memo across all the moves of a reduction and drops what
    each move made stale (_drop_stale), so a step re-encodes only the
    branches that reach from its sites to where the last move changed
    the tree.
    """
    adj, weights = tree._adj, tree._weights
    todo = [(root, None)]
    for v, parent in todo:  # breadth first; the list grows as it is read
        todo.extend((c, v) for c in adj[v] if c != parent and (c, v) not in memo)
    for v, parent in reversed(todo):
        memo[v, parent] = (
            weights[v],
            tuple(sorted([memo[c, v] for c in adj[v] if c != parent])),
        )
    return memo[root, None]


def _drop_stale(memo, old, new):
    """Forget the entries of a _rooted_encoding memo that stop holding when
    the tree old becomes new by one move.

    A vertex is touched when the move changed its weight, created or
    deleted it, or changed one of its edges.  A branch of old stays valid
    in new when its side holds no touched vertex (its own edge then
    survives too).  The branches holding a touched vertex u are found
    walking out from u: (u, y) for each neighbour y, then (y, z) for z
    beyond y, and so on.  The walk goes past (x, y) only where that entry
    was present, since an entry further out would have (x, y) as a child.
    Edges the move added get both their keys dropped too.
    """
    changed = old._edges ^ new._edges
    touched = {v for e in changed for v in e}
    touched.update(v for v, _ in old._weights.items() ^ new._weights.items())
    adj = old._adj
    todo = [(u, y) for u in touched if u in adj for y in adj[u]]
    while todo:
        x, y = todo.pop()
        if memo.pop((x, y), None) is not None:
            todo.extend((y, z) for z in adj[y] if z != x)
    for a, b in changed:
        memo.pop((a, b), None)
        memo.pop((b, a), None)


def _preorder(tree, root):
    """Vertices in depth-first preorder from root, and each one's parent."""
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for c in tree.neighbors(v):
            if c != parent[v]:
                parent[c] = v
                stack.append(c)
    return order, parent


def _centroids(tree):
    """The one or two vertices whose removal leaves the smallest largest
    component, from subtree sizes in one pass."""
    order, parent = _preorder(tree, tree.vertices()[0])
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
    order, parent = _preorder(tree, root)
    enc = {}
    for v in reversed(order):
        kids = sorted(enc.pop(c) for c in tree.neighbors(v) if c != parent[v])
        enc[v] = tuple(chain((tree.weight(v), len(kids)), *kids))
    return enc[root]


def canonical_form(tree: WeightedTree):
    """Label-independent encoding: equal iff trees are weight-isomorphic.

    The least flat serialization (_flat_encoding) rooted at a centroid; it
    is compared only for equality.
    """
    return min(_flat_encoding(tree, c) for c in _centroids(tree))


def are_isomorphic(t1: WeightedTree, t2: WeightedTree) -> bool:
    """Weight-preserving tree isomorphism."""
    if len(t1) != len(t2):
        return False
    if sorted(t1.weights.values()) != sorted(t2.weights.values()):
        return False
    return canonical_form(t1) == canonical_form(t2)
