"""End-to-end obstruction verdicts, parameter sweeps, and the family audit.

classify_one decides, for an n-surgery on T(p1, a1; p2, a2) with a1 = 1
(mod p1) and a2 = +-1 (mod p2), what the lattice-embedding obstruction
says: with N = n - p2*a2, negative N admits no negative definite
plumbing tree at all, N = 0 may split as a connected sum, N = 1 is
excluded from classification, and for N >= 2 the reduced plumbing, built
by the junction rule with |det| = n checked, is tested for an embedding
into (Z^r, -Id) at r equal to its vertex count.  There an embedding is a
square integer matrix A with G = -A*A^T, so |det G| = det(A)^2: when n
is not a perfect square the determinant alone proves that none exists
(proof "determinant": no search and no tree, only the builder's pass,
which takes each -2 run in one step, so any N costs the same).
Otherwise the graph is searched, and an exhaustive NONE (proof "search")
proves the surgered manifold bounds no rational homology 4-ball; a found
embedding (proof "witness") only says this obstruction vanishes.

The expected passing tuples form two families, for which explicit
witnesses are constructed in closed form (known_witness):

    family 1: (p1, p1+1; p2, p2*(p1+1)^2 - 1; p2^2*(p1+1)^2)
    family 2: (2, 7; p2, 16*p2 - 1; 16*p2^2)

The audit also knows a "printed" variant of family 1 with
a2 = p2*(p1+1) - 1, which fails the algebraicity requirement
a2/p2 > p1*a1 for every p1 >= 2; comparing sweeps against either form is
how the discrepancy is documented rather than guessed away.
"""

import math
import os
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from multiprocessing import Pool

from .cabling import (
    CableTower,
    SurgerySpec,
    _junction_builder,
    closed_form_two_iter,
    reduced_plumbing,  # unused; perfbench's LAYER_PATCHES wraps classify.reduced_plumbing
    two_iter_parameters,
)
from .lattice import SearchStatus, find_embedding, verify_embedding
from .plumbing import gram_matrix

DEFAULT_BUDGET = 10**8


class VerdictKind(str, Enum):
    NO_NEGATIVE_DEFINITE_FORM = "NoNegativeDefiniteForm"
    REDUCIBLE_BOUNDARY = "ReducibleBoundary"
    OUT_OF_SCOPE = "OutOfScope"
    OBSTRUCTION_FAILS = "ObstructionFails"
    OBSTRUCTION_PASSES = "ObstructionPasses"
    INDETERMINATE = "Indeterminate"

    def __str__(self):  # the value, also in f-strings (3.11 would print VerdictKind.NAME)
        return self.value


# search status -> (verdict, proof)
_SEARCH_VERDICT = {
    SearchStatus.FOUND: (VerdictKind.OBSTRUCTION_PASSES, "witness"),
    SearchStatus.NONE: (VerdictKind.OBSTRUCTION_FAILS, "search"),
    SearchStatus.INDETERMINATE: (VerdictKind.INDETERMINATE, None),
}


@dataclass(frozen=True)
class SweepRow:
    p1: int
    a1: int
    p2: int
    a2: int
    n: int
    n_reduced: int
    rank: int | None
    verdict: VerdictKind
    witness: tuple | None
    nodes: int
    ms: int
    # what decided the verdict: "determinant", "search" or "witness";
    # None when no graph was tested or the budget ran out (not in the CSV)
    proof: str | None = None

    def key(self):
        return (self.p1, self.a1, self.p2, self.a2, self.n)


def classify_one(spec: SurgerySpec, budget=DEFAULT_BUDGET) -> SweepRow:
    """Obstruction verdict for one surgery spec in the congruence families.

    The graph is closed_form_two_iter's, the junction rule's tree numbered
    without gaps.  Its builder's one exact pass checks |det| = n and
    decides a non-square n, with 0 nodes and no tree frozen, in O(runs)
    at any N; a square n's tree is expanded and frozen with that form
    memoised and searched, and budget only bounds that search.  ms is the
    call's wall time.
    """
    t0 = time.perf_counter()
    par = two_iter_parameters(spec)  # validates the tower, once
    n_red = par["N"]
    rank, witness, nodes, proof = None, None, 0, None
    if n_red < 0:
        verdict = VerdictKind.NO_NEGATIVE_DEFINITE_FORM
    elif n_red == 0:
        verdict = VerdictKind.REDUCIBLE_BOUNDARY
    elif n_red == 1:
        verdict = VerdictKind.OUT_OF_SCOPE
    else:
        build = _junction_builder(spec, gaps=False)
        form = build.form(spec)  # raises unless |det| = n
        rank = build.next  # no gaps: the vertex count
        if math.isqrt(spec.n) ** 2 != spec.n:
            if not form[1]:
                raise ValueError("intersection form is not negative definite")
            verdict, proof = VerdictKind.OBSTRUCTION_FAILS, "determinant"
        else:
            result = find_embedding(build.tree(form), budget=budget)
            verdict, proof = _SEARCH_VERDICT[result.status]
            witness, nodes = result.witness, result.nodes
    (p1, a1), (p2, a2) = spec.knot.pairs
    ms = int((time.perf_counter() - t0) * 1000)
    return SweepRow(p1, a1, p2, a2, spec.n, n_red, rank, verdict, witness, nodes, ms, proof)


# -- explicit witnesses from the two solution families -----------------------


def family_tuple(form: str, p1: int, p2: int) -> tuple:
    """The (p1, a1, p2, a2, n) tuple of family 1 in the requested form,
    or of family 2 when form == "family2" (p1 is then ignored)."""
    if form == "derived":
        return (p1, p1 + 1, p2, p2 * (p1 + 1) ** 2 - 1, p2**2 * (p1 + 1) ** 2)
    if form == "printed":
        return (p1, p1 + 1, p2, p2 * (p1 + 1) - 1, p2**2 * (p1 + 1) ** 2)
    if form == "family2":
        return (2, 7, p2, 16 * p2 - 1, 16 * p2**2)
    raise ValueError(f"unknown family form {form!r}")


def is_family_member(p1, a1, p2, a2, n, family1_form="derived") -> bool:
    return (p1, a1, p2, a2, n) in (
        family_tuple(family1_form, p1, p2),
        family_tuple("family2", p1, p2),
    )


def _g_block(vecs_by_id, ids, g, p2, n_red):
    """Shared right half of both witnesses: Torso 2 tail, Node 2, Leg 2, Tail.

    g(j) is the j-th basis vector (1-indexed) of the g-coordinate block of
    length p2 + N - 1.  Covers torso2-trailing staircase g1-g2, ...,
    node2 = g_{p2-1}-g_{p2}, leg2 = g_{p2}+...+g_{p2+N-1}, and the tail
    staircase continuing from node2.
    """
    trailing, node2, leg2, tail = ids
    for j, vid in enumerate(trailing, start=1):
        vecs_by_id[vid] = g(j) - g(j + 1)
    vecs_by_id[node2] = g(p2 - 1) - g(p2)
    u = g(p2)
    for j in range(p2 + 1, p2 + n_red):
        u = u + g(j)
    (leg2_id,) = leg2
    vecs_by_id[leg2_id] = u
    for j, vid in enumerate(tail, start=0):
        vecs_by_id[vid] = g(p2 + j) - g(p2 + j + 1)


class _Vec(tuple):
    def __add__(self, other):
        return _Vec(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return _Vec(a - b for a, b in zip(self, other))

    def __neg__(self):
        return _Vec(-a for a in self)


def _basis(rank):
    def e(i):  # 1-indexed within a caller-chosen offset
        v = [0] * rank
        v[i] = 1
        return _Vec(v)

    return e


def _ids_by_role(tree, roles):
    by_role = {}
    for v in tree.vertices():  # ascending ids = construction order
        by_role.setdefault(roles[v], []).append(v)
    return by_role


def known_witness(spec: SurgerySpec):
    """Explicit embedding for specs in one of the two solution families.

    Instantiates the closed-form solutions (both with all free parameters
    zero: l = p1 - 1 and N = p2 in family 1; k1 = 3, l = 0, N = p2 in
    family 2) against the closed-form graph's vertex order, verifies the
    result, and returns it; returns None off-family.  Raises, as
    two_iter_parameters does, on a tower outside the families' premises.
    """
    par = two_iter_parameters(spec)
    p1, a1, p2, a2 = par["p1"], par["a1"], par["p2"], par["a2"]
    n = spec.n
    if not is_family_member(p1, a1, p2, a2, n):
        return None
    # both solution families sit at N = p2, n = N + p2*a2
    if par["N"] != p2 or n != p2 + p2 * a2:
        raise AssertionError(f"family tuple {spec} is not at N = p2")
    tree, roles = closed_form_two_iter(spec, with_roles=True)
    ids = _ids_by_role(tree, roles)
    rank = len(tree)
    base = _basis(rank)
    vecs = {}

    if (p1, a1, p2, a2, n) == family_tuple("derived", p1, p2):
        # coordinates: f_1..f_{2p1}, g_1..g_{2p2-1}, h
        f = lambda j: base(j - 1)
        g = lambda j: base(2 * p1 + j - 1)
        h = base(2 * p1 + 2 * p2 - 1)
        (v_id,) = ids["torso1"]
        v = f(p1 + 1)
        for j in range(p1 + 2, 2 * p1 + 1):
            v = v + f(j)
        vecs[v_id] = v - h
        vecs[ids["node1"][0]] = f(p1) - f(p1 + 1)
        for j, vid in enumerate(ids["leg1"], start=1):  # node1 outward
            vecs[vid] = f(p1 - j) - f(p1 - j + 1)
        torso2 = ids["torso2"]
        lead, w_id, trailing = torso2[: p1 - 1], torso2[p1 - 1], torso2[p1:]
        for j, vid in enumerate(lead, start=1):
            vecs[vid] = f(p1 + j) - f(p1 + j + 1)
        vecs[w_id] = f(2 * p1) + h - g(1)
        _g_block(vecs, (trailing, ids["node2"][0], ids["leg2"], ids.get("tail", [])), g, p2, par["N"])
    elif (p1, a1, p2, a2, n) == family_tuple("family2", p1, p2):
        # coordinates: e_1..e_3, f_1..f_3, g_1..g_{2p2-1}, one unused
        e = lambda j: base(j - 1)
        f = lambda j: base(3 + j - 1)
        g = lambda j: base(6 + j - 1)
        t1 = ids["torso1"]
        vecs[t1[0]] = e(1) - e(2)
        vecs[t1[1]] = e(2) - e(3)
        vecs[t1[2]] = -e(1) - e(2) + f(3)
        vecs[ids["node1"][0]] = f(2) - f(3)
        vecs[ids["leg1"][0]] = f(1) - f(2)
        torso2 = ids["torso2"]
        w_id, trailing = torso2[0], torso2[1:]
        vecs[w_id] = -g(1) - f(1) - f(2)
        _g_block(vecs, (trailing, ids["node2"][0], ids["leg2"], ids.get("tail", [])), g, p2, par["N"])
    else:
        return None

    witness = tuple(tuple(vecs[v]) for v in tree.vertices())
    if not verify_embedding(gram_matrix(tree), witness):
        raise AssertionError(f"constructed witness for {spec} fails verification")
    return witness


# -- sweeps and the audit -----------------------------------------------------


def admissible_tuples(p1_values, k1_values, p2_values, k2_max, n_values) -> list:
    """All admissible (p1, a1, p2, a2, n): both congruence signs, algebraic
    (ceil(a2/p2) - 1 >= p1*a1), deduplicated, lexicographically sorted."""
    seen = set()
    for p1 in p1_values:
        for k1 in k1_values:
            a1 = k1 * p1 + 1
            for p2 in p2_values:
                for k2 in range(p1 * a1, k2_max + 1):
                    for a2 in (k2 * p2 + 1, k2 * p2 + p2 - 1):
                        for n_red in n_values:
                            seen.add((p1, a1, p2, a2, n_red + p2 * a2))
    return sorted(seen)


def desk_range_tuples() -> list:
    """The standing desk-scale sweep: p1, p2 in {2,3}, k1 <= 3, k2 <= 25, N in 2..6."""
    return admissible_tuples((2, 3), (1, 2, 3), (2, 3), 25, range(2, 7))


def _sweep_worker(args):
    (p1, a1, p2, a2, n), budget = args
    return classify_one(SurgerySpec(CableTower(((p1, a1), (p2, a2))), n), budget=budget)


def sweep(tuples, budget=DEFAULT_BUDGET, workers=1) -> list:
    """Classify every tuple; rows come back sorted by tuple, independent of
    worker scheduling (pool.map keeps the sorted job order).  At most one
    worker process runs per job and per CPU, whatever workers asks for."""
    jobs = [(t, budget) for t in sorted(set(tuples))]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            return pool.map(_sweep_worker, jobs, chunksize=8)
    return [_sweep_worker(j) for j in jobs]


CSV_HEADER = "p1,a1,p2,a2,n,N,rank,verdict,witness_file,nodes,ms"


def rows_to_csv(rows, witness_files=None, timing=False) -> str:
    """CSV rendering of sweep rows.

    witness_files maps row.key() to the path a witness was written to.  By
    default the ms column is left empty so that reruns (and different
    worker counts) produce byte-identical output; timing=True fills in the
    measured milliseconds.
    """
    lines = [CSV_HEADER]
    for row in rows:
        wfile = (witness_files or {}).get(row.key(), "")
        ms = str(row.ms) if timing else ""
        rank = "" if row.rank is None else str(row.rank)
        lines.append(
            f"{row.p1},{row.a1},{row.p2},{row.a2},{row.n},{row.n_reduced},"
            f"{rank},{row.verdict},{wfile},{row.nodes},{ms}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class AuditReport:
    family1_form: str
    total: int = 0
    agreements: int = 0
    disagreements: list = field(default_factory=list)
    indeterminate: list = field(default_factory=list)

    @property
    def perfect(self) -> bool:
        return not self.disagreements and not self.indeterminate

    def to_json_obj(self) -> dict:
        return {**asdict(self), "perfect": self.perfect}


def theorem_audit(rows, family1_form="derived") -> AuditReport:
    """Compare each row's verdict with membership in the two families.

    A row agrees when ObstructionPasses coincides with family membership
    (rows that never reach the search, N < 2, are compared as non-passing).
    Indeterminate rows are listed separately and spoil perfection.
    """
    report = AuditReport(family1_form=family1_form)
    for row in rows:
        report.total += 1
        if row.verdict == VerdictKind.INDETERMINATE:
            report.indeterminate.append(list(row.key()))
            continue
        passes = row.verdict == VerdictKind.OBSTRUCTION_PASSES
        member = is_family_member(row.p1, row.a1, row.p2, row.a2, row.n, family1_form)
        if passes == member:
            report.agreements += 1
        else:
            report.disagreements.append(
                {"tuple": list(row.key()), "verdict": row.verdict, "family_member": member}
            )
    return report
