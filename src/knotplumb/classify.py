"""End-to-end obstruction verdicts, parameter sweeps, and the family audit.

classify_one decides, for an n-surgery on T(p1, a1; p2, a2) with a1 = 1
(mod p1) and a2 = +-1 (mod p2), what the lattice-embedding obstruction
says: with N = n - p2*a2, negative N admits no negative definite
plumbing tree at all, N = 0 may split as a connected sum, N = 1 is
excluded from classification, and for N >= 2 the reduced plumbing, the
junction rule's tree with |det| = n checked, is tested for an embedding
into (Z^r, -Id) at r equal to its vertex count.  There an embedding is a
square integer matrix A with G = -A*A^T, so |det G| = det(A)^2: when n
is not a perfect square the determinant alone proves that none exists
(proof "determinant": no search, no tree and no list, only cabling._fold
of the cached hooks, in O(sum of log a_i) steps at any N).
Otherwise the graph is searched, and an exhaustive NONE (proof "search")
proves the surgered manifold bounds no rational homology 4-ball; a found
embedding (proof "witness") only says this obstruction vanishes.

The expected passing tuples form two families, for which explicit
witnesses are constructed in closed form (known_witness):

    family 1: (p1, p1+1; p2, p2*(p1+1)^2 - 1; p2^2*(p1+1)^2)
    family 2: (2, 7; p2, 16*p2 - 1; 16*p2^2)

Both are the cabling lift (pairs; p, p*n_b - 1; p^2*n_b) at p = p2 of a
one-iteration base, T(p1, p1+1) at (p1+1)^2 and T(2,7) at 16, so a
witness is a base witness followed by one lift rule (_lift).

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
from functools import partial
from typing import NamedTuple

from .cabling import (
    CableTower,
    SurgerySpec,
    _fold,
    _junction_builder,
    _require_two_iter,
    closed_form_two_iter,
    reduced_plumbing,  # unused; perfbench's LAYER_PATCHES wraps classify.reduced_plumbing
)
from .lattice import SearchStatus, _dense, find_embedding, verify_embedding
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


class SweepRow(NamedTuple):  # a sweep makes one per tuple: a frozen dataclass took 4 times as long
    """One tuple's verdict.  vectors is its search's checked witness, sparse
    as in SearchResult, or None; witness makes it dense on each read."""
    p1: int
    a1: int
    p2: int
    a2: int
    n: int
    n_reduced: int
    rank: int | None
    verdict: VerdictKind
    vectors: tuple | None
    nodes: int
    ms: int
    # what decided the verdict: "determinant", "search" or "witness";
    # None when no graph was tested or the budget ran out (not in the CSV)
    proof: str | None = None

    def key(self):
        return (self.p1, self.a1, self.p2, self.a2, self.n)

    @property
    def witness(self):
        return None if self.vectors is None else _dense(self.vectors, self.rank)


def searched(n, n_red) -> bool:
    """classify_one searches n at N = n_red iff N >= 2 and n is a square."""
    return n_red >= 2 and math.isqrt(n) ** 2 == n


def classify_one(spec: SurgerySpec, budget=DEFAULT_BUDGET) -> SweepRow:
    """Obstruction verdict for one surgery spec in the congruence families.

    The graph is closed_form_two_iter's, the junction rule's tree numbered
    without gaps, and no tree is frozen.  Its one exact pass, _fold from
    the hooks, checks |det| = n and decides a non-square n, with 0 nodes
    and no list built, at any N; only a square n builds the tree's rows,
    runs expanded, which are searched with the fold's definiteness, and
    budget only bounds that search.  ms is the call's wall time.
    """
    t0 = time.perf_counter()
    _require_two_iter(spec)
    n_red = spec.reduced_framing
    rank, vectors, nodes, proof = None, None, 0, None
    if n_red < 0:
        verdict = VerdictKind.NO_NEGATIVE_DEFINITE_FORM
    elif n_red == 0:
        verdict = VerdictKind.REDUCIBLE_BOUNDARY
    elif n_red == 1:
        verdict = VerdictKind.OUT_OF_SCOPE
    else:
        _, negative, rank = _fold(spec)  # raises unless |det| = n
        if not searched(spec.n, n_red):
            if not negative:
                raise ValueError("intersection form is not negative definite")
            verdict, proof = VerdictKind.OBSTRUCTION_FAILS, "determinant"
        else:
            result = find_embedding(_junction_builder(spec, gaps=False).rows(negative), budget=budget)
            verdict, proof = _SEARCH_VERDICT[result.status]
            vectors, nodes = result.vectors, result.nodes
    (p1, a1), (p2, a2) = spec.knot.pairs
    ms = int((time.perf_counter() - t0) * 1000)
    return SweepRow(p1, a1, p2, a2, spec.n, n_red, rank, verdict, vectors, nodes, ms, proof)


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


def _vec(rank, plus, minus=()):
    """The sum of e_i over plus less that over minus (0-based), of length rank."""
    return tuple(1 if k in plus else -1 if k in minus else 0 for k in range(rank))


# T(2,7) at 16 on e_1..e_3, f_1..f_3: torso -2, -2, -3, node, leg, tail
_T27_AT_16 = (
    (1, -1, 0, 0, 0, 0),
    (0, 1, -1, 0, 0, 0),
    (-1, -1, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, -1),
    (0, 0, 0, 1, -1, 0),
    (0, 0, 0, -1, -1, 0),
)


def _lift(base, p):
    """The witness of the (p, p*n_b - 1)-cable at p^2*n_b from one of its
    base at n_b, N_b = n_b - p_k*a_k >= 2, both in construction order.

    The lifted tree is the base tree with its last vertex (the tail's end)
    at -3, then p - 2 torso -2's, node (-2), leg (-p) and p - 1 tail -2's:
    on new coordinates g_1..g_{2p-1} the last vector loses g_1 and the new
    ones are g_j - g_{j+1} (j < p), g_p + ... + g_{2p-1}, g_j - g_{j+1}."""
    m = 2 * p - 1
    lifted = [v + (0,) * m for v in base[:-1]] + [base[-1] + _vec(m, (), (0,))]
    steps = [_vec(m, (i,), (i + 1,)) for i in range(m - 1)]
    new = steps[: p - 1] + [_vec(m, range(p - 1, m))] + steps[p - 1 :]
    return tuple(lifted + [(0,) * len(base[0]) + v for v in new])


def known_witness(spec: SurgerySpec):
    """Explicit embedding for specs in one of the two solution families.

    Each family is one cabling lift (_lift) of a one-iteration base witness:
    family 1 lifts T(p1, p1+1) at (p1+1)^2, family 2 lifts T(2,7) at 16,
    both by p = p2 to N = p2.  The result is verified against the
    closed-form graph and returned; returns None off-family.  Raises, as
    closed_form_two_iter does, on a tower outside the families' premises.
    """
    _require_two_iter(spec)
    (p1, a1), (p2, a2) = spec.knot.pairs
    if not is_family_member(p1, a1, p2, a2, spec.n):
        return None
    base = _T27_AT_16
    if a1 == p1 + 1:  # family 1 on f_1..f_{2p1}, h: torso, node, leg outward, tail
        r = 2 * p1 + 1
        steps = [_vec(r, (i,), (i + 1,)) for i in range(2 * p1 - 1)]
        torso, last = _vec(r, range(p1, 2 * p1), (2 * p1,)), _vec(r, (2 * p1 - 1, 2 * p1))
        base = [torso, *steps[p1 - 1 :: -1], *steps[p1:], last]
    witness = _lift(base, p2)
    if not verify_embedding(gram_matrix(closed_form_two_iter(spec)), witness):
        raise AssertionError(f"constructed witness for {spec} fails verification")
    return witness


# -- sweeps and the audit -----------------------------------------------------


def admissible_tuples(p1_values, k1_values, p2_values, k2_max, n_values) -> list:
    """All admissible (p1, a1, p2, a2, n): both congruence signs, algebraic
    (ceil(a2/p2) - 1 >= p1*a1), deduplicated, lexicographically sorted."""
    seen = {}  # a dict: its keys keep the sorted order the loops mostly make
    for p1 in p1_values:
        for k1 in k1_values:
            a1 = k1 * p1 + 1
            for p2 in p2_values:
                for k2 in range(p1 * a1, k2_max + 1):
                    for a2 in (k2 * p2 + 1, k2 * p2 + p2 - 1):
                        for n_red in n_values:
                            seen[p1, a1, p2, a2, n_red + p2 * a2] = None
    return sorted(seen)


def desk_range_tuples() -> list:
    """The standing desk-scale sweep: p1, p2 in {2,3}, k1 <= 3, k2 <= 25, N in 2..6."""
    return admissible_tuples((2, 3), (1, 2, 3), (2, 3), 25, range(2, 7))


def _classify_tuple(t, budget):
    """classify_one of the tuple (p1, a1, p2, a2, n), looked up at each call."""
    p1, a1, p2, a2, n = t
    return classify_one(SurgerySpec(CableTower(((p1, a1), (p2, a2))), n), budget=budget)


def sweep(tuples, budget=DEFAULT_BUDGET, workers=1) -> list:
    """classify_one of each distinct tuple, rows in sorted tuple order: one
    job mapped over the sorted tuples, serially or by a Pool (its own
    contiguous chunks) of at most one process per tuple and per CPU."""
    job, tuples = partial(_classify_tuple, budget=budget), sorted(dict.fromkeys(tuples))
    workers = min(workers, len(tuples), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool  # only a forked sweep pays for importing it
        with Pool(workers) as pool:
            return pool.map(job, tuples)
    return list(map(job, tuples))


CSV_HEADER = "p1,a1,p2,a2,n,N,rank,verdict,witness_file,nodes,ms"


def rows_to_csv(rows, witness_files=None, timing=False) -> str:
    """CSV rendering of sweep rows.

    witness_files maps row.key() to the path a witness was written to.  By
    default the ms column is left empty so that reruns (and different
    worker counts) produce byte-identical output; timing=True fills in the
    measured milliseconds.
    """
    witness_files, lines = witness_files or {}, [CSV_HEADER]
    for p1, a1, p2, a2, n, n_red, rank, verdict, _, nodes, ms, _ in rows:
        wfile = witness_files.get((p1, a1, p2, a2, n), "")
        rank, ms = "" if rank is None else rank, ms if timing else ""
        lines.append(f"{p1},{a1},{p2},{a2},{n},{n_red},{rank},{verdict},{wfile},{nodes},{ms}")
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
