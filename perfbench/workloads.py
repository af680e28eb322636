"""The benchmark's three workloads: seeded inputs, the timed phase, checks.

Each workload class has
  inputs(seed, size)                the seeded input list (JSON-able, digested);
  run(inputs, tracer, workdir)      one timed pass, returning a Unit;
  check(inputs, unit, failures)     the correctness checks, recording Failures.
size is "std" (what a benchmark run uses), "full" (the whole desk range
on desk_audit, to reproduce the paper's audit) or "smoke" (smallest
inputs, for selftest.py).

The checks never trust the path they check: witnesses are re-verified
against a Gram matrix the benchmark builds itself, determinants are
compared with the surgery coefficient, the Pool sweep's CSV with the
serial sweep's.
"""

import contextlib
import io
import json
import os
import random
import re
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from knotplumb import cabling, classify, cli, hjcf, lattice, plumbing
from knotplumb.cabling import CableTower, SurgerySpec
from refclock import Clock


@dataclass
class Unit:
    """What one timed pass produced."""

    counts: dict  # exact counts for the repeat guard
    outputs: dict  # handed to check()
    clock: Clock  # the pass's timings (refclock)
    extra: dict = field(default_factory=dict)  # printed figures, name -> (value, unit)

    @property
    def wall_s(self):
        return self.clock.wall

    @property
    def items_ms(self):
        return {label: s * 1000 for label, s in self.clock.scaled.items()}


class Failures:
    """Failed operations, listed by item and by kind (exception type or check)."""

    def __init__(self):
        self.entries = []

    def add(self, item, kind, detail=""):
        self.entries.append((str(item), kind, str(detail)))

    @property
    def items(self):
        return {item for item, _, _ in self.entries}


# Where one layer reaches another: (module whose attribute the caller looks
# up, attribute, span name).  plumbing.det_exact itself is left alone, so
# the leading minors inside is_negative_definite stay part of that span;
# lattice._check_gram imports is_negative_definite from plumbing at call
# time, and reduce_tree looks its three moves up on every step.
LAYER_PATCHES = [
    (classify, "closed_form_two_iter", "cabling.closed_form_two_iter"),
    (classify, "reduced_plumbing", "cabling.reduced_plumbing"),
    (classify, "find_embedding", "lattice.find_embedding"),
    (cli, "reduced_plumbing", "cabling.reduced_plumbing"),
    (cli, "find_embedding", "lattice.find_embedding"),
    (cli, "is_negative_definite", "plumbing.is_negative_definite"),
    (cli, "det_exact", "plumbing.det_exact"),
    (cabling, "raw_plumbing", "cabling.raw_plumbing"),
    (cabling, "det_exact", "plumbing.det_exact"),
    (cabling, "reduce_tree", "plumbing.reduce_tree"),
    (cabling, "expand_neg_cf", "hjcf.expand_neg_cf"),
    (plumbing, "is_negative_definite", "plumbing.is_negative_definite"),
    (plumbing, "flatten_positive_leaf", "plumbing.move.flatten_positive_leaf"),
    (plumbing, "blow_down", "plumbing.move.blow_down"),
    (plumbing, "absorb_zero", "plumbing.move.absorb_zero"),
    (lattice, "verify_embedding", "lattice.verify_embedding"),
]


def instrument(tracer):
    """Span every layer crossing; returns the counts read off return values."""
    stats = Counter()

    def searched(result):
        stats["lattice.nodes"] += result.nodes
        stats[f"lattice.{result.status.value}"] += 1

    def built_raw(result):
        stats["cabling.raw_vertices"] += len(result[0] if isinstance(result, tuple) else result)

    hooks = {"lattice.find_embedding": searched, "cabling.raw_plumbing": built_raw}
    for module, attr, name in LAYER_PATCHES:
        tracer.patch(module, attr, name, on_result=hooks.get(name))
    return stats


def spec_of(pairs, n):
    return SurgerySpec(CableTower(tuple(tuple(p) for p in pairs)), n)


def tuple_spec(t):
    p1, a1, p2, a2, n = t
    return spec_of(((p1, a1), (p2, a2)), n)


def family_members(tuples):
    return {tuple(t) for t in tuples if classify.is_family_member(*t)}


def check_witness(failures, item, gram, vectors):
    """A witness must have one vector per vertex, of length rank, and reproduce the Gram matrix."""
    try:
        ok = len(vectors) == len(gram) and all(len(v) == len(gram) for v in vectors) \
            and lattice.verify_embedding(gram, vectors)
    except (ValueError, TypeError) as exc:
        failures.add(item, type(exc).__name__, str(exc))
        return
    if not ok:
        failures.add(item, "witness-fails-verification")


def stratified_sample(rng, tuples, block, keep):
    """One tuple from each run of `block` consecutive tuples (lexicographic
    order, so the tuples of a run cost about the same), taking a `keep`
    tuple whenever the run holds one."""
    out = []
    for start in range(0, len(tuples), block):
        run = tuples[start:start + block]
        kept = [t for t in run if t in keep]
        out.extend(kept if kept else [rng.choice(run)])
    return out


# -- desk_audit --------------------------------------------------------------


class DeskAudit:
    """classify.sweep over (a seeded third of) the desk range, serial
    and in-process, then theorem_audit.  Traced runs also sweep the same
    tuples with a 2-process Pool, the path `knotplumb audit --workers 2`
    takes, for the parallel efficiency and a byte comparison of the CSV."""

    name = "desk_audit"
    passes = 2
    blocks = {"smoke": 100, "std": 3, "full": 1}

    def inputs(self, seed, size):
        desk = [tuple(t) for t in classify.desk_range_tuples()]
        rng = random.Random(seed)
        return [list(t) for t in stratified_sample(rng, desk, self.blocks[size], family_members(desk))]

    def run(self, inputs, tr, workdir):
        tuples = [tuple(t) for t in inputs]
        clock = Clock(tr)
        # classify_one is what sweep's per-tuple worker looks up: the clock
        # (and, traced, a span) around it gives the per-tuple figures
        inner = classify.classify_one

        def timed_classify(spec, *args, **kwargs):
            tr.item = list(spec.knot.pairs[0] + spec.knot.pairs[1] + (spec.n,))
            return clock.time(str(tr.item), tr.call, "classify.classify_one", inner, spec, *args, **kwargs)

        classify.classify_one = timed_classify

        def timed():
            rows = tr.call("classify.sweep", classify.sweep, tuples)
            return rows, tr.call("classify.theorem_audit", classify.theorem_audit, rows)

        rows, report, error = [], None, None
        try:
            with clock:
                rows, report = tr.call("bench.desk_audit", timed)
        except Exception as exc:  # counted as a failure of every tuple
            error = exc
        finally:
            classify.classify_one = inner
        verdicts = Counter(r.verdict for r in rows)
        counts = {
            "items": len(tuples),
            "lattice.nodes": sum(r.nodes for r in rows),
            **{f"verdict.{k}": v for k, v in sorted(verdicts.items())},
        }
        return Unit(counts, {"rows": rows, "report": report, "error": error}, clock)

    def check(self, inputs, unit, failures):
        tuples = [tuple(t) for t in inputs]
        error, rows, report = unit.outputs["error"], unit.outputs["rows"], unit.outputs["report"]
        if error is not None:
            for t in tuples:
                failures.add(list(t), type(error).__name__, str(error))
            return
        check_rows(failures, tuples, rows)
        if report is None or not report.perfect:
            for d in (report.disagreements if report else []):
                failures.add(d["tuple"], "audit-disagreement", d["verdict"])
            for t in (report.indeterminate if report else []):
                failures.add(t, "audit-indeterminate")

    @staticmethod
    def parallel(inputs, unit, failures):
        """Sweep the tuples again, serially and then with two workers, both
        untraced and timed the same way (plain wall time, no spans, no
        reference kernel); returns the parallel efficiency, serial wall
        time over 2 x Pool wall time.  The Pool's CSV must match the
        traced serial sweep's byte for byte."""
        tuples = [tuple(t) for t in inputs]
        t0 = time.perf_counter()
        classify.sweep(tuples)
        t1 = time.perf_counter()
        pool_rows = classify.sweep(tuples, workers=2)
        t2 = time.perf_counter()
        if classify.rows_to_csv(pool_rows) != classify.rows_to_csv(unit.outputs["rows"]):
            failures.add("pool", "pool-csv-differs-from-serial")
        return (t1 - t0) / (2 * (t2 - t1))


def check_rows(failures, tuples, rows):
    """Rows cover the tuples, pass exactly on the family tuples, never come
    back Indeterminate, and every witness verifies against the closed form."""
    by_key = {r.key(): r for r in rows}
    family = family_members(tuples)
    for t in tuples:
        row = by_key.get(t)
        if row is None:
            failures.add(list(t), "missing-row")
            continue
        if row.verdict == classify.VerdictKind.INDETERMINATE.value:
            failures.add(list(t), "indeterminate", f"{row.nodes} nodes")
        passes = row.verdict == classify.VerdictKind.OBSTRUCTION_PASSES.value
        if passes != (t in family):
            failures.add(list(t), "verdict-not-family", row.verdict)
        if passes:
            gram = plumbing.gram_matrix(cabling.closed_form_two_iter(tuple_spec(t)))
            check_witness(failures, list(t), gram, row.witness or ())


# -- single_graphs -----------------------------------------------------------


CHAINS = {"chain26": ("2,3,2,53", 108, 26), "chain51": ("2,3,2,103", 208, 51),
          "chain101": ("2,3,2,203", 408, 101)}
REFUTED = re.compile(r"no embedding into rank (\d+) \(exhausted after (\d+) nodes\)")
FOUND = re.compile(r"embedding found into rank (\d+) \((\d+) nodes\)")


def witness_set():
    fam1 = {classify.family_tuple("derived", p1, p2) for p1 in range(2, 6) for p2 in range(2, 6)}
    fam2 = {classify.family_tuple("family2", 0, p2) for p2 in range(2, 7)}
    return sorted(fam1 | fam2)


def clear_caches():
    """Empty the library's functools caches (lattice.square_decompositions
    at present), so that an item starts as a fresh `knotplumb` process
    does, whatever items the seed put before it."""
    for module in (hjcf, plumbing, cabling, lattice, classify, cli):
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class SingleGraphs:
    """`knotplumb embed --pairs .. --n .. --out DIR` through cli.main, in
    process: three -2-chain refutes and 21 family witnesses.  The seed
    only orders the invocations, each of which starts with the library's
    caches empty."""

    name = "single_graphs"
    passes = 3  # a third best-of pass steadies its item_ms.tail (9% -> 4% spread over 10 seeds)

    def inputs(self, seed, size):
        chains = ["chain26"] if size == "smoke" else list(CHAINS)
        items = [{"label": c, "pairs": CHAINS[c][0], "n": CHAINS[c][1], "rank": CHAINS[c][2],
                  "expect": 3} for c in chains]
        wit = witness_set()[:3] if size == "smoke" else witness_set()
        for (p1, a1, p2, a2, n) in wit:
            items.append({"label": f"witness_{p1}_{a1}_{p2}_{a2}_{n}",
                          "pairs": f"{p1},{a1},{p2},{a2}", "n": n, "rank": None, "expect": 0})
        random.Random(seed).shuffle(items)
        return items

    def run(self, inputs, tr, workdir):
        outs = {it["label"]: tempfile.mkdtemp(prefix="embed-", dir=workdir) for it in inputs}
        results, clock = {}, Clock(tr)

        def timed():
            for it in inputs:
                tr.item = it["label"]
                clear_caches()
                results[it["label"]] = clock.time(it["label"], self._embed, tr, it, outs[it["label"]])

        with clock:
            tr.call("bench.single_graphs", timed)
        counts = {"items": len(inputs)}
        for label, (rc, text, _) in sorted(results.items()):
            m = REFUTED.search(text) or FOUND.search(text)
            counts[f"exit.{label}"] = rc
            counts[f"nodes.{label}"] = int(m.group(2)) if m else None
        counts["lattice.nodes"] = sum(v for k, v in counts.items() if k.startswith("nodes.") and v)
        extra = {f"verdict_s.{c}": (clock.scaled[c], "s") for c in CHAINS if c in clock.scaled}
        extra["verdict_s.witness"] = (
            sum(v for k, v in clock.scaled.items() if k.startswith("witness_")), "s")
        return Unit(counts, {"results": results, "outs": outs}, clock, extra)

    @staticmethod
    def _embed(tr, it, out_dir):
        argv = ["embed", "--pairs", it["pairs"], "--n", str(it["n"]), "--out", out_dir]
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                rc = tr.call("cli.main", cli.main, argv)
            return rc, stdout.getvalue(), None
        except Exception as exc:
            return None, stdout.getvalue(), exc

    def check(self, inputs, unit, failures):
        for it in inputs:
            label = it["label"]
            rc, text, exc = unit.outputs["results"][label]
            if exc is not None:
                failures.add(label, type(exc).__name__, str(exc))
                continue
            if rc != it["expect"]:
                failures.add(label, "exit-code", f"{rc} != {it['expect']}")
                continue
            spec = spec_of(
                [tuple(map(int, it["pairs"].split(",")))[i:i + 2] for i in (0, 2)], it["n"])
            gram = plumbing.gram_matrix(cabling.reduced_plumbing(spec))
            if it["expect"] == 3:
                m = REFUTED.search(text)
                if not m or int(m.group(1)) != it["rank"] or len(gram) != it["rank"]:
                    failures.add(label, "refute-output", text.splitlines()[:1])
                continue
            path = os.path.join(unit.outputs["outs"][label], f"{label}.json")
            try:
                with open(path) as fh:
                    vectors = lattice.embedding_from_json_obj(json.load(fh))
            except (OSError, ValueError, KeyError) as exc:
                failures.add(label, type(exc).__name__, str(exc))
                continue
            check_witness(failures, label, gram, vectors)


# -- graph_calculus ----------------------------------------------------------


# (cabling multiplicities, specs per seed): towers of 2-4 iterations, sized
# so that every seed costs about the same; the 4-iteration towers carry
# the raw determinant check, the 2-iteration ones the cross-path check
TOWER_SHAPES = [((2, 2, 2, 2), 12)] \
    + [((p, q, r), 7) for p in (2, 3) for q in (2, 3) for r in (2, 3)] \
    + [((p, q), 10) for p in (2, 3) for q in (2, 3)]
SMOKE_SHAPES = [((2, 2), 2), ((3, 2), 1), ((2, 2, 2), 1)]


def tower_pairs(rng, ps, k):
    """An algebraic tower with multiplicities ps (each 2 or 3).

    a_1 = k p_1 + 1; each later a_{i+1} is the smallest coefficient above
    p_i p_{i+1} a_i coprime to p_{i+1}, except the last, which is one of
    the few smallest (a choice earlier in the tower would multiply into
    the size of every later hook).  For p <= 3 every such coefficient is
    +-1 mod p, so two-iteration towers lie in the congruence families and
    have a closed form.
    """
    pairs = [(ps[0], k * ps[0] + 1)]
    for i, (p_prev, p) in enumerate(zip(ps, ps[1:]), start=2):
        low = p_prev * p * pairs[-1][1] + 1
        choices = [x for x in range(low, low + 2 * p) if gcd(x, p) == 1][:3]
        pairs.append((p, rng.choice(choices) if i == len(ps) else choices[0]))
    return pairs


class GraphCalculus:
    """What `knotplumb graph --reduced --json` computes, through the
    library calls cmd_graph makes, plus the cross-path isomorphism check
    for two-iteration towers, each spec starting with the library's caches
    empty.  No embedding search runs."""

    name = "graph_calculus"
    passes = 3

    def inputs(self, seed, size):
        rng = random.Random(seed)
        specs = []
        # stratified, so that every seed spreads its cost the same way and
        # the median and tail of the per-spec times do not hinge on a few
        # draws: the j-th of a shape's specs draws N from the j-th of
        # `count` equal slices of 2..40, and k (two iterations) cycles
        # through 1..3
        for ps, count in (SMOKE_SHAPES if size == "smoke" else TOWER_SHAPES):
            for j in range(count):
                pairs = tower_pairs(rng, ps, 1 + j % 3 if len(ps) == 2 else 1)
                n_red = 2 + int((j + rng.random()) * 39 / count)
                specs.append({"pairs": pairs, "n": n_red + pairs[-1][0] * pairs[-1][1]})
        rng.shuffle(specs)
        return specs

    def run(self, inputs, tr, workdir):
        results, clock = [], Clock(tr)

        def timed():
            for i, s in enumerate(inputs):
                tr.item = f"{i}:{s['pairs']}:{s['n']}"
                clear_caches()
                results.append(clock.time(tr.item, self._graph, tr, s))

        with clock:
            tr.call("bench.graph_calculus", timed)
        ok = [r for r in results if not isinstance(r, Exception)]
        counts = {
            "items": len(inputs),
            "reduced_vertices": sum(r["rank"] for r in ok),
            "isomorphic": sum(1 for r in ok if r["iso"]),
        }
        return Unit(counts, {"results": results}, clock)

    @staticmethod
    def _graph(tr, s):
        """One spec through the graph pipeline; an exception is returned, not
        raised, so that it is counted against the spec (e.g. RecursionError
        in the rooted encoding)."""
        try:
            spec = spec_of(s["pairs"], s["n"])
            tree = tr.call("cabling.reduced_plumbing", cabling.reduced_plumbing, spec)
            gram = plumbing.gram_matrix(tree)
            det = tr.call("plumbing.det_exact", plumbing.det_exact, gram)
            # looked up on the module: spanned there in traced runs
            negdef = plumbing.is_negative_definite(gram)
            text = json.dumps({"tree": json.loads(tree.to_json()), "rank": len(tree),
                               "det": abs(det), "negative_definite": negdef})
            iso = None
            if spec.knot.iterations == 2:
                closed = tr.call("cabling.closed_form_two_iter", cabling.closed_form_two_iter, spec)
                iso = tr.call("plumbing.are_isomorphic", plumbing.are_isomorphic, tree, closed)
        except Exception as exc:
            return exc
        return {"rank": len(tree), "det": det, "negdef": negdef, "iso": iso,
                "max_weight": max(tree.weights.values()), "json_bytes": len(text)}

    def check(self, inputs, unit, failures):
        for i, (s, r) in enumerate(zip(inputs, unit.outputs["results"])):
            check_graph(failures, f"{i}:{s['pairs']}:{s['n']}", s, r)


def check_graph(failures, label, spec, r):
    """|det| equals the surgery coefficient, the form is negative definite,
    every weight is <= -2, and two-iteration towers match the closed form."""
    if isinstance(r, Exception):
        failures.add(label, type(r).__name__, str(r))
        return
    if abs(r["det"]) != abs(spec["n"]):
        failures.add(label, "det-not-n", f"{r['det']} vs {spec['n']}")
    if r["negdef"] is not True:
        failures.add(label, "not-negative-definite")
    if r["max_weight"] > -2:
        failures.add(label, "weight-above-minus-2", r["max_weight"])
    if len(spec["pairs"]) == 2 and r["iso"] is not True:
        failures.add(label, "closed-form-not-isomorphic")


WORKLOADS = {w.name: w for w in (DeskAudit(), SingleGraphs(), GraphCalculus())}
