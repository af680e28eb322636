"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload at its smallest size (--size smoke), untraced and
   traced: the run exits 0, reports correct with nothing failed, and
   prints exactly the metrics BENCHMARK.json names, with their units.
2. Deliberately corrupted outputs are counted as failures: a witness with
   one entry flipped, a wrong |det|, a lost negative definiteness, a
   weight above -2, a tree unlike the closed form, a family tuple reported
   as obstructed, and a count that differs from an earlier run.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from knotplumb import cabling, classify, plumbing  # noqa: E402

problems = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def smoke_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == dict(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(declared[1] == dict(run.PER_LAYER), "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            result = last_json(proc.stdout)
            what = f"{name} trace {trace}"
            expect(proc.returncode == 0, f"{what}: exit 0 ({proc.stderr[-200:]})")
            expect(result is not None and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what}: correct, nothing failed")
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            expect(got == declared[trace], f"{what}: every declared metric, with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{what}: numeric values")


def corrupted_outputs():
    t = classify.family_tuple("derived", 2, 2)
    spec = workloads.tuple_spec(t)
    gram = plumbing.gram_matrix(cabling.closed_form_two_iter(spec))
    witness = [list(v) for v in classify.known_witness(spec)]

    f = workloads.Failures()
    workloads.check_witness(f, "w", gram, witness)
    expect(not f.entries, "a true witness passes")
    k = next(j for j, x in enumerate(witness[0]) if x)
    witness[0][k] = -witness[0][k]
    f = workloads.Failures()
    workloads.check_witness(f, "w", gram, witness)
    expect(f.items == {"w"}, "a witness with one flipped entry fails")

    good = {"det": -36, "negdef": True, "iso": True, "max_weight": -2}
    graph = {"pairs": [[2, 3], [2, 17]], "n": 36}
    for change, what in (({}, None), ({"det": -37}, "a wrong |det|"),
                         ({"negdef": False}, "a form that is not negative definite"),
                         ({"max_weight": -1}, "a weight above -2"),
                         ({"iso": False}, "a reduced tree unlike the closed form")):
        f = workloads.Failures()
        workloads.check_graph(f, "g", graph, {**good, **change})
        expect(bool(f.entries) == bool(what), f"{what or 'a correct graph'} is "
               f"{'counted as failed' if what else 'accepted'}")
    f = workloads.Failures()
    workloads.check_graph(f, "g", graph, RecursionError("deep"))
    expect(f.entries == [("g", "RecursionError", "deep")], "an exception is listed by its type")

    tuples = [tuple(x) for x in classify.admissible_tuples((2,), (1,), (2,), 8, (2,))]
    rows = classify.sweep(tuples)
    f = workloads.Failures()
    workloads.check_rows(f, tuples, rows)
    expect(not f.entries, "true sweep rows pass")
    flipped = [r if r.key() != t else classify.SweepRow(
        *r.key(), r.n_reduced, r.rank, classify.VerdictKind.OBSTRUCTION_FAILS.value, None, r.nodes, 0)
        for r in rows]
    f = workloads.Failures()
    workloads.check_rows(f, tuples, flipped)
    expect(str(list(t)) in f.items, "a family tuple reported as obstructed fails")

    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        ledger = Path(tmp) / "counts.json"
        f = workloads.Failures()
        run.guard_counts("k", {"lattice.nodes": 5}, f, ledger)
        run.guard_counts("k", {"lattice.nodes": 5}, f, ledger)
        expect(not f.entries, "repeated counts pass")
        run.guard_counts("k", {"lattice.nodes": 6}, f, ledger)
        expect([e[1] for e in f.entries] == ["count-mismatch"], "a changed count fails")


def bare_directory():
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "desk_audit", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the sources: nonzero exit, no result")


def main():
    (HERE / "out").mkdir(exist_ok=True)
    corrupted_outputs()
    bare_directory()
    smoke_runs()
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
