"""knotplumb benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout (the library is imported from its src/):

    python3 perfbench/run.py --workload desk_audit --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): desk_audit, single_graphs, graph_calculus.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are in seconds rescaled to a reference speed of the host
(refclock.py): each is divided by the timing of a fixed kernel taken
around it and multiplied by the kernel's nominal time, so that a shared
host slowing down for a while moves the figures little.

--trace 0 reports the end-to-end metrics.  The workload's inputs are run
in a fixed number of passes (the workload's `passes`), each pass in a
fresh process so that no in-process cache carries from one pass to the
next.  Every pass is checked.  Each item's figure is its best pass, and
wall_s is the best pass's timed phase.  The pass counts are fixed, not
fitted to --seconds, so that a host running slow for a while cannot change
how many passes a figure is the best of; they are sized so that the
passes measure about run_seconds of BENCHMARK.json (30 s) on a 2-core
host.  --seconds is accepted, as the benchmark's command line has it,
but does not change them.  Around the passes the run times fresh-process set-ups (interpreter,
imports, input generation, a temporary directory); setup_s is their median.

--trace 1 runs one pass in this process with every layer crossing spanned
(spans.py), reports the per-layer metrics and writes the spans to
perfbench/out/trace-<workload>-<seed>.jsonl.

--size full runs the whole desk range on desk_audit (the paper's
1005-tuple audit); --size smoke runs the smallest inputs (selftest.py).

Exact counts (search nodes, verdicts, call counts, reduction moves, the
input digest) must agree between the passes of a run, and with earlier
runs of the same workload, seed, size and sources, which are kept in
perfbench/out/counts.json.  The exit code is 0 only when every check
passed; 2 means the checkout has no knotplumb sources.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from refclock import NOMINAL_S, reference_seconds
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = [("wall_s", "s"), ("item_ms.p50", "ms"), ("item_ms.tail", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("lattice.search_s", "s"), ("lattice.nodes", "count"), ("lattice.us_per_node", "us"),
    ("lattice.found", "count"), ("lattice.none", "count"), ("lattice.indeterminate", "count"),
    ("lattice.verify_s", "s"),
    ("plumbing.negdef_s", "s"), ("plumbing.negdef_calls_per_graph", "1/graph"),
    ("plumbing.det_s", "s"), ("plumbing.det_calls_per_graph", "1/graph"),
    ("plumbing.reduce_s", "s"), ("plumbing.reduce_moves", "count"), ("plumbing.iso_s", "s"),
    ("cabling.raw_self_s", "s"), ("cabling.closed_self_s", "s"), ("cabling.raw_vertices", "count"),
    ("hjcf.expand_s", "s"), ("hjcf.expand_calls", "count"),
    ("classify.self_s", "s"), ("classify.parallel_efficiency", "ratio"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.unattributed_s", "s"), ("trace.spans", "count"),
]
PROBES_PER_GAP = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("std", "full", "smoke"), default="std")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--pass-out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail(values):
    """The highest nearest-rank percentile with at least ten samples above
    it, or the maximum when there are fewer than eleven samples.
    Returns (value, percentile, sample count)."""
    v = sorted(values)
    i = len(v) - 11 if len(v) >= 11 else len(v) - 1
    return v[i], 100.0 * (i + 1) / len(v), len(v)


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "knotplumb").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child(args, *flags):
    """Run this script again in a fresh process; returns its wall time."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, *flags]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def guard_counts(key, counts, failures, path):
    """Compare exact counts with those recorded at path by earlier runs of the same key."""
    ledger = json.loads(path.read_text()) if path.exists() else {}
    earlier = ledger.get(key, {})
    for name in sorted(earlier.keys() & counts.keys()):
        if earlier[name] != counts[name]:
            failures.add("counts", "count-mismatch", f"{name}: {earlier[name]} before, {counts[name]} now")
    ledger[key] = {**earlier, **counts}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)


def layer_metrics(tracer, stats, graphs, parallel_efficiency, clock):
    """Per-layer figures of a traced pass, every span rescaled by the
    pass's clock.  The reference kernel runs between items in
    bench.reference spans inside the root span, so their time is taken
    off the root's duration."""
    totals = tracer.totals(clock.interval)
    calls = lambda name: totals.get(name, (0, 0.0, 0.0))[0]
    dur = lambda name: totals.get(name, (0, 0.0, 0.0))[1]
    own = lambda name: totals.get(name, (0, 0.0, 0.0))[2]
    roots = [i for i, s in enumerate(tracer.spans) if s[3] is None and s[0] != "bench.reference"]
    durations, selfs = tracer.self_times(clock.interval)
    nested_refs = sum(durations[i] for i, s in enumerate(tracer.spans)
                      if s[3] is not None and s[0] == "bench.reference")
    nodes = stats["lattice.nodes"]
    per_graph = lambda n: n / graphs if graphs else 0.0
    return {
        "lattice.search_s": own("lattice.find_embedding"),
        "lattice.nodes": nodes,
        "lattice.us_per_node": own("lattice.find_embedding") / nodes * 1e6 if nodes else 0.0,
        "lattice.found": stats["lattice.found"],
        "lattice.none": stats["lattice.none"],
        "lattice.indeterminate": stats["lattice.indeterminate"],
        "lattice.verify_s": dur("lattice.verify_embedding"),
        "plumbing.negdef_s": dur("plumbing.is_negative_definite"),
        "plumbing.negdef_calls_per_graph": per_graph(calls("plumbing.is_negative_definite")),
        "plumbing.det_s": dur("plumbing.det_exact"),
        "plumbing.det_calls_per_graph": per_graph(calls("plumbing.det_exact")),
        "plumbing.reduce_s": dur("plumbing.reduce_tree"),
        "plumbing.reduce_moves": stats["plumbing.reduce_moves"],
        "plumbing.iso_s": dur("plumbing.are_isomorphic"),
        "cabling.raw_self_s": own("cabling.raw_plumbing"),
        "cabling.closed_self_s": own("cabling.closed_form_two_iter"),
        "cabling.raw_vertices": stats["cabling.raw_vertices"],
        "hjcf.expand_s": dur("hjcf.expand_neg_cf"),
        "hjcf.expand_calls": calls("hjcf.expand_neg_cf"),
        "classify.self_s": sum((s for n, (_, _, s) in totals.items() if n.startswith("classify.")), 0.0),
        "classify.parallel_efficiency": parallel_efficiency,
        "cli.self_s": own("cli.main"),
        "trace.wall_s": sum(durations[i] for i in roots) - nested_refs,
        "trace.unattributed_s": sum(selfs[i] for i in roots),
        "trace.spans": len(tracer.spans),
    }


def one_pass(args, workloads, workload, tracer=None):
    """Run and check the workload once in this process."""
    failures = workloads.Failures()
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        inputs = workload.inputs(args.seed, args.size)
        tracer = tracer or NullTracer()
        try:
            unit = workload.run(inputs, tracer, workdir)
        finally:
            tracer.restore()
        workload.check(inputs, unit, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unit.counts["inputs.sha256"] = digest(inputs)
    return inputs, unit, failures


def setup_probe(args):
    """One fresh-process set-up, rescaled by kernel timings around it."""
    before = reference_seconds()
    elapsed = child(args, "--setup-probe")
    return elapsed * NOMINAL_S / ((before + reference_seconds()) / 2)


def untraced(args, workloads, workload):
    failures = workloads.Failures()
    probes = [setup_probe(args) for _ in range(PROBES_PER_GAP)]
    passes = []
    for _ in range(workload.passes):
        fd, path = tempfile.mkstemp(prefix="pass-", suffix=".json", dir=OUT)
        os.close(fd)
        try:
            child(args, "--pass-out", path)
            passes.append(json.loads(Path(path).read_text()))
        finally:
            os.unlink(path)
        probes += [setup_probe(args) for _ in range(PROBES_PER_GAP)]
    for p in passes:
        for entry in p["failures"]:
            if tuple(entry) not in {tuple(e) for e in failures.entries}:
                failures.add(*entry)
    counts = passes[0]["counts"]
    for p in passes[1:]:
        if p["counts"] != counts:
            failures.add("counts", "count-mismatch-between-passes", f"{counts} vs {p['counts']}")
    best = {label: min(p["items_ms"][label] for p in passes) for label in passes[0]["items_ms"]}
    tail_ms, tail_pct, n_items = tail(best.values())
    metrics = {
        "wall_s": min(p["wall_s"] for p in passes),
        "item_ms.p50": statistics.median(best.values()),
        "item_ms.tail": tail_ms,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    extra = {name: (min(p["extra"][name][0] for p in passes), unit)
             for name, (_, unit) in passes[0]["extra"].items()}
    notes = [f"passes {len(passes)}, wall_s of each: " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
             + ", as timed: " + " ".join(f"{p['raw_wall_s']:.3f}" for p in passes),
             f"item_ms.tail is p{tail_pct:.1f} of {n_items} items",
             f"setup probes {len(probes)}: " + " ".join(f"{t:.3f}" for t in probes)]
    return counts, metrics, dict(END_TO_END), extra, notes, failures


def traced(args, workloads, workload):
    tracer = Tracer()
    stats = workloads.instrument(tracer)
    inputs, unit, failures = one_pass(args, workloads, workload, tracer)
    efficiency = workload.parallel(inputs, unit, failures) if hasattr(workload, "parallel") else 0.0
    counts = dict(unit.counts)
    if stats["lattice.nodes"] != counts.get("lattice.nodes", 0):
        failures.add("counts", "span-nodes-differ",
                     f"{stats['lattice.nodes']} from spans, {counts.get('lattice.nodes', 0)} from outputs")
    totals = tracer.totals()
    stats["plumbing.reduce_moves"] = sum(c for n, (c, _, _) in totals.items() if n.startswith("plumbing.move."))
    for name in ("plumbing.det_exact", "plumbing.is_negative_definite", "hjcf.expand_neg_cf"):
        counts[f"calls.{name}"] = totals.get(name, (0,))[0]
    counts["plumbing.reduce_moves"] = stats["plumbing.reduce_moves"]
    counts["cabling.raw_vertices"] = stats["cabling.raw_vertices"]
    metrics = layer_metrics(tracer, stats, counts["items"], efficiency, unit.clock)
    layers = {}
    for name, (_, _, own) in tracer.totals(unit.clock.interval).items():
        layer = "reference kernel" if name == "bench.reference" else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    notes = [f"self {layer} {own:.6f} s" for layer, own in sorted(layers.items())]
    notes.append(f"pass wall_s {unit.wall_s:.6f} s rescaled, {unit.clock.raw_wall:.6f} s as timed")
    tracer.write_jsonl(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    return counts, metrics, dict(PER_LAYER), unit.extra, notes, failures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "knotplumb" / "__init__.py").is_file():
        print(f"error: no knotplumb sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import knotplumb

    if Path(knotplumb.__file__).resolve().parent != (SRC / "knotplumb").resolve():
        print(f"error: knotplumb imported from {knotplumb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        workload.inputs(args.seed, args.size)
        os.rmdir(tempfile.mkdtemp(prefix="probe-", dir=OUT))
        return 0
    if args.pass_out:
        _, unit, failures = one_pass(args, workloads, workload)
        Path(args.pass_out).write_text(json.dumps({
            "wall_s": unit.wall_s, "raw_wall_s": unit.clock.raw_wall, "items_ms": unit.items_ms, "counts": unit.counts,
            "extra": unit.extra, "failures": failures.entries}))
        return 0

    measure = traced if args.trace else untraced
    counts, metrics, units_of, extra, notes, failures = measure(args, workloads, workload)
    guard_counts("|".join([args.workload, str(args.seed), args.size, source_digest()]),
                 counts, failures, OUT / "counts.json")

    attempted = counts["items"]
    failed = min(len(failures.items - {"counts", "pool"}), attempted)
    if failed == 0 and failures.entries:
        failed = 1  # a run-level check failed: the counts or the Pool comparison
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    print(f"inputs sha256 {counts['inputs.sha256']}")
    print("counts " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())
                               if not k.startswith(("exit.", "nodes.witness_", "inputs."))))
    for line in notes:
        print(line)
    for name, (value, unit) in sorted(extra.items()):
        print(f"{name} {value:.6f} {unit}")
    for name, value in metrics.items():
        print(f"{name} {value} {units_of[name]}")
    print(f"failed_frac {failed / attempted} ({failed} of {attempted})")
    for item, kind, detail in failures.entries:
        print(f"FAIL {item} {kind}: {detail}")
    print(json.dumps({
        "correct": not failures.entries,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures.entries else 1


if __name__ == "__main__":
    sys.exit(main())
