"""Record the benchmark's baseline, run from the root of a checkout:

    python3 perfbench/baseline.py

This is the one command that runs every workload, and it writes
perfbench/baseline.json from scratch.  For each workload it runs run.py
untraced once per seed in SEEDS and reports, per end-to-end metric with
its unit, the median, the quartiles (statistics.quantiles, n=4) and the
quartile distance as a share of the median next to the metric's bound in
BENCHMARK.json; it stops with a nonzero exit at the first run that fails
a check.  The traced runs of TRACED_SEEDS add the per-layer table and the
tracing overhead (traced minus untraced wall time of the same seed's
timed phase).  Last, it runs desk_audit once over the whole desk range,
for the paper's exact counts.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACED_SEEDS = [1, 2]


def run(workload, seed, trace, seconds, size="std"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", size],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout[-3000:]}{proc.stderr[-2000:]}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("counts "):
            printed["counts"] = dict(p.split("=", 1) for p in parts[1:])
        elif line.startswith("verdict_s."):
            printed[parts[0]] = float(parts[1])
        elif line.startswith("item_ms.tail is "):
            printed["item_ms.tail_rank"] = line[len("item_ms.tail is "):]
    return result, printed


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else None,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.python_implementation()} "
                   f"{platform.python_version()}, run_seconds {spec['run_seconds']}",
        "seeds": SEEDS,
        "end_to_end": {}, "printed": {}, "per_layer": {}, "tracing_overhead": {},
    }
    for name in [w["name"] for w in spec["workloads"]]:
        values, printed, walls, ranks = {}, {}, {}, set()
        for seed in SEEDS:
            t0 = time.perf_counter()
            result, extra = run(name, seed, 0, spec["run_seconds"])
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            for key, v in extra.items():
                if key.startswith("verdict_s."):
                    printed.setdefault(key, []).append(v)
            ranks.add(extra["item_ms.tail_rank"])
            walls[seed] = result["metrics"]["wall_s"]["value"]
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        out["end_to_end"][name] = {m: {**summary(v), "bound": bounds[m]} for m, v in values.items()}
        out["printed"][name] = {k: summary(v) for k, v in printed.items()}
        out["printed"][name]["item_ms.tail_rank"] = sorted(ranks)
        for seed in TRACED_SEEDS:
            result, extra = run(name, seed, 1, spec["run_seconds"])
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            out["per_layer"].setdefault(name, {})[str(seed)] = {**layers, "counts": extra.get("counts")}
            traced = layers["trace.wall_s"]
            out["tracing_overhead"].setdefault(name, {})[str(seed)] = {
                "traced_wall_s": traced, "untraced_wall_s": walls[seed],
                "overhead_share": traced / walls[seed] - 1}
        for metric, s in out["end_to_end"][name].items():
            flag = "ok" if s["iqr_share"] is not None and s["iqr_share"] < s["bound"] / 3 else "WIDE"
            print(f"{name} {metric}: median {s['median']:.6g} {units[metric]}, quartiles "
                  f"{s['q1']:.6g} {s['q3']:.6g}, iqr/median {s['iqr_share']:.4f}, bound {s['bound']} {flag}",
                  flush=True)
    result, extra = run("desk_audit", 1, 0, spec["run_seconds"], size="full")
    out["full_desk"] = {"counts": extra.get("counts"), "wall_s": result["metrics"]["wall_s"]["value"]}
    print("full desk", out["full_desk"], flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
