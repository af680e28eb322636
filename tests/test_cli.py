import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import resource
import shlex
import shutil
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest

import knotplumb
from knotplumb import classify, cli, plumbing
from knotplumb.classify import admissible_tuples, desk_range_tuples, family_tuple
from knotplumb.lattice import _sparse, verify_embedding
from knotplumb.plumbing import WeightedTree, gram_matrix

import oracles
from test_classify import count_exact_passes
from test_lattice import run_child


def run_cli(*args, env_extra=None, cwd=None, limits=None):
    # the child imports the package this process imported, installed or not
    src = os.path.dirname(os.path.dirname(knotplumb.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "knotplumb", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        preexec_fn=limits,
    )


def limited(address_space, cpu_seconds):
    """A preexec_fn capping the child's address space (bytes) and CPU
    seconds: the limits fall on that child only."""
    def set_limits():
        for kind, limit in ((resource.RLIMIT_AS, address_space), (resource.RLIMIT_CPU, cpu_seconds)):
            hard = resource.getrlimit(kind)[1]
            resource.setrlimit(kind, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
    return set_limits


def write_chain(path, k):
    tree = WeightedTree(
        {i: -2 for i in range(k)}, [(i, i + 1) for i in range(k - 1)]
    )
    path.write_text(tree.to_json())


# sha256 of every output of TestGraph.test_every_output_is_pinned's grid
GRAPH_OUTPUT_SHA256 = "69761364d62fdf16bcbe807146399d76f35bf3081288869da7f3c4fb52d1e7bb"

# sha256 of the witness files of embed (at the tree's rank and padded to
# rank 100,000) and of sweep --k2-max 12's family witnesses
EMBED_WITNESS_SHA256 = {
    (): "1f7804ba3a9bd93b24de4edfe48e9fdbe711286070cd6a7b73667e3cfb84894b",
    ("--rank", "100000"): "0f1f41169081d8845085980e283cd0c6ba1428acac875fbb1054665bafa24618",
}
SWEEP_WITNESS_SHA256 = {
    "witness_2_3_2_17_36.json": "1f7804ba3a9bd93b24de4edfe48e9fdbe711286070cd6a7b73667e3cfb84894b",
    "witness_2_3_3_26_81.json": "2ec7a46a35e4caa65683077222fb63b61b5896cdf4cd8d741c3d3c3ed673982b",
}


def file_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


class TestContfrac:
    def test_expand(self):
        assert run_cli("contfrac", "7/2").stdout.strip() == "[4,2]"

    def test_dual(self):
        assert run_cli("contfrac", "7/2", "--dual").stdout.strip() == "[2,2,3]"

    def test_eval(self):
        assert run_cli("contfrac", "--eval", "2,2,2").stdout.strip() == "4/3"

    def test_json(self):
        out = json.loads(run_cli("contfrac", "7/2", "--json").stdout)
        assert out == {"value": "7/2", "coefficients": [4, 2]}

    def test_malformed_exits_one(self):
        res = run_cli("contfrac", "7/0")
        assert res.returncode == 1 and "error" in res.stderr
        assert run_cli("contfrac", "14/4").returncode == 1

    @pytest.mark.parametrize(
        "argv",
        [["99999999999999999999999/7", "--dual"], ["1000002/1000001"], ["1000002/1000001", "--reverse", "--json"]],
    )
    def test_refuses_over_a_million_coefficients(self, capsys, argv):
        # the first ran for more than 5 s: every list's length comes from
        # Euclid's quotients before anything is expanded
        start = time.perf_counter()
        assert cli.main(["contfrac", *argv]) == 1
        assert time.perf_counter() - start < 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.endswith("contfrac prints at most 1000000\n")
        # without --dual its list is short
        assert cli.main(["contfrac", "99999999999999999999999/7"]) == 0
        assert capsys.readouterr().out == "[14285714285714285714286,3,2,2]\n"

    @pytest.mark.parametrize(
        "argv",
        [["--eval", "2,3", "--dual"], ["7/2", "--eval", "2,2"], ["--eval", "2,2,2", "--reverse", "--json"]],
    )
    def test_eval_takes_nothing_else(self, capsys, argv):
        # each was dropped silently: --eval 2,3 --dual printed 5/3
        assert cli.main(["contfrac", *argv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --eval takes no fraction, --dual or --reverse\n"


class TestGraph:
    def test_reduced_json(self):
        res = run_cli("graph", "--pairs", "2,3,2,17", "--n", "36", "--reduced", "--json")
        obj = json.loads(res.stdout)
        assert obj["rank"] == 8 and obj["det"] == 36 and obj["negative_definite"]
        tree = WeightedTree.from_json(json.dumps(obj["tree"]))
        assert len(tree) == 8

    def test_non_algebraic_exit_1(self):
        assert run_cli("graph", "--pairs", "2,3,2,11", "--n", "30").returncode == 1

    def test_negative_n_exit_2(self):
        res = run_cli("graph", "--pairs", "2,3,2,17", "--n", "33", "--reduced")
        assert res.returncode == 2

    def test_zero_n_same_error_from_both_builders(self):
        # N = 0: closed form and calculus reject with one message, exit 2
        results = [
            run_cli("graph", "--pairs", "2,3,2,17", "--n", "34", flag)
            for flag in ("--closed-form", "--reduced")
        ]
        assert [res.returncode for res in results] == [2, 2]
        assert results[0].stderr == results[1].stderr
        assert results[0].stderr.startswith("error: N = 0: ")

    def test_one_output_format(self):
        # --dot and --json are one exclusive group, as the kinds are: given
        # both, --json was dropped and the DOT text printed
        for fmt in (["--dot", "--json"], ["--json", "--dot"]):
            res = run_cli("graph", "--pairs", "2,3", "--n", "8", *fmt)
            assert (res.returncode, res.stdout) == (2, ""), fmt
            assert res.stderr.startswith("usage: knotplumb graph"), res.stderr
            assert "not allowed with argument" in res.stderr, res.stderr

    def test_dot_roles(self):
        res = run_cli("graph", "--pairs", "2,3,2,17", "--n", "36", "--closed-form", "--dot")
        assert 'role="node2"' in res.stdout and "--" in res.stdout

    def test_default_text(self):
        res = run_cli("graph", "--pairs", "2,3", "--n", "8")
        assert "rank 4" in res.stdout and "det 8" in res.stdout

    @pytest.mark.parametrize("kind,passes", [("closed-form", 1), ("raw", 1), ("reduced", 1)])
    def test_one_exact_pass_per_built_tree(self, monkeypatch, capsys, kind, passes):
        # the printed det and definiteness are the builder's; --reduced
        # builds the reduced tree directly, with no raw tree to check
        calls = count_exact_passes(monkeypatch)
        tuples = desk_range_tuples()
        for p1, a1, p2, a2, n in tuples:
            calls.clear()
            argv = ["graph", f"--{kind}", "--pairs", f"{p1},{a1},{p2},{a2}", "--n", str(n)]
            assert cli.main(argv) == 0
            assert calls == Counter(kernel=passes), (p1, a1, p2, a2, n)
        # the raw tree carries the positive leaf N
        definite = "no" if kind == "raw" else "yes"
        assert capsys.readouterr().out.count(f"negative definite: {definite}\n") == len(tuples)

    def test_every_output_is_pinned(self, capsys):
        # exit code, stdout and stderr of each kind and format on a fixed
        # grid: one and two iterations, both closed-form families and
        # neither, a tail run, N = 1, N = 0, N < 0, n < 0, a pair with
        # a <= p, a non-coprime pair, a non-algebraic tower and a
        # three-iteration one
        specs = [
            ("2,3", 8), ("2,3", 7), ("2,3", 6), ("2,3", 5), ("2,3", -1), ("3,2", 7),
            ("2,4", 9), ("3,7", 23), ("5,7", 40), ("2,3,2,17", 36), ("2,3,2,17", 34),
            ("2,3,2,17", 33), ("2,3,2,17", 100), ("2,3,2,13", 30), ("2,3,2,11", 30),
            ("3,4,2,25", 53), ("2,3,3,19", 60), ("2,3,3,20", 65), ("3,5,2,31", 64),
            ("5,6,2,61", 130), ("2,3,2,13,2,53", 110), ("2,3,2,13,3,79", 240),
        ]
        digest = hashlib.sha256()
        for pairs, n in specs:
            for kind in ("raw", "reduced", "closed-form"):
                for fmt in ([], ["--json"], ["--dot"]):
                    argv = ["graph", f"--{kind}", "--pairs", pairs, "--n", str(n), *fmt]
                    code = cli.main(argv)
                    out, err = capsys.readouterr()
                    digest.update(repr((argv, code, out, err)).encode())
        assert digest.hexdigest() == GRAPH_OUTPUT_SHA256


# 21 family witnesses and the rank-26 -2-chain refute, as p1,a1,p2,a2 and n
FAMILY_AND_CHAIN_SPECS = [
    (f"{p1},{a1},{p2},{a2}", n)
    for p1, a1, p2, a2, n in sorted(
        {family_tuple("derived", p1, p2) for p1 in range(2, 6) for p2 in range(2, 6)}
        | {family_tuple("family2", 0, p2) for p2 in range(2, 7)}
    )
] + [("2,3,2,53", 108)]

# T(2,3; 2,13) at n = 10^12: a tail of 999,999,999,976 -2's
HUGE_TAIL = ["--pairs", "2,3,2,13", "--n", "1000000000000"]
HUGE_TAIL_ERROR = "error: a tree of 999999999978 vertices; graph and embed build at most 1000000\n"


class TestOversizedTrees:
    def test_refused_before_anything_is_expanded(self, tmp_path):
        # each was killed (exit 137) expanding its tail or torso run; under
        # 200 MB each now ends in one error line, counted from the entries
        runs = [
            (["graph", *HUGE_TAIL], HUGE_TAIL_ERROR),
            (["graph", "--closed-form", *HUGE_TAIL, "--json"], HUGE_TAIL_ERROR),
            (["embed", *HUGE_TAIL, "--out", str(tmp_path)], HUGE_TAIL_ERROR),
            (["embed", *HUGE_TAIL, "--enumerate"], HUGE_TAIL_ERROR),
            # a torso of a billion -2's, which --raw also lays
            (["graph", "--raw", "--pairs", "2,2000000001", "--n", "5"],
             "error: a tree of 1000000003 vertices; graph and embed build at most 1000000\n"),
        ]
        for argv, err in runs:
            res = run_cli(*argv, limits=limited(200 * 10**6, 10))
            assert (res.returncode, res.stdout, res.stderr) == (1, "", err), argv
        assert os.listdir(tmp_path) == []

    def test_sweep_and_audit_refuse_a_huge_square(self, tmp_path):
        # n = 10^12 is square, so its tree would be searched: each was a
        # MemoryError traceback from expanding the tail's rows under 300 MB;
        # now one error line, the tuple's vertices counted from the entries
        # before its sweep searches anything
        err = ("error: invalid ranges: tuple (2, 3, 2, 13, 1000000000000) has a tree of "
               "999999999978 vertices; sweep and audit search at most 1000000\n")
        for command in ("sweep", "audit"):
            out = tmp_path / command
            res = run_cli(command, "--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "6",
                          "--N", "999999999974", "--out", str(out), limits=limited(300 * 10**6, 10))
            assert (res.returncode, res.stdout, res.stderr) == (1, "", err), command
            assert not out.exists()

    def test_sweep_and_audit_refuse_a_huge_range(self, tmp_path):
        # 99,999,995 tuples: each was a MemoryError traceback from building
        # admissible_tuples' set of them under 200 MB; now one error line,
        # the range counted in closed form before any tuple is built
        err = "error: invalid ranges: 99999995 tuples; sweep and audit take at most 2000000\n"
        for command in ("sweep", "audit"):
            out = tmp_path / command
            res = run_cli(command, "--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "100000000",
                          "--N", "2", "--out", str(out), limits=limited(200 * 10**6, 10))
            assert (res.returncode, res.stdout, res.stderr) == (1, "", err), command
            assert not out.exists()

    def test_range_size_is_the_tuple_count(self):
        # the desk range, the wide range and seeded ranges with repeated
        # and unsorted values, negative N, p2 = 2 and k2-max below some
        # p1 * a1: the list is the naive product's distinct tuples sorted,
        # and classify's closed-form count, from the same walk, its length
        ranges = [((2, 3), (1, 2, 3), (2, 3), 25, range(2, 7)),
                  ((2, 3, 4, 5, 7), (1, 2, 3, 4), (2, 3, 4, 5, 7), 150, range(2, 13))]
        rng = random.Random(49)

        def some(lo, hi):
            return [rng.randint(lo, hi) for _ in range(rng.randint(1, 4))]

        for _ in range(3000):
            ranges.append((some(2, 5), some(1, 3), some(2, 5), rng.randint(1, 40), some(-4, 4)))
        for r in ranges[2:]:
            p1s, k1s, p2s, k2_max, ns = r
            naive = [(p1, k1 * p1 + 1, p2, a2, n_red + p2 * a2)
                     for p1 in p1s for k1 in k1s for p2 in p2s
                     for k2 in range(p1 * (k1 * p1 + 1), k2_max + 1)
                     for a2 in (k2 * p2 + 1, k2 * p2 + p2 - 1) for n_red in ns]
            assert admissible_tuples(*r) == sorted(set(naive)), r
        for r in ranges:
            assert classify._range_size(*r) == len(admissible_tuples(*r)), r
        shapes = [(len(set(r[2])) < len(r[2]), 2 in r[2], list(r[0]) != sorted(r[0])) for r in ranges[2:]]
        assert set(shapes) == {(a, b, c) for a in (False, True) for b in (False, True) for c in (False, True)}

    def test_range_limit_is_on_the_tuple_count(self, monkeypatch, capsys, tmp_path):
        # k2 in 6..8 and two N: 6 tuples, refused before the output
        # directory is made
        argv = ["sweep", "--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "8", "--N", "2,3"]
        monkeypatch.setattr(cli, "MAX_TUPLES", 6)
        assert cli.main([*argv, "--out", str(tmp_path / "six")]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7
        monkeypatch.setattr(cli, "MAX_TUPLES", 5)
        assert cli.main([*argv, "--out", str(tmp_path / "five")]) == 1
        assert capsys.readouterr().err == (
            "error: invalid ranges: 6 tuples; sweep and audit take at most 5\n")
        assert not (tmp_path / "five").exists()

    def test_sweep_limit_is_on_the_square_tuples_vertex_count(self, monkeypatch, capsys, tmp_path):
        # (2,3; 2,17) at 36 has 8 reduced vertices; a non-square n past the
        # limit is decided by its determinant and stays in the sweep
        argv = ["sweep", "--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "8", "--N", "2,3",
                "--out", str(tmp_path)]
        monkeypatch.setattr(cli, "MAX_VERTICES", 8)
        assert cli.main(argv) == 0
        assert ",36,2,8,ObstructionPasses," in capsys.readouterr().out
        monkeypatch.setattr(cli, "MAX_VERTICES", 7)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: invalid ranges: tuple (2, 3, 2, 17, 36) has a tree of 8 vertices; "
            "sweep and audit search at most 7\n")
        monkeypatch.setattr(cli, "MAX_VERTICES", 1)
        assert cli.main([*argv[:-3], "3", "--out", str(tmp_path)]) == 0

    def test_raw_tree_of_a_huge_leaf_is_built(self, capsys):
        # --raw keeps N as one leaf, so N = 10^12 is a 14-vertex tree
        assert cli.main(["graph", "--raw", *HUGE_TAIL]) == 0
        assert capsys.readouterr().out == "rank 14\ndet 1000000000000\nnegative definite: no\n"

    @pytest.mark.parametrize("kind", ["raw", "reduced", "closed-form"])
    def test_the_limit_is_on_the_vertex_count(self, monkeypatch, capsys, tmp_path, kind):
        # T(2,3; 2,17) at 36 has 8 reduced vertices and 16 raw ones; a
        # graph file's are counted from its vertex list, before any tree
        size = 16 if kind == "raw" else 8
        spec = ["--pairs", "2,3,2,17", "--n", "36"]
        graph = tmp_path / "g.json"
        monkeypatch.setattr(cli, "MAX_VERTICES", size)
        assert cli.main(["graph", f"--{kind}", *spec]) == 0
        assert capsys.readouterr().out.startswith(f"rank {size}\n")
        assert cli.main(["graph", f"--{kind}", *spec, "--json"]) == 0
        graph.write_text(capsys.readouterr().out)
        monkeypatch.setattr(cli, "MAX_VERTICES", size - 1)
        error = f"error: a tree of {size} vertices; graph and embed build at most {size - 1}\n"
        assert cli.main(["graph", f"--{kind}", *spec]) == 1
        assert capsys.readouterr().err == error

        def no_tree(obj):
            raise AssertionError("a tree was built past the limit")

        monkeypatch.setattr(cli.WeightedTree, "_from_obj", no_tree)
        assert cli.main(["embed", str(graph), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", error)
        assert os.listdir(tmp_path) == ["g.json"]
        if kind == "reduced":
            assert cli.main(["embed", *spec, "--out", str(tmp_path)]) == 1
            assert os.listdir(tmp_path) == ["g.json"]


class TestEmbed:
    def test_spec_searches_what_its_graph_file_would(self, tmp_path, capsys):
        # embed --pairs searches the junction builder's rows, ids 0..n-1;
        # graph --json writes reduced_plumbing's tree, whose ids have gaps
        # but sort in the same order: the same lines, node counts included,
        # and the same witness rows
        runs = [(pairs, n, []) for pairs, n in FAMILY_AND_CHAIN_SPECS]
        runs += [("2,3,2,17", 36, flags) for flags in (["--rank", "12"], ["--enumerate"])]
        for pairs, n, flags in runs:
            spec, out = ["--pairs", pairs, "--n", str(n)], tmp_path / "out"
            assert cli.main(["graph", *spec, "--json"]) == 0
            graph = tmp_path / "g.json"
            graph.write_text(capsys.readouterr().out)
            results = []
            for source in (spec, [str(graph)]):
                code = cli.main(["embed", *source, *flags, "--out", str(out)])
                lines = capsys.readouterr().out.splitlines()
                witness = None
                if lines[-1].startswith("witness written to "):
                    witness_path = lines.pop()[len("witness written to "):]
                    with open(witness_path) as fh:
                        witness = fh.read()
                    os.unlink(witness_path)
                results.append((code, lines, witness))
            assert results[0] == results[1], (pairs, n, flags)
            assert results[0][0] == (3 if pairs == "2,3,2,53" else 0)
            assert (results[0][2] is None) == (results[0][0] == 3 or flags == ["--enumerate"])
        assert results[0][1][:2] == ["1 embedding class(es) into rank 8", "class 1:"]

    def test_rank_far_above_the_vertex_count_is_refused(self, tmp_path):
        # --rank 10**8 padded the 8-vector witness to 8 * 10**8 entries, a
        # MemoryError traceback under a 2 GB address space; the rank is
        # refused before anything is built
        for enumerate_ in ([], ["--enumerate"]):
            res = run_cli(
                "embed", "--pairs", "2,3,2,17", "--n", "36", "--rank", "100000000",
                *enumerate_, "--out", str(tmp_path), limits=limited(2 * 10**9, 20),
            )
            assert res.returncode == 1, res.stderr
            assert res.stderr == "error: --rank 100000000; embed takes a rank of at most 1000000\n"
        assert os.listdir(tmp_path) == []

    def test_family_one_at_p2_401(self, tmp_path):
        # leg 2 weighs -401, and its untouched fills would number 1,899,244:
        # a MemoryError traceback under this 2 GB address space while the
        # heavy vertices were placed amid the -2's; 0.5 s for 1,610 nodes
        # on a 2-core host
        res = run_cli(
            "embed", "--pairs", "2,3,401,3608", "--n", "1447209", "--out", str(tmp_path),
            limits=limited(2 * 10**9, 20),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "embedding found into rank 806 (1610 nodes)"
        assert os.listdir(tmp_path) == ["witness_2_3_401_3608_1447209.json"]

    def test_spec_found(self, tmp_path):
        res = run_cli(
            "embed", "--pairs", "2,3,2,17", "--n", "36", "--out", str(tmp_path)
        )
        assert res.returncode == 0
        path = tmp_path / "witness_2_3_2_17_36.json"
        obj = json.loads(path.read_text())
        assert obj["rank"] == 8
        from knotplumb.cabling import CableTower, SurgerySpec, closed_form_two_iter

        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        gram = gram_matrix(closed_form_two_iter(spec))
        assert verify_embedding(gram, [tuple(v) for v in obj["vectors"]])

    def test_chain4_rank4_exit_3(self, tmp_path):
        f = tmp_path / "chain4.json"
        write_chain(f, 4)
        assert run_cli("embed", str(f), "--rank", "4").returncode == 3

    def test_chain3_enumerate(self, tmp_path):
        f = tmp_path / "chain3.json"
        write_chain(f, 3)
        res = run_cli("embed", str(f), "--rank", "3", "--enumerate")
        assert res.returncode == 0
        assert "1 embedding class(es)" in res.stdout

    def test_config_budget_with_enumerate(self, tmp_path):
        # budget= in a config file is a default for the search, not an error
        f = tmp_path / "chain3.json"
        write_chain(f, 3)
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("budget=1\n")
        res = run_cli("--config", str(cfg), "embed", str(f), "--rank", "3", "--enumerate")
        assert res.returncode == 0, res.stderr
        assert "1 embedding class(es)" in res.stdout

    def test_non_square_n_is_still_searched(self, tmp_path):
        # classify_one decides n = 108 by the determinant; embed searches
        res = run_cli("embed", "--pairs", "2,3,2,53", "--n", "108", "--out", str(tmp_path))
        assert res.returncode == 3
        assert res.stdout.strip() == "no embedding into rank 26 (exhausted after 27 nodes)"

    def test_not_negative_definite_exit_1(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(WeightedTree({0: 0}, []).to_json())
        assert run_cli("embed", str(f)).returncode == 1

    def test_budget_exit_4(self, tmp_path):
        res = run_cli(
            "embed", "--pairs", "2,3,2,17", "--n", "38", "--budget", "2",
            "--out", str(tmp_path),
        )
        assert res.returncode == 4

    def test_memory_is_linear_in_the_path(self, tmp_path, capsys):
        # embed searches the tree and builds no n x n Gram matrix: doubling
        # a -2 path (refuted at rank n) must not quadruple the peak
        peaks = []
        for k in (1001, 2001):
            f = tmp_path / f"path{k}.json"
            write_chain(f, k)
            tracemalloc.start()
            try:
                assert cli.main(["embed", str(f), "--out", str(tmp_path)]) == 3
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr().out.startswith("no embedding into rank 1001")
        assert peaks[1] <= 2.5 * peaks[0], peaks

    @pytest.mark.parametrize("rank", EMBED_WITNESS_SHA256)
    def test_witness_file_is_pinned(self, tmp_path, capsys, rank):
        argv = ["embed", "--pairs", "2,3,2,17", "--n", "36", *rank, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert file_digests(tmp_path) == {"witness_2_3_2_17_36.json": EMBED_WITNESS_SHA256[rank]}

    def test_rank_a_million_witness_stays_sparse(self, tmp_path):
        # the 8 vectors of (2,3; 2,17) at 36, at rank 10^6, are rendered and
        # written from their nonzero entries: dense, they needed 99 MB of
        # address space; sparse, about 27 MB on a 2-core host (CPython 3.11)
        res = run_cli("embed", "--pairs", "2,3,2,17", "--n", "36", "--rank", "1000000",
                      "--out", str(tmp_path), limits=limited(60 * 2**20, 20))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "embedding found into rank 1000000 (15 nodes)"
        assert file_digests(tmp_path) == {
            "witness_2_3_2_17_36.json": "eafbcd2ebf12649589893af44228e271f9fc7c1264d5d7242b45ec69661af13d"}

    def test_enumerate_at_rank_a_million_stays_sparse(self, tmp_path):
        # the 4 classes of (2,3; 2,17) at 36, canonicalised and printed
        # sparse at rank 10^6: about 21,500 KB of address space on a 2-core
        # host (CPython 3.11), where padding each class densely needed
        # about 279,400 KB
        res = run_cli("embed", "--pairs", "2,3,2,17", "--n", "36", "--enumerate",
                      "--rank", "1000000", "--out", str(tmp_path), limits=limited(64 * 2**20, 20))
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "58fe559f0fddd60144a28728b811cbba9f950784fb1a65ffee33fa6b80530591")
        assert os.listdir(tmp_path) == []

    def test_witness_text_is_json_dumps_byte_for_byte(self, tmp_path):
        rng = random.Random(43)
        witnesses = [(), ((0,),), ((-1,),), ((0, 0, 0), (0, 0, 7)), ((5, 0, 0), (0, -10**30, 0))]
        for _ in range(200):
            rank = rng.randint(1, 40)
            witnesses.append(tuple(
                tuple(rng.choice((0, 0, 0, 1, -1, rng.randint(-10**20, 10**20))) for _ in range(rank))
                for _ in range(rng.randint(1, 6))
            ))
        for i, w in enumerate(witnesses):
            rank = len(w[0]) if w else 0
            path = cli._write_witness(str(tmp_path), [i], [_sparse(v) for v in w], rank)
            with open(path) as fh:
                assert fh.read() == json.dumps({"rank": rank, "vectors": [list(v) for v in w]})

    def test_env_out_dir(self, tmp_path):
        res = run_cli(
            "embed", "--pairs", "2,3,2,17", "--n", "36",
            env_extra={"KNOTPLUMB_OUT": str(tmp_path)},
        )
        assert res.returncode == 0
        assert (tmp_path / "witness_2_3_2_17_36.json").exists()


SWEEP_ARGS = ["--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "9", "--N", "2,3"]
# reaches (2, 3, 2, 13, 0): N = -26 = -p2*a2
ZERO_N_ARGS = ["--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "6", "--N=-26"]


class TestSweepCli:
    def test_csv_deterministic_across_workers(self, tmp_path):
        # the pool pickles each row's sparse vectors back to the parent:
        # the same CSV, but for the --out it names, and the same witness
        # files from either worker count, on SWEEP_ARGS and on the range
        # whose witnesses are pinned
        for args, witnesses in ((SWEEP_ARGS, 1), (["--k2-max", "12"], 2)):
            outs, digests = [], []
            for workers in ("1", "2"):
                out = tmp_path / f"{witnesses}_{workers}"
                res = run_cli(
                    "sweep", *args, "--workers", workers, "--out", str(out)
                )
                assert res.returncode == 0
                outs.append(res.stdout.replace(str(out), "OUT"))
                digests.append(file_digests(out))
            assert outs[0] == outs[1]
            assert digests[0] == digests[1] and len(digests[0]) == witnesses
        assert digests[0] == SWEEP_WITNESS_SHA256
        header = outs[0].split("\n", 1)[0]
        assert header == "p1,a1,p2,a2,n,N,rank,verdict,witness_file,nodes,ms"

    def test_csv_file_and_witnesses(self, tmp_path):
        res = run_cli(
            "sweep", "--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "8",
            "--N", "2", "--csv", str(tmp_path / "rows.csv"), "--out", str(tmp_path),
        )
        assert res.returncode == 0
        text = (tmp_path / "rows.csv").read_text()
        assert "ObstructionPasses" in text
        assert (tmp_path / "witness_2_3_2_17_36.json").exists()

    def test_family_witness_files_are_pinned(self, tmp_path, capsys):
        assert cli.main(["sweep", "--k2-max", "12", "--out", str(tmp_path)]) == 0
        assert file_digests(tmp_path) == SWEEP_WITNESS_SHA256

    def test_invalid_ranges_exit_1(self):
        assert run_cli("sweep", "--p1", "1", "--k1", "1").returncode == 1
        assert run_cli("sweep", "--N", "x").returncode == 1

    def test_huge_N(self, tmp_path, capsys):
        # n = 10^12 + 2 a2 is no square: each row is decided by the builder's
        # pass, its tail of N - 1 -2's one run, and its rank is N + 5 + l
        N = 10**12
        argv = ["sweep", "--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "8", "--N", str(N)]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"2,3,2,{a2},{N + 2 * a2},{N},{N + 5 + l},ObstructionFails,,0,"
            for a2, l in ((13, -1), (15, 0), (17, 1))
        ]


def ms_cells(csv_text):
    """The ms column of a sweep CSV, one cell per row."""
    header, *rows = csv_text.strip().split("\n")
    assert header.endswith(",ms")
    return [row.rsplit(",", 1)[1] for row in rows]


def test_timing_fills_ms_and_the_default_leaves_it_empty(tmp_path, capsys):
    # --timing, or timing=true in a config file, fills every ms cell of
    # sweep's and audit --csv's rows with a whole number of milliseconds;
    # the default leaves them empty, so reruns match byte for byte
    out = ["--out", str(tmp_path)]
    cfg = tmp_path / "timing.cfg"
    cfg.write_text("timing=true\n")
    csv_path = str(tmp_path / "rows.csv")
    timed = []
    for argv in (
        ["sweep", *SWEEP_ARGS, "--timing", *out],
        ["--config", str(cfg), "sweep", *SWEEP_ARGS, *out],
    ):
        assert cli.main(argv) == 0
        timed.append(capsys.readouterr().out)
    assert cli.main(["audit", *SWEEP_ARGS, "--csv", csv_path, "--timing", *out]) == 0
    capsys.readouterr()
    with open(csv_path, encoding="utf-8") as fh:
        timed.append(fh.read())
    for text in timed:
        cells = ms_cells(text)
        assert cells and all(cell.isdigit() for cell in cells), text
    plain = []
    for _ in range(2):
        assert cli.main(["sweep", *SWEEP_ARGS, *out]) == 0
        plain.append(capsys.readouterr().out)
    assert plain[0] == plain[1]
    assert cli.main(["audit", *SWEEP_ARGS, "--csv", csv_path, *out]) == 0
    capsys.readouterr()
    with open(csv_path, encoding="utf-8") as fh:
        assert fh.read() == plain[0]
    assert set(ms_cells(plain[0])) == {""}


class TestAuditCli:
    def test_derived_perfect_exit_0(self, tmp_path):
        res = run_cli("audit", *SWEEP_ARGS, "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr
        report = json.loads(res.stdout)
        assert report["perfect"] and report["family1_form"] == "derived"

    def test_printed_form_disagrees(self, tmp_path):
        res = run_cli(
            "audit", *SWEEP_ARGS, "--family-form", "printed", "--out", str(tmp_path)
        )
        assert res.returncode == 5
        report = json.loads(res.stdout)
        assert report["disagreements"]

    @pytest.mark.parametrize("form, code", [("derived", 0), ("printed", 5)])
    def test_renders_no_csv_without_csv(self, tmp_path, monkeypatch, capsys, form, code):
        # audit prints its report, not the CSV: with no --csv it renders
        # none, and prints and exits as a run with --csv does
        argv = ["audit", *SWEEP_ARGS, "--family-form", form, "--out", str(tmp_path)]
        assert cli.main([*argv, "--csv", str(tmp_path / "rows.csv")]) == code
        with_csv = capsys.readouterr()

        def no_csv(*args, **kwargs):
            raise AssertionError("rendered a CSV that nothing writes")

        monkeypatch.setattr(cli, "rows_to_csv", no_csv)
        assert cli.main(argv) == code
        assert capsys.readouterr() == with_csv


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("shenanigans=1\n")
        res = run_cli("--config", str(cfg), "contfrac", "7/2")
        assert res.returncode == 1 and "unknown config key" in res.stderr

    def test_config_supplies_out_dir(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(f"# comment line\nout={tmp_path}\nworkers=1\n")
        res = run_cli("--config", str(cfg), "embed", "--pairs", "2,3,2,17", "--n", "36")
        assert res.returncode == 0
        assert (tmp_path / "witness_2_3_2_17_36.json").exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        other = tmp_path / "elsewhere"
        cfg.write_text(f"out={tmp_path}\n")
        res = run_cli(
            "--config", str(cfg), "embed", "--pairs", "2,3,2,17", "--n", "36",
            "--out", str(other),
        )
        assert res.returncode == 0
        assert (other / "witness_2_3_2_17_36.json").exists()
        assert not (tmp_path / "witness_2_3_2_17_36.json").exists()


class TestAtomicWrites:
    def test_new_file_gets_the_mode_open_would_give(self, tmp_path):
        (tmp_path / "plain.csv").write_text("")
        cli._write_text(str(tmp_path / "rows.csv"), ["a,b\n"])
        assert (tmp_path / "rows.csv").read_text() == "a,b\n"
        assert (tmp_path / "rows.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["plain.csv", "rows.csv"]

    def test_write_failing_midway_keeps_the_old_file(self, tmp_path):
        # the witness is 240 bytes; a 100-byte file size limit fails its
        # write part way, where a plain open(path, "w") had already
        # truncated the old file
        witness = tmp_path / "witness_2_3_2_17_36.json"
        witness.write_bytes(b"the previous witness\n")
        code = (
            "import resource, sys\n"
            "from knotplumb import cli\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (100, hard))\n"
            f"sys.exit(cli.main(['embed', '--pairs', '2,3,2,17', '--n', '36', '--out', {str(tmp_path)!r}]))\n"
        )
        res = run_child(code)
        assert res.returncode == 1, res.stderr
        assert res.stderr == f"error: cannot write {witness}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
        assert witness.read_bytes() == b"the previous witness\n"
        assert os.listdir(tmp_path) == [witness.name]

    def test_symlinked_target_updates_the_file_it_points_to(self, tmp_path):
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "rows.csv"
        real.write_text("old\n")
        link = tmp_path / "rows.csv"
        link.symlink_to(real)
        cli._write_text(str(link), ["a,b\n"])
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "a,b\n"
        assert os.listdir(tmp_path / "data") == ["rows.csv"]

    def test_symlinked_directory_gets_the_file(self, tmp_path, monkeypatch):
        # a sibling through the linked directory lands beside the file, so
        # the path is not resolved: only a symlink at its end would be
        real = tmp_path / "real"
        real.mkdir()
        (real / "witness_2_3_2_17_36.json").write_text("old\n")
        link = tmp_path / "link"
        link.symlink_to(real, target_is_directory=True)

        def no_resolving(path):
            raise AssertionError(f"{path} was resolved")

        monkeypatch.setattr(os.path, "realpath", no_resolving)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["embed", "--pairs", "2,3,2,17", "--n", "36", "--out", str(link)]) == 0
        cli._write_text(str(link / "rows.csv"), ["a,b\n"])
        assert link.is_symlink()
        assert sorted(os.listdir(real)) == ["rows.csv", "witness_2_3_2_17_36.json"]
        assert (real / "rows.csv").read_text() == "a,b\n"
        assert hashlib.sha256((real / "witness_2_3_2_17_36.json").read_bytes()).hexdigest() == \
            EMBED_WITNESS_SHA256[()]

    def test_fifo_target_is_written_in_place(self, tmp_path):
        # the stand-in for /dev/null, /dev/stdout or a process
        # substitution: renaming a sibling over it would replace the node
        fifo = tmp_path / "rows.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        cli._write_text(str(fifo), ["a", ",b\n"])
        reader.join(timeout=30)
        assert got == ["a,b\n"]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_parts_failing_midway_keep_the_old_file(self, tmp_path):
        # the first part fills more than a write buffer, so the sibling
        # holds some of the text when the second fails
        target = tmp_path / "witness_w.json"
        target.write_bytes(b"the previous witness\n")

        def parts():
            yield "[" + "0, " * 10**5
            raise RuntimeError("no second row")

        with pytest.raises(RuntimeError, match="no second row"):
            cli._write_text(str(target), parts())
        assert target.read_bytes() == b"the previous witness\n"
        assert os.listdir(tmp_path) == [target.name]

    def test_dev_null_is_written_in_place(self, monkeypatch):
        def no_sibling(*args):
            raise AssertionError("a device was written through a sibling")

        monkeypatch.setattr(os, "open", no_sibling)
        monkeypatch.setattr(os, "replace", no_sibling)
        written = []

        def parts():
            for part in ("a", ",b\n"):
                written.append(part)
                yield part

        cli._write_text(os.devnull, parts())
        assert written == ["a", ",b\n"]
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_witness_is_written_row_by_row(self, tmp_path, monkeypatch):
        # no part holds more than one row's text
        parts = []
        write_text = cli._write_text
        monkeypatch.setattr(cli, "_write_text", lambda path, it: write_text(path, (
            parts.append(part) or part for part in it)))
        path = cli._write_witness(str(tmp_path), ["w"], [[(0, 1), (2, -1)], [(1, 2)]], 3)
        assert [part for part in parts if part] == [
            '{"rank": 3, "vectors": [', "[1, 0, -1]", ", ", "[0, 2, 0]", "]}"]
        with open(path) as fh:
            assert fh.read() == '{"rank": 3, "vectors": [[1, 0, -1], [0, 2, 0]]}'
        assert cli._row_text((), 0) == "[]"
        assert cli._row_text((), 2) == "[0, 0]"

    def test_row_text_is_made_once(self):
        # a rank-10^6 row with one nonzero entry is 3.0 MB of text; joined
        # once, with its zeros as pieces of one shared string, it peaks near
        # that (at 9.0 MB when the joined text was sliced and bracketed)
        tracemalloc.start()
        try:
            text = cli._row_text([(500_000, -1)], 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vec = [0] * 10**6
        vec[500_000] = -1
        assert text == json.dumps(vec)
        assert peak <= 1.5 * len(text), (peak, len(text))

    def test_directory_target_gives_the_plain_open_error(self, tmp_path):
        with pytest.raises(cli.CliError) as err:
            cli._write_text(str(tmp_path), ["a,b\n"])
        assert str(err.value) == f"cannot write {tmp_path}: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path}'"
        assert os.listdir(tmp_path) == []


BAD_INPUTS = {
    "missing-graph": ["embed", "missing.json"],
    "graph-not-json": ["embed", "notjson.json"],
    "graph-not-a-tree": ["embed", "dupedge.json"],
    "graph-not-connected": ["embed", "triangle.json"],
    "graph-loop-edge": ["embed", "loop.json"],
    "graph-bool-weight": ["embed", "weight-bool.json"],
    "graph-bool-id": ["embed", "id-bool.json"],
    "graph-bool-edge": ["embed", "edge-bool.json"],
    "graph-duplicate-id": ["embed", "dupid.json"],
    "graph-deeply-nested": ["embed", "nested.json"],
    "rank-zero": ["embed", "chain3.json", "--rank", "0"],
    "rank-huge": ["embed", "chain3.json", "--rank", "99999999999999999999"],
    "rank-zero-enumerate": ["embed", "chain3.json", "--rank", "0", "--enumerate"],
    "config-missing": ["--config", "missing.cfg", "embed", "chain3.json"],
    "config-workers-not-int": ["--config", "workers.cfg", "embed", "chain3.json"],
    "config-order-removed": ["--config", "order.cfg", "embed", "chain3.json"],
    "config-not-utf8": ["--config", "notutf8.cfg", "sweep", *SWEEP_ARGS],
    "workers-zero": ["sweep", *SWEEP_ARGS, "--workers", "0"],
    "budget-zero-embed": ["embed", "chain3.json", "--budget", "0"],
    "budget-negative-embed": ["embed", "chain3.json", "--budget", "-1"],
    "budget-zero-sweep": ["sweep", *SWEEP_ARGS, "--budget", "0"],
    "config-budget-zero": ["--config", "budget.cfg", "embed", "chain3.json"],
    "embed-out-unwritable": ["embed", "--pairs", "2,3,2,17", "--n", "36", "--out", "plain/x"],
    "sweep-out-unwritable": ["sweep", *SWEEP_ARGS, "--out", "plain/x"],
    "sweep-csv-unwritable": ["sweep", *SWEEP_ARGS, "--csv", "plain/x.csv"],
    "audit-csv-unwritable": ["audit", *SWEEP_ARGS, "--csv", "plain/x.csv"],
    "sweep-n-zero": ["sweep", *ZERO_N_ARGS],
    "audit-n-zero": ["audit", *ZERO_N_ARGS],
    "locally-minimal-without-enumerate": ["embed", "chain3.json", "--locally-minimal"],
    "budget-with-enumerate": ["embed", "chain3.json", "--enumerate", "--budget", "1"],
    "graph-n-huge": ["graph", "--pairs", "2,3", "--n", "99999999999999999999999999999"],
    "embed-n-huge": ["embed", "--pairs", "2,3,2,17", "--n", "99999999999999999999999999999"],
    # a graph file took --pairs and --n silently and searched the file
    "embed-graph-and-spec": ["embed", "chain3.json", "--pairs", "2,3,2,17", "--n", "36"],
    "embed-missing-graph-and-n": ["embed", "missing.json", "--n", "9"],
}


@pytest.mark.parametrize(
    "argv, field",
    [
        (["graph", "--pairs", "2,,3,2,13", "--n", "30", "--reduced"], "2,,3,2,13"),
        (["graph", "--pairs", ",2,3,", "--n", "8"], ",2,3,"),
        (["contfrac", "--eval", "2,,3"], "2,,3"),
        (["sweep", *SWEEP_ARGS, "--p1", "2,"], "2,"),
        (["sweep", *SWEEP_ARGS, "--k1", ",1"], ",1"),
        (["audit", *SWEEP_ARGS, "--p2", "2,,3"], "2,,3"),
        (["audit", *SWEEP_ARGS, "--N", ""], ""),
    ],
)
def test_empty_list_field_is_an_error(capsys, argv, field):
    # an empty field was skipped: --pairs 2,,3,2,13 ran as 2,3,2,13
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: expected a comma-separated integer list, got {field!r}\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["graph", "--pairs", "2,3,2,1_7", "--n", "36", "--reduced"], "2,3,2,1_7"),
        (["graph", "--pairs", "2,3,+2,17", "--n", "36"], "2,3,+2,17"),
        (["embed", "--pairs", "2,\uff13", "--n", "9"], "2,\uff13"),
        (["contfrac", "--eval", " 2, 2,+2"], " 2, 2,+2"),
        (["contfrac", "--eval", "2,2\n"], "2,2\n"),
        (["sweep", *SWEEP_ARGS, "--k1", "1_0"], "1_0"),
        (["audit", *SWEEP_ARGS, "--N", "2, 3"], "2, 3"),
        (["sweep", *SWEEP_ARGS, "--p2=--2"], "--2"),
    ],
)
def test_list_field_must_be_plain_ascii_digits(capsys, argv, field):
    # int() took these: --pairs 2,3,2,1_7 ran as 2,3,2,17 and
    # --eval ' 2, 2,+2' printed 4/3
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: expected a comma-separated integer list, got {field!r}\n"


def test_list_field_may_be_negative(capsys):
    assert cli.main(["contfrac", "--eval=-2,3"]) == 1  # parsed, then not canonical
    assert "non-canonical" in capsys.readouterr().err
    assert cli.main(["contfrac", "--eval", "02,3"]) == 0
    assert capsys.readouterr().out == "5/3\n"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["graph", "--pairs", "2,3,2,17", "--n", "3_6", "--reduced"], "--n", "3_6"),
        (["graph", "--pairs", "2,3", "--n", " 36"], "--n", " 36"),
        (["graph", "--pairs", "2,3", "--n", "+36"], "--n", "+36"),
        (["embed", "--pairs", "2,3,2,17", "--n", "36", "--budget", "1_0"], "--budget", "1_0"),
        (["embed", "chain3.json", "--rank", "\uff13"], "--rank", "\uff13"),
        (["sweep", *SWEEP_ARGS, "--workers", "2 "], "--workers", "2 "),
        (["audit", *SWEEP_ARGS, "--k2-max", "9_0"], "--k2-max", "9_0"),
        (["graph", "--pairs", "2,3", "--n", "abc"], "--n", "abc"),  # the form kept
    ],
)
def test_scalar_flag_must_be_plain_ascii_digits(capsys, argv, flag, value):
    # int() took these: --n 3_6 ran with n = 36
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize(
    "fraction, field",
    [("1_5/2", "1_5"), ("15/ 2", " 2"), ("+7/2", "+7"), ("7/\uff12", "\uff12"), ("1_5", "1_5"),
     ("7/x", "x")],
)
def test_contfrac_fraction_must_be_plain_ascii_digits(capsys, fraction, field):
    # int() took these: contfrac 1_5/2 printed [8,2]
    assert cli.main(["contfrac", fraction]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: invalid literal for int() with base 10: {field!r}\n"


@pytest.mark.parametrize("line", ["budget=1_0", "workers= +2", "budget=\uff11", "budget=abc"])
def test_config_integer_must_be_plain_ascii_digits(tmp_path, capsys, line):
    # int() took budget=1_0 as a budget of 10
    cfg = tmp_path / "ints.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    argv = ["--config", str(cfg), "embed", "--pairs", "2,3,2,17", "--n", "36", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {cfg}:1: int expected for {line.partition('=')[0]}\n"


def test_scalar_integers_may_be_negative(capsys):
    # parsed, then refused by the tower: N = -42 < 0
    assert cli.main(["graph", "--pairs", "2,3", "--n=-36", "--reduced"]) == 2
    assert "N = -42 < 0" in capsys.readouterr().err
    assert cli.main(["contfrac", "07/2"]) == 0
    assert capsys.readouterr().out == "[4,2]\n"


@pytest.mark.parametrize("command", ["sweep", "audit"])
def test_unwritable_out_fails_before_searching(tmp_path, monkeypatch, capsys, command):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking --out")

    monkeypatch.setattr(cli, "sweep", no_search)
    (tmp_path / "plain").write_text("a regular file\n")
    code = cli.main([command, *SWEEP_ARGS, "--out", str(tmp_path / "plain" / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot create output directory")


@pytest.mark.parametrize("command", ["sweep", "audit"])
def test_huge_framing_fails_before_searching(tmp_path, monkeypatch, capsys, command):
    def no_search(*args, **kwargs):
        raise AssertionError("searched a framing beyond sys.maxsize")

    monkeypatch.setattr(cli, "sweep", no_search)
    huge = str(sys.maxsize + 2)
    code = cli.main([command, *SWEEP_ARGS, "--N", f"2,{huge}", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: invalid ranges: N - 1 must be at most {sys.maxsize}\n"


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_an_error_not_a_traceback(tmp_path, argv):
    write_chain(tmp_path / "chain3.json", 3)
    (tmp_path / "notjson.json").write_text("not json\n")
    vertices = [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}]
    (tmp_path / "dupedge.json").write_text(
        json.dumps({"vertices": vertices, "edges": [[0, 1], [1, 0]]})
    )
    four = [{"id": v, "weight": -2} for v in range(4)]
    (tmp_path / "triangle.json").write_text(
        json.dumps({"vertices": four, "edges": [[0, 1], [1, 2], [0, 2]]})
    )
    (tmp_path / "loop.json").write_text(
        json.dumps({"vertices": vertices, "edges": [[0, 1], [1, 1]]})
    )
    (tmp_path / "weight-bool.json").write_text(
        json.dumps({"vertices": [{"id": 0, "weight": True}], "edges": []})
    )
    (tmp_path / "id-bool.json").write_text(
        json.dumps({"vertices": [{"id": True, "weight": -2}], "edges": []})
    )
    (tmp_path / "edge-bool.json").write_text(
        json.dumps({"vertices": vertices, "edges": [[0, True]]})
    )
    (tmp_path / "dupid.json").write_text(
        json.dumps({"vertices": [{"id": 0, "weight": -2}, {"id": 0, "weight": -3}], "edges": []})
    )
    (tmp_path / "nested.json").write_text("[" * 100_000)
    (tmp_path / "notutf8.cfg").write_bytes(b"\xff\xfe\x00bad")
    (tmp_path / "workers.cfg").write_text("workers=abc\n")
    (tmp_path / "order.cfg").write_text("order=weight\n")
    (tmp_path / "budget.cfg").write_text("budget=0\n")
    (tmp_path / "plain").write_text("a regular file, so plain/x cannot be created\n")
    argv = [str(tmp_path / a) if a.endswith((".json", ".cfg")) or "/" in a else a for a in argv]
    if "--out" not in argv and argv[0] != "graph":  # graph writes no files
        argv += ["--out", str(tmp_path)]
    res = run_cli(*argv)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr, res.stderr
    if argv[1].endswith(("bool.json", "triangle.json", "loop.json", "dupid.json", "nested.json")):
        assert ": not a plumbing tree: " in res.stderr, res.stderr
    if argv[1].endswith("loop.json"):
        assert "loop edge at vertex 1" in res.stderr, res.stderr
    if argv[0] == "embed" and ("--pairs" in argv or "--n" in argv) and argv[1].endswith(".json"):
        # refused before the file is opened
        assert res.stderr == "error: give a graph file, or --pairs and --n, not both\n", res.stderr
    if argv[1].endswith("notutf8.cfg"):
        assert res.stderr.startswith("error: cannot read config: "), res.stderr


def test_product_commands_run_no_calculus(tmp_path, monkeypatch):
    # graph, embed and audit build their trees by the junction rule or the
    # closed form; the plumbing calculus (reduce_tree) is the tests' oracle
    # and a public function, and a command that came to reduce a raw tree
    # again would need a benchmark workload for it
    def calculus(tree):
        raise AssertionError("a command ran the plumbing calculus")

    monkeypatch.setattr(plumbing, "_Reduction", calculus)
    spec = ["--pairs", "2,3,2,17", "--n", "36"]
    out = ["--out", str(tmp_path)]
    runs = [
        (["graph", *spec, "--reduced"], 0),
        (["graph", *spec, "--closed-form"], 0),
        (["graph", *spec, "--raw"], 0),
        (["embed", *spec, *out], 0),  # a witness
        (["embed", "--pairs", "2,3,2,15", "--n", "36", *out], 3),  # refuted
        (["audit", "--k2-max", "12", "--workers", "1", *out], 0),
    ]
    assert [cli.main(argv) for argv, _ in runs] == [code for _, code in runs]


# -- the parser ---------------------------------------------------------------


def readme_commands():
    """The argv of each command in README.md's "Command line" block."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line.split("#", 1)[0]) for line in lines if line.strip()]
    assert commands and all(argv[0] == "knotplumb" for argv in commands)
    return [argv[1:] for argv in commands]


PARSER_ARGVS = [
    [],
    ["--help"],
    ["-h"],
    *([name, "--help"] for name in ("contfrac", "graph", "embed", "sweep", "audit")),
    ["frobnicate"],
    ["embed", "--n", "x"],
    ["graph", "--pairs", "2,3"],  # --n is required
    ["graph", "--raw", "--reduced", "--pairs", "2,3", "--n", "7"],
    ["audit", "--family-form", "zz"],
    ["--config"],
    ["graph", "--pai", "2,3,2,17", "--n", "36"],
    ["embed", "chain3.json", "--enumerate", "--loc"],
    ["sweep", "--p", "2"],  # ambiguous: --p1 or --p2
    ["contfrac", "7/2", "--bogus"],
    *readme_commands(),
]


def parse_outcome(parser, argv):
    """What parser.parse_args(argv) prints, its exit code and its namespace."""
    out, err, code, namespace = io.StringIO(), io.StringIO(), None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, namespace


@pytest.mark.parametrize("columns", [None, "40", "200"])
@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_lazy_parser_equals_an_eager_one(monkeypatch, argv, columns):
    # the help, usage and error text at each width are argparse's own
    if columns is not None:
        monkeypatch.setenv("COLUMNS", columns)
    assert parse_outcome(cli.build_parser(), argv) == parse_outcome(oracles.eager_parser(), argv)


def test_a_call_asks_the_terminal_size_once(monkeypatch, capsys, tmp_path):
    # argparse's formatters asked it a dozen times or more a call, one per
    # argument added and one per text formatted
    asked = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: asked.append(args) or size(*args))
    assert cli.main(["embed", "--pairs", "2,3,2,17", "--n", "36", "--out", str(tmp_path)]) == 0
    assert len(asked) == 1
    for argv, code in ((["embed", "--help"], 0), (["graph", "--pai", "2,3"], 2), (["--help"], 0)):
        asked.clear()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert (exc.value.code, len(asked)) == (code, 1), argv


def test_a_call_defines_only_the_subcommand_it_runs(monkeypatch, capsys):
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    oracles.eager_parser()
    eager = len(calls)
    calls.clear()
    assert cli.main(["contfrac", "7/2"]) == 0
    assert calls == ["-h", "--config", "-h", "fraction", "--eval", "--dual", "--reverse", "--json"]
    assert len(calls) < eager


def test_every_call_defines_its_subcommand_afresh(monkeypatch, capsys):
    defined = Counter()
    for name in ("_define_contfrac", "_define_graph", "_define_embed", "_define_sweep", "_define_audit"):
        def counted(p, name=name, define=getattr(cli, name)):
            defined[name] += 1
            define(p)
        monkeypatch.setattr(cli, name, counted)
    for calls in (1, 2):
        assert cli.main(["contfrac", "7/2"]) == 0
        assert defined == {"_define_contfrac": calls}


def test_importing_the_cli_loads_no_multiprocessing():
    res = run_child("import sys, knotplumb, knotplumb.cli; print('multiprocessing' in sys.modules)")
    assert (res.returncode, res.stdout) == (0, "False\n"), res.stderr
