import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import knotplumb
from knotplumb import cli
from knotplumb.classify import desk_range_tuples
from knotplumb.lattice import verify_embedding
from knotplumb.plumbing import WeightedTree, gram_matrix

from test_classify import count_exact_passes


def run_cli(*args, env_extra=None, cwd=None):
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
    )


def write_chain(path, k):
    tree = WeightedTree(
        {i: -2 for i in range(k)}, [(i, i + 1) for i in range(k - 1)]
    )
    path.write_text(tree.to_json())


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

    def test_dot_roles(self):
        res = run_cli("graph", "--pairs", "2,3,2,17", "--n", "36", "--closed-form", "--dot")
        assert 'role="node2"' in res.stdout and "--" in res.stdout

    def test_default_text(self):
        res = run_cli("graph", "--pairs", "2,3", "--n", "8")
        assert "rank 4" in res.stdout and "det 8" in res.stdout

    @pytest.mark.parametrize("kind,passes", [("closed-form", 1), ("raw", 1), ("reduced", 2)])
    def test_one_exact_pass_per_built_tree(self, monkeypatch, capsys, kind, passes):
        # the printed det and definiteness are the builder's; --reduced
        # builds the raw tree, checks it, then reduces it to a new tree
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


class TestEmbed:
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
        assert res.stdout.strip() == "no embedding into rank 26 (exhausted after 29 nodes)"

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
        outs = []
        for workers in ("1", "2"):
            res = run_cli(
                "sweep", *SWEEP_ARGS, "--workers", workers, "--out", str(tmp_path)
            )
            assert res.returncode == 0
            outs.append(res.stdout)
        assert outs[0] == outs[1]
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

    def test_invalid_ranges_exit_1(self):
        assert run_cli("sweep", "--p1", "1", "--k1", "1").returncode == 1
        assert run_cli("sweep", "--N", "x").returncode == 1


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


BAD_INPUTS = {
    "missing-graph": ["embed", "missing.json"],
    "graph-not-json": ["embed", "notjson.json"],
    "graph-not-a-tree": ["embed", "dupedge.json"],
    "graph-not-connected": ["embed", "triangle.json"],
    "graph-bool-weight": ["embed", "weight-bool.json"],
    "graph-bool-id": ["embed", "id-bool.json"],
    "graph-bool-edge": ["embed", "edge-bool.json"],
    "graph-duplicate-id": ["embed", "dupid.json"],
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
}


@pytest.mark.parametrize("command", ["sweep", "audit"])
def test_unwritable_out_fails_before_searching(tmp_path, monkeypatch, capsys, command):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking --out")

    monkeypatch.setattr(cli, "sweep", no_search)
    (tmp_path / "plain").write_text("a regular file\n")
    code = cli.main([command, *SWEEP_ARGS, "--out", str(tmp_path / "plain" / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot create output directory")


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
    (tmp_path / "notutf8.cfg").write_bytes(b"\xff\xfe\x00bad")
    (tmp_path / "workers.cfg").write_text("workers=abc\n")
    (tmp_path / "order.cfg").write_text("order=weight\n")
    (tmp_path / "budget.cfg").write_text("budget=0\n")
    (tmp_path / "plain").write_text("a regular file, so plain/x cannot be created\n")
    argv = [str(tmp_path / a) if a.endswith((".json", ".cfg")) or "/" in a else a for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path)]
    res = run_cli(*argv)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr, res.stderr
    if argv[1].endswith(("bool.json", "triangle.json", "dupid.json")):
        assert ": not a plumbing tree: " in res.stderr, res.stderr
    if argv[1].endswith("notutf8.cfg"):
        assert res.stderr.startswith("error: cannot read config: "), res.stderr
