import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxrem as px
from proxrem import construction, oracle
from proxrem.cli import main
from proxrem.graphs import MAX_ORDER
from proxrem.oracle import MAX_RANDOM_ORDER, instance_csv_rows
from proxrem.weighted import WeightFunction

from .conftest import connected_graphs


@pytest.fixture
def p5_file(tmp_path):
    f = tmp_path / "p5.edges"
    f.write_text(px.render_graph(px.path_graph(5)))
    return str(f)


@pytest.fixture
def no_apsp(monkeypatch):
    """Fail if any all-pairs work is done: a transmission kernel runs.
    Vertex 0's BFS row, the oracle's connectivity, is allowed."""
    from proxrem import graphs

    def forbidden(*_):
        raise AssertionError("all-pairs distances computed")

    for name in ("_transmissions_bigint", "_transmissions_scipy"):
        monkeypatch.setattr(graphs, name, forbidden)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_p5_json(self, capsys, p5_file):
        code, out, _ = _run(capsys, "compute", p5_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["invariants"]["proximity"] == "3/2"
        assert doc["invariants"]["median"] == [2]

    def test_c4_rationals_as_strings(self, capsys, tmp_path):
        f = tmp_path / "c4.edges"
        f.write_text(px.render_graph(px.cycle_graph(4)))
        code, out, _ = _run(capsys, "compute", str(f))
        doc = json.loads(out)
        assert doc["invariants"]["proximity"] == "4/3"
        assert doc["invariants"]["remoteness"] == "4/3"
        assert "." not in doc["invariants"]["proximity"]
        # each average distance is transmissions[v]/(n-1) in lowest terms;
        # on P6 the ends reduce (transmission 15 over 5 is "3/1")
        f.write_text(px.render_graph(px.path_graph(6)))
        for text in (out, _run(capsys, "compute", str(f))[1]):
            inv = json.loads(text)["invariants"]
            assert len(inv["avg_distances"]) == inv["order"]
            for avg, t in zip(inv["avg_distances"], inv["transmissions"]):
                num, den = map(int, avg.split("/"))
                assert math.gcd(num, den) == 1
                assert Fraction(num, den) == Fraction(t, inv["order"] - 1)

    def test_text_format(self, capsys, p5_file):
        code, out, _ = _run(capsys, "compute", p5_file, "--format", "text")
        assert code == 0
        assert "proximity 3/2" in out

    def test_disconnected_exits_2(self, capsys, tmp_path, no_apsp):
        f = tmp_path / "disc.edges"
        f.write_text("0 1\n2 3\n")
        code, _, err = _run(capsys, "compute", str(f))
        assert code == 2
        assert "disconnected" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = _run(capsys, "compute", "/nonexistent/file")
        assert code == 2

    def test_malformed_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("0 0\n")
        code, _, err = _run(capsys, "compute", str(f))
        assert code == 2
        assert "self-loop" in err

    def test_byte_identical_runs(self, capsys, p5_file):
        _, out1, _ = _run(capsys, "compute", p5_file)
        _, out2, _ = _run(capsys, "compute", p5_file)
        assert out1 == out2


class TestVerify:
    def test_k2(self, capsys, tmp_path):
        f = tmp_path / "k2.edges"
        f.write_text("0 1\n")
        code, out, _ = _run(capsys, "verify", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["proximity"] == "1/1"
        assert doc["verification"]["all_hold"] is True

    def test_p100_order_bound_tight(self, capsys, tmp_path):
        f = tmp_path / "p100.edges"
        f.write_text(px.render_graph(px.path_graph(100)))
        code, out, _ = _run(capsys, "verify", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["remoteness"] == "50/1"
        assert doc["verification"]["slack"]["remoteness_order"] == "0/1"

    def test_chain_on_extremal_graph(self, capsys, tmp_path):
        g = px.extremal_graph(px.ExtremalParams(20, 3, 8))
        f = tmp_path / "g2083.edges"
        f.write_text(px.render_graph(g))
        code, out, _ = _run(capsys, "verify", str(f), "--chain")
        assert code == 0
        doc = json.loads(out)
        chains = doc["verification"]["proximity_chain"] + doc["verification"]["remoteness_chain"]
        assert chains and all(link["holds"] for link in chains)

    @pytest.mark.parametrize("make", [lambda: px.extremal_graph(px.ExtremalParams(20, 3, 8)),
                                      lambda: px.path_graph(7)], ids=["extremal-20-3-8", "p7"])
    def test_fraction_budget(self, capsys, tmp_path, monkeypatch, make):
        # integral chain values stay ints and every closed form is one
        # Fraction of integers: 31 constructions on both graphs under
        # Python 3.11, whose Fraction arithmetic calls the constructor
        f = tmp_path / "g.edges"
        f.write_text(px.render_graph(make()))
        calls = 0
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal calls
            calls += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        code, out, _ = _run(capsys, "verify", "--chain", str(f))
        monkeypatch.undo()
        assert code == 0 and json.loads(out)["verification"]["all_hold"] is True
        assert 0 < calls <= 31

    def test_verify_loads_no_module_after_import(self, tmp_path):
        # verify-large processes are bound by start-up: checking and
        # rendering must import nothing that ``import proxrem.cli`` and
        # argument parsing (argparse's gettext imports locale) did not
        paths = []
        for name, g in (("p7", px.path_graph(7)),
                        ("g2083", px.extremal_graph(px.ExtremalParams(20, 3, 8)))):
            paths.append(str(tmp_path / f"{name}.edges"))
            Path(paths[-1]).write_text(px.render_graph(g))
        probe = (
            "import sys\nimport proxrem.cli\n"
            "proxrem.cli._parser().parse_args(['verify', '--chain', 'g.edges'])\n"
            "before = set(sys.modules)\n"
            f"for f in {paths!r}:\n"
            "    assert proxrem.cli.main(['verify', '--chain', f]) == 0\n"
            "print(*sorted(set(sys.modules) - before), file=sys.stderr)\n"
        )
        src = str(Path(px.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) > 2
        assert proc.stderr.split() == []

    def test_disconnected_exits_2(self, capsys, tmp_path, no_apsp):
        f = tmp_path / "disc.edges"
        f.write_text("0 1\n2 3\n")
        code, _, err = _run(capsys, "verify", str(f))
        assert code == 2
        assert "disconnected" in err

    def test_chain_on_sparse_graph_never_imports_scipy(self, tmp_path):
        # a random recursive tree plus chords: order 500, small diameter,
        # so G and the auxiliary graph both take the big-int kernel, and
        # neither scipy nor numpy is loaded
        rng = random.Random(500)
        edges = [(rng.randrange(v), v) for v in range(1, 500)]
        edges += [(rng.randrange(500), rng.randrange(500)) for _ in range(500)]
        f = tmp_path / "sparse500.edges"
        f.write_text(px.render_graph(px.graph_from_edges(500, [(u, v) for u, v in edges if u != v])))
        out, loaded = _numpy_and_scipy_after(
            f"from proxrem.cli import main\nassert main(['verify', '--chain', {str(f)!r}]) == 0"
        )
        assert json.loads(out)["verification"]["all_hold"] is True
        assert loaded == []

    def test_chain_at_the_level_cap_never_imports_scipy(self, tmp_path, capsys, monkeypatch):
        # a broom of order 2000, a path 0..32 with every other vertex hung
        # on its middle, so 2·ecc(0) = 64, the level cap: G takes big ints,
        # and the output is the one the scipy kernel gives
        edges = [(i, i + 1) for i in range(32)] + [(16, v) for v in range(33, 2000)]
        f = tmp_path / "broom2000.edges"
        f.write_text(px.render_graph(px.graph_from_edges(2000, edges)))
        out, loaded = _numpy_and_scipy_after(
            f"from proxrem.cli import main\nassert main(['verify', '--chain', {str(f)!r}]) == 0"
        )
        assert loaded == []
        from proxrem import graphs

        monkeypatch.setattr(graphs, "_transmissions_bigint", graphs._transmissions_scipy)
        assert _run(capsys, "verify", "--chain", str(f)) == (0, out, "")

    def test_compute_on_k2_never_imports_numpy(self, tmp_path):
        f = tmp_path / "k2.edges"
        f.write_text("0 1\n")
        out, loaded = _numpy_and_scipy_after(
            f"from proxrem.cli import main\nassert main(['compute', {str(f)!r}]) == 0"
        )
        assert json.loads(out)["invariants"]["proximity"] == "1/1"
        assert loaded == []

    def test_bare_import_never_imports_numpy(self):
        assert _numpy_and_scipy_after("import proxrem") == ("", [])


def _numpy_and_scipy_after(code):
    """Run ``code`` in a fresh interpreter; return its stdout and the
    ``numpy*`` and ``scipy*`` modules loaded once it has run."""
    probe = code + (
        "\nimport sys\n"
        "print(*sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy'))), file=sys.stderr)\n"
    )
    src = str(Path(px.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr.split()


class TestExtremal:
    def test_emit_graph(self, capsys):
        code, out, _ = _run(capsys, "extremal", "--n", "20", "--delta", "3", "--Delta", "8")
        assert code == 0
        g = px.parse_graph(out)
        assert g.n == 20 and px.degree_stats(g) == (3, 8)

    def test_divisibility_failure_exits_2_with_hint(self, capsys):
        code, _, err = _run(capsys, "extremal", "--n", "20", "--delta", "3", "--Delta", "9")
        assert code == 2
        assert "21" in err  # nearest valid order

    def test_sharpness_record(self, capsys):
        code, out, _ = _run(
            capsys, "extremal", "--n", "20", "--delta", "3", "--Delta", "8", "--sharpness"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sharpness"]["within_limits"] is True

    def test_sweep_csv(self, capsys):
        code, out, _ = _run(capsys, "extremal", "--delta", "3", "--sweep", "16", "22")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,delta,Delta,case,")
        assert len(lines) > 1

    def test_sweep_never_imports_numpy(self):
        # the sweep reads every member's invariants from its block sizes
        out, loaded = _numpy_and_scipy_after(
            "from proxrem.cli import main\n"
            "assert main(['extremal', '--delta', '3', '--sweep', '16', '120']) == 0"
        )
        assert len(out.splitlines()) == 1 + 1641
        assert loaded == []

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--n", "100000004", "--delta", "3", "--Delta", "4", "--sharpness"], "--n"),
            (["--n", str(MAX_ORDER + 4), "--delta", "3", "--Delta", "4"], "--n"),
            (["--n", str(MAX_ORDER), "--delta", "3", "--Delta", str(MAX_ORDER - 4)], "--Delta"),
            (["--delta", "3", "--sweep", "16", "200000"], "--sweep"),
            (["--delta", "3", "--sweep", str(MAX_ORDER + 1), str(MAX_ORDER + 1)], "--sweep"),
            (["--delta", "3", "--sweep", "16", "700"], "--sweep"),
            (["--delta", "-1", "--sweep", "16", "20"], "--delta -1"),
        ],
        ids=["sharpness-order", "graph-order", "graph-edges", "sweep-order", "sweep-order-one-member",
             "sweep-work", "sweep-delta-minus-1"],
    )
    def test_over_budget_exits_2_before_allocating(self, capsys, argv, flag):
        # each is refused from its arguments alone, so the peak stays tiny
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, "extremal", *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("error:") and flag in err
        assert peak < 1 << 20

    def test_sweep_work_limit_is_inclusive(self, capsys, monkeypatch):
        from proxrem import extremal

        work = sum(n * len(extremal.valid_Deltas(n, 3)) for n in range(16, 121))
        monkeypatch.setattr(extremal, "MAX_SWEEP_WORK", work - 1)
        code, out, err = _run(capsys, "extremal", "--delta", "3", "--sweep", "16", "120")
        assert (code, out) == (2, "")
        assert err == f"error: --sweep 16 120: members' orders sum to {work} > {work - 1}\n"
        monkeypatch.setattr(extremal, "MAX_SWEEP_WORK", work)
        code, out, _ = _run(capsys, "extremal", "--delta", "3", "--sweep", "16", "120")
        assert code == 0 and len(out.splitlines()) == 1 + 1641

    def test_graph_edge_limit_is_inclusive(self, capsys, monkeypatch):
        from proxrem import graphs

        edges = px.extremal_graph(px.ExtremalParams(20, 3, 8)).edge_count()
        monkeypatch.setattr(graphs, "MAX_EDGES", edges - 1)
        code, out, err = _run(capsys, "extremal", "--n", "20", "--delta", "3", "--Delta", "8")
        assert (code, out) == (2, "")
        assert err == f"error: --n 20 --Delta 8: the graph has {edges} edges > {edges - 1}\n"
        monkeypatch.setattr(graphs, "MAX_EDGES", edges)
        code, out, _ = _run(capsys, "extremal", "--n", "20", "--delta", "3", "--Delta", "8")
        assert code == 0 and px.parse_graph(out).edge_count() == edges

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.edges"
        code, _, _ = _run(
            capsys, "extremal", "--n", "11", "--delta", "3", "--Delta", "7",
            "--output", str(dest),
        )
        assert code == 0
        assert px.parse_graph(dest.read_text()).n == 11

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sweep", "16", "17", "--n", "20"], "--n cannot be used with --sweep"),
            (["--sweep", "16", "17", "--Delta", "8"], "--Delta cannot be used with --sweep"),
            (["--sweep", "16", "17", "--sharpness"], "--sharpness cannot be used with --sweep"),
            (["--sweep", "16", "17", "--output", "out.edges"], "--output cannot be used with --sweep"),
            (["--sweep", "16", "17", "--n", "20", "--Delta", "8", "--sharpness", "--output", "out.edges"],
             "--n, --Delta, --sharpness, --output cannot be used with --sweep"),
            (["--n", "20", "--Delta", "8", "--csv", "out.csv"], "--csv needs --sweep"),
            (["--n", "20", "--Delta", "8", "--sharpness", "--output", "out.edges"],
             "--output cannot be used with --sharpness"),
        ],
        ids=["sweep-n", "sweep-Delta", "sweep-sharpness", "sweep-output", "sweep-all-four",
             "csv-without-sweep", "sharpness-output"],
    )
    def test_flag_that_does_not_apply_exits_2_before_any_member(
            self, capsys, monkeypatch, tmp_path, argv, message):
        from proxrem import extremal

        monkeypatch.chdir(tmp_path)
        for name in ("sharpness_sweep", "sharpness_report", "extremal_graph"):
            monkeypatch.setattr(extremal, name, _member_computed)  # would exit 3
        code, out, err = _run(capsys, "extremal", "--delta", "3", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delta", [3, 4, 5])
    def test_sweep_csv_is_identical_for_any_jobs(self, capsys, delta):
        argv = ("extremal", "--delta", str(delta), "--sweep", "10", "90")
        one = _run(capsys, *argv, "--jobs", "1")
        assert one[0] == 0 and one[1].count("\n") > 1 + 20
        assert _run(capsys, *argv, "--jobs", "2") == one


def _member_computed(*args, **kwargs):
    raise AssertionError("a family member was computed")


class TestOracle:
    def test_lemma_sweep_small(self, capsys):
        code, out, _ = _run(capsys, "oracle", "lemma-sweep", "--max-n", "6", "--max-order", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["sweep"]["ok"] is True
        assert doc["sweep"]["violations"] == 0

    def test_budget_exceeded_exits_2(self, capsys):
        code, _, err = _run(capsys, "oracle", "lemma-sweep", "--max-n", "99")
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["oracle", "lemma-sweep", "--max-n", "0"], "--max-n"),
            (["oracle", "lemma-sweep", "--max-n", "-3"], "--max-n"),
            (["oracle", "lemma-sweep", "--max-order", "0"], "--max-order"),
            (["extremal", "--delta", "3", "--sweep", "50", "20"], "--sweep"),
            (["oracle", "bound-check", "--random", "5", "--max-n", "1"], "--max-n"),
        ],
        ids=["lemma-max-n-0", "lemma-max-n-negative", "lemma-max-order-0", "extremal-empty-sweep",
             "random-max-n-1"],
    )
    def test_sweep_over_nothing_exits_2(self, capsys, argv, flag):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and flag in err

    def test_bound_check_trees(self, capsys):
        code, out, _ = _run(capsys, "oracle", "bound-check", "--trees", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["bound_check"]["ok"] is True
        assert doc["bound_check"]["path_equality_ok"] is True

    def test_bound_check_random_never_imports_numpy(self):
        # below the level cap every transmission takes the big-int kernel,
        # and no edge list is rendered for a graph that holds
        out, loaded = _numpy_and_scipy_after(
            "from proxrem.cli import main\n"
            "assert main(['oracle', 'bound-check', '--random', '50', '--max-n', '60', '--seed', '1729']) == 0"
        )
        assert json.loads(out)["bound_check"]["graphs"] == 50
        assert loaded == []

    def test_random_max_n_above_max_order_exits_2_at_once(self):
        # the check comes before the sampler's O(n²) edge loop
        env = {**os.environ, "PYTHONPATH": str(Path(px.__file__).parents[1])}
        argv = ["oracle", "bound-check", "--random", "1", "--max-n", str(MAX_ORDER + 1), "--seed", "3"]
        proc = subprocess.run([sys.executable, "-m", "proxrem.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:") and "--max-n" in proc.stderr

    def test_random_max_n_above_random_cap_exits_2_at_once(self):
        # the sampler's work is quadratic in the order; the cap comes first
        env = {**os.environ, "PYTHONPATH": str(Path(px.__file__).parents[1])}
        argv = ["oracle", "bound-check", "--random", "1", "--max-n", str(MAX_RANDOM_ORDER + 1), "--seed", "3"]
        proc = subprocess.run([sys.executable, "-m", "proxrem.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:") and "--max-n" in proc.stderr
        assert str(MAX_RANDOM_ORDER) in proc.stderr

    @pytest.mark.parametrize("extra", [[], ["--instances", "inst.csv"]], ids=["defaults", "instances"])
    def test_lemma_sweep_never_imports_numpy(self, tmp_path, extra):
        out, loaded = _numpy_and_scipy_after(
            "import os\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "from proxrem.cli import main\n"
            f"assert main(['oracle', 'lemma-sweep', *{extra!r}]) == 0"
        )
        assert json.loads(out)["sweep"]["ok"] is True
        assert loaded == []
        if extra:
            assert (tmp_path / "inst.csv").read_text().count("\n") == 713_731

    def test_violation_dumps_replayable_counterexamples(self, monkeypatch, capsys, tmp_path):
        real = oracle.median_bound
        monkeypatch.setattr(oracle, "median_bound", lambda total, heavy, floor: real(total, heavy, floor) - 1)
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, "oracle", "lemma-sweep", "--max-n", "5", "--max-order", "3")
        assert code == 1
        violations = px.lemma_sweep(5, 3).violations
        assert json.loads(out)["sweep"]["violations"] == len(violations) > 0
        reported = err.splitlines()
        assert len(reported) == len(violations)
        for i, v in enumerate(violations):
            assert reported[i].startswith(
                f"violation[{i}]: kind={v.kind} order={v.order} heavy={v.heavy} observed={v.observed} "
            )
            tree = px.parse_graph((tmp_path / f"counterexample-{i}.edges").read_text())
            assert tree == px.prufer_decode(v.prufer, v.order)
            weights = WeightFunction.from_lines((tmp_path / f"counterexample-{i}.weights").read_text(), v.order)
            assert weights.values == tuple(map(Fraction, v.weights))

    @pytest.mark.parametrize(
        "argv",
        [
            ["extremal", "--delta", "3", "--sweep", "16", "20"],
            ["oracle", "lemma-sweep", "--max-n", "5", "--max-order", "3"],
            ["oracle", "bound-check", "--trees", "4"],
        ],
        ids=["extremal", "lemma-sweep", "bound-check"],
    )
    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_1_exits_2(self, capsys, argv, jobs):
        code, out, err = _run(capsys, *argv, "--jobs", jobs)
        assert (code, out) == (2, "")
        assert f"argument --jobs: must be at least 1, got {jobs}" in err

    def test_bound_check_random_jobs_identical(self, capsys):
        args = ("oracle", "bound-check", "--random", "20", "--max-n", "18", "--seed", "7")
        _, out1, _ = _run(capsys, *args, "--jobs", "1")
        _, out2, _ = _run(capsys, *args, "--jobs", "4")
        assert out1 == out2

    def test_sweep_csv_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, _, _ = _run(
            capsys, "oracle", "lemma-sweep", "--max-n", "5", "--max-order", "3",
            "--csv", str(dest),
        )
        assert code == 0
        lines = dest.read_text().strip().splitlines()
        assert lines[0].startswith("total,heavy,")

    def test_instances_csv_file(self, capsys, tmp_path):
        dest = tmp_path / "inst.csv"
        args = ("oracle", "lemma-sweep", "--max-n", "5", "--max-order", "3")
        code, out, _ = _run(capsys, *args, "--instances", str(dest))
        assert code == 0
        assert dest.read_text().startswith("tree_id,weights,")
        assert dest.read_text() == "".join(row + "\n" for row in instance_csv_rows(5, 3))
        # the CSV goes to the file only; stdout is the same as without it
        assert (code, out) == _run(capsys, *args)[:2]


class TestUsage:
    def test_each_subcommand_loads_only_its_modules(self, tmp_path):
        f = tmp_path / "p7.edges"
        f.write_text(px.render_graph(px.path_graph(7)))
        probe = (
            "import sys\nfrom proxrem.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n"
        )
        src = str(Path(px.__file__).parents[1])
        layers = {"proxrem.construction", "proxrem.weighted", "proxrem.extremal", "proxrem.oracle"}
        cases = [
            (["compute", str(f)], "proxrem.invariants", layers),
            (["verify", "--chain", str(f)], "proxrem.construction", {"proxrem.oracle", "proxrem.extremal"}),
            (["extremal", "--delta", "3", "--sweep", "16", "40"], "proxrem.extremal",
             {"proxrem.oracle", "proxrem.construction", "proxrem.weighted"}),
            (["extremal", "--n", "20", "--delta", "3", "--Delta", "8", "--sharpness"], "proxrem.extremal",
             {"proxrem.oracle", "proxrem.construction", "proxrem.weighted"}),
            (["oracle", "lemma-sweep", "--max-n", "5", "--max-order", "4"], "proxrem.oracle",
             {"proxrem.extremal", "proxrem.construction"}),
            (["oracle", "bound-check", "--trees", "4"], "proxrem.oracle",
             {"proxrem.extremal", "proxrem.construction"}),
            (["oracle", "bound-check", "--random", "5", "--max-n", "12"], "proxrem.oracle",
             {"proxrem.extremal", "proxrem.construction"}),
        ]
        for argv, runs, never in cases:
            proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            loaded = set(proc.stderr.split())
            assert runs in loaded and loaded & (never | {"dataclasses", "numpy", "scipy"}) == set(), argv

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_parser_is_built_once_per_process(self, p5_file):
        argvs = [["verify", p5_file], ["verify", "--no-such-flag", p5_file], ["compute", p5_file]]
        probe = (
            "import contextlib, io, json, sys\n"
            "import proxrem.cli as cli\n"
            "built, real = [], cli.build_parser\n"
            "cli.build_parser = lambda: built.append(1) or real()\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        results.append([cli.main(argv), buf.getvalue()])\n"
            "print(json.dumps([len(built), results]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(px.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        built, results = json.loads(proc.stdout)
        assert built == 1
        fresh = [subprocess.run([sys.executable, "-m", "proxrem.cli", *argv], capture_output=True,
                                text=True, env=env, timeout=120) for argv in argvs]
        assert results == [[p.returncode, p.stdout] for p in fresh]
        assert [code for code, _ in results] == [0, 2, 0]

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_directory_path_exits_2(self, capsys, tmp_path, command):
        code, _, err = _run(capsys, command, str(tmp_path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_order_above_cap_exits_2(self, capsys, tmp_path, command, no_apsp):
        f = tmp_path / "p10001.edges"
        f.write_text(px.render_graph(px.path_graph(MAX_ORDER + 1)))
        code, out, err = _run(capsys, command, str(f))
        assert code == 2 and out == ""
        assert "exceeds the limit" in err

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_edges_above_budget_exit_2(self, capsys, p5_file, monkeypatch, command, no_apsp):
        from proxrem import graphs

        monkeypatch.setattr(graphs, "MAX_EDGES", 3)
        code, out, err = _run(capsys, command, p5_file)
        assert (code, out, err) == (2, "", "error: 4 edge lines exceed the limit of 3\n")

    def test_unexpected_exception_exits_3(self, capsys, p5_file, monkeypatch):
        import proxrem.cli as cli_mod

        def broken(g, include_chains=False, oracle=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(construction, "bound_report", broken)
        code, out, err = _run(capsys, "verify", p5_file)
        assert code == cli_mod.EXIT_INTERNAL == 3
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"

    def test_construction_error_still_exits_1(self, capsys, p5_file, monkeypatch):
        def broken(g, include_chains=False, oracle=None):
            raise px.ConstructionError("star overlaps")

        monkeypatch.setattr(construction, "bound_report", broken)
        code, _, err = _run(capsys, "verify", p5_file, "--chain")
        assert code == 1
        assert err.startswith("construction invariant failed:")

    def test_failed_claim_exits_1(self, capsys, p5_file, monkeypatch):
        # force a failing verdict to pin the exit-code contract
        real = construction.bound_report

        def sabotage(g, include_chains=False, oracle=None):
            report = real(g, include_chains=include_chains, oracle=oracle)
            report.holds["remoteness_order"] = False
            return report

        monkeypatch.setattr(construction, "bound_report", sabotage)
        code, out, _ = _run(capsys, "verify", p5_file)
        assert code == 1
        assert json.loads(out)["verification"]["all_hold"] is False


@st.composite
def mutated_edge_lists(draw):
    """A valid edge-list document with a few lines deleted, duplicated,
    swapped, or with a token replaced by a small integer or junk."""
    lines = px.render_graph(draw(connected_graphs(max_order=8))).splitlines()
    tokens = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["", "x", "1.5", "#", "0 1", "99999"]))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(tokens)
            lines[i] = " ".join(words)
    return ("\n".join(lines) + "\n").encode()


class TestFuzzExitCodes:
    """No document, however malformed, reads as a failed claim (1) or a
    crash (3): each is accepted (0) or refused as bad input (2)."""

    @pytest.fixture(scope="class")
    def doc_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "doc.edges"

    def _check(self, doc_path, data):
        doc_path.write_bytes(data)
        for argv in (["compute"], ["verify"], ["verify", "--chain"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*argv, str(doc_path)])
            assert code in (0, 2), (argv, data, err.getvalue())

    @given(st.one_of(st.text(alphabet="0123456789 -#\n\tx").map(str.encode), st.binary(max_size=40)))
    @settings(max_examples=120, deadline=None)
    def test_raw_text(self, doc_path, data):
        self._check(doc_path, data)

    @given(mutated_edge_lists())
    @settings(max_examples=120, deadline=None)
    def test_mutated_edge_lists(self, doc_path, data):
        self._check(doc_path, data)


_RUN_ALL = (
    "import contextlib, io, json, sys\n"
    "from proxrem.cli import main\n"
    "results = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    buf = io.StringIO()\n"
    "    with contextlib.redirect_stdout(buf):\n"
    "        code = main(argv)\n"
    "    results.append([code, buf.getvalue()])\n"
    "print(json.dumps(results))\n"
)


class TestDeterminism:
    """Every subcommand prints the same bytes in a fresh process under
    another hash seed, and for any ``--jobs``; ``--timings`` adds only its
    own key."""

    def _run_all(self, argvs, hash_seed):
        src = str(Path(px.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(hash_seed)}
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return [tuple(r) for r in json.loads(proc.stdout)]

    def test_stdout_is_byte_identical(self, tmp_path):
        f = tmp_path / "g2083.edges"
        f.write_text(px.render_graph(px.extremal_graph(px.ExtremalParams(20, 3, 8))))
        single = [
            ["compute", str(f)],
            ["compute", str(f), "--format", "text"],
            ["verify", str(f)],
            ["verify", "--chain", str(f)],
            ["extremal", "--n", "20", "--delta", "3", "--Delta", "8"],
            ["extremal", "--n", "20", "--delta", "3", "--Delta", "8", "--sharpness"],
        ]
        with_jobs = [
            ["extremal", "--delta", "3", "--sweep", "16", "24"],
            ["oracle", "lemma-sweep", "--max-n", "6", "--max-order", "4"],
            ["oracle", "bound-check", "--trees", "5"],
            ["oracle", "bound-check", "--trees", "7"],
            ["oracle", "bound-check", "--random", "20", "--max-n", "18", "--seed", "7"],
        ]
        timed = [["compute", str(f), "--timings"], ["verify", "--chain", str(f), "--timings"],
                 ["compute", str(f), "--format", "text", "--timings"]]
        argvs = single + [a + ["--jobs", j] for a in with_jobs for j in ("1", "2")]
        first = self._run_all(argvs + timed, hash_seed=1)
        assert first[:len(argvs)] == self._run_all(argvs, hash_seed=2)
        results = dict(zip(map(tuple, argvs + timed), first))
        assert all(code == 0 and out for code, out in results.values())
        for a in with_jobs:
            assert results[(*a, "--jobs", "1")] == results[(*a, "--jobs", "2")]
        for a in timed:
            code, out = results[tuple(a)]
            if "text" in a:
                out, seconds = out.rsplit("seconds ", 1)
                assert float(seconds) >= 0 and seconds == repr(float(seconds)) + "\n"
            else:
                doc = json.loads(out)
                assert set(doc.pop("timings")) == {"seconds"}
                out = json.dumps(doc, indent=2) + "\n"
            assert (code, out) == results[tuple(a[:-1])]
