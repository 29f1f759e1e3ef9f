"""End to end checks of the report command line."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "sympdirac.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=env)


def test_dim_identity_json():
    r = run_cli("--m", "6", "--a-max", "4", "--suite", "dim_identity",
                "--format", "json")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["version"] == "1"
    assert rep["config"]["m"] == 6
    assert [s["name"] for s in rep["suites"]] == ["dim_identity"]
    checks = rep["suites"][0]["checks"]
    assert [c["params"]["a"] for c in checks] == [2, 3, 4]
    assert all(c["pass"] for c in checks)
    assert rep["summary"] == {"pass": 3, "fail": 0}


def test_small_m_rejected():
    r = run_cli("--m", "5")
    assert r.returncode == 2
    assert "stable range" in r.stderr


def test_ranges_above_limit_rejected(monkeypatch, capsys):
    from sympdirac import cli

    def no_report(*args, **kwargs):
        raise AssertionError("a report was started")

    monkeypatch.setattr(cli, "build_report", no_report)
    for flag in ("--a-max", "--t-max"):
        with pytest.raises(SystemExit) as exc:
            cli.run([flag, str(cli.RANGE_MAX + 1)])
        assert exc.value.code == 2
        assert f"{flag[2:]} must be between 0 and {cli.RANGE_MAX}" in capsys.readouterr().err


def test_m_above_limit_rejected(monkeypatch, capsys):
    from sympdirac import cli

    started = []

    def no_report(*args, **kwargs):
        started.append(args)
        raise RuntimeError("stub report")

    monkeypatch.setattr(cli, "build_report", no_report)
    # an oversized block is refused, with its dimension and the limit
    dim = cli.largest_block(9, cli.RANGE_MAX, cli.RANGE_MAX)
    assert dim > cli.BLOCK_MAX
    with pytest.raises(SystemExit) as exc:
        cli.run(["--m", "9", "--a-max", str(cli.RANGE_MAX), "--t-max", str(cli.RANGE_MAX)])
    assert exc.value.code == 2
    assert f"dimension {dim}, above the limit {cli.BLOCK_MAX}" in capsys.readouterr().err
    assert not started
    # every run with m <= 8 is accepted, the largest one is the limit itself
    assert cli.largest_block(8, cli.RANGE_MAX, cli.RANGE_MAX) == cli.BLOCK_MAX
    # a larger m with small ranges reaches the report
    for argv in (["--m", "8", "--a-max", str(cli.RANGE_MAX), "--t-max", str(cli.RANGE_MAX)],
                 ["--m", "9", "--a-max", "1", "--t-max", "1"]):
        with pytest.raises(RuntimeError, match="stub report"):
            cli.run(argv)
    assert [args[:3] for args in started] == [(8, cli.RANGE_MAX, cli.RANGE_MAX), (9, 1, 1)]


def test_largest_block_is_the_largest_block_built(monkeypatch):
    from sympdirac import cli, polys
    from sympdirac.verify import SUITES

    built = []
    init = polys.Block.__init__

    def recording_init(self, m, tri_degrees):
        init(self, m, tri_degrees)
        built.append(self.dim)

    monkeypatch.setattr(polys.Block, "__init__", recording_init)
    no_relations = [s for s in SUITES if s != "algebra_relations"]
    for a_max, t_max, suites in ((0, 0, list(SUITES)), (3, 1, no_relations), (1, 3, no_relations)):
        built.clear()
        cli.build_report(6, a_max, t_max, suites)
        assert max(built) == cli.largest_block(6, a_max, t_max)


def test_import_needs_no_numpy():
    # the package runs on the standard library alone; numpy would add
    # about 90 ms to every start
    code = ("import fractions, sys; import sympdirac.cli; from sympdirac import rationals; "
            "assert 'numpy' not in sys.modules, 'numpy imported'; "
            "assert rationals.QQ is fractions.Fraction")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_import_loads_only_the_standard_library():
    # every top-level module that importing the package loads is the
    # package itself or part of the standard library; dunder aliases such
    # as multiprocessing's __mp_main__ are no modules of their own
    code = ("import sys; before = set(sys.modules); import sympdirac.cli, sympdirac.verify; "
            "new = {name.split('.')[0] for name in set(sys.modules) - before}; "
            "bad = sorted(n for n in new if n != 'sympdirac' and n not in sys.stdlib_module_names "
            "and not (n.startswith('__') and n.endswith('__'))); "
            "assert not bad, bad")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_unknown_suite_rejected():
    r = run_cli("--suite", "nonexistent")
    assert r.returncode == 2
    assert "invalid choice" in r.stderr


def test_text_output_has_summary():
    r = run_cli("--a-max", "2", "--suite", "table_ker")
    assert r.returncode == 0, r.stderr
    assert "== table_ker" in r.stdout
    assert "summary:" in r.stdout
    assert "0 failed" in r.stdout


def _strip_timing(raw):
    rep = json.loads(raw)
    for s in rep["suites"]:
        s.pop("elapsed_s")
    return json.dumps(rep, sort_keys=True)


def test_reruns_byte_identical_modulo_timing():
    args = ("--a-max", "2", "--t-max", "1", "--suite", "table_ker",
            "--suite", "multiplicity", "--format", "json")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.returncode == r2.returncode == 0
    assert _strip_timing(r1.stdout) == _strip_timing(r2.stdout)


def test_jobs_do_not_change_results():
    args = ("--a-max", "2", "--suite", "dim_identity", "--suite", "table_ker",
            "--format", "json")
    serial = run_cli(*args, "--jobs", "1")
    parallel = run_cli(*args, "--jobs", "2")
    assert serial.returncode == parallel.returncode == 0
    assert _strip_timing(serial.stdout) == _strip_timing(parallel.stdout)


def test_out_writes_file(tmp_path):
    dest = tmp_path / "report.json"
    r = run_cli("--a-max", "2", "--suite", "dim_identity", "--format", "json",
                "--out", str(dest))
    assert r.returncode == 0
    assert r.stdout == ""
    rep = json.loads(dest.read_text())
    assert rep["summary"]["fail"] == 0


def test_unwritable_out_rejected_before_the_run(monkeypatch, capsys, tmp_path):
    from sympdirac import cli

    def no_report(*args, **kwargs):
        raise AssertionError("a report was started")

    monkeypatch.setattr(cli, "build_report", no_report)
    for dest in (tmp_path / "missing" / "r.json", tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--suite", "dim_identity", "--out", str(dest)])
        assert exc.value.code == 2
        assert f"cannot write --out {dest}" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_empty_report_is_valid():
    from sympdirac.cli import build_report, render_json

    rep = build_report(6, 0, 0, [])
    assert rep["summary"] == {"pass": 0, "fail": 0}
    parsed = json.loads(render_json(rep))
    assert parsed["suites"] == []


def test_suite_order_is_canonical():
    r = run_cli("--a-max", "1", "--t-max", "0", "--suite", "multiplicity",
                "--suite", "table_ker", "--format", "json")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    # canonical ordering, not flag order
    assert [s["name"] for s in rep["suites"]] == ["table_ker", "multiplicity"]


def test_jobs_capped_at_task_count(monkeypatch):
    from sympdirac import cli
    from sympdirac.verify import SUITES

    started = []

    class RecordingPool:
        """Stands in for the process pool: records its size, runs nothing."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [[(0.0, [])] * len(task) for task in tasks]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    # at a_max = t_max = 4: four level-free suites, and the levels -1..4
    cli.build_report(6, 4, 4, list(SUITES), jobs=5000)
    cli.build_report(6, 4, 4, list(SUITES), jobs=2)
    cli.build_report(6, 4, 4, ["table_ker", "multiplicity"], jobs=7)
    cli.build_report(6, 4, 4, ["branching_table"], jobs=2)
    assert started == [10, 2, 6, 2]
    # one task runs serially, without a pool
    report = cli.build_report(6, 4, 4, ["dim_identity"], jobs=2)
    assert started == [10, 2, 6, 2]
    assert report["summary"] == {"pass": 3, "fail": 0}


def test_pool_runs_levels_top_down_on_one_verifier_per_worker(monkeypatch):
    from sympdirac import cli
    from sympdirac.verify import SUITES

    a_max = t_max = 2
    suites = list(SUITES)
    level_of = {(method, args): level for name in suites
                for level, method, args in SUITES[name].units_for(a_max, t_max)}
    mapped, worked, verifiers = [], [], []
    worker = cli._worker

    def recording_worker(task):
        worked.append(task)
        verifiers.append(cli._VERIFIER)
        return worker(task)

    class InProcessPool:
        """Stands in for the process pool: one worker, in this process."""

        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            mapped.extend(tasks)
            return [fn(task) for task in tasks]

    monkeypatch.setattr(cli, "_VERIFIER", None)
    monkeypatch.setattr(cli, "_worker", recording_worker)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    pooled = cli.build_report(6, a_max, t_max, suites, jobs=2)

    assert worked == mapped
    assert len(set(map(id, verifiers))) == 1
    levels = [level_of[task[0]] for task in mapped]
    free = [name for name in suites if SUITES[name].units_for(a_max, t_max)[0][0] is None]
    assert levels[:len(free)] == [None] * len(free)
    assert [task[0][0] for task in mapped[:len(free)]] == free
    assert levels[len(free):] == list(range(max(a_max - 1, t_max), -2, -1))
    for task, level in zip(mapped[len(free):], levels[len(free):]):
        assert list(task) == [(method, args) for name in suites
                              for lvl, method, args in SUITES[name].units_for(a_max, t_max)
                              if lvl == level]
    serial = cli.build_report(6, a_max, t_max, suites, jobs=1)
    assert _strip_timing(cli.render_json(pooled)) == _strip_timing(cli.render_json(serial))


def test_one_suite_runs_by_level_with_the_same_rows():
    args = ("--suite", "branching_table", "--t-max", "2", "--format", "json")
    serial = run_cli(*args, "--jobs", "1")
    parallel = run_cli(*args, "--jobs", "2")
    assert serial.returncode == parallel.returncode == 0
    assert _strip_timing(serial.stdout) == _strip_timing(parallel.stdout)


def test_benchmark_tracer_binds_every_name(tmp_path):
    # the benchmark wraps named functions of the package; set-up fails if
    # one of them is gone. A traced repetition of relations_extensional
    # also imports what its sweep uses, and one of kernels_deep runs the
    # tracer's hooks (matrix columns, nullspace cells, ranks); a traced
    # repetition samples no speed, so only a fault can make it exit 1
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    expected = json.loads((root / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    for workload in (None, "relations_extensional", "kernels_deep"):
        out = tmp_path / f"{workload}.json"
        args = ["--workload", workload] if workload else ["--setup-only"]
        r = subprocess.run([sys.executable, "perfbench/rep.py", *args, "--trace", "1", "--out", str(out)],
                           cwd=root, env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        if workload:
            record = json.loads(out.read_text(encoding="utf-8"))
            assert (record["checks"], record["failed_rows"]) == (expected[workload]["checks"], 0)
            assert record.get("digest") == expected[workload].get("digest")


def _report_digest(text):
    """SHA-256 of a JSON report without its elapsed_s fields (only suites
    carry them), the digest perfbench/rep.py gates the benchmark's report
    workloads on."""
    return hashlib.sha256(_strip_timing(text).encode("utf-8")).hexdigest()


# the digest ladder: reports at m >= 7 that no benchmark workload runs,
# (m, ranges) -> checks and digest; scripts/ladder.py runs all of them
LADDER = {(e["m"], e["ranges"]): e for e in json.loads(
    (Path(__file__).resolve().parent / "ladder.json").read_text(encoding="utf-8"))}


def _assert_report_matches(m, a_max, suites, expected, jobs=1):
    from sympdirac import cli

    report = cli.build_report(m, a_max, a_max, list(suites), jobs=jobs)
    assert sum(len(s["checks"]) for s in report["suites"]) == expected["checks"]
    assert report["summary"]["fail"] == 0
    assert _report_digest(cli.render_json(report)) == expected["digest"]


@pytest.mark.parametrize("workload, a_max, suites", [
    ("report_default", 4, None),
    ("kernels_deep", 5, ("table_ker", "l_fischer", "multiplicity", "s0_branching")),
    ("report_m7", 2, None),
])
def test_reports_match_benchmark_digests(workload, a_max, suites):
    # a reordered or changed check fails here, not only in the benchmark
    from sympdirac.verify import SUITES

    if workload == "report_m7":
        m, expected = 7, LADDER[(7, a_max)]
    else:
        root = Path(__file__).resolve().parents[1]
        m = 6
        expected = json.loads((root / "perfbench" / "expected.json").read_text(encoding="utf-8"))[workload]
    # the default report also by level on a process pool
    for jobs in ((1, 2, 3) if workload == "report_default" else (1,)):
        _assert_report_matches(m, a_max, suites or SUITES, expected, jobs)


@pytest.mark.parametrize("m", [11, 12])
def test_ladder_reports_above_m8_match_their_digests(m):
    # one odd m (so(m) of type B) and one even (type D) from the ladder
    from sympdirac.verify import SUITES

    _assert_report_matches(m, 2, SUITES, LADDER[(m, 2)])
