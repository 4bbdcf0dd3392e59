import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mldelab import catalog, characters, cli
from mldelab.series import InsufficientOrder, series_from_json_dict


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_solve_fixture(capsys):
    code, payload = run_json(capsys, "solve", "--s", "6/5",
                             "--alpha", "-1/10", "--order", "3")
    assert code == 0
    assert payload["series"]["coeffs"] == ["1", "8", "23", "68"]
    assert payload["series"]["base_exponent"] == "-1/10"


def test_solve_round_trip(capsys):
    code, payload = run_json(capsys, "solve", "--s", "2/5",
                             "--alpha", "-1/15", "--order", "5")
    assert code == 0
    s = series_from_json_dict(payload["series"])
    assert s.coefficient(s.base + 1) == 4


def test_solve_log(capsys):
    code, payload = run_json(capsys, "solve", "--s", "6",
                             "--alpha", "1/2", "--log", "--order", "4")
    assert code == 0
    assert "log_coeffs" in payload["series"]
    s = series_from_json_dict(payload["series"])
    from mldelab.series import LogSeries, Q
    assert isinstance(s, LogSeries)
    assert s.plain.coefficient(Q(3, 2)) == Q(-2530, 81)


def test_indicial(capsys):
    code, payload = run_json(capsys, "indicial", "--s", "-3/5")
    assert code == 0
    assert sorted(payload["roots"]) == sorted(["31/40", "9/40", "1/40", "-1/40"])
    code, out = run(capsys, "indicial", "--s", "-3/5", "--format", "table")
    assert out.strip() == "{-1/40, 1/40, 9/40, 31/40}"


def test_classify_case_and_all(capsys):
    code, payload = run_json(capsys, "classify", "--case", "2", "--depth", "32")
    assert code == 0
    assert payload["final"] == ["-3/5", "6/5", "42/5"]
    code, payload = run_json(capsys, "classify", "--all")
    assert code == 0
    assert len(payload["final"]) == 23


@pytest.mark.parametrize("case", ["1", "2", "3", "4"])
def test_classify_case_output_is_pinned(capsys, case):
    # raw candidates, survivors at every depth and the final set, as
    # committed in tests/data
    code, out = run(capsys, "classify", "--case", case)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / f"classify-case{case}.json").read_text()


def test_forms_dump(capsys):
    code, payload = run_json(capsys, "forms", "dump", "--name", "psi1",
                             "--order", "5")
    assert code == 0
    s = series_from_json_dict(payload["series"])
    assert s.leading()[1] == 1


def test_catalog_list_and_build(capsys):
    code, payload = run_json(capsys, "catalog", "list")
    assert code == 0
    assert len(payload["entries"]) == 92
    code, payload = run_json(capsys, "catalog", "build",
                             "--label", "B.f.f0", "--order", "4")
    assert code == 0
    assert payload["series"]["coeffs"][:3] == ["1", "8", "23"]


def test_catalog_verify_single_s(capsys):
    code, payload = run_json(capsys, "catalog", "verify", "--s", "6/5",
                             "--order", "25")
    assert code == 0
    assert payload["failed"] == 0
    assert len(payload["reports"]) == 4
    assert {r["order"] for r in payload["reports"]} == {25}


@pytest.mark.parametrize("argv, orders", [
    (["--order", "12"], {12}),
    (["--group", "e"], {25}),
    (["--group", "a", "--order", "10"], {10}),
    (["--group", "a", "--order", "0"], {0}),
    (["--order", "0"], {0}),
])
def test_forms_verify_order(capsys, argv, orders):
    code, payload = run_json(capsys, "forms", "verify", *argv)
    assert code == 0
    assert {r["order"] for r in payload["reports"]} == orders


def test_characters_exponents(capsys):
    code, payload = run_json(capsys, "characters", "--algebra", "G2",
                             "--order", "10")
    assert code == 0
    assert payload["exponents"] == ["-1/10", "1/10", "3/10", "7/10"]


def test_characters_verify_runs_at_order(capsys):
    code, payload = run_json(capsys, "characters", "--algebra", "A2",
                             "--verify", "--order", "40")
    assert code == 0
    assert payload["verified"] and payload["report"]["order"] == 40


@pytest.mark.parametrize("order", ["0", "1", "2"])
def test_characters_verify_at_low_order(capsys, order):
    # the residual is cut at or below its base: nothing to compare
    code, payload = run_json(capsys, "characters", "--algebra", "A2",
                             "--verify", "--order", order)
    assert code == 0
    assert payload["verified"] and payload["report"]["order"] == int(order)


@pytest.mark.parametrize("selector", [["--label", "B.f.f0"], ["--s", "6/5"], ["--all"]])
def test_catalog_verify_failure_is_reported(monkeypatch, capsys, selector):
    # a misprinted prefix (68 -> 69 at q^(29/10)) fails every selector with
    # exit 2 and a report, not a traceback
    bad = dataclasses.replace(catalog.entry("B.f.f0"), printed_prefix=(1, 8, 23, 69))
    monkeypatch.setitem(catalog.ENTRIES, "B.f.f0", bad)
    code, payload = run_json(capsys, "catalog", "verify", *selector)
    assert code == cli.EXIT_VERIFY
    assert payload["failed"] == 1
    [rep] = [r for r in payload["reports"] if r["status"] == "failed"]
    assert rep["label"] == "B.f.f0"
    assert rep["first_bad_exponent"] == "29/10" and rep["residual"] == "-1"
    assert rep["detail"] == "B.f.f0: coefficient at q^29/10 is 68, printed 69"


def test_usage_errors(capsys):
    assert cli.main(["solve", "--s", "6/5"]) == cli.EXIT_USAGE
    assert cli.main(["solve", "--s", "not-a-rational", "--alpha", "0"]) == cli.EXIT_USAGE
    assert cli.main(["apply", "--s", "6/5"]) == cli.EXIT_USAGE
    assert cli.main(["catalog", "build"]) == cli.EXIT_USAGE
    assert cli.main(["catalog", "build", "--label", "nope"]) == cli.EXIT_USAGE
    assert cli.main(["catalog", "verify", "--label", "nope"]) == cli.EXIT_USAGE
    assert cli.main(["characters"]) == cli.EXIT_USAGE
    assert cli.main(["reproduce", "--order", "3"]) == cli.EXIT_USAGE
    # --format only where a table rendering exists
    assert cli.main(["solve", "--s", "6/5", "--alpha", "-1/10",
                     "--format", "table"]) == cli.EXIT_USAGE
    assert cli.main(["reproduce", "--format", "table"]) == cli.EXIT_USAGE
    # mutually exclusive selectors; --depth needs --case
    assert cli.main(["catalog", "verify", "--all", "--label", "B.f.f0"]) == cli.EXIT_USAGE
    assert cli.main(["classify", "--all", "--case", "2"]) == cli.EXIT_USAGE
    assert cli.main(["classify", "--depth", "4"]) == cli.EXIT_USAGE
    # the size cap on --order and --depth, refused before any work
    assert cli.main(["catalog", "build", "--label", "C.a.f0",
                     "--order", str(cli.MAX_ORDER + 1)]) == cli.EXIT_USAGE
    assert cli.main(["classify", "--case", "2",
                     "--depth", str(cli.MAX_ORDER + 1)]) == cli.EXIT_USAGE
    assert cli.main(["forms", "dump", "--name", "psi1", "--order", "x"]) == cli.EXIT_USAGE
    capsys.readouterr()
    # an unknown name is printed as its message, not as a quoted repr
    for argv, message in [
        (["characters", "--algebra", "Z9"],
         "unknown algebra 'Z9'; known: ['A1', 'A2', 'G2', 'D4', 'F4', 'E6', 'E7', 'E8', "
         "'formal24', 'formal3/2']"),
        (["forms", "dump", "--name", "nope"],
         "unknown form 'nope'; known: ['Delta15', 'Delta2', 'Delta3', 'Delta4', 'H2', "
         "'I15', 'I3', 'psi1', 'psi2', 'theta']"),
        (["catalog", "build", "--label", "nope"], "unknown catalog label 'nope'"),
    ]:
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("s", ["1e100000", "1e-101", "1" * 101])
def test_oversized_rational_is_usage_error(capsys, s):
    assert cli.main(["solve", "--s", s, "--alpha", "0", "--order", "2"]) == cli.EXIT_USAGE
    assert "bad rational" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["1e100", "9" * 98 + "/7"])
def test_rational_inside_cap_is_read(capsys, s):
    # neither value has 0 as an indicial root
    assert cli.main(["solve", "--s", s, "--alpha", "0", "--order", "2"]) == cli.EXIT_VERIFY
    capsys.readouterr()


@pytest.mark.parametrize("s, alpha", [("1234/997", "0"), ("1e5", "1/2")])
def test_log_solve_off_the_roots_exits_promptly(s, alpha):
    # the log solve reads the closed-form roots and runs no root search
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "mldelab.cli", "solve", "--s", s, "--alpha", alpha, "--log"],
        capture_output=True, text=True, env=env, timeout=10)
    assert done.returncode == cli.EXIT_VERIFY
    assert "is not an indicial root" in done.stderr


def test_closed_stdout_exits_quietly():
    # the dump (about 880 kB) outgrows the pipe, so the writer is still
    # writing when the reader closes it after one line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mldelab.cli", "forms", "dump", "--name", "psi1",
         "--order", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert err == ""            # no traceback, no "Exception ignored" at exit
    assert proc.returncode == cli.EXIT_PIPE


def test_verification_failure_exit(capsys):
    # a non-root alpha is a verification failure, not a usage error
    assert cli.main(["solve", "--s", "6/5", "--alpha", "0"]) == cli.EXIT_VERIFY
    capsys.readouterr()


def test_default_order_is_fixed(capsys):
    code, payload = run_json(capsys, "solve", "--s", "6/5", "--alpha", "-1/10")
    assert code == 0
    assert payload["order"] == 50


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "solve", "--s", "6/5", "--alpha", "-1/10", "--order", "6")
    _, out2 = run(capsys, "solve", "--s", "6/5", "--alpha", "-1/10", "--order", "6")
    assert out1 == out2


def test_solve_log_at_simple_root_has_no_solution(capsys):
    # -1/10 is a simple, non-resonant root at s = 6/5: no log solution
    assert cli.main(["solve", "--s", "6/5", "--alpha", "-1/10", "--log",
                     "--order", "6"]) == cli.EXIT_VERIFY
    capsys.readouterr()


@pytest.mark.parametrize("s, alpha", [("-6", "0"), ("-66/5", "-1/2"),
                                      ("54/5", "-1/2"), ("18", "0")])
def test_solve_log_inconsistent_resonance_has_no_solution(capsys, s, alpha):
    assert cli.main(["solve", "--s", s, "--alpha", alpha, "--log",
                     "--order", "6"]) == cli.EXIT_VERIFY
    assert "no log solution" in capsys.readouterr().err


def test_classify_depth_below_one_is_usage_error(capsys):
    assert cli.main(["classify", "--case", "2", "--depth", "0"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_negative_order_is_usage_error(capsys):
    assert cli.main(["forms", "dump", "--name", "psi1", "--order", "-1"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_solve_log_builds_operator_past_upper_root(capsys):
    # the upper root 19/10 sits three steps above alpha = -11/10
    code, payload = run_json(capsys, "solve", "--s", "-138/5", "--alpha", "-11/10",
                             "--log", "--order", "8")
    assert code == 0
    assert payload["series"]["order"] == 8


@pytest.mark.parametrize("s, alpha", [("-138/5", "-11/10"), ("162/5", "-3/5"),
                                      ("6", "1/2"), ("-6/5", "0")])
def test_solve_log_at_order_zero(capsys, s, alpha):
    # orders below the gap to the upper root (3 at s = -138/5) are solved too
    code, payload = run_json(capsys, "solve", "--s", s, "--alpha", alpha,
                             "--log", "--order", "0")
    assert code == 0
    assert payload["series"]["base_exponent"] == alpha
    assert payload["series"]["order"] == 0


def _log_requests():
    """(s, alpha) with alpha a double root or below another root by a whole
    number, for s = k/5, |k| <= 330."""
    from mldelab.mlde import flat_indicial_roots
    out = []
    for k in range(-330, 331):
        s = Fraction(k, 5)
        roots = flat_indicial_roots(s)
        for a in sorted(set(roots)):
            if roots.count(a) >= 2 or any(r > a and (r - a).denominator == 1
                                          for r in roots):
                out.append((s, a))
    return out


def test_no_log_request_runs_short_of_order(capsys):
    requests = _log_requests()
    assert len(requests) == 45
    for s, a in requests:
        code = cli.main(["solve", "--s", str(s), "--alpha", str(a), "--log",
                         "--order", "8"])
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY), (s, a, code)
    capsys.readouterr()


@pytest.mark.parametrize("content", [
    None,                                    # missing file
    "{not json",
    "[1, 2, 3]",
    json.dumps({"base_exponent": "0", "grid": 0, "order": 1, "coeffs": ["1", "2"]}),
    json.dumps({"base_exponent": "0", "grid": 1, "order": 1, "coeffs": ["1", "2/x"]}),
    json.dumps({"base_exponent": "0", "grid": 1, "order": 1, "coeffs": ["1", "1e100000"]}),
], ids=["missing", "not-json", "list", "grid-0", "bad-rational", "huge-rational"])
def test_apply_rejects_bad_series_file(capsys, tmp_path, content):
    path = tmp_path / "series.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["apply", "--s", "6/5", "--series", str(path),
                     "--order", "4"]) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_apply_reads_long_coefficients(capsys, tmp_path):
    # solve writes coefficients longer than the 100-character argument cap
    path = tmp_path / "series.json"
    long_coeff = "1/" + "3" * 150
    path.write_text(json.dumps({"base_exponent": "0", "grid": 1, "order": 1,
                                "coeffs": ["1", long_coeff]}))
    code, _ = run(capsys, "apply", "--s", "6/5", "--series", str(path), "--order", "1")
    assert code == 0


@pytest.mark.parametrize("terms", [13, 4])
def test_apply_truncation_follows_the_order(capsys, tmp_path, terms):
    # the operator is built to --order, so the output is exact below
    # q^(f.base + order + 1), or below f's own truncation if f is shorter
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"base_exponent": "1/3", "grid": 1, "order": terms - 1,
                                "coeffs": [str(k + 1) for k in range(terms)]}))
    code, payload = run_json(capsys, "apply", "--s", "6/5", "--series", str(path),
                             "--order", "6")
    assert code == 0
    out = series_from_json_dict(payload["series"])
    assert out.truncation == Fraction(1, 3) + min(6 + 1, terms)


@pytest.mark.parametrize("extra", [[], ["--log"]])
def test_apply_annihilates_solution_file(capsys, tmp_path, extra):
    alpha = "1/2" if extra else "-1/10"
    s = "6" if extra else "6/5"
    code, payload = run_json(capsys, "solve", "--s", s, "--alpha", alpha,
                             "--order", "6", *extra)
    assert code == 0
    path = tmp_path / "series.json"
    path.write_text(json.dumps(payload["series"]))
    code, payload = run_json(capsys, "apply", "--s", s, "--series", str(path),
                             "--order", "6")
    assert code == 0
    out = payload["series"]
    assert set(out["coeffs"]) == {"0"}
    assert set(out.get("log_coeffs", ["0"])) == {"0"}


def test_reproduce_output_is_pinned(capsys):
    # every check's report, byte for byte as committed in tests/data
    code, out = run(capsys, "reproduce")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "reproduce.json").read_text()
    with pytest.raises(ChildProcessError):  # the forked child is reaped
        os.waitpid(-1, os.WNOHANG)


def _with_pid(job):
    return job, os.getpid()


def test_two_way_returns_results_in_job_order():
    out = cli._two_way(_with_pid, list(range(7)))
    assert [job for job, _ in out] == list(range(7))
    assert {pid for _, pid in out[0::2]} == {os.getpid()}
    [child] = {pid for _, pid in out[1::2]}
    assert child != os.getpid()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_two_way_carries_results_past_the_pipe_buffer():
    out = cli._two_way(lambda j: bytes([j]) * 2**20, [0, 1, 2, 3])
    assert out == [bytes([j]) * 2**20 for j in range(4)]


def test_two_way_raises_a_child_error_in_the_parent():
    def job(j):
        if j == 1:  # jobs[1::2] run in the child
            raise InsufficientOrder("B.a.f0: built to q^3, requested through q^4")
        return j

    with pytest.raises(InsufficientOrder) as info:
        cli._two_way(job, [0, 1, 2])
    assert type(info.value) is InsufficientOrder
    assert str(info.value) == "B.a.f0: built to q^3, requested through q^4"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_error_keeps_its_exit_code(monkeypatch, capsys):
    # B.b is the second section, so the forked child verifies it
    verify = catalog.verify_entry

    def short(label, order=None):
        if label.startswith("B.b."):
            raise InsufficientOrder(f"{label}: too short")
        return verify(label, order)

    monkeypatch.setattr(catalog, "verify_entry", short)
    assert cli.main(["catalog", "verify", "--all"]) == cli.EXIT_ORDER
    assert capsys.readouterr().err == "insufficient order: B.b.f-8/15: too short\n"


def test_two_way_kills_the_child_when_a_parent_job_raises(monkeypatch):
    children, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def job(j):
        if j == 0:
            raise ValueError("parent job")
        time.sleep(60)

    monkeypatch.setattr(os, "fork", recording_fork)
    with pytest.raises(ValueError, match="parent job"):
        cli._two_way(job, [0, 1])
    [pid] = children
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_two_way_child_stops_once_its_parent_is_killed(tmp_path):
    # each child job logs a line; after SIGKILL ends the parent, the child
    # finishes the job it is in and starts no other
    log = tmp_path / "child-jobs"
    script = f"""
import os, signal, time
from mldelab import cli

def job(j):
    if j == 0:
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    with open({str(log)!r}, "a") as fh:
        fh.write("job\\n")
    time.sleep(0.2)

cli._two_way(job, list(range(100)))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30)
    assert done.returncode == -signal.SIGKILL
    time.sleep(0.5)
    logged = log.read_text()
    time.sleep(1)
    assert log.read_text() == logged


def test_two_way_runs_in_process_without_fork(monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert cli._two_way(_with_pid, list(range(5))) == [(j, os.getpid()) for j in range(5)]


CHARACTER_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "characters.json").read_text())


@pytest.mark.parametrize("algebra, order", [
    (algebra, order) for algebra, by_order in CHARACTER_DIGESTS.items()
    for order in by_order])
def test_characters_output_is_pinned(capsys, algebra, order):
    # tests/data/characters.json holds the sha256 of the stdout of
    # `mldelab characters --algebra X --order N`: every printed coefficient
    code, out = run(capsys, "characters", "--algebra", algebra, "--order", order)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARACTER_DIGESTS[algebra][order]


def test_characters_verify_enumerates_each_coset_once(capsys, monkeypatch):
    # the printed characters and the check share one Ramond basis
    calls = []
    sweep = characters.lattice_theta

    def counted(lat, order):
        calls.append(lat)
        return sweep(lat, order)

    monkeypatch.setattr(characters, "lattice_theta", counted)
    code, payload = run_json(capsys, "characters", "--algebra", "E6",
                             "--verify", "--order", "5")
    assert code == 0 and payload["verified"]
    assert len(calls) == 6
