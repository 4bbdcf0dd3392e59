import json

import pytest

from mldelab import cli
from mldelab.series import series_from_json_dict


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


def test_characters_exponents(capsys):
    code, payload = run_json(capsys, "characters", "--algebra", "G2",
                             "--order", "10")
    assert code == 0
    assert payload["exponents"] == ["-1/10", "1/10", "3/10", "7/10"]


def test_usage_errors(capsys):
    assert cli.main(["solve", "--s", "6/5"]) == cli.EXIT_USAGE
    assert cli.main(["solve", "--s", "not-a-rational", "--alpha", "0"]) == cli.EXIT_USAGE
    assert cli.main(["catalog", "build"]) == cli.EXIT_USAGE
    assert cli.main(["characters"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_verification_failure_exit(capsys):
    # a non-root alpha is a verification failure, not a usage error
    assert cli.main(["solve", "--s", "6/5", "--alpha", "0"]) == cli.EXIT_VERIFY
    capsys.readouterr()


def test_default_order_env(monkeypatch, capsys):
    monkeypatch.setenv("MLDE_DEFAULT_ORDER", "4")
    code, payload = run_json(capsys, "solve", "--s", "6/5", "--alpha", "-1/10")
    assert code == 0
    assert payload["order"] == 4
    monkeypatch.setenv("MLDE_DEFAULT_ORDER", "zebra")
    assert cli.main(["solve", "--s", "6/5", "--alpha", "-1/10"]) == cli.EXIT_USAGE
    capsys.readouterr()


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
