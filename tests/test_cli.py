"""Command-line interface: exact output, exit codes, determinism."""

import json
import subprocess
import sys
from math import comb

import pytest

from burnside.cli import main
from burnside.schur import basis_element, cardinality


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lambda_vanishes(capsys):
    code, out = run(capsys, "lambda", "--n", "3", "--i", "5")
    assert code == 0
    assert out == "0\n"


def test_lambda_first_power(capsys):
    code, out = run(capsys, "lambda", "--n", "3", "--i", "1")
    assert code == 0
    assert out == "+1*[P(2,1)] @ n=3\n"


def test_lambda_both_methods(capsys):
    code, out = run(capsys, "lambda", "--n", "4", "--i", "2", "--method", "both")
    assert code == 0
    assert out.splitlines() == [
        "closed:    -1*[P(2,2)] +1*[P(2,1,1)] @ n=4",
        "recursive: -1*[P(2,2)] +1*[P(2,1,1)] @ n=4",
        "EQUAL",
    ]


def test_sigma_output(capsys):
    code, out = run(capsys, "sigma", "--n", "4", "--i", "2")
    assert code == 0
    assert out == "+1*[P(3,1)] +1*[P(2,2)] @ n=4\n"


def test_mul_output(capsys):
    code, out = run(capsys, "mul", "--n", "4", "--a", "[2,2]", "--b", "[2,2]")
    assert code == 0
    assert out == "+2*[P(2,2)] +1*[P(1,1,1,1)] @ n=4\n"


def test_marks_matrix(capsys):
    code, out = run(capsys, "marks", "--n", "2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["matrix"] == [[1, 0], [1, 2]]
    assert doc["payload"]["order"] == [[2], [1, 1]]

    code, out = run(capsys, "marks", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("mark matrix @ n=2")
    assert lines[2].split() == ["[2]", "1", "0"]
    assert lines[3].split() == ["[1,1]", "1", "2"]


def test_verify_small(capsys):
    code, out = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert (
        out.splitlines()[-1]
        == "PASS: 10/10 lambda equalities, 4/4 mark matrices triangular"
    )


def test_verify_structured(capsys):
    code, out = run(capsys, "verify", "--n-max", "3", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    body = doc["payload"]
    assert body["lambda_equalities"]["passed"] == body["lambda_equalities"]["total"] == 6
    assert body["vanishing"]["failures"] == []
    assert body["final"].startswith("PASS")


def test_verify_negative_i_max_is_a_usage_error(capsys):
    code, out = run(capsys, "verify", "--n-max", "3", "--i-max", "-5", "--format", "structured")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["payload"]["kind"] == "usage"
    assert "i-max" in doc["payload"]["message"]


def test_oracle_cyclic(capsys, tmp_path):
    path = tmp_path / "c4.grp"
    path.write_text("# rotations of a square\n(1 2 3 4)\n")
    code, out = run(capsys, "oracle", "--group", str(path), "--i", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group: degree 4, order 4"
    assert lines[-1] == "EQUAL"


def test_oracle_doubled_action(capsys, tmp_path):
    path = tmp_path / "c3.grp"
    path.write_text("(1 2 3)\n")
    code, out = run(capsys, "oracle", "--group", str(path), "--i", "3", "--action", "doubled")
    assert code == 0
    assert "action: doubled (6 points), i=3" in out
    assert out.splitlines()[-1] == "EQUAL"


def test_oracle_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("(1 2 3 4)\n(1 2\n")
    code, out = run(capsys, "oracle", "--group", str(path), "--i", "1")
    assert code == 2
    assert "line 2" in out


def test_oracle_missing_file(capsys, tmp_path):
    code, out = run(capsys, "oracle", "--group", str(tmp_path / "nope.grp"), "--i", "1")
    assert code == 2
    assert out.startswith("error:")


def test_oracle_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BURNSIDE_GROUP_CAP", "10")
    path = tmp_path / "s4.grp"
    path.write_text("(1 2)\n(1 2 3 4)\n")
    code, out = run(capsys, "oracle", "--group", str(path), "--i", "1")
    assert code == 3
    assert out.startswith("cap exceeded:")

    code, out = run(
        capsys, "oracle", "--group", str(path), "--i", "1", "--format", "structured"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["payload"]["cap"] == 10


def test_indres(capsys):
    code, out = run(capsys, "indres", "--i", "2", "--n", "4")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    code, out = run(capsys, "indres", "--i", "5", "--n", "4")
    assert code == 2


def test_usage_errors(capsys):
    code, out = run(capsys, "lambda", "--n", "0", "--i", "1")
    assert code == 2
    assert out.startswith("error:")

    code, out = run(capsys, "mul", "--n", "2", "--a", "[2,1]", "--b", "[1,1]")
    assert code == 2

    code, out = run(capsys, "lambda", "--n", "0", "--i", "1", "--format", "structured")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["payload"]["kind"] == "usage"

    with pytest.raises(SystemExit) as exc:
        main(["lambda", "--n", "3", "--i", "1", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_structured_round_trips_exactly(capsys, monkeypatch, tmp_path):
    from burnside import cli
    from burnside.partitions import TheoremViolation

    group = tmp_path / "s3.grp"
    group.write_text("(1 2)\n(1 2 3)\n")
    documents = [
        (0, ["lambda", "--n", "4", "--i", "2"]),
        (0, ["lambda", "--n", "5", "--i", "3", "--method", "both"]),
        (0, ["sigma", "--n", "3", "--i", "4"]),
        (0, ["mul", "--n", "3", "--a", "[2,1]", "--b", "[2,1]"]),
        (0, ["marks", "--n", "6"]),
        (0, ["verify", "--n-max", "5"]),
        (0, ["oracle", "--group", str(group), "--i", "2", "--action", "doubled"]),
        (0, ["indres", "--i", "2", "--n", "3"]),
        (3, ["marks", "--n", "40"]),
        (2, ["lambda", "--n", "0", "--i", "1"]),
        (2, ["oracle", "--group", str(tmp_path / "nope.grp"), "--i", "1"]),
    ]
    for expected, argv in documents:
        code, out = run(capsys, *argv, "--format", "structured")
        assert code == expected, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv

    def violated(i, n):
        raise TheoremViolation("closed sum \u2260 recursion\tat n=3")

    monkeypatch.setattr(cli, "closed_lambda", violated)
    code, out = run(capsys, "lambda", "--n", "3", "--i", "1", "--format", "structured")
    assert code == 1
    assert json.loads(out)["payload"]["kind"] == "theorem"
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_deterministic_output(capsys):
    first = run(capsys, "verify", "--n-max", "3", "--format", "structured")
    second = run(capsys, "verify", "--n-max", "3", "--format", "structured")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "burnside.cli", "lambda", "--n", "3", "--i", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "+1*[P(2,1)] @ n=3\n"


def test_tall_sigma_finishes():
    # sigma(120, 2) keeps 61 of the 1.8e9 partitions of 120
    proc = subprocess.run(
        [sys.executable, "-m", "burnside.cli", "sigma", "--n", "2", "--i", "120",
         "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    terms = json.loads(proc.stdout)["payload"]["element"]["terms"]
    assert terms == [
        {"partition": [2], "coefficient": 1},
        {"partition": [1, 1], "coefficient": 60},
    ]
    points = sum(t["coefficient"] * cardinality(basis_element(t["partition"], 2)) for t in terms)
    assert points == comb(121, 120)


def test_marks_past_the_cell_cap_exits_at_once():
    # p(40)^2 is about 1.4e9 cells; the cap refuses it before enumerating
    proc = subprocess.run(
        [sys.executable, "-m", "burnside.cli", "marks", "--n", "40", "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)["payload"]
    assert (payload["kind"], payload["which"], payload["cap"]) == ("cap", "mark-cells", 30_000_000)


def test_structured_mode_renders_no_text(capsys, monkeypatch, tmp_path):
    from burnside import cli
    from burnside.engine import BurnsideElement
    from burnside.schur import SchurElement

    def refuse(*args):
        raise AssertionError("text rendered in structured mode")

    monkeypatch.setattr(cli, "format_partition", refuse)
    monkeypatch.setattr(SchurElement, "render", refuse)
    monkeypatch.setattr(BurnsideElement, "render", refuse)
    group = tmp_path / "s3.grp"
    group.write_text("(1 2)\n(1 2 3)\n")
    for argv in (["marks", "--n", "5"], ["lambda", "--n", "4", "--i", "2", "--method", "both"],
                 ["sigma", "--n", "3", "--i", "4"], ["mul", "--n", "4", "--a", "[2,2]", "--b", "[3,1]"],
                 ["oracle", "--group", str(group), "--i", "2", "--action", "doubled"],
                 ["indres", "--i", "2", "--n", "3"]):
        code, out = run(capsys, *argv, "--format", "structured")
        assert code == 0
        assert json.loads(out)["status"] == "ok"
