"""Command-line interface: exact output, exit codes, determinism."""

import json
import subprocess
import sys
from math import comb, factorial

import pytest

from burnside.cli import main
from burnside.schur import SchurElement, basis_element, cardinality


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


def test_verify_renders_the_library_sweep(capsys):
    # i-max below n-max: the equalities stop at i-max
    from burnside import verify

    assert verify.lambda_equalities(5, 2)["total"] == 9
    assert verify.vanishing(3, 5)["total"] == 9
    code, out = run(capsys, "verify", "--n-max", "5", "--i-max", "2", "--format", "structured")
    assert code == 0
    assert json.loads(out)["payload"] == verify.sweep(5, 2)


def test_verify_names_the_i_max_bound_of_the_equalities(capsys):
    # below n-max, i-max bounds the equalities, and their line says so
    code, out = run(capsys, "verify", "--n-max", "3", "--i-max", "0")
    assert code == 0
    assert out.splitlines() == [
        "lambda equalities (closed vs recursive), 1 <= i <= min(n, 0), n <= 3: 0/0",
        "vanishing above n (both constructions), n < i <= 0: 0/0",
        "mark matrices lower-triangular with nonzero diagonal, n <= 3: 3/3",
        "leading terms at n=3, k=1, degree sum <= 1: 2/2",
        "PASS: 0/0 lambda equalities, 3/3 mark matrices triangular",
    ]
    code, out = run(capsys, "verify", "--n-max", "5", "--i-max", "2")
    assert code == 0
    assert out.splitlines() == [
        "lambda equalities (closed vs recursive), 1 <= i <= min(n, 2), n <= 5: 9/9",
        "vanishing above n (both constructions), n < i <= 2: 1/1",
        "mark matrices lower-triangular with nonzero diagonal, n <= 5: 5/5",
        "leading terms at n=5, k=2, degree sum <= 2: 5/5",
        "PASS: 9/9 lambda equalities, 5/5 mark matrices triangular",
    ]


def test_a_verify_family_is_one_entry(capsys, monkeypatch):
    # one more entry in the table is run, reported, rendered and judged
    from burnside import verify

    before = verify.sweep(4)
    code, text = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    extra = {"passed": 0, "total": 1, "failures": [{"n": 4}]}
    monkeypatch.setattr(verify, "FAMILIES", verify.FAMILIES + (
        ("extra", lambda n_max, i_max: extra,
         lambda part, n_max, i_max: f"extra at n={n_max}: {part['passed']}/{part['total']}"),
    ))

    after = verify.sweep(4)
    assert after.pop("extra") == extra
    assert after.pop("final") == before.pop("final").replace("PASS", "FAIL")
    assert after == before
    code, out = run(capsys, "verify", "--n-max", "4")
    assert code == 1
    lines = text.splitlines()
    assert out.splitlines() == lines[:-1] + [
        "extra at n=4: 0/1", lines[-1].replace("PASS", "FAIL")
    ]
    code, out = run(capsys, "verify", "--n-max", "4", "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["payload"]["extra"] == extra


def test_verify_reports_each_failed_case(capsys, monkeypatch):
    # one failing case per family, with every check called in its order
    from burnside import verify
    from burnside.schur import SchurElement

    calls = []
    real_closed, real_recursive = verify.closed_lambda, verify.recursive_lambda
    real_injectivity, real_leading = verify.verify_injectivity, verify.leading_term_check
    bad_cells = [{"cycle_type": [2], "basis_key": [1, 1], "value": 1,
                  "reason": "nonzero entry above the diagonal"}]
    bad_leading = {"kappa1": [3, 1], "kappa2": [3, 1], "degrees": [1, 1],
                   "concatenation": [2, 1, 1], "coefficient": 2, "violations": [], "ok": False}

    def closed(i, n):
        calls.append(("closed", i, n))
        if (i, n) == (2, 3):
            return SchurElement.zero(3)
        if (i, n) == (6, 2):
            return SchurElement.one(2)
        return real_closed(i, n)

    def recursive(i, n):
        calls.append(("recursive", i, n))
        return real_recursive(i, n)

    def injectivity(n):
        calls.append(("marks", n))
        if n == 2:
            return {"triangular": False, "diagonal_nonzero": True, "failures": bad_cells}
        return real_injectivity(n)

    def leading(a, b, n, k):
        calls.append(("leading", tuple(a), tuple(b)))
        if (tuple(a), tuple(b)) == ((3, 1), (3, 1)):
            return bad_leading
        return real_leading(a, b, n, k)

    monkeypatch.setattr(verify, "closed_lambda", closed)
    monkeypatch.setattr(verify, "recursive_lambda", recursive)
    monkeypatch.setattr(verify, "verify_injectivity", injectivity)
    monkeypatch.setattr(verify, "leading_term_check", leading)

    final = "FAIL: 9/10 lambda equalities, 3/4 mark matrices triangular"
    code, out = run(capsys, "verify", "--n-max", "4", "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    body = doc["payload"]
    assert body["lambda_equalities"] == {"passed": 9, "total": 10, "failures": [{"i": 2, "n": 3}]}
    assert body["vanishing"] == {"passed": 17, "total": 18, "failures": [{"i": 6, "n": 2}]}
    assert body["mark_matrices"] == {
        "passed": 3, "total": 4, "failures": [{"n": 2, "failures": bad_cells}]
    }
    assert body["leading_terms"] == {"checked": 6, "passed": 5, "failures": [bad_leading]}
    assert body["final"] == final

    pairs = [((4,), (4,)), ((4,), (3, 1)), ((4,), (2, 2)), ((4,), (2, 1, 1)),
             ((4,), (1, 1, 1, 1)), ((3, 1), (3, 1))]
    assert calls == (
        [c for n in range(1, 5) for i in range(1, n + 1)
         for c in (("closed", i, n), ("recursive", i, n))]
        + [c for n in range(1, 5) for i in range(n + 1, 8)
           for c in (("recursive", i, n), ("closed", i, n))]
        + [("marks", n) for n in range(1, 5)]
        + [("leading", a, b) for a, b in pairs]
    )

    code, out = run(capsys, "verify", "--n-max", "4")
    assert code == 1
    assert out.splitlines() == [
        "lambda equalities (closed vs recursive), 1 <= i <= n <= 4: 9/10",
        "vanishing above n (both constructions), n < i <= 7: 17/18",
        "mark matrices lower-triangular with nonzero diagonal, n <= 4: 3/4",
        "leading terms at n=4, k=1, degree sum <= 2: 5/6",
        final,
    ]


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


def test_oracle_undecodable_file_names_the_file(capsys, tmp_path):
    path = tmp_path / "bin.grp"
    path.write_bytes(b"\xff\xfe(1 2)")
    code, out = run(capsys, "oracle", "--group", str(path), "--i", "1")
    assert code == 2
    assert out.startswith(f"error: cannot read group file {path}: 'utf-8' codec can't decode")


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
    from burnside import schur
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

    monkeypatch.setattr(schur, "closed_lambda", violated)
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


def test_verify_past_the_cell_cap_refuses_before_any_family(capsys, monkeypatch):
    # p(8)^2 = 484 cells pass a cap of 400: the triangularity family refuses
    # n=8, and that answer comes before any lambda is computed
    import burnside
    from burnside import partitions, schur

    burnside.clear_caches()
    monkeypatch.setattr(partitions, "TABLE_CAP", 400)
    code, out = run(capsys, "verify", "--n-max", "10")
    assert code == 3
    assert out == "cap exceeded: mark-cells cap 400 exceeded while building the mark matrix at n=8\n"
    assert schur.closed_lambda.cache_info().currsize == 0


def test_verify_far_past_the_cell_cap_exits_at_once():
    # the leading-term family would list the p(1000) partitions of n-max
    proc = subprocess.run(
        [sys.executable, "-m", "burnside.cli", "verify", "--n-max", "1000", "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)["payload"]
    assert (payload["which"], payload["cap"]) == ("mark-cells", 30_000_000)
    assert payload["message"].endswith("the mark matrix at n=30")


def _parts(count, part):
    return "[" + ",".join([str(part)] * count) + "]"


def test_recursion_limit_is_a_cap_not_a_traceback(capsys, monkeypatch):
    # the contingency tables are counted in a loop over the rows, so two
    # operands of hundreds of parts are answered in either order
    twos, ones = _parts(600, 2), _parts(1200, 1)
    points = factorial(1200) ** 2 // 2 ** 600
    for a, b in ((twos, ones), (ones, twos)):
        assert _mul_points(1200, a, b, timeout=10) == points
    # a recursion of another kernel that runs out of stack is still the cap
    from burnside import schur

    def deep(a, b):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(schur, "schur_mul", deep)
    for fmt in ("text", "structured"):
        code = main(["mul", "--n", "4", "--a", "[2,2]", "--b", "[3,1]", "--format", fmt])
        out, err = capsys.readouterr()
        assert code == 3
        assert err == ""
        if fmt == "text":
            assert out.startswith("cap exceeded: recursion-depth cap ")
            continue
        doc = json.loads(out)
        assert doc["status"] == "error"
        payload = doc["payload"]
        assert (payload["kind"], payload["which"]) == ("cap", "recursion-depth")
        assert payload["cap"] == sys.getrecursionlimit()


def _mul_points(n, a, b, timeout):
    """The point count of `mul --n n --a a --b b`, run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "burnside.cli", "mul", "--n", str(n), "--a", a, "--b", b,
         "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    terms = json.loads(proc.stdout)["payload"]["element"]["terms"]
    return cardinality(SchurElement(n, {tuple(t["partition"]): t["coefficient"] for t in terms}))


def test_wide_products_are_answered():
    # a row of the 200-part operand over a hundred columns of 2 has one
    # option per capacity class, not a fill per column
    twos, ones = _parts(100, 2), _parts(200, 1)
    points = factorial(200) // 2 ** 100 * factorial(200)
    for a, b in ((twos, ones), (ones, twos)):
        assert _mul_points(200, a, b, timeout=30) == points
    # ten rows of 10 over a hundred columns of 1: one state per layer
    tens, ones = _parts(10, 10), _parts(100, 1)
    points = factorial(100) ** 2 // factorial(10) ** 10
    for a, b in ((tens, ones), (ones, tens)):
        assert _mul_points(100, a, b, timeout=10) == points


@pytest.mark.parametrize("short", [(599, 1), (999, 1), (2,) * 450])
def test_n_ones_are_taken_as_columns(short):
    # n ones are the lex-smaller operand, so they are the columns and the
    # other operand the rows, in either order: each row has one fill
    n = sum(short)
    points = factorial(n) * cardinality(basis_element(short, n))
    text, ones = "[" + ",".join(map(str, short)) + "]", _parts(n, 1)
    for a, b in ((text, ones), (ones, text)):
        assert _mul_points(n, a, b, timeout=10) == points


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


@pytest.mark.parametrize("text, code, out", [
    # the natural set has degree points: an over-cap degree is refused
    # before any permutation of that degree is built
    ("degree 100000000\n(1 2)\n", 3,
     "cap exceeded: point-count cap 200000 exceeded while building natural({1..100000000})\n"),
    ("(1 100000000)\n", 3,
     "cap exceeded: point-count cap 200000 exceeded while building natural({1..100000000})\n"),
    ("degree 300000\n(1 2)\n", 3,
     "cap exceeded: point-count cap 200000 exceeded while building natural({1..300000})\n"),
    # overlapping cycles are named as such, whether or not they compose to
    # a bijection
    ("(1 2)(2 3)\n", 2, "group file error: line 1: cycles are not disjoint: [(1, 2), (2, 3)]\n"),
    ("(1 2)(1 2)\n", 2, "group file error: line 1: cycles are not disjoint: [(1, 2), (1, 2)]\n"),
], ids=["header-degree", "largest-point", "just-over-cap", "overlap", "repeat"])
def test_group_file_refusals_are_prompt(tmp_path, text, code, out):
    path = tmp_path / "g.grp"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "burnside.cli", "oracle", "--group", str(path), "--i", "1"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_closed_pipe_ends_the_output_quietly(tmp_path, fmt):
    # the answer, over 200 KB, outruns the pipe buffer, so the CLI is still
    # writing when the reader closes the pipe
    err = tmp_path / "err"
    with open(err, "wb") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "burnside.cli", "marks", "--n", "14", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=sink,
        )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        code = proc.wait(timeout=30)
    finally:
        proc.kill()
    assert (code, err.read_bytes()) == (0, b"")


@pytest.mark.parametrize("text, out", [
    # a 1-cycle counts toward disjointness like any other cycle
    ("(1 2)(1)\n", "cycles are not disjoint: [(1, 2), (1,)]"),
    ("(1)(1 2)\n", "cycles are not disjoint: [(1,), (1, 2)]"),
    ("(1 2)(3)(3)\n", "cycles are not disjoint: [(1, 2), (3,), (3,)]"),
    # a digit that is not a decimal digit is a bad header, not an int() error
    ("degree ²\n(1 2)\n", "bad degree header: 'degree ²'"),
    # the header's first token is the word degree itself, not a longer word
    ("degreex 3\n(1 2)\n", "bad degree header: 'degreex 3'"),
], ids=["one-cycle-last", "one-cycle-first", "repeated-one-cycle", "superscript-degree",
        "degree-prefix"])
def test_group_file_cycles_and_degree_header(capsys, tmp_path, text, out):
    path = tmp_path / "g.grp"
    path.write_text(text, encoding="utf-8")
    code, stdout = run(capsys, "oracle", "--group", str(path), "--i", "1")
    assert (code, stdout) == (2, f"group file error: line 1: {out}\n")
