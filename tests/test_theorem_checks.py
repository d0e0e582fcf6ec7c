"""Theorem checks raise TheoremViolation, also under ``python -O``, and the
CLI reports one with exit code 1."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Each check breaks one input of a theorem check on purpose (a wrong sigma,
# a wrong symmetric power, a wrong multiplicity profile) and reports what
# happened, one JSON line per check.
SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json
    from burnside import cli, engine, partitions, schur
    from burnside.partitions import TheoremViolation

    def outcome(call):
        try:
            call()
        except TheoremViolation as exc:
            return "TheoremViolation: " + str(exc)
        return "no error"

    real_sigma = schur.sigma
    schur.sigma = lambda i, n: real_sigma(i, n) + schur.SchurElement.one(n)
    report = {"recursive_lambda": outcome(lambda: schur.recursive_lambda(3, 2))}
    schur.recursive_lambda.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["lambda", "--n", "2", "--i", "3", "--method", "recursive",
                         "--format", "structured"])
    report["cli"] = [code, json.loads(out.getvalue())]
    schur.sigma = real_sigma

    real_power = engine.symmetric_power
    engine.symmetric_power = lambda s, m: real_power(s, 1)
    nat = engine.natural_gset(engine.symmetric_group(2))
    report["lambda_general"] = outcome(lambda: engine.lambda_general(nat, 3))
    engine.symmetric_power = real_power

    partitions.alpha = lambda mu: (len(mu) + 1,)
    report["multinomial"] = outcome(lambda: partitions.multinomial(partitions.Partition((2, 1))))
    print(json.dumps({"optimize": __import__("sys").flags.optimize, "report": report}))
    """
)


def test_theorem_checks_survive_optimize_flag():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["optimize"] == 1
    report = result["report"]
    assert report["recursive_lambda"].startswith("TheoremViolation: lambda^3 at n=2")
    assert report["lambda_general"].startswith("TheoremViolation: lambda^3 of natural")
    assert "must vanish, got +1 * [orbit: stabilizer-order 1" in report["lambda_general"]
    assert report["multinomial"].startswith("TheoremViolation: multinomial of [2,1]")
    code, document = report["cli"]
    assert code == 1
    assert document["status"] == "error"
    assert document["payload"]["kind"] == "theorem"
    assert "must vanish" in document["payload"]["message"]
