"""Checking CLI answers against answers recorded at a known-good commit.

A structured CLI document is {status, payload, diagnostics}.  Only the
payload is checked, never diagnostics.  Each payload is reduced to its
mathematical content, every verdict in it must hold, and the digest of the
content must equal the recorded one for that job:

- lambda / sigma / mul: the element's terms (partition, coefficient);
  `--method both` also needs `equal` and both elements to agree;
- marks: the row order and the matrix;
- verify: every passed count equal to its total, no failures listed;
- oracle / indres: `equal` / `pass` must hold, and the content is the
  multiset of (stabilizer order, coefficient, Schur label) per class, which
  does not depend on how points are labelled or on how elements are indexed.
  For oracle the class sizes must also add up to C(points, i).

Run `python3 bench/answers.py` to record bench/answers.json; do so only at a
commit whose answers the test suite has checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"


class WrongAnswer(Exception):
    """A payload that fails a verdict or a recorded answer."""


def _classes(element: dict) -> list:
    return sorted(
        [t["stabilizer_order"], t["coefficient"], t["schur"]] for t in element["terms"]
    )


def content(argv: list, payload: dict):
    """The mathematical content of one payload; raises WrongAnswer when a
    verdict inside the payload fails."""
    command = argv[0]
    if command in ("sigma", "mul"):
        return payload["element"]
    if command == "lambda":
        if payload["method"] != "both":
            return payload["element"]
        if payload["equal"] is not True or payload["closed"] != payload["recursive"]:
            raise WrongAnswer("closed and recursive lambda differ")
        return payload["closed"]
    if command == "marks":
        return [payload["order"], payload["matrix"]]
    if command == "verify":
        counts = []
        for section in ("lambda_equalities", "vanishing", "mark_matrices"):
            part = payload[section]
            if part["passed"] != part["total"] or part["failures"]:
                raise WrongAnswer(f"verify: {section} failed")
            counts.append(part["total"])
        leading = payload["leading_terms"]
        if leading["passed"] != leading["checked"] or leading["failures"]:
            raise WrongAnswer("verify: leading terms failed")
        counts.append(leading["checked"])
        return counts
    if command == "oracle":
        if payload["equal"] is not True or payload["closed_sum"] != payload["recursion"]:
            raise WrongAnswer("closed sum and recursion differ")
        group = payload["group"]
        points = group["degree"] * (2 if payload["action"] == "doubled" else 1)
        size = sum(
            t["coefficient"] * (group["order"] // t["stabilizer_order"])
            for t in payload["closed_sum"]["terms"]
        )
        if size != math.comb(points, payload["i"]):
            raise WrongAnswer(f"lambda^{payload['i']} has {size} points, not C({points}, {payload['i']})")
        return [group, _classes(payload["closed_sum"])]
    if command == "indres":
        if payload["pass"] is not True:
            raise WrongAnswer("indres reports a mismatch")
        blocks = []
        for report in payload["block_tuple_classes"]:
            if not report["isomorphic"] or report["size"] != report["expected_size"]:
                raise WrongAnswer(f"induced class {report['mu']} is not isomorphic")
            blocks.append([report["mu"], report["size"], _classes(report["lhs"])])
        return [blocks, _classes(payload["exterior_power"]["lhs"])]
    raise WrongAnswer(f"no checker for command {command!r}")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def check(argv: list, key: str, stdout: str, expected: dict):
    """Raise WrongAnswer unless `stdout` is a successful structured document
    whose content matches the recorded answer for `key`."""
    try:
        document = json.loads(stdout)
    except json.JSONDecodeError:
        raise WrongAnswer("output is not a JSON document") from None
    if document.get("status") != "ok":
        raise WrongAnswer(f"status is {document.get('status')!r}")
    try:
        value = content(argv, document["payload"])
    except (KeyError, TypeError) as exc:
        raise WrongAnswer(f"payload lacks {exc}") from None
    if key not in expected:
        raise WrongAnswer(f"no recorded answer for {key!r}")
    if digest(value) != expected[key]:
        raise WrongAnswer(f"answer differs from the recorded one for {key!r}")


def load() -> dict:
    return json.loads(ANSWERS.read_text(encoding="utf-8"))


def record(root: Path):
    """Run every catalogue job once and write the digests of their content."""
    from bench import workloads

    group_dir = HERE / ".work" / "record"
    group_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    answers = {}
    for workload in ("schur-batch", "engine-oracle"):
        for option in workloads.catalogue(workload):
            key = workloads.job_key(option)
            if option[0] == "oracle":
                _, group, action, i = option
                path = group_dir / f"{group}.grp"
                degree, gens = workloads.GROUPS[group]
                path.write_text(f"degree {degree}\n" + "\n".join(gens) + "\n", encoding="utf-8")
                argv = ["oracle", "--group", str(path), "--i", str(i), "--action", action]
            else:
                argv = list(option)
            done = subprocess.run(
                [sys.executable, "-m", "burnside.cli", *argv, "--format", "structured"],
                cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            answers[key] = digest(content(argv, json.loads(done.stdout)["payload"]))
            print(f"{answers[key]}  {key}", flush=True)
    ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))
    record(HERE.parent)
