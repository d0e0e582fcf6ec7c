"""Seeded inputs, answer checking and the benchmark's declared metrics."""

import json
import sys
from pathlib import Path

import pytest

from bench import answers, layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_cli_streams_are_determined_by_the_seed(tmp_path):
    for workload in ("schur-batch", "engine-oracle"):
        dirs = [tmp_path / f"{workload}-{k}" for k in range(3)]
        for d in dirs:
            d.mkdir()
        a = workloads.cli_stream(workload, 7, dirs[0])
        b = workloads.cli_stream(workload, 7, dirs[1])
        c = workloads.cli_stream(workload, 8, dirs[2])
        strip = lambda jobs, d: [[x.replace(str(d), "") for x in j["argv"]] for j in jobs]
        assert strip(a, dirs[0]) == strip(b, dirs[1])
        assert strip(a, dirs[0]) != strip(c, dirs[2])
        assert sorted(p.read_text() for p in dirs[0].iterdir()) == sorted(
            p.read_text() for p in dirs[1].iterdir()
        )
        expected = answers.load()
        assert all(job["key"] in expected for job in a + c)


def test_session_stream_is_determined_by_the_seed():
    a, b, c = (workloads.session_stream(s) for s in (3, 3, 4))
    assert a == b and a != c
    assert len(a) == sum(n for _, n in workloads.SESSION_MIX)
    assert json.loads(json.dumps(a)) == a


def test_relabelled_group_is_a_conjugate():
    import random

    text = workloads.relabel("C4wrC2", random.Random(1))
    lines = text.splitlines()
    assert lines[0] == "degree 8"
    assert sorted(int(p) for p in lines[2].replace("(", " ").replace(")", " ").split()) == list(range(1, 9))


def _structured(argv, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    from burnside import cli

    assert cli.main(argv + ["--format", "structured"]) == 0
    return capsys.readouterr().out


def test_corrupted_payload_is_a_wrong_answer(capsys):
    argv = ["lambda", "--n", "9", "--i", "4", "--method", "closed"]
    key = " ".join(argv)
    expected = answers.load()
    out = _structured(argv, capsys)
    answers.check(argv + ["--format", "structured"], key, out, expected)

    document = json.loads(out)
    document["payload"]["element"]["terms"][0]["coefficient"] += 1
    with pytest.raises(answers.WrongAnswer):
        answers.check(argv, key, json.dumps(document), expected)
    with pytest.raises(answers.WrongAnswer):
        answers.check(argv, key, out[: len(out) // 2], expected)
    del document["payload"]["element"]
    with pytest.raises(answers.WrongAnswer):
        answers.check(argv, key, json.dumps(document), expected)


def test_failed_verdict_inside_a_payload_is_a_wrong_answer(capsys):
    argv = ["lambda", "--n", "10", "--i", "10", "--method", "both"]
    out = _structured(argv, capsys)
    document = json.loads(out)
    document["payload"]["equal"] = False
    with pytest.raises(answers.WrongAnswer):
        answers.check(argv, " ".join(argv), json.dumps(document), answers.load())


def test_runner_counts_a_wrong_answer_as_a_failed_op(tmp_path):
    runner = run.Runner(tmp_path, run.clock())
    job = {
        "argv": ["lambda", "--n", "9", "--i", "4", "--method", "closed", "--format", "structured"],
        "key": "lambda --n 9 --i 5 --method closed",
    }
    op = runner.cli_op(0, job, answers.load(), traced=False)
    assert op.failure is not None and "differs from the recorded" in op.failure
    job["key"] = "lambda --n 9 --i 4 --method closed"
    assert runner.cli_op(0, job, answers.load(), traced=False).failure is None


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_removed_layers_report_null():
    merged = layers.merge([])
    merged["missing"] = {"engine.product_gset", "schur.schur_mul"}
    values = layers.layer_metrics(merged, {})
    assert values["schur.schur_mul.calls"] is None
    assert values["engine.class_product.hit_ratio"] is None
    assert values["schur.basis_product.hit_ratio"] is None  # no cache info at all
    assert values["marks.fixed_points.calls"] == 0
