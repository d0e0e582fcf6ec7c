"""Benchmark runner for burnside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs one workload as a closed loop with one client: each op starts when
the previous one has finished.  The workload's op stream is generated from
the seed before timing starts; a run makes round(S / PASS_S) passes over
the stream (a pass takes 9 to 14 s on the CLI workloads and 5 to 8 s on the
session, on a 2-core x86 box with Python 3.11), so parent and change
always measure the same amount of work.  No pass starts after 120 s and
no op runs past 165 s.  Every answer is checked; a non-zero exit, a
timeout or a wrong answer fails the op.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics, every timing scaled by the box's speed around it as a
reference job measures it (bench/speed.py); with --trace 1 it runs one untraced and one traced pass
and reports the per-layer metrics instead.  --out appends the full record
(context, per-pass values, metrics) as one JSON line, for bench/compare.py.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import answers, layers, speed, stats, workloads  # noqa: E402

clock = time.perf_counter

# nominal seconds per pass: a run makes round(seconds / PASS_S) passes
PASS_S = {"schur-batch": 10.0, "engine-oracle": 10.0, "library-session": 6.0}
SETUP_PER_PASS = 3  # set-up timings before each pass, so they span the run
OP_TIMEOUT_S = 60.0
SESSION_TIMEOUT_S = 120.0
PASS_BUDGET_S = 120.0  # no pass starts later than this
DEADLINE_S = 165.0  # no op runs past this, so a run ends within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]


class Op:
    """Outcome of one op: latency, resources and the reason it failed."""

    __slots__ = ("wall", "cpu", "rss_kb", "failure", "out_bytes", "trace")

    def __init__(self, wall=0.0, cpu=0.0, rss_kb=0, failure=None, out_bytes=0, trace=None):
        self.wall, self.cpu, self.rss_kb = wall, cpu, rss_kb
        self.failure, self.out_bytes, self.trace = failure, out_bytes, trace


class Runner:
    def __init__(self, workdir: Path, start: float):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.start = start

    def remaining(self) -> float:
        return DEADLINE_S - (clock() - self.start)

    def may_start_pass(self) -> bool:
        return clock() - self.start < PASS_BUDGET_S

    def spawn(self, argv: list, timeout: float) -> tuple:
        """Run one child to completion.  Returns (wall, CPU time, the largest
        max-RSS in kB of any child so far, exit code or None on timeout,
        stdout, stderr)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = clock()
        try:
            done = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=max(timeout, 0.1))
            code, out, err = done.returncode, done.stdout, done.stderr
        except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
            code, out, err = None, exc.stdout or b"", exc.stderr or b""
        wall = clock() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        return (wall, cpu, after.ru_maxrss,
                code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"))

    def setup(self, count: int) -> list[list]:
        """`count` timings of interpreter start plus `import burnside.cli`,
        each in a fresh process between two reference timings, as [wall,
        scale factor] (speed.py)."""
        walls, refs = [], [speed.reference()]
        for _ in range(count):
            wall, _, _, code, _, err = self.spawn(
                [sys.executable, "-c", "import burnside.cli"], OP_TIMEOUT_S
            )
            if code != 0:
                raise RuntimeError(f"importing burnside.cli failed: {err.strip()[-300:]}")
            walls.append(wall)
            refs.append(speed.reference())
        return [[wall, speed.scale(refs, k + 1)] for k, wall in enumerate(walls)]

    def cli_op(self, index: int, job: dict, expected: dict, traced: bool) -> Op:
        timeout = min(OP_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            return Op(failure="not started: the run reached its deadline")
        trace_path = self.workdir / "trace.json"
        trace_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(ROOT / "bench" / "trace_cli.py"), str(trace_path), str(index), "--"]
        else:
            argv = [sys.executable, "-m", "burnside.cli"]
        wall, cpu, rss_kb, code, out, err = self.spawn(argv + job["argv"], timeout)
        op = Op(wall, cpu, rss_kb, out_bytes=len(out.encode()))
        if code is None:
            op.failure = f"timed out after {timeout:.0f} s"
        elif code != 0:
            op.failure = f"exit code {code}: {err.strip()[-200:]}"
        else:
            try:
                answers.check(job["argv"], job["key"], out, expected)
            except answers.WrongAnswer as exc:
                op.failure = str(exc)
        if traced and trace_path.exists():
            op.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return op

    def cli_pass(self, jobs, expected, traced=False, timed=True) -> dict:
        """One pass over the stream.  A timed pass times the reference job
        before the first op and after every op; the passes of a traced run
        take no reference timings, so their wall is the ops' alone.  Each
        op is recorded as [wall, CPU time, scale factor, answered]."""
        start = clock()
        ops, refs = [], []
        if timed:
            refs.append(speed.reference())
        for k, job in enumerate(jobs):
            ops.append(self.cli_op(k, job, expected, traced))
            if timed:
                refs.append(speed.reference())
        factors = [speed.scale(refs, k + 1) if timed else 1.0 for k in range(len(ops))]
        return {
            "wall": clock() - start,
            "refs": refs,
            "ops": [[op.wall, op.cpu, f, op.failure is None] for op, f in zip(ops, factors)],
            "rss_kb": max(op.rss_kb for op in ops),
            "attempted": len(ops),
            "failures": [[k, op.failure] for k, op in enumerate(ops) if op.failure],
            "out_bytes": sum(op.out_bytes for op in ops),
            "traces": [op.trace for op in ops if op.trace is not None],
        }

    def session_pass(self, queries_path: Path, count: int, traced=False, timed=True) -> dict:
        result_path = self.workdir / "session.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(ROOT / "bench" / "session.py"),
                "--queries", str(queries_path), "--out", str(result_path)]
        if traced:
            argv.append("--trace")
        if timed:
            argv.append("--speed")
        timeout = min(SESSION_TIMEOUT_S, self.remaining())
        wall, _, rss_kb, code, _, err = self.spawn(argv, timeout)
        record = {
            "wall": wall,
            "refs": [],
            "ops": [],
            "rss_kb": rss_kb,
            "attempted": count,
            "failures": [],
            "out_bytes": 0,
            "traces": [],
        }
        if code != 0:
            why = "timed out" if code is None else f"exit code {code}: {err.strip()[-200:]}"
            record["failures"] = [[k, f"session {why}"] for k in range(count)]
            return record
        result = json.loads(result_path.read_text(encoding="utf-8"))
        failed = {k for k, _ in result["failures"]}
        refs = record["refs"] = result["refs"]
        record["ops"] = [
            [wall, cpu, speed.scale(refs, ref, "inline") if timed else 1.0, k not in failed]
            for k, (wall, cpu, ref) in enumerate(zip(result["latencies"], result["cpu"], result["ref"]))
        ]
        record["failures"] = result["failures"]
        if "trace" in result:
            record["traces"] = [result["trace"]]
        return record


def context(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def end_to_end(passes: list, setup: list) -> tuple[dict, dict]:
    """Metrics in reference seconds (speed.py): every op's wall and CPU time
    and every set-up timing is scaled by the reference speed around it.
    A pass's wall and CPU time are the sums over its ops.  The detail keeps
    the same timings unscaled."""

    def timings(scaled: bool) -> tuple[dict, tuple]:
        factor = (lambda f: f) if scaled else (lambda f: 1.0)
        walls = [sum(w * factor(f) for w, _, f, _ in p["ops"]) for p in passes]
        cpus = [sum(c * factor(f) for _, c, f, _ in p["ops"]) for p in passes]
        latencies = [w * factor(f) for p in passes for w, _, f, ok in p["ops"] if ok] or walls
        tail, percentile, samples = stats.tail(latencies)
        return {
            "setup_s": stats.median([w * factor(f) for w, f in setup]),
            "wall_s": stats.median(walls),
            "cpu_s": stats.median(cpus),
            "op_p50_s": stats.median(latencies),
            "op_tail_s": tail,
        }, (percentile, samples, walls)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    values, (percentile, samples, walls) = timings(scaled=True)
    values["peak_rss_mb"] = max(p["rss_kb"] for p in passes) / 1024
    values["ok_ratio"] = (attempted - failed) / attempted
    raw, _ = timings(scaled=False)
    detail = {
        "op_tail_percentile": percentile,
        "op_samples": samples,
        "fail_ratio": failed / attempted,
        "raw_s": raw,
        "reference_s": [stats.median(p["refs"]) if p["refs"] else None for p in passes],
        "pass_wall_s": walls,
        "pass_clock_s": [p["wall"] for p in passes],
    }
    return values, detail


def write_spans(traces: list, path: Path):
    with open(path, "w", encoding="utf-8") as handle:
        for trace in traces:
            for span_id, parent, op, name, start, end in trace["spans"]:
                handle.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one burnside benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "burnside" / "cli.py").is_file():
        print(f"error: no burnside sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = clock()
    work_root = ROOT / "bench" / ".work"
    workdir = work_root / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = context(args)
        runner = Runner(workdir, start)
        # inputs first, then timing
        if args.workload == "library-session":
            queries = workloads.session_stream(args.seed)
            queries_path = workdir / "queries.json"
            queries_path.write_text(json.dumps(queries), encoding="utf-8")

            def one_pass(traced=False, timed=True):
                return runner.session_pass(queries_path, len(queries), traced, timed)
        else:
            jobs = workloads.cli_stream(args.workload, args.seed, workdir)
            expected = answers.load()

            def one_pass(traced=False, timed=True):
                return runner.cli_pass(jobs, expected, traced, timed)

        if args.trace:
            plain = one_pass(timed=False)
            traced = one_pass(traced=True, timed=False)
            passes = [plain, traced]
            merged = layers.merge(traced["traces"])
            metrics = layers.layer_metrics(merged, {
                "cli.output_bytes": traced["out_bytes"],
                "trace.wall_s": traced["wall"],
                "trace.overhead_s": traced["wall"] - plain["wall"],
            })
            units = dict(layers.PER_LAYER)
            spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            write_spans(traced["traces"], spans_path)
            detail = {"untraced_wall_s": plain["wall"], "spans_file": str(spans_path.relative_to(ROOT)),
                      "spans_dropped": merged["dropped"], "missing": sorted(merged["missing"])}
        else:
            runner.setup(1)  # untimed: the first start may write bytecode caches
            planned = max(1, round(args.seconds / PASS_S[args.workload]))
            setup, passes = [], []
            while len(passes) < planned and (not passes or runner.may_start_pass()):
                setup += runner.setup(SETUP_PER_PASS)
                passes.append(one_pass())
            metrics, detail = end_to_end(passes, setup)
            detail["passes_skipped"] = planned - len(passes)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    report(ctx, metrics, units, detail, attempted, failures)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"context": ctx, "metrics": metrics, "detail": detail,
                                     "attempted": attempted, "failed": len(failures)}) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def report(ctx, metrics, units, detail, attempted, failures):
    print(f"# {ctx['workload']} seed={ctx['seed']} trace={ctx['trace']} git={ctx['git_sha']} "
          f"python={ctx['python']} nproc={ctx['nproc']} loadavg={ctx['loadavg']}")
    for k, reason in failures[:20]:
        print(f"# FAILED op {k}: {reason}")
    print(f"# ops attempted={attempted} failed={len(failures)}")
    for name, unit in units.items():
        value = metrics[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown:>14s} {unit}")
    if "op_tail_percentile" in detail:
        print(f"# op_tail_s is p{detail['op_tail_percentile']:.3f} of {detail['op_samples']} ops; "
              f"fail_ratio {detail['fail_ratio']:.6g}")
    print("# detail " + json.dumps(detail))


if __name__ == "__main__":
    sys.exit(main())
