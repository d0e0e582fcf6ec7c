"""One library session: a single process answering a stream of small
library queries, each checked by an identity between independent routes.

    python3 bench/session.py --queries QUERIES.json --out RESULT.json [--trace] [--speed]

Queries (see workloads.session_stream):
  lambda n i      closed_lambda == recursive_lambda, cardinality C(n, i)
  sigma i n       cardinality of sigma(i, n) is C(n+i-1, i)
  mul n a b       marks_of(a*b) is the pointwise product of the marks
  decompose d i   decompose(Sym^i({1..d})) over S_d equals sigma(i, d)
  general G i     lambda_general == eq6_general on the natural G-set

Before the stream, each engine-side case (decompose, general) is answered
once, untimed (see warm_up).  The result file holds each query's latency and CPU time, the failed
queries with their reason, and the trace when `--trace` is given.  With
`--speed` the session also times the inline reference job (bench/speed.py)
before the first query, after the last and after every REF_EVERY_S seconds
of queries; `ref` gives, for each query, the index of the reference timing
that followed it.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

from burnside import engine, marks, schur

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import speed  # noqa: E402

QUERY_TIMEOUT_S = 20.0
REF_EVERY_S = 0.2
WARM_KINDS = ("decompose", "general")


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout(f"query ran longer than {QUERY_TIMEOUT_S} s")


def answer(query) -> str | None:
    """Run one query; None when its identity holds, else the reason."""
    kind = query[0]
    if kind == "lambda":
        _, i, n = query
        closed = schur.closed_lambda(i, n)
        if closed != schur.recursive_lambda(i, n):
            return "closed and recursive lambda differ"
        if schur.cardinality(closed) != math.comb(n, i):
            return "lambda cardinality is not C(n, i)"
    elif kind == "sigma":
        _, i, n = query
        if schur.cardinality(schur.sigma(i, n)) != math.comb(n + i - 1, i):
            return "sigma cardinality is not C(n+i-1, i)"
    elif kind == "mul":
        _, n, a, b = query
        x = schur.SchurElement(n, {tuple(mu): c for mu, c in a})
        y = schur.SchurElement(n, {tuple(mu): c for mu, c in b})
        product = schur.schur_mul(x, y)
        mx, my = marks.marks_of(x).values, marks.marks_of(y).values
        if marks.marks_of(product).values != tuple(u * v for u, v in zip(mx, my)):
            return "marks of the product are not the product of the marks"
    elif kind == "decompose":
        _, degree, i = query
        gset = engine.symmetric_power(engine.natural_gset(engine.symmetric_group(degree)), i)
        if engine.burnside_to_schur(engine.decompose(gset)) != schur.sigma(i, degree):
            return "decomposed symmetric power differs from sigma"
    elif kind == "general":
        _, name, i = query
        group = {
            "C6": lambda: engine.cyclic_group(6),
            "D5": lambda: engine.dihedral_group(5),
            "S4": lambda: engine.symmetric_group(4),
        }[name]()
        gset = engine.natural_gset(group)
        if engine.lambda_general(gset, i) != engine.eq6_general(gset, i):
            return "lambda_general and eq6_general differ"
    else:
        return f"unknown query kind {kind!r}"
    return None


def warm_up(queries):
    """Answer each engine-side case of the stream once, untimed.  A
    long-lived session pays the cold first call of a case once; in the
    stream these few calls would lie above every other query and decide
    op_tail_s, which is meant to describe the warm session."""
    cases = {json.dumps(q): q for q in queries if q[0] in WARM_KINDS}
    for query in cases.values():
        reason = answer(query)
        if reason is not None:
            raise SystemExit(f"warm-up query {query} failed: {reason}")


def run(queries, tracer=None, timed=False) -> dict:
    latencies, cpu, ref, refs, failures = [], [], [], [], []
    signal.signal(signal.SIGALRM, _on_alarm)
    clock = time.perf_counter
    if timed:
        refs.append(speed.reference("inline"))
    since = clock()
    for index, query in enumerate(queries):
        if tracer is not None:
            tracer.op = index
            frame = tracer.enter("session.query")
        cpu_start = time.process_time()
        start = clock()
        signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
        try:
            reason = answer(query)
        except QueryTimeout as exc:
            reason = str(exc)
        except Exception as exc:  # a crashing query is a failed op, not a crashed run
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(clock() - start)
        cpu.append(time.process_time() - cpu_start)
        ref.append(len(refs))
        if tracer is not None:
            tracer.exit(frame)
        if reason is not None:
            failures.append([index, reason])
        if timed and clock() - since >= REF_EVERY_S:
            refs.append(speed.reference("inline"))
            since = clock()
    if timed:
        refs.append(speed.reference("inline"))
    return {"latencies": latencies, "cpu": cpu, "ref": ref, "refs": refs, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--speed", action="store_true", help="time the reference job between queries")
    args = parser.parse_args(argv)
    queries = json.loads(Path(args.queries).read_text(encoding="utf-8"))
    warm_up(queries)
    tracer = None
    if args.trace:
        from bench import layers
        from bench.tracer import Tracer

        tracer = Tracer()
        tracer.install(layers.TARGETS)
    try:
        result = run(queries, tracer, timed=args.speed)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["trace"] = dict(tracer.snapshot(), caches=layers.cache_info())
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
