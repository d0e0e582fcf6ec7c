"""Seeded inputs for the three workloads.

Every input is drawn from `--seed` before any timing starts, so one seed
always gives the same job stream, query stream and group files.

The CLI streams are stratified: each stream holds a fixed number of jobs
from each slot below, and the options of one slot cost about the same (on
a 2-core x86 box with Python 3.11, each op takes from 0.1 s to 2.5 s).
The seed picks the option in every slot, the order of the jobs and the
point labels of every group file, so inputs differ from seed to seed while
the total work of a stream, and hence its wall time, stays nearly the same.

Sizes the generator never draws, because one op would dominate or hang:
`lambda --method recursive` at n=16 (8.5 s), products of [1^n] with itself
at n >= 10 (n! tables), `oracle` on S_7 (57 s, 677 MB) and doubled actions
with i=4 (D_8: 79 s).  The two known hangs, `sigma --n 2 --i 120` and
`lambda --n 3 --i 3000 --method recursive`, are left to the bounded-
correctness work; the "tall" jobs show the same enumerate-everything-then-
filter mechanism at sizes that finish.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("schur-batch", "engine-oracle", "library-session")


def _lam(n, i, method):
    return ["lambda", "--n", str(n), "--i", str(i), "--method", method]


# mul operands: n <= 16 and at most 4 parts, never [1^n]
MUL_PAIRS = [
    (10, "[4,3,2,1]", "[5,5]"),
    (10, "[5,2,2,1]", "[6,3,1]"),
    (10, "[4,3,3]", "[5,3,2]"),
    (11, "[4,4,3]", "[6,3,2]"),
    (11, "[5,3,2,1]", "[7,4]"),
    (12, "[3,3,3,3]", "[6,2,2,2]"),
    (12, "[4,3,3,2]", "[6,3,2,1]"),
    (12, "[5,3,2,2]", "[5,5,2]"),
    (12, "[4,4,4]", "[7,3,1,1]"),
    (13, "[5,4,3,1]", "[6,4,3]"),
    (13, "[4,4,3,2]", "[7,3,3]"),
    (14, "[5,3,3,3]", "[5,5,2,2]"),
    (14, "[7,3,3,1]", "[5,4,3,2]"),
    (14, "[8,4,2]", "[4,4,3,3]"),
    (14, "[7,4,2,1]", "[8,4,1,1]"),
    (15, "[5,4,3,3]", "[6,5,4]"),
    (15, "[6,4,3,2]", "[9,3,3]"),
    (16, "[7,5,3,1]", "[5,5,4,2]"),
    (16, "[5,5,3,3]", "[8,5,2,1]"),
    (16, "[6,6,2,2]", "[9,3,3,1]"),
    (16, "[9,3,2,2]", "[9,4,2,1]"),
    (16, "[4,4,4,4]", "[6,5,3,2]"),
]

# (slot, jobs drawn per stream, options)
#
# Jobs are few and heavy, so that the layers under test, not interpreter
# start (about 0.12 s per op), hold most of an op's time.  The options of a
# slot cost the same to within about 10%, and the slots form cost bands
# with gaps between them, placed so that neither percentile depends on the
# seed, and each is an inner run of a band of 9.  With 3 passes a stream of
# 12 jobs gives 36 ops: op_p50_s, the mean of the 18th and 19th, lies among
# the runs of the three tall-sigma-45 jobs (ops 13 to 21), and op_tail_s,
# the 26th (ten ops beyond it), is the middle run of the three lambda-13
# jobs (ops 22 to 30).
SCHUR_SLOTS = [
    # 1.6-2.3 s
    ("marks-18", 1, [["marks", "--n", "18"]]),
    ("tall-lambda-40", 1, [_lam(n, 40, "recursive") for n in (2, 3)]),
    # 1.2 s
    ("lambda-13", 3, [_lam(15, 13, "recursive"), _lam(14, 13, "both")]),
    # 0.9 s
    ("tall-sigma-45", 3, [["sigma", "--n", str(n), "--i", "45"] for n in (2, 3, 4)]),
    # 0.1-0.8 s: start-up, parsing and output dominate the cheapest
    ("verify-9", 1, [["verify", "--n-max", "9"]]),
    ("mul", 2, [["mul", "--n", str(n), "--a", a, "--b", b] for n, a, b in MUL_PAIRS]),
    ("closed", 1, [_lam(n, i, "closed") for n in range(8, 16) for i in range(1, n + 1)]),
]

# Group files: degree and generators in cycle notation.  C4wrC2 is the
# order-32 imprimitive wreath product with blocks {1..4} and {5..8}.
GROUPS = {
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"]),
    "S6": (6, ["(1 2)", "(1 2 3 4 5 6)"]),
    "D8": (8, ["(1 2 3 4 5 6 7 8)", "(1 8)(2 7)(3 6)(4 5)"]),
    "C8": (8, ["(1 2 3 4 5 6 7 8)"]),
    "F21": (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
    "C4wrC2": (8, ["(1 2 3 4)", "(1 5)(2 6)(3 7)(4 8)"]),
}


def _oracle(group, action, i):
    return ("oracle", group, action, i)


# Here one wide band holds both percentiles: with 3 passes, 9 jobs give 27
# ops, and the six 1 s jobs give ops 7 to 24, so op_p50_s (the 14th) and
# op_tail_s (the 17th) are inner runs of a band of 18, which spans the
# whole run; a band of one job's 3 runs follows the machine's speed at only
# 3 moments, and spread more widely from run to run.
ENGINE_SLOTS = [
    # 2.2-2.5 s: S_6, where canonical keys dominate
    ("s6", 1, [_oracle("S6", "natural", 1), _oracle("S6", "doubled", 1)]),
    # 1.0-1.1 s; three of each, since the seed's choice between the two
    # moved a stream's work by up to 10%
    ("mid-oracle", 3, [_oracle("S5", "doubled", 2)]),
    ("mid-indres", 3, [["indres", "--i", "2", "--n", "5"]]),
    # 0.7 s
    ("wreath", 1, [_oracle("C4wrC2", "doubled", 2), _oracle("C4wrC2", "natural", 3)]),
    # 0.2-0.45 s
    ("small", 1, [_oracle("C8", "natural", 3), _oracle("C8", "doubled", 2),
                  _oracle("F21", "natural", 3), _oracle("F21", "doubled", 2),
                  _oracle("D8", "doubled", 2)]),
]


def job_key(option) -> str:
    """Key of a job in the recorded answers.  Oracle jobs are keyed by group
    name, action and power, since their group files are relabelled per seed."""
    if option[0] == "oracle":
        _, group, action, i = option
        return f"oracle {group} {action} {i}"
    return " ".join(option)


def catalogue(workload: str) -> list:
    """Every option the generator can draw for a CLI workload."""
    slots = SCHUR_SLOTS if workload == "schur-batch" else ENGINE_SLOTS
    return [option for _, _, options in slots for option in options]


def relabel(group: str, rng: random.Random) -> str:
    """Group file text with the points renamed by a random permutation; the
    group is conjugated, so every answer keeps its relabelling-invariant
    content (orders, coefficients, Schur labels)."""
    degree, gens = GROUPS[group]
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    lines = [f"degree {degree}"]
    for text in gens:
        cycles = [c.split() for c in text.strip("()").split(")(")]
        lines.append("".join("(" + " ".join(str(images[int(p) - 1]) for p in c) + ")" for c in cycles))
    return "\n".join(lines) + "\n"


def cli_stream(workload: str, seed: int, group_dir: Path) -> list[dict]:
    """The job stream of a CLI workload: one dict per op with its argv (after
    `python -m burnside.cli`) and its answer key.  Group files are written to
    `group_dir`."""
    rng = random.Random(f"{workload}:{seed}")
    slots = SCHUR_SLOTS if workload == "schur-batch" else ENGINE_SLOTS
    drawn = [rng.choice(options) for _, count, options in slots for _ in range(count)]
    rng.shuffle(drawn)
    group_files = {}
    jobs = []
    for option in drawn:
        if option[0] == "oracle":
            _, group, action, i = option
            if group not in group_files:
                path = group_dir / f"{group}.grp"
                path.write_text(relabel(group, rng), encoding="utf-8")
                group_files[group] = path
            argv = ["oracle", "--group", str(group_files[group]), "--i", str(i), "--action", action]
        else:
            argv = list(option)
        jobs.append({"argv": argv + ["--format", "structured"], "key": job_key(option)})
    return jobs


# Library-session query mix: (kind, queries per stream).  Schur-side
# parameters are drawn with replacement, so most queries repeat an earlier
# one and hit the package's caches.  Engine-side queries rebuild their G-sets
# every time (the engine caches groups, not G-sets); they cycle through every
# combination below an equal number of times, so each stream holds the same
# engine work and only its order depends on the seed.  The session answers
# each engine-side case once before timing (session.warm_up), so the cold
# first decompose on S_5 (65-95 ms) is not in the stream; the slowest
# queries are then lambda_general on S_4 and D_5 at i=3 (30-60 ms), which
# come six times per stream.  Over 5 passes op_tail_s, with ten queries
# beyond it, is the 11th slowest of those 30 runs: an inner run of a band
# wide enough that one slow query (a garbage collection, a burst of load)
# barely moves it.
SESSION_MIX = [("lambda", 3000), ("sigma", 3000), ("mul", 4200), ("decompose", 144), ("general", 27)]
DECOMPOSE_CASES = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)]
GENERAL_CASES = [(g, i) for g in ("C6", "D5", "S4") for i in (1, 2, 3)]


def _random_element(rng: random.Random, n: int, partitions) -> list:
    """1 to 3 distinct basis keys of n with small nonzero coefficients."""
    keys = rng.sample(partitions, k=min(len(partitions), rng.randint(1, 3)))
    return [[list(mu), rng.choice((-2, -1, 1, 2, 3))] for mu in keys]


def _partitions(n: int, largest: int | None = None) -> list[tuple]:
    """Partitions of n in descending lexicographic order (the generator's
    own copy, so the inputs do not depend on the code under test)."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in _partitions(n - first, first)
    ]


def session_stream(seed: int) -> list[list]:
    """The library-session query stream, as JSON-ready lists."""
    rng = random.Random(f"library-session:{seed}")
    # [1^n] x [1^n] enumerates n! tables: keep keys to at most 5 parts
    mul_keys = {n: [mu for mu in _partitions(n) if len(mu) <= 5] for n in range(2, 9)}
    counts = dict(SESSION_MIX)
    queries = []
    for _ in range(counts["lambda"]):
        # n <= 9 and i <= n: a first-time recursion at n=11 takes 0.5 s, and
        # at n=9 with i=10 or 11 (where lambda vanishes) 50-90 ms; either
        # would decide op_tail_s by the order in which the seed draws queries
        n = rng.randint(1, 9)
        queries.append(["lambda", rng.randint(0, n), n])
    for _ in range(counts["sigma"]):
        queries.append(["sigma", rng.randint(0, 12), rng.randint(1, 10)])
    for _ in range(counts["mul"]):
        n = rng.randint(2, 8)
        queries.append(["mul", n, _random_element(rng, n, mul_keys[n]), _random_element(rng, n, mul_keys[n])])
    for k in range(counts["decompose"]):
        queries.append(["decompose", *DECOMPOSE_CASES[k % len(DECOMPOSE_CASES)]])
    for k in range(counts["general"]):
        queries.append(["general", *GENERAL_CASES[k % len(GENERAL_CASES)]])
    rng.shuffle(queries)
    return queries
