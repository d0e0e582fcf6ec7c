"""The layers of burnside as the tracer sees them, and the per-layer
metrics computed from a trace.

Layers are the package's modules: partitions, schur, marks, engine and cli.
Within engine, the sub-layers are the ones profiling shows are hot: group
closure, G-set construction with its action check (`gset_build`),
canonical stabilizer keys, decomposition (the stabilizer sweep), orbits
and Burnside-ring products.  Spans named `session.*` are the benchmark's
own query loop in the library-session workload.  Which end-to-end metric
each layer metric should move, and on which workload, is tabled in
bench/README.md.
"""

from __future__ import annotations

import importlib

from .tracer import Target, original


def _enumerated(tracer, args, kwargs, result, parent):
    tracer.count("partitions.enumerated", len(result))
    # sigma(i, n) keeps the partitions of i with at most n parts
    if parent is not None and parent[0] == "schur.sigma" and len(parent[4]) >= 2:
        n = parent[4][1]
        tracer.count("partitions.sigma_enumerated", len(result))
        tracer.count("partitions.sigma_useful", sum(1 for mu in result if len(mu) <= n))


def _closed_order(tracer, args, kwargs, result, parent):
    tracer.count("engine.group_order", result.order)


def _built(tracer, args, kwargs, result, parent):
    # args: (cls, group, points, act_fn, label, verify, point_cap)
    tracer.count("engine.gset_points", result.size)
    verify = kwargs.get("verify", args[5] if len(args) > 5 else True)
    if verify:
        # computed, not measured: one act() pair per generator x element x point
        group = result.group
        tracer.count("engine.verify_evals", len(group.generators()) * group.order * result.size)


def _pairs(tracer, args, kwargs, result, parent):
    a, b = args[0], args[1]
    tracer.count("engine.class_pairs", len(a.coeffs) * len(b.coeffs))


def _product_built(tracer, args, kwargs, result, parent):
    if parent is not None and parent[0] == "engine.burnside_mul":
        tracer.count("engine.class_product_misses")


TARGETS = [
    Target("partitions.enumerate_partitions", "burnside.partitions", "enumerate_partitions", _enumerated),
    Target("schur.schur_mul", "burnside.schur", "schur_mul"),
    Target("schur.sigma", "burnside.schur", "sigma"),
    Target("schur.recursive_lambda", "burnside.schur", "recursive_lambda"),
    Target("schur.closed_lambda", "burnside.schur", "closed_lambda"),
    Target("schur.leading_term_check", "burnside.schur", "leading_term_check"),
    Target("marks.fixed_points", "burnside.marks", "fixed_points"),
    Target("marks.mark_matrix", "burnside.marks", "mark_matrix"),
    Target("marks.marks_of", "burnside.marks", "marks_of"),
    Target("marks.verify_injectivity", "burnside.marks", "verify_injectivity"),
    Target("engine.group_closure", "burnside.engine", "group_closure", _closed_order),
    Target("engine.gset_build", "burnside.engine", "GSet.from_point_action", _built),
    Target("engine.canonical_key", "burnside.engine", "PermGroup.canonical_key"),
    Target("engine.coset_space", "burnside.engine", "PermGroup.coset_space"),
    Target("engine.orbits", "burnside.engine", "orbits"),
    Target("engine.decompose", "burnside.engine", "decompose"),
    Target("engine.burnside_mul", "burnside.engine", "burnside_mul", _pairs),
    Target("engine.product_gset", "burnside.engine", "product_gset", _product_built),
    Target("engine.lambda_general", "burnside.engine", "lambda_general"),
    Target("engine.eq6_general", "burnside.engine", "eq6_general"),
    Target("engine.induce", "burnside.engine", "induce"),
    Target("engine.restrict", "burnside.engine", "restrict"),
    Target("cli.main", "burnside.cli", "main"),
]

# name -> (module, attribute) of the package's lru caches
CACHES = {
    "schur.basis_product": ("burnside.schur", "_basis_product"),
    "schur.sigma": ("burnside.schur", "sigma"),
    "schur.recursive_lambda": ("burnside.schur", "recursive_lambda"),
    "marks.placements": ("burnside.marks", "_placements"),
}
SCHUR_CACHES = ("schur.basis_product", "schur.sigma", "schur.recursive_lambda")

LAYERS = ("partitions", "schur", "marks", "engine", "cli", "session")


def cache_info() -> dict:
    """{cache: [hits, misses, entries]} for every cache that still exists."""
    out = {}
    for name, (module, attr) in CACHES.items():
        fn = original(getattr(importlib.import_module(module), attr, None))
        info = getattr(fn, "cache_info", None)
        if info is not None:
            hits, misses, _, entries = info()
            out[name] = [hits, misses, entries]
    return out


def merge(traces) -> dict:
    """Combine the snapshots of several traced processes: counts and times
    add up, cache entries take the largest process."""
    merged = {"stats": {}, "counters": {}, "caches": {}, "root_s": 0.0,
              "hook_s": 0.0, "spans": 0, "dropped": 0, "missing": set()}
    for trace in traces:
        for name, (calls, self_s, total_s) in trace["stats"].items():
            stat = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += self_s
            stat[2] += total_s
        for key, value in trace["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for name, (hits, misses, entries) in trace.get("caches", {}).items():
            cache = merged["caches"].setdefault(name, [0, 0, 0])
            cache[0] += hits
            cache[1] += misses
            cache[2] = max(cache[2], entries)
        merged["root_s"] += trace["root_s"]
        merged["hook_s"] += trace["hook_s"]
        merged["spans"] += len(trace["spans"]) + trace["dropped"]
        merged["dropped"] += trace["dropped"]
        merged["missing"].update(trace["missing"])
    return merged


# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("partitions.enumerate_partitions.calls", "count"),
    ("partitions.enumerate_partitions.self_s", "s"),
    ("partitions.enumerated", "count"),
    ("partitions.sigma_enumerated", "count"),
    ("partitions.useful_ratio", "ratio"),
    ("schur.schur_mul.calls", "count"),
    ("schur.schur_mul.self_s", "s"),
    ("schur.recursive_lambda.self_s", "s"),
    ("schur.recursive_lambda.total_s", "s"),
    ("schur.sigma.self_s", "s"),
    ("schur.closed_lambda.self_s", "s"),
    ("schur.leading_term_check.self_s", "s"),
    ("schur.basis_product.lookups", "count"),
    ("schur.basis_product.hit_ratio", "ratio"),
    ("schur.cache_entries", "count"),
    ("marks.fixed_points.calls", "count"),
    ("marks.fixed_points.self_s", "s"),
    ("marks.mark_matrix.self_s", "s"),
    ("marks.marks_of.self_s", "s"),
    ("marks.verify_injectivity.self_s", "s"),
    ("marks.placements.lookups", "count"),
    ("marks.placements.hit_ratio", "ratio"),
    ("engine.group_closure.calls", "count"),
    ("engine.group_closure.self_s", "s"),
    ("engine.group_order", "count"),
    ("engine.gset_build.calls", "count"),
    ("engine.gset_build.self_s", "s"),
    ("engine.gset_points", "count"),
    ("engine.verify_evals", "count"),
    ("engine.canonical_key.calls", "count"),
    ("engine.canonical_key.self_s", "s"),
    ("engine.decompose.self_s", "s"),
    ("engine.orbits.self_s", "s"),
    ("engine.burnside_mul.calls", "count"),
    ("engine.burnside_mul.self_s", "s"),
    ("engine.class_product.pairs", "count"),
    ("engine.class_product.hit_ratio", "ratio"),
    ("engine.coset_space.self_s", "s"),
    ("engine.induce.self_s", "s"),
    ("engine.restrict.self_s", "s"),
    ("engine.lambda_general.self_s", "s"),
    ("engine.eq6_general.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
] + [
    (f"layer.{layer}.{field}", unit)
    for layer in LAYERS
    for field, unit in (("self_s", "s"), ("share", "ratio"))
] + [
    ("trace.wall_s", "s"),
    ("trace.spanned_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.hook_s", "s"),
    ("trace.spans", "count"),
]


def layer_metrics(merged: dict, extra: dict) -> dict:
    """Every PER_LAYER value from merged traces; `extra` supplies the ones
    measured outside the traced processes (cli.output_bytes, trace.*), and
    layer shares are of its trace.wall_s.  Values of removed functions or
    caches are None.  A ratio whose base (the count listed beside it) is 0
    reads 0."""
    stats, counters, caches = merged["stats"], merged["counters"], merged["caches"]
    missing = merged["missing"]
    out = {}

    def stat(name, field):
        if name in missing:
            return None
        calls, self_s, total_s = stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "self_s": self_s, "total_s": total_s}[field]

    def ratio(num, den):
        return num / den if den else 0.0

    for metric, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field in ("calls", "self_s", "total_s") and not metric.startswith(("layer.", "trace.")):
            out[metric] = stat(head, field)
    out["partitions.enumerated"] = counters.get("partitions.enumerated", 0)
    sigma_enumerated = counters.get("partitions.sigma_enumerated", 0)
    out["partitions.sigma_enumerated"] = sigma_enumerated
    out["partitions.useful_ratio"] = ratio(counters.get("partitions.sigma_useful", 0), sigma_enumerated)
    for name in ("schur.basis_product", "marks.placements"):
        if name in caches:
            hits, misses, _ = caches[name]
            out[f"{name}.lookups"] = hits + misses
            out[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
        else:
            out[f"{name}.lookups"] = out[f"{name}.hit_ratio"] = None
    present = [caches[name][2] for name in SCHUR_CACHES if name in caches]
    out["schur.cache_entries"] = sum(present) if present else None
    out["engine.group_order"] = counters.get("engine.group_order", 0)
    out["engine.gset_points"] = counters.get("engine.gset_points", 0)
    out["engine.verify_evals"] = counters.get("engine.verify_evals", 0)
    pairs = counters.get("engine.class_pairs", 0)
    out["engine.class_product.pairs"] = pairs
    out["engine.class_product.hit_ratio"] = (
        None if "engine.product_gset" in missing
        else ratio(pairs - counters.get("engine.class_product_misses", 0), pairs)
    )
    # shares are of the whole traced wall, which also holds every op's
    # interpreter start and imports
    wall = extra.get("trace.wall_s", 0.0)
    for layer in LAYERS:
        self_s = sum(v[1] for k, v in stats.items() if k.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = self_s
        out[f"layer.{layer}.share"] = ratio(self_s, wall)
    out["trace.spanned_s"] = merged["root_s"]
    out["trace.hook_s"] = merged["hook_s"]
    out["trace.spans"] = merged["spans"]
    out.update(extra)
    return out
