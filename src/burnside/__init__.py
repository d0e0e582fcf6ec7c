"""Exact lambda-ring arithmetic on Burnside rings of symmetric groups,
with a brute-force G-set engine serving as an independent oracle.

Only `partitions` loads with the package.  Every other module loads when
it is first needed: the other exported names are one table, `_HOMES`
(name -> the module that defines it), and the module `__getattr__` reads
each from its module, importing it on first access.  The engine's names,
`_ENGINE_NAMES`, are the table's names whose home is the engine;
`burnside.cli` serves them too."""

import sys
from importlib import import_module

from .partitions import (
    CapExceeded,
    GroupFileError,
    Partition,
    TheoremViolation,
    alpha,
    enumerate_partitions,
    format_partition,
    multinomial,
    pad,
    parse_partition,
)

# exported name -> the module that defines it, imported when the name is
# first read
_HOMES = {
    **dict.fromkeys((
        "SchurElement",
        "basis_element",
        "cardinality",
        "closed_lambda",
        "degree",
        "leading_term_check",
        "recursive_lambda",
        "schur_mul",
        "sigma",
    ), "schur"),
    **dict.fromkeys((
        "MarkVector",
        "fixed_points",
        "mark_matrix",
        "mark_rows",
        "marks_of",
        "verify_injectivity",
    ), "marks"),
    **dict.fromkeys((
        "BurnsideElement",
        "GSet",
        "PermGroup",
        "Permutation",
        "burnside_to_schur",
        "cyclic_group",
        "decompose",
        "dihedral_group",
        "disjoint_union",
        "eq6_general",
        "group_closure",
        "induce",
        "lambda_general",
        "natural_gset",
        "orbits",
        "p_mu_gset",
        "parse_group_file",
        "parse_permutation",
        "product_gset",
        "restrict",
        "schur_membership",
        "stabilizer",
        "symmetric_group",
        "symmetric_power",
        "verify_lemma73",
        "verify_lemma74",
        "young_subgroup",
    ), "engine"),
}
_ENGINE_NAMES = frozenset(name for name, home in _HOMES.items() if home == "engine")


def __getattr__(name):
    """Read an exported name from the module that defines it, importing
    that module on first access.  Nothing is stored here: each access
    reads the module's current attribute.  Hot code should import from
    the module directly."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOMES))


def clear_caches() -> None:
    """Empty the package's unbounded result caches: every cached function
    that `partitions`, `schur`, `marks` and the engine declare (each has
    `cache_clear`), found where it is declared.  Among them is the record
    of the powers above n that `recursive_lambda` has checked to vanish.
    The engine's cached functions are its named groups (`symmetric_group`,
    `cyclic_group`, `dihedral_group`, `young_subgroup`); each group keeps
    its own tables, keys, class products and the verified G-sets built
    over it, and these go with the group once nothing else holds it.  A
    module not loaded yet has nothing cached, so it is not loaded here.
    The caches only ever hold exact results, so clearing changes no answer;
    it frees their memory in a long-lived process, at the cost of
    recomputing on the next call.  An element's point count is kept on the
    element itself (`ring.Combination.cardinality`), goes with it and is
    no cache: clearing leaves it, and names nothing for it."""
    for home in ("partitions", "schur", "marks", "engine"):
        module = sys.modules.get(f"{__name__}.{home}")
        if module is None:
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


__all__ = [
    "CapExceeded",
    "GroupFileError",
    "Partition",
    "TheoremViolation",
    "alpha",
    "enumerate_partitions",
    "format_partition",
    "multinomial",
    "pad",
    "parse_partition",
    "clear_caches",
    *_HOMES,
]

__version__ = "0.1.0"
