"""Exact lambda-ring arithmetic on Burnside rings of symmetric groups,
with a brute-force G-set engine serving as an independent oracle.

`partitions`, `schur` and `marks` load with the package; the engine loads
when one of its names is first read.  The engine's names are one list,
`_ENGINE_NAMES`: the names of `__all__` that this module does not bind.
The package and `burnside.cli` both serve them from it."""

from .partitions import (
    CapExceeded,
    GroupFileError,
    Partition,
    TheoremViolation,
    alpha,
    composition_to_partition,
    enumerate_partitions,
    format_partition,
    lex_compare,
    multinomial,
    pad,
    parse_partition,
)
from .schur import (
    SchurElement,
    basis_element,
    cardinality,
    closed_lambda,
    degree,
    leading_term_check,
    recursive_lambda,
    schur_mul,
    sigma,
)
from .marks import (
    MarkVector,
    fixed_points,
    mark_matrix,
    mark_rows,
    marks_of,
    verify_injectivity,
)
from . import marks as _marks
from . import schur as _schur


def __getattr__(name):
    """Read an engine name from `burnside.engine`, importing it on first
    access, so that importing the package does not compile the engine.
    Nothing is stored here: each access reads the engine's current
    attribute.  Hot code should import from `burnside.engine` directly."""
    if name in _ENGINE_NAMES:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ENGINE_NAMES)


def clear_caches() -> None:
    """Empty the package's unbounded result caches: every cached function
    that `schur` and `marks` declare (each has `cache_clear`), found where
    it is declared, and the record of the powers above n that
    `recursive_lambda` has checked to vanish.  The caches only ever hold
    exact results, so clearing changes no answer; it frees their memory in
    a long-lived process, at the cost of recomputing on the next call."""
    for module in (_schur, _marks):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    _schur._vanished.clear()


__all__ = [
    "Partition",
    "TheoremViolation",
    "alpha",
    "composition_to_partition",
    "enumerate_partitions",
    "format_partition",
    "lex_compare",
    "multinomial",
    "pad",
    "parse_partition",
    "SchurElement",
    "basis_element",
    "cardinality",
    "clear_caches",
    "closed_lambda",
    "degree",
    "leading_term_check",
    "recursive_lambda",
    "schur_mul",
    "sigma",
    "MarkVector",
    "fixed_points",
    "mark_matrix",
    "mark_rows",
    "marks_of",
    "verify_injectivity",
    "BurnsideElement",
    "CapExceeded",
    "GroupFileError",
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
    "schur_to_burnside",
    "stabilizer",
    "symmetric_group",
    "symmetric_power",
    "verify_lemma73",
    "verify_lemma74",
    "young_subgroup",
]

# the names of __all__ not bound above are the engine's, served by __getattr__
_ENGINE_NAMES = frozenset(__all__).difference(globals())

__version__ = "0.1.0"
