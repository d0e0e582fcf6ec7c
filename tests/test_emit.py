"""The structured emitter against `json.dumps(x, indent=2, sort_keys=True)`
on generated JSON values."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from burnside.cli import _chunks  # noqa: E402
from burnside.partitions import Partition  # noqa: E402


def _encode(value):
    return "".join(_chunks(value))


# derandomized and without a deadline, so CI time is bounded and the run
# does not depend on the machine's speed
EMIT = settings(derandomize=True, deadline=None, database=None, max_examples=300)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10 ** 300), 10 ** 300),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
)
# sorting the items of a dict compares its keys, so each dict keeps one
# key type, as a payload does
KEYS = (st.text(), st.integers(), st.floats(allow_nan=False), st.booleans())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        *(st.dictionaries(keys, children, max_size=6) for keys in KEYS),
    )


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=40)


@EMIT
@given(JSON_VALUES)
def test_emitter_equals_indented_sorted_dumps(value):
    assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)


class Count(int):
    """An int subclass, as a payload could hold."""


# a list is one C-encoder call only when every item's type is exactly a
# scalar type; a subclass takes the recursive path, which writes the same
@pytest.mark.parametrize("value", [
    [True, False, True],
    [Count(3), 4, Count(-5)],
    {"row": [Count(1)], "rows": [[Count(2), 0], (Count(7),)]},
    [Partition((3, 1)), Partition((2, 2))],
    {"order": (Partition((1,)),)},
], ids=["bools", "int-subclass", "nested-int-subclass", "partitions", "tuple-of-partition"])
def test_emitter_equals_dumps_on_bools_and_subclasses(value):
    assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)


def test_emitter_refuses_what_dumps_refuses():
    for value in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _encode(value)
