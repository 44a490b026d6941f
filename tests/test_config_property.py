"""A config either loads or fails with ConfigError, whatever one field holds.

Starting from valid scenarios, any single field, at any depth, is replaced
by an arbitrary JSON value. load_config must then return a scenario or raise
ConfigError; any other exception is an input path without its documented
error. Examples are derandomized and bounded so the suite stays fast.
"""

import copy

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mobayes import ConfigError, load_config  # noqa: E402
from test_cli import base_config  # noqa: E402

EXPLICIT_TABLES = {
    "version": 1,
    "state_labels": ["a", "b"],
    "obs_labels": ["u", "v"],
    "n_max": 2,
    "prior": {
        "kind": "explicit",
        "tensors": [0.4, [0.2, 0.1], [[0.2, 0.1], [0.1, 0.2]]],
        "symmetrize": False,
    },
    "kernel": {
        "kind": "tables",
        "tables": [[0.2, 0.3], [[0.6, 0.2], [0.3, 0.4]]],
        "symmetrize": False,
    },
    "clutter": {"kind": "bernoulli", "q": 0.1, "pdf": [0.5, 0.5]},
    "transition": {
        "survival": [0.9, 0.8],
        "motion": [[0.9, 0.2], [0.1, 0.8]],
        "birth": {"kind": "none"},
    },
    "steps": 2,
    "seed": 7,
}

BASES = [base_config(m_max=1), EXPLICIT_TABLES]


def field_paths(doc, prefix=()):
    """Key paths of every field in nested JSON objects."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


MUTATIONS = [(i, path) for i, base in enumerate(BASES) for path in field_paths(base)]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


def test_every_base_loads():
    for base in BASES:
        load_config(copy.deepcopy(base))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(MUTATIONS), json_values)
def test_one_field_replaced_loads_or_raises_config_error(mutation, value):
    base, path = mutation
    doc = copy.deepcopy(BASES[base])
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    try:
        load_config(doc)
    except ConfigError:
        pass
