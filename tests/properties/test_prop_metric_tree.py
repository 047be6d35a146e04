"""Property-based test (hypothesis): the one-pass ``MetricSet.from_tree`` is
the checked ``MetricSet.set_tree`` -- same metrics or the same error."""

from types import MappingProxyType

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.results.metrics import MetricSet

good_keys = st.sampled_from(["a", "b", "c", "sim", "makespan", "1"])
# What the one-pass flattening must hand to the checked path: dotted, empty
# and non-string keys (set_tree stringifies them, so 1 and "1" collide).
any_keys = st.one_of(
    good_keys,
    st.sampled_from(["a.b", "b.c.d", "", ".", "a."]),
    st.sampled_from([1, 2.5, None, True, ("t",)]),
)

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(), max_size=3),
)

#: plain non-empty dicts with well-formed keys: flattened without checks.
clean_trees = st.recursive(
    leaves,
    lambda children: st.dictionaries(good_keys, children, min_size=1, max_size=4),
    max_leaves=12,
)

#: the same with bad keys, empty mappings and non-dict mappings mixed in at
#: any depth, so the hand-over happens from inside a half-flattened tree.
mixed_trees = st.recursive(
    st.one_of(leaves, clean_trees),
    lambda children: st.one_of(
        st.dictionaries(good_keys, children, max_size=4),
        st.dictionaries(any_keys, children, max_size=3),
        st.dictionaries(good_keys, children, min_size=1, max_size=3).map(MappingProxyType),
    ),
    max_leaves=12,
)


def outcome(build, tree):
    try:
        metrics = build(tree)
    except ConfigurationError as exc:
        return "error", str(exc)
    return (
        "ok",
        list(metrics._values.items()),
        list(metrics._namespaces.items()),
        metrics.to_tree(),
    )


def checked(tree):
    metrics = MetricSet()
    metrics.set_tree(tree)
    return metrics


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.dictionaries(good_keys, clean_trees, max_size=4),
    st.dictionaries(good_keys, mixed_trees, max_size=4),
    st.dictionaries(any_keys, mixed_trees, max_size=4),
))
def test_from_tree_equals_checked_set_tree(tree):
    assert outcome(MetricSet.from_tree, tree) == outcome(checked, tree)


#: paths probed on both sets: dotted paths over the generated keys, and
#: malformed ones.
probe_paths = st.lists(
    st.one_of(
        st.lists(good_keys, min_size=1, max_size=4).map(".".join),
        st.sampled_from(["", ".", "a.", ".a", "a..b", "a.b.", "1.a"]),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.dictionaries(good_keys, clean_trees, max_size=4),
        st.dictionaries(any_keys, mixed_trees, max_size=4),
    ),
    probe_paths,
)
def test_kept_tree_answers_as_the_flattened_set(tree, paths):
    """``of_tree`` keeps the tree; every answer is ``from_tree``'s, whether
    a leaf walk gives it or the flat maps built on demand."""
    try:
        flat = MetricSet.from_tree(tree)
    except ConfigurationError as exc:
        try:
            MetricSet.of_tree(tree)
        except ConfigurationError as kept_exc:
            assert str(kept_exc) == str(exc)
            return
        raise AssertionError("of_tree accepted a tree from_tree rejects")
    kept = MetricSet.of_tree(tree)
    missing = object()
    for path in paths:
        assert kept.get(path, missing) == flat.get(path, missing)
    assert kept == flat
    # Flattened on demand, the maps are the one-pass maps, in the same order.
    assert kept.to_tree() == flat.to_tree()
    assert list(kept._values.items()) == list(flat._values.items())
    assert list(kept._namespaces.items()) == list(flat._namespaces.items())
