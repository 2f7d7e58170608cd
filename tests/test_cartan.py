import pytest
from hypothesis import example, given, strategies as st

from klrblocks import crystal
from klrblocks.cartan import CartanType, NotASubroot, RootVector
from klrblocks.partitions import lattice_state

from oracles import keyed_root_vector


class TestCartanType:
    def test_hash_is_identity(self):
        # members are singletons, so the identity hash agrees with equality
        for ct in CartanType:
            assert CartanType(ct.value) is ct
            assert hash(ct) == object.__hash__(ct)

    def test_lookup_by_value_hits_the_same_memo_entry(self):
        crystal._KLESHCHEV.clear()
        crystal.is_kleshchev(((2, 1),), CartanType("c"), (0,))
        before = dict(crystal._KLESHCHEV)
        assert (CartanType.C, (0,), lattice_state(((2, 1),), (0,))[1]) in before
        crystal.is_kleshchev(((2, 1),), CartanType.C, (0,))
        assert crystal._KLESHCHEV == before


class TestRootVector:
    def test_add_sub(self):
        a0, a1 = RootVector({0: 1}), RootVector({1: 1})
        assert RootVector({0: 1, 1: 1}) - a0 == a1
        assert RootVector({0: 2, 1: 2}).height == 4
        # a difference, wrapped unchecked, hashes and compares as a checked one
        diff = RootVector({0: 3, 1: 2, 2: 1}) - RootVector({0: 1, 1: 2})
        assert (diff, hash(diff)) == (RootVector({0: 2, 2: 1}), hash(RootVector({0: 2, 2: 1})))
        assert diff.items() == [(0, 2), (2, 1)]

    def test_sub_below_zero(self):
        with pytest.raises(NotASubroot):
            RootVector({0: 1}) - RootVector({1: 1})

    def test_no_zero_entries_stored(self):
        v = RootVector({0: 1, 1: 0})
        assert v.items() == [(0, 1)]
        assert (v - v) == RootVector()

    def test_json_round_trip(self):
        v = RootVector({0: 2, 1: 2})
        assert v.to_json() == {"0": 2, "1": 2}
        assert RootVector.from_json(v.to_json()) == v
        # two keys naming one residue would leave only the later multiplicity
        for data in ({"1": 1, "01": 1, "0": 1}, {"-1": 2, "-01": 1}, {"2": 1, " 2": 1}):
            with pytest.raises(ValueError, match="both name residue"):
                RootVector.from_json(data)

    def test_not_iterable(self):
        # __getitem__ answers every residue, so iteration by index would
        # never end; it fails at once instead
        v = RootVector({0: 1})
        for make in (list, tuple, iter):
            with pytest.raises(TypeError):
                make(v)
        assert v.items() == [(0, 1)]


def outcome(read, data):
    """(value, hash) of read(data), or the type and text of its error."""
    try:
        v = read(data)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return v, hash(v)


# keys that spell residues -2..2 in several ways, and a few that spell none;
# multiplicities mostly ints, zero and negative included
KEYS = st.one_of(st.integers(-2, 2).map(str),
                 st.sampled_from(("01", "00", "-01", " 1", "+2", "1_0", "x", "")))
MULTIPLICITIES = st.one_of(st.integers(-2, 3), st.sampled_from((True, 1.5, "1", None)))


@given(st.dictionaries(KEYS, MULTIPLICITIES, max_size=5))
@example({"0": -1, "00": 1})  # a repeated residue is named before a negative one
@example({"1": 0, "01": 2})
@example({"x": 1, "0": 1.5})  # a multiplicity that is not an int is named first
def test_from_json_reads_as_key_by_key(data):
    # the one-pass reader against the key-by-key reader it replaced: the
    # same value and hash, or the same error
    assert outcome(RootVector.from_json, data) == outcome(keyed_root_vector, data)
