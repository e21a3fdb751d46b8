"""Phase-I leftover completion (Section 4.3, step 3) vs its reference.

``_complete_leftovers`` keys its decision classes on the CC-match pattern
of a row's bin and picks each row's combo from a per-class heap; the
reference in ``tests/reference/leftovers.py`` keys them on the bin itself
and scans the candidates with ``min``.  Both must leave the same code
matrix and the same ``invalid`` set on every input.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.phase1.hybrid as hybrid
from repro.constraints.intervalize import build_binning
from repro.constraints.parser import parse_cc
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.relational.relation import Relation
from tests.reference.leftovers import complete_leftovers

CATS = ["p", "q", "r"]
#: ``"w"`` never occurs in R2, so a partial assignment naming it has no
#: consistent combo and its rows end up invalid.
BS = ["x", "y", "z", "w"]
DS = [0, 1, 2]

_lo = st.integers(0, 9)
_cc_text = st.one_of(
    # Conjunctive, mixed R1/R2 conditions.
    st.builds(
        lambda lo, width, b, t: (
            f"|A >= {lo} & A <= {lo + width} & B == '{b}'| = {t}"
        ),
        _lo,
        st.integers(0, 5),
        st.sampled_from(BS[:3]),
        st.integers(0, 6),
    ),
    st.builds(
        lambda c, d, t: f"|C == '{c}' & D == {d}| = {t}",
        st.sampled_from(CATS),
        st.sampled_from(DS),
        st.integers(0, 6),
    ),
    # Disjunctive: one disjunct per side of ``or``.
    st.builds(
        lambda hi, b, c, d, t: (
            f"|A <= {hi} & B == '{b}' or C == '{c}' & D == {d}| = {t}"
        ),
        _lo,
        st.sampled_from(BS[:3]),
        st.sampled_from(CATS),
        st.sampled_from(DS),
        st.integers(0, 6),
    ),
    # R2-only and R1-only.
    st.builds(
        lambda b, t: f"|B == '{b}'| = {t}",
        st.sampled_from(BS[:3]),
        st.integers(0, 6),
    ),
    st.builds(
        lambda c, t: f"|C == '{c}'| = {t}",
        st.sampled_from(CATS),
        st.integers(0, 6),
    ),
)

#: A row's partial assignment before completion: ``None`` leaves it
#: untouched, ``{}`` touches it with nothing assigned.
_partial = st.one_of(
    st.none(),
    st.just({}),
    st.fixed_dictionaries({"B": st.sampled_from(BS)}),
    st.fixed_dictionaries({"D": st.sampled_from(DS)}),
    st.fixed_dictionaries(
        {"B": st.sampled_from(BS[:3]), "D": st.sampled_from(DS)}
    ),
)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 30))
    r1_columns = {
        "pid": list(range(n)),
        "A": draw(st.lists(_lo, min_size=n, max_size=n)),
        "C": draw(st.lists(st.sampled_from(CATS), min_size=n, max_size=n)),
    }
    if draw(st.booleans()):
        # A unique-per-row column, like an FK imputed by an earlier edge.
        r1_columns["U"] = list(range(100, 100 + n))
    m = draw(st.integers(1, 12))
    r2_columns = {
        "hid": list(range(m)),
        "B": draw(st.lists(st.sampled_from(BS[:3]), min_size=m, max_size=m)),
        "D": draw(st.lists(st.sampled_from(DS), min_size=m, max_size=m)),
    }
    ccs = draw(st.lists(_cc_text, max_size=4))
    partials = draw(st.lists(_partial, min_size=n, max_size=n))
    # Combos whose keys are dropped from the catalog: zero capacity.
    zero = draw(st.sets(st.integers(0, m - 1), max_size=m))
    return r1_columns, r2_columns, ccs, partials, zero


def _setup(r1_columns, r2_columns, ccs, partials, zero):
    """Fresh inputs for one completion run, built the same way each call."""
    r1 = Relation.from_columns(r1_columns, key="pid")
    r2 = Relation.from_columns(r2_columns, key="hid")
    catalog = ComboCatalog.from_relation(r2)
    for index in sorted(zero):
        if index < len(catalog.combos):
            catalog.keys_by_combo[catalog.combos[index]] = []
    parsed = [parse_cc(text) for text in ccs]
    r1_attrs = list(r1.schema.nonkey_names)
    binning = build_binning(r1, r1_attrs, parsed)
    assignment = ViewAssignment(n=len(r1), r2_attrs=catalog.attrs)
    groups = {}
    for row, partial in enumerate(partials):
        if partial is not None:
            key = tuple(sorted(partial.items()))
            groups.setdefault(key, []).append(row)
    for key, rows in groups.items():
        assignment.assign_rows(rows, dict(key))
    return r1, r1_attrs, catalog, parsed, binning, assignment


class TestReferenceEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(case=_cases())
    def test_same_codes_and_invalid_rows(self, case):
        *inputs, fast = _setup(*case)
        *_, slow = _setup(*case)
        hybrid._complete_leftovers(*inputs, fast)
        complete_leftovers(*inputs, slow)
        assert fast.code_rows().tolist() == slow.code_rows().tolist()
        assert fast.invalid == slow.invalid

    def test_tied_classes_share_the_load(self):
        """Two classes over the same three equal-capacity combos: ties go
        to the lowest index and the load both classes add is shared."""
        case = (
            {
                "pid": list(range(7)),
                "A": [0, 5, 0, 5, 0, 5, 0],
                "C": ["p"] * 7,
            },
            {"hid": [0, 1, 2], "B": ["x", "y", "z"], "D": [0, 0, 0]},
            ["|A <= 2 & D == 1| = 0"],
            [None, {}, None, {}, None, {"D": 0}, None],
            set(),
        )
        *inputs, fast = _setup(*case)
        *_, slow = _setup(*case)
        hybrid._complete_leftovers(*inputs, fast)
        complete_leftovers(*inputs, slow)
        assert fast.code_rows().tolist() == slow.code_rows().tolist()
        assert [fast.values(row)["B"] for row in range(7)] == [
            "x", "y", "z", "x", "y", "z", "x"
        ]


class TestDecisionClasses:
    def test_cc_free_edge_with_unique_column_is_one_class(self, monkeypatch):
        """A CC-free edge bins on every R1 attribute, so a unique column
        puts each row in its own bin; the decision is still made once."""
        calls = []
        choose = hybrid._choose_combo

        def counting(*args, **kwargs):
            calls.append(1)
            return choose(*args, **kwargs)

        monkeypatch.setattr(hybrid, "_choose_combo", counting)
        r1 = Relation.from_columns(
            {
                "pid": list(range(50)),
                "fk_prev": list(range(1000, 1050)),
                "W": [row % 3 for row in range(50)],
            },
            key="pid",
        )
        r2 = Relation.from_columns(
            {"hid": list(range(6)), "Area": ["a", "b", "c"] * 2}, key="hid"
        )
        result = hybrid.run_phase1(r1, r2, [])
        assert len(calls) == 1
        assert result.assignment.completion_fraction() == 1.0
        assert not result.assignment.invalid
