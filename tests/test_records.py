"""The package's record types: immutable where they were, compared by
value, printed by field, picklable (``--jobs`` ships them between
processes), and validated with the same messages."""

import pickle
from fractions import Fraction

import pytest

import proxrem as px
from proxrem.extremal import SequentialSumSpec
from proxrem.oracle import BoundCheckReport, BoundWitness, SweepViolation

_C9 = px.cycle_graph(9)


def _lemma_report():
    return px.lemma_sweep(4, 3)


def _tree_check():
    return px.exhaustive_bound_check(4, "exhaustive-trees")


# (factory of a fresh record, the fields its repr names, whether it hashes)
RECORDS = {
    "Graph": (lambda: px.path_graph(4), ("adj",), True),
    "DistanceOracle": (lambda: px.all_pairs_distances(_C9), ("connected", "transmissions"), True),
    "InvariantSummary": (
        lambda: px.invariant_summary(_C9),
        ("order", "transmissions", "proximity", "remoteness", "median", "antimedian"),
        True,
    ),
    "WeightFunction": (lambda: px.WeightFunction.of([1, Fraction(1, 2), 0]), ("values",), True),
    "WeightProfile": (lambda: px.WeightProfile.of(7, 3, 2), ("total", "floor", "heavy"), True),
    "ConstructionTrace": (
        lambda: px.build_construction(_C9),
        ("order", "delta", "Delta", "anchors", "tree", "parent", "nearest_anchor", "weights",
         "aux", "q", "w0"),
        False,
    ),
    "ChainLink": (
        lambda: px.bound_report(_C9, include_chains=True).proximity_chain[0],
        ("name", "lhs", "rhs", "holds"),
        True,
    ),
    "BoundReport": (
        lambda: px.bound_report(_C9, include_chains=True),
        ("order", "delta", "Delta", "case", "proximity", "remoteness", "bounds", "slack", "holds",
         "proximity_chain", "remoteness_chain"),
        False,
    ),
    "SweepRecord": (
        lambda: _lemma_report().records[-1],
        ("total", "heavy", "median_bound", "median_observed", "any_bound", "any_observed"),
        True,
    ),
    "SweepViolation": (
        lambda: SweepViolation("median", 3, (1,), (1, 2, 1), 2, 5, Fraction(9, 2)),
        ("kind", "order", "prufer", "weights", "heavy", "observed", "bound"),
        True,
    ),
    "LemmaSweepReport": (
        _lemma_report,
        ("max_total", "max_order", "trees", "weightings", "instances", "records", "violations"),
        False,
    ),
    "BoundWitness": (
        lambda: _tree_check().witness["remoteness_order"],
        ("label", "slack", "edge_list"),
        True,
    ),
    "BoundCheckReport": (
        _tree_check,
        ("mode", "params", "graphs", "min_slack", "witness", "path_equality_ok", "violations"),
        False,
    ),
    "SequentialSumSpec": (lambda: SequentialSumSpec((2, 1, 3)), ("blocks",), True),
    "ExtremalParams": (lambda: px.ExtremalParams(20, 3, 8), ("n", "delta", "Delta"), True),
    "SharpnessRecord": (
        lambda: px.sharpness_report(px.ExtremalParams(20, 3, 8)),
        ("n", "delta", "Delta", "case", "proximity", "pi_bound", "gap_pi", "remoteness",
         "rho_bound", "gap_rho", "gap_pi_limit", "within_limits"),
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    make, fields, hashable = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b

    # immutable, but for the report that a bound check fills in
    if name == "BoundCheckReport":
        a.graphs = a.graphs
    else:
        with pytest.raises(AttributeError):
            setattr(a, fields[0], getattr(a, fields[0]))

    # equal by value (an oracle only to itself), and hashed alike
    if name == "DistanceOracle":
        assert a == a and a != b and hash(a) == hash(a)
    else:
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    shown = ", ".join(f"{field}={getattr(a, field)!r}" for field in fields)
    assert repr(a) == f"{name}({shown})"

    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a)
    if name == "DistanceOracle":
        assert vars(copy) == vars(a)
    else:
        assert copy == a


def test_trace_equality_and_repr_skip_the_distance_sums():
    a = px.build_construction(_C9)
    b = a._replace(contracted_tree=(), contracted_aux=(), adjusted_aux=(), tree_summary=None)
    assert a == b and not a != b and repr(a) == repr(b)
    assert a != a._replace(q=a.q + 1)


def test_report_defaults_are_fresh():
    a, b = BoundCheckReport("random", {}, 0), BoundCheckReport("random", {}, 0)
    a.violations.append(BoundWitness("g", Fraction(-1), ""))
    a.min_slack["x"] = Fraction(0)
    assert (b.violations, b.min_slack, b.witness, b.path_equality_ok) == ([], {}, {}, None)
    assert a != b and not a.ok and b.ok


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: px.ExtremalParams(20_000, 3, 8), "--n 20000 is above the order limit of 10000"),
        (lambda: px.ExtremalParams(20, 2, 8), "family requires minimum degree >= 3, got 2"),
        (lambda: px.ExtremalParams(20, 3, 20), "need delta < Delta < n, got (3, 20, 20)"),
        (lambda: px.ExtremalParams(21, 3, 8),
         "n - Delta = 13 must be divisible by delta + 1 = 4; adjust n (nearest valid: 20)"),
        (lambda: SequentialSumSpec(()), "sequential sum needs at least one block"),
        (lambda: SequentialSumSpec((2, 0)), "block sizes must be positive, got (2, 0)"),
        (lambda: px.WeightFunction.of([1, -1]), "negative weight -1 at vertex 1"),
        (lambda: px.WeightProfile.of(5, 6, 1), "need 0 < floor < heavy <= total, got (1, 6, 5)"),
        (lambda: px.WeightProfile.of(6, 3, 2),
         "(total - heavy) / floor = 3/2 must be a nonnegative integer"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message

