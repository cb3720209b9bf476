"""Value semantics of the eleven public types.

Result records are ``NamedTuple`` classes; ``Clustering``, ``MetricVector``
and ``ScoreTable`` are validated immutable classes; ``BivariateNormalModel``
is a ``NamedTuple`` subclass that validates on construction.  Every type
keeps the ``repr``, equality, immutability, hashing, pickling and copying it
had as a frozen dataclass; the ``repr`` strings below are that version's.
"""

import copy
import pickle

import pytest

from unanimity import (
    AlphaSweep,
    BivariateNormalModel,
    Clustering,
    MetricVector,
    Predictor,
    PredictorCurve,
    RankingRow,
    ScoreTable,
    ThresholdSweepRow,
    UirResult,
    ValidationReport,
    WilcoxonResult,
    parse_score_table,
    serialize_score_table,
)

ROWS = [("q1", "A", "p", 0.5), ("q1", "A", "r", 0.25), ("q1", "B", "p", 1.0), ("q1", "B", "r", 0.0)]

# name: (build, build with one field changed, repr of build()).  Each call
# builds a new object, so equal objects are never the same object.
VALIDATED = {
    "Clustering": (
        lambda: Clustering({"c1": {"x"}, "c2": ["y"]}),
        lambda: Clustering({"c1": {"x"}, "c2": ["z"]}),
        "Clustering(clusters={'c1': frozenset({'x'}), 'c2': frozenset({'y'})})",
    ),
    "MetricVector": (
        lambda: MetricVector({"p": 0.5, "r": 1}),
        lambda: MetricVector({"p": 0.5, "r": 0.75}),
        "MetricVector(scores={'p': 0.5, 'r': 1.0})",
    ),
    "ScoreTable": (
        lambda: ScoreTable.from_rows("col", ROWS),
        lambda: ScoreTable.from_rows("col", ROWS[:-1] + [("q1", "B", "r", 0.5)]),
        "ScoreTable(collection_id='col', cases=('q1',), systems=('A', 'B'), "
        "metric_names=('p', 'r'))",
    ),
}

RECORDS = {
    "ValidationReport": (
        lambda: ValidationReport(("x",), (), ("1 system item(s) absent",)),
        lambda: ValidationReport(("x",), ("y",), ("1 system item(s) absent",)),
        "ValidationReport(system_only=('x',), gold_only=(), "
        "notes=('1 system item(s) absent',))",
    ),
    "UirResult": (
        lambda: UirResult(3, 1, 1, 4, 0.5),
        lambda: UirResult(3, 1, 1, 4, 0.25),
        "UirResult(n_a_geq=3, n_b_geq=1, n_incomparable=1, n_total=4, value=0.5)",
    ),
    "WilcoxonResult": (
        lambda: WilcoxonResult(10.5, 4.5, 5, 0.3125, False),
        lambda: WilcoxonResult(10.5, 4.5, 5, 0.3125, True),
        "WilcoxonResult(w_plus=10.5, w_minus=4.5, n_effective=5, p_value=0.3125, "
        "significant=False)",
    ),
    "BivariateNormalModel": (
        lambda: BivariateNormalModel([0.1, -0.2], [[1, 0.5], [0.5, 2]]),
        lambda: BivariateNormalModel([0.1, -0.2], [[1, 0.5], [0.5, 3]]),
        "BivariateNormalModel(mean=(0.1, -0.2), covariance=((1.0, 0.5), (0.5, 2.0)))",
    ),
    "ThresholdSweepRow": (
        lambda: ThresholdSweepRow(0.25, 0.5, 1.0, 0.0, 0.5, 1.0, 2),
        lambda: ThresholdSweepRow(0.25, 0.5, 1.0, 0.0, 0.5, 1.0, 3),
        "ThresholdSweepRow(t=0.25, accepted_ratio=0.5, concordant_ratio=1.0, "
        "opposite_ratio=0.0, all_alpha_ratio=0.5, f05_ratio=1.0, n_accepted=2)",
    ),
    "AlphaSweep": (
        lambda: AlphaSweep((0.0, 1.0), {"A": (0.5, 0.25)}),
        lambda: AlphaSweep((0.0, 1.0), {"A": (0.5, 0.5)}),
        "AlphaSweep(alphas=(0.0, 1.0), curves={'A': (0.5, 0.25)})",
    ),
    "PredictorCurve": (
        lambda: PredictorCurve(Predictor.UIR, ((0.0, 1.0, 0.5),)),
        lambda: PredictorCurve(Predictor.F_DELTA, ((0.0, 1.0, 0.5),)),
        "PredictorCurve(predictor=<Predictor.UIR: 'uir'>, points=((0.0, 1.0, 0.5),))",
    ),
    "RankingRow": (
        lambda: RankingRow("A", 0.75, ("B",), None, None, False),
        lambda: RankingRow("A", 0.75, ("B",), "C", 0.5, False),
        "RankingRow(system='A', mean_f=0.75, improved_systems=('B',), "
        "reference_system=None, reference_uir=None, near_baseline=False)",
    ),
}

ALL = {**VALIDATED, **RECORDS}
# Hashable by value; AlphaSweep holds a dict, so hashing it fails as it did.
HASHABLE = set(RECORDS) - {"AlphaSweep"}


@pytest.mark.parametrize("name", ALL)
def test_repr_unchanged(name):
    build, _, text = ALL[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", ALL)
def test_equality(name):
    build, other, _ = ALL[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not (a != b)
    assert a != other() and not (a == other())
    assert a != object() and not (a == object())


@pytest.mark.parametrize("name", VALIDATED)
def test_validated_types_equal_only_their_own_class(name):
    build, _, _ = VALIDATED[name]
    value = build()
    assert value != tuple(vars(value).values())
    assert all(value != other() for key, (other, _, _) in ALL.items() if key != name)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_tuples(name):
    # The one API difference from the dataclass version: a record iterates,
    # unpacks and equals the plain tuple of its field values.
    build, _, _ = RECORDS[name]
    record = build()
    values = tuple(getattr(record, field) for field in record._fields)
    assert tuple(record) == values
    assert record == values
    first, *rest = record
    assert (first, *rest) == values


@pytest.mark.parametrize("name", ALL)
def test_attributes_cannot_be_assigned_or_deleted(name):
    build, _, text = ALL[name]
    value = build()
    first_field = text.split("(", 1)[1].split("=", 1)[0]
    for attribute in (first_field, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(value, attribute, 1)
        with pytest.raises(AttributeError):
            delattr(value, attribute)
    assert repr(value) == text


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_records_hash_by_value(name):
    build, other, _ = ALL[name]
    a, b = build(), build()
    assert hash(a) == hash(b)
    assert len({a, b, other()}) == 2


@pytest.mark.parametrize("name", sorted(set(ALL) - HASHABLE))
def test_unhashable(name):
    build, _, _ = ALL[name]
    with pytest.raises(TypeError):
        hash(build())


@pytest.mark.parametrize("name", ALL)
def test_pickle_round_trip(name):
    build, _, text = ALL[name]
    value = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is type(value)
        assert loaded == value and repr(loaded) == text


@pytest.mark.parametrize("name", ALL)
def test_copy_and_deepcopy_round_trip(name):
    build, _, text = ALL[name]
    value = build()
    for copied in (copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and repr(copied) == text


def test_copied_score_table_still_answers_lookups():
    table = ScoreTable.from_rows("col", ROWS)
    for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert copied.scores_for("B", "p") == (1.0,)
        assert copied.cell("q1", "A") == MetricVector({"p": 0.5, "r": 0.25})
        with pytest.raises(ValueError, match="unknown system"):
            copied.check_system("C")


def test_score_table_equality_ignores_derived_index():
    table, other = ScoreTable.from_rows("col", ROWS), ScoreTable.from_rows("col", ROWS)
    # The case index and system set derive from the cases and systems.
    vars(other)["_case_index"] = {}
    vars(other)["_system_set"] = frozenset()
    assert table == other
    assert table != ScoreTable.from_rows("other", ROWS)


# Each way a table is built: the checking constructor, the row builder, the
# parser, a metric selection and the trusted constructor.
TABLE_BUILDS = {
    "constructor": lambda: ScoreTable(
        "col",
        ["q1", "q2"],
        ["A", "B"],
        {
            (case, system): MetricVector({"p": 0.5 * i, "r": 0.25 * j})
            for i, case in enumerate(["q1", "q2"])
            for j, system in enumerate(["A", "B"])
        },
    ),
    "from_rows": lambda: ScoreTable.from_rows("col", ROWS),
    "parse": lambda: parse_score_table(serialize_score_table(ScoreTable.from_rows("", ROWS))),
    "select_metrics": lambda: ScoreTable.from_rows("col", ROWS).select_metrics(["r", "p"]),
    "_of": lambda: ScoreTable._of("col", ("q1",), ("A",), ("p",), {("A", "p"): (0.75,)}),
}


@pytest.mark.parametrize("name", TABLE_BUILDS)
def test_tables_store_their_compared_fields_only(name):
    table = TABLE_BUILDS[name]()
    # The case index is derived from the cases when a cell is first read.
    assert sorted(vars(table)) == sorted(ScoreTable._compared)
    for i, case in enumerate(table.cases):
        for system in table.systems:
            cell = table.cell(case, system)
            assert cell.names == table.metric_names
            assert cell.values() == tuple(table.scores_for(system, m)[i] for m in table.metric_names)
    with pytest.raises(ValueError, match="unknown cell"):
        table.cell("nope", table.systems[0])


@pytest.mark.parametrize(
    "cls, fields",
    [
        (ScoreTable, ("col",)),
        (ScoreTable, ("col", ("q1",), ("A",), ("p",), {("A", "p"): (0.75,)}, {})),
        (Clustering, ()),
        (MetricVector, ({"p": 0.5}, {})),
    ],
)
def test_trusted_constructor_takes_exactly_the_compared_fields(cls, fields):
    with pytest.raises(ValueError):
        cls._of(*fields)


def test_clustering_cached_properties_survive_copies():
    clustering = Clustering({"c1": {"x", "y"}, "c2": ["y"]})
    assert (clustering.n, clustering.labels, clustering.overlapping) == (3, ("c1", "c2"), True)
    assert clustering.items is clustering.items
    for copied in (pickle.loads(pickle.dumps(clustering)), copy.deepcopy(clustering)):
        assert copied == clustering
        assert (copied.n, copied.labels, copied.items) == (3, ("c1", "c2"), {"x", "y"})


def test_record_properties_and_methods():
    assert UirResult(3, 2, 1, 5, 0.2).n_equal == 1
    assert UirResult(3, 1, 1, 4, 0.5).reversed() == UirResult(1, 3, 1, 4, -0.5)
    assert WilcoxonResult(10.5, 4.5, 5, 0.3125, False).w_statistic == 4.5
    assert ThresholdSweepRow(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0).accepted_empty
    assert ValidationReport((), (), ()).clean
    assert not ValidationReport(("x",), (), ()).clean


def test_bivariate_model_validates_every_construction():
    model = BivariateNormalModel([0.1, -0.2], [[1, 0.5], [0.5, 2]])
    assert model.mirrored() == BivariateNormalModel((-0.1, 0.2), model.covariance)
    assert type(model.mean[0]) is float and type(model.covariance[0][0]) is float
    with pytest.raises(ValueError, match="covariance must be symmetric"):
        BivariateNormalModel((0.0, 0.0), ((1.0, 0.5), (0.0, 1.0)))
    with pytest.raises(ValueError, match="negative variance"):
        BivariateNormalModel((0.0, 0.0), ((-1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="model must be 2-dimensional"):
        BivariateNormalModel((0.0,), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="covariance must be symmetric"):
        model._replace(covariance=((1.0, 0.5), (0.0, 1.0)))
    assert model._replace(mean=[0, 0]) == ((0.0, 0.0), model.covariance)
