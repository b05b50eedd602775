"""Records against ``dataclasses`` as their oracle, and the cold import.

Each record class is compared with a dataclass twin built from the same
annotations and defaults: the ``__init__`` parameters, equality and hash on
the tuple of fields, the repr, and frozen assignment.
"""

import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import boxkites
from boxkites import algebra, emanation, kites, lariats, loops, render, verify
from boxkites.record import Fresh

RECORDS = {
    cls.__name__: cls
    for module in (algebra, emanation, kites, lariats, loops, render, verify)
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__ and "_fields" in vars(cls)
}


def test_every_record_class_is_found():
    assert sorted(RECORDS) == [
        "Assessor", "BasisBlade", "BoxKite", "CensusReport", "CheckResult", "Counterexample",
        "Diagonal", "Hypercomplex", "LariatResult", "LariatTable", "QuizzicalLariat",
        "RenderSpec", "Sail", "SailSync", "SweepEntry", "SweepReport", "Target", "TrayRack",
        "TripSyncReport", "UnitLoop", "VerificationReport", "ZDGraph",
    ]


def twin(cls):
    """The dataclass of the same name, annotations and defaults, as
    ``@dataclass(frozen=True)``, or ``@dataclass`` for ``VerificationReport``."""
    specs = {}
    for klass in reversed(cls.__mro__):
        for name, annotation in vars(klass).get("__annotations__", {}).items():
            default = vars(klass).get(name, dataclasses.MISSING)
            if isinstance(default, Fresh):
                field = (dataclasses.field(init=False) if default.make is None
                         else dataclasses.field(default_factory=default.make))
            else:
                field = dataclasses.field(default=default)
            specs[name] = (name, annotation, field)
    frozen = cls is not verify.VerificationReport
    return dataclasses.make_dataclass(cls.__name__, list(specs.values()), frozen=frozen)


def copy(obj):
    """A new instance of the record ``obj``, built from its fields."""
    return type(obj)(*(getattr(obj, name) for name in obj._fields))


def samples():
    """Two or more instances of each record class, some of them equal."""
    bk1, bk2 = kites.build_box_kite(1), kites.build_box_kite(2)
    a = bk1.vertices[0]
    yard = lariats.switching_yard(bk1)
    quizzical = lariats.quizzical_tables(bk1)
    loop = loops.loop_closure(kites.automorpheme((1, 2, 3)))
    counterexample = loops.check_identity(loop, "moufang")
    report = verify.run_verification(["trips"])
    blade = algebra.BasisBlade(1, 3)
    return {
        "BasisBlade": [blade, algebra.BasisBlade(-1, 3), copy(blade)],
        "Hypercomplex": [algebra.Hypercomplex(4, {1: 1, 2: 0}), algebra.Hypercomplex(4, {1: 1}),
                         algebra.Hypercomplex(5, {1: 1})],
        "ZDGraph": [emanation.zd_graph(5, 1), emanation.zd_graph(5, 2), emanation.zd_graph(5, 1)],
        "SweepEntry": [*emanation.sweep_entries(5, 9), *emanation.sweep_entries(5, 9)],
        "SweepReport": [emanation.trip_sync_sweep(5, [1]), emanation.trip_sync_sweep(5, [1, 9]),
                        emanation.trip_sync_sweep(5, [1])],
        "CensusReport": [emanation.census(5), emanation.census(4), emanation.census(4)],
        "Assessor": [a, bk1.vertices[1], kites.Assessor(a.n, a.o, a.hi)],
        "Diagonal": [a.slash, a.backslash, a.diagonal(kites.SLASH)],
        "Sail": [bk1.sail("ABC"), bk1.sail("ADE"), bk1.sails[0]],
        "BoxKite": [bk1, bk2, kites.build_box_kite(1)],
        "TrayRack": [*kites.tray_racks(bk1), kites.tray_racks(bk1)[0]],
        "LariatResult": [yard.cells[1][1], yard.cells[1][2], lariats.LariatResult.ZERO,
                         lariats.LariatResult(0, None, 0)],
        "LariatTable": [yard, lariats.mock_octonion_table(bk1), copy(yard),
                        lariats.LariatTable(*(getattr(quizzical[0], f) for f in yard._fields))],
        "QuizzicalLariat": [*quizzical[:2], lariats.quizzical_tables(bk1)[0]],
        "SailSync": [*lariats.trip_sync_report(bk1).sails, lariats.trip_sync_report(bk1).sails[0]],
        "TripSyncReport": [lariats.trip_sync_report(bk1), lariats.trip_sync_report(bk2),
                           lariats.trip_sync_report(kites.build_box_kite(1))],
        "UnitLoop": [loop, loops.loop_closure({1, 2, 3}), copy(loop)],
        "Counterexample": [counterexample, loops.check_identity(loop, "moufang"),
                           loops.check_identity(loop, "associative")],
        "RenderSpec": [render.RenderSpec("census"), render.RenderSpec("census", n=4),
                       render.RenderSpec("tripsync", n=5), render.RenderSpec("pathion", "json")],
        "Target": [*render.REGISTRY.values(), copy(render.REGISTRY["census"])],
        "CheckResult": [*report.results[:3], copy(report.results[0])],
        "VerificationReport": [report, verify.VerificationReport(report.sections, list(report.results)),
                               verify.VerificationReport(("trips",))],
    }


SAMPLES = samples()


def field_tuple(twin_cls, obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(twin_cls))


def outcome(call):
    """A call's value, or the type of what it raised."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - compared with the twin's
        return type(err)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_init_signature_matches_the_dataclass(name):
    def params(init):
        return [
            (p.name, p.kind, "<factory>" if isinstance(p.default, Fresh) else
             "<factory>" if repr(p.default) == "<factory>" else p.default)
            for p in inspect.signature(init).parameters.values()
        ]

    cls = RECORDS[name]
    assert params(cls.__init__) == params(twin(cls).__init__)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin(cls)))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_eq_hash_and_repr_match_the_dataclass(name):
    cls, other = RECORDS[name], twin(RECORDS[name])
    objs = SAMPLES[name]
    assert all(type(obj) is cls for obj in objs)
    assert len(set(map(id, objs))) == len(objs)
    for x in objs:
        as_twin = object.__new__(other)
        for field in cls._fields:
            object.__setattr__(as_twin, field, getattr(x, field))
        assert repr(x) == repr(as_twin)
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(as_twin))
        if cls.__hash__ is not None:
            assert outcome(lambda: hash(x)) == outcome(lambda: hash(field_tuple(other, x)))
        for y in objs:
            same = field_tuple(other, x) == field_tuple(other, y)
            assert (x == y, x != y) == (same, not same)
    assert any(x == y for x in objs for y in objs if x is not y), "no two samples equal"
    assert any(x != y for x in objs for y in objs), "no two samples differ"


def test_equal_fields_of_another_class_are_not_equal():
    table = SAMPLES["LariatTable"][-1]
    quizzical = SAMPLES["QuizzicalLariat"][0]
    assert all(getattr(table, f) == getattr(quizzical, f) for f in table._fields)
    assert table != quizzical and quizzical != table


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"VerificationReport"}))
def test_frozen_records_refuse_assignment(name):
    obj = SAMPLES[name][0]
    for field in RECORDS[name]._fields:
        before = getattr(obj, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
            setattr(obj, field, before)
        with pytest.raises(AttributeError, match=f"cannot delete field {field!r}"):
            delattr(obj, field)
        assert getattr(obj, field) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_verification_report_is_mutable_and_unhashable():
    report = verify.VerificationReport(("trips",))
    assert report.results == []
    assert verify.VerificationReport(("trips",)).results is not report.results
    report.sections = ("census",)
    report.results.append(SAMPLES["CheckResult"][0])
    assert report == verify.VerificationReport(("census",), [SAMPLES["CheckResult"][0]])
    with pytest.raises(TypeError):
        hash(report)
    assert twin(verify.VerificationReport).__hash__ is None


def test_post_init_is_read_from_the_class(monkeypatch):
    calls = []
    monkeypatch.setattr(kites.Diagonal, "__post_init__", lambda self: calls.append(self.orientation))
    kites.Diagonal(SAMPLES["Assessor"][0], 5)
    assert calls == [5]


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # -I -S: no site packages, so nothing a .pth file loads counts
    src = Path(boxkites.__file__).resolve().parents[1]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import boxkites; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
