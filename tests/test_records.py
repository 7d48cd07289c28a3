"""The frozen value records behave as ``@dataclass(frozen=True)`` did,
importing the CLI loads neither ``dataclasses`` nor ``inspect``, and a
request that prints no JSON loads no ``json``."""

import ast
import copy
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, field, make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from sheffermat import (
    AuditEntry,
    AuditReport,
    CheckResult,
    CoeffTriple,
    FamilySpec,
    OrderMismatchError,
    Poly,
    PolySequence,
    ShefferPair,
    TruncatedSeries,
    make_pair,
    run_worked_example_audit,
)
from sheffermat.errors import Record
from sheffermat.families import FAMILIES

SRC = Path(__file__).resolve().parent.parent / "src"

_PAIR = make_pair("hermite", 5, {})
_AUDIT = run_worked_example_audit(3)
_ENTRY = _AUDIT.entries[0]
_ENTRY_FIELDS = ("identity", "parameters", "n", "residual", "derived", "printed")
_SPEC = FAMILIES["laguerre"]
_HALF = Fraction(1, 2)

# (record class, its fields as written in the source, one valid value per field)
CASES = [
    (ShefferPair, ("l", "h"), (_PAIR.l, _PAIR.h)),
    # (1/2, 1), (0, 2), (3, -1) as one reduced integer row over D = 2
    (CoeffTriple, ("label", "row"), ("3.1", (2, (1, 2), (0, 4), (6, -2)))),
    (PolySequence, ("kind", "polys"), ("appell", (Poly((1,)), Poly((_HALF, 1))))),
    (CheckResult, ("name", "passed", "detail"), ("lemma 2.5", False, "n = 3")),
    (FamilySpec, ("name", "description", "params", "build"),
     (_SPEC.name, _SPEC.description, _SPEC.params, _SPEC.build)),
    (AuditEntry, _ENTRY_FIELDS, tuple(getattr(_ENTRY, f) for f in _ENTRY_FIELDS)),
    (AuditReport, ("entries",), (_AUDIT.entries[:2],)),
]
IDS = [case[0].__name__ for case in CASES]


def _twin(cls, fields):
    """A ``@dataclass(frozen=True)`` of the record's name and fields."""
    spec = [(f, object) for f in fields]
    if cls is CheckResult:
        spec[-1] = ("detail", object, field(default=""))
    return make_dataclass(cls.__name__, spec, frozen=True)


def _raises(exc, make):
    with pytest.raises(exc):
        make()


@pytest.mark.parametrize("cls, fields, values", CASES, ids=IDS)
def test_record_matches_its_dataclass_twin(cls, fields, values):
    twin = _twin(cls, fields)
    rec, dup, tw = cls(*values), cls(*values), twin(*values)
    assert rec._fields == fields

    assert rec == dup and not rec != dup and tw == twin(*values)
    assert rec != tw and tw != rec and not rec == tw
    shape = {"__annotations__": dict.fromkeys(fields)}
    same_shape = type(cls.__name__, (Record,), shape)
    assert rec != same_shape(*values) and not rec == same_shape(*values)
    assert tw != _twin(cls, fields)(*values)

    assert hash(rec) == hash(dup) == hash(tw) == hash(values)
    assert repr(rec) == repr(tw)

    assert cls(**dict(zip(fields, values))) == rec
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == rec
    assert [getattr(rec, f) for f in fields] == [getattr(tw, f) for f in fields]

    short = values[:1] if cls is CheckResult else values[:-1]
    for make in (cls, twin):
        _raises(TypeError, lambda: make(*values, None))
        _raises(TypeError, lambda: make(*short))
        _raises(TypeError, lambda: make(*values, unknown=1))
        _raises(TypeError, lambda: make(*values, **{fields[0]: values[0]}))
    _raises(TypeError, lambda: cls())

    for obj in (rec, tw):
        _raises(AttributeError, lambda: setattr(obj, fields[0], values[0]))
        _raises(AttributeError, lambda: setattr(obj, "other", 1))
        _raises(AttributeError, lambda: delattr(obj, fields[-1]))
        _raises(AttributeError, lambda: delattr(obj, "other"))
        assert [getattr(obj, f) for f in fields] == list(values)
        assert copy.deepcopy(obj) == obj

    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec and back is not rec
    assert type(copy.deepcopy(rec)) is cls and copy.copy(rec) == rec


def test_checkresult_detail_default():
    twin = _twin(CheckResult, ("name", "passed", "detail"))
    assert CheckResult("x", True).detail == twin("x", True).detail == ""
    assert CheckResult(name="x", passed=True) == CheckResult("x", True, "")
    assert repr(CheckResult("x", True)) == repr(twin("x", True))


def test_frozen_errors_are_attribute_errors():
    # FrozenInstanceError subclasses AttributeError: callers catching the
    # latter see the same exception type from both.
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(AttributeError, match="cannot assign to field 'passed'"):
        CheckResult("x", True).passed = False


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="label"):
        CoeffTriple.from_rationals("9.9", (), (), ())
    with pytest.raises(ValueError, match="equal length"):
        CoeffTriple.from_rationals("2.1", (1,), (), ())
    with pytest.raises(OrderMismatchError):
        ShefferPair(TruncatedSeries([1, 0, 0]), TruncatedSeries([0, 1, 0, 0]))
    with pytest.raises(ValueError, match="degree"):
        PolySequence("sheffer", (Poly((0, 1)),))


def test_cached_derived_survives_the_frozen_setattr():
    pair = make_pair("laguerre", 6, {"lambda": 0})
    fresh = make_pair("laguerre", 6, {"lambda": 0})
    g = pair.g
    assert pair.g is g and pair.__dict__["g"] is g
    assert "g" not in fresh.__dict__
    # The cached value is not a field: == and hash still go by (l, h).
    assert pair == fresh and hash(pair) == hash(fresh)
    assert repr(pair) == repr(fresh)
    with pytest.raises(AttributeError):
        pair.l = fresh.l
    assert pair.g is g


def test_fields_come_from_the_class_own_annotations():
    class Base(Record):
        a: int
        b: int = 2

    class Child(Base):
        c: int

    class Bare(Base):
        pass

    class Plain(Record):
        def method(self):
            return 1

    assert Base._fields == ("a", "b") and Base._defaults == {"b": 2}
    assert Child._fields == ("c",) and Child(3).c == 3
    assert Bare._fields == () and Bare() == Bare()
    assert Plain._fields == () and Plain() == Plain()
    with pytest.raises(TypeError):
        Plain(1)
    assert "_fields" not in vars(Record)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import sheffermat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "laguerre", "--param", "lambda=5/2", "--n", "4",
         "--format", "csv"],
        ["gen", "--family", "hermite", "--n", "4", "--format", "latex"],
        ["verify", "--family", "log-assoc", "--n", "4", "--all", "--lemma"],
    ],
    ids=["gen-csv", "gen-latex", "verify"],
)
def test_requests_without_json_output_load_no_json(argv):
    # json is imported where JSON is written, so these requests never load it
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from sheffermat.cli import main; "
        f"code = main({argv!r}); print(code, 'json' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True
    )
    assert proc.stderr.strip() == "0 False"
    assert proc.stdout


def test_no_package_module_imports_dataclasses():
    offenders = []
    for path in sorted((SRC / "sheffermat").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
