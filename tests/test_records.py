"""The four public records: PrecisionContext, CoeffSet, BoundReport and TruncationReceipt.

Each is an immutable named tuple: its fields in a fixed order, a ``Name(field=value, ...)``
repr, equality and hash by value, and, for all but the receipt, a constructor that refuses a
malformed record, also when it is rebuilt by ``_replace``.
"""

import pickle
from fractions import Fraction as F

import pytest
from mpmath import mpf

from entropy_bounds import (
    BoundReport,
    CoeffSet,
    PrecisionContext,
    TruncationReceipt,
    entropy_poisson_large,
    poisson_coeffs,
    poisson_entropy_oracle,
)

CTX = PrecisionContext(64)

# record type -> (its field names in order, a record made as the library makes it)
RECORDS = {
    "PrecisionContext": (("bits",), lambda: PrecisionContext(128)),
    "CoeffSet": (("m", "b", "a"), lambda: poisson_coeffs(2)),
    "BoundReport": (("lower", "upper", "midpoint", "gap", "m", "method"),
                    lambda: entropy_poisson_large(10, 2, CTX)),
    "TruncationReceipt": (("terms_used", "tail_bound", "rel_err_bound"),
                          lambda: poisson_entropy_oracle(10, CTX)[1]),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_in_order(name):
    fields, make = RECORDS[name]
    rec = make()
    assert type(rec).__name__ == name
    assert type(rec)._fields == fields
    assert tuple(rec) == tuple(getattr(rec, field) for field in fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_each_field(name):
    fields, make = RECORDS[name]
    rec = make()
    assert repr(rec) == f"{name}(" + ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields) + ")"


def test_repr_text():
    assert repr(PrecisionContext()) == "PrecisionContext(bits=256)"
    assert repr(poisson_coeffs(1)) == (
        "CoeffSet(m=1, b={1: Fraction(1, 6)}, a={2: Fraction(1, 6), 1: Fraction(1, 1)})")
    assert repr(BoundReport(mpf(0), mpf(1), mpf("0.5"), mpf(1), 1, "test")) == (
        "BoundReport(lower=mpf('0.0'), upper=mpf('1.0'), midpoint=mpf('0.5'), gap=mpf('1.0'), "
        "m=1, method='test')")
    assert repr(TruncationReceipt(3, mpf(0), mpf(0))) == (
        "TruncationReceipt(terms_used=3, tail_bound=mpf('0.0'), rel_err_bound=mpf('0.0'))")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_immutable(name):
    fields, make = RECORDS[name]
    rec = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict
    assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_by_value(name):
    fields, make = RECORDS[name]
    rec, again = make(), make()
    assert rec == again and not rec != again
    assert rec == type(rec)(**{f: getattr(rec, f) for f in fields})
    assert pickle.loads(pickle.dumps(rec)) == rec
    # a named tuple equals the plain tuple of its fields
    assert rec == tuple(rec)
    if name == "CoeffSet":
        # it holds dicts, so it has no hash
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
    else:
        assert hash(rec) == hash(again) == hash(tuple(rec))


def test_unequal_records():
    assert PrecisionContext(128) != PrecisionContext(192)
    assert PrecisionContext() == PrecisionContext(256) == PrecisionContext(bits=256)
    assert poisson_coeffs(2) != poisson_coeffs(3)
    assert entropy_poisson_large(10, 2, CTX) != entropy_poisson_large(10, 3, CTX)
    assert entropy_poisson_large(10, 2, CTX) != entropy_poisson_large(10, 2, PrecisionContext(128))
    assert poisson_entropy_oracle(10, CTX)[1] != poisson_entropy_oracle(100, CTX)[1]


def test_methods_and_properties_kept():
    ctx = PrecisionContext(128)
    assert ctx.mp.prec > 128 and ctx.round(mpf(1) / 3) == mpf(1) / 3
    cs = poisson_coeffs(2)
    assert cs.b_tilde is cs.b and cs.a_tilde is cs.a
    rep = entropy_poisson_large(10, 2, CTX)
    assert rep.contains(rep.midpoint) and not rep.contains(rep.upper + 1)


_B, _A = {1: F(1), 2: F(1), 3: F(1)}, {2: F(1), 3: F(1), 4: F(1)}
_BOX = (mpf(0), mpf(1), mpf("0.5"), mpf(1), 1, "test")

# (type, good fields, replaced fields, exception, the whole message)
REFUSALS = [
    (PrecisionContext, {"bits": 64}, {"bits": 63}, ValueError, "bits must be >= 64, got 63"),
    (PrecisionContext, {"bits": 64}, {"bits": -1}, ValueError, "bits must be >= 64, got -1"),
    (PrecisionContext, {"bits": 64}, {"bits": 100.5}, TypeError,
     "bits must be an integer, got 100.5"),
    (PrecisionContext, {"bits": 64}, {"bits": "128"}, TypeError,
     "bits must be an integer, got '128'"),
    (CoeffSet, {"m": 2, "b": _B, "a": _A}, {"b": {1: F(1), 2: F(1)}}, ValueError,
     "b indices must cover 1..3, got [1, 2]"),
    (CoeffSet, {"m": 2, "b": _B, "a": _A}, {"a": {1: F(1), 2: F(1), 3: F(1)}}, ValueError,
     "a indices must cover 2..4, got [1, 2, 3]"),
    (CoeffSet, {"m": 2, "b": _B, "a": _A}, {"m": 1}, ValueError,
     "b indices must cover 1..1, got [1, 2, 3]"),
    (CoeffSet, {"m": 2, "b": _B, "a": _A}, {"a": {2: F(1), 3: F(-1, 7), 4: F(0)}}, ValueError,
     "gap coefficients a(m, k) must be nonnegative"),
    (BoundReport, dict(zip(BoundReport._fields, _BOX)), {"lower": mpf(2)}, ValueError,
     "empty interval: [2.0, 1.0]"),
    (BoundReport, dict(zip(BoundReport._fields, _BOX)), {"upper": mpf(-1)}, ValueError,
     "empty interval: [0.0, -1.0]"),
]


@pytest.mark.parametrize("cls, good, bad, exc, message", REFUSALS,
                         ids=lambda x: x.__name__ if isinstance(x, type) else None)
def test_constructor_refuses(cls, good, bad, exc, message):
    fields = {**good, **bad}
    for build in (lambda: cls(**fields), lambda: cls(*fields.values()),
                  lambda: cls(**good)._replace(**bad), lambda: cls._make(fields.values())):
        with pytest.raises(exc) as info:
            build()
        assert str(info.value) == message


def test_default_precision():
    assert PrecisionContext().bits == 256
    assert PrecisionContext()._replace() == PrecisionContext(256)
    with pytest.raises(TypeError):
        PrecisionContext(64, 128)
    with pytest.raises(TypeError):
        BoundReport(*_BOX[:-1])
