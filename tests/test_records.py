"""nkt's immutable records behave as the frozen dataclasses they replaced.

Each public record is set beside a frozen dataclass with the same name,
fields and defaults, holding the same values: repr, ==, hash, the error
raised on assignment and the arguments the constructor accepts must agree.
An interned record (VariableId) is the exception for hash: its copies are
the one instance, which hashes by identity.
"""

from __future__ import annotations

import copy
import dataclasses
from functools import partial
from pathlib import Path

import pytest

from nkt import (
    Density,
    GeneralizedVectorField,
    Kind,
    Parity,
    ReductionCertificate,
    SourceSpan,
    TrivialityReport,
    VariableId,
    check_nilpotent,
    check_noether_identity,
    check_reducibility_chain,
    check_weakly_zero,
    euler_lagrange,
    eta,
    first_variational_residual,
    is_variationally_trivial,
    kt_context,
    parse_theory,
)
from nkt.cli import VerificationReport
from nkt.errors import Record
from nkt.theory_dsl import kronecker

from test_annotations import _package_classes

THEORIES = Path(__file__).resolve().parent.parent / "theories"


def _samples() -> list[Record]:
    """One instance of every record class, built from a bundled theory."""
    theory = parse_theory((THEORIES / "on_shell_pair.nkt").read_text())
    lag = theory.lagrangian
    gauge, stage = theory.operators["rot"], theory.operators["null_dir"]
    y1 = theory.variables["y1"].variable(())
    e2 = theory.variables["e2"].variable(())
    vf = GeneralizedVectorField({y1: lag})
    ctx = kt_context(lag, theory.dim)
    cert = theory.certificates["e2"]
    return [
        SourceSpan(3, 7, 40, 45),
        VariableId(Kind.GHOST, "c", (1, 2), Parity.ODD, 0),
        y1,
        Density(lag),
        vf,
        check_nilpotent(vf),
        first_variational_residual(vf, lag),
        euler_lagrange(lag),
        is_variationally_trivial(lag),
        ctx,
        cert,
        ReductionCertificate(),
        check_weakly_zero(ctx, lag, cert),
        check_reducibility_chain(lag, gauge, [stage], {e2: cert}),
        gauge,
        check_noether_identity(eta(gauge), lag),
        theory.variables["y1"],
        kronecker("delta", 2),
        theory,
        VerificationReport("el", theory.name, "", True, [("y1", "y1")], ["note"]),
    ]


# The value each optional field takes when its argument is left out.
_DEFAULTS: dict[str, dict[str, object]] = {
    "VariableId": {"stage": None},
    "NilpotencyReport": {"notes": ()},
    "ReductionCertificate": {"m_coeffs": None, "witness": None},
    "WeakZeroReport": {"notes": ()},
    "ReducibilityReport": {"notes": ()},
    "LinearJetOperator": {"stage": None},
    "NoetherReport": {"variational": None, "notes": ()},
    "VarDecl": {"indices": (), "stage": None},
    "ConstantTensor": {"builder": None},
    "Theory": {  # each dict left out starts empty
        "constants": {},
        "lagrangian": None,
        "operators": {},
        "derivations": {},
        "certificates": {},
    },
    "VerificationReport": {
        "residuals": (),
        "assumptions": (),
        "certificates": (),
        "body": (),
        "verdict": "",
    },
}


def _twin_class(cls: type) -> type:
    """A frozen dataclass of the record's name, fields and defaults."""
    defaults = _DEFAULTS.get(cls.__name__, {})
    fields: list = []
    for name in cls.__match_args__:
        if name in defaults:
            # a factory, so that each call gets its own dict
            fresh = partial(copy.copy, defaults[name])
            fields.append((name, object, dataclasses.field(default_factory=fresh)))
        else:
            fields.append(name)
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _twin(record: Record) -> object:
    """The record's twin, holding its values."""
    cls = type(record)
    return _twin_class(cls)(*(getattr(record, name) for name in cls.__match_args__))


def test_samples_cover_every_record_class() -> None:
    records = {cls for cls in _package_classes() if issubclass(cls, Record)}
    assert {type(r) for r in _samples()} == records - {Record}


def test_field_annotations_name_the_fields_in_order() -> None:
    for cls in {type(r) for r in _samples()}:
        assert tuple(vars(cls)["__annotations__"]) == cls.__match_args__, cls


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_record_behaves_as_a_frozen_dataclass(record: Record) -> None:
    twin = _twin(record)
    assert repr(record) == repr(twin)
    rebuilt = copy.copy(record)
    assert rebuilt == record and not rebuilt != record
    assert record != twin
    if type(record) is VariableId:  # interned: one instance, identity hash
        assert rebuilt is record and hash(record) == object.__hash__(record)
    else:
        try:
            expected = hash(twin)
        except TypeError:  # a field holds a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected == hash(rebuilt)
    name = type(record).__match_args__[0]
    for act in (lambda o: setattr(o, name, None), lambda o: delattr(o, name)):
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            act(twin)
        with pytest.raises(dataclasses.FrozenInstanceError) as got:
            act(record)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_constructor_takes_fields_by_position_by_name_and_by_default(
    record: Record,
) -> None:
    cls = type(record)
    twin_cls = _twin_class(cls)
    values = {name: getattr(record, name) for name in cls.__match_args__}
    optional = _DEFAULTS.get(cls.__name__, {})
    required = {n: v for n, v in values.items() if n not in optional}
    assert cls(*values.values()) == record == cls(**values)
    assert repr(cls(**required)) == repr(twin_cls(**required))
    assert cls(*required.values()) == cls(**required)


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_a_missing_surplus_or_unknown_argument_is_a_type_error(record: Record) -> None:
    cls = type(record)
    twin_cls = _twin_class(cls)
    values = {name: getattr(record, name) for name in cls.__match_args__}
    first = cls.__match_args__[0]
    calls = [
        ((*values.values(), None), {}),  # surplus
        (tuple(values.values()), {"no_such_field": None}),  # unknown
        (tuple(values.values()), {first: values[first]}),  # given twice
    ]
    required = [n for n in values if n not in _DEFAULTS.get(cls.__name__, {})]
    if required:  # left out
        calls.append(((), {n: v for n, v in values.items() if n != required[-1]}))
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            twin_cls(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_reprs_read_as_dataclass_reprs() -> None:
    span = SourceSpan(3, 7, 40, 45)
    assert repr(span) == "SourceSpan(line=3, column=7, start=40, end=45)"
    assert repr(VariableId(Kind.GHOST, "c", (1, 2), Parity.ODD, 0)) == (
        "VariableId(kind=<Kind.GHOST: 1>, name='c', components=(1, 2),"
        " parity=<Parity.ODD: 1>, stage=0)"
    )
    assert repr(TrivialityReport(False, {}, ("note",))) == (
        "TrivialityReport(trivial=False, residuals={}, assumptions=('note',))"
    )


def test_variable_id_is_interned_and_keeps_its_rank() -> None:
    v = VariableId(Kind.ANTIGHOST, "c", (1,), Parity.EVEN, 2)
    assert VariableId(Kind.ANTIGHOST, "c", (1,), Parity.EVEN, stage=2) is v
    assert VariableId(**{n: getattr(v, n) for n in VariableId.__match_args__}) is v
    # a second construction leaves the shared instance's fields alone
    components = v.components
    assert VariableId(Kind.ANTIGHOST, "c", tuple([1]), Parity.EVEN, 2) is v
    assert v.components is components
    assert VariableId(Kind.ANTIGHOST, "c", (1,), Parity.EVEN) is not v
    assert v.rank == (5, 2, "c", (1,))
    assert VariableId(Kind.FIELD, "c", (1,), Parity.EVEN).rank == (0, 0, "c", (1,))
    with pytest.raises(ValueError, match="only ghosts and antighosts"):
        VariableId(Kind.FIELD, "y", (), Parity.EVEN, 0)
