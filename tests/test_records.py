"""nkt's immutable records behave as the frozen dataclasses they replaced.

Each public record is set beside a frozen dataclass with the same name and
fields, holding the same values: repr, ==, hash and the error raised on
assignment must agree.
"""

from __future__ import annotations

import copy
import dataclasses
from pathlib import Path

import pytest

from nkt import (
    Density,
    GeneralizedVectorField,
    Kind,
    LinearJetOperator,
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
        kronecker(2),
        theory,
    ]


def _twin(record: Record) -> object:
    """A frozen dataclass of the record's name and fields, with its values."""
    cls = type(record)
    twin_cls = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    return twin_cls(*(getattr(record, name) for name in cls.__match_args__))


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
    if type(record) is not LinearJetOperator:  # keeps its own __hash__
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


def test_variable_id_is_interned_and_keeps_its_hash_and_rank() -> None:
    v = VariableId(Kind.ANTIGHOST, "c", (1,), Parity.EVEN, 2)
    assert VariableId(Kind.ANTIGHOST, "c", (1,), Parity.EVEN, stage=2) is v
    assert VariableId(Kind.ANTIGHOST, "c", (1,), Parity.EVEN) is not v
    assert hash(v) == hash((Kind.ANTIGHOST, "c", (1,), Parity.EVEN, 2))
    assert v.rank == (5, 2, "c", (1,))
    assert VariableId(Kind.FIELD, "c", (1,), Parity.EVEN).rank == (0, 0, "c", (1,))
    with pytest.raises(ValueError, match="only ghosts and antighosts"):
        VariableId(Kind.FIELD, "y", (), Parity.EVEN, 0)
