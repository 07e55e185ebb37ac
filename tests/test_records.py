"""The immutable record types: assignment is refused, every invalid
construction raises its DomainError subclass and message, and the field
order, which `bounds --json` and `verify --json` print, is fixed."""

import math
import re

import numpy as np
import pytest

from heckebound.assumptions import GENERAL_SELF_DUAL, RepType, TypeAssumption
from heckebound.bounds import BoundResult, positive_side
from heckebound.datasets import Dataset, DatasetHeader, Records
from heckebound.density import DensityReport, TheoremReport, density_profile, verify_theorem
from heckebound.errors import AlgebraError, DatasetError, ParameterError
from heckebound.poles import CertFactor, PoleCertificate, tensor_power_pole
from heckebound.repring import MU, Atom, VirtualRep, char, sym

RECORDS = Records([2, 3, 5, 7], [1.5, -1.5, 0.25, 1.0], [3, -3, 1, 2])
CERT = tensor_power_pole(4, GENERAL_SELF_DUAL)

#: each record type with a value of it and its fields in their printed order
FIELDS = {
    TypeAssumption: (GENERAL_SELF_DUAL, ("rep_type", "self_dual", "omega_order")),
    Atom: (sym(3, 1, MU), ("sym_degree", "omega_power", "aux", "opaque_label")),
    VirtualRep: (VirtualRep.of(sym(1), char(1)), ("terms",)),
    CertFactor: (CERT.factors[0], ("left", "right", "multiplicity", "pole_contrib")),
    PoleCertificate: (CERT, ("factors", "total_order", "assumption", "note")),
    BoundResult: (positive_side(), ("constant", "optimizer", "branch_values", "trace")),
    DensityReport: (
        density_profile(RECORDS, 0.5, "above"),
        ("threshold", "side", "phi", "natural_proportion", "dirichlet_weighted", "count", "s_used", "X"),
    ),
    TheoremReport: (
        verify_theorem(RECORDS, "t1pos"),
        ("theorem", "threshold", "epsilon", "phi", "count", "required", "total", "witnesses", "passed"),
    ),
    DatasetHeader: (DatasetHeader("x", True, 10), ("source", "self_dual", "X")),
    Dataset: (Dataset(DatasetHeader("x", True, 10), RECORDS), ("header", "records")),
}
VALUES = [value for value, _ in FIELDS.values()] + [RECORDS]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_assignment_is_refused(value):
    names = getattr(type(value), "_fields", ("p", "a", "a_raw"))
    for name in names + ("extra",):  # a new name too: no instance __dict__
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("kind", FIELDS, ids=lambda k: k.__name__)
def test_field_order_is_fixed(kind):
    value, names = FIELDS[kind]
    assert type(value) is kind
    assert kind._fields == names
    assert tuple(value._asdict()) == names


@pytest.mark.parametrize(
    "build, error, message, row",
    [
        (lambda: TypeAssumption(omega_order=0), ParameterError, "omega_order must be >= 1", None),
        (
            lambda: TypeAssumption(RepType.GENERAL, True, 2),
            ParameterError,
            "self-dual non-dihedral representations have trivial central character",
            None,
        ),
        (
            lambda: TypeAssumption(RepType.OCTAHEDRAL, False, 1),
            ParameterError,
            "a trivial central character forces self-duality; non-self-dual assumptions need omega_order >= 2",
            None,
        ),
        (lambda: Atom(2, opaque_label="pi_chi"), AlgebraError, "opaque atom 'pi_chi' needs sym_degree 0", None),
        (lambda: Atom(-1), AlgebraError, "SymPow atoms need sym_degree >= 0", None),
        (lambda: Atom(opaque_label="pi_psi"), AlgebraError, "unknown opaque cuspidal label 'pi_psi'", None),
        (lambda: Atom(1, aux=(("nu", 1),)), AlgebraError, "unknown aux character symbol 'nu'", None),
        (lambda: DatasetHeader("x", True, -1), DatasetError, "header X=-1 is negative", None),
        (
            lambda: Records([2, 5, 3], [0.1, 0.2, 0.3]),
            DatasetError,
            "records must be sorted strictly increasing in p >= 2",
            2,
        ),
        (lambda: Records([2, 3], [0.1, math.inf]), DatasetError, "eigenvalue at p = 3 is not finite", 1),
        (lambda: Records([2, 3], [0.1, 0.2], [1, 2.5]), DatasetError, "raw eigenvalues must be exact integers", None),
        (
            lambda: Dataset(DatasetHeader("x", True, 10), Records([2, 11, 13], [0.1, 0.2, 0.3])),
            DatasetError,
            "record prime 11 exceeds header X=10",
            1,
        ),
    ],
    ids=[
        "omega-order-0", "self-dual-omega-2", "non-self-dual-omega-1", "opaque-with-degree",
        "negative-degree", "unknown-label", "unknown-aux", "negative-header-x", "unsorted",
        "non-finite", "non-integer-raw", "prime-above-header-x",
    ],
)
def test_invalid_construction_is_refused(build, error, message, row):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error
    assert getattr(info.value, "row", None) == row


def test_atom_keys_a_dict_by_its_canonical_aux():
    # mu has order 3: mu * mu^3 is mu, mu^3 is trivial, and the order of the
    # pairs does not matter, so each spelling finds the same entry
    table = {sym(1, 0, MU): "pi*mu", char(0): "1"}
    assert table[Atom(1, 0, (("mu", 1), ("mu", 3)))] == "pi*mu"
    assert table[Atom(1, 0, (("mu", 4),))] == "pi*mu"
    assert table[Atom(0, 0, (("mu", 3),))] == "1"
    assert table[sym(1).twist(aux=(("mu", 2),)).twist(aux=(("mu", 2),))] == "pi*mu"
    assert Atom(1, 0, [("mu", 4)]).aux == (("mu", 1),)


def test_records_keep_their_length_and_value_equality():
    copy = Records(RECORDS.p.tolist(), RECORDS.a.tolist(), list(RECORDS.a_raw))
    assert len(copy) == 4 and copy == RECORDS
    assert copy != Records(RECORDS.p, RECORDS.a)
    assert not (copy.p.flags.writeable or copy.a.flags.writeable)
    assert Dataset(DatasetHeader("x", True, 10), copy) == FIELDS[Dataset][0]


def _read_only(array):
    array.setflags(write=False)
    return array


@pytest.mark.parametrize(
    "given",
    [
        lambda: ([2, 3, 5, 7], [0.5, -0.5, 1.0, 0.0]),
        lambda: (np.arange(10, dtype=np.int64)[[2, 3, 5, 7]][::1], np.arange(8, dtype=np.complex128)[::2]),
        lambda: (np.array([2, 3, 5, 7]), np.array([0.5, -0.5, 1.0, 0.0], dtype=np.complex128)),
        lambda: (np.array([2, 3, 5, 7], dtype=np.int32), np.array([0.5, -0.5, 1.0, 0.0])),
        lambda: tuple(_read_only(np.array(c))[:] for c in ([2, 3, 5, 7], [0.5j, -0.5, 1.0, 0.0])),
    ],
    ids=["lists", "views", "writable-arrays", "other-dtypes", "read-only-views"],
)
def test_records_copy_what_they_do_not_own(given):
    p, a = given()
    writable = [not isinstance(c, np.ndarray) or c.flags.writeable for c in (p, a)]
    records = Records(p, a)
    before = records.p.tolist(), records.a.tolist()
    for given_column, column, was_writable in zip((p, a), (records.p, records.a), writable):
        if isinstance(given_column, np.ndarray):
            assert not np.shares_memory(given_column, column)
            assert given_column.flags.writeable == was_writable  # the caller's array is not frozen
        if was_writable:  # nor seen through
            given_column[0] = 1
    assert (records.p.tolist(), records.a.tolist()) == before
    assert not (records.p.flags.writeable or records.a.flags.writeable)


def test_records_adopt_owned_read_only_columns():
    p = _read_only(np.array([2, 3, 5, 7], dtype=np.int64))
    a = _read_only(np.array([0.5, -0.5j, 1.0, 0.0], dtype=np.complex128))
    records = Records(p, a)
    assert np.shares_memory(records.p, p) and np.shares_memory(records.a, a)
    assert records == Records(p.tolist(), a.tolist())


def test_replacing_a_note_keeps_the_certificate_type():
    cert = tensor_power_pole(5, GENERAL_SELF_DUAL)
    assert type(cert) is PoleCertificate and cert.note.startswith("k=5:")
