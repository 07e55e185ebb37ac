"""The immutable record types: assignment is refused, every invalid
construction raises its DomainError subclass and message, and the field
order, which `bounds --json` and `verify --json` print, is fixed."""

import math
import re
from array import array

import numpy as np
import pytest

from heckebound.assumptions import GENERAL_SELF_DUAL, RepType, TypeAssumption
from heckebound.bounds import BoundResult, positive_side
from heckebound.datasets import Dataset, DatasetHeader, Records
from heckebound.density import DensityReport, TheoremReport, density_profile, verify_theorem
from heckebound.errors import AlgebraError, DatasetError, ParameterError
from heckebound.poles import CertFactor, PoleCertificate, tensor_power_pole
from heckebound.repring import MU, Atom, VirtualRep

RECORDS = Records([2, 3, 5, 7], [1.5, -1.5, 0.25, 1.0], a_raw=[3, -3, 1, 2])
CERT = tensor_power_pole(4, GENERAL_SELF_DUAL)

#: each record type with a value of it and its fields in their printed order
FIELDS = {
    TypeAssumption: (GENERAL_SELF_DUAL, ("rep_type", "self_dual", "omega_order")),
    Atom: (Atom(3, 1, MU), ("sym_degree", "omega_power", "aux", "opaque_label")),
    VirtualRep: (VirtualRep.of(Atom(1), Atom(0, 1)), ("terms",)),
    CertFactor: (CERT.factors[0], ("left", "right", "multiplicity", "pole_contrib")),
    PoleCertificate: (CERT, ("factors", "total_order", "assumption", "note")),
    BoundResult: (positive_side(), ("constant", "optimizer", "branch_values", "trace")),
    DensityReport: (
        density_profile(RECORDS, 0.5, "above"),
        ("natural_proportion", "dirichlet_weighted", "count", "s_used", "X"),
    ),
    TheoremReport: (
        verify_theorem(RECORDS, "t1pos"),
        ("theorem", "threshold", "epsilon", "phi", "count", "required", "total", "witnesses", "passed"),
    ),
    DatasetHeader: (DatasetHeader("x", True, 10), ("source", "self_dual", "X")),
    Dataset: (Dataset(DatasetHeader("x", True, 10), RECORDS), ("header", "records")),
    Records: (RECORDS, ("p", "a_re", "a_im", "a_raw")),
}
VALUES = [value for value, _ in FIELDS.values()]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_assignment_is_refused(value):
    names = type(value)._fields
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
        (lambda: Records([2, 3], [0.1, 0.2], a_raw=[1, 2.5]), DatasetError, "raw eigenvalues must be exact integers", None),
        (lambda: Records([2, 3], [0.1, 0.2], a_raw=[1, True]), DatasetError, "raw eigenvalues must be exact integers", None),
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
        "non-finite", "non-integer-raw", "bool-raw", "prime-above-header-x",
    ],
)
def test_invalid_construction_is_refused(build, error, message, row):
    _assert_refused(build, error, message, row)


def _assert_refused(build, error, message, row):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error
    assert getattr(info.value, "row", None) == row


@pytest.mark.parametrize("kind", FIELDS, ids=lambda k: k.__name__)
def test_a_checking_constructor_comes_with_its_own_make(kind):
    # namedtuple's own _make, which _replace calls, skips __new__ and its checks
    assert "__new__" not in vars(kind) or "_make" in vars(kind)


def test_atom_keys_a_dict_by_its_canonical_aux():
    # mu has order 3: mu * mu^3 is mu, mu^3 is trivial, and the order of the
    # pairs does not matter, so each spelling finds the same entry
    table = {Atom(1, 0, MU): "pi*mu", Atom(): "1"}
    assert table[Atom(1, 0, (("mu", 1), ("mu", 3)))] == "pi*mu"
    assert table[Atom(1, 0, (("mu", 4),))] == "pi*mu"
    assert table[Atom(0, 0, (("mu", 3),))] == "1"
    assert table[Atom(1).twist(aux=(("mu", 2),)).twist(aux=(("mu", 2),))] == "pi*mu"
    assert Atom(1, 0, [("mu", 4)]).aux == (("mu", 1),)


def test_records_keep_their_length_and_value_equality():
    copy = Records(RECORDS.p.tolist(), RECORDS.a_re.tolist(), RECORDS.a_im.tolist(), list(RECORDS.a_raw))
    assert len(copy) == 4 and copy == RECORDS
    assert copy != Records(RECORDS.p, RECORDS.a_re)
    assert copy != Records(RECORDS.p, RECORDS.a_re, [0.0, 0.0, 0.5, 0.0], RECORDS.a_raw)
    assert copy.p.readonly and copy.a_re.readonly and copy.a_im.readonly
    assert Dataset(DatasetHeader("x", True, 10), copy) == FIELDS[Dataset][0]


def _read_only(column):
    column.setflags(write=False)
    return column


@pytest.mark.parametrize(
    "given",
    [
        lambda: ([2, 3, 5, 7], [0.5, -0.5, 1.0, 0.0], [0.0, 0.5, 0.0, 0.0]),
        lambda: (np.arange(10, dtype=np.int64)[[2, 3, 5, 7]][::1], np.arange(8.0)[::2], np.arange(8.0)[1::2]),
        lambda: (np.array([2, 3, 5, 7]), np.array([0.5, -0.5, 1.0, 0.0]), np.zeros(4)),
        lambda: (np.array([2, 3, 5, 7], dtype=np.int32), np.array([0.5, -0.5, 1.0, 0.0], dtype=np.float32), [0, 0, 1, 0]),
        lambda: tuple(_read_only(np.array(c))[:] for c in ([2, 3, 5, 7], [0.5, -0.5, 1.0, 0.0], [0.5, 0.0, 0.0, 0.0])),
        # the column types the reader and the sampler hand over uncopied: a caller's are copied
        lambda: (array("q", [2, 3, 5, 7]), array("d", [0.5, -0.5, 1.0, 0.0]), array("d", [0.0, 0.5, 0.0, 0.0])),
    ],
    ids=["lists", "views", "writable-arrays", "other-dtypes", "read-only-views", "stdlib-arrays"],
)
def test_records_copy_what_they_do_not_own(given):
    # whatever holds the values, each column is a new array behind a read-only view
    columns = given()
    writable = [not isinstance(c, np.ndarray) or c.flags.writeable for c in columns]
    records = Records(*columns)
    held = (records.p, records.a_re, records.a_im)
    before = [column.tolist() for column in held]
    for given_column, was_writable in zip(columns, writable):
        if isinstance(given_column, np.ndarray):
            assert given_column.flags.writeable == was_writable  # the caller's array is not frozen
        if was_writable:  # nor seen through
            given_column[0] = 1
    assert [column.tolist() for column in held] == before
    assert all(column.readonly for column in held)
    with pytest.raises(TypeError):
        records.a_re[0] = 5.0


def test_records_replace_and_make_build_through_the_checks():
    # namedtuple's own _make, which _replace calls, skips __new__ (and, for Records,
    # compares len(), the number of primes, with 4): each checked type's builds
    # through its constructor, so each refusal of the constructor holds here too
    two = Records([2, 3], [0.5, 0.5])._replace(a_re=[0.1, 0.2])
    assert two == Records([2, 3], [0.1, 0.2]) and two.a_re.readonly
    assert Atom(1, 0, MU)._replace(aux=(("mu", 4),)) == Atom(1, 0, MU)  # aux stays canonical
    two_pi = VirtualRep.of(Atom(1), Atom(1))  # terms stay canonical: one pair per atom, none zero
    assert VirtualRep(((Atom(1), 0), (Atom(1), 2))) == two_pi
    assert VirtualRep.of(Atom(2))._replace(terms=((Atom(1), 1), (Atom(1), 1))) == two_pi
    nsd_needs_omega = "a trivial central character forces self-duality; non-self-dual assumptions need omega_order >= 2"
    unsorted = "records must be sorted strictly increasing in p >= 2"
    refused = [
        (lambda: GENERAL_SELF_DUAL._replace(omega_order=0), ParameterError, "omega_order must be >= 1", None),
        (
            lambda: GENERAL_SELF_DUAL._replace(omega_order=2),
            ParameterError,
            "self-dual non-dihedral representations have trivial central character",
            None,
        ),
        (lambda: GENERAL_SELF_DUAL._replace(self_dual=False), ParameterError, nsd_needs_omega, None),
        (lambda: Atom(3, 1, MU)._replace(opaque_label="pi_chi"), AlgebraError, "opaque atom 'pi_chi' needs sym_degree 0", None),
        (lambda: Atom._make((2, 0, (), "pi_chi")), AlgebraError, "opaque atom 'pi_chi' needs sym_degree 0", None),
        (lambda: Atom(3, 1, MU)._replace(sym_degree=-1), AlgebraError, "SymPow atoms need sym_degree >= 0", None),
        (lambda: Atom()._replace(opaque_label="pi_psi"), AlgebraError, "unknown opaque cuspidal label 'pi_psi'", None),
        (lambda: Atom(3, 1, MU)._replace(aux=(("nu", 1),)), AlgebraError, "unknown aux character symbol 'nu'", None),
        (lambda: DatasetHeader("x", True, 10)._replace(X=-1), DatasetError, "header X=-1 is negative", None),
        (lambda: Records._make([[7, 5, 3, 2], RECORDS.a_re, RECORDS.a_im, None]), DatasetError, unsorted, 1),
        (lambda: RECORDS._replace(a_re=[0.5, 0.5, math.nan, 0.5]), DatasetError, "eigenvalue at p = 5 is not finite", 2),
        (lambda: RECORDS._replace(a_raw=[3, -3, 1, 2.5]), DatasetError, "raw eigenvalues must be exact integers", None),
        (lambda: RECORDS._replace(a_raw=[3, -3, 1, True]), DatasetError, "raw eigenvalues must be exact integers", None),
        (
            lambda: FIELDS[Dataset][0]._replace(header=DatasetHeader("x", True, 5)),
            DatasetError,
            "record prime 7 exceeds header X=5",
            3,
        ),
    ]
    for build, error, message, row in refused:
        _assert_refused(build, error, message, row)


def test_replacing_a_note_keeps_the_certificate_type():
    cert = tensor_power_pole(5, GENERAL_SELF_DUAL)
    assert type(cert) is PoleCertificate and cert.note.startswith("k=5:")
