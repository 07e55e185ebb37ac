"""Hypothesis bundle governing cuspidality and isomorphism decisions."""

from __future__ import annotations

import enum
from collections import namedtuple

from .errors import ParameterError


class RepType(enum.Enum):
    GENERAL = "general"
    TETRAHEDRAL = "tetrahedral"
    OCTAHEDRAL = "octahedral"
    DIHEDRAL = "dihedral"


class TypeAssumption(namedtuple("TypeAssumption", "rep_type self_dual omega_order")):
    """Representation type, self-duality, and central-character order.

    For non-dihedral self-dual representations the central character is
    forced trivial; conversely a trivial central character forces
    self-duality (the contragredient is the omega^{-1} twist).  Both
    constraints are validated at construction.
    """

    __slots__ = ()

    def __new__(cls, rep_type=RepType.GENERAL, self_dual=True, omega_order=1):
        if omega_order < 1:
            raise ParameterError("omega_order must be >= 1")
        if self_dual and rep_type is not RepType.DIHEDRAL and omega_order != 1:
            raise ParameterError(
                "self-dual non-dihedral representations have trivial central character"
            )
        if not self_dual and omega_order == 1:
            raise ParameterError(
                "a trivial central character forces self-duality; "
                "non-self-dual assumptions need omega_order >= 2"
            )
        return super().__new__(cls, rep_type, self_dual, omega_order)


GENERAL_SELF_DUAL = TypeAssumption(RepType.GENERAL, True, 1)
TETRAHEDRAL_SELF_DUAL = TypeAssumption(RepType.TETRAHEDRAL, True, 1)
OCTAHEDRAL_SELF_DUAL = TypeAssumption(RepType.OCTAHEDRAL, True, 1)
