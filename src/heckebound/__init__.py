"""One-sided bounds on GL(2) Hecke eigenvalues: symbolic symmetric-power
decompositions, L-function pole orders at s=1, optimization-derived
constants, and empirical verification over eigenvalue datasets."""

from .assumptions import RepType, TypeAssumption
from .bounds import (
    BoundResult,
    negative_side,
    non_self_dual,
    positive_side,
    positive_side_weak,
    reference_constants,
)
from .datasets import (
    CURVE_11A1,
    Dataset,
    DatasetHeader,
    Records,
    ec_ap,
    read_csv,
    sato_tate_sample,
    tau_ap,
    write_csv,
)
from .density import (
    DensityReport,
    TheoremReport,
    density_profile,
    normalized_ratio,
    pole_order_probe,
    truncated_sum,
    verify_theorem,
)
from .poles import (
    PoleCertificate,
    certificate_render,
    rs_pole_order,
    std_pole_order,
    tensor_power_pole,
)
from .repring import (
    PI,
    Atom,
    SatakePoint,
    VirtualRep,
    cg_pair,
    dual,
    eval_char,
    parse_atom,
    power_sum,
    reduce_atom,
    reduce_rep,
    tensor_power,
)

__version__ = "0.1.0"
