"""pascalinv: exact Pascal-matrix calculus and invariant integer sequences.

Infinite triangular operators built from binomial coefficients, their
involutions and similarity structure, and the sequences they leave fixed,
all in exact rational and quadratic-field arithmetic.
"""
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .scalars import (
    QuadExt,
    Scalar,
    binomial,
    exact_div,
    format_scalar,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
    simplify,
)
from .errors import (
    DivergentSumError,
    InfiniteSumError,
    PascalinvError,
    PoleError,
    UnsupportedPairError,
    UnsupportedSequenceError,
)
from .operators import (
    Band,
    DenseMat,
    TriOp,
    banded,
    compose,
    delete_leading,
    downshift,
    lin_comb,
    make_operator,
    op_power,
    pd,
    ptd,
    transpose,
    truncate,
)
from .sequences import (
    AltBernoulli,
    Bernoulli,
    ExpComb,
    FinSupp,
    InvarianceReport,
    KSeq,
    Lazy,
    Seq,
    apply_finite,
    apply_upper,
    bernoulli_number,
    check_invariance,
    difference,
    fibonacci,
    geometric,
    k_number,
    lucas,
    newton_reconstruct,
    prefix,
    shift_down,
    shift_up,
    term,
    unit,
)
# The eigenstructure and transforms layers load on first use (PEP 562), so a
# caller that only needs sequences and operators does not pay for them.
_LAZY = {
    "CoordResult": "eigenstructure",
    "EigenSpaceId": "eigenstructure",
    "basis_vector": "eigenstructure",
    "coords_first_kind": "eigenstructure",
    "factor_chain": "eigenstructure",
    "formal_coords_second_kind": "eigenstructure",
    "make_M": "eigenstructure",
    "make_N": "eigenstructure",
    "make_factor": "eigenstructure",
    "ptdown": "eigenstructure",
    "qdown": "eigenstructure",
    "qtdown00": "eigenstructure",
    "verify_block_diag": "eigenstructure",
    "zero_top_pdown": "eigenstructure",
    "Pipeline": "transforms",
    "Stage": "transforms",
    "build_phi": "transforms",
    "build_psi": "transforms",
    "converse_check": "transforms",
    "orthogonality": "transforms",
    "power_column": "transforms",
    "power_column_class": "transforms",
    "t42a": "transforms",
    "t42b": "transforms",
    "t42c": "transforms",
    "t42d": "transforms",
}

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + sorted(_LAZY)


def __getattr__(name):
    # read from the submodule on every access, so a later rebinding there shows
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
