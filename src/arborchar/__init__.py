"""Exact defining equations of excellent SL(2,C)-character varieties of
arborescent knots, with a Monte-Carlo matrix oracle for every formula."""

__version__ = "0.1.0"

#: residual tolerance of `verify` and `witness` when `--tol` is not given
RESIDUAL_TOL = 1e-9

#: the oracle's verification suites in run order; kept here so that the
#: CLI can list them without loading `arborchar.oracle`
SUITE_NAMES = (
    "identities",
    "tr-h",
    "power",
    "key",
    "key2",
    "base",
    "compose",
    "convenient",
    "reducible",
    "presentation",
    "pretzel",
)
