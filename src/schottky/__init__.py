"""Numerics for Schottky uniformization of compact Riemann surfaces.

The package computes truncated orbit sums for the standard function
theory on a Schottky-uniformized surface (holomorphic differentials,
the symmetric bidifferential, higher-weight kernels, the period matrix),
builds the truncated mode-coupling operators whose Fredholm determinant
gives free-boson partition functions, and evaluates closed-form chiral
correlators (Heisenberg, Virasoro, lattice).

Entry points:

- :mod:`schottky.group`: parameter spaces, Mobius maps, and the reduced
  words as one table of arrays (no object per word).
- :mod:`schottky.forms`: truncated series for kernels, differentials and
  the period matrix.
- :mod:`schottky.modes`: weight-1 mode-coupling matrices, resolvent
  route to the third-kind differential, determinant partition function.
- :mod:`schottky.correlators`: Heisenberg / Virasoro / lattice
  correlation functions and Siegel theta sums.
"""

from schottky.group import (
    INFINITY,
    ClassicalParams,
    DegenerateMapError,
    DomainExitError,
    GroupWord,
    IDENTITY_MAP,
    InvalidParameterError,
    MobiusMap,
    SchottkyError,
    SchottkyParams,
    TruncationPolicy,
    ValidityReport,
    WordTable,
    apply_mobius,
    classical_from_params,
    enumerate_group,
    generator_map,
    in_fundamental_domain,
    is_infinity,
    mobius_act_on_params,
    params_from_classical,
    signed_indices,
    validate,
)

__version__ = "0.1.0"
