"""Bus admittance matrix and binary connectivity structures.

All matrices are dense numpy arrays; no sparse matrix type is needed.
Where only the admittance pattern matters (the power-flow derivatives,
about four nonzeros per row), index arrays of the nonzeros do the work.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cases import PowerCase
from .errors import InvalidBranch

TOPOLOGICAL = "topological"
ELECTRICAL = "electrical"


@dataclass(frozen=True)
class BinaryAdjacency:
    """Symmetric 0/1 connectivity matrix with a unit diagonal (a monitor
    observes its own bus); any other matrix is a `ValueError`."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        # A non-square matrix is never equal to its transpose.
        if (bits.ndim != 2 or not bits.size
                or not np.all((bits == 0) | (bits == 1))
                or not np.array_equal(bits, bits.T)
                or not np.all(bits.diagonal() == 1)):
            raise ValueError("adjacency must be a nonempty square symmetric "
                             "0/1 matrix with a unit diagonal")
        object.__setattr__(self, "bits", np.asarray(bits, dtype=np.int8))

    @property
    def n(self) -> int:
        return self.bits.shape[0]


def build_ybus(case: PowerCase) -> np.ndarray:
    """Assemble the complex bus admittance matrix.

    Standard pi model with the off-nominal tap on the from side, its
    phase shift converted here from the case's degrees; parallel
    branches accumulate. Bus shunts (and half the line charging per end)
    land on the diagonal. `InvalidBranch` names the case and, by the
    file's bus ids, the branch whose tap ratio squares to zero or to
    infinity, or whose pi model would hold a non-finite entry (a tap
    ratio or series impedance so small that the division overflows), or
    the bus whose sum overflows.
    """
    n, ext = case.n, case.external_id
    y = np.zeros((n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for br in case.branches:
            i = br.from_bus - 1
            j = br.to_bus - 1
            y_series = 1.0 / complex(br.r, br.x)
            y_shunt = 0.5j * br.b_charging
            t = br.tap_ratio * np.exp(1j * math.radians(br.shift_deg))
            tap_sq = abs(t) ** 2
            # An infinite square would leave the branch electrically
            # open while the topological path still counts it.
            if tap_sq == 0 or tap_sq == np.inf:
                size = "too close to zero" if tap_sq == 0 else "too large"
                raise InvalidBranch(
                    f"{case.name}: branch {ext(br.from_bus)}-"
                    f"{ext(br.to_bus)} has tap ratio {br.tap_ratio}, {size}")
            y_ii = (y_series + y_shunt) / tap_sq
            y_ij = -y_series / np.conj(t)
            y_ji = -y_series / t
            if not (cmath.isfinite(y_ii) and cmath.isfinite(y_ij)
                    and cmath.isfinite(y_ji)):
                raise InvalidBranch(
                    f"{case.name}: branch {ext(br.from_bus)}-"
                    f"{ext(br.to_bus)} has a non-finite admittance "
                    f"(r {br.r}, x {br.x}, tap ratio {br.tap_ratio})")
            y[i, i] += y_ii
            y[j, j] += y_series + y_shunt
            y[i, j] += y_ij
            y[j, i] += y_ji
        for bus in case.buses:
            y[bus.index - 1, bus.index - 1] += complex(bus.shunt_g,
                                                       bus.shunt_b)
    finite = np.isfinite(y)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise InvalidBranch(f"{case.name}: bus {ext(row + 1)}: "
                            "admittance sum is not finite")
    return y


def topological_adjacency(case: PowerCase) -> BinaryAdjacency:
    """0/1 matrix of direct physical connections, unit diagonal."""
    n = case.n
    bits = np.eye(n, dtype=np.int8)
    for br in case.branches:
        bits[br.from_bus - 1, br.to_bus - 1] = 1
        bits[br.to_bus - 1, br.from_bus - 1] = 1
    return BinaryAdjacency(bits)
