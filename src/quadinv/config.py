"""Central numeric tolerances for the whole pipeline."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every numeric threshold used by the engine, in one place.

    Relative thresholds note the scale they are measured against.
    Instances are immutable; use :meth:`override` to derive a copy.
    """

    symmetry_rel: float = 1e-12     # |M - M^T|_F vs max(1, |M|_F)
    pivot_rel: float = 1e-13        # solve: |x| <= |rhs| / (rel * max(1, max |entry|))
    pd_rel: float = 1e-12           # lambda_min vs max(1, lambda_max)
    lyap_residual: float = 1e-8     # |P - A^T P A - C|_F vs 1 + |C|_F
    psd_slack_rel: float = 1e-8     # feasibility slack for t*P - Q vs |Q|_F
    psd_eig_floor: float = 1e-10    # lambda_min(Q) >= -floor counts as PSD
    norm_margin: float = 1e-12      # require |A|_P <= 1 - margin
    strict_pos: float = 1e-12       # step values above this count as positive
    log_arg_slack: float = 1e-12    # allowed overshoot of the log argument past 1
    alpha_slack: float = 1e-9       # decision slack against the level alpha
    vertex_sig_digits: int = 12     # rounding used to drop duplicate vertices

    def override(self, **changes) -> Tolerances:
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


DEFAULTS = Tolerances()
