"""Central numeric tolerances for the whole pipeline."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every numeric threshold used by the engine, in one place.

    Relative thresholds note the scale they are measured against.  A field
    that is not finite and >= 0 (``vertex_sig_digits``: an integer >= 1)
    raises ValueError.  Instances are immutable; use :meth:`override` to
    derive a copy.
    """

    symmetry_rel: float = 1e-12     # |M - M^T|_F vs max(1, |M|_F)
    pivot_rel: float = 1e-13        # solve: |x| <= |rhs| / (rel * max(1, max |entry|));
                                    # Lyapunov: max|P| <= max(1, max|C|) / (rel * max(1, max|A|)^2)
    pd_rel: float = 1e-12           # lambda_min vs max(1, lambda_max)
    lyap_residual: float = 1e-8     # |P - A^T P A - C|_F vs 1 + |C|_F
    psd_slack_rel: float = 1e-8     # feasibility slack for t*P - Q vs |Q|_F
    psd_eig_floor: float = 1e-10    # lambda_min(Q) >= -floor counts as PSD
    norm_margin: float = 1e-12      # require |A|_P <= 1 - margin
    strict_pos: float = 1e-12       # step values above this count as positive
    log_arg_slack: float = 1e-12    # allowed overshoot of the log argument past 1
    alpha_slack: float = 1e-9       # decision slack against the level alpha
    vertex_sig_digits: int = 12     # rounding used to drop duplicate vertices

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            least = 1 if name == "vertex_sig_digits" else 0
            if not (math.isfinite(value) and value >= least):
                raise ValueError(f"{name} = {value!r} must be finite and >= {least}")
        if not isinstance(self.vertex_sig_digits, numbers.Integral):
            raise ValueError(f"vertex_sig_digits = {self.vertex_sig_digits!r} must be an integer")

    def override(self, **changes) -> Tolerances:
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


DEFAULTS = Tolerances()
