"""Every numeric threshold of the pipeline, in one table of fixed constants.

Relative thresholds note the scale they are measured against.
"""

SYMMETRY_REL = 1e-12        # |M - M^T|_F vs max(1, |M|_F)
PIVOT_REL = 1e-13           # solve: |x| <= |rhs| / (rel * max(1, max |entry|));
                            # Lyapunov: max|P| <= max(1, max|C|) / (rel * max(1, max|A|)^2)
PD_REL = 1e-12              # lambda_min vs max(1, lambda_max)
LYAP_RESIDUAL = 1e-8        # |P - A^T P A - C|_F vs 1 + |C|_F
PSD_SLACK_REL = 1e-8        # feasibility slack for t*P - Q vs |Q|_F
PSD_EIG_FLOOR = 1e-10       # lambda_min(Q) >= -floor counts as PSD
NORM_MARGIN = 1e-12         # require |A|_P <= 1 - margin
STRICT_POS = 1e-12          # step values above this count as positive
ALPHA_SLACK = 1e-9          # decision slack against the level alpha
VERTEX_SIG_DIGITS = 12      # rounding used to drop duplicate vertices
