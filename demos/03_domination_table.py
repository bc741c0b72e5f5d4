# %% [markdown]
# # Why the shrinkage prior wins: exact risk differences
#
# Estimators that share the shape differ in divergence risk only through
# their weight terms, and that difference has an exact Poisson-series value
# at every true weight w.  Positive entries mean the shrinkage exponent
# gamma_tilde = |alpha| - 1 beats gamma at that w; the series is positive
# for every w, which is the domination statement the harness certifies.

# %%
import math

import numpy as np

from nhppbayes import (domination_study, poisson_log_shift_bound,
                       weight_risk_difference_exact)

abs_alpha = 2.0 * math.pi
w_grid = [0.1, 1.0, 4.0 * math.pi, 50.0]
report = domination_study(abs_alpha, 0.0, w_grid, tau=1.0)
for entry in report.entries:
    print(f"{entry.label:45s} -> {entry.estimate:.6f}")
print("all positive:", all(e.estimate > 0 for e in report.entries))

# %% [markdown]
# The positivity traces back to a Poisson expectation bound: for X with
# mean theta and any c > 0,
#
#     theta * E[log(X+1+c) - log(X+1)]  <  c * (1 - exp(-theta))  <  c.
#
# The risk difference equals (c - lhs)/tau with c = |alpha| - 1 and
# theta = tau * w, so it stays above c * exp(-theta) / tau > 0.

# %%
c = abs_alpha - 1.0
for theta in (0.5, 4.0 * math.pi, 40.0):
    lhs, rhs = poisson_log_shift_bound(theta, c)
    print(f"theta={theta:7.3f}: lhs={lhs:.6f} < rhs={rhs:.6f}, "
          f"risk difference={(c - lhs):.6f}")

# %% [markdown]
# A Monte Carlo cross-check of the series at one weight.

# %%
w = 4.0 * math.pi
exact = weight_risk_difference_exact(abs_alpha, 0.0, abs_alpha - 1.0, w, 1.0)
gen = np.random.default_rng(3)
n = gen.poisson(w, 2_000_000)
mc = np.mean((abs_alpha - 1.0) - w * np.log(n + abs_alpha)
             + w * np.log(n + 1.0))
print(f"exact {exact:.6f} vs Monte Carlo {mc:.6f}")
