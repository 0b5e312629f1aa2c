"""Two qutrits: the same exchange seen by two different measure families.

The family (x/sqrt2)|0,0> + (x/sqrt2)|1,1> + sqrt(1-x^2)|2,2> saturates two
balances at once, with different constants:

  P^2 + C^2            = 4/3   (squared predictability vs generalized concurrence)
  P_l1 + Cc_l1         = 2     (l1 predictability vs l1 correlated coherence)

Both read the same off-diagonal entries of the joint state; they differ only
in the function applied to them, which is why neither can be written as a
function of the other.
"""

import numpy as np

from ccrkit import (
    coherence_l1,
    concurrence_generalized,
    correlated_coherence,
    partial_trace,
    predictability_hs,
    predictability_l1,
)
from ccrkit.cli import SweepConfig, render_sweep_csv
from ccrkit.states import qutrit_jb

print(f"{'x':>5} {'P^2':>8} {'C^2':>8} {'sum':>8} | {'P_l1':>8} {'Cc_l1':>8} {'sum':>8}")
for x in np.linspace(0, 1, 11):
    psi = qutrit_jb(x)
    reduced = partial_trace(psi, [0])
    p_sq = 2 * predictability_hs(reduced).value
    c_sq = concurrence_generalized(reduced).value ** 2
    p_l1 = predictability_l1(reduced).value
    cc_l1 = correlated_coherence(psi, ([0], [1]), coherence_l1)
    print(
        f"{x:>5.2f} {p_sq:>8.4f} {c_sq:>8.4f} {p_sq + c_sq:>8.4f} | "
        f"{p_l1:>8.4f} {cc_l1:>8.4f} {p_l1 + cc_l1:>8.4f}"
    )

print()
print("the same table as CSV, via the sweep machinery the CLI uses:")
config = SweepConfig(
    variant="qutrit-jb",
    param="x",
    start=0.0,
    stop=1.0,
    points=5,
    measures=("P_jb_sq", "C_jb_sq", "P_l1", "C_corr_l1", "P_vn", "S_vn"),
)
print(render_sweep_csv(config))
