"""Bipartite pure states: three matched pairs of duality quantifiers.

The two-qubit family x|0,1> + sqrt(1-x^2)|1,0> makes the bookkeeping
visible: each predictability has a partner correlation measure, and only
matched pairs close a balance.

  P_hs  pairs with the non-local coherence  C_nl_hs  (bound 1/2)
  P_vn  pairs with S_vn (plus C_re, here 0)          (bound ln 2)
  P_l1  pairs with the l1 correlated coherence       (bound 2 - 1 = 1)
"""

import math

import numpy as np

from ccrkit import (
    ccr_hs,
    ccr_vn,
    coherence_l1,
    correlated_coherence,
    density_from_pure,
    nonlocal_coherence_hs_direct,
    partial_trace,
    predictability_hs,
    predictability_l1,
    predictability_vn,
    von_neumann_entropy,
)
from ccrkit.states import bipartite_x

print(f"{'x':>5} {'P_hs':>8} {'C_nl_hs':>8} | {'P_vn':>8} {'S_vn':>8} | {'P_l1':>8} {'Cc_l1':>8}")
for x in np.linspace(0, 1, 11):
    rho = density_from_pure(bipartite_x(x))
    reduced = partial_trace(rho, [0])
    p_hs = predictability_hs(reduced).value
    c_nl = nonlocal_coherence_hs_direct(rho, 0).value
    p_vn = predictability_vn(reduced).value
    s_vn = von_neumann_entropy(reduced)
    p_l1 = predictability_l1(reduced).value
    cc_l1 = correlated_coherence(rho, ([0], [1]), coherence_l1)
    print(f"{x:>5.2f} {p_hs:>8.4f} {c_nl:>8.4f} | {p_vn:>8.4f} {s_vn:>8.4f} | {p_l1:>8.4f} {cc_l1:>8.4f}")

print()
print("columns pair up:  P_hs + C_nl_hs = 1/2,  P_vn + S_vn = ln 2 (C_re of the")
print("reduced state is 0 here, it is diagonal),  P_l1 + Cc_l1 = 1.")

x = 0.6
rho = density_from_pure(bipartite_x(x))
print()
print(f"full reports at x = {x}:")
for report in (ccr_hs(rho, 0), ccr_vn(rho, 0)):
    print(
        f"  {report.flavor.value:<18} sum = {report.sum:.12f}  "
        f"bound = {report.bound:.12f}  residual = {report.residual:.2e}"
    )

print()
print("both subsystems carry the same balance; target B at x = 0.6:")
report = ccr_hs(rho, 1)
print(
    f"  P = {report.predictability.value:.6f}, C = {report.local_coherence.value:.6f}, "
    f"C_nl = {report.correlation_term.value:.6f}, residual = {report.residual:.2e}"
)

print()
print("mixing the pairs does NOT close a balance: P_l1 + C_nl_hs ranges over",
      [round(predictability_l1(partial_trace(density_from_pure(bipartite_x(t)), [0])).value
             + nonlocal_coherence_hs_direct(density_from_pure(bipartite_x(t)), 0).value, 4)
       for t in (0.0, 0.5, 1 / math.sqrt(2))])
