"""Random auditing: the identities hold on Haar-random states, not just examples.

Three checks on sampled states:
  * the explicit index-partition sum agrees with the reduced linear entropy
    (two independent routes to the same number),
  * the balances close for every target of every sampled pure state,
  * mixed global states leave a strictly positive gap, which purification
    then removes.
"""

import numpy as np

from ccrkit import (
    DensityOperator,
    ccr_hs,
    ccr_inequality_gap,
    ccr_vn,
    density_from_pure,
    linear_entropy,
    nonlocal_coherence_hs_direct,
    partial_trace,
    purify,
)
from ccrkit.states import haar_random_pure, werner_like

SIGNATURES = [(2, 2), (2, 3), (2, 2, 2), (3, 3, 3)]

print("== direct sum vs entropy route on 200 Haar-random states per signature ==")
for dims in SIGNATURES:
    worst = 0.0
    for psi in haar_random_pure(dims, 200, seed=11):
        rho = density_from_pure(psi)
        for target in range(len(dims)):
            direct = nonlocal_coherence_hs_direct(rho, target).value
            entropy = linear_entropy(partial_trace(rho, [target]))  # C_nl = S_l on pure states
            worst = max(worst, abs(direct - entropy))
    print(f"  {dims}: max |direct - entropy| = {worst:.2e}")

print()
print("== balance residuals on the same kind of ensemble ==")
for dims in [(2, 2), (2, 2, 2)]:
    worst_hs = worst_vn = 0.0
    for psi in haar_random_pure(dims, 200, seed=12):
        rho = density_from_pure(psi)
        for target in range(len(dims)):
            worst_hs = max(worst_hs, abs(ccr_hs(rho, target).residual))
            worst_vn = max(worst_vn, abs(ccr_vn(rho, target).residual))
    print(f"  {dims}: max |residual| hs = {worst_hs:.2e}, vn = {worst_vn:.2e}")

print()
print("== mixed global states leave a gap ==")
rng = np.random.default_rng(13)
g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
mixed = g @ g.conj().T
mixed = DensityOperator((2, 2), mixed / np.trace(mixed).real)
print(f"  random rank-2 two-qubit state: gap = {ccr_inequality_gap(mixed, 0):.6f} (> 0)")

print()
print("== purification closes it again ==")
rho = werner_like(0.5, 0.6)
print(f"  single-qubit mixture: gap has no meaning (one subsystem), S_l = {1 - np.vdot(rho.matrix, rho.matrix).real:.4f}")
psi = purify(rho)
print(f"  purified onto signature {psi.signature.dims}")
enlarged = density_from_pure(psi)
print(f"  gap of the purified state, target 0: {ccr_inequality_gap(enlarged, 0):.2e}")
report = ccr_hs(enlarged, 0)
print(f"  its balance: P = {report.predictability.value:.4f}, C = {report.local_coherence.value:.4f}, "
      f"C_nl = {report.correlation_term.value:.4f}, residual = {report.residual:.2e}")
back = partial_trace(enlarged, [0])
print(f"  round-trip error of the reduction: {np.max(np.abs(back.matrix - rho.matrix)):.2e}")
