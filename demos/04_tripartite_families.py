"""Tripartite worked examples: GHZ, W, and two lambda-parameterized families.

Four stories:
  * GHZ: the non-local coherence is the same for every target and equals
    half the tangle, 2 |a000|^2 |a111|^2.
  * W:   a subsystem's correlation term splits into pairwise correlated
    coherences with the other two parties; the l1 pairing does NOT close.
  * five-term family: satisfies the off-diagonal conditions, so its
    correlated coherence decomposes cleanly and the balance is 1/2.
  * four-term family with phases: violates those conditions, yet the
    balance still closes at 1/2 (the direct sum keeps a phase cross-term).
"""

import numpy as np

from ccrkit import (
    ccr_hs,
    coherence_hs,
    coherence_l1,
    correlated_coherence,
    nonlocal_coherence_hs_direct,
    partial_trace,
    predictability_hs,
    predictability_l1,
    satisfies_offdiag_conditions,
)
from ccrkit.states import acin, five_term, ghz, w_state

print("== GHZ family ==")
for t in (0.3, 0.6, 1 / np.sqrt(2)):
    psi = ghz(t, np.sqrt(1 - t * t))
    values = [nonlocal_coherence_hs_direct(psi, target).value for target in range(3)]
    print(f"  a000 = {t:.4f}: C_nl per target = {[round(v, 6) for v in values]}, "
          f"2|a000 a111|^2 = {2 * t * t * (1 - t * t):.6f}")

print()
print("== W family ==")
print(f"{'p':>5} {'P_hs':>8} {'Cc_hs(A,B)':>11} {'Cc_hs(A,C)':>11} {'sum':>8} | {'P_l1 + Cc_l1':>13}")
for p in np.linspace(0, 1, 6):
    psi = w_state(p)
    reduced = partial_trace(psi, [0])
    pairs = []
    for other in (1, 2):
        pair = partial_trace(psi, [0, other])
        pairs.append(correlated_coherence(pair, ([0], [1]), coherence_hs))
    p_hs = predictability_hs(reduced).value
    l1_total = predictability_l1(reduced).value + correlated_coherence(
        psi, ([0], [1, 2]), coherence_l1
    )
    print(f"{p:>5.2f} {p_hs:>8.4f} {pairs[0]:>11.4f} {pairs[1]:>11.4f} "
          f"{p_hs + sum(pairs):>8.4f} | {l1_total:>13.4f}")
print("  the hs column closes at 1/2 for every p; the l1 column drifts, so that")
print("  pairing is not a balance on this family.")

print()
print("== five-term family ==")
rng = np.random.default_rng(8)
psi = five_term(*rng.standard_normal(5))
print("  off-diagonal conditions on A|BC:", satisfies_offdiag_conditions(psi, ([0], [1, 2])))
report = ccr_hs(psi, 0)
print(f"  P = {report.predictability.value:.6f}  C = {report.local_coherence.value:.6f}  "
      f"C_nl = {report.correlation_term.value:.6f}  sum = {report.sum:.12f}")
decomposed = correlated_coherence(psi, ([0], [1, 2]), coherence_hs)
print(f"  Cc_hs(A | BC) = {decomposed:.6f} equals C_nl here")

print()
print("== four-term family with phases ==")
lam = np.array([0.5 + 0.1j, 0.45 - 0.2j, 0.55 + 0.05j, 0.4 + 0.3j])
psi = acin(*lam)
print("  off-diagonal conditions on A|BC:", satisfies_offdiag_conditions(psi, ([0], [1, 2])))
reduced = partial_trace(psi, [0])
nl = nonlocal_coherence_hs_direct(psi, 0).value
cc = correlated_coherence(psi, ([0], [1, 2]), coherence_hs)
print(f"  C_nl = {nl:.6f} but Cc_hs(A | BC) = {cc:.6f}: they differ when the conditions fail")
total = predictability_hs(reduced).value + coherence_hs(reduced).value + nl
print(f"  the balance still closes: P + C + C_nl = {total:.12f}")
