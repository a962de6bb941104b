"""Nonlinear squeezing basics.

The noise operator of a measurement-based cubic phase gate is
y = lam*p - 3*(x/lam)^2.  A state is nonlinearly squeezed when its optimal
Var(y) beats the best any Gaussian state can do, which is the vacuum's
optimum.  This script walks through the reference values.
"""


import nlsqlab as nl

print("=== vacuum baseline ===")
vac = nl.optimal_nonlinear_variance(nl.vacuum(6))
print(f"optimal variance : {vac.variance_opt:.5f}  (closed form {18**(1/3)/2 + 4.5*18**(-2/3):.5f})")
print(f"optimizing lambda: {vac.lambda_opt:.5f}  (closed form 18^(1/6) = {18**(1/6):.5f})")

print("\n=== single photon: maximal Wigner negativity, worst noise ===")
one = nl.fock_state(1, 6)
res = nl.optimal_nonlinear_variance(one)
w0 = nl.wigner(one, [0.0], [0.0])[0, 0]
print(f"W(0,0) = {w0:+.4f}  (negative)  but ratio = {res.ratio:.3f} -> {res.db:+.2f} dB")

print("\n=== the best vacuum/one-photon superposition ===")
coeffs, best = nl.optimize_coefficients(1)
print(f"coefficients     : {coeffs[0]:.4f}, {coeffs[1]:.4f}")
print(f"|c1|/|c0|        : {abs(coeffs[1])/abs(coeffs[0]):.4f}")
print(f"ratio / dB       : {best.ratio:.4f} / {best.db:+.3f} dB  at lambda {best.lambda_opt:.3f}")

print("\n=== gate strength does not matter for the ratio ===")
state = nl.make_superposition(coeffs, 6)
base = nl.optimal_nonlinear_variance(state, kappa=1.0)
for u in (0.5, 2.0):
    scaled = nl.kappa_rescale(base, u)
    direct = nl.optimal_nonlinear_variance(state, kappa=u ** 3)
    print(f"kappa={u**3:5.3f}: rescaled variance {scaled.variance_opt:.5f} "
          f"(direct {direct.variance_opt:.5f}), ratio {direct.ratio:.6f}")

print("\n=== losses move the optimum ===")
for loss in (0.0, 0.25, 0.5):
    _, res = nl.optimize_coefficients(1, loss=loss)
    print(f"loss {loss:4.2f}: best ratio {res.ratio:.4f} ({res.db:+.3f} dB)")
