"""Noise budget of the measurement-based cubic phase gate.

Propagates means and variances of the input, ancilla and squeezed-resource
modes through the gate circuit and splits the output p-noise into the ideal
part, the ancilla part (its nonlinear variance at lam = 1) and the
squeezed-resource part.
"""


import nlsqlab as nl

vac = nl.vacuum(6)
best_coeffs, best = nl.optimize_coefficients(1)
anc_opt = nl.make_superposition(best_coeffs, 6)

print("=== ancilla choices (input vacuum, resource variance 0.05) ===")
for label, anc in [("vacuum ancilla", vac),
                   ("optimized 0/1 ancilla", anc_opt)]:
    report = nl.propagate(vac, anc, sqz_var=0.05, kappa=1.0)
    print(f"{label:24s}: ancilla excess {report.ancilla_excess:.4f}, "
          f"sqz excess {report.sqz_excess:.4f}, Var(p_out) {report.var_p_out:.4f}")

print("\n=== squeezing the resource mode kills its contribution ===")
for sqz_db in (0, -3, -6, -10, -20):
    var = 0.5 * 10 ** (sqz_db / 10)
    report = nl.propagate(vac, anc_opt, sqz_var=var, kappa=1.0)
    print(f"resource squeezing {sqz_db:+4d} dB (Var {var:.5f}): "
          f"sqz excess {report.sqz_excess:.5f}")

print("\n=== what ancilla quality a target budget demands ===")
v_vac, _ = nl.vacuum_optimum(1.0, 3)
for target in (3 * v_vac, v_vac, 1.6, 1.4116):
    db = nl.required_ancilla_db(target)
    print(f"target excess {target:.4f} -> required ancilla NLSQ {db:+.3f} dB")
print(f"(the vacuum/one-photon family bottoms out at {best.db:+.3f} dB)")
