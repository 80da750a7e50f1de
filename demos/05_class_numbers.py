"""From exact total masses to the analytic class number formula for
imaginary quadratic fields.

Run: python demos/05_class_numbers.py
"""
from qfmass import (
    class_number,
    dirichlet_check,
    genus_census,
    total_mass_numeric,
)
from qfmass.forms import mu_order

print("Census masses vs the closed formula sqrt(S)/(4 pi) L(1, chi_-S):")
for S in (3, 4, 23, 48):
    res = total_mass_numeric(S, 10**5)
    print(
        f"  S={S}: census = {res['census']},"
        f" formula = {res['rhs']:.10f}, rel err = {res['rel_err']:.2e}"
    )

print("\nClass numbers from the census:")
for D in (-3, -4, -23, -163):
    print(f"  h({D}) = {class_number(D)}")

print("\nDirichlet's formula h = w sqrt(|D|) L(1, chi_D) / (2 pi), L Abel-summed:")
for D in (-3, -4, -15, -23):
    res = dirichlet_check(D, 10**5)
    print(
        f"  D={D}: h = {res['h']}, w = {res['w']},"
        f" predicted = {res['predicted']:.8f}, rel err = {res['rel_err']:.2e}"
    )

print("\nFull automorphism orders: only ambiguous classes reach 2|mu|:")
for D in (-4, -23):
    rep = genus_census(-D)
    auts = [n for g in rep.genera for n in g.aut_orders]
    print(f"  D={D}: classes {[tuple(f) for f in rep.classes]}, aut orders = {auts}, 2|mu| = {2 * mu_order(D)}")

print("\nGenus structure of a multi-genus determinant (S = 48):")
rep = genus_census(48)
for i, g in enumerate(rep.genera):
    print(f"  genus {i}: classes {[tuple(f) for f in g.classes]}, mass {g.mass}")
print("  total:", rep.total_mass)
