"""Local genera of binary forms and their exact mass data: Jordan symbols,
the five 2-adic shapes, and local densities checked against automorphism
counts mod p^k.

Run: python demos/03_local_genera_and_masses.py
"""
from qfmass import (
    LocalSquareClass,
    QuadForm,
    aut_density_mod_pk,
    count_SO_mod_p,
    enumerate_local_genera,
    genus_symbol_2,
    jordan_split_odd,
    local_density_inverse,
    representative_form,
    same_genus,
)

f = QuadForm(1, 1, 1)
sym3 = jordan_split_odd(f, 3)
print("x^2 + xy + y^2 at p = 3:", sym3)
print(
    f"  <t> + <3^nu u t> with nu = {sym3.nu}, unit u = {sym3.unit:+d}, tag t = {sym3.tag:+d};"
    f" Hasse label {sym3.label:+d}"
)
sym2 = genus_symbol_2(f)
print("x^2 + xy + y^2 at p = 2:", sym2)
print(f"  shape {sym2.shape} (a function of nu = {sym2.nu}), Hasse label {sym2.label:+d}")

print("\n2x^2 + xy + 3y^2 and its mirror lie in one genus:")
print("  same_genus =", same_genus(QuadForm(2, 1, 3), QuadForm(2, -1, 3)))

print("\nAll local genera with det class 3 * 2^nu at p = 2 (allowed nu skips 1):")
for nu in range(0, 7):
    rows = enumerate_local_genera(LocalSquareClass(2, nu, 3))
    summary = ", ".join(f"{sym.shape} label={sym.label:+d}" for sym in rows) or "none"
    print(f"  nu = {nu}: {len(rows)} genera  [{summary}]")

print("\nInverse local densities are rational; alpha_2 * 1/beta = 4, where alpha_2")
print("counts the X mod 2^k with f o X = f (mod 2^k), divided by 2^k:")
for nu in (0, 2, 3, 5):
    for sym in enumerate_local_genera(LocalSquareClass(2, nu, 3)):
        f = representative_form(sym)
        alpha = aut_density_mod_pk(f, 2, nu + 3)
        print(f"  nu={nu}: f = {tuple(f)}, 1/beta = {local_density_inverse(sym)}, alpha_2 = {alpha}")
        break

print("\nAt a good odd prime, 1/beta = p / |SO(F_p)| (Hensel):")
g = QuadForm(1, 0, 1)
for p in (3, 5, 7):
    n = count_SO_mod_p(g, p)
    sym = jordan_split_odd(g, p)
    print(f"  p={p}: |SO(F_p)| = {n}, 1/beta = {local_density_inverse(sym)} = {p}/{n}")
