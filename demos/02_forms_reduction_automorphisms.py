"""Binary quadratic forms: Gauss reduction, automorphism groups, and the
exhaustive class enumeration everything else is checked against.

Run: python demos/02_forms_reduction_automorphisms.py
"""
from qfmass import (
    QuadForm,
    automorphism_count,
    det_hessian,
    enumerate_classes,
    improper_classes,
    proper_automorphism_count,
    reduce_binary,
)

f = QuadForm(1, 3, 3)
print(f"reduce x^2 + 3xy + 3y^2  ->  {tuple(reduce_binary(f))}   (det stays {det_hessian(f)})")

print("\nAutomorphism groups (full / proper = determinant +1 only):")
for abc in [(1, 1, 1), (1, 0, 1), (2, 1, 3), (1, 1, 6)]:
    g = QuadForm(*abc)
    print(f"  {abc}: |Aut| = {automorphism_count(g):2d}   |Aut+| = {proper_automorphism_count(g)}")
print("  note (1,1,6): (x, y) -> (x+y, -y) is an improper automorphism, so |Aut| = 4")

print("\nAll proper classes of determinant 23 (= 4ac - b^2):")
for g in enumerate_classes(23):
    print("  ", tuple(g))

print("\nGrouped into GL_2(Z)-classes (mirrors identified):")
for group in improper_classes(23):
    print("  ", [tuple(h) for h in group])

print("\nDeterminants 1 and 2 mod 4 carry no forms at all:")
print("  det 9 ->", enumerate_classes(9), "   det 14 ->", enumerate_classes(14))
