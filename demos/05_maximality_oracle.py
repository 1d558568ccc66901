"""Maximality certificates by bracket closure.

The certificate adjoins one complement direction at a time to the embedded
so(p,q) and closes under brackets, starting from the already-closed so(p,q)
basis; maximality means every direction regenerates everything.  The classical counterexample - so(2,1) sitting as
one ideal of so(2,2) - produces an explicit intermediate subalgebra witness.
"""

from liepq import (
    adjoint_rep,
    centralizer,
    deformed_algebra,
    is_irreducible,
    is_maximal_subalgebra,
    rat,
    so_pq_algebra,
)

for (p, q, c) in [(2, 1, "1"), (2, 1, "-1"), (3, 1, "2"), (2, 2, "1/2"), (3, 3, "-1")]:
    dalg = deformed_algebra(p, q, rat(c))
    sub = dalg.so_block_subspace()
    maximal, _ = is_maximal_subalgebra(dalg.algebra, sub)
    cent = centralizer(dalg.algebra, sub)
    print(f"so({p},{q}) inside the c = {c:>4} deformation: "
          f"maximal = {maximal}, centralizer dim = {cent.dim}")
print()

so22 = so_pq_algebra(2, 2)
ideal = is_irreducible(adjoint_rep(so22)).witness
print("so(2,2) = so(2,1) x so(2,1); one simple ideal found from the adjoint:")
for row in ideal.basis_rows():
    print("   ", [str(x) for x in row])
maximal, witness = is_maximal_subalgebra(so22, ideal)
print(f"ideal maximal in so(2,2)? {maximal}")
print(f"intermediate witness subalgebra of dimension {witness.dim} "
      f"(strictly between 3 and 6)")
