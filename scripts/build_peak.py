#!/usr/bin/env python3
"""Measure the memory of a coherent sweep cell's set-up on a 3-site lattice.

For each particle number n the cell is ``ModeSystem.lattice(3)`` on
``truncated(_poisson_cutoff(n))``, the basis a coherent sweep builds.  With
the basis already enumerated, tracemalloc follows ``build_hamiltonian`` and
then ``make_plan`` on its result; the plan's peak counts the Hamiltonian it
reads, so the larger of the two peaks is the set-up's.  Each line gives the
basis dimension, H's stored entries, the bytes of H's CSR arrays (data,
indices and indptr) in MB, both peaks in MB and both peaks over the CSR.

    PYTHONPATH=src python scripts/build_peak.py 24 48 96
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from focklab import ModeSystem, build_hamiltonian, enumerate_basis, make_plan, truncated  # noqa: E402
from focklab.states import _poisson_cutoff  # noqa: E402

MB = 1e6


def measure(n):
    """(dim, nnz, csr bytes, build peak bytes, plan peak bytes) of the cell at n."""
    basis = enumerate_basis(3, truncated(_poisson_cutoff(n)))
    tracemalloc.start()
    try:
        H = build_hamiltonian(ModeSystem.lattice(3), n, basis)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        make_plan(H)
        plan = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = H.matrix
    return basis.dim, A.nnz, A.data.nbytes + A.indices.nbytes + A.indptr.nbytes, build, plan


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, nargs="+", help="particle numbers")
    args = ap.parse_args()
    print("n dim nnz csr_mb build_mb plan_mb build_ratio plan_ratio")
    for n in args.n:
        dim, nnz, csr, build, plan = measure(n)
        print(f"{n} {dim} {nnz} {csr / MB:.1f} {build / MB:.1f} {plan / MB:.1f} "
              f"{build / csr:.2f} {plan / csr:.2f}")


if __name__ == "__main__":
    main()
