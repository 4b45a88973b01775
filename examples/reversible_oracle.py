#!/usr/bin/env python3
"""Implementing classical reversible functions as qudit circuits (Theorem IV.2).

The example builds two oracles:

* a random 2-variable ternary reversible function, implemented ancilla-free;
* a modular-multiplication permutation ``x -> 3x mod 16`` on two ququarts
  (an invertible map because gcd(3, 16) = 1), implemented with one borrowed
  ancilla — the even-``d`` case of the theorem.

Both circuits are verified exhaustively against the original function, and
their sizes are compared with the ``n·d^n`` bound and the Lemma IV.3 lower
bound.

Run with ``python examples/reversible_oracle.py``.
"""

from __future__ import annotations

from repro import count_gates
from repro.applications import (
    random_reversible_function,
    reversible_lower_bound,
    synthesize_reversible_function,
)
from repro.verify import assert_permutation_equals_function
from repro.utils.indexing import digits_to_index, index_to_digits


def report(name: str, dim: int, n: int, table) -> None:
    result = synthesize_reversible_function(dim, n, table)
    assert_permutation_equals_function(
        result.circuit,
        lambda s: index_to_digits(table[digits_to_index(s, dim)], dim, n),
        list(range(n)),
    )
    counts = count_gates(result, lower=True)
    bound = reversible_lower_bound(dim, n)
    print(f"== {name} (d = {dim}, n = {n}) ==")
    print(f"  verified          : yes (exhaustive over {dim ** n} inputs)")
    print(f"  ancillas          : {result.ancilla_count()} "
          f"({'borrowed' if result.ancilla_count() else 'ancilla-free'})")
    print(f"  G-gates           : {counts.g_gates}")
    print(f"  n·d^n reference   : {n * dim ** n}")
    print(f"  Lemma IV.3 bound  : {bound.min_gates}")
    print()


def main() -> None:
    # A random ternary reversible function on two trits (odd d: ancilla-free).
    ternary = random_reversible_function(3, 2, seed=2023)
    report("random ternary oracle", 3, 2, ternary)

    # Modular multiplication on two ququarts (even d: one borrowed ancilla).
    dim, n = 4, 2
    size = dim**n
    mult = [(3 * x) % size for x in range(size)]
    report("x -> 3·x mod 16", dim, n, mult)

    # A three-trit cycling permutation: x -> x + 5 mod 27.
    dim, n = 3, 3
    size = dim**n
    shift = [(x + 5) % size for x in range(size)]
    report("x -> x + 5 mod 27", dim, n, shift)


if __name__ == "__main__":
    main()
