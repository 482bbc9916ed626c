"""Graph invariants as partition functions of colouring models over finite
abelian groups, with brute-force oracles cross-checking every identity."""

__version__ = "0.1.0"
