"""Integer partitions, set partitions and the graded regrouping sign.

Partitions are tuples of parts in weakly decreasing order, enumerated in
lexicographically descending order.  Set partitions of {1..l} are lists of
blocks; the canonical enumeration keeps elements ascending within a block
and orders blocks by their least element.
"""

from __future__ import annotations

from math import factorial


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts decreasing, lexicographically descending."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def grow(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            grow(remaining - part, part, prefix + (part,))

    grow(n, n, ())
    return out


def zaut(mu: tuple[int, ...]) -> int:
    """Symmetry factor: product of the parts times the multiplicity factorials."""
    z = 1
    mult: dict[int, int] = {}
    for m in mu:
        if m < 1:
            raise ValueError("partition parts must be positive")
        z *= m
        mult[m] = mult.get(m, 0) + 1
    for count in mult.values():
        z *= factorial(count)
    return z


def set_partitions(l: int) -> list[list[list[int]]]:
    """All set partitions of {1..l} in canonical order (Bell-many)."""
    if l < 0:
        raise ValueError("cannot partition a negative set")
    parts: list[list[list[int]]] = [[]]
    for element in range(1, l + 1):
        grown: list[list[list[int]]] = []
        for p in parts:
            for k in range(len(p)):
                grown.append([block + [element] if t == k else list(block)
                              for t, block in enumerate(p)])
            grown.append([list(block) for block in p] + [[element]])
        parts = grown
    return parts


def koszul_sign(blocks: list[list[int]], degrees: list[int]) -> int:
    """Sign of regrouping 1..l into the given ordered blocks.

    Only transpositions of two odd-degree elements count.  degrees[k] is
    the degree of element k+1.
    """
    sequence = [e for block in blocks for e in block]
    sign = 1
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] > sequence[j]:
                if degrees[sequence[i] - 1] % 2 and degrees[sequence[j] - 1] % 2:
                    sign = -sign
    return sign
