"""Structural layer of the descendent correspondence.

The matrix coefficients relating the two descendent theories are not
known in closed form; what is known is exactly their support: the
coefficient attached to a source partition alpha and target partition
alpha_hat vanishes unless |alpha_hat| <= |alpha| and a homogeneity number
is nonnegative.  Both tests read only |alpha|, len(alpha), |alpha_hat|
and len(alpha_hat), so the support of a block depends only on its size
and length.  This module implements the coefficients as opaque
symbols carrying those constraints, the set-partition expansion of a
product of insertions with its sign rule, the leading term of that
expansion, and the parity/reality test that mirrors the functional
equation on the u side (the variable change from the box-counting
variable q to the angle variable u is laurent.u_expand).

No numeric coefficient values appear anywhere: expansions are lists of
symbolic terms, and the u-side series are computed only from the stored
q-side rational functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .laurent import LaurentSeries
from .partitions import koszul_sign, partitions_of, set_partitions

Partition = tuple


def _validate_partition(parts, what: str) -> tuple:
    parts = tuple(parts)
    if any(type(p) is not int for p in parts):   # bool is refused too
        raise ValueError(f"{what} parts must be integers")
    if not parts:
        raise ValueError(f"{what} must be a nonempty partition")
    if any(p < 1 for p in parts) or list(parts) != sorted(parts,
                                                          reverse=True):
        raise ValueError(f"{what} parts must be positive and descending")
    return parts


def _homogeneity(size: int, length: int, hat_size: int,
                 hat_length: int) -> int:
    """|alpha| + len(alpha) - |alpha_hat| - len(alpha_hat)
    - 3*(len(alpha) - 1), from the sizes and lengths alone."""
    return size + length - hat_size - hat_length - 3 * (length - 1)


def _vanishes(size: int, length: int, hat_size: int,
              hat_length: int) -> bool:
    """Is the symbol of a source of this size and length and a target of
    this size and length forced to vanish?"""
    return (hat_size > size
            or _homogeneity(size, length, hat_size, hat_length) < 0)


def _block_targets(size: int, length: int) -> list[tuple]:
    """Every target partition whose symbol does not vanish for a source
    block of the given size and length, in increasing target size.

    The vanishing test only gets stricter as the target grows, so the
    sizes stop at the first one where even a one-part target vanishes."""
    targets = []
    for hat_size in range(1, size + 1):
        if _vanishes(size, length, hat_size, 1):
            break
        targets.extend(hat for hat in partitions_of(hat_size)
                       if not _vanishes(size, length, hat_size, len(hat)))
    return targets


def _k_symbol(alpha: Partition, alpha_hat: Partition) -> str:
    a = ",".join(str(p) for p in alpha)
    ah = ",".join(str(p) for p in alpha_hat)
    return f"K{{({a})->({ah})}}"


@dataclass(frozen=True)
class KCoefficient:
    """Opaque correspondence-matrix symbol for a (source, target) pair.

    Carries only the structural facts: the symbol is zero when the
    target size exceeds the source size or when the homogeneity number
    |alpha| + len(alpha) - |alpha_hat| - len(alpha_hat)
    - 3*(len(alpha) - 1) is negative; otherwise its value is unknown and
    it is handled purely symbolically.
    """

    alpha: Partition
    alpha_hat: Partition

    def __post_init__(self):
        object.__setattr__(self, "alpha",
                           _validate_partition(self.alpha, "alpha"))
        object.__setattr__(self, "alpha_hat",
                           _validate_partition(self.alpha_hat, "alpha_hat"))

    @property
    def homogeneity(self) -> int:
        a, ah = self.alpha, self.alpha_hat
        return _homogeneity(sum(a), len(a), sum(ah), len(ah))

    @property
    def is_zero(self) -> bool:
        a, ah = self.alpha, self.alpha_hat
        return _vanishes(sum(a), len(a), sum(ah), len(ah))

    def __str__(self):
        return _k_symbol(self.alpha, self.alpha_hat)


class CorrespondenceTerm(NamedTuple):
    """One signed term of a set-partition expansion.

    blocks: the set partition, each block a tuple of 1-based insertion
    indices; targets: the chosen target partition for each block, aligned
    with blocks; sign: the koszul sign of the block ordering against the
    insertion degrees; iu_exponent: set only on leading terms, the power
    of (i*u) scaling the term.
    """

    blocks: tuple
    targets: tuple
    sign: int
    iu_exponent: int | None = None

    def coefficients(self, alpha: Partition) -> list[KCoefficient]:
        """The symbolic coefficient attached to each block."""
        return [KCoefficient(tuple(alpha[i - 1] for i in block), target)
                for block, target in zip(self.blocks, self.targets)]


def expand_bar(alpha: Partition, degrees=None) -> list[CorrespondenceTerm]:
    """All structurally nonzero terms of the expansion of the insertion
    product labeled by alpha.

    Enumerates every set partition of the insertion slots and, per block,
    every target partition alpha_hat with 1 <= |alpha_hat| <= |alpha_S|
    whose symbol is not forced to vanish; each term carries the koszul
    sign of its block ordering against the mod-2 insertion degrees
    (all even when degrees is omitted).  Deterministic order.

    Whether a symbol vanishes depends only on the block's size |alpha_S|
    and length, so each call lists the targets once per (size, length)
    and drops a set partition at its first block with no target, before
    building its blocks or its sign.
    """
    alpha = _validate_partition(alpha, "alpha")
    if degrees is None:
        degrees = [0] * len(alpha)
    if len(degrees) != len(alpha):
        raise ValueError("need one mod-2 degree per part of alpha")
    degrees = [d % 2 for d in degrees]
    targets_of: dict[tuple[int, int], list[tuple]] = {}
    terms = []
    for blocks in set_partitions(len(alpha)):
        choices = []
        for block in blocks:
            shape = (sum(alpha[i - 1] for i in block), len(block))
            targets = targets_of.get(shape)
            if targets is None:
                targets = targets_of[shape] = _block_targets(*shape)
            if not targets:
                break
            choices.append(targets)
        else:
            blocks = tuple(tuple(b) for b in blocks)
            sign = koszul_sign(blocks, degrees)
            for targets in product(*choices):
                terms.append(CorrespondenceTerm(blocks, targets, sign))
    terms.sort(key=lambda t: (t.blocks, t.targets))
    return terms


def leading_term(alpha: Partition) -> CorrespondenceTerm:
    """The distinguished term: all blocks singletons, each target equal
    to its source part, scaled by (i*u)**(len(alpha) - |alpha|)."""
    alpha = _validate_partition(alpha, "alpha")
    blocks = tuple((i,) for i in range(1, len(alpha) + 1))
    targets = tuple((p,) for p in alpha)
    return CorrespondenceTerm(blocks, targets, 1,
                              iu_exponent=len(alpha) - sum(alpha))


def _format_term(term: CorrespondenceTerm, alpha: Partition) -> str:
    # alpha must already be validated; the symbols are printed without
    # building a KCoefficient per block
    body = "*".join(_k_symbol(tuple(alpha[i - 1] for i in block), target)
                    for block, target in zip(term.blocks, term.targets))
    if term.iu_exponent is not None and term.iu_exponent != 0:
        body = f"(iu)^{term.iu_exponent} {body}"
    prefix = "-" if term.sign < 0 else "+"
    return f"{prefix} {body}"


def format_term(term: CorrespondenceTerm, alpha: Partition) -> str:
    return _format_term(term, _validate_partition(alpha, "alpha"))


def format_expansion(alpha: Partition, terms=None) -> str:
    """Readable one-term-per-line rendering of an expansion; alpha is
    validated once, not once per term."""
    alpha = _validate_partition(alpha, "alpha")
    if terms is None:
        terms = expand_bar(alpha)
    return "\n".join(_format_term(t, alpha) for t in terms)


def parity_reality_check(S: LaurentSeries, sign: int) -> bool:
    """Does the u-series have the parity and reality forced by a
    functional equation with the given sign?

    sign +1: S(-u) == S and all coefficients real (even series, real);
    sign -1: S(-u) == -S and all coefficients purely imaginary.  Both
    conditions are S(-u) == sign*S and conj(S) == sign*S.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    target = S if sign == 1 else -S
    return S.substitute_negated() == target and S.conjugate() == target
