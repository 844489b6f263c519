"""Block-diagonal relation matrices: real scalars plus 2x2 rotation-scale blocks.

A matrix of layout (n_scalars, n_blocks) acts on R^d with
d = n_scalars + 2 * n_blocks.  The first n_scalars diagonal entries are free
reals; each following 2x2 diagonal block is [[a, -b], [b, a]], i.e. the real
representation of the complex number a + bi.  Products and Frobenius norms
therefore reduce to complex multiplication and componentwise sums.  This is
the reference algebra the tests check axiom scoring
(``iterkg.axioms.axiom_residuals``) against; the pipeline does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockDiagMatrix:
    scalars: np.ndarray   # (n_scalars,)
    rotations: np.ndarray  # (n_blocks, 2) rows (a, b)

    def __post_init__(self):
        object.__setattr__(self, "scalars", np.asarray(self.scalars, dtype=np.float64))
        object.__setattr__(self, "rotations", np.asarray(self.rotations, dtype=np.float64).reshape(-1, 2))
        if self.scalars.ndim != 1:
            raise ValueError("scalars must be a 1-d array")

    @property
    def n_scalars(self) -> int:
        return self.scalars.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.rotations.shape[0]

    @property
    def dim(self) -> int:
        return self.n_scalars + 2 * self.n_blocks

    @property
    def layout(self) -> tuple[int, int]:
        return (self.n_scalars, self.n_blocks)

    @classmethod
    def identity(cls, n_scalars: int, n_blocks: int) -> "BlockDiagMatrix":
        rot = np.zeros((n_blocks, 2))
        rot[:, 0] = 1.0
        return cls(np.ones(n_scalars), rot)

    def _check_layout(self, other: "BlockDiagMatrix") -> None:
        if self.layout != other.layout:
            raise ValueError(f"layout mismatch: {self.layout} vs {other.layout}")

    def multiply(self, other: "BlockDiagMatrix") -> "BlockDiagMatrix":
        """Matrix product; blocks compose like complex numbers."""
        self._check_layout(other)
        a1, b1 = self.rotations[:, 0], self.rotations[:, 1]
        a2, b2 = other.rotations[:, 0], other.rotations[:, 1]
        rot = np.stack([a1 * a2 - b1 * b2, a1 * b2 + b1 * a2], axis=1)
        return BlockDiagMatrix(self.scalars * other.scalars, rot)

    def frobenius_diff(self, other: "BlockDiagMatrix") -> float:
        """Frobenius norm of (self - other).

        Each 2x2 block contributes its (a, b) deltas twice, matching the
        dense expansion of [[da, -db], [db, da]].
        """
        self._check_layout(other)
        ds = self.scalars - other.scalars
        dr = self.rotations - other.rotations
        return float(np.sqrt(np.sum(ds * ds) + 2.0 * np.sum(dr * dr)))

    def to_dense(self) -> np.ndarray:
        """Expand to the full d x d matrix (test oracle support)."""
        d = self.dim
        out = np.zeros((d, d))
        ns = self.n_scalars
        out[np.arange(ns), np.arange(ns)] = self.scalars
        for j in range(self.n_blocks):
            a, b = self.rotations[j]
            i = ns + 2 * j
            out[i, i] = a
            out[i, i + 1] = -b
            out[i + 1, i] = b
            out[i + 1, i + 1] = a
        return out
