"""Decomposition of the channel triple into parallel beamsplitter branches.

The singular values of each channel matrix give its per-branch power
transmissivities (their squares); the singular vectors are never needed.
Branch i pairs the i-th strongest singular value of each of the three
channels; the RIS common phase and the derived complex coefficients of the
reflected path are attached per branch.  The branches of a scenario travel
as one ``BranchSet`` of arrays; ``BranchParams`` is one branch of it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channel import ChannelTriple, RisGeometry

RANK_CUTOFF = 1e-12  # relative to the largest singular value


@dataclass(frozen=True)
class SvdBundle:
    """Singular-value record of one channel matrix."""

    betas: np.ndarray  # squared singular values above the cutoff; rank = len(betas)


@dataclass(frozen=True)
class BranchParams:
    """Scalar model of one parallel branch.

    ``alpha`` and ``gamma`` are the signal and probe coefficients of the
    reflected path at the receiver; ``beta_f_tilde`` is the probe coefficient
    of the eavesdropper tap on the RIS-to-receiver hop.
    """

    beta_d: float
    beta_g: float
    beta_f: float
    phi: float
    alpha: complex
    gamma: complex
    beta_f_tilde: complex
    branch_index: int = 1


@dataclass(frozen=True, eq=False)
class BranchSet:
    """Parallel branches as arrays, one entry per branch in branch order.

    ``betas`` holds the (d, g, f) transmissivities as an (r, 3) array; the
    other fields hold the common phase, the derived coefficients of
    ``BranchParams`` and the branch numbers as length-r arrays.  The arrays
    are not to be changed after construction.
    """

    betas: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    beta_f_tilde: np.ndarray
    index: np.ndarray

    beta_d = property(lambda self: self.betas[:, 0])
    beta_g = property(lambda self: self.betas[:, 1])
    beta_f = property(lambda self: self.betas[:, 2])

    def __len__(self) -> int:
        return len(self.betas)

    def __getitem__(self, i: int) -> BranchParams:
        beta_d, beta_g, beta_f = self.betas[i].tolist()
        return BranchParams(beta_d=beta_d, beta_g=beta_g, beta_f=beta_f,
                            phi=float(self.phi[i]), alpha=complex(self.alpha[i]),
                            gamma=complex(self.gamma[i]),
                            beta_f_tilde=complex(self.beta_f_tilde[i]),
                            branch_index=int(self.index[i]))

    @classmethod
    def of(cls, branches) -> "BranchSet":
        """The given branches as a set, their coefficients taken as they are."""
        if isinstance(branches, cls):
            return branches
        columns = [[b.beta_d, b.beta_g, b.beta_f, b.phi, b.alpha, b.gamma,
                    b.beta_f_tilde, b.branch_index] for b in branches]
        d, g, f, phi, alpha, gamma, tilde, index = zip(*columns) if columns else [()] * 8
        return cls(betas=np.array([d, g, f], dtype=float).T, phi=np.array(phi, dtype=float),
                   alpha=np.array(alpha, dtype=complex), gamma=np.array(gamma, dtype=complex),
                   beta_f_tilde=np.array(tilde, dtype=complex),
                   index=np.array(index, dtype=np.int64))

    @classmethod
    def join(cls, sets) -> "BranchSet":
        """Several branch sets as one, in order."""
        return cls(*(np.concatenate([getattr(s, f.name) for s in sets])
                     for f in fields(cls)))


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def branch_set(betas, phi, index=None) -> BranchSet:
    """Branches from an (r, 3) array of (d, g, f) transmissivities, each in
    [0, 1], and the common phase (a scalar or one value per branch).

    The reflected-path coefficients are written out in real and imaginary
    parts, the way Python's complex arithmetic forms them, so every entry
    equals its one-branch ``make_branch`` value bit for bit.
    """
    betas = np.asarray(betas, dtype=float).reshape(-1, 3)
    outside = ~((betas >= 0.0) & (betas <= 1.0))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ValueError(f"{('beta_d', 'beta_g', 'beta_f')[j]}={betas[i, j]} outside [0, 1]")
    phi = np.full(len(betas), phi, dtype=float)
    beta_d, beta_g, beta_f = betas.T
    cos, sin = np.cos(phi), np.sin(phi)  # cmath.exp(1j * phi), part by part
    root = np.sqrt(beta_g * beta_f)
    cross = np.sqrt(beta_f * (1.0 - beta_g))
    leak = np.sqrt((1.0 - beta_g) * (1.0 - beta_f))
    return BranchSet(betas=betas, phi=phi,
                     alpha=_complex(root * cos, root * sin),
                     gamma=_complex(np.sqrt(1.0 - beta_f) + cross * cos, cross * sin),
                     beta_f_tilde=_complex(np.sqrt(beta_f) - leak * cos, 0.0 - leak * sin),
                     index=(np.arange(1, len(betas) + 1) if index is None
                            else np.full(len(betas), index, dtype=np.int64)))


def make_branch(beta_d: float, beta_g: float, beta_f: float, phi: float,
                index: int = 1) -> BranchParams:
    """Build a branch record from raw transmissivities and the common phase."""
    return branch_set([(float(beta_d), float(beta_g), float(beta_f))], float(phi), index)[0]


def singular_values(stack) -> list[SvdBundle]:
    """One bundle per matrix of a (P, n, m) stack: its squared singular
    values above ``RANK_CUTOFF`` times its largest, sorted descending."""
    try:
        sv = np.linalg.svd(np.asarray(stack, dtype=complex), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"SVD did not converge: {exc}") from exc
    kept = sv > RANK_CUTOFF * sv.max(axis=-1, keepdims=True, initial=0.0)  # sorted: prefixes
    return [SvdBundle(betas=np.square(s[k])) for s, k in zip(sv, kept)]


def decompose(t: ChannelTriple) -> tuple[SvdBundle, SvdBundle, SvdBundle]:
    """Singular values of all three channels, sorted descending."""
    return tuple(singular_values(h[None])[0] for h in (t.h_d, t.h_g, t.h_f))


def branch_params(bundles: tuple[SvdBundle, SvdBundle, SvdBundle],
                  ris: RisGeometry) -> tuple[BranchSet, int]:
    """Pair the branches of the three channels and derive per-branch coefficients.

    The branch count is the smallest rank, ``len(betas)``, among the three channels.
    Transmissivities above 1 (possible at short range with large array gains)
    are clamped to 1, and the number of values clamped by more than 1e-12 is
    returned.

    Returns (branches, clamp_count).
    """
    r = min(len(b.betas) for b in bundles)
    betas = np.stack([b.betas[:r] for b in bundles], axis=1)  # (r, 3): d, g, f
    clamped = int(np.count_nonzero(betas > 1.0 + 1e-12))
    return branch_set(np.minimum(betas, 1.0), ris.common_phase), clamped
