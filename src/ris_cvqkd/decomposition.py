"""Decomposition of the channel triple into parallel beamsplitter branches.

The singular values of each channel matrix give its per-branch power
transmissivities (their squares); the singular vectors are never needed.
Branch i pairs the i-th strongest singular value of each of the three
channels; the RIS common phase and the derived complex coefficients of the
reflected path are attached per branch.  One type, ``BranchSet``, carries
branches: its fields are scalars for one branch and arrays for many.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .channel import ChannelTriple, RisGeometry

RANK_CUTOFF = 1e-12  # relative to the largest singular value


@dataclass(frozen=True)
class SvdBundle:
    """Singular-value record of one channel matrix."""

    betas: np.ndarray  # squared singular values above the cutoff; rank = len(betas)


@dataclass(frozen=True)
class SvdStack:
    """Singular-value record of a stack of P channel matrices: row p of the
    (P, k) ``values`` holds matrix p's squared singular values, sorted
    descending, of which the first ``ranks[p]`` lie above the cutoff.
    Item p is matrix p's bundle."""

    values: np.ndarray
    ranks: np.ndarray

    def __getitem__(self, p: int) -> SvdBundle:
        return SvdBundle(betas=self.values[p, :self.ranks[p]])


@dataclass(frozen=True, eq=False)
class BranchSet:
    """Parallel branches: each field is a Python scalar for one branch, or an
    array with one entry per branch in branch order (not to be changed).

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
    _DTYPES = (np.float64,) * 4 + (np.complex128,) * 3  # of the fields

    @functools.cached_property
    def betas(self) -> np.ndarray:
        """The (d, g, f) transmissivities as an (r, 3) array."""
        return np.stack([self.beta_d, self.beta_g, self.beta_f], axis=1)

    def __len__(self) -> int:
        return len(self.beta_d)

    def __getitem__(self, i: int) -> BranchSet:
        return BranchSet(*(getattr(self, f.name)[i].item() for f in fields(self)))

    @classmethod
    def of(cls, branches) -> BranchSet:
        """A set, or a sequence of sets of one branch or many, as one set of
        arrays in order; an array set given alone is returned as it is."""
        sets = [branches] if isinstance(branches, cls) else list(branches)
        if len(sets) == 1 and np.ndim(sets[0].beta_d):
            return sets[0]
        return cls(*(np.concatenate([np.atleast_1d(getattr(s, f.name)) for s in sets]
                                    or [np.empty(0, dtype)], dtype=dtype)
                     for f, dtype in zip(fields(cls), cls._DTYPES)))


BranchParams = BranchSet  # bench/reference.py builds its one-branch records under this name


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def branch_set(betas, phi) -> BranchSet:
    """Branch i from row i of an (r, 3) array of (d, g, f) transmissivities,
    each in [0, 1], and the common phase (a scalar or one value per branch).

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
    return BranchSet(beta_d, beta_g, beta_f, phi,
                     alpha=_complex(root * cos, root * sin),
                     gamma=_complex(np.sqrt(1.0 - beta_f) + cross * cos, cross * sin),
                     beta_f_tilde=_complex(np.sqrt(beta_f) - leak * cos, 0.0 - leak * sin))


def make_branch(beta_d: float, beta_g: float, beta_f: float, phi: float) -> BranchSet:
    """One branch, in Python scalars, from raw transmissivities and the common phase."""
    return branch_set([(float(beta_d), float(beta_g), float(beta_f))], float(phi))[0]


def singular_values(stack) -> SvdStack:
    """The squared singular values of each matrix of a (P, n, m) stack,
    sorted descending, each matrix's rank counted above ``RANK_CUTOFF``
    times its largest."""
    try:
        sv = np.linalg.svd(np.asarray(stack, dtype=complex), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"SVD did not converge: {exc}") from exc
    kept = sv > RANK_CUTOFF * sv.max(axis=-1, keepdims=True, initial=0.0)  # sorted: prefixes
    return SvdStack(np.square(sv), np.count_nonzero(kept, axis=-1))


def decompose(t: ChannelTriple) -> tuple[SvdBundle, SvdBundle, SvdBundle]:
    """Singular values of all three channels, sorted descending."""
    return tuple(singular_values(h[None])[0] for h in (t.h_d, t.h_g, t.h_f))


def pair_points(stacks, phi) -> tuple[BranchSet, list[int], list[int]]:
    """Pair the branches of P points at once from the ``SvdStack`` of each
    of the (d, g, f) channels.

    A point's branch count r is the smallest of its three channels' ranks,
    and its branch i, the point's i-th record, pairs the i-th strongest value
    of each channel.  Transmissivities above 1 (possible at short range with
    large array gains) are clamped to 1, and a point counts its values
    clamped by more than 1e-12.

    Returns (the branches joined in point order, the branch count per
    point, the clamp count per point).
    """
    counts = np.min([s.ranks for s in stacks], axis=0)
    paired = [np.arange(s.values.shape[1]) < counts[:, None] for s in stacks]
    betas = np.stack([s.values[m] for s, m in zip(stacks, paired)], axis=1)  # d, g, f
    clamped = sum(np.count_nonzero((s.values > 1.0 + 1e-12) & m, axis=1)
                  for s, m in zip(stacks, paired))
    return branch_set(np.minimum(betas, 1.0), phi), counts.tolist(), clamped.tolist()


def branch_params(bundles: tuple[SvdBundle, SvdBundle, SvdBundle],
                  ris: RisGeometry) -> tuple[BranchSet, int]:
    """The branches of one point's (d, g, f) bundles at the RIS common phase,
    paired by ``pair_points``, and the point's clamp count."""
    branches, _, (clamped,) = pair_points(
        [SvdStack(b.betas[None], np.array([len(b.betas)])) for b in bundles], ris.common_phase)
    return branches, clamped
