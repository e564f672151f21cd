"""Decomposition of the channel triple into parallel beamsplitter branches.

The singular values of each channel matrix give its per-branch power
transmissivities (their squares); the singular vectors are never needed.
Branch i pairs the i-th strongest singular value of each of the three
channels; the RIS common phase and the derived complex coefficients of the
reflected path are attached per branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


def make_branch(beta_d: float, beta_g: float, beta_f: float, phi: float,
                index: int = 1) -> BranchParams:
    """Build a branch record from raw transmissivities and the common phase."""
    beta_d, beta_g, beta_f, phi = float(beta_d), float(beta_g), float(beta_f), float(phi)
    for name, b in (("beta_d", beta_d), ("beta_g", beta_g), ("beta_f", beta_f)):
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"{name}={b} outside [0, 1]")
    rot = cmath.exp(1j * phi)
    alpha = math.sqrt(beta_g * beta_f) * rot
    gamma = math.sqrt(1.0 - beta_f) + math.sqrt(beta_f * (1.0 - beta_g)) * rot
    beta_f_tilde = math.sqrt(beta_f) - math.sqrt((1.0 - beta_g) * (1.0 - beta_f)) * rot
    return BranchParams(beta_d=beta_d, beta_g=beta_g, beta_f=beta_f, phi=phi,
                        alpha=alpha, gamma=gamma, beta_f_tilde=beta_f_tilde,
                        branch_index=index)


def _decompose_one(h: np.ndarray) -> SvdBundle:
    # the reduced SVD, not compute_uv=False: the values-only LAPACK driver
    # moves singular values by a few ulp of the largest one
    try:
        _, sv, _ = np.linalg.svd(np.asarray(h, dtype=complex), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"SVD did not converge: {exc}") from exc
    kept = sv > RANK_CUTOFF * sv.max(initial=0.0)  # a prefix: sv is sorted descending
    return SvdBundle(betas=np.square(sv[kept]))


def decompose(t: ChannelTriple) -> tuple[SvdBundle, SvdBundle, SvdBundle]:
    """Singular values of all three channels, sorted descending."""
    return _decompose_one(t.h_d), _decompose_one(t.h_g), _decompose_one(t.h_f)


def branch_params(bundles: tuple[SvdBundle, SvdBundle, SvdBundle],
                  ris: RisGeometry) -> tuple[list[BranchParams], int]:
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
    branches = [make_branch(beta_d, beta_g, beta_f, ris.common_phase, index=i + 1)
                for i, (beta_d, beta_g, beta_f) in enumerate(np.minimum(betas, 1.0))]
    return branches, clamped
