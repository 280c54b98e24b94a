"""Pseudo-anomaly synthesis.

Normal latents are mapped to the base-distribution space, perturbed by
reparameterized Gaussian noise (mu + sigma * eps), and mapped back through
the generation direction. No real anomaly data is involved anywhere.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, EmptyInput, NegativeSigma
from .flow import FlowModel
from .seeding import rng_for


# The paper's grid reaches |mu| = 100 with sigma = 5. Ten times that leaves
# room for wider sweeps, while mu + sigma * eps, and the latents a flow
# generates from it, stay many orders of magnitude inside float64.
MAX_NOISE = 1000.0


@dataclass(frozen=True)
class NoiseSpec:
    """Scalar Gaussian noise parameters, broadcast over every latent dimension;
    `mu` and `sigma` are numbers no larger in magnitude than MAX_NOISE."""

    mu: float
    sigma: float
    seed: int

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("sigma", self.sigma)):
            if not isinstance(value, numbers.Real):
                raise BadConfig(f"{name} must be a number, got {value!r}")
            if not abs(value) <= MAX_NOISE:
                raise BadConfig(f"{name} must be finite and at most {MAX_NOISE:g} in "
                                f"magnitude, got {value}")
        if self.sigma < 0:
            raise NegativeSigma(f"sigma must be >= 0, got {self.sigma}")


MAX_RATIO = 100.0


@dataclass(frozen=True)
class SynthesisConfig:
    """`ratio` pseudo-anomalies per normal sample, in (0, MAX_RATIO]; above 1
    oversamples. Synthesis holds all floor(ratio * n) latents at once, so the
    bound keeps its memory within a hundred times the normals' and
    floor(ratio * n) finite."""

    ratio: float = 0.5

    def __post_init__(self):
        if not 0 < self.ratio <= MAX_RATIO:
            raise BadConfig(f"ratio must lie in (0, {MAX_RATIO:g}], got {self.ratio}")


def sample_noise(spec: NoiseSpec, n: int, dim: int = 70) -> np.ndarray:
    """n noise vectors mu + sigma * eps with eps ~ N(0, I), seeded."""
    if n < 0:
        raise BadConfig(f"n must be non-negative, got {n}")
    rng = rng_for(spec.seed, "noise")
    eps = rng.standard_normal((n, dim))
    return spec.mu + spec.sigma * eps


def synthesize(flow: FlowModel, normal_latents: np.ndarray, spec: NoiseSpec,
               cfg: SynthesisConfig = SynthesisConfig()) -> np.ndarray:
    """Pseudo-anomaly latents from floor(ratio * n) normals, chosen without replacement.

    The inputs are never modified; the returned matrix is freshly allocated.
    """
    latents = np.asarray(normal_latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[0] == 0:
        raise EmptyInput("synthesis needs a non-empty [n, dim] latent matrix")
    n = latents.shape[0]
    m = int(np.floor(cfg.ratio * n))
    if m == 0:
        return np.zeros((0, latents.shape[1]))

    select_rng = rng_for(spec.seed, "select")
    if m <= n:
        idx = select_rng.choice(n, size=m, replace=False)
    else:
        # oversampling: every normal floor(m/n) times plus a drawn remainder
        full, extra = divmod(m, n)
        idx = np.concatenate([np.tile(np.arange(n), full),
                              select_rng.choice(n, size=extra, replace=False)])
    chosen = latents[idx]
    c, _ = flow.normalize(chosen)
    noise = sample_noise(spec, m, dim=latents.shape[1])
    return flow.generate(c + noise)
