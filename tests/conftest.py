"""Shared independent oracles for the test-suite.

The fixed-grid double-exponential quadrature below is deliberately separate
from everything in the package (which evaluates no integral representation),
so agreement with it is a genuine two-route check.
"""

import math

import numpy as np

# Hypothesis mixes literals from the loaded local modules into its draws, so
# a derandomized property draws other examples once another test file has
# imported more of the package.  Loading every module up front makes the
# draws the same whichever tests run, and in whichever order.
import confinedgas.certify  # noqa: F401
import confinedgas.cli  # noqa: F401
import confinedgas.spectral  # noqa: F401
from confinedgas.statfun import HALF, ONE, THREE_HALVES, ZERO, StatKind, eval_h


def de_quad_h(stat: StatKind, sigma: float, z: float, h: float = 0.01,
              t_lo: float = -5.0, t_hi: float = 5.0) -> float:
    """Fixed-grid exp-sinh quadrature of the integral representation.

    (1/Gamma(sigma)) int_0^inf x^(sigma-1)/(e^x/z -+ 1) dx for sigma > 0,
    via x = exp((pi/2) sinh t) on a uniform t grid.  Accuracy ~3e-13 over
    0 < z <= 0.99 (both statistics) and any Fermi z.
    """
    t = np.arange(t_lo, t_hi + h, h)
    x = np.exp(0.5 * np.pi * np.sinh(t))
    w = x * 0.5 * np.pi * np.cosh(t) * h
    keep = (x < 720.0) & (x > 1e-290)
    x, w = x[keep], w[keep]
    expo = x - math.log(z)
    if stat is StatKind.BOSE:
        den = np.exp(expo) - 1.0
    else:
        den = np.exp(expo) + 1.0
    vals = x ** (sigma - 1.0) / den
    return float(np.sum(vals * w)) / math.gamma(sigma)


def de_quad_h_lowered(sigma_target: float, z: float, h: float = 0.01,
                      t_lo: float = -5.0, t_hi: float = 5.0) -> float:
    """Same grid applied to the differentiated Fermi integrand, giving
    h_(sigma_target) = z d/dz h_(sigma_target + 1) for sigma_target <= 0."""
    s = sigma_target + 1.0
    t = np.arange(t_lo, t_hi + h, h)
    x = np.exp(0.5 * np.pi * np.sinh(t))
    w = x * 0.5 * np.pi * np.cosh(t) * h
    keep = (x < 700.0) & (x > 1e-290)
    x, w = x[keep], w[keep]
    expo = x - math.log(z)
    e = np.exp(-np.abs(expo))
    wgt = e / (1.0 + e) ** 2
    vals = x ** (s - 1.0) * wgt
    return float(np.sum(vals * w)) / math.gamma(s)


def richardson(fn, x: float, rels=(1e-4, 1e-5)) -> float:
    """Centred finite difference with two relative steps, Richardson
    combined for the step ratio 10."""
    d = []
    for rel in rels:
        step = rel * abs(x)
        d.append((fn(x + step) - fn(x - step)) / (2.0 * step))
    return (100.0 * d[1] - d[0]) / 99.0


def implied_eta(stat: StatKind, state, dz_dT: float, tube: bool = False) -> float:
    """The paper's eta that a dz/dT at fixed N implies at the state:
    eta2 = -(T/z)(h_0/h_1) dz/dT in the plane and
    eta3 = -(2T/(3z))(h_1/2/h_3/2) dz/dT in a tube."""
    lo, hi, scale = (HALF, THREE_HALVES, 2.0 / 3.0) if tube else (ZERO, ONE, 1.0)
    ratio = eval_h(stat, lo, state.z).value / eval_h(stat, hi, state.z).value
    return -scale * (state.T / state.z) * ratio * dz_dT
