"""Reference values for the benchmark checks, derived from mpmath.

Nothing here imports ``confinedgas``.  ``mpmath.polylog`` itself costs
5-50 ms per call on this kind of input (it re-evaluates ``zeta(s - k)`` for
every term), which is far more than one benchmark operation, so the two
representations mpmath uses inside ``polylog`` are evaluated here with their
coefficients computed once by mpmath at 40 digits:

* Robinson's expansion ``Li_s(e^u) = Gamma(1-s) (-u)^(s-1)
  + sum_k zeta(s-k) u^k / k!``, whose terms fall by ``|u|/2pi`` per step:
  for Bose ``z`` above 1/2 (``u = ln z``) and for Fermi ``z`` in
  (0.9, 20] (``u = ln z + i pi``);
* the inversion formula ``Li_s(-e^m) = Gamma(v)/(2pi)^v *
  2 Re[i^v zeta(v, 1/2 - i m/2pi)]`` with ``v = 1 - s`` for Fermi ``z``
  above 20, with the Hurwitz zeta summed by Euler-Maclaurin;
* the defining power series below those thresholds.

Sums run in double precision, and every value comes with an error estimate
(a multiple of the rounding error of the largest summed term).  Where that
estimate exceeds 1e-12 of the value (the Euler-Maclaurin sum cancels for
sigma = 5/2), the same sum is redone in mpmath at 30 digits.
``selftest.py`` compares all of it against ``mpmath.polylog`` at 30 digits.
The integer order 2 uses the series with the reflection
``Li_2(z) = pi^2/6 - ln z ln(1-z) - Li_2(1-z)`` and the inversion
``Li_2(-z) = -pi^2/6 - ln^2(z)/2 - Li_2(-1/z)``; orders 1, 0 and -1 use
mpmath's closed forms.
"""

from __future__ import annotations

import functools
import math

import mpmath

_EPS = 2.220446049250313e-16
_ROBINSON_TERMS = 160
_EM_SHIFT = 8
_EM_TERMS = 16
_BOSE_SERIES_MAX = 0.5
_FERMI_SERIES_MAX = 0.9
_FERMI_ROBINSON_MAX = 20.0
_MAX_REL_ESTIMATE = 1e-12

HALF_INTEGER_ORDERS = (-1, 1, 3, 5)  # twice sigma
ALL_ORDERS = (-2, -1, 0, 1, 2, 3, 4, 5)


class _Tables:
    """Per-order coefficients, computed once at 40 digits."""

    def __init__(self):
        with mpmath.workdps(40):
            self.robinson = {}
            self.gamma_1ms = {}
            self.em = {}
            self.em_mp = {}
            self.inversion = {}
            self.inversion_mp = {}
            for twice in HALF_INTEGER_ORDERS:
                s = mpmath.mpf(twice) / 2
                self.robinson[twice] = [
                    float(mpmath.zeta(s - k) / mpmath.factorial(k))
                    for k in range(_ROBINSON_TERMS)
                ]
                self.gamma_1ms[twice] = float(mpmath.gamma(1 - s))
                v = 1 - s
                self.em_mp[twice] = [
                    mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.rf(v, 2 * k - 1)
                    for k in range(1, _EM_TERMS + 1)
                ]
                self.em[twice] = [float(c) for c in self.em_mp[twice]]
                self.inversion_mp[twice] = (
                    2 * mpmath.gamma(v) / (2 * mpmath.pi) ** v * mpmath.expjpi(v / 2)
                )
                self.inversion[twice] = complex(self.inversion_mp[twice])


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _series(sign: int, s: float, z: float) -> tuple[float, float]:
    """sum_{n>=1} sign^(n+1) z^n / n^s for 0 < z <= 0.9."""
    total = 0.0
    largest = 0.0
    n = 1
    zn = z
    while True:
        term = zn / n**s
        largest = max(largest, term)
        total += term if (sign > 0 or n % 2 == 1) else -term
        if term < 1e-19 * largest and n > 4:
            break
        n += 1
        zn *= z
    # The neglected tail is geometric in z (ratio <= 0.9), below 1e-18.
    return total, 8.0 * _EPS * largest * math.sqrt(n) + 1e-17 * largest


def _robinson(twice: int, u) -> tuple[float, float]:
    """Re Li_s(e^u) for real u < 0 or u = ln z + i pi, |u| < 2 pi."""
    tab = _tables()
    s = twice / 2.0
    acc = 0.0
    largest = 0.0
    power = 1.0
    for k, c in enumerate(tab.robinson[twice]):
        term = c * power
        acc += term
        largest = max(largest, abs(term))
        if k > 3 and abs(term) < 1e-19 * max(abs(acc), 1e-300):
            break
        power *= u
    else:
        raise ArithmeticError(f"Robinson series did not converge at u={u}")
    lead = tab.gamma_1ms[twice] * (-u) ** (s - 1.0)
    value = (lead + acc).real
    return value, 8.0 * _EPS * (abs(lead) + largest * math.sqrt(k + 1))


def _hurwitz_zeta(v, a, coeffs) -> tuple[complex, float]:
    """zeta(v, a) by Euler-Maclaurin after shifting a by _EM_SHIFT.

    Works on Python complex numbers or on mpmath ``mpc`` (then ``v`` and
    ``coeffs`` are mpmath numbers too and the error estimate is meaningless).
    """
    total = 0 * a
    largest = 0.0
    for n in range(_EM_SHIFT):
        term = (n + a) ** (-v)
        total += term
        largest = max(largest, abs(term))
    w = _EM_SHIFT + a
    w_mv = w ** (-v)
    head = w * w_mv / (v - 1) + w_mv / 2
    total += head
    largest = max(largest, abs(head), abs(w * w_mv / (v - 1)))
    w_inv2 = 1.0 / (w * w)
    power = w_mv / w  # w^(-v-1)
    for c in coeffs:
        term = c * power
        total += term
        power *= w_inv2
    return total, 8.0 * _EPS * float(largest) * math.sqrt(_EM_SHIFT + 2)


def _fermi_inversion(twice: int, z: float) -> tuple[float, float]:
    tab = _tables()
    v = 1.0 - twice / 2.0
    a = complex(0.5, -math.log(z) / (2.0 * math.pi))
    zeta, err = _hurwitz_zeta(v, a, tab.em[twice])
    pre = tab.inversion[twice]
    value, err = -(pre * zeta).real, abs(pre) * err
    if err <= _MAX_REL_ESTIMATE * abs(value):
        return value, err
    with mpmath.workdps(30):
        v = 1 - mpmath.mpf(twice) / 2
        a = mpmath.mpc(0.5, -mpmath.log(z) / (2 * mpmath.pi))
        zeta, _ = _hurwitz_zeta(v, a, tab.em_mp[twice])
        value = float(-mpmath.re(tab.inversion_mp[twice] * zeta))
    return value, 4.0 * _EPS * abs(value)


def h_half_integer(stat: str, twice: int, z: float) -> tuple[float, float]:
    """(h_sigma(z), error estimate) for sigma = twice/2 in {-1/2,1/2,3/2,5/2}.

    ``stat`` is "bose" (g_sigma, 0 < z < 1) or "fermi" (f_sigma, z > 0).
    """
    if twice not in HALF_INTEGER_ORDERS:
        raise ValueError(f"order {twice}/2 is not a half-integer order")
    if not z > 0.0:
        raise ValueError(f"z must be positive, got {z}")
    if stat == "bose":
        if not z < 1.0:
            raise ValueError(f"Bose z must be below 1, got {z}")
        if z <= _BOSE_SERIES_MAX:
            return _series(1, twice / 2.0, z)
        return _robinson(twice, math.log1p(-(1.0 - z)))
    if z <= _FERMI_SERIES_MAX:
        return _series(-1, twice / 2.0, z)
    if z <= _FERMI_ROBINSON_MAX:
        li, err = _robinson(twice, complex(math.log(z), math.pi))
        return -li, err
    return _fermi_inversion(twice, z)


def h_mp(stat: str, twice: int, z: float) -> mpmath.mpf:
    """h_sigma(z) from mpmath itself, at the caller's working precision."""
    x = mpmath.mpf(z)
    sign = 1 if stat == "bose" else -1
    if twice == 2:
        return -sign * mpmath.log1p(-sign * x)
    if twice == 0:
        return x / (1 - sign * x)
    if twice == -2:
        return x / (1 - sign * x) ** 2
    return sign * mpmath.re(mpmath.polylog(mpmath.mpf(twice) / 2, sign * x))


def _li2(z: float) -> tuple[float, float]:
    """Li_2(z) for 0 < z <= 1, with an error estimate."""
    if z <= 0.5:
        return _series(1, 2.0, z)
    if z == 1.0:
        return math.pi**2 / 6.0, 0.0
    w = 1.0 - z
    rest, err = _series(1, 2.0, w)
    log_term = math.log1p(-w) * math.log(w)
    value = math.pi**2 / 6.0 - log_term - rest
    return value, err + 4.0 * _EPS * (math.pi**2 / 6.0 + abs(log_term) + rest)


def _fermi_f2(z: float) -> tuple[float, float]:
    """f_2(z) = -Li_2(-z) for z > 0."""
    if z <= 0.5:
        return _series(-1, 2.0, z)
    if z <= 1.0:
        # Li_2(-z) = Li_2(z^2)/2 - Li_2(z)
        a, ea = _li2(z * z)
        b, eb = _li2(z)
        return b - 0.5 * a, 0.5 * ea + eb + 4.0 * _EPS * (0.5 * a + b)
    inner, err = _fermi_f2(1.0 / z)
    log2 = 0.5 * math.log(z) ** 2
    value = math.pi**2 / 6.0 + log2 - inner
    return value, err + 4.0 * _EPS * (math.pi**2 / 6.0 + log2 + inner)


def h(stat: str, twice: int, z: float) -> tuple[float, float]:
    """(h_sigma(z), error estimate) for any of the eight orders."""
    if twice in HALF_INTEGER_ORDERS:
        return h_half_integer(stat, twice, z)
    if twice == 4:
        return _li2(z) if stat == "bose" else _fermi_f2(z)
    with mpmath.workdps(20):
        value = h_mp(stat, twice, z)
    return float(value), 2.0 * _EPS * abs(float(value))
