"""Unified Bose-Einstein / Fermi-Dirac integral family h_sigma(z).

The two textbook families

    g_sigma(z) = sum_{n>=1} z^n / n^sigma          (Bose-Einstein)
    f_sigma(z) = sum_{n>=1} (-1)^(n+1) z^n / n^sigma   (Fermi-Dirac)

are handled through one entry point, ``eval_h``, selected by ``StatKind``.
For sigma > 0 both are equivalently

    h_sigma(z) = 1/Gamma(sigma) * int_0^inf x^(sigma-1) / (e^x / z -+ 1) dx.

Only the half-integer orders -1, -1/2, 0, 1/2, 1, 3/2, 2, 5/2 required by
the confined-gas equations of state are constructible.

Every evaluation returns a :class:`FunctionValue` carrying the value, a
certified absolute error bound, and the method that produced it.
``h_orders`` evaluates several orders at one z in one call, as every state
sum of the equations of state needs: it checks z once, computes the closed
forms inline and shares the complex roots of Jonquiere's formula between
the Fermi half-integer orders.  ``eval_h`` is its one-order form.  Nothing
is memoised: equal arguments are simply recomputed.  Method selection:

* exact closed forms for sigma in {1, 0, -1};
* the defining power series for 0 < z <= 0.99 (and for all Bose z < 1,
  where the series is the only convergent representation);
* exact inversion formulas for Fermi z > 0.99: Jonquiere's formula with an
  Euler-Maclaurin Hurwitz zeta for the half-integer orders, and the
  dilogarithm inversion with Landen's identity for sigma = 2.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "StatKind",
    "Order",
    "Method",
    "FunctionValue",
    "MINUS_ONE",
    "MINUS_HALF",
    "ZERO",
    "HALF",
    "ONE",
    "THREE_HALVES",
    "TWO",
    "FIVE_HALVES",
    "ALL_ORDERS",
    "FERMI_Z_MAX",
    "SERIES_TERM_CAP",
    "METHOD_SWITCH_Z",
    "eval_h",
    "h_orders",
    "eval_h_closed_form",
    "eval_h_series",
    "eval_h_inversion",
    "bose_limit_at_unity",
]

_EPS = 2.220446049250313e-16

# Accuracy contract: every certified bound must satisfy
# bound <= max(ABS_CONTRACT, REL_CONTRACT * |value|).
ABS_CONTRACT = 1e-10
REL_CONTRACT = 1e-10

#: Default cap on the Fermi fugacity accepted by :func:`eval_h`.
FERMI_Z_MAX = 1e8

#: Default cap on the number of series terms before giving up.
SERIES_TERM_CAP = 10**6

#: Fermi evaluations switch from series to the inversion formulas above this
#: z.  The geometric tail bound of the series degrades like 1/(1-z), while
#: the inversion formulas cost the same for every z.
METHOD_SWITCH_Z = 0.99

# Riemann zeta at the orders with a finite Bose z->1 limit.
_ZETA = {
    3: 2.6123753486854883,  # zeta(3/2)
    4: 1.6449340668482264,  # zeta(2) = pi^2/6
    5: 1.3414872572509172,  # zeta(5/2)
}


class StatKind(enum.Enum):
    """Quantum statistics selector: upper sign Bose, lower sign Fermi."""

    BOSE = "bose"
    FERMI = "fermi"

    @property
    def sign(self) -> int:
        """+1 for Bose (all series terms positive), -1 for Fermi."""
        return 1 if self is StatKind.BOSE else -1


@dataclass(frozen=True, order=True)
class Order:
    """Half-integer order sigma of the integral family, stored as 2*sigma.

    Only the orders appearing in the confined-gas equations of state and
    their temperature derivatives are constructible.
    """

    twice: int

    _ALLOWED = frozenset({-2, -1, 0, 1, 2, 3, 4, 5})

    def __post_init__(self):
        if self.twice not in self._ALLOWED:
            raise DomainError(
                f"order sigma={self.twice}/2 is outside the supported set "
                "{-1, -1/2, 0, 1/2, 1, 3/2, 2, 5/2}"
            )

    @classmethod
    def of(cls, sigma) -> "Order":
        """Coerce an Order, int, float or Fraction to an Order."""
        if isinstance(sigma, cls):
            return sigma
        frac = Fraction(sigma).limit_denominator(10**6)
        twice = frac * 2
        if twice.denominator != 1:
            raise DomainError(f"order sigma={sigma} is not a half-integer")
        return cls(int(twice))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def lowered(self) -> "Order":
        """The order sigma - 1 (raises DomainError if outside the set)."""
        return Order(self.twice - 2)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"


MINUS_ONE = Order(-2)
MINUS_HALF = Order(-1)
ZERO = Order(0)
HALF = Order(1)
ONE = Order(2)
THREE_HALVES = Order(3)
TWO = Order(4)
FIVE_HALVES = Order(5)

ALL_ORDERS = (MINUS_ONE, MINUS_HALF, ZERO, HALF, ONE, THREE_HALVES, TWO, FIVE_HALVES)


class Method(enum.Enum):
    CLOSED_FORM = "ClosedForm"
    SERIES = "Series"
    INVERSION = "Inversion"


@dataclass(frozen=True)
class FunctionValue:
    """A function value with a certified absolute error bound.

    ``abs_error_bound`` is a rigorous bound on |value - exact| under the
    module accuracy contract (1e-10 absolute or relative, whichever is
    larger).  ``terms`` reports the series length when applicable.
    """

    value: float
    abs_error_bound: float
    method: Method
    terms: int | None = None


def _require_z_in_domain(stat: StatKind, z: float, z_max: float) -> None:
    if not (z > 0.0) or not math.isfinite(z):
        raise DomainError(f"fugacity z={z} must be positive and finite")
    if stat is StatKind.BOSE and z > 1.0:
        raise DomainError(f"Bose fugacity z={z} > 1 has no meaning (condensation)")
    if stat is StatKind.FERMI and z > z_max:
        raise DomainError(f"Fermi fugacity z={z} exceeds the configured cap {z_max}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def eval_h_closed_form(stat: StatKind, sigma, z: float) -> FunctionValue:
    """Exact closed form of h_sigma for sigma in {1, 0, -1}.

    Bose:  g_1 = -ln(1-z),  g_0 = z/(1-z),  g_-1 = z/(1-z)^2   (z < 1)
    Fermi: f_1 =  ln(1+z),  f_0 = z/(1+z),  f_-1 = z/(1+z)^2
    """
    sigma = Order.of(sigma)
    _require_z_in_domain(stat, z, math.inf)
    if sigma not in (ONE, ZERO, MINUS_ONE):
        raise DomainError(f"no closed form for sigma={sigma}")
    if stat is StatKind.BOSE and z >= 1.0:
        raise DomainError("Bose closed forms require z < 1 strictly")
    return _closed_form(stat is StatKind.BOSE, sigma.twice, z)


def _closed_form(bose: bool, twice: int, z: float) -> FunctionValue:
    """h_sigma(z) for 2 sigma in {2, 0, -2}, with z already checked."""
    if twice == 2:
        value = -math.log1p(-z) if bose else math.log1p(z)
    elif twice == 0:
        value = z / (1.0 - z) if bose else z / (1.0 + z)
    else:
        value = z / (1.0 - z) ** 2 if bose else z / (1.0 + z) ** 2
    bound = 4.0 * _EPS * abs(value) + 1e-300
    return FunctionValue(value, bound, Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# direct series
# ---------------------------------------------------------------------------

def _series_tail_majorant(sigma: float, z: float, n: int) -> float:
    """Rigorous bound on |sum_{k>n} (+-1)^(k+1) z^k / k^sigma|.

    For sigma >= 0 the terms are dominated by the geometric majorant
    z^(n+1) / ((1-z) (n+1)^sigma).  For sigma > 1 the integral comparison
    z^(n+1) n^(1-sigma)/(sigma-1) can be sharper near z = 1; the minimum of
    the two is still a bound.  For sigma < 0 the term ratio is at most
    rho = z ((n+2)/(n+1))^(-sigma) and the tail is geometric once rho < 1.
    """
    lead = math.exp((n + 1) * math.log(z))
    if sigma >= 0.0:
        geo = lead / ((1.0 - z) * (n + 1) ** sigma)
        if sigma > 1.0:
            integral = lead * n ** (1.0 - sigma) / (sigma - 1.0)
            return min(geo, integral)
        return geo
    rho = z * ((n + 2) / (n + 1)) ** (-sigma)
    if rho >= 1.0:
        return math.inf
    return lead * (n + 1) ** (-sigma) / (1.0 - rho)


def eval_h_series(
    stat: StatKind,
    sigma,
    z: float,
    tail_bound: float = 1e-12,
    term_cap: int = SERIES_TERM_CAP,
) -> FunctionValue:
    """Sum the defining series until the rigorous tail bound is met.

    Parameters
    ----------
    stat, sigma, z :
        Statistics, order and fugacity; the series converges for 0 < z < 1.
    tail_bound :
        Target absolute bound on the neglected tail.
    term_cap :
        Hard cap on the number of terms; exceeding it raises AccuracyError
        carrying the bound that was actually achieved.
    """
    sigma = Order.of(sigma)
    if not (0.0 < z < 1.0):
        raise DomainError(f"series representation requires 0 < z < 1, got z={z}")
    if tail_bound <= 0.0:
        raise DomainError("tail_bound must be positive")

    sig = sigma.value
    log_z = math.log(z)
    fermi = stat is StatKind.FERMI

    total = 0.0
    total_abs = 0.0
    n_done = 0
    # Geometric blocks keep the numpy overhead negligible for short series
    # while still vectorising the ~30k-term sums near z -> 1.
    block = 64
    while n_done < term_cap:
        n_hi = min(n_done + block, term_cap)
        n = np.arange(n_done + 1, n_hi + 1, dtype=np.float64)
        terms = np.exp(n * log_z - sig * np.log(n))
        block_abs = float(np.sum(terms))
        if fermi:
            signs = np.where(np.asarray(np.mod(n, 2.0) == 1.0), 1.0, -1.0)
            total += float(np.sum(terms * signs))
        else:
            total += block_abs
        total_abs += block_abs
        n_done = n_hi
        majorant = _series_tail_majorant(sig, z, n_done)
        if majorant <= tail_bound:
            rounding = 6e-15 * total_abs + 2.0 * _EPS * abs(total)
            return FunctionValue(total, majorant + rounding, Method.SERIES, terms=n_done)
        block = min(2 * block, 1 << 16)

    achieved = _series_tail_majorant(sig, z, n_done)
    raise AccuracyError(
        f"series for h_{sigma}({z}) needs more than {term_cap} terms "
        f"(achieved tail bound {achieved:.3e}, requested {tail_bound:.3e})",
        achieved=achieved,
    )


# ---------------------------------------------------------------------------
# inversion formulas (Fermi)
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_30 for the Euler-Maclaurin sum.
_BERNOULLI_2J = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
)

#: Direct terms N and Bernoulli terms M of the Euler-Maclaurin Hurwitz zeta.
_EM_DIRECT = 6
_EM_BERNOULLI = len(_BERNOULLI_2J)
_EM_SHIFTS = tuple(0.5 + k for k in range(_EM_DIRECT))

#: Rounding allowance per unit of eps * sum|terms|: <= 16 per term (square
#: root, up to three complex products and one quotient), <= 8 for the
#: additions and <= 8 for the prefactor and the final product.
_EM_ROUNDING = 32.0

#: Cap on the dilogarithm series; with y <= 1/2 the tail is below eps times
#: the sum after 42 terms.
_LANDEN_TERM_CAP = 48

_PI2_6 = math.pi**2 / 6.0


def _rising(x: Fraction, n: int) -> Fraction:
    """Pochhammer symbol (x)_n = x (x+1) ... (x+n-1)."""
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


@dataclass(frozen=True)
class _Jonquiere:
    """Constants of the inversion formula for one half-integer order s.

    ``root_power`` is -2 sigma with sigma = 1 - s, so that
    p^(-sigma) = sqrt(p)^root_power; ``bernoulli`` holds the Euler-Maclaurin
    coefficients B_2j/(2j)! (sigma)_(2j-1) highest j first, for Horner,
    each paired with its modulus.
    """

    sigma: float
    root_power: int
    bernoulli: tuple[tuple[float, float], ...]
    remainder: float
    prefactor: complex


def _jonquiere(order: Order) -> _Jonquiere:
    s = Fraction(order.twice, 2)
    sigma = 1 - s
    n, m = _EM_DIRECT, _EM_BERNOULLI
    coefs = [
        float(b / math.factorial(2 * j) * _rising(sigma, 2 * j - 1))
        for j, b in enumerate(_BERNOULLI_2J, start=1)
    ]
    # Johansson, Numer. Algorithms 69 (2015) 253, Theorem 1, with
    # |a + t| >= Re(a) + t = t + 1/2 for every Im(a).
    remainder = (
        4.0 * abs(float(_rising(sigma, 2 * m))) / (2.0 * math.pi) ** (2 * m)
        * (n + 0.5) ** float(1 - sigma - 2 * m) / float(sigma + 2 * m - 1)
    )
    # (2 pi)^s e^(i pi s/2) / Gamma(s); e^(i pi s/2) = (+-1 +-i)/sqrt(2) exactly.
    quarter = order.twice % 8
    phase = complex(1.0 if quarter in (1, 7) else -1.0, 1.0 if quarter in (1, 3) else -1.0)
    scale = (2.0 * math.pi) ** float(s) / (math.sqrt(2.0) * math.gamma(float(s)))
    return _Jonquiere(float(sigma), order.twice - 2,
                      tuple((coef, abs(coef)) for coef in reversed(coefs)), remainder,
                      scale * phase)


_JONQUIERE = {o.twice: _jonquiere(o) for o in (MINUS_HALF, HALF, THREE_HALVES, FIVE_HALVES)}


class _Nodes(NamedTuple):
    """The parts of Jonquiere's formula that depend on z but not on s:
    t = ln z/(2 pi), the roots sqrt(a + k) of the direct terms, and the
    Euler-Maclaurin point w = a + N with its root and x = 1/w^2."""

    t: float
    roots: list[complex]
    w: complex
    w_root: complex
    x: complex


def _jonquiere_nodes(z: float) -> _Nodes:
    t = math.log(z) / (2.0 * math.pi)
    roots = [cmath.sqrt(complex(a, -t)) for a in _EM_SHIFTS]
    w = complex(0.5 + _EM_DIRECT, -t)
    return _Nodes(t, roots, w, cmath.sqrt(w), 1.0 / (w * w))


def _fermi_jonquiere(order: Order, nodes: _Nodes) -> tuple[float, float]:
    """f_s(z) and an absolute error bound for half-integer s, any z > 0.

    Jonquiere's inversion formula (DLMF 25.12.13) with a = 1/2 - i ln(z)/(2 pi):

        f_s(z) = -Re[(2 pi)^s e^(i pi s/2) zeta(1-s, a)] / Gamma(s)

    The formula's second term, e^(i pi s) Li_s(-1/z), is purely imaginary
    for half-integer s, so taking the real part removes it.  zeta(sigma, a)
    is summed by Euler-Maclaurin with N direct and M Bernoulli terms.  Only
    the powers of the shared roots and the Horner loop depend on s.
    """
    c = _JONQUIERE[order.twice]
    t = nodes.t
    power = c.root_power
    total = 0j
    total_abs = 0.0
    for root in nodes.roots:
        term = root ** power
        total += term
        total_abs += abs(term)
    w, x = nodes.w, nodes.x
    w_pow = nodes.w_root ** power
    x_abs = abs(x)
    poly = 0j
    poly_abs = 0.0
    for coef, coef_abs in c.bernoulli:
        poly = poly * x + coef
        poly_abs = poly_abs * x_abs + coef_abs
    # w^(1-sigma)/(sigma-1) + w^(-sigma)/2 + sum_j coef_j w^(-sigma-2j+1)
    total += w_pow * (w / (c.sigma - 1.0) + 0.5 + poly / w)
    w_abs = abs(w)
    total_abs += abs(w_pow) * (w_abs / abs(c.sigma - 1.0) + 0.5 + poly_abs / w_abs)
    value = -(c.prefactor * total).real
    # t carries a relative rounding error <= 2 eps, and every term's
    # a-derivative is at most 5 times the term (N = 6, M = 15).
    rounding = (_EM_ROUNDING + 10.0 * abs(t)) * _EPS * total_abs
    return value, abs(c.prefactor) * (c.remainder + rounding)


def _fermi_dilog_landen(z: float) -> tuple[float, float]:
    """f_2(z) = -Li_2(-z) and an absolute error bound, for 0 < z <= 1.

    Landen's identity f_2(z) = Li_2(y) + ln^2(1+z)/2 with y = z/(1+z) <= 1/2
    leaves a series whose tail after n terms is at most
    y^(n+1) / ((n+1)^2 (1-y)).
    """
    y = z / (1.0 + z)
    total = 0.0
    power = 1.0
    tail = math.inf
    for k in range(1, _LANDEN_TERM_CAP + 1):
        power *= y
        total += power / (k * k)
        tail = power * y / ((k + 1) ** 2 * (1.0 - y))
        if tail <= _EPS * total:
            break
    log1p = math.log1p(z)
    value = total + 0.5 * log1p * log1p
    return value, tail + (2 * k + 4) * _EPS * value


def _fermi_dilog(z: float) -> tuple[float, float]:
    """f_2(z) for any z > 0: f_2(z) = pi^2/6 + ln^2(z)/2 - f_2(1/z) above 1."""
    if z <= 1.0:
        return _fermi_dilog_landen(z)
    small, small_bound = _fermi_dilog_landen(1.0 / z)
    log_z = math.log(z)
    value = _PI2_6 + 0.5 * log_z * log_z - small
    return value, small_bound + 4.0 * _EPS * (_PI2_6 + log_z * log_z + small)


def eval_h_inversion(stat: StatKind, sigma, z: float) -> FunctionValue:
    """Fermi f_sigma(z) from exact inversion formulas, any z > 0.

    Half-integer orders use Jonquiere's formula with an Euler-Maclaurin
    Hurwitz zeta; sigma = 2 uses the dilogarithm inversion and Landen's
    identity.  The bound covers the rigorous truncation remainders and the
    floating-point rounding; every loop has a fixed trip count.
    """
    sigma = Order.of(sigma)
    if stat is not StatKind.FERMI:
        raise DomainError("inversion route is defined for Fermi statistics only")
    dilog = sigma == TWO
    if not dilog and sigma.twice not in _JONQUIERE:
        raise DomainError(f"sigma={sigma} has a closed form; use eval_h_closed_form")
    _require_z_in_domain(stat, z, math.inf)
    if dilog:
        return _certified_inversion(sigma, z, *_fermi_dilog(z))
    return _certified_inversion(sigma, z, *_fermi_jonquiere(sigma, _jonquiere_nodes(z)))


def _certified_inversion(sigma: Order, z: float, value: float, bound: float) -> FunctionValue:
    if bound > max(ABS_CONTRACT, REL_CONTRACT * abs(value)):
        raise AccuracyError(
            f"inversion h_{sigma}({z}): achieved bound {bound:.3e} misses the "
            f"accuracy contract for value {value:.6e}",
            achieved=bound,
        )
    return FunctionValue(value, bound, Method.INVERSION)


# ---------------------------------------------------------------------------
# Bose limit at z = 1
# ---------------------------------------------------------------------------

def bose_limit_at_unity(sigma) -> FunctionValue:
    """g_sigma(1) = zeta(sigma), finite only for sigma > 1."""
    sigma = Order.of(sigma)
    if sigma.value <= 1.0:
        raise DomainError(
            f"g_{sigma}(z) diverges as z -> 1 for sigma <= 1 (condensation boundary)"
        )
    value = _ZETA[sigma.twice]
    return FunctionValue(value, 4.0 * _EPS * abs(value), Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def h_orders(
    stat: StatKind,
    z: float,
    orders,
    z_max: float = FERMI_Z_MAX,
    tail_bounds=None,
) -> tuple[FunctionValue, ...]:
    """Evaluate h_sigma(z) at every order of ``orders``, at one z.

    ``orders`` is a sequence of :class:`Order` values, in any order and
    with repeats allowed; the result holds one :class:`FunctionValue` per
    entry, each equal to what :func:`eval_h` returns for that order.  z is
    checked once.  The closed forms are computed inline, and the Fermi
    half-integer orders above ``METHOD_SWITCH_Z`` share the roots of
    Jonquiere's formula.  ``tail_bounds`` is None (the default 1e-12 series
    tail for every order) or one series tail target per order; see
    :func:`eval_h`.  The first order that cannot be evaluated raises its
    DomainError or AccuracyError.
    """
    _require_z_in_domain(stat, z, z_max)
    z = float(z)
    bose = stat is StatKind.BOSE
    nodes = None
    out = []
    for i, sigma in enumerate(orders):
        twice = sigma.twice
        if bose and z == 1.0:
            if twice <= 2:
                raise DomainError(
                    f"Bose h_{sigma}(1) diverges; z = 1 is admissible only for sigma > 1"
                )
            out.append(bose_limit_at_unity(sigma))
        elif twice in (2, 0, -2):
            out.append(_closed_form(bose, twice, z))
        elif bose or z <= METHOD_SWITCH_Z:
            tail = 1e-12 if tail_bounds is None else float(tail_bounds[i])
            out.append(eval_h_series(stat, sigma, z, tail_bound=tail))
        elif twice == 4:
            out.append(_certified_inversion(sigma, z, *_fermi_dilog(z)))
        else:
            if nodes is None:
                nodes = _jonquiere_nodes(z)
            out.append(_certified_inversion(sigma, z, *_fermi_jonquiere(sigma, nodes)))
    return tuple(out)


def eval_h(
    stat: StatKind,
    sigma,
    z: float,
    z_max: float = FERMI_Z_MAX,
    tail_bound: float | None = None,
) -> FunctionValue:
    """Evaluate h_sigma(z) by the best available method.

    The one-order form of :func:`h_orders`, for callers that hold the order
    as a number or a string's value; callers that need several orders at
    one z call :func:`h_orders` with :class:`Order` constants instead.
    Nothing is cached: every call recomputes its value.

    Parameters
    ----------
    stat :
        ``StatKind.BOSE`` for g_sigma or ``StatKind.FERMI`` for f_sigma.
    sigma :
        Order; anything accepted by :meth:`Order.of`.
    z :
        Fugacity.  Bose requires z < 1 (z = 1 allowed for sigma > 1); Fermi
        requires z < ``z_max``.
    z_max :
        Cap on the Fermi fugacity (default 1e8).
    tail_bound :
        Optional series tail target.  Leaving it at None applies the default
        1e-12 target, which keeps the certified bound within the module
        accuracy contract; passing a looser value explicitly waives that
        contract (abs_error_bound still reports what was achieved).  Callers
        that only need h to a known absolute accuracy (e.g. the fugacity
        solver near the Bose condensation point, where series get long) use
        this to stay within the term cap.

    Returns
    -------
    FunctionValue
        Value, certified absolute error bound, and the method used.

    Raises
    ------
    DomainError
        z out of range, or Bose z >= 1 with sigma <= 1 (divergence at the
        condensation boundary).
    AccuracyError
        The requested bound is unreachable; ``achieved`` holds the bound
        actually attained.
    """
    sigma = Order.of(sigma)
    tails = None if tail_bound is None else (tail_bound,)
    return h_orders(stat, z, (sigma,), z_max, tails)[0]
