"""Unified Bose-Einstein / Fermi-Dirac integral family h_sigma(z).

The two textbook families

    g_sigma(z) = sum_{n>=1} z^n / n^sigma          (Bose-Einstein)
    f_sigma(z) = sum_{n>=1} (-1)^(n+1) z^n / n^sigma   (Fermi-Dirac)

are selected by ``StatKind``.  For sigma > 0 both are equivalently

    h_sigma(z) = 1/Gamma(sigma) * int_0^inf x^(sigma-1) / (e^x / z -+ 1) dx.

Only the half-integer orders -1, -1/2, 0, 1/2, 1, 3/2, 2, 5/2 required by
the confined-gas equations of state are constructible.

There are two entry points.  ``h_orders`` evaluates several orders at one z
in one call, as every state sum of the equations of state needs: it checks
z once, computes the closed forms inline and shares the complex roots of
Jonquiere's formula between the Fermi half-integer orders.  ``eval_h`` is
its one-order form.  Every evaluation returns a :class:`FunctionValue`
carrying the value, a certified absolute error bound, and the method that
produced it.  Nothing is memoised: equal arguments are simply recomputed.
Method selection:

* exact closed forms for sigma in {1, 0, -1};
* the defining power series for Fermi z <= 1/2 (``TAYLOR_Z_LO``) and for
  all Bose z < 1, where the series is the only convergent representation;
* the Taylor series in u = ln z with Dirichlet-eta coefficients for Fermi
  1/2 < z < 2 (``TAYLOR_Z_HI``);
* exact inversion formulas for Fermi z >= 2: Jonquiere's formula with an
  Euler-Maclaurin Hurwitz zeta for the half-integer orders, and the
  dilogarithm inversion with Landen's identity for sigma = 2;
* zeta(sigma) for Bose z = 1, finite only for sigma > 1.

The routes are private helpers that only ``h_orders`` calls, after its one
domain check.  The caps are fixed: Fermi z up to ``FERMI_Z_MAX`` and at
most ``SERIES_TERM_CAP`` series terms.

Importing this module does not load numpy: the series route imports it at
its first call, so closed forms and every Fermi z > 1/2 run without it.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "TAYLOR_Z_LO",
    "TAYLOR_Z_HI",
    "eval_h",
    "h_orders",
]

_EPS = 2.220446049250313e-16

# Accuracy contract: every certified bound must satisfy
# bound <= max(ABS_CONTRACT, REL_CONTRACT * |value|).
ABS_CONTRACT = 1e-10
REL_CONTRACT = 1e-10

#: Cap on the Fermi fugacity accepted by :func:`h_orders`.
FERMI_Z_MAX = 1e8

#: Cap on the number of series terms before giving up.
SERIES_TERM_CAP = 10**6

#: Fermi evaluations use the Taylor series in ln z on the open band
#: TAYLOR_Z_LO < z < TAYLOR_Z_HI, the direct series at and below it and the
#: inversion formulas at and above it.  The direct series needs about
#: 1/(1-z) terms as z nears 1; on the band |ln z|/pi < 0.221, where 24
#: Taylor terms suffice for every order.
TAYLOR_Z_LO = 0.5
TAYLOR_Z_HI = 2.0

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
        """Coerce an Order, int, float or Fraction; 2*sigma must be an exact integer.

        Doubling is exact for all of them, so 2*sigma is compared with its
        integer part exactly; a float that doubles to inf, nan and +-inf
        have none.
        """
        if isinstance(sigma, cls):
            return sigma
        twice = 2 * sigma
        try:
            whole = int(twice)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"order sigma={sigma} is not a finite number") from exc
        if twice != whole:
            raise DomainError(f"order sigma={sigma} is not a half-integer")
        return cls(whole)

    def __hash__(self) -> int:
        # Orders key every h table; the generated hash would build a tuple.
        return self.twice

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
    TAYLOR = "Taylor"
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


def _require_z_in_domain(stat: StatKind, z: float) -> None:
    if not (z > 0.0) or not math.isfinite(z):
        raise DomainError(f"fugacity z={z} must be positive and finite")
    if stat is StatKind.BOSE and z > 1.0:
        raise DomainError(f"Bose fugacity z={z} > 1 has no meaning (condensation)")
    if stat is StatKind.FERMI and z > FERMI_Z_MAX:
        raise DomainError(f"Fermi fugacity z={z} exceeds the configured cap {FERMI_Z_MAX}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _closed_form(bose: bool, twice: int, z: float) -> FunctionValue:
    """Exact closed form of h_sigma(z) for 2 sigma in {2, 0, -2}, with z
    already checked (Bose z < 1):

    Bose:  g_1 = -ln(1-z),  g_0 = z/(1-z),  g_-1 = z/(1-z)^2
    Fermi: f_1 =  ln(1+z),  f_0 = z/(1+z),  f_-1 = z/(1+z)^2
    """
    if twice == 2:
        value = -math.log1p(-z) if bose else math.log1p(z)
    elif twice == 0:
        value = z / (1.0 - z) if bose else z / (1.0 + z)
    else:
        w = 1.0 - z if bose else 1.0 + z
        value = z / (w * w)
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


def _series(stat: StatKind, sigma: Order, z: float, tail_bound: float) -> FunctionValue:
    """Sum the defining series, for 0 < z < 1, until the rigorous bound on
    the neglected tail is at most ``tail_bound`` > 0.  More than
    ``SERIES_TERM_CAP`` terms raise AccuracyError carrying the bound that
    was actually achieved.
    """
    import numpy as np

    sig = sigma.value
    log_z = math.log(z)
    fermi = stat is StatKind.FERMI

    total = 0.0
    total_abs = 0.0
    n_done = 0
    # Geometric blocks keep the numpy overhead negligible for short series
    # while still vectorising the ~30k-term sums near z -> 1.
    block = 64
    while n_done < SERIES_TERM_CAP:
        n_hi = min(n_done + block, SERIES_TERM_CAP)
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
            # Term n's exponent n ln z - sigma ln n is off by a few eps of
            # |n ln z|.  sum n^p z^n, p = max(1 - sigma, 0), is log-convex in
            # p, so its closed forms at p = 0, 1, 2 bound it by the moment
            # below.  A subnormal term or tail may lose one step.
            p = max(1.0 - sig, 0.0)
            moment = abs(log_z) * z * (1.0 + z) ** p / (1.0 - z) ** (1.0 + p)
            rounding = (6e-15 * total_abs + 2.0 * _EPS * abs(total) + 4.0 * _EPS * moment
                        + 2.0 * n_done * math.ulp(0.0))
            return FunctionValue(total, majorant + rounding, Method.SERIES, terms=n_done)
        block = min(2 * block, 1 << 16)

    achieved = _series_tail_majorant(sig, z, n_done)
    raise AccuracyError(
        f"series for h_{sigma}({z}) needs more than {SERIES_TERM_CAP} terms "
        f"(achieved tail bound {achieved:.3e}, requested {tail_bound:.3e})",
        achieved=achieved,
    )


# ---------------------------------------------------------------------------
# Taylor series in ln z (Fermi)
# ---------------------------------------------------------------------------

#: Terms K of the Taylor series in u = ln z.
_TAYLOR_TERMS = 24


def _taylor(tail_const: float, tail_ratio: float, coefs):
    """One order's (coefficients, tail constant, tail ratio).

    The coefficients eta(s-k)/k! come highest k first, for Horner, each
    paired with its modulus.  The tail after K terms is at most
    tail_const |u|^K / (1 - tail_ratio |u|): with x = k + 1 - s the
    functional equation gives |eta(s-k)| <= (1 + 2^x) 2 zeta(x) Gamma(x)
    (2 pi)^-x, so term k is at most 2 zeta(x) (1 + 2^-x) Gamma(x) |u|^k /
    (pi^x k!), and the ratio of consecutive bounds is at most
    max(1, (K+1-s)/(K+1)) |u|/pi for every k >= K.
    """
    return tuple((c, abs(c)) for c in reversed(coefs)), tail_const, tail_ratio


#: The constants of the orders 2s = -1, 1, 3, 4, 5 as float literals: (tail
#: constant, tail ratio, eta(s-k)/k! for k = 0 to K-1).
#: ``test_taylor_constants`` rebuilds each from mpmath's ``altzeta``.
_TAYLOR = {
    -1: _taylor(2.091736317678692e-12, 0.3246760839074665, (
        0.38010481260968404, 0.11868087071984021, -0.04392056036068142,
        -0.01600793400752053, 0.005700887887745273, 0.001992677670128497,
        -0.0006867657508012461, -0.0002341765289485769, 7.919477481503303e-05,
        2.6608425421925626e-05, -8.893152805873582e-06, -2.9594437531264216e-06,
        9.812703339133996e-07, 3.243613563734763e-07, -1.069348259047411e-07,
        -3.517302506100715e-08, 1.1545794050767608e-08, 3.783232743341367e-09,
        -1.2376915044861294e-09, -4.0433705868244165e-10, 1.3192209519276094e-10,
        4.2991919178303803e-11, -1.3995770011671232e-11, -4.551839610743787e-12,
    )),
    1: _taylor(2.6821974391177176e-13, 0.3183098861837907, (
        0.6048986434216304, 0.38010481260968404, 0.059340435359920105,
        -0.014640186786893807, -0.004001983501880133, 0.0011401775775490546,
        0.0003321129450214161, -9.81093929716066e-05, -2.927206611857211e-05,
        8.799419423892559e-06, 2.6608425421925627e-06, -8.084684368975983e-07,
        -2.4662031276053515e-07, 7.548233337795382e-08, 2.316866831239116e-08,
        -7.128988393649406e-09, -2.198314066312947e-09, 6.791643559275064e-10,
        2.1017959685229815e-10, -6.514165813084892e-11, -2.021685293412208e-11,
        6.282004532988617e-12, 1.9541781444683547e-12, -6.085117396378797e-13,
    )),
    3: _taylor(3.5856904172485485e-14, 0.3183098861837907, (
        0.765147024625408, 0.6048986434216304, 0.19005240630484202,
        0.019780145119973367, -0.0036600466967234516, -0.0008003967003760266,
        0.00019002959625817576, 4.744470643163088e-05, -1.2263674121450824e-05,
        -3.252451790952457e-06, 8.799419423892559e-07, 2.4189477656296024e-07,
        -6.737236974146653e-08, -1.8970793289271934e-08, 5.391595241282416e-09,
        1.5445778874927442e-09, -4.455617746030879e-10, -1.2931259213605571e-10,
        3.773135310708369e-11, 1.1062084044857797e-11, -3.257082906542446e-12,
        -9.62707282577242e-13, 2.8554566059039166e-13, 8.496426715079803e-14,
    )),
    4: _taylor(1.3324286106060675e-14, 0.3183098861837907, (
        0.8224670334241132, 0.6931471805599453, 0.25, 0.041666666666666664, 0.0,
        -0.0010416666666666667, 0.0, 4.96031746031746e-05, 0.0, -2.927965167548501e-06,
        0.0, 1.941538399871733e-07, 0.0, -1.3870999114054669e-08, 0.0,
        1.0440290284867003e-09, 0.0, -8.167010963952224e-11, 0.0, 6.5812165661369675e-12,
        0.0, -5.429792727596475e-13, 0.0, 4.5664875671936356e-14,
    )),
    5: _taylor(5.006569143161498e-15, 0.3183098861837907, (
        0.8671998890121841, 0.765147024625408, 0.3024493217108152, 0.063350802101614,
        0.004945036279993342, -0.0007320093393446903, -0.0001333994500626711,
        2.7147085179739394e-05, 5.93058830395386e-06, -1.3626304579389804e-06,
        -3.252451790952457e-07, 7.99947220353869e-08, 2.0157898046913355e-08,
        -5.18248998011281e-09, -1.3550566635194238e-09, 3.5943968275216103e-10,
        9.653611796829651e-11, -2.620951615312282e-11, -7.184032896447539e-12,
        1.9858606898465096e-12, 5.531042022428899e-13, -1.5509918602583076e-13,
        -4.375942193532918e-14, 1.2415028721321378e-14,
    )),
}


def _fermi_taylor(sigma: Order, z: float) -> FunctionValue:
    """Fermi f_sigma(z) for the orders without a closed form, by the Taylor
    series in u = ln z (DLMF 25.12.12 with Li_s(-e^u)):

        f_s(e^u) = sum_k eta(s-k) u^k / k!,   |u| < pi,

    where eta(s) = (1 - 2^(1-s)) zeta(s).  Nothing cancels at z = 1, and on
    the dispatch band |u|/pi < 0.221, so K = 24 terms leave a tail below
    5e-16.  One Horner loop sums the series, S0 = sum |c_k| |u|^k and the
    derivative of S0 in |u|, which gives S1 = sum k |c_k| |u|^k.  The bound
    adds to the doubled tail (doubling covers the rounding of its constants
    and of its evaluation) eps/2 (S0 + 2 S1) for Horner's rule (Higham,
    Accuracy and Stability of Numerical Algorithms, eq. 5.3: coefficient k
    carries 2k + 1 roundings), eps/2 S0 for the rounded coefficients and
    eps S1 for the rounding of ln z, within one ulp; the factor 1.01 covers
    second-order terms and the rounding of S0 and S1.  Every bound on the
    band is below 1e-15.  Any z > 0 is accepted, with an infinite bound
    where the tail is not geometric.
    """
    coefs, tail_const, tail_ratio = _TAYLOR[sigma.twice]
    u = math.log(z)
    a = abs(u)
    value = size = slope = 0.0
    for coef, coef_abs in coefs:
        slope = slope * a + size
        value = value * u + coef
        size = size * a + coef_abs
    ratio = tail_ratio * a
    tail = tail_const * a**_TAYLOR_TERMS / (1.0 - ratio) if ratio < 1.0 else math.inf
    bound = 1.01 * _EPS * (size + 2.0 * a * slope) + 2.0 * tail
    return FunctionValue(value, bound, Method.TAYLOR)


# ---------------------------------------------------------------------------
# inversion formulas (Fermi)
# ---------------------------------------------------------------------------

#: Direct terms N and Bernoulli terms M of the Euler-Maclaurin Hurwitz zeta.
_EM_DIRECT = 6
_EM_BERNOULLI = 15
_EM_SHIFTS = tuple(0.5 + k for k in range(_EM_DIRECT))

#: Rounding allowance per unit of eps * sum|terms|: <= 16 per term (square
#: root, up to three complex products and one quotient), <= 8 for the
#: additions and <= 8 for the prefactor and the final product.
_EM_ROUNDING = 32.0

#: Cap on the dilogarithm series; with y <= 1/2 the tail is below eps times
#: the sum after 42 terms.
_LANDEN_TERM_CAP = 48

_PI2_6 = math.pi**2 / 6.0


@dataclass(frozen=True)
class _Jonquiere:
    """Constants of the inversion formula for one half-integer order s.

    ``root_power`` is -2 sigma with sigma = 1 - s, so that
    p^(-sigma) = sqrt(p)^root_power; ``bernoulli`` holds the Euler-Maclaurin
    coefficients B_2j/(2j)! (sigma)_(2j-1) highest j first, for Horner,
    each paired with its modulus.  ``remainder`` bounds the Euler-Maclaurin
    remainder by 4 |(sigma)_2M| / (2 pi)^2M (N + 1/2)^(1-sigma-2M) /
    (sigma + 2M - 1) (Johansson, Numer. Algorithms 69 (2015) 253,
    Theorem 1, with |a + t| >= Re(a) + t = t + 1/2 for every Im(a)), and
    ``prefactor`` is (2 pi)^s e^(i pi s/2) / Gamma(s).
    """

    sigma: float
    root_power: int
    bernoulli: tuple[tuple[float, float], ...]
    remainder: float
    prefactor: complex


def _jonquiere(twice: int, remainder: float, re: float, im: float, coefs) -> _Jonquiere:
    return _Jonquiere(1.0 - twice / 2, twice - 2, tuple((c, abs(c)) for c in coefs),
                      remainder, complex(re, im))


#: The constants of the orders 2s = -1, 1, 3, 5 as float literals, so that
#: importing the module does no exact arithmetic: (2s, remainder, prefactor,
#: B_2j/(2j)! (sigma)_(2j-1) for j = M down to 1).  ``test_bernoulli_constants``
#: rebuilds each from mpmath's exact Bernoulli numbers.
_JONQUIERE = {
    -1: _jonquiere(-1, 3.96781662955239e-17, -0.07957747154594767, 0.07957747154594767, (
        123418133.92325307, -5795245.488654276, 313944.59564711817, -19838.393606536512,
        1481.2076169563647, -132.67334021783245, 14.519053437106777, -1.9850937710143626,
        0.34870728850364685, -0.08159381548563639, 0.026696523030598957, -0.013092041015625,
        0.0107421875, -0.018229166666666668, 0.125,
    )),
    1: _jonquiere(1, 4.371323405439074e-18, 0.9999999999999998, 0.9999999999999998, (
        2091832.7783602215, -105368.09979371411, 6155.776385237611, -422.0934809901385,
        34.44668876642709, -3.40188051840596, 0.4148300982030508, -0.06403528293594718,
        0.012915084759394327, -0.003547557195027669, 0.0014050801595052083,
        -0.000872802734375, 0.0009765625, -0.0026041666666666665, 0.041666666666666664,
    )),
    3: _jonquiere(3, 4.984842479886663e-19, -12.56637061435917, 12.56637061435917, (
        -36698.820672986345, 1988.0773545983795, -125.62808949464512, 9.379855133114189,
        -0.8401631406445631, 0.0919427167136746, -0.012570609036456085,
        0.002208113204687834, -0.0005166033903757731, 0.00016893129500131758,
        -8.265177408854167e-05, 6.7138671875e-05, -0.00010850694444444444,
        0.0005208333333333333, -0.041666666666666664,
    )),
    5: _jonquiere(5, 1.7673532428689073e-19, -52.63789013914323, -52.63789013914323, (
        2001.7538548901641, -116.94572674108115, 8.018814223062455, -0.6544084976591295,
        0.06462793389573562, -0.007880804289743536, 0.0012165105519151048,
        -0.00024534591163198155, 6.73830509185791e-05, -2.667336236862909e-05,
        1.6530354817708332e-05, -1.8310546875e-05, 4.650297619047619e-05,
        -0.0005208333333333333, -0.125,
    )),
}


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


def _inversion(sigma: Order, z: float, nodes: _Nodes | None = None) -> FunctionValue:
    """Fermi f_sigma(z) from exact inversion formulas, any z > 0, for the
    orders without a closed form.

    Half-integer orders use Jonquiere's formula with an Euler-Maclaurin
    Hurwitz zeta at ``nodes`` (computed here when None); sigma = 2 uses the
    dilogarithm inversion and Landen's identity.  The bound covers the
    rigorous truncation remainders and the floating-point rounding; every
    loop has a fixed trip count.  A bound outside the accuracy contract
    raises AccuracyError.
    """
    if sigma.twice == 4:
        value, bound = _fermi_dilog(z)
    else:
        value, bound = _fermi_jonquiere(sigma, _jonquiere_nodes(z) if nodes is None else nodes)
    if bound > max(ABS_CONTRACT, REL_CONTRACT * abs(value)):
        raise AccuracyError(
            f"inversion h_{sigma}({z}): achieved bound {bound:.3e} misses the "
            f"accuracy contract for value {value:.6e}",
            achieved=bound,
        )
    return FunctionValue(value, bound, Method.INVERSION)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def h_orders(stat: StatKind, z: float, orders, tail_bounds=None) -> tuple[FunctionValue, ...]:
    """Evaluate h_sigma(z) at every order of ``orders``, at one z.

    ``orders`` is a sequence of :class:`Order` values, in any order and
    with repeats allowed; the result holds one :class:`FunctionValue` per
    entry.  z is checked once: Bose requires z < 1 (z = 1 allowed for
    sigma > 1, where g_sigma(1) = zeta(sigma)); Fermi requires
    z <= ``FERMI_Z_MAX``.  The closed forms are computed inline.  The
    other orders take the direct series for Bose and for Fermi
    z <= ``TAYLOR_Z_LO``, the Taylor series in ln z for Fermi
    ``TAYLOR_Z_LO`` < z < ``TAYLOR_Z_HI``, and the inversion formulas for
    Fermi z >= ``TAYLOR_Z_HI``, where the half-integer orders share the
    roots of Jonquiere's formula.

    ``tail_bounds`` is None or one positive series tail target per order; a
    series order whose target is not positive raises DomainError, and the
    Taylor and inversion routes ignore it.  None applies the 1e-12 target,
    which keeps every certified bound within the module accuracy contract;
    a looser target waives that contract for its order (abs_error_bound
    still reports what was achieved).  The fugacity solver passes them so
    that near the Bose condensation point, where the series get long, it
    stays within ``SERIES_TERM_CAP``.

    Raises
    ------
    DomainError
        z out of range, or Bose z = 1 with sigma <= 1 (divergence at the
        condensation boundary).
    AccuracyError
        An order's bound is unreachable; ``achieved`` holds the bound
        actually attained.  The first order that fails raises.
    """
    _require_z_in_domain(stat, z)
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
            value = _ZETA[twice]
            out.append(FunctionValue(value, 4.0 * _EPS * value, Method.CLOSED_FORM))
        elif twice in (2, 0, -2):
            out.append(_closed_form(bose, twice, z))
        elif bose or z <= TAYLOR_Z_LO:
            tail = 1e-12 if tail_bounds is None else float(tail_bounds[i])
            if not tail > 0.0:
                raise DomainError(f"series tail target {tail} must be positive")
            out.append(_series(stat, sigma, z, tail))
        elif z < TAYLOR_Z_HI:
            out.append(_fermi_taylor(sigma, z))
        else:
            if nodes is None and twice != 4:
                nodes = _jonquiere_nodes(z)
            out.append(_inversion(sigma, z, nodes))
    return tuple(out)


def eval_h(stat: StatKind, sigma, z: float) -> FunctionValue:
    """Evaluate h_sigma(z) by the best available method.

    The one-order form of :func:`h_orders`, and with it the only other
    public way to evaluate h: for callers that hold the order as a number
    or a string's value.  Callers that need several orders at one z call
    :func:`h_orders` with :class:`Order` constants instead.  The caps are
    fixed: Fermi z <= ``FERMI_Z_MAX``, at most ``SERIES_TERM_CAP`` series
    terms, and the series tail target 1e-12 that keeps the certified bound
    within the module accuracy contract.  Nothing is cached: every call
    recomputes its value.

    Parameters
    ----------
    stat :
        ``StatKind.BOSE`` for g_sigma or ``StatKind.FERMI`` for f_sigma.
    sigma :
        Order; anything accepted by :meth:`Order.of`.
    z :
        Fugacity.  Bose requires z < 1 (z = 1 allowed for sigma > 1); Fermi
        requires z <= ``FERMI_Z_MAX``.

    Returns
    -------
    FunctionValue
        Value, certified absolute error bound, and the method used.

    Raises
    ------
    DomainError
        z out of range, or Bose z = 1 with sigma <= 1 (divergence at the
        condensation boundary).
    AccuracyError
        The contract bound is unreachable; ``achieved`` holds the bound
        actually attained.
    """
    return h_orders(stat, z, (Order.of(sigma),))[0]
