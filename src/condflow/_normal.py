"""The standard normal distribution function ``ndtr`` and its inverse
``ndtri``, ported from Cephes (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989; ``ndtr.c`` with its ``erf``/``erfc``, and
``ndtri.c``), the code that ``scipy.special.ndtr`` and
``scipy.special.ndtri`` run.  Both give scipy's doubles bit for bit, so
condflow's payloads do not depend on whether scipy is installed.

The rule that keeps them exact: ``+``, ``-``, ``*``, ``/`` and ``sqrt``
are correctly rounded in numpy as in C, so the rational forms run
vectorized, in the Horner order of Cephes' ``polevl``/``p1evl``; but
``exp`` and ``log`` are libm's, so they go through :func:`math.exp` and
:func:`math.log`, once per element.  numpy's own ``np.exp`` and
``np.log`` differ from libm's in the last bit on some inputs.
"""

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRT1_2 = 0.70710678118654752440  # 1/sqrt(2), the M_SQRT1_2 of C
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x*x) underflows past it
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)

# erf(x) = x T(x^2) / U(x^2) on |x| <= 1
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8, and R(x) / S(x) past 8
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)

# ndtri on |y - 1/2| <= 1/2 - exp(-2): x = y + y y^2 P0(y^2) / Q0(y^2), times sqrt(2 pi)
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# ndtri's tails, in z = 1/x with x = sqrt(-2 log y): x in [2, 8) ...
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# ... and x >= 8
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] x^k + ... + coef[k], in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """x^k + coef[0] x^(k-1) + ... + coef[k-1]: a leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` (``math.exp`` or ``math.log``) of each element of a 1-d array."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` on 1 <= z: 0 once z^2 passes MAXLOG (inf included)."""
    out = np.zeros_like(z)
    with np.errstate(over="ignore"):  # a z*z that overflows is past MAXLOG too
        live = z * z <= _MAXLOG
    zl = z[live]
    e = _libm(math.exp, -(zl * zl))
    near = zl < 8.0
    zn, zf = zl[near], zl[~near]
    y = np.empty_like(zl)
    y[near] = (e[near] * _polevl(zn, _P)) / _p1evl(zn, _Q)
    y[~near] = (e[~near] * _polevl(zf, _R)) / _p1evl(zf, _S)
    out[live] = y
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal distribution function, elementwise; ``nan`` stays ``nan``."""
    a = np.asarray(a, dtype=float)
    x = (a * _SQRT1_2).ravel()
    z = np.abs(x)
    y = np.full_like(x, np.nan)  # a nan fails every branch test below
    # |x| < 1/sqrt(2): 1/2 + erf(x)/2, erf's rational form
    inner = z < _SQRT1_2
    xi = x[inner]
    w = xi * xi
    y[inner] = 0.5 + 0.5 * ((xi * _polevl(w, _T)) / _p1evl(w, _U))
    # otherwise erfc(|x|)/2, reflected for x > 0; erfc is 1 - erf below 1
    mid = (z >= _SQRT1_2) & (z < 1.0)
    zm = z[mid]
    w = zm * zm
    y[mid] = 0.5 * (1.0 - (zm * _polevl(w, _T)) / _p1evl(w, _U))
    # past x = 6, erfc(x)/2 < 1.1e-17 is under half an ulp below 1
    # (2^-54, 5.6e-17), so 1 - erfc(x)/2 rounds to 1 without its exp
    one = x >= 6.0
    tail = (z >= 1.0) & ~one
    y[tail] = 0.5 * _erfc_tail(z[tail])
    upper = (mid | tail) & (x > 0)
    y[upper] = 1.0 - y[upper]
    y[one] = 1.0
    return y.reshape(a.shape)


def ndtri(y0) -> np.ndarray:
    """Standard normal quantile, elementwise: -inf at 0, inf at 1, and
    ``nan`` outside [0, 1]."""
    y0 = np.asarray(y0, dtype=float)
    flat = y0.ravel()
    # Cephes runs a nan through the lower tail, whose sign flip negates it
    out = np.where(np.isnan(flat), -flat, np.nan)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    inside = (flat > 0.0) & (flat < 1.0)
    y = flat[inside]
    # the upper tail runs as the lower one, on 1 - y, and flips no sign
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    x = np.empty_like(y)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    w = yc * yc
    x[central] = (yc + yc * ((w * _polevl(w, _P0)) / _p1evl(w, _Q0))) * _S2PI
    tail = ~central
    r = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x0 = r - _libm(math.log, r) / r
    z = 1.0 / r
    x1 = np.empty_like(r)
    near = r < 8.0
    x1[near] = (z[near] * _polevl(z[near], _P1)) / _p1evl(z[near], _Q1)
    x1[~near] = (z[~near] * _polevl(z[~near], _P2)) / _p1evl(z[~near], _Q2)
    x[tail] = np.where(upper[tail], x0 - x1, -(x0 - x1))
    out[inside] = x
    return out.reshape(y0.shape)
