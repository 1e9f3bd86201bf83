"""Reference arithmetic used to check the benchmark's answers.

Nothing here imports `gwa_skew`: an answer checked against this module is
checked by a second implementation, so a fault in the library's kernel
cannot hide behind the same fault in the check.

Polynomials are tuples of `Fraction` (index i holds the coefficient of h^i,
no trailing zeros; the zero polynomial is the empty tuple).  Products and
shifts run on integer numerators over one common denominator.  An element
of a generalized Weyl algebra is a dict from signed degree (x^k for k > 0,
y^-k for k < 0) to its left coefficient.  Products of elements are found by
rewriting words one defining relation at a time,

    x*y -> phi(a),   y*x -> a,   x*r -> phi(r)*x,   y*r -> phi^{-1}(r)*y,

never by a closed product formula.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

ZERO = ()
ONE = (Fraction(1),)
H = (Fraction(0), Fraction(1))


# -- polynomials ---------------------------------------------------------------


def trim(cs) -> tuple:
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    return trim([a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)])


def pneg(p: tuple) -> tuple:
    return tuple(-c for c in p)


def psub(p: tuple, q: tuple) -> tuple:
    return padd(p, pneg(q))


def pscale(p: tuple, c) -> tuple:
    return trim([a * c for a in p]) if c else ZERO


def _ints(p: tuple) -> tuple[list[int], int]:
    den = lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p], den


def pmul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ZERO
    a, da = _ints(p)
    b, db = _ints(q)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    den = da * db
    return trim([Fraction(c, den) for c in out])


def pdivmod(p: tuple, d: tuple) -> tuple[tuple, tuple]:
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(d) + 1, 0)
    lead = d[-1]
    while len(rem) >= len(d) and rem:
        shift = len(rem) - len(d)
        f = rem[-1] / lead
        quot[shift] = f
        for i, c in enumerate(d):
            rem[shift + i] -= f * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return trim(quot), trim(rem)


def pmonic(p: tuple) -> tuple:
    return pscale(p, 1 / p[-1]) if p else p


def pgcd(p: tuple, q: tuple) -> tuple:
    """Monic gcd by the plain Euclidean algorithm."""
    while q:
        p, q = q, pdivmod(p, q)[1]
    return pmonic(p)


def pderiv(p: tuple) -> tuple:
    return trim([i * c for i, c in enumerate(p)][1:])


def compose_affine(p: tuple, u: Fraction, v: Fraction) -> tuple:
    """p(u*h + v), by the binomial expansion on integers."""
    if len(p) <= 1:
        return p
    if v == 0:
        return trim([c * u**i for i, c in enumerate(p)])
    nums, den = _ints(p)
    n = len(p) - 1
    vn, vd = v.numerator, v.denominator
    vn_pow = [vn**i for i in range(n + 1)]
    vd_pow = [vd**i for i in range(n + 1)]
    out = []
    for j in range(n + 1):
        total = sum(
            nums[i] * comb(i, j) * vn_pow[i - j] * vd_pow[n - i + j]
            for i in range(j, n + 1)
        )
        out.append(Fraction(total, den * vd_pow[n]) * u**j)
    return trim(out)


# -- algebras and elements ---------------------------------------------------------


class Algebra:
    """K[h](a, phi) with phi: h -> u*h + v; caches phi^k and phi^k(a)."""

    def __init__(self, a, u, v=0, label: str = "custom", q=None):
        self.a = trim(a)
        self.u, self.v = Fraction(u), Fraction(v)
        self.label = label
        self.q = None if q is None else Fraction(q)
        self._autos: dict[int, tuple[Fraction, Fraction]] = {}
        self._a_images: dict[int, tuple] = {}

    @staticmethod
    def disc(q) -> "Algebra":
        return Algebra((1, -1), q, 0, "disc", q)

    @staticmethod
    def plane(q) -> "Algebra":
        return Algebra((0, 1), q, 0, "plane", q)

    def auto(self, k: int) -> tuple[Fraction, Fraction]:
        """(U, V) with phi^k(h) = U*h + V, from the geometric series."""
        if k not in self._autos:
            if self.u == 1:
                self._autos[k] = (Fraction(1), k * self.v)
            else:
                uk = self.u**k
                self._autos[k] = (uk, self.v * (uk - 1) / (self.u - 1))
        return self._autos[k]

    def phi(self, p: tuple, k: int = 1) -> tuple:
        if k == 0:
            return p
        return compose_affine(p, *self.auto(k))

    def phi_a(self, k: int) -> tuple:
        if k not in self._a_images:
            self._a_images[k] = self.phi(self.a, k)
        return self._a_images[k]

    def x(self, k: int = 1) -> dict:
        return {k: ONE}

    def y(self, k: int = 1) -> dict:
        return {-k: ONE}

    def h(self) -> dict:
        return {0: H}


def eadd(e1: dict, e2: dict) -> dict:
    out = dict(e1)
    for k, p in e2.items():
        s = padd(out.get(k, ZERO), p)
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def eneg(e: dict) -> dict:
    return {k: pneg(p) for k, p in e.items()}


def esub(e1: dict, e2: dict) -> dict:
    return eadd(e1, eneg(e2))


def escale(e: dict, c) -> dict:
    if c == 0:
        return {}
    return {k: pscale(p, c) for k, p in e.items()}


def reduce_pair(A: Algebra, j: int, r: tuple, k: int, s: tuple) -> tuple[int, tuple]:
    """(r X_j)(s X_k) as one normal-form term, letter by letter.

    Pulling s through X_j is j single steps x*r -> phi(r)*x (or the y
    mirror); the letters of X_k are then appended one at a time, each
    cancelling against the opposite generator with x*y -> phi(a) or
    y*x -> a and pulling the new factor left through what remains.
    """
    coeff = pmul(r, A.phi(s, j))
    d = j
    step = 1 if k > 0 else -1
    for _ in range(abs(k)):
        if step > 0 and d < 0:  # y^{-d} x = y^{-d-1} a = phi^{d+1}(a) y^{-d-1}
            coeff = pmul(coeff, A.phi_a(d + 1))
        elif step < 0 and d > 0:  # x^d y = x^{d-1} phi(a) = phi^d(a) x^{d-1}
            coeff = pmul(coeff, A.phi_a(d))
        d += step
    return d, coeff


def emul(A: Algebra, e1: dict, e2: dict) -> dict:
    out: dict[int, tuple] = {}
    for j, r in e1.items():
        for k, s in e2.items():
            d, c = reduce_pair(A, j, r, k, s)
            if c:
                out[d] = padd(out.get(d, ZERO), c)
    return {k: p for k, p in out.items() if p}


def sigma(e: dict, mu: Fraction) -> dict:
    """sigma_mu: identity on K[h], x -> mu^{-1} x, y -> mu y."""
    return {k: pscale(p, mu ** (-k)) for k, p in e.items()}


# -- skew derivations --------------------------------------------------------------


class Derivation:
    """A sigma_mu-twisted derivation stored by its values on h, x, y."""

    def __init__(self, A: Algebra, mu, on_h: dict, on_x: dict, on_y: dict):
        self.A, self.mu = A, Fraction(mu)
        self.on_h, self.on_x, self.on_y = on_h, on_x, on_y

    def on_poly(self, p: tuple) -> dict:
        """d(p(h)) by d(h^i) = d(h) h^{i-1} + h d(h^{i-1}); sigma fixes K[h]."""
        A = self.A
        out: dict = {}
        power_val: dict = {}
        for i, c in enumerate(p):
            if i > 0:
                h_prev = {0: (Fraction(0),) * (i - 1) + ONE}
                power_val = eadd(emul(A, self.on_h, h_prev), emul(A, A.h(), power_val))
            if c:
                out = eadd(out, escale(power_val, c))
        return out

    def on_gen_power(self, k: int) -> dict:
        """d(g^{j+1}) = d(g) sigma(g^j) + g d(g^j) for g = x (k > 0) or y."""
        A = self.A
        if k == 0:
            return {}
        g, dg, step = (A.x(), self.on_x, 1) if k > 0 else (A.y(), self.on_y, -1)
        val, deg = dg, step
        while deg != k:
            val = eadd(emul(A, dg, sigma({deg: ONE}, self.mu)), emul(A, g, val))
            deg += step
        return val

    def evaluate(self, e: dict) -> dict:
        A = self.A
        out: dict = {}
        for k, r in e.items():
            term = eadd(
                emul(A, self.on_poly(r), sigma({k: ONE}, self.mu)),
                emul(A, {0: r}, self.on_gen_power(k)),
            )
            out = eadd(out, term)
        return out

    def residuals(self) -> dict[str, dict]:
        """Images of the four defining relations; all zero iff well defined."""
        A, mu = self.A, self.mu
        x, y, h = A.x(), A.y(), A.h()
        sig = lambda e: sigma(e, mu)
        phi_h = {0: A.phi(H)}
        phi_inv_h = {0: A.phi(H, -1)}
        return {
            "xy": esub(
                eadd(emul(A, self.on_x, sig(y)), emul(A, x, self.on_y)),
                self.on_poly(A.phi_a(1)),
            ),
            "yx": esub(
                eadd(emul(A, self.on_y, sig(x)), emul(A, y, self.on_x)),
                self.on_poly(A.a),
            ),
            "xh": esub(
                eadd(emul(A, self.on_x, sig(h)), emul(A, x, self.on_h)),
                eadd(
                    emul(A, self.on_poly(phi_h[0]), sig(x)), emul(A, phi_h, self.on_x)
                ),
            ),
            "yh": esub(
                eadd(emul(A, self.on_y, sig(h)), emul(A, y, self.on_h)),
                eadd(
                    emul(A, self.on_poly(phi_inv_h[0]), sig(y)),
                    emul(A, phi_inv_h, self.on_y),
                ),
            ),
        }

    def is_valid(self) -> bool:
        return not any(self.residuals().values())


def from_xy(A: Algebra, mu, on_x: dict, on_y: dict) -> Derivation:
    """Fill in d(h) from d(a) = d(y) sigma(x) + y d(x), for linear a."""
    if len(A.a) != 2:
        raise ValueError("d(h) is only forced when a is linear")
    d_a = eadd(emul(A, on_y, sigma(A.x(), Fraction(mu))), emul(A, A.y(), on_x))
    return Derivation(A, mu, escale(d_a, 1 / A.a[1]), on_x, on_y)


def twisted_apply(A: Algebra, weight: int, on_h: tuple, p: tuple) -> tuple:
    """alpha(p) for the phi^weight-twisted derivation of K[h] with alpha(h) = on_h."""
    tau_h = A.phi(H, weight)
    if tau_h == H:
        return pmul(on_h, pderiv(p))
    quot, rem = pdivmod(psub(A.phi(p, weight), p), psub(tau_h, H))
    if rem:
        raise ArithmeticError("twisted difference quotient is not exact")
    return pmul(on_h, quot)


def twist_ok(A: Algebra, weight: int, on_h: tuple, mu) -> bool:
    """alpha(phi(h)) = mu * phi(alpha(h))."""
    return twisted_apply(A, weight, on_h, A.phi(H)) == pscale(A.phi(on_h), mu)


def weighted(A: Algebra, mu, alphas: dict[int, tuple], b: tuple = ZERO, c: tuple = ZERO) -> Derivation:
    """The derivation attached to weighted data, from the closed formulas

        d(h) = sum_i alpha_i(h) X_i
        d(x) = (c - phi(b) + b/mu) x + sum_{n>0} phi(alpha_{-n}(a)) y^{n-1}
        d(y) = (alpha_0(a)/a - phi^{-1}(c + b/mu) + b) mu y + sum_{m>0} alpha_m(a) mu x^{m-1}
    """
    mu = Fraction(mu)
    on_h: dict = {}
    on_x = {1: psub(padd(c, pscale(b, 1 / mu)), A.phi(b))}
    quot0 = ZERO
    on_y_extra: dict = {}
    for i, p in alphas.items():
        on_h = eadd(on_h, {i: p})
        alpha_a = twisted_apply(A, i, p, A.a)
        if i > 0:
            on_y_extra = eadd(on_y_extra, {i - 1: pscale(alpha_a, mu)})
        elif i < 0:
            on_x = eadd(on_x, {i + 1: A.phi(alpha_a)})
        else:
            quot0, rem = pdivmod(alpha_a, A.a)
            if rem:
                raise ArithmeticError("a does not divide alpha_0(a)")
    y_coeff = padd(psub(quot0, A.phi(padd(c, pscale(b, 1 / mu)), -1)), b)
    on_y = eadd({-1: pscale(y_coeff, mu)}, on_y_extra)
    clean = lambda e: {k: p for k, p in e.items() if p}
    return Derivation(A, mu, clean(on_h), clean(on_x), clean(on_y))


def q_int(m: int, q: Fraction) -> Fraction:
    return sum((q**i for i in range(m)), Fraction(0))


def yx_monomial(A: Algebra, m: int, n: int) -> dict:
    return emul(A, A.y(m), A.x(n)) if m else A.x(n)


def sigma_q_derivation(A: Algebra, alpha: dict, f: tuple, g: tuple) -> Derivation:
    """d(x) = g(y) + sum alpha_{m,n} y^m x^n,
    d(y) = f(x) - q sum [n]_q/[m+1]_q alpha_{m,n} y^{m+1} x^{n-1}."""
    q = A.q
    on_x = {-j: (c,) for j, c in enumerate(g) if c}
    on_y = {i: (c,) for i, c in enumerate(f) if c}
    for (m, n), c in alpha.items():
        on_x = eadd(on_x, escale(yx_monomial(A, m, n), c))
        beta = -q * q_int(n, q) / q_int(m + 1, q) * c
        on_y = eadd(on_y, escale(yx_monomial(A, m + 1, n - 1), beta))
    return from_xy(A, q, on_x, on_y)


def inner(A: Algebra, b: dict, mu) -> Derivation:
    """d_b = b sigma_mu(.) - (.) b on the generators."""
    comm = lambda g: esub(emul(A, b, sigma(g, Fraction(mu))), emul(A, g, b))
    return Derivation(A, mu, comm(A.h()), comm(A.x()), comm(A.y()))


def certificate_ok(A: Algebra, rows: list, system: list[Derivation]) -> bool:
    """sum_t a_it d_k(b_it) = delta_ik for every i, k."""
    if len(rows) != len(system):
        return False
    for i, row in enumerate(rows):
        for k, d in enumerate(system):
            total: dict = {}
            for a, b in row:
                total = eadd(total, emul(A, a, d.evaluate(b)))
            if total != ({0: ONE} if i == k else {}):
                return False
    return True


def graded_degree(d: int, k: int, w: int, e: dict):
    """Common degree of the monomials of e under deg h = w, deg x = k, deg y = d - k."""
    degree = None
    for g, p in e.items():
        gen_deg = g * k if g >= 0 else -g * (d - k)
        for i, c in enumerate(p):
            if c:
                t = i * w + gen_deg
                if degree is None:
                    degree = t
                elif degree != t:
                    return "inhomogeneous"
    return degree


def pair_conditions_ok(m: int, n: int, q: Fraction) -> bool:
    """No exceptional exponent for the disc pair (m, n): the ratio

        q_kl = (1 - [k]_q [l]_q q^{-k+1}) / (1 - [k]_q [l]_q)

    avoids q^i for the listed i, and q_kl != q^{2l-2} q_lk, both orderings.
    """
    def ratio(k, l):
        kl = q_int(k, q) * q_int(l, q)
        if kl == 1:
            return None
        return (1 - kl * q ** (-k + 1)) / (1 - kl)

    for k, l in ((m, n), (n, m)):
        value, other = ratio(k, l), ratio(l, k)
        if value is None or other is None:
            return False
        exponents = list(range(-2 * k + 3, -k + 2)) + list(range(l, 2 * l - 2)) + [2 * l - 1]
        if any(value == q**i for i in exponents) or value == q ** (2 * l - 2) * other:
            return False
    return True


# -- wire format -------------------------------------------------------------------


def rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_doc(p: tuple) -> list[str]:
    return [rat(c) for c in p]


def elem_doc(e: dict) -> dict:
    return {"terms": [{"deg": k, "poly": poly_doc(e[k])} for k in sorted(e)]}


def derivation_doc(d: Derivation) -> dict:
    return {
        "mu": rat(d.mu),
        "on_h": elem_doc(d.on_h),
        "on_x": elem_doc(d.on_x),
        "on_y": elem_doc(d.on_y),
    }


def algebra_doc(A: Algebra) -> dict:
    return {"a": poly_doc(A.a), "label": "custom", "phi": {"u": rat(A.u), "v": rat(A.v)}}


def parse_poly(doc) -> tuple:
    return trim(Fraction(c) for c in doc)


def parse_elem(doc) -> dict:
    return {t["deg"]: parse_poly(t["poly"]) for t in doc["terms"] if parse_poly(t["poly"])}


def parse_derivation(A: Algebra, doc) -> Derivation:
    return Derivation(
        A, Fraction(doc["mu"]), parse_elem(doc["on_h"]), parse_elem(doc["on_x"]), parse_elem(doc["on_y"])
    )
