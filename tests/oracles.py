"""Independent oracles used to cross-check the Groebner kernel.

Everything here is plain linear algebra over the coefficient field:
membership and syzygies are decided by exact Gaussian elimination on
monomial-indexed vectors, never through the division/Buchberger code
paths they are checking.  Scalars have their own arithmetic here, keyed
on the field's characteristic p (`s_coerce`, `s_add`, `s_sub`, `s_mul`,
`s_neg`, `s_inv`): exact rationals when p is 0, residues mod p
otherwise; of a `cicert.poly` field only `characteristic` is read.
Monomials here are exponent tuples, ordered by `tuple_key`, the
definition of each monomial order on tuples that the packed keys of
`cicert.poly` are tested against; polynomials are dicts {exponent tuple:
coefficient}.  The exceptions are `monic_vec_reduce`, the earlier
monic form of the division loop, and its plain scan for the first
divisor, `first_divisor`, kept on packed keys as the reference for the
fraction-free, memoised loop that replaced them.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# scalars over the field of characteristic p: ints and Fractions when p is
# 0, residues in [0, p) otherwise


def s_coerce(p, c):
    """The scalar of an int or a Fraction c."""
    if not p:
        return c
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def s_add(p, a, b):
    return (a + b) % p if p else a + b


def s_sub(p, a, b):
    return (a - b) % p if p else a - b


def s_mul(p, a, b):
    return a * b % p if p else a * b


def s_neg(p, a):
    return -a % p if p else -a


def s_inv(p, a):
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, -1, p) if p else 1 / Fraction(a)


# ---------------------------------------------------------------------------
# monomial orders and polynomial arithmetic on exponent tuples


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _plain_key(kind, m):
    if kind == "lex":
        return m
    if kind == "grevlex":
        return _grevlex_key(m)
    raise ValueError(f"unknown order kind {kind!r}")


def tuple_key(order):
    """The sort key of exponent tuples under a `MonomialOrder`."""
    def key(mono):
        if order.kind == "block":
            return (_grevlex_key(mono[:order.block]),
                    _plain_key(order.tail_kind, mono[order.block:]))
        return _plain_key(order.kind, mono)
    return key


def dict_add(field, f, g):
    p = field.characteristic
    out = dict(f)
    for m, c in g.items():
        out[m] = s_add(p, out.get(m, 0), c)
    return {m: c for m, c in out.items() if c != 0}


def dict_neg(field, f):
    return {m: s_neg(field.characteristic, c) for m, c in f.items()}


def dict_mul(field, f, g):
    p = field.characteristic
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = mono_mul(m1, m2)
            out[m] = s_add(p, out.get(m, 0), s_mul(p, c1, c2))
    return {m: c for m, c in out.items() if c != 0}


def dict_pow(field, f, n, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = dict_mul(field, out, f)
    return out


def dict_det(field, rows):
    """The determinant of a nonempty square matrix of dict polynomials, by
    cofactor expansion along the first row, every minor expanded afresh."""
    if len(rows) == 1:
        return dict(rows[0][0])
    total = {}
    for j, entry in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = dict_mul(field, entry, dict_det(field, minor))
        total = dict_add(field, total, dict_neg(field, term) if j % 2 else term)
    return total


def dict_terms(order, f):
    """The terms of a dict polynomial, descending under `order`."""
    return tuple(sorted(f.items(), key=lambda t: tuple_key(order)(t[0]),
                        reverse=True))


def dict_str(variables, order, f):
    """The text of a dict polynomial, written as cicert prints one: a
    coefficient is printed as its Fraction, with its sign in front."""
    chunks = []
    for m, c in dict_terms(order, f):
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(variables, m) if e)
        mag = abs(Fraction(c))
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(chunks) or "0"


# ---------------------------------------------------------------------------
# the monic division loop


def monic_vec(field, vec):
    """A vector dict {packed key: coefficient} divided by its lead
    coefficient."""
    p = field.characteristic
    inv = s_inv(p, next(iter(vec.values())))
    return {k: s_mul(p, c, inv) for k, c in vec.items()}


def first_divisor(key, basis, ring):
    """The first vector dict of `basis`, in list order, whose lead (its
    first key) divides the packed key `key`, or None: a plain scan of the
    whole list, the reference for the memo of `_vec_reduce`."""
    guards, divmask = ring.packer.guards, ring.packer.divmask
    probe = key | guards
    for vec in basis:
        if (probe - next(iter(vec))) & divmask == guards:
            return vec
    return None


def monic_vec_reduce(work, basis, ring):
    """The division loop of `cicert.poly` in its earlier, monic form: the
    normal form of a vector dict against monic vector dicts, the first
    dividing basis vector in list order (`first_divisor`) taken at each
    step, every coefficient formed by `s_sub` and `s_mul`.  The reference
    the fraction-free, memoised `_vec_reduce` is tested against."""
    p = ring.field.characteristic
    work = dict(work)
    heap = [-k for k in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        key = -heapq.heappop(heap)
        coeff = work.pop(key)
        if coeff == 0:
            continue
        hit = first_divisor(key, basis, ring)
        if hit is None:
            remainder[key] = coeff
            continue
        shift = key - next(iter(hit))
        for k2, c2 in list(hit.items())[1:]:
            k2 += shift
            if k2 not in work:
                heapq.heappush(heap, -k2)
            work[k2] = s_sub(p, work.get(k2, 0), s_mul(p, c2, coeff))
    return remainder


# ---------------------------------------------------------------------------
# linear algebra


def monomials_up_to(nvars, deg):
    """All exponent tuples of total degree <= deg."""
    out = []
    for total in range(deg + 1):
        for cuts in itertools.combinations(range(total + nvars - 1), nvars - 1):
            prev = -1
            mono = []
            for c in cuts:
                mono.append(c - prev - 1)
                prev = c
            mono.append(total + nvars - 2 - prev)
            out.append(tuple(mono))
    return out


class LinearSpan:
    """Echelon span of sparse vectors keyed by monomials.

    Vectors are dicts mono -> coefficient.  Pivots are chosen as the
    key-maximal monomial, so a vector lies in the span exactly when it
    reduces to zero.
    """

    def __init__(self, field, key):
        self.p = field.characteristic
        self.key = key
        self.rows = {}  # pivot mono -> reduced vector with coefficient 1

    def _reduce(self, vec):
        vec = dict(vec)
        p = self.p
        while vec:
            pivot = max(vec, key=self.key)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            factor = vec[pivot]
            for m, c in row.items():
                val = s_sub(p, vec.get(m, 0), s_mul(p, factor, c))
                if val == 0:
                    vec.pop(m, None)
                else:
                    vec[m] = val
        return vec

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def insert(self, vec) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        r = self._reduce(vec)
        if not r:
            return False
        pivot = max(r, key=self.key)
        inv = s_inv(self.p, r[pivot])
        self.rows[pivot] = {m: s_mul(self.p, c, inv) for m, c in r.items()}
        return True


def _poly_vec(f):
    return {m: c for m, c in f.terms}


def _shift_span(ring, gens, cap):
    """The span of every monomial shift of degree <= cap of the gens."""
    span = LinearSpan(ring.field, tuple_key(ring.order))
    for g in gens:
        if not g:
            continue
        for mono in monomials_up_to(ring.nvars, cap):
            span.insert(_poly_vec(g * ring.monomial(mono)))
    return span


def membership_oracle(f, gens, cap):
    """Is f a combination sum(h_i g_i) with deg(h_i) <= cap?

    Decided by eliminating the column space of all monomial shifts of
    the generators; independent of any Groebner machinery.
    """
    return _shift_span(f.ring, gens, cap).contains(_poly_vec(f))


def mod_square_oracle(gens, candidates, cap):
    """(holds, failing) of the question I = (candidates) + I^2, for the
    ideal I of `gens` in their ring A = k[x]/J0: the first nonzero
    generator, in order, outside K = (candidates) + J0 + every product
    of two nonzero generators, or None.  Membership is that of
    `membership_oracle`, against all the products at once, so a
    generator it finds outside K lies outside only up to the cap."""
    live = [g for g in gens if g]
    ring = live[0].ring
    squares = [a * b for a, b in itertools.combinations_with_replacement(live, 2)]
    span = _shift_span(ring, [*candidates, *ring.base_ideal, *squares], cap)
    failing = next((g for g in live if not span.contains(_poly_vec(g))), None)
    return failing is None, failing


def syzygy_oracle(targets, cap):
    """All relations sum(h_i f_i) = 0 with deg(h_i) <= cap, by nullspace.

    Returns tuples of polynomials (h_1, ..., h_m).  Columns are inserted
    in a fixed order; every column that fails to enlarge the span yields
    one nullspace generator via its tracked combination.
    """
    ring = targets[0].ring
    p = ring.field.characteristic
    key = tuple_key(ring.order)
    tracked = {}  # pivot -> (vector, combination)
    null = []

    def reduce_tracked(vec, combo):
        vec = dict(vec)
        combo = dict(combo)
        while vec:
            pivot = max(vec, key=key)
            if pivot not in tracked:
                return vec, combo
            row, row_combo = tracked[pivot]
            factor = vec[pivot]
            for m, c in row.items():
                val = s_sub(p, vec.get(m, 0), s_mul(p, factor, c))
                if val == 0:
                    vec.pop(m, None)
                else:
                    vec[m] = val
            for k, c in row_combo.items():
                val = s_sub(p, combo.get(k, 0), s_mul(p, factor, c))
                if val == 0:
                    combo.pop(k, None)
                else:
                    combo[k] = val
        return vec, combo

    for i, f in enumerate(targets):
        for mono in monomials_up_to(ring.nvars, cap):
            vec = _poly_vec(f * ring.monomial(mono)) if f else {}
            combo = {(i, mono): 1}
            r, rc = reduce_tracked(vec, combo)
            if not r:
                null.append(rc)
                continue
            pivot = max(r, key=key)
            inv = s_inv(p, r[pivot])
            tracked[pivot] = (
                {m: s_mul(p, c, inv) for m, c in r.items()},
                {k: s_mul(p, c, inv) for k, c in rc.items()},
            )
    rows = []
    for combo in null:
        row = [dict() for _ in targets]
        for (i, mono), c in combo.items():
            row[i][mono] = c
        rows.append(tuple(ring.poly_from_dict(d) for d in row))
    return rows


def fp_points(ring):
    """All points of the affine space over a prime field."""
    p = ring.field.characteristic
    return itertools.product(range(p), repeat=ring.nvars)


def eval_at(f, point):
    p = f.ring.field.characteristic
    total = 0
    for mono, c in f.terms:
        term = c
        for e, v in zip(mono, point):
            term = term * pow(v, e, p) % p
        total = (total + term) % p
    return total


def variety_points(gens, ring):
    return [pt for pt in fp_points(ring)
            if all(eval_at(g, pt) == 0 for g in gens if g)]


def bounded_zerodivisor_witness(g, base_gens, ring, deg_h, cap):
    """A witness h with h*g in (base) and h not in (base), degree-bounded.

    Returns None if no witness exists up to the bound (supports, but
    does not prove, that g is a non-zerodivisor).
    """
    span_base = LinearSpan(ring.field, tuple_key(ring.order))
    for b in base_gens:
        if not b:
            continue
        for mono in monomials_up_to(ring.nvars, cap):
            span_base.insert(_poly_vec(b * ring.monomial(mono)))
    candidates = []
    span = LinearSpan(ring.field, tuple_key(ring.order))
    tracked = []
    for mono in monomials_up_to(ring.nvars, deg_h):
        shifted = span_base._reduce(_poly_vec(g * ring.monomial(mono)))
        if not shifted:
            candidates.append(ring.monomial(mono))
            continue
        tracked.append((mono, shifted))
        span.insert(shifted)
    # single monomials that already annihilate modulo base are the
    # simplest witnesses; combinations would need full nullspace work
    for h in candidates:
        if not membership_oracle(h, base_gens, cap):
            return h
    return None
