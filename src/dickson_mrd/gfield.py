"""Exact arithmetic in the finite-field tower F_p <= F_q <= F_{q^m}.

Elements of F_{q^m} (q = p^h) are plain ints: the element with polynomial
coefficients (c_0, c_1, ..., c_{d-1}) over F_p, d = h*m, little-endian in a
fixed primitive modulus, is encoded as sum(c_i * p**i).  The class of x (the
polynomial variable) is the fixed generator g of the multiplicative group,
so g == p as an int.  Unless one is given, the modulus is the first monic
primitive polynomial of degree d in search order (`find_primitive_modulus`),
so every field within MAX_FIELD_ORDER has a default, and the same one on
every run.

Multiplication runs on discrete-log tables, addition on Zech logarithms,
so every operation is O(1) table lookups once the context is built.  The
subfield F_q sits inside F_{q^m} as the elements whose discrete log is a
multiple of (q^m - 1)/(q - 1).

Contexts are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

# Size bound for exact table-based arithmetic.
MAX_FIELD_ORDER = 2 ** 24
# Size bound for each table of the subspace automaton (see automaton_entries).
MAX_AUTOMATON_ENTRIES = 2 ** 21

def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def subspace_count(q: int, m: int) -> int:
    """Number of subspaces of F_q^m (m >= 1), by the recurrence
    G(n + 1) = 2 G(n) + (q^n - 1) G(n - 1) with G(0) = 1, G(1) = 2."""
    prev, cur = 1, 2
    for n in range(1, m):
        prev, cur = cur, 2 * cur + (q ** n - 1) * prev
    return cur


def automaton_entries(q: int, m: int) -> int:
    """Entries in the larger of the two q^m-column automaton tables:
    `step` holds (number of subspaces) x q^m, `sub` holds q^m x q^m."""
    return max(subspace_count(q, m), q ** m) * q ** m


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Polynomial arithmetic over F_p on little-endian coefficient lists.
# Only used while choosing and validating a modulus.
# ----------------------------------------------------------------------

def _poly_trim(a: Sequence[int]) -> List[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> List[int]:
    d = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    # reduce modulo the monic polynomial `mod`
    for k in range(len(res) - 1, d - 1, -1):
        c = res[k]
        if c == 0:
            continue
        res[k] = 0
        for i in range(d):
            res[k - d + i] = (res[k - d + i] - c * mod[i]) % p
    return _poly_trim(res[:d] if len(res) > d else res)


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> List[int]:
    result = [1]
    base = _poly_trim(a)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def is_primitive(modulus: Sequence[int], p: int) -> bool:
    """True when the class of x generates the multiplicative group.

    Order test: x^n = 1 and x^(n/r) != 1 mod f for each prime r | n, where
    n = p^d - 1.  A unit of order p^d - 1 leaves no room for a nonzero
    non-unit among the p^d - 1 nonzero residues, so F_p[x]/(f) is a field
    and f is irreducible; no separate irreducibility test is needed.
    """
    n = p ** (len(modulus) - 1) - 1
    x = [0, 1]
    if n < 1 or _poly_powmod(x, n, modulus, p) != [1]:
        return False
    return all(_poly_powmod(x, n // r, modulus, p) != [1] for r in _prime_factors(n))


def find_primitive_modulus(p: int, d: int) -> Tuple[int, ...]:
    """First monic primitive polynomial of degree d over F_p.

    Candidates are ordered by the integer sum(c_i * p**i) over the low
    coefficients.  This is the default modulus of every field, so a field
    built without one is the same field, element for element, on every run.
    A candidate with a root at 0 or 1 (constant term 0, or coefficient
    sum 0 mod p) is divisible by x or x - 1, so it is skipped untested.
    """
    for k in range(p ** d):
        coeffs = []
        kk = k
        for _ in range(d):
            coeffs.append(kk % p)
            kk //= p
        cand = coeffs + [1]
        if cand[0] and sum(cand) % p and is_primitive(cand, p):
            return tuple(cand)
    raise ValueError(f"no primitive polynomial of degree {d} over F_{p}")


class FieldCtx:
    """The tower F_p <= F_q <= F_{q^m} with table-based exact arithmetic.

    Parameters
    ----------
    p, h, m : int
        Prime characteristic, with q = p^h and extension degree m >= 2.
    modulus : sequence of int, optional
        Little-endian coefficients, each in 0..p-1 (never reduced mod p),
        of a monic primitive polynomial of degree h*m over F_p.  Defaults
        to the first one in search order, ``find_primitive_modulus(p, h*m)``.
    """

    def __init__(self, p: int, h: int, m: int, modulus: Optional[Sequence[int]] = None):
        if h < 1:
            raise ValueError("h must be >= 1")
        if m < 2:
            raise ValueError("m must be >= 2")
        d = h * m
        # A prime p is at least 2, so a field within the bound has p at most
        # the bound and d at most its log2.  Checking those first keeps a
        # huge p or d from costing a primality test or a huge power.
        if p > MAX_FIELD_ORDER or d > MAX_FIELD_ORDER.bit_length() - 1 \
                or p ** d > MAX_FIELD_ORDER:
            raise ValueError(f"field order p^(h*m) = {p}^{d} exceeds bound {MAX_FIELD_ORDER}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if modulus is None:
            modulus = find_primitive_modulus(p, d)
        else:
            modulus = tuple(modulus)
            if not all(0 <= c < p for c in modulus):
                raise ValueError(f"modulus coefficients must lie in 0..{p - 1}")
            if len(modulus) != d + 1:
                raise ValueError(f"modulus must have degree {d} (got {len(modulus) - 1})")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not is_primitive(modulus, p):
                raise ValueError("modulus is not primitive")

        self.p = p
        self.h = h
        self.m = m
        self.q = p ** h
        self.degree = d
        self.order = p ** d
        self.modulus = modulus
        self.mult_order = self.order - 1
        self.subfield_index = self.mult_order // (self.q - 1)

        self._build_tables()

        self.g = self.exp[1]
        # q^i mod (q^m - 1) for Frobenius exponent arithmetic
        self._qpow = [pow(self.q, i, self.mult_order) for i in range(m)]
        self._ppow = [pow(self.p, i, self.mult_order) for i in range(d)]
        self._half = self.mult_order // 2 if p != 2 else 0
        self._build_subfield_tables()
        self._coords_map = None
        self._conj_logs = None
        self._automaton = None

    # -- table construction -------------------------------------------------

    def _build_tables(self) -> None:
        p, d, n = self.p, self.degree, self.mult_order
        mod_low = self.modulus[:d]
        exp = [0] * n
        log = [-1] * self.order
        state = [0] * d
        state[0] = 1
        pp = [p ** i for i in range(d)]
        for k in range(n):
            val = 0
            for i in range(d):
                val += state[i] * pp[i]
            if log[val] != -1:
                raise ValueError("modulus is not primitive (cycle shorter than q^m - 1)")
            exp[k] = val
            log[val] = k
            lead = state[d - 1]
            new = [0] * d
            for i in range(d - 1):
                new[i + 1] = state[i]
            if lead:
                for i in range(d):
                    new[i] = (new[i] - lead * mod_low[i]) % p
            state = new
        if exp[0] != 1 or state != ([1] + [0] * (d - 1)):
            raise ValueError("modulus failed table closure check")
        # Zech logarithms: zech[k] = log(1 + g^k), -1 when 1 + g^k = 0
        zech = [-1] * n
        for k in range(n):
            val = exp[k]
            c0 = val % p
            bumped = val - c0 + (c0 + 1) % p
            zech[k] = log[bumped] if bumped else -1
        self.exp = exp
        self.log = log
        self.zech = zech

    def _build_subfield_tables(self) -> None:
        q, s, n = self.q, self.subfield_index, self.mult_order
        elems = [0] + [self.exp[(k * s) % n] for k in range(q - 1)]
        index = {e: i for i, e in enumerate(elems)}
        self.fq_elems = tuple(elems)
        self._fq_index = index
        self.fq_add = [[index[self.add(a, b)] for b in elems] for a in elems]
        self.fq_mul = [[index[self.mul(a, b)] for b in elems] for a in elems]
        self.fq_neg = [index[self.neg(a)] for a in elems]
        self.fq_inv = [0] + [index[self.inv(a)] for a in elems[1:]]

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        i = self.log[a]
        j = self.log[b]
        z = self.zech[(j - i) % self.mult_order]
        if z < 0:
            return 0
        return self.exp[(i + z) % self.mult_order]

    def neg(self, a: int) -> int:
        if a == 0 or self.p == 2:
            return a
        return self.exp[(self.log[a] + self._half) % self.mult_order]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.mult_order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[(-self.log[a]) % self.mult_order]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        return self.exp[(self.log[a] * e) % self.mult_order]

    # -- Galois structure ----------------------------------------------------

    def frobenius(self, x: int, i: int) -> int:
        """x raised to the q^i-th power (i reduced mod m)."""
        if x == 0:
            return 0
        return self.exp[(self.log[x] * self._qpow[i % self.m]) % self.mult_order]

    def p_power(self, x: int, k: int) -> int:
        """x raised to the p^k-th power (k reduced mod h*m)."""
        if x == 0:
            return 0
        return self.exp[(self.log[x] * self._ppow[k % self.degree]) % self.mult_order]

    def trace(self, x: int) -> int:
        """Relative trace onto F_q: sum of the m conjugates x^(q^j)."""
        acc = 0
        for j in range(self.m):
            acc = self.add(acc, self.frobenius(x, j))
        return acc

    def norm(self, x: int) -> int:
        """Relative norm onto F_q: product of the m conjugates."""
        if x == 0:
            return 0
        return self.exp[(self.log[x] * self.subfield_index) % self.mult_order]

    def norm_fiber(self, a: int) -> List[int]:
        """All x with norm(x) = a, ascending by discrete log.  This is the
        one check of an F_q parameter: a must be a nonzero element of F_q."""
        if not a:
            raise ValueError("parameter must be nonzero")
        if not self.in_fq(a):
            raise ValueError("parameter must lie in the subfield F_q")
        j = self.log[a] // self.subfield_index
        return [self.exp[e] for e in range(j, self.mult_order, self.q - 1)]

    def in_fq(self, x: int) -> bool:
        return x == 0 or self.log[x] % self.subfield_index == 0

    def fq_index(self, x: int) -> int:
        """Canonical index of a subfield element: 0 -> 0, g^(k*s) -> k+1."""
        return self._fq_index[x]

    def fq_elem(self, i: int) -> int:
        return self.fq_elems[i]

    # -- enumeration and coordinates ------------------------------------------

    def elements(self) -> Iterator[int]:
        """All field elements: 0 first, then g^0, g^1, ..."""
        yield 0
        yield from self.exp

    def nonzero(self) -> Iterator[int]:
        yield from self.exp

    def coords(self, x: int) -> Tuple[int, ...]:
        """F_q-coordinates (as canonical subfield indices) of x in the basis
        1, g, g^2, ..., g^(m-1) of F_{q^m} over F_q."""
        if self._coords_map is None:
            self._build_coords()
        return self._coords_map[x]

    def from_fq_coords(self, cs: Sequence[int]) -> int:
        """Inverse of coords: element sum(fq_elem(c_j) * g^j)."""
        acc = 0
        for j, c in enumerate(cs):
            acc = self.add(acc, self.mul(self.fq_elems[c], self.pow(self.g, j)))
        return acc

    def _build_coords(self) -> None:
        mapping = {}
        gpow = [self.pow(self.g, j) for j in range(self.m)]
        for cs in itertools.product(range(self.q), repeat=self.m):
            acc = 0
            for j, c in enumerate(cs):
                acc = self.add(acc, self.mul(self.fq_elems[c], gpow[j]))
            mapping[acc] = cs
        if len(mapping) != self.order:
            raise RuntimeError("g-power basis failed to span the field")
        self._coords_map = mapping

    def conj_logs(self) -> List[List[int]]:
        """conj_logs[j][i] = log((g^j)^(q^i)), the Frobenius images of the basis."""
        if self._conj_logs is None:
            n = self.mult_order
            self._conj_logs = [[j * qi % n for qi in self._qpow] for j in range(self.m)]
        return self._conj_logs

    def subspace_automaton(self) -> Optional[Tuple[List[List[int]], List[List[int]], List[int]]]:
        """(step, sub, dim) on the lattice of F_q-subspaces of F_{q^m}, or
        None when `step` or `sub` would hold more than MAX_AUTOMATON_ENTRIES
        entries (`automaton_entries`).

        States are ids numbered breadth first from 0 = {0}: step[s][x] is the
        id of s + F_q x, dim[s] is the F_q-dimension of s, and sub[a][b] is
        a - b, so the span of the elements x_1, ..., x_k is reached from 0
        in k steps.  Table entries are shared int objects."""
        if automaton_entries(self.q, self.m) > MAX_AUTOMATON_ENTRIES:
            return None
        if self._automaton is None:
            self._automaton = self._build_automaton()
        return self._automaton

    def _build_automaton(self) -> Tuple[List[List[int]], List[List[int]], List[int]]:
        p, q, n, s = self.p, self.q, self.mult_order, self.subfield_index
        exp, log = self.exp, self.log
        els = list(range(self.order))
        # sub[a][b] = a - b, built up one base-p digit (F_p-coefficient) at a
        # time from the low end; els[...] makes every entry a shared object
        sub, w = [[0]], 1
        for _ in range(self.degree):
            sub = [[els[t + r] for t in [(ak - bk) % p * w for bk in range(p)] for r in sub[a0]]
                   for ak in range(p) for a0 in range(w)]
            w *= p
        # lines[x] = F_q x, closed under negation, so S + F_q x = {u - v}
        lines = [()] + [[0] + [exp[(log[x] + k * s) % n] for k in range(q - 1)]
                        for x in els[1:]]
        spaces, dim, step = [frozenset([0])], [0], []
        index = {spaces[0]: 0}
        while len(step) < len(spaces):
            sid = len(step)
            space = spaces[sid]
            row = [None] * self.order
            for u in space:
                row[u] = sid
            # every element outside `space` goes to the one superspace of
            # dimension + 1 it spans with `space`, each superspace once
            for x in els:
                if row[x] is None:
                    sup = frozenset([sub[u][v] for u in space for v in lines[x]])
                    t = index.get(sup)
                    if t is None:
                        t = index[sup] = len(spaces)
                        spaces.append(sup)
                        dim.append(dim[sid] + 1)
                    for y in sup:
                        if row[y] is None:
                            row[y] = t
            step.append(row)
        return step, sub, dim

    # -- serialization ---------------------------------------------------------

    def coeffs(self, x: int) -> Tuple[int, ...]:
        """Little-endian F_p coefficient vector of length h*m."""
        out = []
        for _ in range(self.degree):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def from_coeffs(self, cs: Sequence[int]) -> int:
        if len(cs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(cs)}")
        acc = 0
        for c in reversed(cs):
            acc = acc * self.p + int(c) % self.p
        return acc

    def describe(self) -> dict:
        return {"p": self.p, "h": self.h, "m": self.m, "modulus": list(self.modulus)}

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCtx(p={self.p}, h={self.h}, m={self.m})"


def make_field(p: int, h: int, m: int, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Build a verified field context for the tower F_p <= F_q <= F_{q^m}."""
    return FieldCtx(p, h, m, modulus)
