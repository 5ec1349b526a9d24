"""Closed-form expectations that let the benchmark check its own outputs.

By Delsarte (1978, *Bilinear forms over a finite field*, Thm 5.6) the rank
distance distribution of an MRD code of m x m matrices over F_q depends only
on (q, m, d), whether the code is linear or not: every codeword has exactly
A_r other codewords at rank distance r.  So an exhaustive pair histogram of
an N-word MRD code must equal N * A_r / 2 for every r, with no reference run.
"""

from __future__ import annotations

from typing import Dict, List, Mapping


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def delsarte_weights(q: int, m: int, d: int) -> Dict[int, int]:
    """A_r for a square m x m MRD code with minimum rank distance d:
    the number of codewords at rank distance r from any fixed codeword."""
    weights = {}
    for s in range(m - d + 1):
        r = d + s
        total = sum(
            (-1) ** j * q ** (j * (j - 1) // 2) * gaussian_binomial(r, j, q)
            * (q ** (m * (s - j + 1)) - 1)
            for j in range(s + 1)
        )
        weights[r] = gaussian_binomial(m, r, q) * total
    return weights


def mrd_size(q: int, m: int, d: int) -> int:
    return q ** (m * (m - d + 1))


def expected_histogram(q: int, m: int, d: int) -> Dict[int, int]:
    """Unordered pair counts by rank distance for any MRD code at (q, m, d)."""
    n = mrd_size(q, m, d)
    return {r: n * a // 2 for r, a in delsarte_weights(q, m, d).items()}


def scan_pairs(component_sizes: List[int], mode: str) -> int:
    """Pairs whose rank `min_distance` evaluates when it does not exit early,
    computed from component sizes: every unordered pair in bruteforce mode;
    in orbit mode, each component's representative against every word of
    that component and of the components after it."""
    n = sum(component_sizes)
    if mode == "bruteforce":
        return n * (n - 1) // 2
    if mode != "orbit":
        raise ValueError(f"unknown mode {mode!r}")
    pairs = 0
    for i, size in enumerate(component_sizes):
        pairs += sum(component_sizes[i + 1:])
        if size >= 2:
            pairs += size - 1
    return pairs


def check_histogram(hist: Mapping[int, int], q: int, m: int, d: int) -> List[str]:
    """Problems with an exhaustive histogram of an MRD code, or []."""
    want = expected_histogram(q, m, d)
    n = mrd_size(q, m, d)
    problems = []
    if dict(hist) != want:
        problems.append(f"histogram {dict(hist)} != Delsarte {want}")
    if sum(hist.values()) != n * (n - 1) // 2:
        problems.append(f"histogram sums to {sum(hist.values())}, not N(N-1)/2")
    return problems


def check_report(report: Mapping, min_distance: int, mode: str) -> List[str]:
    """Problems with an MRD verdict (MrdReport.as_dict() form), or []."""
    problems = []
    if report.get("mrd") is not True:
        problems.append(f"mrd is {report.get('mrd')!r}, expected true")
    if report.get("min_distance") != min_distance:
        problems.append(
            f"min_distance {report.get('min_distance')!r}, expected {min_distance}"
        )
    if report.get("mode") != mode:
        problems.append(f"mode {report.get('mode')!r}, expected {mode!r}")
    return problems
