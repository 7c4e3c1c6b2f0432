"""Shared source builders for the test suite.

Everything here returns plain JSON-shaped dicts so tests can both parse them
in-process and write them to disk for CLI runs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def hg(users, edges):
    """Hypergraph source dict. ``edges`` is (id, on, bits) triples."""
    out = []
    for eid, on, bits in edges:
        if isinstance(bits, Fraction):
            bits = str(bits)
        out.append({"id": eid, "on": list(on), "bits": bits})
    return {"kind": "hypergraph", "users": list(users), "edges": out}


# Three users share a common bit; users 1,2 and 2,3 share one more each.
EXAMPLE1 = hg("123", [("a", "123", 1), ("b", "12", 1), ("c", "23", 1)])

# Unit pairwise triangle.
TRIANGLE = hg("123", [("ab", "12", 1), ("ac", "13", 1), ("bc", "23", 1)])

# Star whose best budgeted retention is fractional (keep half of the heavy
# edge); the all-or-nothing envelope is strictly worse here.
STAR = hg("012", [("e1", "01", 1), ("e2", "02", 2)])

PATH3 = hg("123", [("ab", "12", 1), ("bc", "23", 1)])

# One edge seen by everybody: omniscience is free.
OMNI = hg("12", [("all", "12", 2)])


def _intro_rows():
    rows = []
    for x0, x1, j in itertools.product((0, 1), repeat=3):
        z1 = 2 * x0 + x1
        z2 = 2 * (x0 if j == 0 else x1) + j
        rows.append([z1, z2, 0.125])
    return rows


# Two users: Z1 = (X0, X1), Z2 = (X_J, J) with X0, X1, J fair bits.
INTRO_PMF = {"kind": "pmf", "users": ["1", "2"], "alphabets": [4, 4],
             "table": _intro_rows()}

# Both users see the same fair bit.
BIT_PMF = {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 2],
           "table": [[0, 0, 0.5], [1, 1, 0.5]]}

# Z1 = (A, B), Z2 = A.
HALF_PMF = {"kind": "pmf", "users": ["1", "2"], "alphabets": [4, 2],
            "table": [[2 * a + b, a, 0.25] for a in (0, 1) for b in (0, 1)]}

INDEP_PMF = {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 2],
             "table": [[x, y, 0.25] for x in (0, 1) for y in (0, 1)]}


def binary_channel_pmf(rng, channel):
    """A uniform bit Z1 through a random binary-input channel to Z2.

    ``symmetric`` flips the bit (2x2), ``erasure`` flips or erases it (2x3)
    and ``z`` only ever turns a 1 into a 0, leaving a zero cell (2x2).
    """
    if channel == "symmetric":
        p = rng.uniform(0.05, 0.3)
        cols, rows = 2, [[0, 0, (1 - p) / 2], [0, 1, p / 2], [1, 0, p / 2], [1, 1, (1 - p) / 2]]
    elif channel == "erasure":
        p, e = rng.uniform(0.03, 0.1), rng.uniform(0.1, 0.3)
        cols, rows = 3, [[x, y, m / 2] for x in (0, 1)
                         for y, m in ((x, 1 - p - e), (1 - x, p), (2, e))]
    else:
        q, a = rng.uniform(0.1, 0.3), rng.uniform(0.4, 0.6)
        cols, rows = 2, [[0, 0, a], [1, 0, (1 - a) * q], [1, 1, (1 - a) * (1 - q)]]
    return {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, cols], "table": rows}


def random_hypergraph(rng, n_users=None, n_edges=None, integer_weights=False):
    """Random covered hypergraph; weights are small positive rationals."""
    n = n_users if n_users is not None else rng.randint(2, 6)
    m = n_edges if n_edges is not None else rng.randint(1, 10)
    users = [str(i) for i in range(n)]
    while True:
        edges = []
        covered = set()
        for k in range(m):
            on = rng.sample(users, rng.randint(1, n))
            if integer_weights:
                w = Fraction(rng.randint(1, 3))
            else:
                w = Fraction(rng.randint(1, 8), rng.choice([1, 2, 4]))
            edges.append((f"e{k}", on, w))
            covered.update(on)
        if len(covered) == n:
            return hg(users, edges)


def random_connected_pin(rng, n_users=None):
    """Random connected multigraph with pairwise edges and rational weights."""
    n = n_users if n_users is not None else rng.randint(3, 6)
    users = [str(i) for i in range(n)]
    pairs = []
    for i in range(1, n):
        pairs.append((rng.randrange(i), i))
    all_pairs = [(j, i) for i in range(n) for j in range(i)]
    for _ in range(rng.randint(0, n)):
        pairs.append(rng.choice(all_pairs))
    edges = []
    for k, (i, j) in enumerate(pairs):
        w = Fraction(rng.randint(1, 6), rng.choice([1, 2, 3]))
        edges.append((f"e{k}", [users[i], users[j]], w))
    return hg(users, edges)


def hypergraph_as_pmf(data):
    """Instantiate an integer-weight hypergraph dict as an explicit pmf.

    Each edge becomes an independent uniform variable on 2**bits values and a
    user's symbol encodes the values of its incident edges, so the two source
    kinds describe the same joint distribution.
    """
    users = data["users"]
    edges = data["edges"]
    sizes = [2 ** int(e["bits"]) for e in edges]
    total = 1
    for s in sizes:
        total *= s
    rows = []
    for combo in itertools.product(*(range(s) for s in sizes)):
        syms = []
        for u in users:
            val = 0
            for e, v, s in zip(edges, combo, sizes):
                if u in e["on"]:
                    val = val * s + v
            syms.append(val)
        rows.append(syms)
    alphabets = [max(r[i] for r in rows) + 1 for i in range(len(users))]
    table = [[*syms, 1.0 / total] for syms in rows]
    return {"kind": "pmf", "users": list(users), "alphabets": alphabets,
            "table": table}
