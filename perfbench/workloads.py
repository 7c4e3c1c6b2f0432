"""Seeded workloads: source generators and the CLI jobs run on them.

Everything a workload feeds the program is generated here from the
workload seed, so an edit elsewhere in the repository cannot change what
the benchmark measures.  A job is one ``skalc`` CLI invocation on a JSON
source file written at set-up time.

Each workload cycles through a fixed list of job templates (command and
input size); the seed only draws the contents.  That keeps the mix of
small and large jobs, and so the run-level statistics, the same from seed
to seed while every input differs.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 1
# Seed of the fixed representative job timed in a fresh interpreter.
COLD_SEED = 7919

SANDWICH_GRID = "0:6:1/2"
TWO_USER_GRID = "0:2:1/4"


@dataclass
class Job:
    """One CLI invocation; ``argv`` holds ``{src}``/``{stem}`` placeholders."""

    kind: str
    source: dict
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    group: int = -1


# ------------------------------------------------------------ generators --


def _users(n: int) -> list[str]:
    return [f"u{i}" for i in range(n)]


def _hypergraph(users, edges) -> dict:
    return {"kind": "hypergraph", "users": users,
            "edges": [{"id": f"e{k}", "on": on, "bits": bits} for k, (on, bits) in enumerate(edges)]}


def random_hypergraph(rng: random.Random, n: int, m: int, integer_max: int = 0) -> dict:
    """Covered hypergraph with ``m`` edges on ``n`` users.

    Weights are small rationals p/q (p in 1..8, q in 1,2,4), or integers in
    1..integer_max when that is set.
    """
    users = _users(n)
    while True:
        edges = []
        covered = set()
        for _ in range(m):
            on = sorted(rng.sample(range(n), rng.randint(1, n)))
            if integer_max:
                bits = str(rng.randint(1, integer_max))
            else:
                bits = str(Fraction(rng.randint(1, 8), rng.choice((1, 2, 4))))
            edges.append(([users[i] for i in on], bits))
            covered.update(on)
        if len(covered) == n:
            return _hypergraph(users, edges)


def random_connected_pin(rng: random.Random, n: int, m: int, integer_max: int = 0) -> dict:
    """Connected pairwise source: a random spanning tree plus ``m - n + 1``
    random extra pairs (parallel pairs allowed)."""
    users = _users(n)
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    all_pairs = [(j, i) for i in range(n) for j in range(i)]
    pairs += [rng.choice(all_pairs) for _ in range(m - n + 1)]
    edges = []
    for i, j in pairs:
        if integer_max:
            bits = str(rng.randint(1, integer_max))
        else:
            bits = str(Fraction(rng.randint(1, 6), rng.choice((1, 2, 3))))
        edges.append(([users[i], users[j]], bits))
    return _hypergraph(users, edges)


def channel_pmf(rng: random.Random, channel: str) -> dict:
    """Two-user pmf: a bit Z1 through a random binary-input channel to Z2.

    ``symmetric`` flips a uniform bit (2x2), ``erasure`` flips or erases a
    uniform bit (2x3), and ``z`` only ever turns a 1 into a 0, which
    leaves a zero cell (2x2).  Uniformly random tables make sweep cost vary about 3x
    from draw to draw; these families keep each template's cost within
    about 20%.
    """
    if channel == "symmetric":
        p = rng.uniform(0.05, 0.3)
        cols, rows = 2, [(0, 0, (1 - p) / 2), (0, 1, p / 2), (1, 0, p / 2), (1, 1, (1 - p) / 2)]
    elif channel == "erasure":
        p, e = rng.uniform(0.03, 0.1), rng.uniform(0.1, 0.3)
        cols, rows = 3, [(x, y, m / 2) for x in (0, 1)
                         for y, m in ((x, 1 - p - e), (1 - x, p), (2, e))]
    else:
        q, a = rng.uniform(0.1, 0.3), rng.uniform(0.4, 0.6)
        cols, rows = 2, [(0, 0, a), (1, 0, (1 - a) * q), (1, 1, (1 - a) * (1 - q))]
    return {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, cols],
            "table": [list(r) for r in rows]}


def partitions(n: int):
    """All set partitions of range(n) as lists of bitmasks (restricted
    growth strings), the benchmark's own enumerator for checks."""
    a = [0] * n

    def rec(i, top):
        if i == n:
            blocks = [0] * (top + 1)
            for k, lab in enumerate(a):
                blocks[lab] |= 1 << k
            yield blocks
            return
        for lab in range(top + 2):
            a[i] = lab
            yield from rec(i + 1, max(top, lab))

    yield from rec(1, 0)


def edge_list(source: dict):
    """(incidence bitmask, Fraction weight) per edge of a hypergraph dict."""
    index = {u: i for i, u in enumerate(source["users"])}
    out = []
    for e in source["edges"]:
        mask = 0
        for u in e["on"]:
            mask |= 1 << index[u]
        out.append((mask, Fraction(e["bits"])))
    return out


def partition_info(edges, blocks) -> Fraction:
    """I_P of a hypergraph: (sum over edges of w * (blocks touched - 1)) / (|P| - 1)."""
    acc = Fraction(0)
    for mask, w in edges:
        acc += w * (sum(1 for b in blocks if b & mask) - 1)
    return acc / (len(blocks) - 1)


def brute_force_mmi(source: dict) -> Fraction:
    """min over partitions of I_P, on integer-scaled weights for speed."""
    edges = edge_list(source)
    scale = math.lcm(*(w.denominator for _, w in edges))
    scaled = [(mask, int(w * scale)) for mask, w in edges]
    best_num, best_den = None, 1
    for blocks in partitions(len(source["users"])):
        if len(blocks) < 2:
            continue
        num = 0
        for mask, w in scaled:
            num += w * (sum(1 for b in blocks if b & mask) - 1)
        if best_num is None or num * best_den < best_num * (len(blocks) - 1):
            best_num, best_den = num, len(blocks) - 1
    return Fraction(best_num, best_den * scale)


# -------------------------------------------------------------- workloads --


MMI_ARGV = ("mmi", "{src}", "--cap", "9")
RCO_ARGV = ("rco", "{src}")


def _exact_partition(rng: random.Random, index: int) -> list[Job]:
    # Per cycle: mmi and rco at 8 users, mmi and rco at 9 users, and mmi
    # alone at 9 users (its certificate runs rco outside the timed loop).
    # The median job is then mmi at 8 users and the tail is mmi at 9.
    n = (8, 9, 9)[index % 3]
    src = random_hypergraph(rng, n, rng.randint(11, 13))
    jobs = [Job("mmi", src, MMI_ARGV)]
    if index % 3 != 2:
        jobs.append(Job("rco", src, RCO_ARGV))
    return jobs


def _budget_curves(rng: random.Random, index: int) -> list[Job]:
    # Six light shapes of like cost (about 0.1 s) and three heavy pairwise
    # ones (about 0.8 s) per cycle: the median job sits inside the light
    # shapes and the tail inside the heavy ones, not on a gap between them.
    shapes = (("pin", 5, 7), ("hg", 5, 8), ("pin", 5, 7), ("hg", 4, 10), ("pin", 5, 7),
              ("hg", 6, 6), ("pin", 6, 9), ("pin", 6, 9), ("pin", 6, 9))
    kind, n, m = shapes[index % len(shapes)]
    if kind == "hg":
        src = random_hypergraph(rng, n, m)
        return [Job("sandwich", src, ("sandwich", "{src}", "--grid", SANDWICH_GRID))]
    src = random_connected_pin(rng, n, m)
    cap = brute_force_mmi(src)
    # The exact rate-constrained curve of a pairwise source,
    # min(R / (n - 2), cap), makes the transferred upper bound tight.
    upper = [["0", "0"], [str((n - 2) * cap), str(cap)]]
    return [Job("sandwich", src,
                ("sandwich", "{src}", "--grid", SANDWICH_GRID, "--cs-upper", "{stem}.upper.json"),
                params={"pin_cap": str(cap)}, files={"upper.json": upper})]


def _two_user_sweep(rng: random.Random, index: int) -> list[Job]:
    # Small alphabets only: a 3x3 or 4x4 sweep takes 3-8 s, too long for a
    # run to hold a useful number of jobs.
    channel, mode = (("symmetric", "compressed"), ("erasure", "constrained"),
                     ("z", "compressed"), ("erasure", "compressed"))[index % 4]
    argv = ["two-user", "{src}", "--mode", mode, "--grid", TWO_USER_GRID,
            "--seed", str(rng.randrange(1000))]
    if index % 2:
        argv += ["--emit-witness", "{stem}.witness.json"]
    return [Job("two-user", channel_pmf(rng, channel), tuple(argv), params={"mode": mode})]


def _tree_source(rng: random.Random, trees: int):
    """Pairwise integer-weight source and a blocklength in 2..8 at which
    tree packing holds between trees - 2 and trees spanning trees.

    Packing cost grows steeply with the tree count, so drawing the count
    from a narrow band keeps each template's cost alike from seed to seed.
    """
    while True:
        n = rng.choice((5, 6))
        src = random_connected_pin(rng, n, n + rng.randint(1, n - 1), integer_max=3)
        strength = brute_force_mmi(src)
        blocklength = min(max(int(trees / strength), 2), 8)
        if trees - 2 <= math.floor(blocklength * strength) <= trees:
            return src, blocklength


def _linear_schemes(rng: random.Random, index: int) -> list[Job]:
    # Binning (GF(2) work) and tree packing (forest partition) alternate;
    # the two largest tree templates form the tail.
    shapes = (("binning", 4, 32), ("tree", 6, 0), ("binning", 6, 24), ("tree", 10, 0),
              ("binning", 8, 16), ("tree", 12, 0), ("binning", 5, 48), ("tree", 18, 0),
              ("tree", 18, 0))
    scheme, size, blocklength = shapes[index % len(shapes)]
    if scheme == "binning":
        src = random_hypergraph(rng, size, size + 2, integer_max=3)
    else:
        src, blocklength = _tree_source(rng, size)
    argv = ("simulate", "{src}", "--scheme", scheme, "-n", str(blocklength),
            "--seed", str(rng.randrange(1000)))
    return [Job(scheme, src, argv, params={"blocklength": blocklength})]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # (rng, index) -> list[Job]
    cycle: int  # groups per template cycle
    groups: int  # groups in the pool: whole cycles, a few times what a run reaches
    trace_groups: int  # groups replayed by a traced run: whole cycles
    cold: int  # template index of the representative cold job


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-partition",
                 "mmi and rco at 8-9 users: Bell-sized partition enumeration and one "
                 "2^n-column exact simplex per rco job",
                 _exact_partition, cycle=3, groups=120, trace_groups=6, cold=0),
        Workload("budget-curves",
                 "sandwich on general and pairwise sources: subset scan, cutting-plane "
                 "LPs and curve reconstruction",
                 _budget_curves, cycle=9, groups=135, trace_groups=18, cold=3),
        Workload("two-user-sweep",
                 "two-user on small pmfs: the only float/numpy path, batched "
                 "alternating maximization and float envelopes",
                 _two_user_sweep, cycle=4, groups=36, trace_groups=4, cold=0),
        Workload("linear-schemes",
                 "simulate with binning and tree packing: GF(2) basis work and "
                 "matroid forest partition",
                 _linear_schemes, cycle=9, groups=270, trace_groups=27, cold=4),
    )
}


def make_jobs(workload: Workload, seed: int) -> list[Job]:
    """The workload's job pool for ``seed``: same seed, same jobs."""
    rng = random.Random(f"{workload.name}/{seed}")
    jobs = []
    for index in range(workload.groups):
        for job in workload.make(rng, index):
            job.group = index
            jobs.append(job)
    return jobs


def cold_group(workload: Workload) -> list[Job]:
    """The group holding the fixed representative job (its first job),
    drawn independently of the run's seed."""
    rng = random.Random(f"{workload.name}/cold/{COLD_SEED}")
    return workload.make(rng, workload.cold)


def write_jobs(jobs: list[Job], root: str) -> list[list[str]]:
    """Write each distinct source (and each job's side files) under
    ``root``; return the jobs' argvs."""
    os.makedirs(root)
    sources = {}
    argvs = []
    for k, job in enumerate(jobs):
        stem = os.path.join(root, f"job{k:04d}")
        if id(job.source) not in sources:
            sources[id(job.source)] = f"{stem}.json"
            with open(f"{stem}.json", "w", encoding="utf-8") as fh:
                json.dump(job.source, fh)
        for suffix, data in job.files.items():
            with open(f"{stem}.{suffix}", "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        argvs.append([a.format(src=sources[id(job.source)], stem=stem) for a in job.argv])
    return argvs
