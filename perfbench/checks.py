"""Output checks that hold on any seed.

Each check reads a job's stdout and the source the benchmark generated,
and proves the answer right without trusting the program: exact
certificates for the rational solvers, closed forms and bounds for the
others.  ``check_outputs`` returns the problems found per job index.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import TWO_USER_GRID, brute_force_mmi, edge_list, partition_info

FLOAT_TOL = 1e-9
GOLDEN_TOL = 1e-3


def _grid(text: str) -> list[Fraction]:
    start, stop, step = (Fraction(p) for p in text.split(":"))
    out = []
    while start <= stop:
        out.append(start)
        start += step
    return out


def check_exact_pair(source: dict, mmi_out: str, rco_out: str) -> list[str]:
    """Certificate for mmi and rco together.

    The rco rates must satisfy r(B) >= H(B | B^c) for every proper subset B
    and sum to the reported rco; the reported finest partition must attain
    the reported mmi; and H(V) - sum(r) must equal that I_P.  A feasible
    rate vector and a partition meeting this equality are both optimal.
    """
    users = source["users"]
    n = len(users)
    edges = edge_list(source)
    mmi_doc = json.loads(mmi_out)
    rco_doc = json.loads(rco_out)
    problems = []
    rates = [Fraction(rco_doc["rates"][u]) for u in users]
    if any(r < 0 for r in rates):
        problems.append("negative rate")
    if sum(rates) != Fraction(rco_doc["rco"]):
        problems.append("rates do not sum to rco")
    for b in range(1, (1 << n) - 1):
        inside = sum((w for mask, w in edges if mask & ~b == 0), Fraction(0))
        if sum(r for i, r in enumerate(rates) if b >> i & 1) < inside:
            problems.append(f"rates violate subset {b:b}")
            break
    index = {u: i for i, u in enumerate(users)}
    blocks = []
    for block in mmi_doc["finest"]:
        mask = 0
        for u in block:
            mask |= 1 << index[u]
        blocks.append(mask)
    union = 0
    for mask in blocks:
        union |= mask
    # disjoint blocks covering everyone: their sum equals their union
    if len(blocks) < 2 or not sum(blocks) == union == (1 << n) - 1:
        return problems + ["finest is not a partition with two or more blocks"]
    value = partition_info(edges, blocks)
    if value != Fraction(mmi_doc["mmi"]):
        problems.append("finest partition does not attain the reported mmi")
    total = sum((w for _, w in edges), Fraction(0))
    if total - sum(rates) != value:
        problems.append("H(V) - sum(r) differs from I_P: no optimality certificate")
    return problems


def check_sandwich(job, out: str) -> list[str]:
    """lower <= upper <= min(alpha, mmi), rows non-decreasing; pairwise rows
    equal min(alpha / (n - 1), cap) and are tight."""
    lines = out.strip().split("\n")
    if lines[0] != "alpha,lower,upper,tight":
        return ["bad header"]
    rows = []
    for line in lines[1:]:
        a, lo, up, tight = line.split(",")
        rows.append((Fraction(a), Fraction(lo), Fraction(up), tight))
    grid = _grid(job.argv[job.argv.index("--grid") + 1])
    if [r[0] for r in rows] != grid:
        return ["rows do not follow the grid"]
    cap = brute_force_mmi(job.source)
    n = len(job.source["users"])
    problems = []
    for (a, lo, up, tight), prev in zip(rows, [None] + rows[:-1]):
        if not lo <= up <= min(a, cap):
            problems.append(f"bounds out of order at alpha={a}")
        if prev is not None and (lo < prev[1] or up < prev[2]):
            problems.append(f"row decreases at alpha={a}")
        if "pin_cap" in job.params:
            want = min(a / (n - 1), Fraction(job.params["pin_cap"]))
            if not lo == up == want or tight != "1":
                problems.append(f"pairwise row at alpha={a} is not the tight closed form")
    return problems


def mutual_information(source: dict) -> float:
    px, py = {}, {}
    for i, j, p in source["table"]:
        px[i] = px.get(i, 0.0) + p
        py[j] = py.get(j, 0.0) + p
    return sum(p * math.log2(p / (px[i] * py[j])) for i, j, p in source["table"] if p > 0)


def check_two_user(job, out: str, golden: list[float] | None) -> list[str]:
    """Values <= min(x, I(Z1;Z2)) (compressed) or <= I(Z1;Z2) (constrained),
    non-decreasing, and within GOLDEN_TOL of recorded values when given."""
    lines = out.strip().split("\n")
    if lines[0] != "x,value":
        return ["bad header"]
    points = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    xs = [float(x) for x in _grid(TWO_USER_GRID)]
    if [x for x, _ in points] != xs:
        return ["points do not follow the grid"]
    mi = mutual_information(job.source)
    problems = []
    prev = -math.inf
    for x, v in points:
        limit = min(x, mi) if job.params["mode"] == "compressed" else mi
        if v > limit + FLOAT_TOL:
            problems.append(f"value {v} above {limit} at x={x}")
        if v < prev - FLOAT_TOL:
            problems.append(f"value decreases at x={x}")
        prev = v
    if golden is not None:
        if len(golden) != len(points):
            problems.append("recorded values have another length")
        elif any(abs(v - g) > GOLDEN_TOL for (_, v), g in zip(points, golden)):
            problems.append("values moved more than 1e-3 from the recorded ones")
    return problems


def check_simulate(job, out: str) -> list[str]:
    """Schemes are secret and uniform; tree schemes are recoverable by all
    and pack floor(n * mmi) trees, the Tutte-Nash-Williams maximum."""
    doc = json.loads(out)
    problems = []
    if doc["secret"] is not True or doc["key_uniform"] is not True:
        problems.append("scheme is not secret and uniform")
    if job.kind == "tree":
        if not all(doc["recoverable"].values()):
            problems.append("a user cannot recover the tree-packing key")
        want = math.floor(job.params["blocklength"] * brute_force_mmi(job.source))
        if doc["key_bits"] != want:
            problems.append(f"tree packing gave {doc['key_bits']} key bits, max is {want}")
    return problems


def check_outputs(workload: str, jobs, outputs: dict, run_other, golden: dict | None = None) -> dict:
    """Problems per job index for every index in ``outputs``.

    ``run_other(index, kind)`` runs the mmi or rco job on job ``index``'s
    source outside the timed loop, to complete a certificate whose partner
    job the loop did not run.  ``golden`` maps job index to recorded
    two-user values.
    """
    by_source = {}
    for k, out in outputs.items():
        by_source.setdefault(id(jobs[k].source), {})[jobs[k].kind] = out
    problems = {}
    for k, out in outputs.items():
        job = jobs[k]
        try:
            if workload == "exact-partition":
                other = "rco" if job.kind == "mmi" else "mmi"
                pair = by_source[id(job.source)]
                if other not in pair:
                    pair[other] = run_other(k, other)
                found = check_exact_pair(job.source, pair["mmi"], pair["rco"])
            elif workload == "budget-curves":
                found = check_sandwich(job, out)
            elif workload == "two-user-sweep":
                found = check_two_user(job, out, None if golden is None else golden.get(str(k)))
            else:
                found = check_simulate(job, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            problems[k] = found
    return problems
