import gc
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import skalc.capacity
import skalc.cli
import skalc.two_user
from skalc import protocol_sim
from skalc.cli import main
from skalc.errors import InternalCheckError, ValidationError
from skalc.protocol_sim import scheme_from_json
from skalc.source_model import parse_rational, parse_source
from skalc.two_user import run_sweep

import _sources
from _benchmark import benchmark_jobs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mmi_json(capsys, write_source):
    path = write_source(_sources.EXAMPLE1)
    code, out, err = run_cli(capsys, "mmi", path)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data == {"mmi": "2", "finest": [["1"], ["2"], ["3"]], "minimizers": 3}


@pytest.mark.parametrize("cap", ["1", "0", "-1"])
def test_mmi_cap_below_two_is_invalid_input(capsys, write_source, cap):
    code, out, err = run_cli(capsys, "mmi", write_source(_sources.TRIANGLE), "--cap", cap)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cap {cap} admits no source")


def test_outputs_are_reproducible(capsys, write_source):
    path = write_source(_sources.EXAMPLE1)
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "mmi", path)
        outs.add(out)
    for _ in range(2):
        _, out, _ = run_cli(capsys, "sandwich", path, "--grid", "0:4:1/2")
        outs.add(out)
    assert len(outs) == 2


def test_rco_json(capsys, write_source):
    path = write_source(_sources.EXAMPLE1)
    code, out, _ = run_cli(capsys, "rco", path)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"rco", "rates"}
    assert data["rco"] == "1"
    assert sum(parse_rational(r) for r in data["rates"].values()) == 1


def test_capacity_json(capsys, write_source):
    path = write_source(_sources.TRIANGLE)
    code, out, _ = run_cli(capsys, "capacity", path)
    assert code == 0
    data = json.loads(out)
    assert data["cap"] == "3/2"
    assert data["alpha_s"] == "3"
    assert data["r_s"] == "3/2"
    assert data["compressed"] == [["0", "0"], ["3", "3/2"]]
    assert data["constrained"] == [["0", "0"], ["3/2", "3/2"]]


def test_capacity_serves_pairwise_sources_past_eight_users(capsys, write_source):
    # A 9-user ring of unit edges: strength 9/8, no longer declined by the
    # partition enumeration's user cap.
    ring = _sources.hg([str(i) for i in range(9)],
                       [(f"e{i}", [str(i), str((i + 1) % 9)], 1) for i in range(9)])
    code, out, err = run_cli(capsys, "capacity", write_source(ring))
    assert code == 0 and err == ""
    assert json.loads(out) == {"cap": "9/8", "alpha_s": "9", "r_s": "63/8",
                               "compressed": [["0", "0"], ["9", "9/8"]],
                               "constrained": [["0", "0"], ["63/8", "9/8"]]}


def test_capacity_serves_two_user_pairwise_sources(capsys, write_source):
    code, out, err = run_cli(capsys, "capacity", write_source(_sources.OMNI))
    assert code == 0 and err == ""
    assert json.loads(out) == {"cap": "2", "alpha_s": "2", "r_s": "0",
                               "compressed": [["0", "0"], ["2", "2"]],
                               "constrained": [["0", "2"]]}


def test_capacity_rejects_non_pin(capsys, write_source):
    path = write_source(_sources.EXAMPLE1)
    code, out, err = run_cli(capsys, "capacity", path)
    assert code == 2
    assert err.startswith("error:")


def test_sandwich_csv(capsys, write_source, tmp_path):
    path = write_source(_sources.EXAMPLE1)
    upper = tmp_path / "upper.json"
    upper.write_text(json.dumps([["0", "1"], ["1", "2"]]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "sandwich", path, "--grid", "0:4:1/4",
                           "--cs-upper", str(upper))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,lower,upper,tight"
    assert len(lines) == 18
    assert "2,3/2,3/2,1" in lines
    assert all(line.endswith(",1") for line in lines[1:])


def test_sandwich_without_upper_not_all_tight(capsys, write_source):
    path = write_source(_sources.EXAMPLE1)
    code, out, _ = run_cli(capsys, "sandwich", path, "--grid", "2")
    assert code == 0
    assert out.strip().splitlines()[1] == "2,3/2,2,0"


def test_sandwich_serves_pairwise_sources_past_the_lower_bound_caps(capsys, write_source):
    # A 9-user ring of unit edges has strength 9/8 and 30 unit edges on 5
    # users (each pair three times) 15/2; the lower curve is
    # min(alpha / (n - 1), strength).  The LP's caps still hold elsewhere.
    ring = _sources.hg([str(i) for i in range(9)],
                       [(f"e{i}", [str(i), str((i + 1) % 9)], 1) for i in range(9)])
    code, out, err = run_cli(capsys, "sandwich", write_source(ring), "--grid", "0:10:5")
    assert (code, err) == (0, "")
    assert out == "alpha,lower,upper,tight\n0,0,0,1\n5,5/8,9/8,0\n10,9/8,9/8,1\n"
    triple = _sources.hg("01234", [(f"e{i}{j}{k}", [str(i), str(j)], 1)
                                   for i in range(5) for j in range(i + 1, 5) for k in range(3)])
    assert len(triple["edges"]) == 30
    code, out, err = run_cli(capsys, "sandwich", write_source(triple), "--grid", "0:32:16")
    assert (code, err) == (0, "")
    assert out == "alpha,lower,upper,tight\n0,0,0,1\n16,4,15/2,0\n32,15/2,15/2,1\n"
    tall = _sources.random_hypergraph(random.Random(9), n_users=9, n_edges=10)
    code, out, err = run_cli(capsys, "sandwich", write_source(tall), "--grid", "0:1:1")
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: 9 users exceed the lower-bound cap 8")


def test_sandwich_stdout_on_the_benchmark_pools_is_pinned(capsys, write_source):
    # The first two template cycles of the seed-1 and seed-2 pools; each
    # pairwise job also runs without its --cs-upper curve.
    pinned = json.loads((Path(__file__).parent / "sandwich_stdout.json").read_text(
        encoding="utf-8"))
    cases = {f"{seed}/{job.group}": job
             for seed in (1, 2) for job in benchmark_jobs("budget-curves", cycles=2, seed=seed)}
    assert cases.keys() == pinned.keys()
    for case, job in cases.items():
        src = write_source(job.source, "pool.json")
        for name, data in job.files.items():
            write_source(data, f"pool.{name}")
        argv = [a.format(src=src, stem=src.removesuffix(".json")) for a in job.argv]
        runs = {"stdout": argv}
        if "--cs-upper" in argv:
            runs["stdout_without_cs_upper"] = argv[:-2]
        assert runs.keys() == pinned[case].keys(), case
        for key, run in runs.items():
            assert run_cli(capsys, *run) == (0, pinned[case][key], ""), (case, key)


# Supplied rate-domain curves for the pool sources: three rising pieces and
# the flat tail, the same points as floats, and a flat curve.
CS_UPPER_CURVES = {
    "three-piece": [["0", "1/3"], ["1", "5/3"], ["4", "11/3"], ["10", "13/3"]],
    "three-piece-float": [[0.0, 1 / 3], [1.0, 5 / 3], [4.0, 11 / 3], [10.0, 13 / 3]],
    "single-point": [["0", "5/2"]],
}


def _sandwich_cs_upper_runs(capsys, write_source):
    """(case, result) for every pool source of the first two template cycles
    at seeds 1 and 2 with each curve of ``CS_UPPER_CURVES`` on the job's grid;
    the result holds the exit code, stdout and stderr."""
    for seed in (1, 2):
        for job in benchmark_jobs("budget-curves", cycles=2, seed=seed):
            src = write_source(job.source, "pool.json")
            grid = job.argv[job.argv.index("--grid") + 1]
            for name, curve in CS_UPPER_CURVES.items():
                code, out, err = run_cli(capsys, "sandwich", src, "--grid", grid,
                                         "--cs-upper", write_source(curve, "upper.json"))
                yield f"{seed}/{job.group}/{name}", {"code": code, "stdout": out, "stderr": err}


def test_sandwich_cs_upper_curves_on_the_benchmark_pools_are_pinned(capsys, write_source):
    # Multi-piece, float and single-point curves, some of them below the
    # lower bound on the general sources.
    pinned = json.loads((Path(__file__).parent / "sandwich_cs_upper_stdout.json").read_text(
        encoding="utf-8"))
    runs = dict(_sandwich_cs_upper_runs(capsys, write_source))
    assert runs.keys() == pinned.keys()
    for case, result in runs.items():
        assert result == pinned[case], case


@pytest.mark.parametrize("grid", ["4:0:1", "0:4:0", "0:4:-1", "1:2", "a:b:c", "0:200:1/100"])
def test_bad_grids_rejected(capsys, write_source, grid):
    path = write_source(_sources.EXAMPLE1)
    code, _, err = run_cli(capsys, "sandwich", path, "--grid", grid)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command, source, grid", [
    ("sandwich", "EXAMPLE1", "-1"),
    ("sandwich", "EXAMPLE1", "-1:2:1"),
    ("two-user", "BIT_PMF", "-1"),
    ("two-user", "BIT_PMF", "-1/2:1:1/2"),
    ("two-user", "BIT_PMF", "1e400"),
])
def test_bad_grid_rejected_before_any_work(capsys, write_source, monkeypatch, command, source,
                                           grid):
    def no_work(*args, **kwargs):
        raise AssertionError("the grid is checked before any work starts")

    monkeypatch.setattr(skalc.capacity, "lower_bound_curve", no_work)
    monkeypatch.setattr(skalc.two_user, "run_sweep", no_work)
    path = write_source(getattr(_sources, source))
    code, out, err = run_cli(capsys, command, path, f"--grid={grid}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_two_user_csv_and_witness(capsys, write_source, tmp_path):
    path = write_source(_sources.INTRO_PMF)
    wit = tmp_path / "witness.json"
    code, out, _ = run_cli(capsys, "two-user", path, "--grid", "0:2:1",
                           "--emit-witness", str(wit))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert abs(float(rows[2][1]) - 1.0) <= 1e-3
    payload = json.loads(wit.read_text(encoding="utf-8"))
    assert payload["mode"] == "compressed"
    assert len(payload["points"]) == 3
    sweep = run_sweep(parse_source(_sources.INTRO_PMF), seed=0)
    assert payload["runs"] == len(sweep.channels)
    assert payload["converged_runs"] == sum(ch.converged for ch in sweep.channels)
    assert 0 < payload["converged_runs"] <= payload["runs"]
    first_bytes = wit.read_bytes()
    _, out2, _ = run_cli(capsys, "two-user", path, "--grid", "0:2:1",
                         "--emit-witness", str(wit))
    assert out2 == out
    assert wit.read_bytes() == first_bytes


def test_two_user_witness_mutual_info_of_an_independent_pair_is_zero(capsys, write_source,
                                                                    tmp_path):
    # Summed in floats, H(Z1) + H(Z2) - H(Z1, Z2) of this pair is 2.2e-16.
    pair = {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 2],
            "table": [[x, y, (0.3 if x == 0 else 0.7) * (0.3 if y == 0 else 0.7)]
                      for x in (0, 1) for y in (0, 1)]}
    wit = tmp_path / "witness.json"
    code, _, _ = run_cli(capsys, "two-user", write_source(pair), "--grid", "0:1:1",
                         "--emit-witness", str(wit))
    assert code == 0
    assert json.loads(wit.read_text(encoding="utf-8"))["mutual_info"] == "0"


def _ib_sources():
    """The |Z1| >= 3 pmfs whose two-user stdout is pinned, by name."""
    from test_two_user import _criterion_6_pmfs

    sources = {"intro": _sources.INTRO_PMF}
    for k, p in enumerate(_criterion_6_pmfs()[2:]):
        sources[f"random-{k}"] = {"kind": "pmf", "users": ["1", "2"],
                                  "alphabets": list(p.alphabets),
                                  "table": [[*o, prob] for o, prob in zip(p.outcomes, p.probs)]}
    return sources


def test_two_user_stdout_of_larger_alphabets_is_pinned(capsys, write_source):
    # The alternating maximization still serves |Z1| >= 3: its stdout is the
    # one recorded before binary inputs got their own sweep.
    pinned = json.loads((Path(__file__).parent / "two_user_ib_stdout.json").read_text(
        encoding="utf-8"))
    sources = _ib_sources()
    assert len(pinned) == 4 * len(sources)
    for case, expected in pinned.items():
        name, mode, seed = case.split("/")
        code, out, _ = run_cli(capsys, "two-user", write_source(sources[name]), "--mode", mode,
                               "--grid", "0:2:1/4", "--seed", seed)
        assert code == 0
        assert out == expected, case


def test_two_user_constrained_mode(capsys, write_source):
    path = write_source(_sources.BIT_PMF)
    code, out, _ = run_cli(capsys, "two-user", path, "--mode", "constrained",
                           "--grid", "0:1:1/2")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert abs(float(line.split(",")[1]) - 1.0) <= 1e-6


def test_upper_curve_below_the_lower_bound_is_an_input_error(capsys, write_source, tmp_path):
    path = write_source(_sources.EXAMPLE1)
    curve = tmp_path / "upper.json"
    curve.write_text(json.dumps([["0", "0"], ["1", "1"], ["3", "3/2"]]), encoding="utf-8")
    code, out, err = run_cli(capsys, "sandwich", path, "--grid", "0:4:1/4",
                             "--cs-upper", str(curve))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cs_upper curve" in err


@pytest.mark.parametrize("argv", [
    ["sandwich", "{src}", "--grid", "-1:2:1"],
    ["sandwich", "{src}"],
    ["sandwich", "{src}", "--grid", "0:1:1", "--bogus"],
    ["frobnicate", "{src}"],
    [],
])
def test_usage_errors_exit_2_with_an_error_line(capsys, write_source, argv):
    path = write_source(_sources.EXAMPLE1)
    code, out, err = run_cli(capsys, *[a.format(src=path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "usage:" not in err


# A NaN probability and NaN curve coordinates: Python's json reads NaN.
NAN_PMF = {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 2],
           "table": [[0, 0, math.nan], [0, 1, 0.5], [1, 1, 0.5]]}


@pytest.mark.parametrize("argv", [["mmi"], ["rco"], ["two-user", "--grid", "0:1:1/2"]])
def test_non_finite_probability_rejected(capsys, write_source, argv):
    path = write_source(NAN_PMF)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


# A probability that is a JSON integer past the float range.
HUGE_PMF = {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 2],
            "table": [[0, 0, 10**400], [1, 1, 0.5]]}


@pytest.mark.parametrize("argv", [["mmi"], ["rco"], ["two-user", "--grid", "0:1:1/2"]])
def test_probability_past_the_float_range_rejected(capsys, write_source, argv):
    path = write_source(HUGE_PMF)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float range" in err


@pytest.mark.parametrize("source", ["BIT_PMF", "INTRO_PMF"])
def test_negative_two_user_seed_rejected_before_any_work(capsys, write_source, monkeypatch,
                                                         source):
    def no_work(*args, **kwargs):
        raise AssertionError("the seed is checked before any work starts")

    monkeypatch.setattr(skalc.two_user, "pmf_matrix", no_work)
    with pytest.raises(ValidationError, match="seed"):
        run_sweep(parse_source(getattr(_sources, source)), seed=-1)
    path = write_source(getattr(_sources, source))
    code, out, err = run_cli(capsys, "two-user", path, "--grid", "0:1:1/2", "--seed", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize("upper", [[[math.nan, math.nan]], [[0, 0], [1, math.nan]]])
def test_non_finite_upper_curve_rejected(capsys, write_source, tmp_path, upper):
    path = write_source(_sources.EXAMPLE1)
    curve = tmp_path / "upper.json"
    curve.write_text(json.dumps(upper), encoding="utf-8")
    code, out, err = run_cli(capsys, "sandwich", path, "--grid", "0:2:1",
                             "--cs-upper", str(curve))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


# Files the json module cannot read: non-UTF-8 bytes (UnicodeDecodeError),
# nesting past the recursion limit (RecursionError) and an integer literal
# past Python's 4,300-digit conversion limit (ValueError).
UNREADABLE_JSON = {
    "non-utf8": b"\xff\xfe[]",
    "deep": b"[" * 200_000 + b"]" * 200_000,
    "long-int": b"[[" + b"9" * 4_400 + b", 1]]",
}


@pytest.mark.parametrize("role", ["source", "curve"])
@pytest.mark.parametrize("case", UNREADABLE_JSON)
def test_unreadable_json_file_exits_2(capsys, write_source, tmp_path, case, role):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE_JSON[case])
    if role == "source":
        argv = ["mmi", str(bad)]
    else:
        argv = ["sandwich", write_source(_sources.EXAMPLE1), "--grid", "0:2:1",
                "--cs-upper", str(bad)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: invalid JSON in {bad}:")


def _triangle_with(**fields):
    """TRIANGLE with fields of its first edge replaced."""
    first, *rest = _sources.TRIANGLE["edges"]
    return {**_sources.TRIANGLE, "edges": [{**first, **fields}, *rest]}


def _bit_pmf_with(row):
    """BIT_PMF with its first table row replaced."""
    return {**_sources.BIT_PMF, "table": [row, *_sources.BIT_PMF["table"][1:]]}


# Python reads and prints no int of more than 4,300 digits, and Fraction()
# builds 10**exponent before it returns.
DIGIT_LIMIT_FAULTS = {
    "bits-4300-digits": _triangle_with(bits="1e-4300"),
    "bits-huge-exponent": _triangle_with(bits="1e-100000000"),
    "bits-long-exponent": _triangle_with(bits="1e" + "9" * 5000),
}
# Sources every command rejects.
FAULTY_SOURCES = {
    "on-list-entry": _triangle_with(on=[["1"], "2"]),
    "on-int-entry": _triangle_with(on=[1, 2]),
    **DIGIT_LIMIT_FAULTS,
    "bits-float": _triangle_with(bits=0.5),
    "bits-list": _triangle_with(bits=["1"]),
    "bits-nan": _triangle_with(bits="nan"),
    "bits-inf": _triangle_with(bits="inf"),
    "bits-json-nan": _triangle_with(bits=math.nan),
    "bits-json-inf": _triangle_with(bits=math.inf),
    "pmf-string-probability": _bit_pmf_with([0, 0, "0.5"]),
    "pmf-symbol-outside-alphabet": _bit_pmf_with([2, 0, 0.5]),
    "non-object": [_sources.TRIANGLE],
    "string-document": "hypergraph",
}
# Sources some commands run: duplicate 'on' entries, a pmf (which the
# pairwise commands decline) and weights whose results have more digits
# than Python prints.
SOURCES_SOME_RUN = {
    "on-duplicate": _triangle_with(on=["1", "1", "2"]),
    "pmf": _sources.BIT_PMF,
    "result-past-the-digit-limit": _sources.hg(
        "12", [("a", "12", f"1/{2 ** 7500}"), ("b", "12", f"1/{3 ** 4700}")]),
}
SUBCOMMAND_FORMS = {
    "mmi": ["mmi"],
    "rco": ["rco"],
    "capacity": ["capacity"],
    "sandwich": ["sandwich", "--grid", "0:2:1"],
    "two-user": ["two-user", "--grid", "0:1:1/2"],
    "simulate-tree": ["simulate", "--scheme", "tree", "-n", "2"],
    "simulate-binning": ["simulate", "--scheme", "binning", "-n", "2"],
}
# The stderr of each form that declines a pmf (exit 2); the others run it.
PMF_REFUSALS = {
    "capacity": "error: capacity needs a source with all edges on exactly two users\n",
    "sandwich": "error: sandwich needs a hypergraphical source\n",
    "simulate-tree": "error: tree packing needs a source with all edges on two users\n",
    "simulate-binning": "error: random binning needs a hypergraphical source\n",
}


@pytest.mark.parametrize("form", SUBCOMMAND_FORMS)
@pytest.mark.parametrize("case", [*FAULTY_SOURCES, *SOURCES_SOME_RUN])
def test_faulty_sources_exit_with_a_documented_code(capsys, write_source, case, form):
    # An exception escaping main would be a traceback and exit 1.
    command, *options = SUBCOMMAND_FORMS[form]
    source = {**FAULTY_SOURCES, **SOURCES_SOME_RUN}[case]
    code, out, err = run_cli(capsys, command, write_source(source), *options)
    assert code in (0, 2, 3) and "Traceback" not in err, (code, err)
    assert code != 2 or err.startswith("error:")
    assert code != 3 or err.startswith("resource cap:")
    assert "is_pin" not in err  # each command states its own requirement
    if case in FAULTY_SOURCES:
        assert (code, out) == (2, "")
    if case in DIGIT_LIMIT_FAULTS:
        assert "4300 digits" in err or "bad rational literal" in err
    if case == "result-past-the-digit-limit" and form == "mmi":
        assert (code, out) == (3, "")
    if case == "pmf":
        assert (code, err) == ((2, PMF_REFUSALS[form]) if form in PMF_REFUSALS else (0, ""))


@pytest.mark.parametrize("command", ["sandwich", "two-user"])
@pytest.mark.parametrize("grid", ["1e-4300", "0:1:1e-10000000", "1e99999999"])
def test_grid_literals_past_the_digit_limit_exit_2(capsys, write_source, command, grid):
    code, out, err = run_cli(capsys, command, write_source(_sources.BIT_PMF), "--grid", grid)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "4300 digits" in err


def test_float_curve_with_a_breakpoint_an_ulp_below_the_budget(capsys, write_source):
    # The budget 2/3 and the breakpoint candidate 2/3 - 0.0 differ by less
    # than an ulp, so a crossing search that divides by their float
    # difference divides by 0.
    code, out, err = run_cli(capsys, "sandwich", write_source(_sources.EXAMPLE1),
                             "--grid", "2/3", "--cs-upper",
                             write_source([[0.0, 2 / 3], [4.0, 68 / 3]], "upper.json"))
    assert (code, err) == (0, "")
    assert out == "alpha,lower,upper,tight\n2/3,2/3,0.666666666667,1\n"


# Per case: the fixture and the argv after the source path.
CYCLE_CASES = {
    "mmi": ("EXAMPLE1", ["mmi"]),
    "mmi-pmf": ("INTRO_PMF", ["mmi"]),
    "rco": ("EXAMPLE1", ["rco"]),
    "capacity": ("TRIANGLE", ["capacity"]),
    "sandwich": ("EXAMPLE1", ["sandwich", "--grid", "0:4:1/2"]),
    "two-user": ("BIT_PMF", ["two-user", "--mode", "constrained", "--grid", "0:1:1/2"]),
    "simulate-tree": ("TRIANGLE", ["simulate", "--scheme", "tree", "-n", "2"]),
    "simulate-binning": ("TRIANGLE", ["simulate", "--scheme", "binning", "-n", "2"]),
}


@pytest.mark.parametrize("case", CYCLE_CASES)
def test_subcommand_leaves_no_reference_cycles(capsys, write_source, case):
    # Cyclic garbage waits for a full collection, so a long-running caller's
    # memory would grow with its call count.  The first run loads modules
    # and fills caches.
    fixture, (command, *options) = CYCLE_CASES[case]
    argv = [command, write_source(getattr(_sources, fixture)), *options]
    assert run_cli(capsys, *argv)[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert run_cli(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("scheme", ["tree", "binning"])
def test_simulate_verifies_the_scheme_once(capsys, write_source, monkeypatch, scheme):
    # Both builders reach the shared core: tree packing through verify,
    # binning directly with the transcript basis it built for the key.
    calls = []
    real = protocol_sim._verify_on

    def counted(instance, linear_scheme, a_basis):
        calls.append(linear_scheme)
        return real(instance, linear_scheme, a_basis)

    monkeypatch.setattr(protocol_sim, "_verify_on", counted)
    path = write_source(_sources.TRIANGLE)
    code, out, _ = run_cli(capsys, "simulate", path, "--scheme", scheme, "-n", "2")
    assert code == 0
    assert json.loads(out)["secret"] is True
    assert len(calls) == 1


def test_simulate_tree(capsys, write_source):
    path = write_source(_sources.TRIANGLE)
    code, out, _ = run_cli(capsys, "simulate", path, "--scheme", "tree", "-n", "2",
                           "--dump-scheme")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "tree"
    assert data["trees"] == 3
    assert data["key_bits"] == 3
    assert data["secret"] is True
    assert data["key_uniform"] is True
    assert data["recoverable"] == {"1": True, "2": True, "3": True}
    scheme = scheme_from_json(json.dumps(data["scheme"]))
    assert len(scheme.key) == 3


def test_simulate_binning(capsys, write_source):
    path = write_source(_sources.EXAMPLE1)
    code, out, _ = run_cli(capsys, "simulate", path, "--scheme", "binning",
                           "-n", "16", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "binning"
    assert data["achieved"] is True
    assert data["secret"] is True
    assert data["key_bits"] >= 16
    assert data["seed"] == 1
    assert set(data["rates"]) == {"1", "2", "3"}


def test_resource_cap_exit_code(capsys, write_source):
    import random
    rng = random.Random(0)
    big = _sources.random_hypergraph(rng, n_users=13, n_edges=14)
    path = write_source(big)
    code, _, err = run_cli(capsys, "mmi", path)
    assert code == 3
    assert err.startswith("resource cap:")


def test_validation_exit_code(capsys, write_source):
    path = write_source({"kind": "nonsense"})
    code, _, err = run_cli(capsys, "mmi", path)
    assert code == 2
    assert err.startswith("error:")


def test_internal_check_exit_code(capsys, write_source, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalCheckError("finest minimizer does not refine a co-minimizer")

    monkeypatch.setattr(skalc.cli, "mmi", broken)
    path = write_source(_sources.TRIANGLE)
    code, out, err = run_cli(capsys, "mmi", path)
    assert code == 4
    assert out == ""
    assert err.startswith("internal check:")
    assert "Traceback" not in err


def _child_env():
    """Environment for a child interpreter that imports this checkout's skalc,
    whether or not the package is installed."""
    src = os.path.dirname(os.path.dirname(skalc.cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_module_entry_point(write_source):
    path = write_source(_sources.TRIANGLE)
    proc = subprocess.run([sys.executable, "-m", "skalc", "mmi", path],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mmi"] == "3/2"


@pytest.mark.parametrize("command", ["mmi", "rco"])
def test_mmi_and_rco_load_only_their_layers(write_source, command):
    path = write_source(_sources.TRIANGLE)
    script = (
        "import sys, skalc.cli\n"
        "assert skalc.cli.main([sys.argv[1], sys.argv[2]]) == 0\n"
        "loaded = {'skalc.capacity', 'skalc.curves', 'skalc.protocol_sim', 'skalc.two_user'}\n"
        "assert not loaded & set(sys.modules), sorted(loaded & set(sys.modules))\n"
        "import skalc\n"
        "assert callable(skalc.pin_curves) and callable(skalc.tree_packing_scheme)\n"
        "assert {'skalc.capacity', 'skalc.protocol_sim'} <= set(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, command, path], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_numpy_loaded_only_for_two_user(write_source):
    path = write_source(_sources.TRIANGLE)
    script = (
        "import sys, skalc.cli\n"
        "assert skalc.cli.main(['mmi', sys.argv[1]]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "import skalc\n"
        "assert callable(skalc.run_sweep)\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, path], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["mmi"] == "3/2"


def test_exports_resolve_and_lazy_names_are_exported():
    import skalc

    assert set(skalc._LAZY) <= set(skalc.__all__)
    assert len(set(skalc.__all__)) == len(skalc.__all__)
    for name in skalc.__all__:
        getattr(skalc, name)
