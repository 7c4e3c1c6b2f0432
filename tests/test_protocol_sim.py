import hashlib
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from skalc import protocol_sim
from skalc.cli import main
from skalc.errors import InternalCheckError, ResourceCapError, ValidationError
from skalc.gf2 import Gf2Basis, complement_units
from skalc.protocol_sim import (
    BitSourceInstance,
    LinearScheme,
    random_binning_omniscience,
    scheme_from_json,
    scheme_to_json,
    tree_packing_scheme,
    validate_scheme,
    verify,
)
from skalc.source_model import parse_source

import _exhaustive
import _oracle
import _sources
from _benchmark import benchmark_jobs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SMALL_FIXTURES = ("EXAMPLE1", "TRIANGLE", "STAR", "PATH3", "OMNI")


def _random_pairwise(rng, n):
    """Random pairwise source with integer weights 1-3, parallel edges
    allowed; connected when the first n - 1 edges form a random tree."""
    users = [str(i) for i in range(n)]
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
    edges = [(f"e{k}", [users[i], users[j]], rng.randint(1, 3)) for k, (i, j) in enumerate(pairs)]
    return parse_source(_sources.hg(users, edges))


def _random_scheme(rng, inst, key_rows):
    """Random transcript rows, each on its speaker's bits, and random key rows."""
    m = inst.total_bits
    transcript = []
    for _ in range(rng.randint(0, m)):
        speaker = rng.choice(inst.source.users)
        transcript.append((rng.getrandbits(m) & inst.user_mask(speaker), speaker))
    key = tuple(rng.randrange(1, 1 << m) for _ in range(key_rows))
    return LinearScheme(m, tuple(transcript), key)


def _edge_bits(inst, e):
    """The bit positions of edge ``e``: w_e * n of them from its offset."""
    return range(inst.offsets[e], inst.offsets[e] + int(inst.source.weights[e]) * inst.n)


def _elements(inst):
    """The matroid partition's elements: bit k's two observers, as element k."""
    elements = []
    for e, inc in enumerate(inst.source.incidence):
        elements.extend([tuple(sorted(inc))] * len(_edge_bits(inst, e)))
    return elements


def _oracle_trees(packed):
    """The old k = 1, 2, ... packing loop on the scheme's element list."""
    inst = packed.instance
    trees = _oracle.max_spanning_tree_packing(len(inst.source.users), _elements(inst))
    return tuple(tuple(sorted(t)) for t in trees)


def _assert_forests_match_the_oracle(nv, elements, k):
    assert (protocol_sim._partition_into_forests(nv, elements, k)
            == _oracle.partition_into_forests(nv, elements, k)), (nv, elements, k)


def test_instance_layout(triangle):
    inst = BitSourceInstance(triangle, 2)
    assert inst.total_bits == 6
    assert inst.offsets == (0, 2, 4)
    assert _edge_bits(inst, 0) == range(0, 2)
    assert _edge_bits(inst, 2) == range(4, 6)
    assert inst.user_mask("1") == 0b001111
    assert inst.user_mask("3") == 0b111100


def test_instance_validation(example1, intro_pmf):
    with pytest.raises(ValidationError):
        BitSourceInstance(example1, 0)
    with pytest.raises(ValidationError):
        BitSourceInstance(intro_pmf, 1)
    frac = parse_source(_sources.hg("12", [("e", "12", "1/2")]))
    with pytest.raises(ValidationError):
        BitSourceInstance(frac, 3)


def test_scheme_validation(triangle):
    inst = BitSourceInstance(triangle, 1)
    with pytest.raises(ValidationError):
        LinearScheme(3, ((1 << 3, "1"),), ())
    with pytest.raises(ValidationError):
        LinearScheme(3, (), (0,))
    scheme = LinearScheme(3, ((0b011, "9"),), (0b001,))
    with pytest.raises(ValidationError):
        validate_scheme(inst, scheme)
    wide = LinearScheme(4, (), (0b1,))
    with pytest.raises(ValidationError):
        validate_scheme(inst, wide)


@pytest.mark.parametrize("width, error", [
    (-1, ValidationError),
    ("3", ValidationError),
    (protocol_sim.BIT_CAP + 1, ResourceCapError),
    (10**30, ResourceCapError),
])
def test_scheme_width_checked_before_use(width, error):
    with pytest.raises(error, match="width"):
        LinearScheme(width, (), ())
    if isinstance(width, int):
        with pytest.raises(error, match="width"):
            scheme_from_json(json.dumps({"width": width, "transcript": [], "key": []}))


def test_example1_hand_scheme(example1):
    # key = both bits users 1 and 2 share; user 2 reveals X_b xor X_c
    inst = BitSourceInstance(example1, 1)
    scheme = LinearScheme(3, ((0b110, "2"),), (0b001, 0b010))
    validate_scheme(inst, scheme)
    report = verify(inst, scheme)
    assert report.ok
    assert report.recoverable == {"1": True, "2": True, "3": True}
    assert report.key_bits == 2
    assert report.transcript_bits == 1
    verdicts = _exhaustive.exhaustive_verdicts(inst, scheme)
    assert verdicts == (report.recoverable, True, True)


def test_leaky_scheme_rejected_by_verify(example1):
    inst = BitSourceInstance(example1, 1)
    # announcing X_a xor X_b reveals one key parity
    leaky = LinearScheme(3, ((0b011, "2"),), (0b001, 0b010))
    report = verify(inst, leaky)
    assert not report.perfectly_secret
    assert not report.ok
    verdicts = _exhaustive.exhaustive_verdicts(inst, leaky)
    assert verdicts[1] is False


def test_unrecoverable_scheme(example1):
    inst = BitSourceInstance(example1, 1)
    # silent protocol, key includes a bit users 1 and 3 never share
    scheme = LinearScheme(3, (), (0b010,))
    report = verify(inst, scheme)
    assert report.recoverable["1"] is True
    assert report.recoverable["3"] is False
    assert not report.ok
    verdicts = _exhaustive.exhaustive_verdicts(inst, scheme)
    assert verdicts[0] == report.recoverable


def test_dependent_key_not_uniform(triangle):
    inst = BitSourceInstance(triangle, 1)
    scheme = LinearScheme(3, (), (0b001, 0b001))
    report = verify(inst, scheme)
    assert not report.key_uniform
    verdicts = _exhaustive.exhaustive_verdicts(inst, scheme)
    assert verdicts[2] is False


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tree_packing_triangle(triangle, n):
    packed = tree_packing_scheme(triangle, n)
    k = (3 * n) // 2
    assert len(packed.trees) == k
    report = verify(packed.instance, packed.scheme)
    assert report.ok
    assert report.key_bits == k
    assert report.transcript_bits == k  # (|V| - 2) rows per tree
    assert F(k, n) >= F(3, 2) - F(1, n)


def test_tree_packing_path(path3):
    packed = tree_packing_scheme(path3, 2)
    assert len(packed.trees) == 2
    report = verify(packed.instance, packed.scheme)
    assert report.ok
    assert report.key_bits == 2


def test_tree_packing_star(star):
    packed = tree_packing_scheme(star, 2)
    report = verify(packed.instance, packed.scheme)
    assert report.ok
    # capacity 1 per sample: both edge types are needed in every tree
    assert len(packed.trees) == 2


def test_tree_packing_deterministic(triangle):
    a = tree_packing_scheme(triangle, 3)
    b = tree_packing_scheme(triangle, 3)
    assert a.scheme == b.scheme
    assert a.trees == b.trees


def test_tree_packing_rejects(example1):
    with pytest.raises(ValidationError):
        tree_packing_scheme(example1, 1)
    split = parse_source(_sources.hg("1234", [("a", "12", 1), ("b", "34", 1)]))
    with pytest.raises(ValidationError, match="disconnected"):
        tree_packing_scheme(split, 1)


def test_tree_packing_checks_caps_before_work(monkeypatch, triangle):
    def no_work(source):
        raise AssertionError("pin_strength ran before the instance caps were checked")

    monkeypatch.setattr(protocol_sim, "pin_strength", no_work)
    with pytest.raises(ResourceCapError):
        tree_packing_scheme(triangle, protocol_sim.BIT_CAP)
    halves = parse_source(_sources.hg("12", [("a", "12", F(1, 2))]))
    with pytest.raises(ValidationError, match="integer"):
        tree_packing_scheme(halves, 1)


@pytest.mark.parametrize("seed", range(6))
def test_tree_packing_element_k_is_bit_k(monkeypatch, seed):
    """The edge the matroid partition calls element k is the edge that bit k
    of the instance belongs to: exactly its two endpoints observe that bit."""
    seen = []
    partition = protocol_sim._partition_into_forests

    def spy(nv, elements, k):
        seen.append(list(elements))
        return partition(nv, elements, k)

    monkeypatch.setattr(protocol_sim, "_partition_into_forests", spy)
    rng = random.Random(seed)
    packed = tree_packing_scheme(_random_pairwise(rng, rng.randint(2, 6)), rng.randint(1, 3))
    inst = packed.instance
    observers = [tuple(i for i, u in enumerate(inst.source.users) if inst.user_mask(u) >> k & 1)
                 for k in range(inst.total_bits)]
    assert seen == [observers]


def test_tree_packing_internal_checks_fire(monkeypatch, triangle):
    monkeypatch.setattr(protocol_sim, "_partition_into_forests",
                        lambda nv, elements, k: ([set() for _ in range(k)], {}))
    with pytest.raises(InternalCheckError, match="not spanning"):
        tree_packing_scheme(triangle, 2)
    monkeypatch.undo()
    monkeypatch.setattr(protocol_sim, "verify", lambda inst, scheme: SimpleNamespace(ok=False))
    with pytest.raises(InternalCheckError, match="own verification"):
        tree_packing_scheme(triangle, 2)


def test_tree_packing_exhaustive_small(triangle, star):
    for src, n in ((triangle, 2), (triangle, 4), (star, 2)):
        packed = tree_packing_scheme(src, n)
        report = verify(packed.instance, packed.scheme)
        verdicts = _exhaustive.exhaustive_verdicts(packed.instance, packed.scheme)
        assert verdicts == (report.recoverable, report.perfectly_secret,
                            report.key_uniform)
        assert report.ok


def test_binning_example1(example1):
    binned = random_binning_omniscience(example1, 16, seed=0)
    assert binned.achieved
    report = verify(binned.instance, binned.scheme)
    assert report.ok
    assert report.key_bits >= 2 * 16 - 16
    assert sum(binned.rates.values()) == F(1)


def test_binning_deterministic(example1):
    a = random_binning_omniscience(example1, 8, seed=3)
    b = random_binning_omniscience(example1, 8, seed=3)
    c = random_binning_omniscience(example1, 8, seed=4)
    assert a.scheme == b.scheme
    assert a.scheme != c.scheme


def test_binning_exhaustive_small(triangle, example1):
    for src, n in ((triangle, 3), (example1, 4)):
        binned = random_binning_omniscience(src, n, seed=1)
        report = verify(binned.instance, binned.scheme)
        verdicts = _exhaustive.exhaustive_verdicts(binned.instance, binned.scheme)
        assert verdicts == (report.recoverable, report.perfectly_secret,
                            report.key_uniform)


def test_binning_all_observers():
    src = parse_source(_sources.OMNI)
    binned = random_binning_omniscience(src, 3, seed=0)
    report = verify(binned.instance, binned.scheme)
    assert report.transcript_bits == 0
    assert report.key_bits == 6
    assert report.ok


def test_parity_probe_monte_carlo_large(triangle):
    packed = tree_packing_scheme(triangle, 6)
    assert packed.instance.total_bits == 18
    report = verify(packed.instance, packed.scheme)
    assert report.ok
    bias = _exhaustive.mc_max_parity_bias(packed.instance, packed.scheme)
    assert bias < 0.1
    inst = BitSourceInstance(triangle, 6)
    bad = LinearScheme(18, ((0b1, "1"),), (0b1,))
    assert _exhaustive.mc_max_parity_bias(inst, bad) > 0.4


def test_scheme_json_round_trip(triangle):
    packed = tree_packing_scheme(triangle, 3)
    text = scheme_to_json(packed.scheme)
    assert scheme_from_json(text) == packed.scheme
    assert scheme_to_json(packed.scheme) == text
    with pytest.raises(ValidationError):
        scheme_from_json("{]")


@pytest.mark.parametrize("name", ["TRIANGLE", "STAR", "PATH3", "OMNI"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tree_packing_matches_oracle_on_fixtures(name, n):
    packed = tree_packing_scheme(parse_source(getattr(_sources, name)), n)
    assert packed.trees == _oracle_trees(packed)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), blocklength=st.integers(1, 4))
def test_tree_packing_matches_oracle_on_random_pairwise(seed, n, blocklength):
    packed = tree_packing_scheme(_random_pairwise(random.Random(seed), n), blocklength)
    assert packed.trees == _oracle_trees(packed)


def test_forests_match_the_oracle_on_the_benchmark_pools():
    # Forests and owner maps, at the packing count tree_packing_scheme uses.
    jobs = [job for seed in (1, 2) for job in benchmark_jobs("linear-schemes", seed=seed)
            if job.kind == "tree"]
    assert len(jobs) == 300
    for job in jobs:
        source = parse_source(job.source)
        n = int(job.argv[job.argv.index("-n") + 1])
        k = math.floor(n * protocol_sim.pin_strength(source))
        _assert_forests_match_the_oracle(len(source.users),
                                         _elements(BitSourceInstance(source, n)), k)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), nv=st.integers(2, 6), k=st.integers(1, 6),
       shuffle=st.booleans())
def test_forests_match_the_oracle_on_random_multigraphs(seed, nv, k, shuffle):
    # Parallel edges of 1-6 clones each; k runs below and above the strength,
    # and a shuffled order puts other elements between a failed one's clones.
    rng = random.Random(seed)
    elements = []
    for _ in range(rng.randint(1, 3 * nv)):
        elements.extend([tuple(sorted(rng.sample(range(nv), 2)))] * rng.randint(1, 6))
    if shuffle:
        rng.shuffle(elements)
    _assert_forests_match_the_oracle(nv, elements, k)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40), count=st.integers(0, 50))
def test_gf2_basis_matches_oracle(seed, width, count):
    rng = random.Random(seed)
    rows = [rng.getrandbits(width) for _ in range(count)]
    fast, slow = Gf2Basis(), _oracle.Gf2Basis()
    for row in rows:
        assert fast.add(row) == slow.add(row)
    assert fast.rank == slow.rank
    assert complement_units(fast, width) == _oracle.complement_units(slow, width)
    for _ in range(10):
        v = rng.getrandbits(width)
        assert fast.contains(v) == slow.contains(v)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(SMALL_FIXTURES),
       n=st.integers(1, 3), key_rows=st.integers(1, 4))
def test_verify_matches_oracle_and_replay(seed, name, n, key_rows):
    inst = BitSourceInstance(parse_source(getattr(_sources, name)), n)
    scheme = _random_scheme(random.Random(seed), inst, key_rows)
    report = verify(inst, scheme)
    assert report == _oracle.verify(inst, scheme)
    verdicts = _exhaustive.exhaustive_verdicts(inst, scheme)
    assert verdicts == (report.recoverable, report.perfectly_secret, report.key_uniform)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), blocklength=st.integers(1, 4),
       scale=st.sampled_from([F(1), F(1, 2), F(1, 4)]))
def test_binning_achieved_matches_oracle(seed, n, blocklength, scale):
    # Scaling the optimal rates down makes omniscience fail on some draws.
    rng = random.Random(seed)
    src = parse_source(_sources.random_hypergraph(rng, n, rng.randint(1, 6), integer_weights=True))
    real_rco = protocol_sim.rco

    def scaled_rco(source):
        rates = real_rco(source).witness.rates
        return SimpleNamespace(witness=SimpleNamespace(rates={u: r * scale for u, r in rates.items()}))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol_sim, "rco", scaled_rco)
        binned = random_binning_omniscience(src, blocklength, seed=rng.randrange(100))
    assert binned.achieved == _oracle.omniscience_reached(binned.instance, binned.scheme.transcript)
    assert binned.report == _oracle.verify(binned.instance, binned.scheme)
    assert binned.report == verify(binned.instance, binned.scheme)
    assert binned.achieved == all(binned.report.recoverable.values())


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 3),
       gaps=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 70)), min_size=1, max_size=6))
def test_random_rows_match_the_per_bit_loop(seed, rows, gaps):
    # Runs as binning builds them from a user's edges: ascending, possibly
    # adjacent (gap 0), of any length; the mask is their union.
    runs, pos, mask = [], 0, 0
    for gap, length in gaps:
        pos += gap
        runs.append((pos, length))
        mask |= ((1 << length) - 1) << pos
        pos += length
    fast, slow = random.Random(seed), random.Random(seed)
    assert ([protocol_sim._random_row(fast, runs) for _ in range(rows)]
            == [_oracle.binning_row(slow, mask, pos) for _ in range(rows)])
    assert fast.getrandbits(64) == slow.getrandbits(64)


def test_simulate_stdout_on_the_benchmark_pools_is_pinned(capsys, write_source):
    # The first two template cycles of the seed-1 and seed-2 pools; with
    # --dump-scheme only the digest of stdout is kept.
    pinned = json.loads((Path(__file__).parent / "simulate_stdout.json").read_text(
        encoding="utf-8"))
    cases = {f"{seed}/{job.group}": job
             for seed in (1, 2) for job in benchmark_jobs("linear-schemes", cycles=2, seed=seed)}
    assert cases.keys() == pinned.keys()
    for case, job in cases.items():
        argv = [a.format(src=write_source(job.source, "pool.json")) for a in job.argv]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (pinned[case]["stdout"], ""), case
        assert main([*argv, "--dump-scheme"]) == 0
        captured = capsys.readouterr()
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert (digest, captured.err) == (pinned[case]["dump_scheme_sha256"], ""), case
