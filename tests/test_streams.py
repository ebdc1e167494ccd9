"""`civitas.streams` against its oracle, numpy's SeedSequence, PCG64 and Generator.

Every draw must be bit-equal to numpy's and leave the same PCG64 state
(128-bit LCG state, increment and buffered 32-bit half).  Random cases
cover seeding and interleaved draws; chosen outputs reach every ziggurat
layer on both sides of its fast-path bound, its tail and the edge of its
rejection test, which random draws hit with probability about 2**-53.
"""

import copy
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from civitas import streams
from civitas.metrics import FLEXIBILITY_BLOCK_ROWS
from civitas.streams import PCG_MULT, Pcg64
from tests.replay import pcg_state

MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
INV_MULT = pow(PCG_MULT, -1, 1 << 128)

seeds = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**160))
# The rate of a window is any finite float > 0 (`world.DemandWindow`), so the
# scale 1 / rate runs from the largest float's inverse up to inf (1 / 5e-324);
# the shipped demand's rates lie between 0.001 and 1.
rates = st.one_of(st.floats(0.001, 1.0),
                  st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
scales = rates.map(lambda rate: 1.0 / rate)
bounds = st.one_of(st.just(1), st.integers(1, 16), st.integers(1, 2**32 - 1))
draws = st.lists(st.one_of(st.tuples(st.just("exponential"), scales),
                           st.tuples(st.just("integers"), bounds)), max_size=60)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def numpy_children(seed, n):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


def numpy_at(gen: Pcg64) -> np.random.Generator:
    """A numpy Generator in `gen`'s state."""
    bit_gen = np.random.PCG64()
    bit_gen.state = pcg_state(gen)
    return np.random.Generator(bit_gen)


def assert_same_draw(ours: Pcg64, theirs: np.random.Generator, method: str, arg):
    got, want = getattr(ours, method)(arg), getattr(theirs, method)(arg)
    if method == "exponential":
        assert type(got) is float and bits(got) == bits(want), (arg, got, want)
    else:
        assert got == int(want), (arg, got, want)
    assert pcg_state(ours) == theirs.bit_generator.state


@settings(max_examples=150)
@given(seeds, st.integers(1, 40))
@example(0, 1)
@example(2**32, 3)
@example(2**64 - 1, 33)
def test_spawn_matches_seed_sequence(seed, n):
    got = streams.spawn(seed, n)
    assert [pcg_state(g) for g in got] == [g.bit_generator.state for g in numpy_children(seed, n)]


@settings(max_examples=150)
@given(seeds, st.integers(1, 6), draws)
@example(0, 1, [("integers", 1), ("integers", 3), ("integers", 1), ("exponential", 1.0),
                ("integers", 2**32 - 1), ("exponential", math.inf)])
def test_interleaved_draws_match_numpy(seed, n, calls):
    for ours, theirs in zip(streams.spawn(seed, n), numpy_children(seed, n)):
        for method, arg in calls:
            assert_same_draw(ours, theirs, method, arg)


def test_long_streams_match_numpy():
    """Ten thousand draws per child, as a busy entry takes them."""
    for ours, theirs in zip(streams.spawn(37, 3), numpy_children(37, 3)):
        for k in range(5000):
            assert_same_draw(ours, theirs, "exponential", 1 / 0.15)
            assert_same_draw(ours, theirs, "integers", 1 + k % 5)


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_integers_out_of_range_rejected(n):
    with pytest.raises(ValueError, match=r"n must be in \[1, 2\*\*32\)"):
        streams.spawn(0, 1)[0].integers(n)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        streams.spawn(-1, 1)
    with pytest.raises(ValueError, match="seed must be an int >= 0, got -1"):
        streams.default_rng(-1)


# ------------------------------------------------------------ block draws

FLEX_BLOCK = FLEXIBILITY_BLOCK_ROWS * 3  # what `flexibility` draws for three attributes
WIDE_BLOCK = 4096 * 3  # wider than `flexibility`'s, so the first block doubles further
BLOCK_SEEDS = [0, 2**32, 2**64 + 1, 10**30, 2**128 + 12345]


def assert_doubles_match_numpy(seed, n, block):
    ours, theirs = streams.default_rng(seed), np.random.default_rng(seed)
    got = list(ours.doubles(n, block))
    assert [len(a) for a in got] == [min(block, n - i) for i in range(0, n, block)]
    want = theirs.random(n)
    assert np.concatenate(got or [np.empty(0)]).tobytes() == want.tobytes()
    assert pcg_state(ours) == theirs.bit_generator.state


@settings(max_examples=150)
@given(seeds)
@example(2**128 + 12345)
def test_default_rng_matches_numpy(seed):
    assert pcg_state(streams.default_rng(seed)) == np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("block", [1, 3, FLEX_BLOCK, WIDE_BLOCK])
@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_doubles_match_numpy_around_a_block(seed, block):
    for n in sorted({1, block - 1, block, block + 1}):
        assert_doubles_match_numpy(seed, n, block)


@pytest.mark.parametrize("seed, block", [(0, 3)] + [(s, block) for block in (FLEX_BLOCK, WIDE_BLOCK)
                                                    for s in BLOCK_SEEDS])
def test_doubles_match_numpy_over_many_blocks(seed, block):
    assert_doubles_match_numpy(seed, 300_000, block)


@settings(max_examples=150)
@given(seeds, st.integers(0, 300), st.integers(1, 70), st.booleans())
def test_doubles_match_the_scalar_loop(seed, n, block, buffered):
    ours = streams.default_rng(seed)
    if buffered:
        ours.integers(3)  # leaves a 32-bit half, which doubles neither reads nor drops
    loop = copy.deepcopy(ours)
    got = np.concatenate([np.empty(0), *ours.doubles(n, block)])
    want = [loop.next_double() for _ in range(n)]
    assert got.dtype == np.float64 and [bits(x) for x in got] == [bits(x) for x in want]
    assert pcg_state(ours) == pcg_state(loop)


def test_doubles_state_follows_each_block():
    gen = streams.default_rng(5)
    loop = copy.deepcopy(gen)
    for values in gen.doubles(10, 4):
        assert list(values) == [loop.next_double() for _ in values]
        assert pcg_state(gen) == pcg_state(loop)


def test_doubles_block_below_one_rejected():
    with pytest.raises(ValueError, match="block must be >= 1"):
        next(streams.default_rng(0).doubles(5, 0))


def test_copy_continues_the_stream():
    gen = streams.spawn(9, 1)[0]
    gen.integers(3)  # leaves a buffered half
    twin = copy.deepcopy(gen)
    assert pcg_state(twin) == pcg_state(gen) and twin.has_uint32
    assert [twin.integers(7) for _ in range(5)] == [gen.integers(7) for _ in range(5)]


# ------------------------------------------------------------ chosen outputs

def emitting(out: int, hi: int) -> int:
    """The LCG state with upper half `hi` whose XSL-RR output is `out`."""
    rot = hi >> 58
    x = (out << rot | out >> (64 - rot)) & MASK64  # XSL-RR rotates right
    return hi << 64 | (x ^ hi)


def emitting_next(*outs: int) -> Pcg64:
    """A generator whose next one or two 64-bit outputs are `outs`.

    The LCG state that gives the first output is stepped back once with
    the multiplier's inverse; a second output is reached by choosing the
    increment that steps the first state to the second.
    """
    hi = 0x9E3779B97F4A7C15
    first = emitting(outs[0], hi)
    inc = 0xDA3E39CB94B95BDB0A2D4FAF5A6E8B11
    if len(outs) == 2:
        second = emitting(outs[1], hi ^ 0x5555)
        inc = (second - first * PCG_MULT) & MASK128
        if not inc & 1:  # the low bit of the upper half flips the state's
            second = emitting(outs[1], hi ^ 0x5554)
            inc = (second - first * PCG_MULT) & MASK128
    lcg = (first - inc) * INV_MULT & MASK128
    probe = Pcg64(lcg, inc)
    assert [probe.next_uint64() for _ in outs] == list(outs)
    return Pcg64(lcg, inc)


def ziggurat_output(idx: int, ri: int) -> int:
    """The 64-bit output numpy's exponential reads as layer idx, value ri."""
    return (ri << 8 | idx) << 3 | 0b101  # the low three bits are dropped


def uniform_output(k: int) -> int:
    """The 64-bit output numpy's next_double reads as k / 2**53."""
    return k << 11


def assert_exponential_matches(gen: Pcg64):
    theirs = numpy_at(gen)
    assert theirs.bit_generator.state == pcg_state(gen)
    assert_same_draw(gen, theirs, "exponential", 1.0)


@pytest.mark.parametrize("idx", range(256))
def test_every_layer_on_both_sides_of_its_bound(idx):
    ke = streams.KE[idx]
    # ke - 1 is the largest value the fast path takes; ke falls through to
    # the wedge's rejection test (or, in layer 0, to the tail); the largest
    # value reaches the test with the layer's widest x.
    for ri in sorted({ke - 1, ke, 2**53 - 1} - {-1}):
        assert_exponential_matches(emitting_next(ziggurat_output(idx, ri)))


def test_tail_draws_beyond_the_base_layer():
    for k in (0, 1, 2**52, 2**53 - 1):  # u = 0 gives the tail's start, r
        gen = emitting_next(ziggurat_output(0, streams.KE[0]), uniform_output(k))
        assert_exponential_matches(gen)
    gen = emitting_next(ziggurat_output(0, streams.KE[0]), uniform_output(0))
    assert gen.exponential(1.0) == 7.6971174701310497140446280481


def rejection_edge(idx: int, x: float) -> int:
    """The least k at which the wedge test fe-line(k / 2**53) < exp(-x) fails."""
    fe = streams.FE
    lo, hi = 0, 2**53
    while lo < hi:
        k = (lo + hi) // 2
        if (fe[idx - 1] - fe[idx]) * (k * (1.0 / 2**53)) + fe[idx] < math.exp(-x):
            lo = k + 1
        else:
            hi = k
    return lo


@pytest.mark.parametrize("idx", range(1, 256))
def test_every_wedge_on_both_sides_of_its_rejection_edge(idx):
    for ri in (streams.KE[idx], (streams.KE[idx] + 2**53) // 2, 2**53 - 1):
        edge = rejection_edge(idx, ri * streams.WE[idx])
        for k in {max(edge - 1, 0), min(edge, 2**53 - 1)}:
            gen = emitting_next(ziggurat_output(idx, ri), uniform_output(k))
            assert_exponential_matches(gen)
