"""Counter-based RNG: reference vectors, agreement with the scalar oracle, stream layout."""

import numpy as np

from lflow.rng import unit_uniform_array

from conftest import GOLDEN, MASK64, reference_splitmix64, unit_uniform


def test_splitmix64_reference_vector():
    # first outputs of the canonical stream seeded with 0: the published
    # test vector starts e220a8397b1dcdaf, 6e789e6aa1b965f4, 06c45d188009454f
    vector = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [reference_splitmix64((k * GOLDEN) & MASK64) for k in (0, 1, 2)] == vector
    # U(0, k) is the top 53 bits of output k of that stream
    assert unit_uniform_array(0, 0, 3).tolist() == [(x >> 11) * 2.0**-53 for x in vector]


def test_splitmix64_matches_independent_transcription():
    rng = np.random.default_rng(42)
    for x in rng.integers(0, 2**64, size=500, dtype=np.uint64):
        x = int(x)
        assert unit_uniform_array(x, 0, 1)[0] == (reference_splitmix64(x) >> 11) * 2.0**-53


def test_unit_uniform_range_and_grain():
    # 53-bit mantissa scaling: every draw lies in [0, 1) and is an exact
    # multiple of 2^-53
    for m in (0, 1, 7, 2**63):
        u = unit_uniform_array(m, 0, 200)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))


def test_unit_uniform_frozen_values():
    # regression pins for the exact stream the sampler consumes
    assert unit_uniform_array(1, 0, 3).tolist() == [0.5665615751722809, 0.7457817572627011, 0.9710027535867962]


def test_vector_path_bit_identical_to_scalar():
    for m in (0, 1, 123456789, 2**64 - 1):
        vec = unit_uniform_array(m, 0, 1000)
        scal = np.array([unit_uniform(m, k) for k in range(1000)])
        assert vec.dtype == np.float64
        assert np.array_equal(vec, scal)
    # nonzero start offset
    assert np.array_equal(
        unit_uniform_array(9, 17, 50),
        np.array([unit_uniform(9, 17 + k) for k in range(50)]),
    )


def test_streams_decorrelated_across_seeds():
    a = unit_uniform_array(1, 0, 100)
    b = unit_uniform_array(2, 0, 100)
    assert not np.array_equal(a, b)
    # same (seed, counter) always replays
    assert np.array_equal(a, unit_uniform_array(1, 0, 100))
