import numpy as np

from geoconvex import rng


def test_scalar_vector_agreement():
    seed = 987654321
    indices = np.arange(40, dtype=np.uint64)
    bases = rng.base_array(seed, indices)
    for pos in (0, 1, 7, 1 << 20):
        vec = rng.unit_array(bases, pos)
        for i in range(40):
            assert vec[i] == (rng.value_at(seed, i, pos) >> 11) * 2.0**-53
    per_row = (1 << 20) + 4099 * np.arange(40)  # one position per base
    vec = rng.unit_array(bases, per_row)
    for i in range(40):
        assert vec[i] == (rng.value_at(seed, i, int(per_row[i])) >> 11) * 2.0**-53


def test_stream_matches_counter_values():
    s = rng.Stream(3, index=5)
    direct = [rng.value_at(3, 5, pos) for pos in range(6)]
    assert [s.next_u64() for _ in range(6)] == direct


def test_streams_differ_across_indices_and_seeds():
    a = rng.Stream(1, 0).next_u64()
    b = rng.Stream(1, 1).next_u64()
    c = rng.Stream(2, 0).next_u64()
    assert len({a, b, c}) == 3


def test_uniform_range_and_mean():
    s = rng.Stream(42)
    draws = [s.uniform(-1.0, 3.0) for _ in range(4000)]
    assert all(-1.0 <= d < 3.0 for d in draws)
    assert abs(sum(draws) / len(draws) - 1.0) < 0.1


def test_normal_moments():
    s = rng.Stream(7)
    draws = np.array([s.normal() for _ in range(4000)])
    assert abs(float(np.mean(draws))) < 0.1
    assert abs(float(np.std(draws)) - 1.0) < 0.1

