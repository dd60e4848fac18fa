import numpy as np

from hiercert import rng


def test_same_inputs_same_outputs():
    a = rng.uniforms(123, 7, 0, 5000)
    b = rng.uniforms(123, 7, 0, 5000)
    assert np.array_equal(a, b)


def test_streams_and_seeds_differ():
    a = rng.uniforms(123, 7, 0, 1000)
    assert not np.array_equal(a, rng.uniforms(123, 8, 0, 1000))
    assert not np.array_equal(a, rng.uniforms(124, 7, 0, 1000))


def test_chunk_invariance():
    whole = rng.uniforms(9, 2, 0, 10_000)
    parts = np.concatenate([
        rng.uniforms(9, 2, 0, 1234),
        rng.uniforms(9, 2, 1234, 4000),
        rng.uniforms(9, 2, 5234, 4766),
    ])
    assert np.array_equal(whole, parts)


def test_uniforms_strictly_inside_unit_interval():
    u = rng.uniforms(5, 1, 0, 200_000)
    assert u.min() > 0.0 and u.max() < 1.0
    # crude uniformity: mean and variance near 1/2 and 1/12
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normals_moments():
    z = rng.normals(11, 3, 0, 200_000)
    assert abs(z.mean()) < 3.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 0.02


def test_normals_are_quantiles_of_uniforms():
    from scipy.special import ndtri

    u = rng.uniforms(4, 6, 10, 100)
    assert np.array_equal(rng.normals(4, 6, 10, 100), ndtri(u))


def test_integers_in_range():
    v = rng.integers(3, 2, 0, 10_000, 7)
    assert v.min() >= 0 and v.max() <= 6
    assert len(np.unique(v)) == 7


def test_mix64_scalar_matches_array():
    xs = np.arange(10, dtype=np.uint64)
    arr = rng.mix64(xs)
    for i, x in enumerate(xs):
        assert rng.mix64(int(x)) == int(arr[i])


_M64 = (1 << 64) - 1


def _mix_ref(x: int) -> int:
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _raw64_ref(seed: int, stream: int, start: int, count: int) -> list[int]:
    """Split-mix on Python ints masked to 64 bits, independent of numpy."""
    salted = (stream & _M64) * 0xD6E8FEB86659FD93 & _M64
    base = _mix_ref((seed & _M64) ^ _mix_ref(salted))
    return [_mix_ref((base + (start + i + 1) * 0x9E3779B97F4A7C15) & _M64)
            for i in range(count)]


_REF_CASES = [(0, 0, 0), (123, 7, 10), (2**63 + 5, 2**40, 2**40 + 3),
              (2**64 - 1, 1, 2**62), (42, 3, 2**64 - 200)]


def test_raw64_matches_pure_python_splitmix():
    for seed, stream, start in _REF_CASES:
        got = rng.raw64(seed, stream, start, 100)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == _raw64_ref(seed, stream, start, 100)


def test_uniforms_match_pure_python_splitmix():
    for seed, stream, start in _REF_CASES:
        ref = [((w >> 11) + 0.5) * 2.0 ** -53 for w in _raw64_ref(seed, stream, start, 100)]
        assert rng.uniforms(seed, stream, start, 100).tolist() == ref


def test_mix64_leaves_its_argument_unchanged():
    xs = np.arange(10, dtype=np.uint64)
    rng.mix64(xs)
    assert np.array_equal(xs, np.arange(10, dtype=np.uint64))


def test_normals_chunking_is_invisible():
    count = 3 * 65536 + 7
    start = 1_000_003
    whole = rng.normals(17, 1, start, count)
    cuts = [0, 1, 65535, 65537, 2 * 65536 + 9, count]
    parts = np.concatenate([rng.normals(17, 1, start + a, b - a)
                            for a, b in zip(cuts, cuts[1:])])
    assert np.array_equal(whole, parts)
    assert rng.normals(17, 1, start, 0).shape == (0,)


def test_stream_seed_of_an_array_matches_the_int_form():
    seeds = np.array([0, 1, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    for stream in (0, 1, 2**40):
        got = rng.stream_seed(seeds, stream)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [rng.stream_seed(int(s), stream) for s in seeds]
    assert np.array_equal(seeds, np.array([0, 1, 2**63 + 5, 2**64 - 1], dtype=np.uint64))


def test_normals_of_a_seed_array_are_rows_of_the_int_form():
    seeds = np.array([2**64 - 1, 0, 7, 2**63 + 1, 99], dtype=np.uint64)
    # rows shorter than a piece share pieces; longer rows are cut into pieces
    for start, count in ((0, 1000), (123, 13_107), (5, 65_536 + 9), (17, 0)):
        got = rng.normals(seeds, 1, start, count)
        assert got.shape == (5, count)
        for r, s in enumerate(seeds):
            assert np.array_equal(got[r], rng.normals(int(s), 1, start, count))
    assert rng.normals(np.empty(0, np.uint64), 1, 0, 10).shape == (0, 10)
