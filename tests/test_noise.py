import itertools
import math
import warnings

import numpy as np
import pytest

from gridsde.cli import LEMMA_FUNCTIONALS
from gridsde.grids import GridLevel
from gridsde.identities import TowerEntry, tower_property_report
from gridsde.noise import (
    ConditionalEnsemble,
    NoiseAlphabet,
    NoiseEnsemble,
    NoiseError,
    NoisePath,
    conditional,
    enumerate_paths,
    expectation_detail,
    sample_paths,
    _TILE,
    _mix_int,
    _path_values,
    _sampled_values,
)
from gridsde.sde import CauchyProblem, TrajectorySet, density

TERNARY = NoiseAlphabet.from_symbols((-3, 1, 2))


def all_rows(ens):
    """Every path of the ensemble as one [count, n+1] matrix, in index order."""
    return np.concatenate([block for _, block in ens.batches()])


def row_marker(ens, marks):
    """A block functional: marks[i] on rows equal to path i, 0 elsewhere; reads each row alone."""
    targets = {i: ens.path(i).values for i in marks}

    def phi(v):
        out = np.zeros(len(v))
        for i, target in targets.items():
            out[(v == target).all(axis=1)] = marks[i]
        return out

    return phi


class TestAlphabet:
    def test_white_is_normalized(self):
        a = NoiseAlphabet.white()
        assert a.symbols == (-1.0, 1.0)

    def test_from_symbols_rescales_to_unit_mean_square(self):
        a = NoiseAlphabet.from_symbols([-1.0, 0.0, 1.0])
        assert math.fsum(a.symbols) == pytest.approx(0.0, abs=1e-15)
        assert math.fsum(s * s for s in a.symbols) / 3 == pytest.approx(1.0, rel=1e-14)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(NoiseError):
            NoiseAlphabet.from_symbols([0.0, 1.0])

    def test_unnormalized_direct_construction_rejected(self):
        with pytest.raises(NoiseError):
            NoiseAlphabet((-0.5, 0.5))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NoiseAlphabet((math.nan, math.nan)),
            lambda: NoiseAlphabet((math.inf, -math.inf)),
            lambda: NoiseAlphabet.from_symbols((math.inf, -math.inf)),
            lambda: NoiseAlphabet.from_symbols((math.nan, 1.0)),
            lambda: NoiseAlphabet.from_symbols((1e200, -1e200)),  # finite, but v * v overflows
        ],
        ids=["nan", "inf", "from-inf", "from-nan", "from-huge"],
    )
    def test_non_finite_symbols_rejected(self, build):
        with pytest.raises(NoiseError, match="finite"):
            build()

    def test_scaled_values(self):
        level = GridLevel(9)
        scaled = NoiseAlphabet.white().scaled(level)
        assert list(scaled) == [-3.0, 3.0]


class TestEnumeration:
    def test_count_is_two_to_n_plus_one(self):
        ens = enumerate_paths(GridLevel(8))
        assert ens.count == 512

    def test_n_equal_one_paths_in_lexicographic_order(self):
        ens = enumerate_paths(GridLevel(1))
        paths = [tuple(row) for row in all_rows(ens)]
        assert paths == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_each_path_exactly_once(self):
        ens = enumerate_paths(GridLevel(3))
        seen = {tuple(row) for row in all_rows(ens)}
        assert len(seen) == 16

    @pytest.mark.parametrize(
        "alphabet",
        [NoiseAlphabet.white(), NoiseAlphabet.from_symbols((-3.0, 1.0, 2.0))],
        ids=["binary", "ternary"],
    )
    def test_any_index_range_matches_the_lexicographic_product(self, alphabet):
        level = GridLevel(5)
        ens = enumerate_paths(level, alphabet)
        want = np.array(list(itertools.product(alphabet.scaled(level), repeat=level.n + 1)))
        for batch_size in (1, 5, 7, 9, 64, ens.count):
            got = np.concatenate([block for _, block in ens.batches(batch_size)])
            assert got.tobytes() == want.tobytes()
        for index in (0, 1, ens.count // 3, ens.count - 1):
            assert ens.path(index).values.tobytes() == want[index].tobytes()

    @pytest.mark.parametrize(
        "first, count",
        [
            (0, 40),  # 40 rows held the 16 paths and 24 repeats
            (12, 8),
            (0, 10),  # its classes of xi_0 were runs of 8 and 2
            (2, 4),  # paths 2..5 cut the classes 0..3 and 4..7 of xi_0, xi_1
        ],
    )
    def test_exhaustive_slice_cutting_the_enumeration_rejected(self, first, count):
        level, white = GridLevel(3), NoiseAlphabet.white()
        message = f"paths {first}..{first + count - 1} leave the 16 paths or cut a prefix class"
        with pytest.raises(NoiseError, match=message):
            ConditionalEnsemble(level, white, count, first=first)
        if first == 0:
            with pytest.raises(NoiseError, match=message):
                NoiseEnsemble("exhaustive", level, white, count)

    def test_sibling_classes_are_an_exhaustive_ensemble(self):
        # paths 9..26 of the ternary n = 2 enumeration: the classes whose xi_0
        # is the middle and the top symbol
        level, ternary = GridLevel(2), NoiseAlphabet.from_symbols((-1.0, 0.0, 1.0))
        ens = ConditionalEnsemble(level, ternary, 18, first=9)
        full = all_rows(enumerate_paths(level, ternary))
        assert all_rows(ens).tobytes() == full[9:27].tobytes()
        assert [ens.prefix_rows(k) for k in range(4)] == [18, 9, 3, 1]

    def test_cap_exceeded_advises_sampling(self):
        with pytest.raises(NoiseError, match="sampled"):
            enumerate_paths(GridLevel(40))

    def test_restriction_counting(self):
        # |R[0,t)| * |R_tau[t,1]| = |R| at t = k/n
        n = 6
        ens = enumerate_paths(GridLevel(n))
        for k in (0, 2, 5):
            prefixes = 2**k
            suffix = conditional(ens, tuple([math.sqrt(n)] * k)).count
            assert prefixes * suffix == ens.count

    def test_generalized_alphabet_count(self):
        alpha = NoiseAlphabet.from_symbols([-1.0, 0.0, 1.0])
        ens = enumerate_paths(GridLevel(2), alpha)
        assert ens.count == 3**3
        assert len({tuple(row) for row in all_rows(ens)}) == 27


class TestBatchBuffer:
    @pytest.mark.parametrize(
        "ens, batch_size",
        [
            (enumerate_paths(GridLevel(8)), 7),
            (conditional(enumerate_paths(GridLevel(8)), (math.sqrt(8),)), 7),
            (sample_paths(GridLevel(8), 50, seed=3, alphabet=TERNARY), 7),
            (sample_paths(GridLevel(8), 5, seed=3), 7),  # one short batch fills the buffer
        ],
        ids=["exhaustive", "conditional", "sampled", "sampled-short"],
    )
    def test_blocks_in_the_buffer_equal_fresh_blocks(self, ens, batch_size):
        buffer = np.empty(min(batch_size, ens.count) * (ens.level.n + 1))
        pairs = zip(ens.batches(batch_size), ens.batches(batch_size, out=buffer), strict=True)
        for (start, fresh), (got_start, got) in pairs:
            assert got_start == start and got.flags.c_contiguous
            assert np.shares_memory(got, buffer)
            assert got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize(
        "buffer",
        [
            np.empty(7 * 9 - 1),
            np.empty((7, 9)),
            np.empty(7 * 9, dtype=np.float32),
            np.empty(2 * 7 * 9)[::2],
        ],
        ids=["short", "2d", "float32", "strided"],
    )
    def test_buffer_must_be_flat_contiguous_float64_and_hold_a_batch(self, buffer):
        with pytest.raises(NoiseError, match="batch buffer"):
            next(enumerate_paths(GridLevel(8)).batches(7, out=buffer))


class TestSampling:
    def test_same_seed_same_path(self):
        level = GridLevel(16)
        a = sample_paths(level, 10, seed=42).path(3)
        b = sample_paths(level, 10, seed=42).path(3)
        assert np.array_equal(a.values, b.values)

    def test_path_independent_of_batching(self):
        level = GridLevel(8)
        ens = sample_paths(level, 1000, seed=5)
        big = np.concatenate([block for _, block in ens.batches(1000)])
        small = np.concatenate([block for _, block in ens.batches(17)])
        assert np.array_equal(big, small)

    def test_different_seeds_differ(self):
        level = GridLevel(16)
        a = sample_paths(level, 1, seed=1).path(0)
        b = sample_paths(level, 1, seed=2).path(0)
        assert not np.array_equal(a.values, b.values)

    def test_sample_mean_clt_bound(self):
        n, m = 64, 1_000_000
        ens = sample_paths(GridLevel(n), m, seed=101)
        # single grid point suffices; pull it from the batch stream
        total = 0.0
        for _, block in ens.batches(1 << 16):
            total += float(block[:, 10].sum())
        mean = total / m
        assert abs(mean) <= 4.0 * math.sqrt(n) / math.sqrt(m)

    def test_mean_square_exact_for_binary(self):
        n, m = 64, 10_000
        ens = sample_paths(GridLevel(n), m, seed=7)
        block = next(ens.batches(m))[1]
        ms = float((block[:, 3] ** 2).mean())
        assert ms == pytest.approx(n, rel=1e-12)

    def test_values_lie_in_scaled_alphabet(self):
        level = GridLevel(9)
        ens = sample_paths(level, 500, seed=3)
        block = next(ens.batches(500))[1]
        assert set(np.unique(block)) <= {-3.0, 3.0}

    @pytest.mark.parametrize(
        "alphabet",
        [NoiseAlphabet.white(), NoiseAlphabet.from_symbols((-3, 1, 2))],
        ids=["binary", "ternary"],
    )
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    @pytest.mark.parametrize("start", [0, 1, 32767])
    def test_block_matches_per_element_hash(self, alphabet, seed, start):
        level, rows = GridLevel(8), 40
        ens = sample_paths(level, 40000, seed=seed, alphabet=alphabet)
        block = ens._values_for(start, start + rows)
        assert block.tobytes() == reference_sampled_block(ens, start, start + rows).tobytes()

    @pytest.mark.parametrize("alphabet", [NoiseAlphabet.white(), TERNARY], ids=["binary", "ternary"])
    @pytest.mark.parametrize("first", [0, _TILE - 1, 3 * _TILE + 12345])
    @pytest.mark.parametrize("count", [1, _TILE - 1, _TILE + 1])
    def test_tiles_match_per_element_hash(self, alphabet, first, count):
        level = GridLevel(8)
        scaled = alphabet.scaled(level)
        out = np.empty(count)
        _sampled_values(11, first, scaled, out)
        want = scaled[reference_digits(11, alphabet.size, first, first + count)]
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alphabet", [NoiseAlphabet.white(), TERNARY], ids=["binary", "ternary"])
    @pytest.mark.parametrize(
        "n, start, rows",
        [(6, 4681, 4681), (6, 4680, 2 * 4681 + 1), (2, 10923, 10923), (2, 5, 2 * 10923)],
    )
    def test_blocks_straddling_tiles_match_per_element_hash(self, alphabet, n, start, rows):
        # 4681 * 7 = 2^15 - 1 and 10923 * 3 = 2^15 + 1: no start is a tile boundary
        ens = sample_paths(GridLevel(n), start + rows, seed=2**40 + 3, alphabet=alphabet)
        assert (start * (n + 1)) % _TILE != 0
        block = ens._values_for(start, start + rows)
        assert block.tobytes() == reference_sampled_block(ens, start, start + rows).tobytes()

    def test_batches_are_c_contiguous_row_major(self):
        level = GridLevel(6)
        for ens in (
            sample_paths(level, 1000, seed=1),
            sample_paths(level, 1000, seed=1, alphabet=TERNARY),
            enumerate_paths(level),
            conditional(enumerate_paths(level), (math.sqrt(6),)),
        ):
            for _, block in ens.batches(300):
                assert block.shape[1] == level.n + 1
                assert block.flags.c_contiguous


def reference_digits(seed, size, first, stop):
    """Symbol indices of the counters first..stop-1, one element at a time.

    Counter c has hash z = mix(key + (c + 1) * golden); its symbol index is
    floor(u * |A|) for u = (z >> 11) * 2^-53, capped at |A| - 1.
    """
    key = _mix_int(seed ^ 0xD1B54A32D192ED03)
    digits = []
    for counter in range(first, stop):
        u = (_mix_int(key + (counter + 1) * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53
        digits.append(min(int(u * size), size - 1))
    return np.asarray(digits, dtype=np.int64)


def reference_sampled_block(ens, start, stop):
    """Sampled values hashed one element at a time: point j of path i has counter i*(n+1) + j."""
    points = ens.level.n + 1
    digits = reference_digits(ens.seed, ens.alphabet.size, start * points, stop * points)
    return ens.alphabet.scaled(ens.level)[digits.reshape(stop - start, points)]


def prefix_ensembles():
    """Full, conditional and doubly conditional ensembles, binary and ternary."""
    binary, ternary = enumerate_paths(GridLevel(4)), enumerate_paths(GridLevel(3), TERNARY)
    s = ternary.alphabet.scaled(ternary.level)
    return [
        binary,
        conditional(binary, (2.0,)),
        conditional(conditional(binary, (-2.0,)), (-2.0, 2.0, 2.0)),
        ternary,
        conditional(ternary, (s[1], s[2])),
        conditional(conditional(ternary, (s[2], s[0])), (s[2],)),
    ]


class TestConditional:
    @pytest.mark.parametrize("ens", prefix_ensembles())
    def test_prefix_rows_match_a_brute_force_count(self, ens):
        rows = all_rows(ens)
        for length in range(ens.level.n + 2):
            keys = [tuple(row[:length]) for row in rows]
            runs = [len(list(run)) for _, run in itertools.groupby(keys)]
            # each class is one run of prefix_rows(length) paths
            assert len(runs) == len(set(keys))
            assert set(runs) == {ens.prefix_rows(length)}

    @pytest.mark.parametrize("alphabet", [NoiseAlphabet.white(), TERNARY], ids=["binary", "ternary"])
    def test_nested_conditional_is_the_slice_of_the_longer_prefix(self, alphabet):
        level = GridLevel(4)
        ens = enumerate_paths(level, alphabet)
        full = all_rows(ens)
        s, size = alphabet.scaled(level), alphabet.size
        # (digits of the shorter prefix, digits of the longer one that extends it)
        for short, long in [((size - 1,), (size - 1, 0)), ((0, size - 1), (0, size - 1, size - 1))]:
            prefix = tuple(s[list(long)].tolist())
            want = conditional(ens, prefix)
            block = size ** (level.n + 1 - len(long))
            first = int(np.ravel_multi_index(long, (size,) * len(long))) * block
            assert (want.first, want.count, want.prefix) == (first, block, prefix)
            assert all_rows(want).tobytes() == full[first : first + block].tobytes()
            assert conditional(conditional(ens, s[list(short)]), prefix) == want
            assert conditional(want, s[list(short)]) == want
            assert conditional(want, prefix) == want

    def test_conflicting_prefix_raises(self):
        ens = enumerate_paths(GridLevel(4))
        cond = conditional(ens, (2.0,))
        for prefix in [(-2.0,), (-2.0, 2.0), (2.0,) * 6]:  # the last is longer than a path
            with pytest.raises(NoiseError):
                conditional(cond, prefix)
        with pytest.raises(NoiseError, match="no path of the ensemble holds the prefix"):
            conditional(conditional(cond, (2.0, 2.0)), (2.0, -2.0))

    @pytest.mark.parametrize(
        "level, alphabet", [(GridLevel(3), NoiseAlphabet.white()), (GridLevel(2), TERNARY)],
        ids=["binary", "ternary"],
    )
    def test_prefix_is_the_longest_run_every_path_holds(self, level, alphabet):
        # every slice that cuts no prefix class, and each of those conditioned on
        # every prefix it meets, against the longest run all its rows share
        total, s = alphabet.size ** (level.n + 1), alphabet.scaled(level)
        slices = []
        for first, count in itertools.combinations_with_replacement(range(total + 1), 2):
            try:
                slices.append(ConditionalEnsemble(level, alphabet, count - first, first=first))
            except NoiseError:
                pass
        prefixes = [
            tuple(s[list(digits)].tolist())
            for length in range(level.n + 2)
            for digits in itertools.product(range(alphabet.size), repeat=length)
        ]
        found = list(slices)
        for ens in slices:
            for prefix in prefixes:
                try:
                    found.append(conditional(ens, prefix))
                except NoiseError:
                    pass
        descriptors = {}
        for ens in found:
            rows = all_rows(ens)
            shared = next(p for p in range(level.n + 1, -1, -1) if (rows[:, :p] == rows[0, :p]).all())
            assert ens.prefix == tuple(rows[0, :shared].tolist())
            # one path set, one descriptor, however the ensemble was built
            key = (ens.first, ens.count)
            assert descriptors.setdefault(key, ens.descriptor()) == ens.descriptor()
        assert len(found) > len(slices) >= 2 * total - 1  # at least every node of the tree

    def test_equal_path_sets_have_equal_descriptors(self):
        white = NoiseAlphabet.white()
        e8 = NoiseEnsemble("exhaustive", GridLevel(4), white, 8)  # paths 0..7 hold (-2, -2)
        want = {**e8.descriptor(), "prefix": [-2.0, -2.0]}
        assert conditional(e8, (-2.0,)).descriptor() == want
        assert conditional(e8, (-2.0, -2.0)).descriptor() == want
        assert ConditionalEnsemble(GridLevel(4), white, 8, first=0).descriptor() == want

    def test_direct_construction_reads_its_prefix_from_the_range(self):
        white = NoiseAlphabet.white()
        assert ConditionalEnsemble(GridLevel(4), white, 16, first=0).prefix == (-2.0,)
        assert ConditionalEnsemble(GridLevel(4), white, 32, first=0).prefix == ()
        assert ConditionalEnsemble(GridLevel(4), white, 1, first=31).prefix == (2.0,) * 5
        with pytest.raises(TypeError):
            ConditionalEnsemble(GridLevel(4), white, 16, first=0, prefix=(2.0,))

    def test_count_formula(self):
        # n=2, binary, prefix of length 1 -> 2^(3-1) = 4 members
        ens = enumerate_paths(GridLevel(2))
        cond = conditional(ens, (math.sqrt(2),))
        assert cond.count == 4

    def test_members_agree_with_prefix(self):
        n = 4
        ens = enumerate_paths(GridLevel(n))
        prefix = (math.sqrt(n), -math.sqrt(n))
        cond = conditional(ens, prefix)
        for row in all_rows(cond):
            assert tuple(row[:2]) == prefix

    def test_count_independent_of_prefix(self):
        n = 5
        ens = enumerate_paths(GridLevel(n))
        s = math.sqrt(n)
        counts = {
            conditional(ens, p).count
            for p in [(s, s), (s, -s), (-s, s), (-s, -s)]
        }
        assert counts == {2 ** (n - 1)}

    def test_conditional_moments_exact(self):
        n = 4
        ens = enumerate_paths(GridLevel(n))
        cond = conditional(ens, (math.sqrt(n), math.sqrt(n)))
        mean = expectation_detail(cond, lambda v: v[:, 2]).mean
        second = expectation_detail(cond, lambda v: v[:, 2] ** 2).mean
        assert mean == 0.0
        assert second == pytest.approx(n, rel=1e-14)

    @pytest.mark.parametrize(
        "alphabet",
        [NoiseAlphabet.white(), NoiseAlphabet.from_symbols((-1.0, 0.0, 1.0))],
        ids=["binary", "ternary"],
    )
    def test_batches_are_index_slices_of_full_ensemble(self, alphabet):
        level = GridLevel(6)
        ens = enumerate_paths(level, alphabet)
        full = np.concatenate([block for _, block in ens.batches()])
        scaled, size = alphabet.scaled(level), alphabet.size
        for length in (1, 2, 3):
            block = size ** (level.n + 1 - length)
            for p, digits in enumerate(itertools.product(range(size), repeat=length)):
                cond = conditional(ens, tuple(scaled[list(digits)]))
                starts, values = zip(*cond.batches(5))
                assert starts == tuple(range(0, block, 5))
                rows = full[p * block : (p + 1) * block]
                assert np.concatenate(values).tobytes() == rows.tobytes()

    def test_sampled_mode_unsupported(self):
        ens = sample_paths(GridLevel(4), 10, seed=1)
        with pytest.raises(NoiseError, match="exhaustive"):
            conditional(ens, (2.0,))

    def test_bad_prefix_symbol_rejected(self):
        ens = enumerate_paths(GridLevel(4))
        with pytest.raises(NoiseError):
            conditional(ens, (0.5,))

    @pytest.mark.parametrize(
        "alphabet",
        [NoiseAlphabet.white(), NoiseAlphabet.from_symbols((-1.0, 0.0, 1.0))],
        ids=["binary", "ternary"],
    )
    def test_path_is_base_path_at_offset(self, alphabet):
        level = GridLevel(6)
        ens = enumerate_paths(level, alphabet)
        scaled = alphabet.scaled(level)
        cond = conditional(ens, (scaled[-1], scaled[0]))
        offset = (alphabet.size - 1) * alphabet.size * cond.count
        for i in (0, cond.count // 2, cond.count - 1):
            path = cond.path(i)
            assert path.path_index == i
            assert np.array_equal(path.values, ens.path(offset + i).values)
        for bad in (-1, cond.count):
            with pytest.raises(NoiseError, match="out of range"):
                cond.path(bad)


def python_int_rows(ens):
    """Paths first..first+count-1 of the enumeration, digit by digit in Python ints."""
    size, points = ens.alphabet.size, ens.level.n + 1
    rows = []
    for index in range(ens.first, ens.first + ens.count):
        digits = []
        for _ in range(points):
            index, digit = divmod(index, size)
            digits.append(digit)
        rows.append(digits[::-1])
    return ens.alphabet.scaled(ens.level)[np.array(rows)]


class TestSlicesPastTwoToThe63:
    # at n = 70 the binary enumeration holds 2^71 paths; each prefix of 68 points is 8 of them
    S = math.sqrt(70)

    @pytest.mark.parametrize(
        "prefix, first",
        [([-S] * 68, 0), ([-S] * 5 + [S] + [-S] * 62, 2**65), ([S] * 68, 2**71 - 8)],
        ids=["first", "digit-5", "last"],
    )
    def test_slice_is_its_python_int_digit_expansion(self, prefix, first):
        level = GridLevel(70)
        full = NoiseEnsemble("exhaustive", level, NoiseAlphabet.white(), 2**71)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = conditional(full, prefix)
            assert (ens.first, ens.count) == (first, 8)
            want = python_int_rows(ens)
            assert all_rows(ens).tobytes() == want.tobytes()
            assert ens.prefix == tuple(prefix)
            trajectories = TrajectorySet(CauchyProblem("-x", "1", 0.0, level), ens)
            noise = np.concatenate([block for _, block, _ in trajectories.batches()])
            assert noise.tobytes() == want.tobytes()
            dens = density(trajectories)
        assert (dens.counts.sum(axis=1) + dens.overflow).tolist() == [8] * 71


class TestExpectation:
    def test_constant_functional(self):
        ens = enumerate_paths(GridLevel(3))
        assert expectation_detail(ens, lambda v: np.full(len(v), 2.5)).mean == 2.5

    def test_single_point_mean_zero_exact(self):
        ens = enumerate_paths(GridLevel(6))
        assert expectation_detail(ens, lambda v: v[:, 4]).mean == 0.0

    def test_tower_property_exact_for_arbitrary_functionals(self):
        n = 4
        ens = enumerate_paths(GridLevel(n))
        functionals = [
            lambda v: np.cumsum(v, axis=1).max(axis=1),
            lambda v: np.sin(v[:, 1]) * v[:, 3] ** 2,
            lambda v: np.abs(v).sum(axis=1),
        ]
        s = math.sqrt(n)
        for phi in functionals:
            full = expectation_detail(ens, phi).mean
            partials = []
            for bits in range(4):
                prefix = (s if bits & 2 else -s, s if bits & 1 else -s)
                partials.append(expectation_detail(conditional(ens, prefix), phi).mean)
            assert full == pytest.approx(math.fsum(partials) / 4, rel=1e-12, abs=1e-12)

    def test_non_finite_value_names_path(self):
        ens = enumerate_paths(GridLevel(2))
        bad = row_marker(ens, {5: np.inf})
        with pytest.raises(NoiseError, match="path 5$"):
            expectation_detail(ens, bad)

    def test_sampled_standard_error_reported(self):
        ens = sample_paths(GridLevel(4), 400, seed=9)
        detail = expectation_detail(ens, lambda v: v[:, 0])
        assert detail.count == 400
        assert detail.stderr > 0.0

    def test_exhaustive_cross_moments_exact(self):
        n = 6
        ens = enumerate_paths(GridLevel(n))
        block = np.concatenate([b for _, b in ens.batches()])
        second = block.T @ block / ens.count
        assert np.max(np.abs(second - n * np.eye(n + 1))) <= 1e-10 * n


def reference_lemma_values(ens):
    """The CLI's three tower functionals on each path alone, in a per-row loop.

    Row r gives mean(r), r[mid]^2 and max(cumsum(r)), each as a Python float;
    the result is [3, count] in path order.
    """
    return np.array(
        [
            [float(np.mean(r)), float(r[len(r) // 2] ** 2), float(np.max(np.cumsum(r)))]
            for r in all_rows(ens)
        ]
    ).T


BLOCK_CASES = {
    "binary-n14": (GridLevel(14), NoiseAlphabet.white()),
    "binary-n15": (GridLevel(15), NoiseAlphabet.white()),  # 65536 paths in 2 batches
    "ternary-n8": (GridLevel(8), NoiseAlphabet.from_symbols((-3, 1, 2))),
}


class TestBlockFunctionals:
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_cli_functionals_match_per_row_loop(self, case):
        ens = enumerate_paths(*BLOCK_CASES[case])
        got = _path_values(ens, [phi for _, phi in LEMMA_FUNCTIONALS])
        assert got.tobytes() == reference_lemma_values(ens).tobytes()

    def test_tower_entries_match_per_row_fsum_means(self):
        ens = enumerate_paths(GridLevel(15))
        split = 7
        report = tower_property_report(ens, LEMMA_FUNCTIONALS, split)
        for (label, _), column, entry in zip(
            LEMMA_FUNCTIONALS, reference_lemma_values(ens), report.entries
        ):
            full = math.fsum(column) / len(column)
            blocks = column.reshape(2**split, -1)
            decomposed = math.fsum(math.fsum(b) / len(b) for b in blocks) / 2**split
            assert entry == TowerEntry(label, full, decomposed, abs(full - decomposed))

    @pytest.mark.parametrize(
        "phi",
        [lambda v: v.mean(), lambda v: np.stack([v[:, 0], v[:, 1]], axis=1)],
        ids=["scalar", "two-columns"],
    )
    def test_return_not_one_value_per_row_rejected(self, phi):
        ens = enumerate_paths(GridLevel(4))
        with pytest.raises(NoiseError, match=r"shape \((|32, 2)\), not \(32,\)"):
            expectation_detail(ens, phi)
        with pytest.raises(NoiseError, match="shape"):
            tower_property_report(ens, [("bad", phi)], 2)

    def test_non_finite_value_in_second_batch_names_global_path(self):
        ens = enumerate_paths(GridLevel(15))
        first = 32768 + 5
        bad = row_marker(ens, {first: np.inf, first + 1000: np.nan, 3: 1.0})
        with pytest.raises(NoiseError, match=f"path {first}$"):
            expectation_detail(ens, bad)


class TestNoisePath:
    def test_length_enforced(self):
        with pytest.raises(NoiseError):
            NoisePath(GridLevel(4), np.zeros(3))

    def test_values_read_only(self):
        path = enumerate_paths(GridLevel(2)).path(0)
        with pytest.raises(ValueError):
            path.values[0] = 0.0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NoiseAlphabet((1.0,)), "at least 2 symbols"),
        (lambda: NoiseAlphabet.from_symbols([1.0]), "at least 2 symbols"),
        (lambda: NoiseEnsemble("bogus", GridLevel(4), TERNARY, 4), "unknown ensemble mode"),
        (lambda: NoiseEnsemble("sampled", GridLevel(4), TERNARY, 4), "integer seed, got None"),
        (
            lambda: NoiseEnsemble("exhaustive", GridLevel(3), NoiseAlphabet.white(), 16, seed=True),
            "exhaustive ensembles read no seed, got True",
        ),
    ],
    ids=[
        "one-symbol", "one-symbol-from-symbols", "unknown-mode", "sampled-without-seed", "exhaustive-with-seed",
    ],
)
def test_refusal(build, message):
    with pytest.raises(NoiseError, match=message):
        build()
