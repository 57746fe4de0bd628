"""Noise alphabets and path ensembles.

A noise path assigns one symbol, scaled by sqrt(n), to each of the n+1 grid
points of the time lattice.  The binary alphabet {-1, +1} gives the
coin-flip driving term; exhaustive mode enumerates all |A|^(n+1) paths
exactly once so ensemble averages are exact counting sums, while sampled
mode draws reproducible paths from a counter-based generator.

Exhaustive path i holds at grid point j the symbol of digit j of i in n+1
base-|A| digits.  ``_digits`` is that rule, in Python ints, so a slice is
exact at any index; blocks and conditional prefixes both read it.

The generator is a pure function of (seed, path index, grid point), so a
path's value never depends on how work is batched.
Grid point j of path i has counter i*(n+1) + j, hashed by splitmix64 to a
64-bit z.  With u = (z >> 11) * 2^-53 in [0, 1), the symbol index is
floor(u * |A|), capped at |A| - 1, computed in floats.  For the binary
alphabet that is exactly the top bit z >> 63, which is how it is computed;
for other sizes the float rule stays, because floor(u * 3) in floats can
differ from integer arithmetic on z.  Sampled counters are hashed in tiles
of 2^15 that stay in cache; each value depends on its counter alone, so the
tiling cannot change one.  ``batches()`` yields C-contiguous row-major
blocks ``[rows, n+1]`` in both modes, fresh per batch or, given a buffer
``out``, written into its front, which the next batch overwrites.

A path functional maps a noise block [rows, n+1] to one float per row, e.g.
``v.mean(axis=1)``; it must read each row alone, or its values would depend
on the batch size.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .grids import GridLevel, integer_in

__all__ = [
    "NoiseError",
    "NoiseAlphabet",
    "NoisePath",
    "NoiseEnsemble",
    "ConditionalEnsemble",
    "ExpectationResult",
    "enumerate_paths",
    "sample_paths",
    "conditional",
    "expectation_detail",
    "DEFAULT_ENUMERATION_CAP",
]


class NoiseError(ValueError):
    """Invalid noise construction or unsupported ensemble operation."""


DEFAULT_ENUMERATION_CAP = 1 << 24
_DEFAULT_BATCH = 1 << 15
_ENDINGS_ROWS = 1 << 12  # at most this many rows in the cached table of path endings

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TILE = 1 << 15  # elements per cache tile: a buffer of 2^15 8-byte values fits a core's L2 cache

PathFunctional = Callable[[np.ndarray], np.ndarray]  # noise block [rows, n+1] -> one value per row


def _mix_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _sampled_values(seed: int, first: int, scaled: np.ndarray, out: np.ndarray) -> None:
    """Write the scaled symbols of counters first, first+1, ... into the flat ``out``.

    Counter c hashes to mix(key(seed) + (c + 1) * golden) modulo 2^64, which
    is ``_mix_int`` applied per element.  The counters run in tiles of
    ``_TILE``: each tile is hashed in two reused buffers, mapped to symbols
    and written to its slice of ``out``, so a tile's temporaries stay in
    cache.  Every value is a function of its counter alone, so the tiling
    cannot change one.
    """
    size = len(scaled)
    key = _mix_int(seed ^ 0xD1B54A32D192ED03)
    ramp = np.arange(min(_TILE, out.size), dtype=np.uint64) * np.uint64(_GOLDEN)
    z, shifted = np.empty_like(ramp), np.empty_like(ramp)
    low, high = scaled.view(np.int64)[:2]
    for lo in range(0, out.size, _TILE):
        values = out[lo : lo + _TILE]
        zt, st = z[: values.size], shifted[: values.size]
        # (c + 1) * golden for the tile's counters: one offset plus i * golden
        np.add(ramp[: values.size], np.uint64((key + (first + lo + 1) * _GOLDEN) & _MASK64), out=zt)
        for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.right_shift(zt, np.uint64(shift), out=st)
            zt ^= st
            zt *= np.uint64(multiplier)
        if size == 2:
            # floor(u * 2) with u = (z >> 11) * 2^-53 is the top bit, which the
            # last round z ^= z >> 31 leaves alone; an arithmetic shift spreads
            # it over all 64 bits, selecting the bits of scaled[0] or scaled[1]
            bits = values.view(np.int64)
            np.right_shift(zt.view(np.int64), 63, out=bits)
            bits &= low ^ high
            bits ^= low
            continue
        np.right_shift(zt, np.uint64(31), out=st)
        zt ^= st
        np.right_shift(zt, np.uint64(11), out=zt)
        values[...] = zt  # u * 2^53, exact in float64
        values *= 2.0**-53
        values *= size
        digits = zt.view(np.int64)
        digits[...] = values
        np.minimum(digits, size - 1, out=digits)
        np.take(scaled, digits, out=values, mode="clip")


@dataclass(frozen=True)
class NoiseAlphabet:
    """Symbols q_i with sum 0 and mean square 1.

    Path values are symbol * sqrt(n), so the mean-square normalization makes
    the single-point second moment exactly n under uniform choice, which is
    what the exact expectation identities require.  ``from_symbols``
    rescales arbitrary zero-sum symbols to that normalization.
    """

    symbols: tuple[float, ...]

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise NoiseError("alphabet needs at least 2 symbols")
        if not all(map(math.isfinite, self.symbols)):
            raise NoiseError(f"alphabet symbols must be finite, got {self.symbols}")
        total = math.fsum(self.symbols)
        scale = max(abs(s) for s in self.symbols)
        if scale == 0.0 or abs(total) > 1e-12 * max(1.0, scale):
            raise NoiseError("alphabet symbols must sum to 0")
        ms = math.fsum(s * s for s in self.symbols) / len(self.symbols)
        if abs(ms - 1.0) > 1e-12:
            raise NoiseError("alphabet symbols must have mean square 1; use from_symbols")

    @classmethod
    def white(cls) -> "NoiseAlphabet":
        return cls((-1.0, 1.0))

    @classmethod
    def from_symbols(cls, raw: Sequence[float]) -> "NoiseAlphabet":
        raw = [float(v) for v in raw]
        if len(raw) < 2:
            raise NoiseError("alphabet needs at least 2 symbols")
        ms = math.fsum(v * v for v in raw) / len(raw)
        if not 0.0 < ms < math.inf:
            raise NoiseError(f"alphabet symbols need a finite, nonzero mean square, got {raw}")
        scale = math.sqrt(ms)
        return cls(tuple(v / scale for v in raw))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def scaled(self, level: GridLevel) -> np.ndarray:
        return np.asarray(self.symbols, dtype=np.float64) * math.sqrt(level.n)


@dataclass(frozen=True)
class NoisePath:
    """One noise realization: n+1 values, each symbol * sqrt(n)."""

    level: GridLevel
    values: np.ndarray
    path_index: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        expected = self.level.n + 1
        if arr.ndim != 1 or arr.shape[0] != expected:
            raise NoiseError(f"noise path needs {expected} values, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


def _class_size(alphabet: NoiseAlphabet, level: GridLevel, length: int) -> int:
    """|A|^(n+1-length): the paths of the enumeration that agree on grid points 0..length-1."""
    return alphabet.size ** (level.n + 1 - length)


@dataclass(frozen=True)
class NoiseEnsemble:
    """Descriptor of an exhaustive or sampled set of noise paths.

    Exhaustive mode iterates paths first..first+count-1 of the enumeration,
    each once, in lexicographic order (earliest grid point most significant,
    symbols ascending), and cuts no prefix class (``prefix_rows``).  Sampled
    mode reproduces path i from (seed, i) alone.
    """

    mode: str
    level: GridLevel
    alphabet: NoiseAlphabet
    count: int
    seed: int | None = None

    first = 0  # exhaustive path 0 is path ``first`` of the enumeration

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise NoiseError(f"unknown ensemble mode {self.mode!r}")
        message = f"path count {self.count!r} is not a positive integer"
        object.__setattr__(self, "count", integer_in(self.count, 1, None, NoiseError, message))
        if self.mode == "sampled":
            message = f"sampled ensembles need an integer seed, got {self.seed!r}"
            object.__setattr__(self, "seed", integer_in(self.seed, None, None, NoiseError, message))
        if self.mode == "exhaustive":
            if self.seed is not None:
                raise NoiseError(f"exhaustive ensembles read no seed, got {self.seed!r}")
            message = f"first path {self.first!r} is not a non-negative integer"
            object.__setattr__(self, "first", integer_in(self.first, 0, None, NoiseError, message))
            stop = self.first + self.count
            sizes = [_class_size(self.alphabet, self.level, k) for k in range(self.level.n + 2)]
            # at every prefix length the slice holds whole classes or lies within one
            if self.first < 0 or stop > sizes[0] or any(
                (self.first % size or stop % size) and self.first // size != (stop - 1) // size
                for size in sizes
            ):
                raise NoiseError(
                    f"paths {self.first}..{stop - 1} leave the {sizes[0]} paths or cut a prefix class"
                )

    def prefix_rows(self, length: int) -> int:
        """min(count, |A|^(n+1-length)): the run of paths that agree on grid points 0..length-1.

        NoiseError unless exhaustive with ``length`` an integer in 0..n+1 (numpy's too; not a bool).
        """
        if self.mode != "exhaustive":
            raise NoiseError("prefix classes need an exhaustive ensemble")
        message = f"prefix length {length!r} is not an integer in 0..{self.level.n + 1}"
        length = integer_in(length, 0, self.level.n + 1, NoiseError, message)
        return min(self.count, _class_size(self.alphabet, self.level, length))

    def descriptor(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.level.n,
            "alphabet": list(self.alphabet.symbols),
            "count": self.count,
            "seed": self.seed,
        }

    def _values_for(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        points = self.level.n + 1
        scaled = self.alphabet.scaled(self.level)
        if self.mode == "exhaustive":
            return _lexicographic_block(scaled, self.first + start, self.first + stop, points, out)
        # rows start..stop-1 are the consecutive counters start*points .. stop*points-1
        block = _block(out, stop - start, points)
        _sampled_values(self.seed, start * points, scaled, block.reshape(-1))
        return block

    def batches(
        self, batch_size: int = _DEFAULT_BATCH, out: np.ndarray | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (first path index, C-contiguous value matrix [batch, n+1]) in index order.

        Without ``out`` every matrix is a fresh array.  ``out`` is a flat
        contiguous float64 buffer of at least min(batch_size, count) * (n+1)
        values; each matrix is then a view of its front, which the next
        batch overwrites, so a caller copies what it keeps past its
        iteration.  NoiseError unless batch_size is an integer >= 1 (numpy's too; not a bool).
        """
        message = f"batch size must be a positive integer, got {batch_size!r}"
        batch_size = integer_in(batch_size, 1, None, NoiseError, message)
        rows = min(batch_size, self.count)
        if out is not None and (
            out.ndim != 1
            or out.dtype != np.float64
            or not out.flags.c_contiguous
            or out.size < rows * (self.level.n + 1)
        ):
            raise NoiseError(
                f"batch buffer must be a flat contiguous float64 array of at least {rows} * "
                f"{self.level.n + 1} values, got {out.dtype} {out.shape}"
            )
        for start in range(0, self.count, batch_size):
            stop = min(start + batch_size, self.count)
            yield start, self._values_for(start, stop, out)

    def path(self, index: int) -> NoisePath:
        index = integer_in(index, 0, self.count - 1, NoiseError, f"path index {index!r} out of range")
        values = self._values_for(index, index + 1)[0]
        return NoisePath(self.level, values, path_index=index)


def _block(out: np.ndarray | None, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous [rows, cols] matrix: fresh, or the front of the flat buffer ``out``."""
    if out is None:
        return np.empty((rows, cols))
    return out[: rows * cols].reshape(rows, cols)


def _digits(index: int, size: int, places: int) -> list[int]:
    """Digit j of ``index`` in ``places`` base-``size`` digits, most significant first, in Python ints."""
    return [index // size**j % size for j in range(places - 1, -1, -1)]


@functools.lru_cache(maxsize=1)
def _low_places(symbols: tuple[float, ...], places: int) -> np.ndarray:
    """Every path of ``places`` grid points in lexicographic order (read-only)."""
    out = np.array(list(itertools.product(symbols, repeat=places)), dtype=np.float64)
    out.flags.writeable = False
    return out


def _lexicographic_block(
    symbols: np.ndarray, start: int, stop: int, points: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Paths start..stop-1 of the lexicographic order, as a [rows, points] matrix.

    The matrix is fresh, or the front of the flat buffer ``out``.

    With |A|^p <= rows, the last p points of consecutive paths cycle through
    one table of all |A|^p endings, and the first points change only when
    the cycle restarts; so each block is a few slice copies of that cached
    table instead of a division of every path index by every place value.
    """
    size = len(symbols)
    places, period = 0, 1
    while places < points and period * size <= min(stop - start, _ENDINGS_ROWS):
        places, period = places + 1, period * size
    low = _low_places(tuple(symbols.tolist()), places)
    high = points - places
    block = _block(out, stop - start, points)
    for first in range(start - start % period, stop, period):
        lo, hi = max(first, start), min(first + period, stop)
        rows = block[lo - start : hi - start]
        rows[:, :high] = symbols[_digits(first // period, size, high)]
        rows[:, high:] = low[lo - first : hi - first]
    return block


def enumerate_paths(level: GridLevel, alphabet: NoiseAlphabet | None = None) -> NoiseEnsemble:
    """All |alphabet|^(n+1) noise paths at this level, exactly once each.

    NoiseError if they are more than ``DEFAULT_ENUMERATION_CAP``.  Path functionals
    hold one float per path each, so for them the cap is a memory bound (128 MiB each).
    """
    alphabet = alphabet or NoiseAlphabet.white()
    count = _class_size(alphabet, level, 0)
    if count > DEFAULT_ENUMERATION_CAP:
        raise NoiseError(
            f"exhaustive enumeration of {count} paths exceeds the cap "
            f"{DEFAULT_ENUMERATION_CAP}; use sampled mode"
        )
    return NoiseEnsemble("exhaustive", level, alphabet, count)


def sample_paths(
    level: GridLevel,
    count: int,
    seed: int,
    alphabet: NoiseAlphabet | None = None,
) -> NoiseEnsemble:
    """A reproducible sample of noise paths, uniform over the alphabet per point."""
    alphabet = alphabet or NoiseAlphabet.white()
    return NoiseEnsemble("sampled", level, alphabet, count, seed=seed)


@dataclass(frozen=True, kw_only=True)
class ConditionalEnsemble(NoiseEnsemble):
    """Paths first..first+count-1 of the exhaustive enumeration.

    ``prefix`` is read from that range: the values that paths ``first`` and
    ``first+count-1`` hold alike at grid points 0..p-1, for the largest such
    p.  The range is one run of the lexicographic order, so every path in it
    holds them, and one path set has one descriptor however it was built.
    """

    mode: str = field(default="exhaustive", init=False)
    first: int

    # its own attribute, so that a tracer patching each class's batches finds it
    batches = NoiseEnsemble.batches

    @property
    def prefix(self) -> tuple[float, ...]:
        size, points = self.alphabet.size, self.level.n + 1
        first, last = (_digits(i, size, points) for i in (self.first, self.first + self.count - 1))
        # every path between the first and the last holds their common leading digits
        digits = [a for a, b in itertools.takewhile(lambda d: d[0] == d[1], zip(first, last))]
        return tuple(self.alphabet.scaled(self.level)[digits].tolist())

    def descriptor(self) -> dict:
        return {**super().descriptor(), "prefix": list(self.prefix)}


def conditional(ensemble: NoiseEnsemble, prefix: Sequence[float]) -> ConditionalEnsemble:
    """The paths of an exhaustive ensemble that hold ``prefix`` at grid points 0..p-1.

    Those paths of the enumeration are one run of |A|^(n+1-p) indices,
    whichever prefix was fixed, which is what makes conditional averages
    exact; the result is that run intersected with ``ensemble``.  Prefix
    values are taken as the scaled symbols they match.  Nested conditioning
    keeps the longer prefix; NoiseError if no path holds both.
    """
    ensemble.prefix_rows(len(prefix))  # NoiseError unless exhaustive, with p in 0..n+1
    level, alphabet = ensemble.level, ensemble.alphabet
    scaled = alphabet.scaled(level)
    dist = np.abs(np.asarray(prefix, dtype=np.float64)[:, None] - scaled[None, :])
    if np.any(np.min(dist, axis=1) > 1e-9 * max(1.0, float(np.max(np.abs(scaled))))):
        raise NoiseError("path values must come from the scaled alphabet")
    digits = np.argmin(dist, axis=1)
    size = _class_size(alphabet, level, len(prefix))
    block = functools.reduce(lambda b, d: b * alphabet.size + int(d), digits, 0) * size
    start = max(block, ensemble.first)
    stop = min(block + size, ensemble.first + ensemble.count)
    if start >= stop:
        raise NoiseError(f"no path of the ensemble holds the prefix {list(prefix)}")
    return ConditionalEnsemble(level, alphabet, stop - start, first=start)


@dataclass(frozen=True)
class ExpectationResult:
    mean: float
    stderr: float
    count: int


def _path_values(ensemble, functionals: Sequence[PathFunctional]) -> np.ndarray:
    """Each functional on each read-only block of one batch walk: [len(functionals), count]."""
    out = np.empty((len(functionals), ensemble.count))
    for start, block in ensemble.batches():
        block.flags.writeable = False
        values = out[:, start : start + len(block)]
        for phi, column in zip(functionals, values):
            got = np.asarray(phi(block), dtype=np.float64)
            if got.shape != column.shape:
                raise NoiseError(f"functional returned shape {got.shape}, not {column.shape}")
            column[...] = got
        bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
        if bad.size:
            raise NoiseError(f"functional returned a non-finite value for path {start + bad[0]}")
    return out


def expectation_detail(ensemble, phi: PathFunctional) -> ExpectationResult:
    """Uniform average of a path functional, with standard error when sampled.

    ``phi`` maps each noise block to one value per row, reading each row
    alone.  Exhaustive ensembles give the exact counting mean; the summation
    is exactly rounded (fsum), so the result does not depend on batching.
    It holds one float per path, so the enumeration cap is a memory bound
    here: 8 * count bytes.
    """
    values = _path_values(ensemble, [phi])[0]
    count = len(values)
    mean = math.fsum(values) / count
    if ensemble.mode == "sampled" and count > 1:
        var = math.fsum((v - mean) ** 2 for v in values.tolist()) / (count - 1)
        stderr = math.sqrt(var / count)
    else:
        stderr = 0.0
    return ExpectationResult(mean=mean, stderr=stderr, count=count)
