"""Noise alphabets and path ensembles.

A noise path assigns one symbol, scaled by sqrt(n), to each of the n+1 grid
points of the time lattice.  The binary alphabet {-1, +1} gives the
coin-flip driving term; exhaustive mode enumerates all |A|^(n+1) paths
exactly once so ensemble averages are exact counting sums, while sampled
mode draws reproducible paths from a counter-based generator.

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
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .grids import GridLevel

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
    "expectation",
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
        if ms == 0.0:
            raise NoiseError("alphabet symbols cannot all be zero")
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


def _symbol_digits(alphabet: NoiseAlphabet, level: GridLevel, values: np.ndarray) -> np.ndarray:
    """Index of each value's scaled symbol; NoiseError if a value matches none."""
    scaled = alphabet.scaled(level)
    dist = np.abs(np.asarray(values, dtype=np.float64)[:, None] - scaled[None, :])
    if np.any(np.min(dist, axis=1) > 1e-9 * max(1.0, float(np.max(np.abs(scaled))))):
        raise NoiseError("path values must come from the scaled alphabet")
    return np.argmin(dist, axis=1)


@dataclass(frozen=True)
class NoiseEnsemble:
    """Descriptor of an exhaustive or sampled set of noise paths.

    Exhaustive mode iterates every path exactly once in lexicographic order
    (earliest grid point most significant, symbols ascending); sampled mode
    reproduces path i from (seed, i) alone.
    """

    mode: str
    level: GridLevel
    alphabet: NoiseAlphabet
    count: int
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise NoiseError(f"unknown ensemble mode {self.mode!r}")
        if self.count < 1:
            raise NoiseError("ensemble must contain at least one path")
        if self.mode == "sampled" and self.seed is None:
            raise NoiseError("sampled ensembles need a seed")

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
            return _lexicographic_block(scaled, start, stop, points, out)
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
        iteration.
        """
        _check_batch_size(batch_size)
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
        if not 0 <= index < self.count:
            raise NoiseError(f"path index {index} out of range")
        values = self._values_for(index, index + 1)[0]
        return NoisePath(self.level, values, path_index=index)


def _check_batch_size(batch_size) -> None:
    if isinstance(batch_size, bool) or not isinstance(batch_size, numbers.Integral) or batch_size < 1:
        raise NoiseError(f"batch size must be a positive integer, got {batch_size!r}")


def _block(out: np.ndarray | None, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous [rows, cols] matrix: fresh, or the front of the flat buffer ``out``."""
    if out is None:
        return np.empty((rows, cols))
    return out[: rows * cols].reshape(rows, cols)


def _digit_matrix(indices: np.ndarray, base: int, places: int) -> np.ndarray:
    powers = base ** np.arange(places - 1, -1, -1, dtype=np.int64)
    return (indices[:, None] // powers[None, :]) % base


@functools.lru_cache(maxsize=1)
def _low_places(symbols: tuple[float, ...], places: int) -> np.ndarray:
    """Every path of ``places`` grid points in lexicographic order (read-only)."""
    size = len(symbols)
    digits = _digit_matrix(np.arange(size**places, dtype=np.int64), size, places)
    out = np.asarray(symbols)[digits]
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
        rows[:, :high] = symbols[_digit_matrix(np.array([first // period]), size, high)[0]]
        rows[:, high:] = low[lo - first : hi - first]
    return block


def enumerate_paths(
    level: GridLevel,
    alphabet: NoiseAlphabet | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> NoiseEnsemble:
    """All |alphabet|^(n+1) noise paths at this level, exactly once each."""
    alphabet = alphabet or NoiseAlphabet.white()
    count = alphabet.size ** (level.n + 1)
    if count > cap:
        raise NoiseError(
            f"exhaustive enumeration of {count} paths exceeds the cap {cap}; use sampled mode"
        )
    return NoiseEnsemble("exhaustive", level, alphabet, count)


def sample_paths(
    level: GridLevel,
    count: int,
    seed: int,
    alphabet: NoiseAlphabet | None = None,
) -> NoiseEnsemble:
    """A reproducible sample of noise paths, uniform over the alphabet per point."""
    if count < 1:
        raise NoiseError("sample count must be at least 1")
    alphabet = alphabet or NoiseAlphabet.white()
    return NoiseEnsemble("sampled", level, alphabet, count, seed=int(seed))


def _check_prefix(ensemble, length: int) -> None:
    """NoiseError unless a prefix of ``length`` grid points picks a block of ``ensemble``."""
    if ensemble.mode != "exhaustive":
        raise NoiseError("conditioning on a prefix requires an exhaustive ensemble")
    points = ensemble.level.n + 1
    if not (isinstance(length, numbers.Integral) and 0 <= length <= points):
        raise NoiseError(f"prefix length {length!r} is not an integer in 0..{points}")


@dataclass(frozen=True)
class ConditionalEnsemble:
    """All exhaustive paths agreeing with a fixed prefix on its grid points.

    In the base ensemble's lexicographic order these paths are one
    contiguous block of |alphabet|^(n+1-p) indices, so path i here is base
    path offset + i.  The block size does not depend on which prefix was
    fixed; that independence is what makes conditional averages exact.
    Prefix values are taken as the scaled symbols they match.
    """

    base: NoiseEnsemble
    prefix: tuple[float, ...]
    _offset: int = field(init=False, repr=False, compare=False)

    mode = "exhaustive"

    def __post_init__(self):
        _check_prefix(self.base, len(self.prefix))
        block = 0
        for digit in _symbol_digits(self.base.alphabet, self.base.level, np.asarray(self.prefix)):
            block = block * self.base.alphabet.size + int(digit)
        object.__setattr__(self, "_offset", block * self.count)

    @property
    def level(self) -> GridLevel:
        return self.base.level

    @property
    def alphabet(self) -> NoiseAlphabet:
        return self.base.alphabet

    @property
    def count(self) -> int:
        free = self.base.level.n + 1 - len(self.prefix)
        return self.base.alphabet.size**free

    def descriptor(self) -> dict:
        prefix = self._values_for(0, 1)[0, : len(self.prefix)].tolist()
        return {**self.base.descriptor(), "count": self.count, "prefix": prefix}

    def _values_for(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        return self.base._values_for(self._offset + start, self._offset + stop, out)

    batches = NoiseEnsemble.batches
    path = NoiseEnsemble.path


def conditional(ensemble: NoiseEnsemble, prefix: Sequence[float]) -> ConditionalEnsemble:
    """Restrict an exhaustive ensemble to paths matching a prefix on [0, s).

    ``prefix`` holds the fixed values at grid points 0..p-1.
    """
    return ConditionalEnsemble(ensemble, tuple(float(v) for v in prefix))


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


def expectation(ensemble, phi: PathFunctional) -> float:
    """Uniform average of a path functional (block -> one value per row) over the ensemble."""
    return expectation_detail(ensemble, phi).mean
