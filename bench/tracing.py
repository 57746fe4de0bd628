"""Span tracing of the gridsde layers, installed from outside the package.

``install`` wraps the public functions and methods of each layer by
patching the attributes that the calling modules look up at call time
(``gridsde.cli`` and ``gridsde.fokker_planck`` import functions by name,
so those module attributes are patched too).  Every wrapped call records a
span (name, start, end, parent) in memory; generator methods record one
span per ``next()``, so a batch's span covers only the work that produced
it.  Counters are recorded at the same boundaries.  Work the tracer does
for its own counters runs in ``trace.hook`` spans, which no layer metric
includes.

Self time is a span's duration minus the part of it that its child spans
cover; a layer's inclusive time sums its outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory spans as [name, start, end, parent index] plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.iterations: list[tuple] = []  # (ensemble, t0 index) per trajectory pass
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{'' if parent is None else parent}\n")


# ----------------------------------------------------------------------
# span arithmetic


def _union_length(intervals, lo: float, hi: float) -> float:
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _union_length(children[sid], start, end)
        for sid, (name, start, end, parent) in enumerate(spans)
    ]


def inclusive_time(spans, names) -> float:
    """Summed duration of the spans named in ``names`` with no such ancestor.

    Parents are opened before their children, so one forward pass decides
    for every span whether an ancestor carries one of the names.
    """
    names = set(names)
    covered = [False] * len(spans)
    total = 0.0
    for sid, (name, start, end, parent) in enumerate(spans):
        if parent is not None:
            covered[sid] = covered[parent] or spans[parent][0] in names
        if name in names and not covered[sid]:
            total += end - start
    return total


def self_time(spans, names, selfs=None) -> float:
    selfs = self_times(spans) if selfs is None else selfs
    return math.fsum(s for (name, *_), s in zip(spans, selfs) if name in names)


# ----------------------------------------------------------------------
# distinct prefix-tree nodes


def _floor_log2(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(shift))
        out[big] += shift
        x[big] >>= np.uint64(shift)
    return out


def distinct_prefix_nodes(batches, t0: int, n: int) -> int:
    """Distinct noise prefixes over grid points t0..k, summed over k = t0..n-1.

    The state x(t_{k+1}) reads noise at points t0..k only, so this is the
    number of states a prefix tree computes where a path-by-path kernel
    computes one per path and step.  ``batches`` yields (start, values) with
    binary noise values.  Rows are sorted as bit strings; a prefix of length
    j is new exactly where the common prefix with the previous row is
    shorter than j.
    """
    length = n - t0
    if length <= 0:
        return 0
    words = (length + 63) // 64
    keys = []
    for _, block in batches:
        bits = np.packbits(block[:, t0:n] > 0, axis=1)
        bits = np.pad(bits, ((0, 0), (0, 8 * words - bits.shape[1])))
        keys.append(bits.view(">u8").astype(np.uint64))
    rows = np.concatenate(keys)
    rows = rows[np.lexsort(rows.T[::-1])]
    lcp = np.full(rows.shape[0] - 1, length, dtype=np.int64)
    open_rows = np.ones(rows.shape[0] - 1, dtype=bool)
    for w in range(words):
        diff = rows[1:, w] ^ rows[:-1, w]
        hit = open_rows & (diff != 0)
        lcp[hit] = 64 * w + 63 - _floor_log2(diff[hit])
        open_rows &= ~hit
    return length + int(np.sum(length - np.minimum(lcp, length)))


def useful_nodes(iterations) -> int:
    """Distinct prefix-tree nodes summed over the recorded trajectory passes."""
    cache = {}
    total = 0
    for ensemble, t0 in iterations:
        key = (repr(ensemble.descriptor()), t0)
        if key not in cache:
            if ensemble.alphabet.size != 2:
                raise ValueError("distinct-node analysis supports binary noise only")
            cache[key] = distinct_prefix_nodes(ensemble.batches(), t0, ensemble.level.n)
        total += cache[key]
    return total


def fp_substeps(drift_fn, diffusion_fn, window, dx, dt, t_end, save_times) -> tuple[int, int]:
    """(substeps, cells) of an fp_solve call, from its inputs.

    Follows the documented rule: dt defaults to 90% of
    dx^2 / (2 max h^2 + dx max |f|), with the maxima over the cell centres
    and inner faces at 33 times, and each save interval is split into
    ceil(span / dt) equal substeps.
    """
    lo, hi = float(window[0]), float(window[1])
    cells = round((hi - lo) / dx)
    if dt is None:
        centers = lo + (np.arange(cells) + 0.5) * dx
        faces = lo + np.arange(1, cells) * dx
        def peak(fn, xs):
            return max(
                float(np.max(np.abs(np.broadcast_to(fn(float(t), xs), xs.shape))))
                for t in np.linspace(0.0, t_end, 33)
            )

        with np.errstate(all="ignore"):
            max_h, max_f = peak(diffusion_fn, centers), peak(drift_fn, faces)
        denom = 2.0 * max_h**2 + dx * max_f
        dt = 0.9 * dx * dx / denom if denom > 0 else max(t_end, 1e-9)
    steps, now = 0, 0.0
    for target in save_times if save_times is not None else (t_end,):
        span = float(target) - now
        if span > 1e-15:
            steps += max(1, math.ceil(span / dt - 1e-9))
        now = float(target)
    return steps, cells


# ----------------------------------------------------------------------
# wrappers


def _wrap_call(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            with tracer.span("trace.hook"):
                after(result, args, kwargs)
        return result

    return traced


def _wrap_gen(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            sid = tracer.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close(sid)
            after(item, args)
            yield item

    return traced


def _wrap_closure(tracer: Tracer, fn, jet: bool):
    counters = tracer.counters

    def traced(t, x):
        sid = tracer.open("expr.eval")
        try:
            out = fn(t, x)
        finally:
            tracer.close(sid)
        elems = max(getattr(t, "size", 1), getattr(x, "size", 1))
        counters["expr.eval_calls"] += 1
        counters["expr.eval_elems"] += elems
        if jet:
            with tracer.span("trace.hook"):
                counters["expr.jet_elems"] += elems
                counters["expr.jet_nonzero"] += int(np.count_nonzero(out)) * (
                    elems // max(1, int(np.size(out)))
                )
        return out

    return traced


def install(tracer: Tracer):
    """Patch every layer boundary; return a function that undoes the patches."""
    from gridsde import cli, expr, fokker_planck, identities, noise, sde

    counters = tracer.counters
    patches = []

    def patch(owner, attr, make):
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            name = getattr(owner, "__name__", owner)
            print(f"trace: {name}.{attr} not found; not traced", file=sys.stderr)
            return
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def count_noise(item, args):
        _, block = item
        counters["noise.paths"] += block.shape[0]
        counters["noise.bytes_computed"] += block.nbytes

    def count_steps(item, args):
        trajset, values = args[0], item[-1]
        problem = trajset.problem
        if item[0] == 0:
            tracer.iterations.append((trajset.ensemble, problem.t0_index))
        counters["sde.path_steps"] += values.shape[0] * (problem.level.n - problem.t0_index)
        counters["sde.batches"] += 1

    def count_expect(result, args, kwargs):
        counters["noise.expect_paths"] += result.count

    def count_written(result, args, kwargs):
        counters["cli.bytes_written"] += os.path.getsize(result if result is not None else args[0])

    raw_vectorized = expr.Expr.vectorized

    def build(e):
        with tracer.span("expr.build"):
            return raw_vectorized(e)

    fp_signature = inspect.signature(fokker_planck.fp_solve)

    def count_substeps(result, args, kwargs):
        call = fp_signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        steps, cells = fp_substeps(
            raw_vectorized(expr.as_expr(a["drift"])),
            raw_vectorized(expr.as_expr(a["diffusion"])),
            a["window"], a["dx"], a["dt"], a["t_end"], a["save_times"],
        )
        counters["fokker_planck.fp_substeps"] += steps
        counters["fokker_planck.fp_cell_updates"] += steps * cells

    for owner in (noise.NoiseEnsemble, noise.ConditionalEnsemble):
        patch(owner, "batches", lambda f: _wrap_gen(tracer, "noise.gen", f, count_noise))
    patch(noise, "expectation_detail", lambda f: _wrap_call(tracer, "noise.expect", f, count_expect))
    patch(identities, "expectation", lambda f: _wrap_call(tracer, "noise.expect", f))
    patch(identities, "conditional", lambda f: _wrap_call(tracer, "noise.conditional", f))

    patch(sde.TrajectorySet, "batches", lambda f: _wrap_gen(tracer, "sde.batches", f, count_steps))
    traced_density = _wrap_call(tracer, "sde.density", sde.density)
    for owner in (cli, fokker_planck):
        patch(owner, "density", lambda f: traced_density)

    patch(expr.Expr, "vectorized", lambda f: lambda self: _wrap_closure(tracer, build(self), jet=False))
    patch(expr, "parse", lambda f: _wrap_call(tracer, "expr.build", f))
    patch(
        expr.TestFunction,
        "from_expression",
        lambda f: classmethod(_wrap_call(tracer, "expr.build", f.__func__)),
    )
    for attr, field in (("value_fn", "expr"), ("dt_fn", "d_t"), ("dx_fn", "d_x"), ("dxx_fn", "d_xx")):
        def jet_property(original, field=field, attr=attr):
            prop = functools.cached_property(
                lambda self: _wrap_closure(tracer, build(getattr(self, field)), jet=True)
            )
            prop.__set_name__(expr.TestFunction, attr)
            return prop

        patch(expr.TestFunction, attr, jet_property)

    patch(cli, "weak_form_residual", lambda f: _wrap_call(tracer, "fokker_planck.weak_form", f))
    traced_fp = _wrap_call(tracer, "fokker_planck.fp_solve", fokker_planck.fp_solve, count_substeps)
    for owner in (cli, fokker_planck):
        patch(owner, "fp_solve", lambda f: traced_fp)
    patch(cli, "cross_validate", lambda f: _wrap_call(tracer, "fokker_planck.cross_validate", f))

    for attr, name in (
        ("moment_report", "identities.moment"),
        ("tower_property_report", "identities.tower"),
        ("increment_report", "identities.increment"),
    ):
        patch(cli, attr, lambda f, name=name: _wrap_call(tracer, name, f))

    traced_csv = _wrap_call(tracer, "cli.write", sde.write_density_csv, count_written)
    for owner in (sde, fokker_planck):
        patch(owner, "write_density_csv", lambda f: traced_csv)
    patch(cli, "_write_json", lambda f: _wrap_call(tracer, "cli.write", f, count_written))

    def restore():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, useful: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where a layer did no work."""
    spans, c = tracer.spans, tracer.counters
    selfs = self_times(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    def incl(*names):
        return inclusive_time(spans, names)

    def own(*names):
        return self_time(spans, names, selfs)

    under_tower = [False] * len(spans)
    for sid, (name, _, _, parent) in enumerate(spans):
        if parent is not None:
            under_tower[sid] = under_tower[parent] or spans[parent][0] == "identities.tower"

    gen_s = incl("noise.gen")
    kernel_s = own("sde.batches")
    eval_s = incl("expr.eval")
    fp_s = incl("fokker_planck.fp_solve")
    return {
        "noise.gen_s": gen_s,
        "noise.paths": c["noise.paths"],
        "noise.gen_paths_per_s": ratio(c["noise.paths"], gen_s),
        "noise.bytes_computed": c["noise.bytes_computed"],
        "noise.expect_s": incl("noise.expect", "noise.conditional"),
        "noise.expect_paths": c["noise.expect_paths"],
        "noise.cond_ensembles": sum(1 for s in spans if s[0] == "noise.conditional"),
        "sde.kernel_s": kernel_s,
        "sde.path_steps": c["sde.path_steps"],
        "sde.path_steps_per_s": ratio(c["sde.path_steps"], kernel_s),
        "sde.batches": c["sde.batches"],
        "sde.step_useful_frac": ratio(useful, c["sde.path_steps"]),
        "sde.density_s": own("sde.density"),
        "expr.eval_s": eval_s,
        "expr.eval_calls": c["expr.eval_calls"],
        "expr.eval_elems": c["expr.eval_elems"],
        "expr.elems_per_s": ratio(c["expr.eval_elems"], eval_s),
        "expr.build_s": incl("expr.build"),
        "expr.jet_nonzero_frac": ratio(c["expr.jet_nonzero"], c["expr.jet_elems"]),
        "fokker_planck.weakform_reduce_s": own("fokker_planck.weak_form"),
        "fokker_planck.fp_substeps": c["fokker_planck.fp_substeps"],
        "fokker_planck.fp_substep_us": 1e6 * ratio(fp_s, c["fokker_planck.fp_substeps"]),
        "fokker_planck.fp_cell_updates_per_s": ratio(c["fokker_planck.fp_cell_updates"], fp_s),
        "fokker_planck.crossval_self_s": own("fokker_planck.cross_validate"),
        "identities.moment_s": incl("identities.moment"),
        "identities.tower_s": incl("identities.tower"),
        "identities.increment_s": incl("identities.increment"),
        "identities.tower_subensembles": sum(
            1 for sid, s in enumerate(spans) if s[0] == "noise.conditional" and under_tower[sid]
        ),
        "cli.write_s": incl("cli.write"),
        "cli.bytes_written": c["cli.bytes_written"],
    }
