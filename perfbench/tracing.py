"""In-memory spans around the public entry points of h1geom.

``Tracer.install`` replaces the public functions of ``rng``, ``bodies``,
``measures``, ``estimators`` and ``cli`` (and the names other h1geom
modules imported from them) with wrappers that record one span per call;
``uninstall`` puts the originals back.  The library itself is unchanged.

A span holds its name, wall-clock and thread-CPU start and end, thread,
parent and a few counts.  The parent is the innermost open span of the
same thread or, for a worker thread of the estimators' pool, the
innermost open span of the main thread, which is blocked on that pool.

``wall_shares`` divides the traced wall time among the spans: at every
instant the time goes to the innermost open spans, split evenly when
spans in several threads are open at once.  A span's share is therefore
its duration minus the union of its children's intervals across threads
(its self time), and the shares of all spans add up to the wall time of
the root spans.
"""

from __future__ import annotations

import functools
import threading
import time

import h1geom.bodies as bodies
import h1geom.cli as cli
import h1geom.estimators as estimators
import h1geom.measures as measures
import h1geom.rng as rng

TYPES = ("ball", "box", "ellipsoid", "polytope")
_BODY_CLASSES = {
    bodies.Ball: "ball",
    bodies.Box: "box",
    bodies.Ellipsoid: "ellipsoid",
    bodies.Polytope: "polytope",
}
# public estimator entry points; invariance_check and line_window call
# the others, so they nest
_ESTIMATORS = (
    "line_window",
    "estimate_line_measure",
    "estimate_chord_integral",
    "estimate_segment_hit_measure",
    "estimate_segment_containment_measure",
    "estimate_mean_chord",
    "containment_probability",
    "invariance_check",
)
# estimators whose span covers one sampling pass over a single window
_SAMPLING = frozenset(_ESTIMATORS) - {"line_window", "invariance_check"}


def body_type(body) -> str:
    return _BODY_CLASSES[type(body)]


class Span:
    __slots__ = ("name", "t0", "t1", "c0", "c1", "tid", "parent", "attrs")

    def __init__(self, name, tid, parent, attrs):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.attrs = attrs
        self.t1 = self.c1 = None
        self.c0 = time.thread_time()
        self.t0 = time.perf_counter()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            idx = len(self.spans)
            self.spans.append(Span(name, tid, parent, attrs))
            stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.t1 = time.perf_counter()
        span.c1 = time.thread_time()
        with self._lock:
            self._stacks[span.tid].pop()

    def _wrap(self, func, name_of, attrs_of=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name, attrs = name_of(args, kwargs)
            idx = tracer.open(name, **attrs)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attrs_of is not None:
                tracer.spans[idx].attrs.update(attrs_of(args, kwargs, result))
            return result

        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, modules, attr, name_of, attrs_of=None) -> None:
        wrapped = self._wrap(getattr(modules[0], attr), name_of, attrs_of)
        for module in modules:
            if attr in module.__dict__:
                self._patch(module, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")

        def fixed(name):
            return lambda args, kwargs: (name, {})

        self._patch_function(
            (rng, estimators),
            "uniforms",
            fixed("rng.uniforms"),
            lambda args, kwargs, out: {"draws": int(out.size)},
        )
        for cls, tname in _BODY_CLASSES.items():
            self._patch(
                cls,
                "chord_batch",
                self._wrap(
                    cls.__dict__["chord_batch"],
                    fixed(f"bodies.chord_batch.{tname}"),
                    lambda args, kwargs, out: {
                        "lines": int(out[2].size),
                        "hits": int(out[2].sum()),
                    },
                ),
            )
            self._patch(
                cls, "__init__", self._wrap(cls.__dict__["__init__"], fixed("bodies.build"))
            )
        from_linear = bodies.Ellipsoid.__dict__["from_linear"].__func__
        self._patch(
            bodies.Ellipsoid,
            "from_linear",
            classmethod(self._wrap(from_linear, fixed("bodies.build"))),
        )
        self._patch_function(
            (bodies, estimators), "transform_body", fixed("bodies.transform_body")
        )
        self._patch_function(
            (measures, estimators, cli),
            "p_area",
            lambda args, kwargs: (f"measures.p_area.{body_type(args[0])}", {}),
            lambda args, kwargs, out: {"resolution": out.resolution},
        )
        self._patch_function(
            (measures, estimators, cli), "volume", fixed("measures.volume")
        )
        for fname in _ESTIMATORS:
            self._patch_function(
                (estimators, cli),
                fname,
                functools.partial(_estimator_name, fname),
                _window_measure if fname == "line_window" else None,
            )
        self._patch_function(
            (cli,),
            "main",
            lambda args, kwargs: ("cli.main", {"command": command_label(args[0])}),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _estimator_name(fname, args, kwargs):
    if fname == "containment_probability":
        body = args[1] if len(args) > 1 else kwargs["outer"]
    else:
        body = args[0] if args else kwargs["body"]
    return f"estimators.{fname}", {"type": body_type(body)}


def _window_measure(args, kwargs, window):
    return {"measure": window.measure}


def command_label(argv) -> str:
    """The subcommand of a CLI argument list, with grid runs of crofton
    told apart as ``crofton-grid``."""
    argv = list(argv)
    if argv[0] == "crofton" and "--method" in argv:
        if argv[argv.index("--method") + 1] == "grid":
            return "crofton-grid"
    return argv[0]


def wall_shares(spans: list[Span]) -> list[float]:
    """Each span's share of the wall time: the time during which it is
    open and none of its children (in any thread) is, divided evenly
    among all spans in that state at the same instant."""
    events = []
    for idx, span in enumerate(spans):
        events.append((span.t0, 1, idx))
        events.append((span.t1, 0, idx))
    events.sort()
    shares = [0.0] * len(spans)
    open_children = [0] * len(spans)
    innermost: set[int] = set()
    last = events[0][0] if events else 0.0
    for t, is_start, idx in events:
        if innermost and t > last:
            part = (t - last) / len(innermost)
            for j in innermost:
                shares[j] += part
        last = t
        parent = spans[idx].parent
        if is_start:
            innermost.add(idx)
            if parent is not None:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            innermost.discard(idx)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and spans[parent].t1 > t:
                    innermost.add(parent)
    return shares


def layer_metrics(spans: list[Span], iterations: int) -> dict[str, float]:
    """Per-layer metrics, per traced iteration, from the spans of
    ``iterations`` traced iterations (each the tree under one
    ``harness.iteration`` root span)."""
    shares = wall_shares(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    lines = dict.fromkeys(TYPES, 0)
    hits = dict.fromkeys(TYPES, 0)
    chord_wall = dict.fromkeys(TYPES, 0.0)
    windows: dict[str, list[float]] = {t: [] for t in TYPES}
    busy = dict.fromkeys(TYPES, 0.0)
    pass_wall = dict.fromkeys(TYPES, 0.0)
    # per sampling estimator span and pool thread: [cpu start, cpu end,
    # wall start, wall end] of its rng and chord children, i.e. of its
    # pass over the sample blocks
    passes: dict[int, dict[int, list[float]]] = {}
    resolution_max = 0
    p_area_calls = 0
    for idx, (span, share) in enumerate(zip(spans, shares)):
        name = span.name
        layer = name.split(".", 1)[0]
        if name == "rng.uniforms":
            add("rng.uniforms_s", share)
            add("rng.draws", span.attrs["draws"])
        elif name.startswith("bodies.chord_batch."):
            tname = name.rsplit(".", 1)[1]
            add(f"bodies.chord_batch_s.{tname}", share)
            lines[tname] += span.attrs["lines"]
            hits[tname] += span.attrs["hits"]
            chord_wall[tname] += span.t1 - span.t0
        elif name in ("bodies.build", "bodies.transform_body"):
            add(name + "_s", share)
        elif name.startswith("measures.p_area."):
            add("measures.p_area_s." + name.rsplit(".", 1)[1], share)
            p_area_calls += 1
            resolution_max = max(resolution_max, span.attrs["resolution"])
        elif name == "measures.volume":
            add("measures.volume_s", share)
        elif layer == "estimators":
            add("estimators.self_s", share)
            fname = name.split(".", 1)[1]
            tname = span.attrs["type"]
            if fname == "line_window":
                windows[tname].append(span.attrs["measure"])
        elif name == "cli.main":
            add("cli.self_s", share)
            add(f"cli.cmd_s.{span.attrs['command']}", span.t1 - span.t0)
        elif name == "harness.iteration":
            add("harness.self_s", share)
            add("trace.wall_s", span.t1 - span.t0)
        else:
            raise ValueError(f"span {name!r} has no layer metric")
        # only the estimators' thread pool: a pass run on the estimator's
        # own thread (threads=1, the grid method) is not a pool pass
        parent = span.parent
        if (name == "rng.uniforms" or name.startswith("bodies.chord_batch.")) and parent is not None:
            owner = spans[parent]
            if owner.name.split(".", 1)[1] in _SAMPLING and span.tid != owner.tid:
                bounds = passes.setdefault(parent, {}).setdefault(
                    span.tid, [span.c0, span.c1, span.t0, span.t1]
                )
                bounds[0] = min(bounds[0], span.c0)
                bounds[1] = max(bounds[1], span.c1)
                bounds[2] = min(bounds[2], span.t0)
                bounds[3] = max(bounds[3], span.t1)
    for parent, per_thread in passes.items():
        tname = spans[parent].attrs["type"]
        busy[tname] += sum(b[1] - b[0] for b in per_thread.values())
        pass_wall[tname] += max(b[3] for b in per_thread.values()) - min(
            b[2] for b in per_thread.values()
        )
    metrics = {key: value / iterations for key, value in out.items()}
    for tname in TYPES:
        metrics[f"bodies.lines.{tname}"] = lines[tname] / iterations
        metrics[f"bodies.hit_rate.{tname}"] = hits[tname] / lines[tname] if lines[tname] else 0.0
        metrics[f"bodies.ns_per_line.{tname}"] = (
            chord_wall[tname] * 1e9 / lines[tname] if lines[tname] else 0.0
        )
        metrics[f"estimators.window_measure.{tname}"] = (
            sum(windows[tname]) / len(windows[tname]) if windows[tname] else 0.0
        )
        metrics[f"estimators.parallel_eff.{tname}"] = (
            busy[tname] / (2.0 * pass_wall[tname]) if pass_wall[tname] else 0.0
        )
    metrics["trace.self_sum_s"] = sum(shares) / iterations
    metrics["measures.p_area_calls"] = p_area_calls / iterations
    metrics["measures.p_area_resolution_max"] = float(resolution_max)
    return metrics
