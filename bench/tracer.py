"""Per-layer tracing of ultraherz, installed from outside the library.

Wrappers replace module attributes for the duration of a traced pass and
are removed afterwards, so untraced passes run the library untouched. Each
wrapper is installed in every package module that holds the original
function under that name, because that is where the caller looks it up:
patching ``radial.ball_integral`` alone would miss ``operators.ball_integral``.

Three kinds of wrapper:

``span``   records name, start, end, parent span and operation id in memory
           (written out when the run ends) and accumulates time;
``timer``  accumulates calls, time and self time without storing a span,
           for functions called thousands of times per operation;
``count``  only counts calls, for functions called millions of times per run.

A layer is a package module. Self time is a call's duration minus the time
of the wrapped calls it made; time in unwrapped helpers stays with the
wrapped caller, and ``count`` calls are charged to their caller.
"""

from __future__ import annotations

import functools
import random
import time
import types
from collections import Counter

LAYERS = ("cli", "serialize", "harness", "operators", "norms", "radial", "oracle", "padic")

#: (layer, attribute, kind) for every public function of each layer, plus
#: the private solver that ``oracle`` borrows from ``norms`` and the modular
#: that the Luxemburg bisection evaluates. Names a later version no longer
#: has are skipped, and the metrics built on them read 0.
FUNCTIONS = [
    ("cli", "main", "span"),
    ("cli", "build_parser", "span"),
    ("serialize", "load_function", "span"),
    ("serialize", "load_exponent", "span"),
    ("serialize", "load_theorem_config", "span"),
    ("serialize", "function_from_dict", "span"),
    ("serialize", "exponent_from_dict", "span"),
    ("serialize", "theorem_config_from_dict", "span"),
    ("serialize", "function_to_dict", "span"),
    ("serialize", "exponent_to_dict", "span"),
    ("serialize", "theorem_config_to_dict", "span"),
    ("serialize", "save_function", "span"),
    ("serialize", "save_exponent", "span"),
    ("serialize", "save_theorem_config", "span"),
    ("serialize", "encode_real", "count"),
    ("serialize", "decode_real", "count"),
    ("serialize", "context_from_dict", "count"),
    ("serialize", "context_to_dict", "count"),
    ("harness", "sweep", "span"),
    ("harness", "validate_hypotheses", "span"),
    ("harness", "require_hypotheses", "span"),
    ("harness", "boundedness_ratio", "span"),
    ("harness", "random_family", "span"),
    ("harness", "default_symbol", "span"),
    ("harness", "sharpness_probe", "span"),
    ("harness", "check_lemmas", "span"),
    ("operators", "apply_operator", "span"),
    ("operators", "hardy", "span"),
    ("operators", "hardy_adjoint", "span"),
    ("operators", "commutator", "span"),
    ("operators", "maximal", "span"),
    ("operators", "shell_diagonal", "span"),
    ("norms", "modular", "span"),
    ("norms", "luxemburg_norm", "span"),
    ("norms", "ball_indicator_norm", "span"),
    ("norms", "herz_norm", "span"),
    ("norms", "morrey_herz_norm", "span"),
    ("norms", "cmo_norm", "span"),
    ("norms", "single_shell_norm", "count"),
    ("norms", "_solve_luxemburg", "timer"),
    ("norms", "_modular_value", "count"),
    ("radial", "combine", "span"),
    ("radial", "ball_integral", "timer"),
    ("radial", "total_integral", "span"),
    ("radial", "ball_mean", "timer"),
    ("radial", "check_regularity", "span"),
    ("radial", "conjugate", "span"),
    ("radial", "sobolev_shift", "span"),
    ("radial", "exponent_at", "count"),
    ("oracle", "mc_integrate", "span"),
    ("oracle", "mc_luxemburg", "span"),
    ("oracle", "mc_operator_probe", "span"),
    ("padic", "sample_uniform", "timer"),
    ("padic", "ppow", "count"),
    ("padic", "ball_measure", "count"),
    ("padic", "sphere_measure", "count"),
    ("padic", "padic_valuation", "count"),
    ("padic", "fraction_valuation", "count"),
    ("padic", "vector_norm", "count"),
]

#: (layer, class, attribute, kind); ``shell`` is a property.
METHODS = [
    ("radial", "RadialStepFunction", "evaluate", "count"),
    ("radial", "RadialStepFunction", "value_at", "timer"),
    ("radial", "ExponentFunction", "evaluate", "count"),
    ("padic", "PadicPoint", "shell", "count"),
]


class CountingRandom(random.Random):
    """``random.Random`` that counts ``randrange`` draws; the stream is unchanged."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.draws = 0
        self.seen = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


class Tracer:
    """Spans, timers and counters for one traced run."""

    def __init__(self, lib):
        self.lib = lib
        self.typed_error = lib.errors.UltraherzError
        self.stack: list[list] = []  # [name, layer, child_ns, span_id]
        self.spans: list[tuple] = []  # (op_id, span_id, parent_id, name, start, end)
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.errors: Counter = Counter()
        self.depth: Counter = Counter()
        self.op_id = -1
        self._restore: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, name, layer, store):
        tracer = self
        after = _AFTER.get(name)
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = -1
            if store:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [name, layer, 0, span_id]
            stack.append(frame)
            tracer.depth[layer] += 1
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if parent is None or parent[1] != layer:
                    kind = "typed" if isinstance(exc, tracer.typed_error) else "untyped"
                    tracer.errors[layer, kind] += 1
                raise
            else:
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            finally:
                end = now()
                stack.pop()
                tracer.depth[layer] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if store:
                    parent_id = -1
                    for outer in reversed(stack):
                        if outer[3] >= 0:
                            parent_id = outer[3]
                            break
                    tracer.spans[span_id] = (tracer.op_id, span_id, parent_id, name, start, end)

        return wrapper

    def _counted(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name, layer, kind):
        if kind == "count":
            return self._counted(fn, name)
        return self._timed(fn, name, layer, kind == "span")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        lib = self.lib
        modules = [getattr(lib, layer) for layer in LAYERS] + [lib.package]
        for layer, attr, kind in FUNCTIONS:
            original = getattr(getattr(lib, layer), attr, None)
            if original is None:  # renamed or removed since this list was written
                continue
            wrapper = self._wrap(original, f"{layer}.{attr}", layer, kind)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for layer, cls_name, attr, kind in METHODS:
            cls = getattr(getattr(lib, layer), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            name = f"{layer}.{attr}"
            if isinstance(original, property):
                replacement = property(self._wrap(original.fget, name, layer, kind))
            else:
                replacement = self._wrap(original, name, layer, kind)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, replacement)
        if hasattr(lib.oracle, "random"):
            self._restore.append((lib.oracle, "random", lib.oracle.random))
            lib.oracle.random = types.SimpleNamespace(Random=CountingRandom)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                handle.write(",".join(str(x) for x in span) + "\n")


def _window_width(window) -> int:
    return window[1] - window[0] + 1


def _after_ball_integral(tracer, args, kwargs, result):
    f, gamma = args[0], args[1] if len(args) > 1 else kwargs["gamma"]
    j_min, j_max = f.window
    terms = max(0, min(gamma, j_max) - j_min + 1)
    if f.outer_tail.amplitude != 0.0:
        terms += max(0, gamma - j_max)
    tracer.extra["radial.ball_integral.shell_terms"] += terms


def _after_scan(key):
    def after(tracer, args, kwargs, result):
        tracer.extra[key] += _window_width(result.work_window)
    return after


def _after_hardy(tracer, args, kwargs, result):
    tracer.extra["operators.hardy.out_shells"] += _window_width(result.window)


def _after_sweep(tracer, args, kwargs, result):
    tracer.extra["harness.sweep.rows"] += len(result.rows)


def _after_estimate(tracer, args, kwargs, result):
    if tracer.depth["oracle"] == 1:  # outermost oracle call still on the stack
        tracer.extra["oracle.draws"] += result.samples


def _after_sample(tracer, args, kwargs, result):
    rng = kwargs.get("rng")
    ctx = args[2] if len(args) > 2 else kwargs["ctx"]
    if isinstance(rng, CountingRandom):
        tracer.extra["padic.sample_uniform.attempts"] += (rng.draws - rng.seen) / ctx.n
        rng.seen = rng.draws


_AFTER = {
    "radial.ball_integral": _after_ball_integral,
    "norms.morrey_herz_norm": _after_scan("norms.morrey_herz_norm.scan_shells"),
    "norms.cmo_norm": _after_scan("norms.cmo_norm.scan_shells"),
    "operators.hardy": _after_hardy,
    "harness.sweep": _after_sweep,
    "oracle.mc_integrate": _after_estimate,
    "oracle.mc_luxemburg": _after_estimate,
    "oracle.mc_operator_probe": _after_estimate,
    "padic.sample_uniform": _after_sample,
}


def layer_metrics(tracer: Tracer, ops: int, traced_ms: float, overhead: float) -> dict:
    """Per-operation layer metrics (ratios stay ratios) from a traced run.

    ``traced_ms`` is the measured time of the traced operations, the base of
    each layer's share; times here are as measured, not scaled to a host.
    """
    ms = 1e-6
    calls, total, own, extra = tracer.calls, tracer.total_ns, tracer.self_ns, tracer.extra

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        layer_ns = tracer.layer_self_ns(layer)
        out[f"{layer}.self_ms"] = per_op(layer_ns * ms)
        out[f"{layer}.share"] = ratio(layer_ns * ms, traced_ms)
        out[f"{layer}.errors_typed"] = per_op(tracer.errors[layer, "typed"])
        out[f"{layer}.errors_untyped"] = per_op(tracer.errors[layer, "untyped"])
    loads = sum(calls[f"serialize.{name}"] for name in
                ("load_function", "load_exponent", "load_theorem_config"))
    sampled = calls["padic.sample_uniform"]
    sample_ns = total["padic.sample_uniform"]
    out.update({
        "cli.calls": per_op(calls["cli.main"]),
        "serialize.loads": per_op(loads),
        "harness.validate_hypotheses.self_ms": per_op(own["harness.validate_hypotheses"] * ms),
        "harness.random_family.self_ms": per_op(own["harness.random_family"] * ms),
        "harness.ms_per_row": ratio(total["harness.sweep"] * ms, extra["harness.sweep.rows"]),
        "operators.hardy.calls": per_op(calls["operators.hardy"]),
        "operators.hardy.us_per_shell": ratio(total["operators.hardy"] * 1e-3,
                                              extra["operators.hardy.out_shells"]),
        "operators.commutator.self_ms": per_op(own["operators.commutator"] * ms),
        "radial.ball_integral.calls": per_op(calls["radial.ball_integral"]),
        "radial.ball_integral.self_ms": per_op(own["radial.ball_integral"] * ms),
        "radial.ball_integral.shell_terms": per_op(extra["radial.ball_integral.shell_terms"]),
        "radial.combine.self_ms": per_op(own["radial.combine"] * ms),
        "radial.value_at.calls": per_op(calls["radial.value_at"]),
        "norms.luxemburg_norm.calls": per_op(calls["norms.luxemburg_norm"]),
        "norms.luxemburg_norm.us_per_call": ratio(total["norms.luxemburg_norm"] * 1e-3,
                                                  calls["norms.luxemburg_norm"]),
        "norms.modular_evals": per_op(calls["norms._modular_value"]),
        "norms.herz_norm.self_ms": per_op(own["norms.herz_norm"] * ms),
        "norms.morrey_herz_norm.self_ms": per_op(own["norms.morrey_herz_norm"] * ms),
        "norms.morrey_herz_norm.scan_shells": per_op(extra["norms.morrey_herz_norm.scan_shells"]),
        "norms.cmo_norm.self_ms": per_op(own["norms.cmo_norm"] * ms),
        "norms.cmo_norm.scan_shells": per_op(extra["norms.cmo_norm.scan_shells"]),
        "norms.ball_indicator_norm.calls": per_op(calls["norms.ball_indicator_norm"]),
        "oracle.mc_operator_probe.self_ms": per_op(own["oracle.mc_operator_probe"] * ms),
        "oracle.mc_integrate.self_ms": per_op(own["oracle.mc_integrate"] * ms),
        "oracle.mc_luxemburg.self_ms": per_op(own["oracle.mc_luxemburg"] * ms),
        "oracle.draws": per_op(extra["oracle.draws"]),
        "padic.sample_uniform.calls": per_op(sampled),
        "padic.sample_uniform.us_per_point": ratio(sample_ns * 1e-3, sampled),
        "padic.points_per_s": ratio(sampled, sample_ns * 1e-9),
        "padic.sample_uniform.accept_ratio": ratio(sampled, extra["padic.sample_uniform.attempts"]),
        "padic.ppow.calls": per_op(calls["padic.ppow"]),
        "padic.shell.calls": per_op(calls["padic.shell"]),
        "trace.overhead": overhead,
    })
    return out
