"""Call-level tracing of renyifair's public functions, installed from outside.

``Tracer`` replaces every module attribute that is bound to one of the
functions in ``SPANS`` (``fairtrain`` and ``metrics`` import ``forward``,
``loss_and_grad`` and ``jacobian_probs`` by name, so those bindings are
wrapped too) with a timing wrapper, and puts every original back on exit.
Nothing in ``src/`` is modified.  The VJP closure that ``jacobian_probs``
returns is wrapped as the span ``model.vjp``.

Spans nest: a span's self time is its duration minus the durations of the
spans it called.  Self time is summed per layer (module); time outside any
span is the CLI's own.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

SPANS = (
    "model.forward", "model.loss_and_grad", "model.jacobian_probs",
    "maxcorr.empirical_q", "maxcorr.svd_small",
    "fairtrain.train", "fairtrain.hsic_penalty", "fairtrain.pearson_penalty",
    "fairtrain.inner_w_closed_form",
    "faircluster.fair_kmeans",
    "data.load_dataset", "data.clustering_view", "data.synth_yequalss",
    "metrics.evaluate",
)
LIBRARY_LAYERS = ("data", "fairtrain", "model", "maxcorr", "faircluster", "metrics")


class Tracer:
    """Context manager that wraps the ``SPANS`` functions while active."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.library_s = 0.0  # time in outermost spans
        self.train = {"self_s": 0.0, "steps": 0, "rows": 0, "svd_calls": 0}
        self.kmeans = {part: {"calls": 0, "s": 0.0, "sweeps": 0, "moves": 0}
                       for part in ("lam0", "lampos")}
        self._stack: list[list] = []  # per open span: [child seconds, inside train]
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        import renyifair
        from renyifair import cli
        modules = [cli] + [getattr(renyifair, m) for m in LIBRARY_LAYERS]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for span in SPANS:
            layer, fn_name = span.split(".")
            original = getattr(by_name[layer], fn_name)
            wrapper = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        stale = [f"{m.__name__}.{a}" for m, a, v in self._saved if getattr(m, a) is not v]
        self._saved = []
        if stale:
            raise RuntimeError(f"tracer left wrapped attributes behind: {stale}")

    def _wrap(self, span: str, fn):
        layer = span.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inside_train = span == "fairtrain.train" or bool(self._stack and self._stack[-1][1])
            frame = [0.0, inside_train]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._close(span, layer, frame, elapsed)
            if span == "fairtrain.train":
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                self.train["steps"] += sum(1 for t in result.iteration if t < cfg.iters)
                self.train["rows"] += len(result.iteration)
            elif span == "faircluster.fair_kmeans":
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                part = self.kmeans["lam0" if cfg.lam == 0 else "lampos"]
                part["calls"] += 1
                part["s"] += elapsed
                part["sweeps"] += result[1].sweep[-1] if result[1].sweep else 0
                part["moves"] += sum(result[1].moves)
            elif span == "model.jacobian_probs":
                return self._wrap("model.vjp", result)
            return result

        return traced

    def _close(self, span: str, layer: str, frame: list, elapsed: float) -> None:
        self.calls[span] += 1
        self.seconds[span] += elapsed
        own = elapsed - frame[0]
        self.layer_self[layer] += own
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.library_s += elapsed
        if frame[1]:
            if layer == "fairtrain":
                self.train["self_s"] += own
            elif span == "maxcorr.svd_small":
                self.train["svd_calls"] += 1

    def metrics(self, wall_s: float) -> dict:
        """Per-layer figures of one traced round whose CLI wall time was ``wall_s``."""
        out = {}
        for span in SPANS + ("model.vjp",):
            if span == "faircluster.fair_kmeans":
                continue  # reported per lambda part below
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.seconds[span]
            if span.split(".")[0] in ("model", "maxcorr"):
                calls = self.calls[span]
                out[f"{span}.us_per_call"] = 1e6 * self.seconds[span] / calls if calls else 0.0
        rows, steps = self.train["rows"], self.train["steps"]
        out["maxcorr.svd_small.calls_per_step"] = self.train["svd_calls"] / rows if rows else 0.0
        out["fairtrain.train.self_s"] = self.train["self_s"]
        out["fairtrain.steps"] = steps
        out["fairtrain.us_per_step"] = 1e6 * self.seconds["fairtrain.train"] / steps if steps else 0.0
        for part, k in self.kmeans.items():
            base = "faircluster.fair_kmeans"
            out[f"{base}.calls.{part}"] = k["calls"]
            out[f"{base}.s.{part}"] = k["s"]
            out[f"{base}.sweeps.{part}"] = k["sweeps"]
            out[f"{base}.moves.{part}"] = k["moves"]
            out[f"{base}.ms_per_sweep.{part}"] = 1e3 * k["s"] / k["sweeps"] if k["sweeps"] else 0.0
        for layer in LIBRARY_LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        out["cli.self_s"] = wall_s - self.library_s
        return out
