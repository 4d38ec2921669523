"""Spans at the public function boundaries of scenecomp's modules.

The tracer wraps each listed function object in every scenecomp module that
binds it by name (for example `cli` binds `predict` and `rasterize` by
`from ... import`), records one span (name, start, end, parent) per call in
memory, and restores the originals when a traced round ends. Spans inside
the program are not recorded: the benchmark only sees these boundaries.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, layer name) for every traced boundary.
TRACED = (
    ("nn", "forward", "nn.forward"),
    ("nn", "backward", "nn.backward"),
    ("nn", "adam_step", "nn.adam_step"),
    ("nn", "save_checkpoint", "nn.save_checkpoint"),
    ("nn", "load_checkpoint", "nn.load_checkpoint"),
    ("model", "train", "model.train"),
    ("model", "validation_loss", "model.validation_loss"),
    ("model", "evaluate_model", "model.evaluate_model"),
    ("model", "predict", "model.predict"),
    ("model", "postprocess", "model.postprocess"),
    ("model", "encode_inputs", "model.encode_inputs"),
    ("ontology", "class_affinity", "ontology.class_affinity"),
    ("dataset", "generate_synthetic_scene", "dataset.generate_synthetic_scene"),
    ("dataset", "make_sample", "dataset.make_sample"),
    ("dataset", "save_dataset", "dataset.save_dataset"),
    ("dataset", "load_dataset", "dataset.load_dataset"),
    ("graphs", "augment", "graphs.augment"),
    ("graphs", "load_graph", "graphs.load_graph"),
    ("raster", "rasterize", "raster.rasterize"),
    ("metrics", "evaluate_many", "metrics.evaluate_many"),
    ("layout", "extract_layout", "layout.extract_layout"),
    ("layout", "place_blind_nodes", "layout.place_blind_nodes"),
    ("render", "render_layout", "render.render_layout"),
    ("render", "render_heatmaps", "render.render_heatmaps"),
    ("cli", "cmd_generate", "cli.generate"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_predict", "cli.predict"),
    ("cli", "cmd_layout", "cli.layout"),
    ("cli", "cmd_render", "cli.render"),
)

LAYERS = tuple(layer for _, _, layer in TRACED)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric a traced run reports."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.s", "s"), (f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
        if layer == "nn.forward":
            names += [("nn.forward.train_s", "s"), ("nn.forward.eval_s", "s")]
    names += [("trace.spans", "count"), ("trace.overhead_pct", "%")]
    return names


def _forward_mode(args, kwargs) -> str:
    train = kwargs.get("train", args[5] if len(args) > 5 else False)
    return "train" if train else "eval"


class Tracer:
    """Collects spans while installed; spans carry the index of their round."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, round
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._round = -1

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer
            if layer == "nn.forward":
                name = f"nn.forward.{_forward_mode(args, kwargs)}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._round)

        return traced

    def install(self, round_index: int) -> None:
        """Wrap every traced function wherever a scenecomp module binds it."""
        self._round = round_index
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "scenecomp" or name.startswith("scenecomp."))]
        for mod_name, fn_name, layer in TRACED:
            original = getattr(sys.modules[f"scenecomp.{mod_name}"], fn_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def per_layer(self, n_rounds: int) -> dict[str, float]:
        """Busy time, self time and calls per layer, averaged over traced rounds."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        out = {}
        for layer in LAYERS:
            keys = [f"{layer}.train", f"{layer}.eval"] if layer == "nn.forward" else [layer]
            out[f"{layer}.s"] = sum(busy[k] for k in keys) / n_rounds
            out[f"{layer}.self_s"] = sum(self_time[k] for k in keys) / n_rounds
            out[f"{layer}.calls"] = sum(calls[k] for k in keys) / n_rounds
            if layer == "nn.forward":
                out["nn.forward.train_s"] = busy["nn.forward.train"] / n_rounds
                out["nn.forward.eval_s"] = busy["nn.forward.eval"] / n_rounds
        out["trace.spans"] = len(self.spans) / n_rounds
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index, round."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, rnd in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "round": rnd}) + "\n")
