"""Per-layer self time, recorded from outside the program.

The traced run wraps each layer's functions at the module (or class)
attribute its callers look up, so no span lives inside ``src/``.  A
wrapper pushes a frame on a span stack, times the call, and charges the
layer with the call's duration minus the time its nested wrapped calls
took (self time).  Spans stay in memory; nothing is written out.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Tuple

# (module path, owner attribute or "" for the module itself, attribute,
# layer).  Scalar and stacked flow engines are both listed: the scalar
# ``run_flow`` looks its stages up in ``repro.flow.runner``, the stacked
# ``run_flow_batch`` in ``repro.flow.batch_runner`` / ``batch_opt``.
LAYER_SITES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.flow.runner", "", "fresh_netlists", "netlist"),
    ("repro.flow.batch_runner", "", "fresh_netlists", "netlist"),
    ("repro.flow.batch_runner", "", "CompiledDesign", "netlist"),
    ("repro.flow.batch_runner", "", "LaneState", "netlist"),
    ("repro.flow.batch_opt", "", "CompiledDesign", "netlist"),
    ("repro.flow.batch_opt", "", "LaneState", "netlist"),
    ("repro.flow.runner", "", "place", "placement"),
    ("repro.flow.batch_runner", "", "place_batch", "placement"),
    ("repro.flow.runner", "", "synthesize_clock_tree", "cts"),
    ("repro.flow.runner", "", "analyze_skew", "cts"),
    ("repro.flow.batch_runner", "", "synthesize_clock_tree_batch", "cts"),
    ("repro.flow.batch_runner", "", "analyze_skew", "cts"),
    ("repro.flow.runner", "", "global_route", "routing"),
    ("repro.flow.runner", "", "estimate_drcs", "routing"),
    ("repro.flow.batch_runner", "", "global_route_batch", "routing"),
    ("repro.flow.batch_runner", "", "estimate_drcs", "routing"),
    ("repro.flow.runner", "", "run_sta", "timing"),
    ("repro.flow.opt", "", "run_sta", "timing"),
    ("repro.flow.batch_runner", "", "run_sta_batch", "timing"),
    ("repro.flow.batch_opt", "", "run_sta_batch", "timing"),
    ("repro.flow.runner", "", "optimize", "flow.opt"),
    ("repro.flow.batch_runner", "", "optimize_batch", "flow.opt"),
    ("repro.flow.runner", "", "analyze_power", "power"),
    ("repro.flow.batch_runner", "", "analyze_power_batch", "power"),
    ("repro.insights.extractor", "InsightExtractor", "extract", "insights"),
    ("repro.runtime.session", "FlowSession", "evaluate", "runtime"),
    ("repro.core.model", "InsightAlignModel", "logits", "nn.forward"),
    ("repro.core.model", "InsightAlignModel", "batched_logits", "nn.forward"),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward"),
    ("repro.nn.optim", "Adam", "step", "nn.optim"),
    ("repro.nn.optim", "Adam", "zero_grad", "nn.optim"),
    ("repro.core.alignment", "", "clip_grad_norm", "nn.optim"),
    ("repro.core.online", "", "clip_grad_norm", "nn.optim"),
    ("repro.core.online", "", "beam_search", "core.beam"),
    ("repro.core.online", "", "sample_decode", "core.beam"),
    ("repro.serving.service", "", "batched_beam_search", "serving.decode"),
    ("repro.serving.service", "RecommendationService", "submit",
     "serving.service"),
    ("repro.serving.service", "RecommendationService", "poll",
     "serving.service"),
    ("repro.serving.service", "RecommendationService", "flush",
     "serving.service"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(site[3] for site in LAYER_SITES))


class LayerTracer:
    """Installs timing wrappers; accumulates self seconds and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        # One entry per open span: seconds spent in its wrapped children.
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _wrapper(self, original, layer: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                total = clock() - start
                self_s[layer] += total - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += total

        return traced

    def install(self) -> None:
        for module_name, owner_name, attr, layer in LAYER_SITES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, layer))
            self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
