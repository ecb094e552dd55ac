"""Span recording around the public functions of each layer.

The benchmark does not trace inside the program: it replaces public
functions and methods of the ``repro`` layers with thin wrappers that
record a span (layer name, start, end, parent span, unit id) per call.
Spans stay in memory and are summarized or written out when the run
ends.  A span's *self time* is its duration minus the part of it that
its child spans cover; summed over every span of a unit, self times
add up to the time the unit's root spans cover, and the rest of the
unit's wall time is the ledger's residual, which ``ledger`` bounds.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("layer", "start", "end", "parent", "unit", "children")

    def __init__(self, layer: str, parent: Optional["Span"], unit: object) -> None:
        self.layer = layer
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.unit = unit
        self.children: List["Span"] = []


class Tracer:
    """In-memory span collector shared by every wrapped function.

    ``unit`` is the id stamped on root spans (a sweep point, a defect
    map); child spans inherit their parent's.  ``enabled`` switches
    recording off without removing the wrappers, so a traced run can
    interleave untraced reference work.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.unit: object = None
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, unit: object = None) -> Span:
        """Open a span on the calling thread (nested under its open span)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            unit = parent.unit
        elif unit is None:
            unit = self.unit
        span = Span(layer, parent, unit)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner: object, attr: str, layer: str,
             unit_of: Optional[Callable[[], object]] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``unit_of`` gives root spans a fresh unit id per call (the
        server's batches); otherwise roots take ``self.unit``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.begin(layer, unit_of() if unit_of is not None else None)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        setattr(owner, attr, traced)

    def take(self) -> List[Span]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_seconds(span: Span) -> float:
    """Span duration minus the part its children cover."""
    return (span.end - span.start) - covered(
        ((c.start, c.end) for c in span.children), span.start, span.end
    )


def self_by_layer(spans: Sequence[Span], weight: Optional[Dict[object, float]] = None
                  ) -> Dict[str, float]:
    """Total self seconds per layer, each span weighted by its unit's weight."""
    totals: Dict[str, float] = {}
    for span in spans:
        w = 1.0 if weight is None else weight.get(span.unit, 0.0)
        totals[span.layer] = totals.get(span.layer, 0.0) + w * self_seconds(span)
    return totals


def outermost_seconds(spans: Sequence[Span], layer: str) -> float:
    """Inclusive seconds of ``layer`` spans not nested in a ``layer`` span."""
    total = 0.0
    for span in spans:
        if span.layer != layer:
            continue
        parent = span.parent
        while parent is not None and parent.layer != layer:
            parent = parent.parent
        if parent is None:
            total += span.end - span.start
    return total


RESIDUAL_CEILING = 0.25
"""Largest share of the traced end-to-end time the spans may leave uncovered."""


def ledger(layer_seconds: Dict[str, float], e2e_seconds: float) -> Dict[str, object]:
    """The time budget: ``e2e == sum(self times) + residual``.

    The identity holds by definition of the residual; the checks are
    what can fail.  ``no_negative_self`` fails when a layer claims less
    than nothing (an interval counted against the wrong span), and
    ``residual_within_ceiling`` when the spans claim more than the
    end-to-end time or leave more than ``RESIDUAL_CEILING`` of it
    uncovered (a wrapped function no longer on the measured path).
    ``ok`` is all checks together.
    """
    accounted = sum(layer_seconds.values())
    residual = e2e_seconds - accounted
    slack = 1e-9 * max(1.0, e2e_seconds)
    checks = {
        "no_negative_self": min(layer_seconds.values(), default=0.0) >= -slack,
        "residual_within_ceiling": -slack <= residual <= RESIDUAL_CEILING * e2e_seconds,
    }
    return {
        "e2e_s": e2e_seconds,
        "self_s": dict(sorted(layer_seconds.items(), key=lambda kv: -kv[1])),
        "residual_s": residual,
        "residual_share": residual / e2e_seconds if e2e_seconds > 0 else 0.0,
        "checks": checks,
        "ok": all(checks.values()),
    }


def self_time_metrics(per_unit_ms: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric names for per-unit self times (``<layer>_ms``).

    ``AnalogMLP.forward``/``forward_trials`` own the noise draws, so
    their self time is reported as ``device.variation.draw_ms``.
    """
    return {("device.variation.draw_ms" if layer == "core.deploy.forward"
             else f"{layer}_ms"): ms for layer, ms in per_unit_ms.items()}


def install_model_wraps(tracer: Tracer) -> None:
    """Wrap the public functions of the model layers (both processes use it)."""
    from repro.analog.periphery import Comparator, SigmoidNeuron
    from repro.core.deploy import AnalogMLP
    from repro.core.mei import MEI
    from repro.xbar.mapping import DifferentialCrossbar

    for attr in ("predict", "predict_trials", "predict_bits", "predict_bits_trials"):
        tracer.wrap(MEI, attr, "core.mei.predict")
    tracer.wrap(MEI, "encode_inputs", "quant.encode")
    tracer.wrap(MEI, "decode_outputs", "quant.decode")
    tracer.wrap(AnalogMLP, "forward", "core.deploy.forward")
    tracer.wrap(AnalogMLP, "forward_trials", "core.deploy.forward")
    tracer.wrap(AnalogMLP, "repair_with_spares", "core.deploy.repair")
    tracer.wrap(AnalogMLP, "restore_conductances", "core.deploy.restore")
    tracer.wrap(DifferentialCrossbar, "apply", "xbar.mapping.apply")
    tracer.wrap(DifferentialCrossbar, "apply_trials", "xbar.mapping.apply")
    tracer.wrap(SigmoidNeuron, "apply", "analog.periphery.neuron")
    tracer.wrap(Comparator, "apply", "analog.periphery.comparator")


def spans_from_rows(rows: Sequence[Sequence]) -> List[Span]:
    """Rebuild spans written as ``[layer, start, end, parent_index, unit]``."""
    spans = []
    for layer, start, end, _parent, unit in rows:
        span = Span(layer, None, unit)
        span.start, span.end = start, end
        spans.append(span)
    for span, row in zip(spans, rows):
        if row[3] is not None:
            span.parent = spans[row[3]]
            span.parent.children.append(span)
    return spans
