"""Run ``python -m repro serve`` with span-recording wrappers installed.

Usage: ``python perfbench/traced_server.py SPANS.json serve --artifact PATH --port N``

Everything after the spans path goes to ``repro.__main__.main``.  On
SIGINT the service stops and the recorded spans, plus one
``[submit, done]`` entry per request, are written to
``SPANS.json``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    out = pathlib.Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracer.enabled = True
    tracing.install_model_wraps(tracer)

    from repro.__main__ import main as repro_main
    from repro.serve.batcher import InferenceEngine, MicroBatcher

    batch_ids = itertools.count()
    tracer.wrap(InferenceEngine, "predict", "serve.engine.predict",
                unit_of=lambda: next(batch_ids))
    requests = []
    submit = MicroBatcher.submit

    def traced_submit(self, values):
        entry = [time.perf_counter(), None]
        future = submit(self, values)
        requests.append(entry)
        future.add_done_callback(
            lambda _f, entry=entry: entry.__setitem__(1, time.perf_counter()))
        return future

    MicroBatcher.submit = traced_submit
    try:
        return repro_main(sys.argv[2:])
    finally:
        spans = tracer.take()
        index = {id(span): i for i, span in enumerate(spans)}
        out.write_text(json.dumps({
            "spans": [[s.layer, s.start, s.end,
                       index.get(id(s.parent)) if s.parent is not None else None, s.unit]
                      for s in spans],
            "requests": [r for r in requests if r[1] is not None],
        }))


if __name__ == "__main__":
    sys.exit(main())
