"""Per-layer spans and counts for the traced run.

`install` wraps the module-level functions through which tschmm's modules
call one another; `metrics` turns the spans of the measured phase into the
per-layer metrics. Unless a metric says otherwise it is a total over the
measured phase divided by the workload calls attempted, so `.ms` reads as
milliseconds per workload call and `.calls` as calls per workload call.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict

import numpy as np

from tschmm import cli, data, evaluation, gaussian, hmm, model_io, tsc

_BAUM_WELCH = inspect.signature(hmm.baum_welch)


def _set(**attrs):
    return lambda span, args, kwargs, result: span.attrs.update(
        {k: f(args, kwargs, result) for k, f in attrs.items()}
    )


def _on_baum_welch(span, args, kwargs, result):
    bound = _BAUM_WELCH.bind(*args, **kwargs)
    bound.apply_defaults()
    history = result[1]
    accepted = len(history) - 1
    stopped_on_tol = accepted > 0 and history[-1] - history[-2] < bound.arguments["tol"]
    # one E-step scores the input model and one follows each M-step; an
    # M-step whose update lowered the likelihood was scored, then discarded
    if accepted == bound.arguments["max_iter"] or stopped_on_tol:
        e_steps = 1 + accepted
    else:
        e_steps = 2 + accepted
    frames = sum(len(d) for d in bound.arguments["demos"])
    span.attrs.update(iterations=accepted, frame_steps=frames * e_steps)


def _on_gmr_predict(span, args, kwargs, result):
    # tsc.predict's base rows, to tell which frames the gate switched
    if span.parent is not None and span.parent.name == "tsc.predict":
        span.parent.attrs["base_rows"] = result.frames


def _on_tsc_predict(span, args, kwargs, result):
    base_rows = span.attrs.pop("base_rows", None)
    fired = 0 if base_rows is None else int(np.any(result.frames != base_rows, axis=1).sum())
    span.attrs.update(frames=len(result), fired=fired)


def _on_detect(span, args, kwargs, result):
    span.attrs["samples"] = len(result[0])


def _on_save_model(span, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    span.attrs["bytes"] = os.path.getsize(path)


def install(tracer) -> None:
    t = tracer
    t.install(gaussian, "log_density", "gaussian.log_density",
              _set(points=lambda a, k, r: int(np.size(r))))
    t.install(gaussian, "marginalize", "gaussian.marginalize")
    t.install(hmm, "init_temporal_bins", "hmm.init_temporal_bins")
    t.install(hmm, "forward", "hmm.forward", _set(frames=lambda a, k, r: len(r.h)))
    t.install(hmm, "baum_welch", "hmm.baum_welch", _on_baum_welch)
    t.install(hmm, "gmr_predict", "hmm.gmr_predict", _on_gmr_predict)
    t.install(hmm, "viterbi_labels", "hmm.viterbi_labels")
    t.install(tsc, "detect_transition_states", "tsc.detect_transition_states", _on_detect)
    t.install(tsc, "fit", "tsc.fit", _set(fallback=lambda a, k, r: int(r.fallback)))
    t.install(tsc, "predict", "tsc.predict", _on_tsc_predict)
    t.install(data, "load_csv", "data.load_csv",
              _set(rows=lambda a, k, r: sum(len(d) for d in r.demos)))
    t.install(data, "build_features", "data.build_features")
    t.install(data, "synth_generate", "data.synth_generate")
    t.install(model_io, "save_model", "model_io.save_model", _on_save_model)
    t.install(model_io, "load_model", "model_io.load_model")
    t.install(evaluation, "run_single", "evaluation.run_single")
    t.install(evaluation, "mse", "evaluation.mse")
    t.install(cli, "cmd_train", "cli.train")
    t.install(cli, "cmd_predict", "cli.predict")
    t.install(cli, "cmd_segment", "cli.segment")


def metrics(setup_spans, run_spans, n_calls: int, n_setups: int, scale: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; times are multiplied by
    `scale`, the run's host-speed correction (see clock.py)."""
    by = defaultdict(list)
    for s in run_spans:
        by[s.name].append(s)

    def ms(name):
        return 1e3 * scale * sum(s.seconds for s in by[name]) / n_calls

    def self_ms(name):
        return 1e3 * scale * sum(s.self_seconds for s in by[name]) / n_calls

    def calls(name):
        return len(by[name]) / n_calls

    def total(name, key):
        return sum(s.attrs[key] for s in by[name])

    # transition samples that tsc.fit trained on (not those detected only
    # to be printed), and the share of predicted frames the gate switched
    samples = sum(s.attrs.get("samples", 0) for s in by["tsc.detect_transition_states"]
                  if s.parent is not None and s.parent.name == "tsc.fit")
    frames = total("tsc.predict", "frames")
    saves = by["model_io.save_model"]
    predict_ms = [1e3 * scale * s.seconds for s in by["tsc.predict"]]
    synth_s = scale * sum(s.seconds for s in setup_spans if s.name == "data.synth_generate")

    out = {
        "hmm.baum_welch.ms": (ms("hmm.baum_welch"), "ms"),
        "hmm.baum_welch.calls": (calls("hmm.baum_welch"), "count"),
        "hmm.em_iterations": (total("hmm.baum_welch", "iterations") / n_calls, "count"),
        "hmm.em_frame_steps": (total("hmm.baum_welch", "frame_steps") / n_calls, "count"),
        "hmm.forward.ms": (ms("hmm.forward"), "ms"),
        "hmm.forward.calls": (calls("hmm.forward"), "count"),
        "hmm.forward.frames": (total("hmm.forward", "frames") / n_calls, "count"),
        "hmm.gmr_predict.ms": (ms("hmm.gmr_predict"), "ms"),
        "hmm.gmr_predict.calls": (calls("hmm.gmr_predict"), "count"),
        "hmm.viterbi_labels.ms": (ms("hmm.viterbi_labels"), "ms"),
        "hmm.viterbi_labels.calls": (calls("hmm.viterbi_labels"), "count"),
        "hmm.init_temporal_bins.ms": (ms("hmm.init_temporal_bins"), "ms"),
        "gaussian.log_density.ms": (ms("gaussian.log_density"), "ms"),
        "gaussian.log_density.calls": (calls("gaussian.log_density"), "count"),
        "gaussian.log_density.points": (total("gaussian.log_density", "points") / n_calls, "count"),
        "gaussian.marginalize.calls": (calls("gaussian.marginalize"), "count"),
        "tsc.detect_transition_states.ms": (ms("tsc.detect_transition_states"), "ms"),
        "tsc.detect_transition_states.calls": (calls("tsc.detect_transition_states"), "count"),
        "tsc.fit.self_ms": (self_ms("tsc.fit"), "ms"),
        "tsc.transition_samples": (samples / n_calls, "count"),
        "tsc.fallbacks": (total("tsc.fit", "fallback") / n_calls, "count"),
        "tsc.predict.self_ms": (self_ms("tsc.predict"), "ms"),
        "tsc.predict.calls": (calls("tsc.predict"), "count"),
        "tsc.predict.frames": (frames / n_calls, "count"),
        "tsc.predict.p99_ms": (float(np.percentile(predict_ms, 99)) if predict_ms else 0.0, "ms"),
        "tsc.gate_fire_ratio": (total("tsc.predict", "fired") / frames if frames else 0.0, "ratio"),
        "data.load_csv.ms": (ms("data.load_csv"), "ms"),
        "data.load_csv.rows": (total("data.load_csv", "rows") / n_calls, "count"),
        "data.build_features.ms": (ms("data.build_features"), "ms"),
        "data.synth_generate.ms": (1e3 * synth_s / n_setups, "ms"),
        "model_io.save_model.ms": (ms("model_io.save_model"), "ms"),
        "model_io.load_model.ms": (ms("model_io.load_model"), "ms"),
        "model_io.model_bytes": (total("model_io.save_model", "bytes") / len(saves) if saves else 0.0, "bytes"),
        "evaluation.run_single.self_ms": (self_ms("evaluation.run_single"), "ms"),
        "evaluation.mse.ms": (ms("evaluation.mse"), "ms"),
    }
    for cmd in ("train", "predict", "segment"):
        out[f"cli.{cmd}.ms"] = (ms(f"cli.{cmd}"), "ms")
        out[f"cli.{cmd}.self_ms"] = (self_ms(f"cli.{cmd}"), "ms")
    return out
