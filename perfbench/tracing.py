"""Instruments installed into samplebench at run time, from outside the program.

Every wrapper replaces a name where the program looks it up (a module global,
a class attribute, or a callable field of the target object), so nothing under
`src/` changes.  `Probe` is all an untraced run installs: the evaluation
boundary and the first training call.  `Tracer` adds one span per call into
each layer's public functions plus exact counters; spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter

LAYERS = ("targets", "kernels", "sis", "diffusion", "numerics", "vi", "metrics", "harness")


class Probe:
    """Evaluation time and NFE split, read at the `evaluate_sampler` boundary."""

    def __init__(self):
        self.first_train = None  # time.monotonic() at the first training call
        self.eval_s = 0.0
        self.nfe_eval = 0
        self.targets = []

    def install(self, run_mod):
        build_target = run_mod.build_target
        evaluate_sampler = run_mod.evaluate_sampler
        train = run_mod.MethodDriver.train

        def build(*args, **kwargs):
            target = build_target(*args, **kwargs)
            self.targets.append(target)
            return target

        def evaluate(sampler, target, *args, **kwargs):
            before = target.nfe.value
            start = time.perf_counter()
            try:
                return evaluate_sampler(sampler, target, *args, **kwargs)
            finally:
                self.eval_s += time.perf_counter() - start
                self.nfe_eval += target.nfe.value - before

        def first_train(driver, *args, **kwargs):
            if self.first_train is None:
                self.first_train = time.monotonic()
            return train(driver, *args, **kwargs)

        run_mod.build_target = build
        run_mod.evaluate_sampler = evaluate
        run_mod.MethodDriver.train = first_train

    @property
    def nfe_total(self) -> int:
        return sum(t.nfe.value for t in self.targets)


class Tracer:
    """Spans as [name, start, end, parent index] plus named exact counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """`fn` recorded as span `name`; `after(result, *args)` updates counters."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(out, *args)
            return out

        return wrapped

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def instrument(tracer: Tracer):
    """Wrap the public calls into every samplebench layer with spans."""
    import samplebench.diffusion as diffusion
    import samplebench.harness.evaluate as evaluate
    import samplebench.harness.registry as registry
    import samplebench.harness.run as run
    import samplebench.sis as sis
    import samplebench.vi as vi
    from samplebench.numerics.tape import Tape

    t = tracer
    counts = tracer.counts

    def count_points(_out, x, *_rest):
        counts["targets.points"] += len(x)

    def instrument_target(target, *_args):
        target.log_unnorm = t.wrap("targets.log_unnorm", target.log_unnorm, count_points)
        target.grad_log_unnorm = t.wrap("targets.grad_log_unnorm", target.grad_log_unnorm,
                                        count_points)
        if target.score_hvp is not None:
            target.score_hvp = t.wrap("targets.score_hvp", target.score_hvp, count_points)
        if target.exact_sampler is not None:
            target.exact_sampler = t.wrap("targets.exact_sampler", target.exact_sampler)
        if target.mode_model is not None:
            target.mode_model.prob = t.wrap("targets.mode_prob", target.mode_model.prob)

    run.build_target = t.wrap("targets.build_target", run.build_target, instrument_target)

    def count_hmc(out, *_args):
        accepted = out[1]
        counts["kernels.hmc_steps"] += 1
        counts["kernels.accepted"] += int(accepted.sum())
        counts["kernels.proposed"] += len(accepted)

    sis.hmc_step = t.wrap("kernels.hmc_step", sis.hmc_step, count_hmc)
    registry.smc_run = t.wrap("sis.smc_run", registry.smc_run)
    registry.backward_transport_logweights = t.wrap(
        "sis.backward_transport_logweights", registry.backward_transport_logweights)

    simulate_forward = diffusion.simulate_forward

    @functools.wraps(simulate_forward)
    def forward(*args, **kwargs):
        phase = "train" if kwargs.get("tape") is not None else "eval"
        batch = t.call(f"diffusion.forward_{phase}", simulate_forward, *args, **kwargs)
        counts["diffusion.valid"] += int(batch.valid.sum())
        counts["diffusion.simulated"] += len(batch.valid)
        return batch

    diffusion.simulate_forward = registry.simulate_forward = forward
    registry.simulate_backward_logweights = t.wrap(
        "diffusion.simulate_backward_logweights", registry.simulate_backward_logweights)
    registry.train_diffusion = t.wrap("diffusion.train_diffusion", registry.train_diffusion)

    def count_nodes(_out, tape, *_rest):
        counts["numerics.tape_grads"] += 1
        counts["numerics.tape_nodes"] += len(tape.nodes)

    Tape.grad = t.wrap("numerics.tape_grad", Tape.grad, count_nodes)
    diffusion.drift_forward = t.wrap("numerics.drift_forward", diffusion.drift_forward)
    diffusion.adam_step = t.wrap("numerics.adam_step", diffusion.adam_step)
    vi.adam_step = t.wrap("numerics.adam_step", vi.adam_step)

    registry.mfvi_train = t.wrap("vi.mfvi_train", registry.mfvi_train)

    def count_sinkhorn(out, *_args):
        counts["metrics.sinkhorn_calls"] += 1
        counts["metrics.sinkhorn_converged"] += int(bool(out[1]))

    evaluate.sinkhorn_w2 = t.wrap("metrics.sinkhorn_w2", evaluate.sinkhorn_w2, count_sinkhorn)
    evaluate.mmd = t.wrap("metrics.mmd", evaluate.mmd)
    evaluate.emc = t.wrap("metrics.emc", evaluate.emc)
    evaluate.ejs = t.wrap("metrics.ejs", evaluate.ejs)

    evaluate_sampler = run.evaluate_sampler

    def evaluate_counted(sampler, target, n_samples, *args, **kwargs):
        sample = sampler.sample_with_logweights

        def sample_counted(n, rng):
            x, log_w = sample(n, rng)
            counts["harness.eval_rows"] += len(x)
            counts["harness.eval_rows_requested"] += n
            return x, log_w

        sampler.sample_with_logweights = sample_counted
        return evaluate_sampler(sampler, target, n_samples, *args, **kwargs)

    run.evaluate_sampler = t.wrap("harness.evaluate_sampler", evaluate_counted)
    run.MethodDriver.train = t.wrap("harness.train", run.MethodDriver.train)


def _ratio(num, den):
    return num / den if den else 0.0


def _vi_step_ms(spans) -> float:
    """Median gap between successive MFVI Adam updates with no checkpoint between."""
    children = {}
    for name, start, _end, parent in spans:
        if parent >= 0 and spans[parent][0] == "vi.mfvi_train":
            children.setdefault(parent, []).append((start, name))
    gaps = []
    for calls in children.values():
        last, clean = None, True
        for start, name in calls:
            if name == "harness.evaluate_sampler":
                clean = False
            elif name == "numerics.adam_step":
                if last is not None and clean:
                    gaps.append(start - last)
                last, clean = start, True
    return 1e3 * statistics.median(gaps) if gaps else 0.0


def layer_metrics(tracer: Tracer, run_s: float) -> dict:
    """Per-layer figures of one traced run; a layer that did not run reads 0."""
    spans, counts = tracer.spans, tracer.counts
    own = tracer.self_times()
    total, self_s, hmc_self, evals = Counter(), Counter(), 0.0, []
    for (name, start, end, _parent), mine in zip(spans, own):
        total[name] += end - start
        self_s[name.split(".")[0]] += mine
        if name == "kernels.hmc_step":
            hmc_self += mine
        elif name == "harness.evaluate_sampler":
            evals.append(end - start)
    query_s = total["targets.log_unnorm"] + total["targets.grad_log_unnorm"] \
        + total["targets.score_hvp"]
    m = {
        "targets.query_s": query_s,
        "targets.points": counts["targets.points"],
        "targets.us_per_point": 1e6 * _ratio(query_s, counts["targets.points"]),
        "targets.mode_prob_s": total["targets.mode_prob"],
        "targets.sample_s": total["targets.exact_sampler"],
        "kernels.hmc_s": hmc_self,
        "kernels.hmc_steps": counts["kernels.hmc_steps"],
        "kernels.hmc_accept": _ratio(counts["kernels.accepted"], counts["kernels.proposed"]),
        "sis.sweep_s": total["sis.smc_run"],
        "sis.backward_s": total["sis.backward_transport_logweights"],
        "diffusion.forward_train_s": total["diffusion.forward_train"],
        "diffusion.forward_eval_s": total["diffusion.forward_eval"],
        "diffusion.backward_s": total["diffusion.simulate_backward_logweights"],
        "diffusion.valid_frac": _ratio(counts["diffusion.valid"], counts["diffusion.simulated"]),
        "numerics.tape_nodes_per_step": _ratio(counts["numerics.tape_nodes"],
                                               counts["numerics.tape_grads"]),
        "numerics.tape_grad_s": total["numerics.tape_grad"],
        "numerics.drift_s": total["numerics.drift_forward"],
        "numerics.adam_s": total["numerics.adam_step"],
        "vi.step_ms": _vi_step_ms(spans),
        "metrics.sinkhorn_s": total["metrics.sinkhorn_w2"],
        "metrics.sinkhorn_converged_frac": _ratio(counts["metrics.sinkhorn_converged"],
                                                  counts["metrics.sinkhorn_calls"]),
        "metrics.mmd_s": total["metrics.mmd"],
        "metrics.mode_criteria_s": total["metrics.emc"] + total["metrics.ejs"],
        "harness.eval_ckpt_s": statistics.median(evals) if evals else 0.0,
        "harness.eval_rows": _ratio(counts["harness.eval_rows"], len(evals)),
        "harness.eval_rows_frac": _ratio(counts["harness.eval_rows"],
                                         counts["harness.eval_rows_requested"]),
        "harness.emit_s": total["harness.emit_results"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.run_s"] = run_s
    m["trace.spans"] = len(spans)
    return m
