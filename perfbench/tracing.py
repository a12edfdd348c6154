"""Span tracing of billiard_beta from outside the package.

`Tracer.install` replaces the public functions of each module, wherever a
billiard_beta module holds a reference to them, with wrappers that record a
span: name, start, end, parent span and job id.  Spans stay in memory until
`write` is called.  Nothing under src/ changes; `uninstall` restores every
replaced attribute.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import numpy as np

MODEL_SPANS = ("models.value", "models.grad", "models.hess")
# TwistSystem callables and the span each is counted under.
MODEL_FIELDS = {"S": "models.value", "S1": "models.grad", "S2": "models.grad",
                "S11": "models.hess", "S12": "models.hess", "S22": "models.hess"}
TWIST_SOLVES = ("twist.minimize_periodic", "twist.minimize_with_fixed_start", "twist.ladder")
LIBRARY_SPANS = (
    "geometry.eval_support",
    "geometry.domain_build",
    *MODEL_SPANS,
    *TWIST_SOLVES,
    "twist.solve_banded",
    "rigidity.verify",
)

# Self time of a span is its duration minus the time of its direct children
# in these layers.  Each layer subtracts itself so nested calls are not
# counted twice.  The verifiers keep their own quadrature (perimeter, area)
# in their self time: only the twist solves are taken out.
SUBTRACTED = {
    **{name: ("geometry.eval_support", *MODEL_SPANS) for name in MODEL_SPANS},
    "twist.minimize_periodic": (*MODEL_SPANS, "twist.solve_banded", *TWIST_SOLVES),
    "twist.minimize_with_fixed_start": (*MODEL_SPANS, "twist.solve_banded", *TWIST_SOLVES),
    "rigidity.verify": (*TWIST_SOLVES, "rigidity.verify"),
    "cli.main": LIBRARY_SPANS,
}

# name -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "geometry.eval_support.calls": ("count", "ladder jobs_per_s; suite job_p50_s; not cli disk/toy"),
    "geometry.eval_support.angles": ("count", "ladder jobs_per_s; suite job_p50_s; not cli disk/toy"),
    "geometry.eval_support.self_s": ("s", "ladder jobs_per_s; suite job_p50_s; not cli disk/toy"),
    "geometry.domain_build_s": ("s", "setup_s, mainly suite"),
    "models.value.calls": ("count", "suite job_p50_s; ladder jobs_per_s"),
    "models.grad.calls": ("count", "suite job_p50_s; ladder jobs_per_s"),
    "models.hess.calls": ("count", "suite job_p50_s; ladder jobs_per_s"),
    "models.pairs": ("count", "suite job_p50_s; ladder jobs_per_s"),
    "models.self_s": ("s", "suite job_p50_s; ladder jobs_per_s"),
    "models.support_calls_per_model_call": ("ratio", "ladder jobs_per_s"),
    "twist.minimize_periodic.calls": ("count", "suite job_p50_s, job_p95_s"),
    "twist.minimize_periodic.self_s": ("s", "suite job_p50_s, job_p95_s"),
    "twist.model_calls_per_solve": ("ratio", "suite job_p50_s, job_p95_s"),
    "twist.converged_frac": ("ratio", "suite job_p50_s, job_p95_s"),
    "twist.solve_banded.calls": ("count", "ladder jobs_per_s"),
    "twist.solve_banded.self_s": ("s", "ladder jobs_per_s"),
    "twist.ladder.convergents": ("count", "ladder jobs_per_s only"),
    "twist.ladder.q_sum": ("count", "ladder jobs_per_s only"),
    "twist.minimize_with_fixed_start.calls": ("count", "cli jobs_per_s"),
    "twist.minimize_with_fixed_start.self_s": ("s", "cli jobs_per_s"),
    "rigidity.verify.calls": ("count", "suite job_p50_s"),
    "rigidity.self_s": ("s", "suite job_p50_s"),
    "cli.import_s": ("s", "cli setup_s and jobs_per_s"),
    "cli.main.self_s": ("s", "cli jobs_per_s"),
    "cli.output_bytes": ("B", "cli jobs_per_s"),
    "trace.overhead_s": ("s", "none: cost of tracing, traced minus untraced wall time"),
    "trace.overhead_frac": ("ratio", "none: trace.overhead_s over untraced wall time"),
}


def _pairs(x0, x1, *rest):
    return max(np.size(x0), np.size(x1))


def _angles(dom, phi, *rest, **kw):
    return np.size(phi)


def _ladder(result):
    return (len(result.evaluations), sum(q for _, q, _ in result.evaluations))


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, attribute]
        self._stack = []
        self._undo = []
        self.job = "setup"

    def wrap(self, name, fn, args_attr=None, result_attr=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    args_attr(*args, **kwargs) if args_attr else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if result_attr is not None:
                span[5] = result_attr(result)
            return result

        return traced

    def _replace_everywhere(self, orig, new):
        modules = [m for key, m in sys.modules.items()
                   if key == "billiard_beta" or key.startswith("billiard_beta.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, new)
                    self._undo.append(lambda m=module, k=key: setattr(m, k, orig))
                elif isinstance(value, dict) and not key.startswith("__"):
                    # registries such as geometry._NAMED
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = new
                            self._undo.append(lambda d=value, k=k: d.__setitem__(k, orig))

    def install(self):
        from billiard_beta import geometry, models, rigidity, twist

        targets = [
            ("geometry.eval_support", geometry.eval_support, _angles, None),
            ("geometry.domain_build", geometry.ellipse, None, None),
            ("geometry.domain_build", geometry.affine_image, None, None),
            ("geometry.domain_build", rigidity.sample_random_domains, None, None),
            ("twist.minimize_periodic", twist.minimize_periodic, None, lambda r: bool(r.converged)),
            ("twist.minimize_with_fixed_start", twist.minimize_with_fixed_start, None, None),
            ("twist.ladder", twist.beta_irrational_result, None, _ladder),
            ("twist.solve_banded", twist.solve_banded, None, None),
        ]
        for fn in (rigidity.verify_main_inequality, rigidity.outer_third_relation,
                   rigidity.outer_quarter_relation, rigidity.outer_counterexample,
                   rigidity.outer_rigidity_theorem, rigidity.gutkin_equality_check,
                   rigidity.constant_width_equality):
            targets.append(("rigidity.verify", fn, None, None))
        cli = sys.modules.get("billiard_beta.cli")
        if cli is not None:
            targets.append(("cli.main", cli.main, None, None))
        for name, fn, args_attr, result_attr in targets:
            self._replace_everywhere(fn, self.wrap(name, fn, args_attr, result_attr))

        post_init = geometry.SupportDomain.__post_init__
        geometry.SupportDomain.__post_init__ = self.wrap("geometry.domain_build", post_init)
        self._undo.append(lambda: setattr(geometry.SupportDomain, "__post_init__", post_init))

        make_system = models.make_system

        def traced_make_system(dom, tag):
            system = make_system(dom, tag)
            return dataclasses.replace(system, **{
                key: self.wrap(name, getattr(system, key), _pairs)
                for key, name in MODEL_FIELDS.items() if getattr(system, key) is not None
            })

        self._replace_everywhere(make_system, traced_make_system)

    def uninstall(self):
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans):
    """Per-layer counts and self times from a list of finished spans."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    sub = [0.0] * n
    direct_model_children = [0] * n
    model_support_calls = 0
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent < 0:
            continue
        pname = spans[parent][0]
        if name in SUBTRACTED.get(pname, ()):
            sub[parent] += dur[i]
        if name in MODEL_SPANS:
            direct_model_children[parent] += 1
        if name == "geometry.eval_support" and pname in MODEL_SPANS:
            model_support_calls += 1

    calls, self_s, attrs = {}, {}, {}
    outer_build = 0.0
    solve_model_calls = 0
    for i, (name, _, _, parent, _, attr) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - sub[i]
        attrs.setdefault(name, []).append(attr)
        if name == "geometry.domain_build" and not _has_ancestor(spans, parent, name):
            outer_build += dur[i]
        if name == "twist.minimize_periodic":
            solve_model_calls += direct_model_children[i]

    def c(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    model_calls = sum(c(name) for name in MODEL_SPANS)
    solves = c("twist.minimize_periodic")
    ladder = attrs.get("twist.ladder", [])
    return {
        "geometry.eval_support.calls": c("geometry.eval_support"),
        "geometry.eval_support.angles": int(sum(attrs.get("geometry.eval_support", []))),
        "geometry.eval_support.self_s": t("geometry.eval_support"),
        "geometry.domain_build_s": outer_build,
        "models.value.calls": c("models.value"),
        "models.grad.calls": c("models.grad"),
        "models.hess.calls": c("models.hess"),
        "models.pairs": int(sum(a for name in MODEL_SPANS for a in attrs.get(name, []))),
        "models.self_s": t(*MODEL_SPANS),
        "models.support_calls_per_model_call": _ratio(model_support_calls, model_calls),
        "twist.minimize_periodic.calls": solves,
        "twist.minimize_periodic.self_s": t("twist.minimize_periodic"),
        "twist.model_calls_per_solve": _ratio(solve_model_calls, solves),
        "twist.converged_frac": _ratio(sum(attrs.get("twist.minimize_periodic", [])), solves),
        "twist.solve_banded.calls": c("twist.solve_banded"),
        "twist.solve_banded.self_s": t("twist.solve_banded"),
        "twist.ladder.convergents": sum(a[0] for a in ladder),
        "twist.ladder.q_sum": sum(a[1] for a in ladder),
        "twist.minimize_with_fixed_start.calls": c("twist.minimize_with_fixed_start"),
        "twist.minimize_with_fixed_start.self_s": t("twist.minimize_with_fixed_start"),
        "rigidity.verify.calls": c("rigidity.verify"),
        "rigidity.self_s": t("rigidity.verify"),
        "cli.main.self_s": t("cli.main"),
    }


def _has_ancestor(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _ratio(num, den):
    return num / den if den else 0.0
