"""Command-line front end: beta evaluation, verification batches, sweeps, toy demo.

Exit codes: 0 all checks hold, 1 violation found, 2 usage error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from fractions import Fraction

import numpy as np

from . import geometry, models, rigidity, twist
from .geometry import SupportDomain, radon_check
from .models import MODEL_TAGS, config_vertices, make_system
from .rigidity import (
    EQ_TOL,
    NUM_TOL,
    constant_width_equality,
    gutkin_equality_check,
    outer_counterexample,
    outer_quarter_relation,
    outer_third_relation,
    verify_main_inequality,
)
from .twist import Q_MAX, RotationNumber, farey_fractions, minimize_rationals

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3

SEED_HELP = "accepted and ignored: no solve draws random numbers"

# The theorems that take --rot, and the rotation each reports without it.
_DEFAULT_ROT = {"T4.2": "1/3", "T4.3": "1/3", "T4.4": "1/3", "CE6.5": "1/4"}


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def parse_domain(spec: str) -> SupportDomain:
    if spec.endswith(".json"):
        return geometry.load_domain(spec)
    if ":" not in spec:
        raise ValueError(f"domain spec needs 'family:params' or a .json path: {spec!r}")
    family, _, params = spec.partition(":")
    family = {"constwidth": "constant_width", "squeezed": "squeezed_disk"}.get(family, family)
    try:
        values = [float(v) for v in params.split(",")]
    except ValueError:
        raise ValueError(f"domain parameters must be numbers: {spec!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"domain parameters must be finite: {spec!r}")
    if family == "gutkin":
        if len(values) != 2:
            raise ValueError("gutkin domain needs two parameters: gutkin:n,eps")
        return geometry.gutkin(_mode(values[0], spec), values[1])
    if family == "constant_width":
        if len(values) > 2:
            raise ValueError("constant width domain needs constwidth:eps[,n]")
        return geometry.constant_width(values[0], _mode(values[1], spec) if len(values) > 1 else 3)
    return geometry.make_named(family, *values)


def _mode(value: float, spec: str) -> int:
    if not value.is_integer():
        raise ValueError(f"domain mode must be an integer: {spec!r}")
    return int(value)


def _fields(flag: str, text: str) -> list[str]:
    """Comma-separated fields of an option value; an empty field is a usage error."""
    parts = text.split(",")
    if any(not part.strip() for part in parts):
        raise ValueError(f"{flag} has an empty comma field: {text!r}")
    return parts


def parse_rotations(text: str, tol: float) -> list[RotationNumber]:
    rotations = [RotationNumber.parse(part, tol) for part in _fields("--rot", text)]
    for rho in rotations:
        if not 0.0 < rho.value <= 0.5:
            raise ValueError(f"rotation number must lie in (0, 1/2]: {rho}")
    return rotations


def _farey_grid(qmax: int, include_half: bool) -> list[tuple[int, int]]:
    if qmax > Q_MAX:  # checked before the O(qmax^2) grid is built
        raise ValueError(f"--qmax {qmax} exceeds q_max = {Q_MAX}")
    grid = farey_fractions(qmax, include_half)
    if not grid:
        least = 2 if include_half else 3
        raise ValueError(f"--qmax {qmax} leaves the Farey grid empty; use --qmax >= {least}")
    return grid


def _tags(text: str) -> tuple[str, ...]:
    """Model tags of a --model value: 'all' or a comma list of known tags."""
    tags = MODEL_TAGS if text == "all" else tuple(_fields("--model", text))
    if unknown := [tag for tag in tags if tag not in MODEL_TAGS]:
        raise ValueError(f"unknown model tag: {unknown[0]!r}")
    return tags


def _write(path: str, text: str) -> None:
    """Write text to the file at path, or to stdout when path is '-'."""
    if path != "-":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _emit(lines: list[str], path: str) -> None:
    _write(path, "\n".join(lines) + "\n")


def cmd_beta(args) -> int:
    dom = parse_domain(args.domain)
    tags = _tags(args.model)
    rotations = parse_rotations(args.rot, args.tol)
    lines = ["model,rho,beta,residual,converged"] if args.format == "csv" else []
    orbit_lines = ["model,rho,k,phi,x,y"]
    ok = True
    for tag in tags:
        for rho, (beta, resid, conv, cfg) in zip(rotations, twist.beta_at(make_system(dom, tag), rotations)):
            ok = ok and conv
            if args.format == "json":
                row = {"model": tag, "rho": str(rho), "beta": beta, "residual": resid, "converged": conv}
                lines.append(json.dumps(row, sort_keys=True))
            else:
                lines.append(f"{tag},{rho},{_fmt(beta)},{_fmt(resid)},{int(conv)}")
            if args.orbit_out and cfg is not None:
                orbit_lines += [
                    f"{tag},{rho},{k},{_fmt(phi)},{_fmt(x)},{_fmt(y)}"
                    for k, phi, x, y in models.orbit_rows(dom, tag, cfg)
                ]
    if args.orbit_out:
        _emit(orbit_lines, args.orbit_out)
    _emit(lines, args.out)
    return EXIT_OK if ok else EXIT_NOCONV


def _verify_reports(args, dom) -> list:
    kw = dict(num_tol=args.num_tol, eq_tol=args.eq_tol)
    theorem = args.theorem
    if theorem in _DEFAULT_ROT:
        rotations = parse_rotations(_DEFAULT_ROT[theorem] if args.rot is None else args.rot, args.tol)
    if theorem in ("T4.2", "T4.3", "T4.4"):
        return [verify_main_inequality(dom, theorem, rho, **kw) for rho in rotations]
    if theorem == "C6.3":
        return [outer_third_relation(dom, **kw)]
    if theorem == "P6.9":
        return [outer_quarter_relation(dom, **kw)]
    if theorem == "CE6.5":
        if any(not r.is_rational for r in rotations):
            raise ValueError("CE6.5 is stated for the rationals 1/3 and 1/4")
        return [outer_counterexample(dom, Fraction(r.p, r.q), **kw) for r in rotations]
    if theorem in ("T6.4", "T6.10"):
        rho = Fraction(1, 3) if theorem == "T6.4" else Fraction(1, 4)
        return [rigidity.outer_rigidity_theorem(dom, rho, **kw)]
    if theorem == "gutkin":
        return [gutkin_equality_check(args.gutkin_n, args.gutkin_eps, beta_tol=args.tol, **kw)]
    if theorem == "constwidth":
        return [constant_width_equality(dom, **kw)]
    raise ValueError(f"unknown theorem tag: {theorem!r}")


def cmd_verify(args) -> int:
    if args.rot is not None and args.theorem not in _DEFAULT_ROT:
        raise ValueError(f"--rot does not apply to theorem {args.theorem}")
    if args.domain is None and args.theorem != "gutkin":
        raise ValueError(f"--theorem {args.theorem} needs --domain")
    dom = None if args.domain is None else parse_domain(args.domain)
    if args.theorem == "radon":
        report = radon_check(dom, tol=args.eq_tol)
        payload = {
            "theorem": "radon",
            "is_centrally_symmetric": report.is_centrally_symmetric,
            "max_defect": None if math.isnan(report.max_defect) else report.max_defect,
            "holds": report.is_radon,
        }
        _emit([json.dumps(payload, sort_keys=True)], args.out)
        return EXIT_OK if report.is_radon else EXIT_VIOLATION
    reports = _verify_reports(args, dom)
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports]
    _emit(lines, args.out)
    if any(not r.converged for r in reports):
        return EXIT_NOCONV
    return EXIT_OK if all(r.holds for r in reports) else EXIT_VIOLATION


SVG_COLORS = {"birkhoff": "#1f77b4", "symplectic": "#d62728", "outer": "#2ca02c", "fourth": "#9467bd"}


def _svg_polyline(points, color, width=1.5):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{coords}"/>'


def render_sweep_svg(curves: dict, outline, orbit) -> str:
    """Minimal hand-rolled SVG: beta curves left, domain + sample orbit right."""
    w, h, pad = 900, 420, 45.0
    half = 560.0
    values = [b for pts in curves.values() for _, b in pts]
    rhos = [r for pts in curves.values() for r, _ in pts]
    lo, hi = min(values), max(values)
    rlo, rhi = min(rhos), max(rhos)
    span_y = hi - lo or 1.0
    span_r = rhi - rlo or 1.0

    def to_xy(r, b):
        return (
            pad + (r - rlo) / span_r * (half - 2 * pad),
            h - pad - (b - lo) / span_y * (h - 2 * pad),
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        _svg_polyline([(pad, h - pad), (half - pad, h - pad)], "#000", 1.0),
        _svg_polyline([(pad, pad), (pad, h - pad)], "#000", 1.0),
        f'<text x="{half / 2:.0f}" y="{h - 10}" font-size="13" text-anchor="middle">rotation number</text>',
        f'<text x="15" y="{pad - 15}" font-size="13">beta</text>',
    ]
    for tag, pts in curves.items():
        parts.append(_svg_polyline([to_xy(r, b) for r, b in pts], SVG_COLORS.get(tag, "#333")))
        r0, b0 = pts[-1]
        x0, y0 = to_xy(r0, b0)
        parts.append(f'<text x="{x0 + 4:.0f}" y="{y0:.0f}" font-size="12">{tag}</text>')

    geom = np.concatenate([outline, orbit]) if len(orbit) else outline
    gmin, gmax = geom.min(axis=0), geom.max(axis=0)
    scale = (min(w - half, h) - 2 * pad) / max(gmax - gmin)

    def to_plane(pt):
        return (half + pad + (pt[0] - gmin[0]) * scale, h - pad - (pt[1] - gmin[1]) * scale)

    parts.append(_svg_polyline([to_plane(p) for p in np.vstack([outline, outline[:1]])], "#000", 1.0))
    if len(orbit):
        parts.append(_svg_polyline([to_plane(p) for p in np.vstack([orbit, orbit[:1]])], "#d62728", 1.0))
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_sweep(args) -> int:
    dom = parse_domain(args.domain)
    grid = _farey_grid(args.qmax, include_half=False)
    tags = _tags(args.model)
    lines = ["model,p,q,rho,beta,residual,converged"]
    curves = {tag: [] for tag in tags}
    orbit, ok = np.zeros((0, 2)), True
    for tag in tags:
        for (p, q), res in zip(grid, minimize_rationals(make_system(dom, tag), grid)):
            ok = ok and res.converged
            lines.append(
                f"{tag},{p},{q},{_fmt(p / q)},{_fmt(res.beta)},{_fmt(res.grad_residual)},{int(res.converged)}"
            )
            curves[tag].append((p / q, res.beta))
            if args.svg and tag == tags[0] and (p, q) == (1, 3):
                orbit = config_vertices(dom, tag, res.config)
    _emit(lines, args.out)
    if args.svg:
        outline = geometry.boundary_xy(dom, np.linspace(0, 2 * math.pi, 256, endpoint=False))
        _write(args.svg, render_sweep_svg(curves, outline, orbit))
    return EXIT_OK if ok else EXIT_NOCONV


def cmd_toy(args) -> int:
    grid = _farey_grid(args.qmax, include_half=True)
    cos_coeffs = [float(v) for v in _fields("--vcos", args.vcos)] if args.vcos else []
    sin_coeffs = [float(v) for v in _fields("--vsin", args.vsin)] if args.vsin else []
    sys = twist.make_toy_system(cos_coeffs, sin_coeffs)
    lines = ["rho,beta_V,beta_0,gap"]
    worst, ok = 0.0, True
    for (p, q), res in zip(grid, minimize_rationals(sys, grid)):
        ok = ok and res.converged
        beta_0 = 0.5 * (p / q) ** 2
        gap = beta_0 - res.beta
        worst = min(worst, gap)
        lines.append(f"{p}/{q},{_fmt(res.beta)},{_fmt(beta_0)},{_fmt(gap)}")
    _emit(lines, args.out)
    if not ok:
        return EXIT_NOCONV
    return EXIT_OK if worst >= -1e-8 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiard-beta",
        description="Mather beta-function computations for four planar billiard models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, domain_required=True):
        p.add_argument("--domain", required=domain_required, help="family:params (disk:1, ellipse:2,1, "
                       "gutkin:4,0.05, constwidth:0.05,3, squeezed:0.1) or a .json path")
        p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_beta = sub.add_parser("beta", help="compute beta for (domain, model, rotation) triples")
    common(p_beta)
    p_beta.add_argument("--tol", type=float, default=1e-6, help="irrational beta tolerance")
    p_beta.add_argument("--model", default="all", help="comma list or 'all'")
    p_beta.add_argument("--rot", required=True, help="comma list of p/q or decimals")
    p_beta.add_argument("--format", choices=("json", "csv"), default="csv")
    p_beta.add_argument("--orbit-out", default=None,
                        help="also dump minimizing orbits as CSV rows (k, phi, x, y); '-' for stdout")
    p_beta.set_defaults(func=cmd_beta)

    p_verify = sub.add_parser(
        "verify", help="run a rigidity verifier",
        description="--theorem gutkin needs no --domain: it builds its table from --gutkin-n and --gutkin-eps",
    )
    common(p_verify, domain_required=False)
    p_verify.add_argument("--tol", type=float, default=1e-6, help="irrational beta tolerance")
    p_verify.add_argument(
        "--theorem",
        required=True,
        choices=("T4.2", "T4.3", "T4.4", "C6.3", "P6.9", "CE6.5", "T6.4", "T6.10",
                 "gutkin", "constwidth", "radon"),
    )
    p_verify.add_argument("--rot", default=None, help="rotations for T4.x / CE6.5")
    p_verify.add_argument("--num-tol", type=float, default=NUM_TOL)
    p_verify.add_argument("--eq-tol", type=float, default=EQ_TOL)
    p_verify.add_argument("--gutkin-n", type=int, default=4)
    p_verify.add_argument("--gutkin-eps", type=float, default=0.02)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="beta(rho) curves over a Farey grid")
    common(p_sweep)
    p_sweep.add_argument("--model", default="all")
    p_sweep.add_argument("--qmax", type=int, default=10)
    p_sweep.add_argument("--svg", default=None, help="optional SVG plot path, '-' for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_toy = sub.add_parser("toy", help="perturbed integrable system: beta_V vs beta_0 table")
    p_toy.add_argument("--vcos", default="", help="comma coefficients of cos(2 pi k q)")
    p_toy.add_argument("--vsin", default="", help="comma coefficients of sin(2 pi k q)")
    p_toy.add_argument("--qmax", type=int, default=10)
    p_toy.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p_toy.add_argument("--out", default="-")
    p_toy.set_defaults(func=cmd_toy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if "tol" in args and not 0.0 < args.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {args.tol!r}")
        for name in ("num_tol", "eq_tol"):
            value = getattr(args, name, 0.0)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"--{name.replace('_', '-')} must be finite and >= 0, got {value!r}")
        for name in ("out", "orbit_out", "svg"):  # every output path, before any solve
            path = getattr(args, name, None)
            if path in (None, "-"):
                continue
            if os.path.isdir(path or ".") or not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"--{name.replace('_', '-')} must be a file in an existing directory, got {path!r}")
        return args.func(args)
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    raise SystemExit(main())
