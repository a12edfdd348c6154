import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from billiard_beta import cli, twist
from billiard_beta.cli import main, parse_domain, parse_rotations
from billiard_beta.geometry import save_domain, squeezed_disk
from billiard_beta.models import MODEL_TAGS, polygon_area, polygon_perimeter
from billiard_beta.rigidity import verify_main_inequality


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def json_lines(out):
    """Each stdout line parsed as strict JSON: NaN, Infinity and -Infinity raise."""
    return [json.loads(line, parse_constant=reject_constant) for line in out.splitlines()]


class TestImports:
    def test_cli_import_leaves_out_scipy(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, billiard_beta.cli; print('scipy' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


class TestParsing:
    def test_domain_specs(self):
        assert parse_domain("disk:1").a0 == 1.0
        assert parse_domain("gutkin:4,0.05").an[3] == 0.05
        assert parse_domain("constwidth:0.05,3").an[2] == 0.05
        assert abs(parse_domain("squeezed:0.1").a0 - squeezed_disk(0.1).a0) < 1e-12

    def test_domain_from_json(self, tmp_path):
        path = tmp_path / "dom.json"
        save_domain(parse_domain("ellipse:2,1"), str(path))
        dom = parse_domain(str(path))
        assert dom.n_modes == 64

    def test_rotations(self):
        rots = parse_rotations("1/3,0.25", 1e-6)
        assert (rots[0].p, rots[0].q) == (1, 3)
        assert (rots[1].p, rots[1].q) == (1, 4)

    def test_rotations_out_of_range(self):
        with pytest.raises(ValueError, match="rotation number"):
            parse_rotations("3/5", 1e-6)

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            parse_domain("disk")


class TestBetaCommand:
    def test_disk_values(self, capsys):
        code, out = run(
            capsys, "beta", "--domain", "disk:1", "--model", "birkhoff,outer", "--rot", "1/3,1/4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "model,rho,beta,residual,converged"
        table = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
        assert table[("birkhoff", "1/3")] == pytest.approx(-1.7320508, abs=1e-7)
        assert table[("outer", "1/4")] == pytest.approx(1.0, abs=1e-8)

    def test_json_format(self, capsys):
        code, out = run(
            capsys, "beta", "--domain", "disk:1", "--model", "symplectic", "--rot", "1/4",
            "--format", "json",
        )
        assert code == 0
        [payload] = json_lines(out)
        assert payload["beta"] == pytest.approx(-0.5, abs=1e-9)
        assert payload["converged"]

    def test_squeezed_irrational_bracket_converges(self, capsys):
        # The outer 37/117 seed from 6/19 lands 2.6e-5 above the scratch
        # minimum; keeping it would invert this bracket and exit 3.
        code, out = run(capsys, "beta", "--domain", "squeezed:0.1,0.3", "--rot", "0.31622776601683794")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4 and all(row.endswith(",1") for row in rows)

    def test_negative_over_negative_rotation(self, capsys):
        code, out = run(capsys, "beta", "--domain", "disk:1", "--model", "birkhoff", "--rot=-1/-3")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("birkhoff,1/3,-1.732050808,")

    def test_orbit_out_polygons_carry_the_action(self, capsys, tmp_path):
        # Each 1/3 orbit polygon has perimeter (birkhoff, fourth) or area
        # (symplectic, outer) 3 |beta|; the irrational rotation has no orbit.
        # The check reads the action, not which symmetric minimizer is printed.
        path = tmp_path / "orbit.csv"
        code, out = run(
            capsys, "beta", "--domain", "ellipse:2,1", "--model", "all",
            "--rot", "1/3,0.3162277660168379", "--orbit-out", str(path),
        )
        assert code == 0
        betas = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in out.strip().splitlines()[1:]}
        lines = path.read_text().splitlines()
        assert lines[0] == "model,rho,k,phi,x,y"
        rows = [line.split(",") for line in lines[1:]]
        assert {row[1] for row in rows} == {"1/3"}
        for tag in MODEL_TAGS:
            verts = np.array([[float(v) for v in row[4:]] for row in rows if row[0] == tag])
            assert [int(row[2]) for row in rows if row[0] == tag] == [0, 1, 2]
            size = polygon_perimeter(verts) if tag in ("birkhoff", "fourth") else abs(polygon_area(verts))
            assert size == pytest.approx(3 * abs(betas[(tag, "1/3")]), abs=1e-7)

    def test_orbit_out_dash_is_stdout(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out = run(
            capsys, "beta", "--domain", "disk:1", "--model", "birkhoff", "--rot", "1/3", "--orbit-out", "-",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model,rho,k,phi,x,y"
        assert [line.split(",")[:3] for line in lines[1:4]] == [["birkhoff", "1/3", str(k)] for k in range(3)]
        assert lines[4] == "model,rho,beta,residual,converged"
        assert len(lines) == 6 and lines[5].startswith("birkhoff,1/3,")
        assert not list(tmp_path.iterdir())


class TestVerifyCommand:
    def test_t43_ellipse_equality(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "T4.3", "--domain", "ellipse:2,1", "--rot", "1/3")
        assert code == 0
        [payload] = json_lines(out)
        assert payload["equality"] and payload["holds"]

    def test_counterexample_squeezed(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "CE6.5", "--domain", "squeezed:0.1")
        assert code == 0
        [payload] = json_lines(out)
        assert payload["direction"] == "counterexample"

    def test_c63_disk(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "C6.3", "--domain", "disk:1")
        assert code == 0
        [payload] = json_lines(out)
        assert payload["equality"]

    def test_gutkin(self, capsys):
        code, out = run(
            capsys, "verify", "--theorem", "gutkin", "--domain", "disk:1",
            "--gutkin-n", "4", "--gutkin-eps", "0.02",
        )
        assert code == 0
        [payload] = json_lines(out)
        assert payload["equality"]

    def test_gutkin_needs_no_domain(self, capsys):
        outputs = [run(capsys, "verify", "--theorem", "gutkin", *extra) for extra in ([], ["--domain", "disk:1"])]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_gutkin_tol_reaches_bracket(self, capsys):
        argv = ["verify", "--theorem", "gutkin", "--domain", "disk:1"]
        brackets = []
        for extra in ([], ["--tol", "1e-3"]):
            code, out = run(capsys, *argv, *extra)
            assert code == 0
            [payload] = json_lines(out)
            brackets.append(payload["bracket"])
        lo, hi = brackets[1]
        assert hi - lo < 1e-3
        assert brackets[1] != brackets[0]

    def test_gutkin_eq_tol_reaches_report(self, capsys):
        # The default bracket's gap is about 5.9e-8: equality at the default
        # --eq-tol, not at 1e-12.
        argv = ["verify", "--theorem", "gutkin", "--domain", "disk:1"]
        for extra, equality in (([], True), (["--eq-tol", "1e-12"], False)):
            code, out = run(capsys, *argv, *extra)
            assert code == 0
            [payload] = json_lines(out)
            assert payload["equality"] is equality

    def test_constwidth(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "constwidth", "--domain", "constwidth:0.05,3")
        assert code == 0

    def test_t610_disk(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "T6.10", "--domain", "disk:1")
        assert code == 0
        [payload] = json_lines(out)
        assert payload["theorem"] == "T6.10" and payload["rho"] == 0.25
        assert payload["hypothesis_certified"] and payload["equality"]

    def test_p69_disk_equality(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "P6.9", "--domain", "disk:1")
        assert code == 0
        [payload] = json_lines(out)
        assert payload["theorem"] == "P6.9" and payload["equality"] and payload["converged"]
        assert payload["beta_outer"] == pytest.approx(1.0, abs=1e-9)
        assert payload["beta_symplectic"] == pytest.approx(-0.5, abs=1e-9)

    def test_unconverged_report_exits_3(self, capsys, monkeypatch):
        def unconverged(*args, **kwargs):
            return dataclasses.replace(verify_main_inequality(*args, **kwargs), converged=False)

        monkeypatch.setattr(cli, "verify_main_inequality", unconverged)
        code, out = run(capsys, "verify", "--theorem", "T4.3", "--domain", "ellipse:2,1")
        assert code == 3
        [payload] = json_lines(out)
        assert payload["holds"] and not payload["converged"]

    def test_radon_violation_exit(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "radon", "--domain", "gutkin:3,0.05")
        assert code == 1

    def test_radon_ellipse(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "radon", "--domain", "ellipse:2,1")
        assert code == 0


class TestSweepCommand:
    def test_disk_matches_closed_forms(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        code, _ = run(
            capsys, "sweep", "--domain", "disk:1", "--qmax", "8",
            "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        grid_size = sum(
            1
            for q in range(2, 9)
            for p in range(1, q)
            if math.gcd(p, q) == 1 and p / q < 0.5
        )
        assert len(lines) == 1 + 4 * grid_size
        closed = {
            "birkhoff": lambda r: -2 * math.sin(math.pi * r),
            "symplectic": lambda r: -0.5 * math.sin(2 * math.pi * r),
            "outer": lambda r: math.tan(math.pi * r),
            "fourth": lambda r: 2 * math.tan(math.pi * r),
        }
        for line in lines[1:]:
            tag, p, q, rho, beta, _, conv = line.split(",")
            assert conv == "1"
            assert abs(float(beta) - closed[tag](int(p) / int(q))) < 1e-8
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_swept_curves_convex(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, _ = run(capsys, "sweep", "--domain", "gutkin:4,0.05", "--qmax", "7",
                      "--model", "birkhoff", "--out", str(csv_path))
        assert code == 0
        rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
        pts = sorted((float(r[3]), float(r[4])) for r in rows)
        for (r1, b1), (r2, b2), (r3, b3) in zip(pts, pts[1:], pts[2:]):
            assert b2 <= b1 + (b3 - b1) * (r2 - r1) / (r3 - r1) + 1e-8


class TestNewtonCalls:
    """One Newton array per denominator (sweep) and per pinned spread (T6.4)."""

    @pytest.mark.parametrize("argv, pins", [
        (["sweep", "--domain", "gutkin:4,0.05", "--model", "all", "--qmax", "11"], [False] * 36),
        (["verify", "--theorem", "T6.4", "--domain", "ellipse:2,1"], [True, False]),
    ])
    def test_newton_phase_calls(self, capsys, monkeypatch, argv, pins):
        calls = []
        newton = twist._newton_phase

        def counted(sys, x, p, pin=False):
            calls.append(pin)
            return newton(sys, x, p, pin)

        monkeypatch.setattr(twist, "_newton_phase", counted)
        assert main(argv) == 0
        assert calls == pins


class TestToyCommand:
    def test_zero_potential_exact(self, capsys):
        code, out = run(capsys, "toy", "--qmax", "6")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            rho_s, beta_v, beta_0, gap = line.split(",")
            p, q = rho_s.split("/")
            assert abs(float(beta_v) - 0.5 * (int(p) / int(q)) ** 2) < 1e-10
            assert abs(float(gap)) < 1e-10

    def test_potential_gaps_nonnegative(self, capsys):
        code, out = run(capsys, "toy", "--vcos", "0.00795775", "--qmax", "6")
        assert code == 0
        gaps = [float(l.split(",")[3]) for l in out.strip().splitlines()[1:]]
        assert min(gaps) >= 0.0 and max(gaps) > 1e-6

    def test_unconverged_solve_exits_3(self, capsys):
        # A strong potential leaves 1/10 and 1/9 unconverged; the table is still written.
        code, out = run(capsys, "toy", "--vcos", "5", "--qmax", "10")
        assert code == 3
        assert out.startswith("rho,beta_V,beta_0,gap\n") and "1/10," in out


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _ = run(
                capsys, "beta", "--domain", "gutkin:4,0.05", "--model", "all",
                "--rot", "1/3,2/5", "--seed", "0", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_is_ignored(self, capsys):
        # --seed is accepted and changes nothing: no solve draws random numbers.
        outs = []
        for seed in ("0", "7"):
            code, out = run(capsys, "beta", "--domain", "gutkin:4,0.05", "--rot", "1/3,2/5", "--seed", seed)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_bad_domain_spec(self, capsys):
        assert main(["beta", "--domain", "disk", "--rot", "1/3"]) == 2
        capsys.readouterr()

    def test_nonconvex_domain(self, capsys):
        assert main(["beta", "--domain", "gutkin:4,0.2", "--rot", "1/3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["beta", "--domain", "disk:1", "--rot", "1/3", "--starts", "0"], "unrecognized arguments: --starts"),
            (["beta", "--domain", "disk:1", "--rot", "1/3", "--starts", "-2"], "unrecognized arguments: --starts"),
            (["sweep", "--domain", "disk:1", "--qmax", "4", "--starts", "0"], "unrecognized arguments: --starts"),
            (["toy", "--qmax", "4", "--starts", "0"], "unrecognized arguments: --starts"),
            (["beta", "--domain", "gutkin:2.7,0.1", "--rot", "1/3"], "mode must be an integer"),
            (["beta", "--domain", "constwidth:0.05,3.5", "--rot", "1/3"], "mode must be an integer"),
            (["sweep", "--domain", "disk:1", "--qmax", "1", "--svg", "{tmp}/F.svg"], "Farey grid empty"),
            (["toy", "--qmax", "0"], "Farey grid empty"),
            (["beta", "--domain", "disk:1", "--model", "outer", "--rot", "0.4999"], "q_max = 2000"),
            (["verify", "--theorem", "T4.3", "--domain", "disk:1", "--rot", "1/2"],
             "gap violation: rho = 1/2 is outside the admissible range 0 < rho < 0.5"),
            (["verify", "--theorem", "C6.3", "--domain", "disk:1", "--rot", "1/3"],
             "--rot does not apply to theorem C6.3"),
            (["verify", "--theorem", "radon", "--domain", "disk:1", "--rot", "1/4", "--out", "{tmp}/r.json"],
             "--rot does not apply to theorem radon"),
            (["beta", "--domain", "disk:1", "--rot", "0.3162277660168379", "--tol", "0"], "tol must be positive"),
            (["beta", "--domain", "disk:1", "--rot", "0.3162277660168379", "--tol", "-1"], "tol must be positive"),
            (["beta", "--domain", "disk:1", "--rot", "0.3162277660168379", "--tol", "nan"], "tol must be positive"),
            (["beta", "--domain", "disk:1", "--rot", "0.3162277660168379", "--tol", "inf"], "tol must be positive"),
            (["verify", "--theorem", "radon", "--domain", "disk:1", "--starts", "0"], "unrecognized arguments: --starts"),
            (["verify", "--theorem", "gutkin", "--domain", "disk:1", "--tol", "0"], "tol must be positive"),
            (["verify", "--theorem", "gutkin", "--domain", "disk:1", "--tol", "-1"], "tol must be positive"),
            (["beta", "--domain", "disk:1", "--rot", "1/3", "--tol", "-5"], "tol must be positive"),
            (["sweep", "--domain", "disk:1", "--qmax", "3", "--tol", "1e-6"], "unrecognized arguments: --tol"),
            (["beta", "--domain", "disk:nan", "--rot", "1/3"], "domain parameters must be finite: 'disk:nan'"),
            (["beta", "--domain", "disk:inf", "--rot", "1/3"], "domain parameters must be finite: 'disk:inf'"),
            (["beta", "--domain", "ellipse:nan,1", "--rot", "1/3"], "domain parameters must be finite"),
            (["beta", "--domain", "gutkin:4,nan", "--rot", "1/3"], "domain parameters must be finite"),
            (["verify", "--theorem", "gutkin", "--domain", "disk:1", "--gutkin-eps", "nan"],
             "support coefficients a0, an, bn must be finite"),
            (["verify", "--theorem", "T4.2", "--domain", "disk:nan"], "domain parameters must be finite"),
            (["verify", "--theorem", "radon", "--domain", "disk:nan"], "domain parameters must be finite"),
            (["beta", "--domain", "disk:1", "--rot", "inf"], "rotation number 'inf' is not finite"),
            (["beta", "--domain", "disk:1", "--rot", "1/0"], "rotation number '1/0' has a zero denominator"),
            (["verify", "--theorem", "T4.2", "--domain", "ellipse:2,1", "--num-tol", "nan"],
             "--num-tol must be finite and >= 0"),
            (["verify", "--theorem", "T4.2", "--domain", "ellipse:2,1", "--num-tol", "-1"],
             "--num-tol must be finite and >= 0"),
            (["verify", "--theorem", "radon", "--domain", "ellipse:2,1", "--eq-tol", "nan"],
             "--eq-tol must be finite and >= 0"),
            (["verify", "--theorem", "gutkin", "--domain", "disk:1", "--eq-tol", "inf"],
             "--eq-tol must be finite and >= 0"),
            (["beta", "--domain", "disk:1", "--rot", ","], "--rot has an empty comma field: ','"),
            (["beta", "--domain", "disk:1", "--rot", "1/3,,1/4"],
             "--rot has an empty comma field: '1/3,,1/4'"),
            (["beta", "--domain", "disk:1", "--rot", ""], "--rot has an empty comma field: ''"),
            (["verify", "--theorem", "T4.2", "--domain", "disk:1", "--rot", ","],
             "--rot has an empty comma field: ','"),
            (["verify", "--theorem", "CE6.5", "--domain", "disk:1", "--rot", ""], "--rot has an empty comma field: ''"),
            (["toy", "--vcos", "0.1,,0.2", "--qmax", "4"], "--vcos has an empty comma field: '0.1,,0.2'"),
            (["toy", "--vsin", "0.1,", "--qmax", "4"], "--vsin has an empty comma field: '0.1,'"),
            (["beta", "--domain", "gutkin:4", "--rot", "1/3"], "gutkin domain needs two parameters"),
            (["beta", "--domain", "constwidth:0.05,3,1", "--rot", "1/3"], "constwidth:eps[,n]"),
            (["verify", "--theorem", "CE6.5", "--domain", "disk:1", "--rot", "0.3162277660168379"],
             "CE6.5 is stated for the rationals 1/3 and 1/4"),
            (["sweep", "--domain", "disk:1", "--qmax", "3", "--model", "birkhoff", "--svg", "{tmp}/nodir/x.svg"],
             "--svg must be a file in an existing directory"),
            (["beta", "--domain", "disk:1", "--rot", "1/3", "--orbit-out", "{tmp}/o.csv", "--out", "{tmp}/nodir/x.csv"],
             "--out must be a file in an existing directory"),
            (["beta", "--domain", "disk:1", "--rot", "1/3", "--out", "{tmp}"],
             "--out must be a file in an existing directory"),
            (["beta", "--domain", "ellipse:-2,1", "--rot", "1/3"], "ellipse semi-axes must be positive"),
            (["beta", "--domain", "squeezed:0.1,-0.3", "--rot", "1/3"], "squeeze width sigma must be positive"),
            (["verify", "--theorem", "T4.2"], "--theorem T4.2 needs --domain"),
            (["beta", "--domain", "disk:1", "--model", "birkhoff,", "--rot", "1/3"],
             "--model has an empty comma field: 'birkhoff,'"),
            (["toy", "--qmax", "3", "--vcos", "nan"], "toy potential coefficients must be finite"),
            (["toy", "--qmax", "3", "--vsin", "inf"], "toy potential coefficients must be finite"),
            (["beta", "--domain", "disk:1", "--rot", "0.4999912345"], "q_max = 2000"),
            (["beta", "--domain", "disk:1", "--rot", "0.00033312345678"], "q_max = 2000"),
            (["verify", "--theorem", "T4.2", "--domain", "disk:1", "--rot", "0.4999912345"], "q_max = 2000"),
        ],
    )
    def test_bad_input_fails_fast(self, capsys, tmp_path, argv, message):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [["toy"], ["sweep", "--domain", "disk:1", "--model", "birkhoff"]])
    def test_qmax_above_cap_fails_before_the_grid(self, capsys, monkeypatch, command):
        def no_grid(*args, **kwargs):
            raise AssertionError("built the Farey grid before --qmax was checked")

        monkeypatch.setattr(cli, "farey_fractions", no_grid)
        assert main([*command, "--qmax", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--qmax 100000 exceeds q_max = {twist.Q_MAX}" in captured.err

    @pytest.mark.parametrize("command", [["beta", "--rot", "1/3"], ["sweep", "--qmax", "3"]])
    def test_unknown_model_fails_before_any_solve(self, capsys, monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the model tags were checked")

        monkeypatch.setattr(twist, "_newton_phase", no_solve)
        assert main([*command, "--domain", "disk:1", "--model", "birkhoff,foo"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown model tag: 'foo'" in captured.err

    @pytest.mark.parametrize(
        "text",
        ['[1, 2]', '{"modes": []}', '{"a0": 1, "modes": [[0.1]]}', '{"a0": 1, "modes": [[0.01, 0, 5]]}',
         '{"a0": "1"}', '{"a0": 1, "modes": [[0.01, true]]}', '{"a0": 1, "mode": [[0.1, 0]]}'],
    )
    def test_malformed_domain_file(self, capsys, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("domain") / "dom.json"
        path.write_text(text)
        assert main(["beta", "--domain", str(path), "--rot", "1/3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain file must be a JSON object with a numeric a0 and modes as [a_n, b_n] pairs" in captured.err
