import json
import math

import pytest

from billiard_beta.cli import main, parse_domain, parse_rotations
from billiard_beta.geometry import save_domain, squeezed_disk


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        payload = json.loads(out.strip())
        assert payload["beta"] == pytest.approx(-0.5, abs=1e-9)
        assert payload["converged"]


class TestVerifyCommand:
    def test_t43_ellipse_equality(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "T4.3", "--domain", "ellipse:2,1", "--rot", "1/3")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["equality"] and payload["holds"]

    def test_counterexample_squeezed(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "CE6.5", "--domain", "squeezed:0.1")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["direction"] == "counterexample"

    def test_c63_disk(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "C6.3", "--domain", "disk:1")
        assert code == 0
        assert json.loads(out.strip())["equality"]

    def test_gutkin(self, capsys):
        code, out = run(
            capsys, "verify", "--theorem", "gutkin", "--domain", "disk:1",
            "--gutkin-n", "4", "--gutkin-eps", "0.02",
        )
        assert code == 0
        assert json.loads(out.strip())["equality"]

    def test_constwidth(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "constwidth", "--domain", "constwidth:0.05,3")
        assert code == 0

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
            (["beta", "--domain", "disk:1", "--rot", "1/3", "--starts", "0"], "starts must be >= 1"),
            (["beta", "--domain", "disk:1", "--rot", "1/3", "--starts", "-2"], "starts must be >= 1"),
            (["sweep", "--domain", "disk:1", "--qmax", "4", "--starts", "0"], "starts must be >= 1"),
            (["toy", "--qmax", "4", "--starts", "0"], "starts must be >= 1"),
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
        ],
    )
    def test_bad_input_fails_fast(self, capsys, tmp_path, argv, message):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not list(tmp_path.iterdir())
