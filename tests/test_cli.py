"""Config round-trip, subcommands and artifact formats."""
import numpy as np
import pytest

from mptop.cli import (
    ConfigError,
    build_problem,
    cmd_gain,
    cmd_run,
    cmd_verify,
    main,
    parse_config,
    write_config,
)

P1_SMALL = """
[problem]
kind = problem1
nelx = 8
nely = 8
m = 3
vbar = 0.35
seed = 3
[solver]
pipeline = both
[optimizer]
max_iters = 4
tol = 0.0
[output]
dir = {out}
"""

P2_SMALL = """
[problem]
kind = problem2
nelx = 8
nely = 8
inputs = 2
jbar = 0.5,2.0;1.0,-1.0
[solver]
pipeline = condensed
[optimizer]
max_iters = 2
tol = 0.0
[output]
dir = {out}
"""


class TestConfig:
    def test_round_trip(self):
        text = P1_SMALL.format(out="somewhere")
        cfg = parse_config(text)
        assert parse_config(write_config(cfg)) == cfg
        assert write_config(parse_config(write_config(cfg))) == write_config(cfg)

    def test_defaults_and_overrides(self):
        cfg = parse_config("[problem]\nkind = problem2\n")
        assert cfg.kind == "problem2"
        assert cfg.jbar == ((0.5, 2.0), (1.0, -1.0))

    def test_matrix_literal(self):
        cfg = parse_config("[problem]\njbar = 1,2;3,-4\n")
        assert cfg.jbar == ((1.0, 2.0), (3.0, -4.0))
        with pytest.raises(ConfigError):
            parse_config("[problem]\njbar = 1,2;3\n")

    def test_parse_errors_name_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[problem]\nnelx 8\n")
        assert "line 2" in str(err.value)
        with pytest.raises(ConfigError) as err:
            parse_config("[problem]\nbogus = 1\n")
        assert "bogus" in str(err.value)
        with pytest.raises(ConfigError):
            parse_config("[problem]\nkind = problem9\n")
        with pytest.raises(ConfigError) as err:
            parse_config("[gain]\nm_count = 3\nmeasure = ture\n")
        assert "line 3" in str(err.value) and "ture" in str(err.value)
        with pytest.raises(ConfigError) as err:
            parse_config("[solver]\nbackend = direct\n")
        assert "line 2: unknown key [solver] backend" in str(err.value)

    def test_build_problem_dispatch(self):
        p1 = build_problem(parse_config("[problem]\nkind = problem1\nnelx = 5"
                                        "\nnely = 5\nm = 3\n"))
        assert p1.kind == "problem1"
        p2 = build_problem(parse_config("[problem]\nkind = problem2\nnelx = 6"
                                        "\nnely = 6\n"))
        assert p2.kind == "problem2"


class TestRun:
    def test_artifacts_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            cfg = parse_config(P1_SMALL.format(out=out))
            assert cmd_run(cfg) == 0
        names = ["iterations_condensed.tsv", "iterations_elementary.tsv",
                 "density_condensed.pgm", "density_condensed.csv",
                 "summary.txt"]
        for name in names:
            assert (out1 / name).exists(), name
        # byte-identical logs and densities across reruns
        for name in names:
            if name == "summary.txt":
                continue  # carries wall time
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_pipeline_agreement_in_log(self, tmp_path):
        cfg = parse_config(P1_SMALL.format(out=tmp_path))
        cmd_run(cfg)
        cond = (tmp_path / "iterations_condensed.tsv").read_text().splitlines()
        elem = (tmp_path / "iterations_elementary.tsv").read_text().splitlines()
        assert cond[0].startswith("iteration\tg0\tg1")
        for lc, le in zip(cond[1:], elem[1:]):
            g0c = float(lc.split("\t")[1])
            g0e = float(le.split("\t")[1])
            assert abs(g0c - g0e) <= 1e-6 * abs(g0e)

    def test_zero_iterations_writes_initial_design(self, tmp_path):
        text = P1_SMALL.format(out=tmp_path).replace(
            "max_iters = 4", "max_iters = 0")
        cmd_run(parse_config(text))
        log = (tmp_path / "iterations_condensed.tsv").read_text().splitlines()
        assert len(log) == 1  # header only
        csv = np.loadtxt(tmp_path / "density_condensed.csv", delimiter=",")
        np.testing.assert_allclose(csv, 0.35, atol=1e-12)

    def test_pgm_format_and_conventions(self, tmp_path):
        cfg = parse_config(P2_SMALL.format(out=tmp_path))
        cmd_run(cfg)
        lines = (tmp_path / "density_condensed.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "8 8"
        assert lines[2] == "255"
        rows = [r.split() for r in lines[3:]]
        assert len(rows) == 8 and all(len(r) == 8 for r in rows)
        vals = np.array(rows, dtype=int)
        assert vals.min() >= 0 and vals.max() <= 255
        # solid renders black for the mechanism problem
        csv = np.loadtxt(tmp_path / "density_condensed.csv", delimiter=",")
        np.testing.assert_array_equal(
            vals, np.clip(np.round(255 * (1 - csv)), 0, 255).astype(int))

    def test_pgm_conduction_renders_white(self, tmp_path):
        # value 255 means full material; the conduction problem maps material
        # (conductive) straight to brightness
        text = P1_SMALL.format(out=tmp_path).replace("max_iters = 4",
                                                     "max_iters = 0")
        cmd_run(parse_config(text))
        lines = (tmp_path / "density_condensed.pgm").read_text().splitlines()
        vals = np.array([r.split() for r in lines[3:]], dtype=int)
        np.testing.assert_array_equal(vals, round(255 * 0.35))

    def test_reference_mechanism_config_runs(self, tmp_path):
        cfg = parse_config(
            f"[problem]\nkind = problem2\nnelx = 100\nnely = 100\n"
            f"inputs = 2\njbar = 0.5,2.0;1.0,-1.0\n"
            f"[optimizer]\nmax_iters = 2\ntol = 0.0\n"
            f"[output]\ndir = {tmp_path}\n")
        assert cmd_run(cfg) == 0
        assert (tmp_path / "density_condensed.pgm").exists()

    def test_env_var_overrides_outdir(self, tmp_path, monkeypatch):
        target = tmp_path / "env_dir"
        monkeypatch.setenv("MPTOP_OUTDIR", str(target))
        text = P1_SMALL.format(out=tmp_path / "ignored").replace(
            "max_iters = 4", "max_iters = 1")
        cmd_run(parse_config(text))
        assert (target / "summary.txt").exists()


class TestVerify:
    def test_problem1_direct(self, capsys):
        cfg = parse_config("[problem]\nkind = problem1\nnelx = 6\nnely = 6\n"
                           "m = 3\n")
        assert cmd_verify(cfg) == 0
        assert "ok" in capsys.readouterr().out

    def test_problem2_direct(self):
        cfg = parse_config("[problem]\nkind = problem2\nnelx = 6\nnely = 6\n")
        assert cmd_verify(cfg) == 0

    def test_tampered_gradient_fails(self):
        cfg = parse_config("[problem]\nkind = problem1\nnelx = 5\nnely = 5\n"
                           "m = 3\n")
        assert cmd_verify(cfg, tamper=True) == 1

    def test_grid_capped(self):
        cfg = parse_config("[problem]\nkind = problem1\nnelx = 50\nnely = 50\n"
                           "m = 9\n")
        assert cmd_verify(cfg) == 0


class TestGain:
    def test_table_contents(self, tmp_path):
        cfg = parse_config(f"[output]\ndir = {tmp_path}\n[gain]\nn = 1e4\n"
                           "m_min = 1\nm_max = 100\nm_count = 5\n")
        assert cmd_gain(cfg) == 0
        lines = (tmp_path / "gain.csv").read_text().splitlines()
        assert lines[0] == "n,m,model,xi_beta,xi_t"
        assert len(lines) == 1 + 5 * 2
        from mptop.perfmodel import FlopModel, gain_problem1
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(
            gain_problem1(FlopModel("direct"), 1e4, float(row[1])))

    def test_reference_spot_value(self, tmp_path):
        m_ref = 91.0298177991522
        cfg = parse_config(f"[output]\ndir = {tmp_path}\n[gain]\nn = 1e4\n"
                           f"m_min = {m_ref!r}\nm_max = {m_ref!r}\n"
                           "m_count = 1\n")
        cmd_gain(cfg)
        lines = (tmp_path / "gain.csv").read_text().splitlines()
        row = [l for l in lines if ",iterative," in l][0].split(",")
        assert float(row[3]) == pytest.approx(90.8854507418553, rel=1e-2)

    def test_iterative_single_port_zero(self, tmp_path):
        cfg = parse_config(f"[output]\ndir = {tmp_path}\n[gain]\nn = 1e4\n"
                           "m_min = 1\nm_max = 1\nm_count = 1\n")
        cmd_gain(cfg)
        lines = (tmp_path / "gain.csv").read_text().splitlines()
        iter_rows = [l for l in lines[1:] if ",iterative," in l]
        assert float(iter_rows[0].split(",")[3]) == 0.0

    def test_measured_column(self, tmp_path):
        cfg = parse_config(f"[output]\ndir = {tmp_path}\n[gain]\nn = 400\n"
                           "m_min = 4\nm_max = 4\nm_count = 1\nmeasure = 1\n")
        cmd_gain(cfg)
        lines = (tmp_path / "gain.csv").read_text().splitlines()
        assert len(lines) == 3
        xi_t = lines[1].split(",")[4]
        assert xi_t and float(xi_t) > 0


class TestMain:
    def test_missing_config(self, capsys):
        assert main(["run", "/nonexistent/config"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_empty_config_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        with pytest.raises(ConfigError):
            parse_config(path.read_text())
        assert main(["verify", str(path)]) == 2

    def test_infeasible_params_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[problem]\nkind = problem1\nnelx = 2\nnely = 2\n"
                        "m = 100\n")
        assert main(["run", str(path)]) == 1

    def test_run_e2e(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(P1_SMALL.format(out=tmp_path / "out").replace(
            "max_iters = 4", "max_iters = 1"))
        assert main(["run", str(path)]) == 0
