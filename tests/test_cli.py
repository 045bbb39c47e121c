"""Config parsing, subcommands and artifact formats."""
import dataclasses
import pathlib

import numpy as np
import pytest

import mptop.cli
from mptop.cli import (
    SECTIONS,
    ConfigError,
    RunConfig,
    build_problem,
    cmd_gain,
    cmd_run,
    cmd_verify,
    main,
    parse_config,
)
from mptop.optimizer import optimize
from mptop.perfmodel import FlopModel, gain_problem1, gain_problem2
from mptop.problems import evaluate

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

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
        with pytest.raises(ConfigError) as err:
            parse_config("kind = problem2\n[problem]\n")
        assert "line 1: key kind is outside any [section]" in str(err.value)
        with pytest.raises(ConfigError) as err:
            parse_config("[gain]\nn = 1e3;1e4\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("keys", ["m_min = 0", "m_min = 0.5",
                                      "m_min = 10\nm_max = 5",
                                      "m_count = -1"],
                             ids=["zero", "below-one", "reversed", "count"])
    def test_gain_range_rejected(self, tmp_path, keys):
        with pytest.raises(ConfigError, match=r"\[gain\] needs"):
            parse_config(f"[gain]\n{keys}\n")
        path = tmp_path / "gain.cfg"
        path.write_text(f"[output]\ndir = {tmp_path}\n[gain]\n{keys}\n")
        assert main(["gain", str(path)]) == 2

    def test_readme_block_sets_every_key_once(self):
        # README's [section] key = value block parses to the defaults and
        # names exactly the keys the parser knows; each RunConfig field has
        # one key
        text = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(text) == RunConfig()   # shown at defaults
        named, section = [], None
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                named.append((section, line.split("=", 1)[0].strip()))
        fields = [name for names in SECTIONS.values() for name in names]
        assert sorted(fields) == sorted(
            f.name for f in dataclasses.fields(RunConfig))
        assert sorted(named) == sorted(mptop.cli._FIELDS)

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

    @pytest.mark.parametrize("cfg_text", [P1_SMALL, P2_SMALL],
                             ids=["p1-both", "p2-condensed"])
    def test_summary_describes_the_written_design(self, tmp_path, cfg_text):
        cfg = parse_config(cfg_text.format(out=tmp_path))
        cmd_run(cfg)
        summary = dict(line.split(" = ") for line in
                       (tmp_path / "summary.txt").read_text().splitlines())
        problem = build_problem(cfg)
        pipes = (("elementary", "condensed") if cfg.pipeline == "both"
                 else (cfg.pipeline,))
        for pipe in pipes:
            res = optimize(problem, pipeline=pipe, max_iters=cfg.max_iters,
                           tol=cfg.tol)
            csv = np.loadtxt(tmp_path / f"density_{pipe}.csv", delimiter=",")
            np.testing.assert_allclose(
                csv.T.ravel(), problem.design(res.x).filtered, atol=1e-10)
            final = evaluate(problem, res.x, pipeline=pipe, want_grads=False)
            assert summary[f"{pipe}_iterations"] == str(cfg.max_iters)
            assert float(summary[f"{pipe}_objective"]) == pytest.approx(
                final.objective, rel=1e-9)
            assert float(summary[f"{pipe}_max_constraint"]) == pytest.approx(
                max(final.constraints), rel=1e-9)

    def test_zero_iterations_writes_initial_design(self, tmp_path):
        text = P1_SMALL.format(out=tmp_path).replace(
            "max_iters = 4", "max_iters = 0")
        cmd_run(parse_config(text))
        log = (tmp_path / "iterations_condensed.tsv").read_text().splitlines()
        assert len(log) == 1  # header only
        csv = np.loadtxt(tmp_path / "density_condensed.csv", delimiter=",")
        np.testing.assert_allclose(csv, 0.35, atol=1e-12)

    def test_timings_carry_dual_health(self, tmp_path):
        cmd_run(parse_config(P2_SMALL.format(out=tmp_path)))
        rows = [line.split("\t") for line in
                (tmp_path / "timings_condensed.tsv").read_text().splitlines()]
        assert rows[0] == ["iteration", "seconds", "dual_sweeps",
                           "dual_newton", "dual_residual"]
        assert len(rows) == 3
        # the first solve starts from zero multipliers and must move them;
        # a warm-started one may already be converged
        assert int(rows[1][2]) + int(rows[1][3]) >= 1
        for row in rows[1:]:
            assert int(row[2]) >= 0 and int(row[3]) >= 0
            assert 0.0 <= float(row[4]) <= 1e-12

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
            f"jbar = 0.5,2.0;1.0,-1.0\n"
            f"[optimizer]\nmax_iters = 2\ntol = 0.0\n"
            f"[output]\ndir = {tmp_path}\n")
        assert cmd_run(cfg) == 0
        assert (tmp_path / "density_condensed.pgm").exists()


class TestVerify:
    def test_problem1_direct(self, capsys):
        cfg = parse_config("[problem]\nkind = problem1\nnelx = 6\nnely = 6\n"
                           "m = 3\n")
        assert cmd_verify(cfg) == 0
        assert "ok" in capsys.readouterr().out

    def test_problem2_direct(self):
        cfg = parse_config("[problem]\nkind = problem2\nnelx = 6\nnely = 6\n")
        assert cmd_verify(cfg) == 0

    def test_tampered_gradient_fails(self, monkeypatch):
        def tampered(*args, **kwargs):
            ev = evaluate(*args, **kwargs)
            if ev.d_objective is not None:
                ev.d_objective[np.argmax(np.abs(ev.d_objective))] *= 1.5
            return ev
        monkeypatch.setattr(mptop.cli, "evaluate", tampered)
        cfg = parse_config("[problem]\nkind = problem1\nnelx = 5\nnely = 5\n"
                           "m = 3\n")
        assert cmd_verify(cfg) == 1

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
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(
            gain_problem1(FlopModel("direct"), 1e4, float(row[1])))

    def test_rows_with_m_not_below_n_dropped(self, tmp_path):
        cfg = parse_config(f"[output]\ndir = {tmp_path}\n[gain]\nn = 1000\n"
                           "m_min = 10\nm_max = 2000\nm_count = 3\n")
        cmd_gain(cfg)
        rows = [line.split(",") for line in
                (tmp_path / "gain.csv").read_text().splitlines()[1:]]
        assert [(float(r[0]), r[2]) for r in rows] == [
            (1000.0, "direct"), (1000.0, "iterative")] * 2
        assert float(rows[0][1]) == 10.0
        assert float(rows[0][3]) == pytest.approx(
            gain_problem1(FlopModel("direct"), 1000, 10))

    def test_problem2_m_rounded_to_even(self, tmp_path):
        cfg = parse_config(f"[problem]\nkind = problem2\n[output]\n"
                           f"dir = {tmp_path}\n[gain]\nn = 1000\n"
                           "m_min = 1\nm_max = 3.2\nm_count = 2\n")
        cmd_gain(cfg)
        rows = [line.split(",") for line in
                (tmp_path / "gain.csv").read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == [2.0, 2.0, 4.0, 4.0]
        assert float(rows[2][3]) == pytest.approx(
            gain_problem2(FlopModel("direct"), 1000, 4))

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
        direct, iterative = (line.split(",") for line in lines[1:])
        assert direct[2] == "direct" and float(direct[4]) > 0
        # the iterative model is predicted only
        assert iterative[2] == "iterative" and iterative[4] == ""


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

    @pytest.mark.parametrize("vbar", ["0", "-0.2"])
    def test_vbar_out_of_range_exit_code(self, tmp_path, capsys, vbar):
        path = tmp_path / "bad.cfg"
        path.write_text(P1_SMALL.format(out=tmp_path / "out").replace(
            "vbar = 0.35", f"vbar = {vbar}"))
        assert main(["run", str(path)]) == 1
        assert "vbar must be in (0, 1]" in capsys.readouterr().err

    def test_run_e2e(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(P1_SMALL.format(out=tmp_path / "out").replace(
            "max_iters = 4", "max_iters = 1"))
        assert main(["run", str(path)]) == 0
