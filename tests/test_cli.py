import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import fields

import numpy as np
import pytest

from geig.cli import main, run_experiment, validate_config
from geig.correction import McParams
from geig.lobpcg import LobpcgParams
from geig.multigrid import MgParams

from _oracles import tensor_product_eigenvalues


def write_config(tmp_path, **overrides):
    cfg = {
        "problem": "constant",
        "grid_n": 16,
        "levels": 3,
        "nev": 3,
        "solver": "mc",
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestValidate:
    def test_minimal_config_fills_defaults(self, tmp_path):
        config, errors = validate_config(write_config(tmp_path))
        assert errors == []
        assert config.mg.m1 == 2 and config.mg.m2 == 2 and config.mg.p == 1
        assert config.mc.varpi == 1
        assert config.lobpcg_preconditioner == "gamblet"
        assert config.transform_opts["mode"] == "exact"

    def test_indivisible_grid(self, tmp_path):
        _, errors = validate_config(write_config(tmp_path, grid_n=24, levels=5))
        assert any("not divisible by 2^levels" in e for e in errors)

    def test_eps_must_tile_grid(self, tmp_path):
        _, errors = validate_config(write_config(
            tmp_path, problem={"kind": "anderson", "eps": 0.01}, grid_n=64,
            levels=4, nev=4))
        assert any(e.startswith("problem.eps:") for e in errors)

    def test_negative_tolerance_names_field(self, tmp_path):
        _, errors = validate_config(
            write_config(tmp_path, lobpcg={"tol": -1.0}))
        assert any(e.startswith("lobpcg:") for e in errors)

    def test_nev_exceeding_coarsest_space(self, tmp_path):
        _, errors = validate_config(
            write_config(tmp_path, grid_n=128, levels=7, nev=12))
        assert any(e.startswith("nev:") for e in errors)

    def test_nev_fits_with_fewer_levels(self, tmp_path):
        config, errors = validate_config(
            write_config(tmp_path, grid_n=128, levels=6, nev=12))
        assert errors == []

    def test_unknown_solver(self, tmp_path):
        _, errors = validate_config(write_config(tmp_path, solver="magic"))
        assert any(e.startswith("solver:") for e in errors)

    @pytest.mark.parametrize("overrides, field", [
        ({"grid_n": "abc"}, "grid_n"),
        ({"nev": 1.7}, "nev"),
        ({"levels": True}, "levels"),
        ({"problem": {"kind": "constant", "value": "x"}}, "problem.value"),
        ({"problem": {"kind": "anderson", "eps": 0.0}}, "problem.eps"),
        ({"mc": [1]}, "mc"),
        ({"mc": {"varpi": 1.5}}, "mc.varpi"),
        ({"mc": {"exact_inner": "no"}}, "mc.exact_inner"),
        ({"mg": {"lambda_bound_factor": "2"}}, "mg.lambda_bound_factor"),
        ({"lobpcg": {"seed": "one"}}, "lobpcg.seed"),
        ({"transform": ["exact"]}, "transform"),
        ({"transform": {"mode": "localized", "radius": 2.5}},
         "transform.radius"),
        (None, "config"),
        *[(overrides, field) for v in (math.nan, math.inf, -math.inf)
          for overrides, field in [
              ({"mc": {"tol": v}}, "mc.tol"),
              ({"lobpcg": {"tol": v}}, "lobpcg.tol"),
              ({"transform": {"mode": "localized", "droptol": v}},
               "transform.droptol"),
              ({"mg": {"lambda_bound_factor": v}}, "mg.lambda_bound_factor"),
              ({"problem": {"kind": "constant", "value": v}}, "problem.value"),
          ]],
        ({"problem": {"kind": "checkerboard", "seed": -1, "eps": 0.25}},
         "problem"),
        ({"mc": {"tol": 10 ** 400}}, "mc.tol"),
    ])
    def test_badly_typed_input_is_reported(self, tmp_path, capsys, overrides,
                                           field):
        if overrides is None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps([1, 2]))
        else:
            path = write_config(tmp_path, **overrides)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {field}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        b'{"grid_n": 1' + b"0" * 5000 + b"}",
        b'{"grid_n": "\xff"}',
    ], ids=["too-many-digits", "not-utf-8"])
    def test_unreadable_config_is_reported(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ")
        assert "Traceback" not in err

    def test_integral_float_is_an_integer(self, tmp_path):
        config, errors = validate_config(write_config(tmp_path, grid_n=16.0,
                                                      mc={"varpi": 2.0}))
        assert errors == []
        assert config.grid_n == 16 and isinstance(config.grid_n, int)
        assert config.mc.varpi == 2 and isinstance(config.mc.varpi, int)

    def test_validate_command_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path)
        assert main(["validate", str(good), "--resolved"]) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        bad = write_config(tmp_path, levels=5, grid_n=24)
        assert main(["validate", str(bad)]) == 1


class TestRun:
    def test_constant_problem_matches_closed_form(self, tmp_path):
        config, errors = validate_config(
            write_config(tmp_path, grid_n=16, levels=4, nev=3,
                         mc={"tol": 1e-12}))
        assert errors == []
        status = run_experiment(config)
        assert status == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        expected = tensor_product_eigenvalues(16, 3)
        got = np.array(summary["eigenvalues"])
        np.testing.assert_allclose(got, expected, rtol=1e-9)
        assert summary["converged"] is True
        assert set(summary["cond_B"]) == {"2", "3", "4"}
        assert 0 < summary["mg_contraction"] < 1

    def test_outputs_present_and_manifest_complete(self, tmp_path):
        config, _ = validate_config(write_config(tmp_path))
        run_experiment(config)
        for name in ("history.csv", "summary.json", "manifest.json"):
            assert (tmp_path / "out" / name).exists()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["grid_n"] == 16
        for section, cls in (("mg", MgParams), ("mc", McParams),
                             ("lobpcg", LobpcgParams)):
            names = {f.name for f in fields(cls)} - {"mg"}
            assert names <= set(manifest["config"][section]), section
        assert manifest["code_version"]
        assert manifest["numpy_version"] and manifest["scipy_version"]

    def test_determinism_byte_identical_history(self, tmp_path):
        cfg1 = write_config(tmp_path, output_dir=str(tmp_path / "o1"),
                            problem={"kind": "checkerboard", "seed": 5,
                                     "eps": 0.125, "lo": 0.1, "hi": 10.0})
        config1, _ = validate_config(cfg1)
        run_experiment(config1)
        cfg2 = write_config(tmp_path, output_dir=str(tmp_path / "o2"),
                            problem={"kind": "checkerboard", "seed": 5,
                                     "eps": 0.125, "lo": 0.1, "hi": 10.0})
        config2, _ = validate_config(cfg2)
        run_experiment(config2)
        h1 = (tmp_path / "o1" / "history.csv").read_bytes()
        h2 = (tmp_path / "o2" / "history.csv").read_bytes()
        assert h1 == h2

    def test_nonconvergence_exits_2_with_files(self, tmp_path):
        config, _ = validate_config(
            write_config(tmp_path, mc={"tol": 1e-15, "fine_level_extra": 1}))
        status = run_experiment(config)
        assert status == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is False
        assert (tmp_path / "out" / "history.csv").exists()

    def test_lobpcg_solver_path(self, tmp_path):
        config, errors = validate_config(
            write_config(tmp_path, solver="lobpcg",
                         lobpcg={"tol": 1e-9, "maxit": 300,
                                 "preconditioner": "gamblet", "seed": 1}))
        assert errors == []
        assert run_experiment(config) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        expected = tensor_product_eigenvalues(16, 3)
        np.testing.assert_allclose(summary["eigenvalues"], expected, rtol=1e-7)

    def test_hybrid_solver_path(self, tmp_path):
        config, _ = validate_config(
            write_config(tmp_path, solver="hybrid", mc={"tol": 1e-6},
                         lobpcg={"tol": 1e-10, "maxit": 200}))
        assert run_experiment(config) == 0
        history = (tmp_path / "out" / "history.csv").read_text()
        assert history.splitlines()[0].endswith(",phase")

    def test_coefficient_file_problem(self, tmp_path):
        from geig.fem import Grid, gen_checkerboard, save_coefficient_file

        field = gen_checkerboard(seed=2, eps=0.25, lo=0.5, hi=2.0,
                                 grid=Grid(16))
        fpath = tmp_path / "field.txt"
        save_coefficient_file(field, fpath)
        config, errors = validate_config(
            write_config(tmp_path, problem={"kind": "coefficient_file",
                                            "path": str(fpath)}))
        assert errors == []
        assert run_experiment(config) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is True

    def test_main_run_bad_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestShippedConfigs:
    def test_all_shipped_configs_validate(self):
        import pathlib

        cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(cfg_dir.glob("*.json"))
        assert paths, "no shipped configs found"
        for path in paths:
            _, errors = validate_config(path)
            assert errors == [], f"{path.name}: {errors}"


class TestTransformDiag:
    def test_run_reproducible_from_manifest(self, tmp_path):
        for mg in ({}, {"symmetric_smoothing": True}):
            out, replay = tmp_path / "out", tmp_path / "replay"
            config, _ = validate_config(write_config(
                tmp_path, mg=mg, output_dir=str(out),
                problem={"kind": "checkerboard", "seed": 9, "eps": 0.25,
                         "lo": 0.5, "hi": 2.0}))
            run_experiment(config)
            manifest = json.loads((out / "manifest.json").read_text())
            config2, errors = validate_config(
                dict(manifest["config"], output_dir=str(replay)))
            assert errors == []
            run_experiment(config2)
            assert (out / "history.csv").read_bytes() == \
                (replay / "history.csv").read_bytes(), mg

    def test_manifest_with_track_vectors_still_replays(self, tmp_path):
        """Manifests written before the level bases were derived on demand
        carry ``transform.track_vectors``; the key is ignored."""
        config, errors = validate_config(
            write_config(tmp_path, transform={"mode": "exact",
                                              "track_vectors": True}))
        assert errors == []
        run_experiment(config)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "track_vectors" not in manifest["config"]["transform"]
        manifest["config"]["transform"]["track_vectors"] = False
        replay = dict(manifest["config"], output_dir=str(tmp_path / "replay"))
        config2, errors = validate_config(replay)
        assert errors == []
        run_experiment(config2)
        assert (tmp_path / "out" / "history.csv").read_bytes() == \
            (tmp_path / "replay" / "history.csv").read_bytes()

    @pytest.mark.parametrize("transform", [
        {"mode": "exact"},
        {"mode": "localized", "radius": 1},
    ], ids=["exact", "localized"])
    def test_diag_reports_decay(self, tmp_path, transform):
        config, _ = validate_config(write_config(tmp_path,
                                                 transform=transform))
        run_experiment(config)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert main(["transform", str(tmp_path / "config.json")]) == 0
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["diag", str(tmp_path / "out" / "decomposition")]) == 0
        report = json.loads(buf.getvalue())
        assert report["cond_B"] == summary["cond_B"]
        assert report["decay"]["level"] == 2
        assert report["decay"]["slope"] < 0
        assert report["decay"]["profile"][0][0] == 0

    @pytest.mark.parametrize("name, line", [
        ("B_2.txt", "0 0 nan"),
        ("R_2.txt", "99999 0 1.0"),
    ], ids=["non-finite-value", "index-out-of-range"])
    def test_diag_refuses_bad_entries(self, tmp_path, capsys, name, line):
        assert main(["transform", str(write_config(tmp_path))]) == 0
        path = tmp_path / "out" / "decomposition" / name
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        lines = len(path.read_text().splitlines())
        capsys.readouterr()
        assert main(["diag", str(tmp_path / "out" / "decomposition")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{lines}: ")
        assert "Traceback" not in err

    def test_serialize_then_diag_matches_summary(self, tmp_path):
        config, _ = validate_config(write_config(tmp_path))
        run_experiment(config)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert main(["transform", str(tmp_path / "config.json")]) == 0
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["diag", str(tmp_path / "out" / "decomposition")])
        assert code == 0
        # skip the path line printed by the transform command
        report = json.loads(buf.getvalue())
        assert report["cond_B"] == summary["cond_B"]
