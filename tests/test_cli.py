"""Command-line surface: subcommands, file outputs, exit codes, config."""

import json

import pytest

from fig8 import __version__
from fig8 import reproduce as rep
from fig8.cli import main
from fig8.config import ConfigError, RunConfig, load_config, parse_potential
from fig8.dynamics import PotentialSpec
from fig8.integrate import IntegratorConfig
from fig8.shooting import SolverError, solution_record_from_json


def run_cli(*args):
    return main([str(a) for a in args])


class TestConfig:
    def test_round_trip_default(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert load_config(path) == cfg

    def test_round_trip_custom(self, tmp_path):
        cfg = RunConfig(potential=PotentialSpec.homogeneous(4),
                        newton_tol=1e-9, scan_n_y0=50, jobs=3,
                        scan_y0_range=(0.2, 0.9), out_dir="elsewhere")
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert load_config(path) == cfg

    def test_bad_json_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_config_carrying_seed_still_loads(self, tmp_path):
        # older configs stamped an unused "seed" field
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(RunConfig().to_json_dict() | {"seed": 7}))
        assert load_config(path) == RunConfig()

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_json_dict({"schema": 99})

    def test_parse_potential(self):
        assert parse_potential("lj") == PotentialSpec.lj()
        assert parse_potential("lj:10,4") == PotentialSpec.lj(10, 4)
        assert parse_potential("homogeneous:6") == PotentialSpec.homogeneous(6)
        with pytest.raises(ConfigError):
            parse_potential("coulomb")
        with pytest.raises(ConfigError):
            parse_potential("homogeneous")


class TestSolve:
    def test_homogeneous_baseline(self, tmp_path, capsys):
        code = run_cli("solve", "--x0", 1.0, "--y0", 0.98, "--v", 0.23,
                       "--potential", "homogeneous:6", "-o", tmp_path)
        assert code == 0
        recs = list(tmp_path.glob("solution_*.json"))
        assert len(recs) == 1
        payload = json.loads(recs[0].read_text())
        rec = solution_record_from_json(payload)
        assert abs(rec.params.y0 - 0.985945) <= 1e-4
        assert abs(rec.T - 61.2000) <= 1e-2
        assert payload["version"] == __version__
        assert payload["config"]["potential"] == {"kind": "homogeneous", "a": 6.0}
        # orbit CSV written with the embedded record header
        orbits = list(tmp_path.glob("orbit_*.csv"))
        assert len(orbits) == 1
        head = orbits[0].read_text().splitlines()[:4]
        assert any(line.startswith("# record:") for line in head)

    def test_lj_solution_with_collision_count(self, tmp_path):
        code = run_cli("solve", "--x0", 0.75, "--y0", 0.73, "--v", 0.52,
                       "-o", tmp_path, "--label", "alpha")
        assert code == 0
        payload = json.loads(next(tmp_path.glob("solution_*.json")).read_text())
        assert payload["n0"] == 0
        assert payload["series_label"] == "alpha"

    def test_garbage_seed_fails_cleanly(self, tmp_path):
        # launch inside the repulsive core: clean nonzero exit, no artifacts
        code = run_cli("solve", "--x0", 0.75, "--y0", 0.2, "--v", 0.6,
                       "-o", tmp_path)
        assert code in (2, 3)
        assert not list(tmp_path.glob("solution_*.json"))

    def test_unreachable_tolerance_exits_2(self, tmp_path):
        code = run_cli("solve", "--x0", 0.75, "--y0", 0.73, "--v", 0.52,
                       "--tol", 1e-16, "-o", tmp_path)
        assert code == 2

    def test_explicit_zero_tolerance_exits_5(self, tmp_path):
        code = run_cli("solve", "--x0", 0.75, "--y0", 0.73, "--v", 0.52,
                       "--tol", 0, "-o", tmp_path)
        assert code == 5

    def test_bad_potential_exits_5(self, tmp_path):
        code = run_cli("solve", "--x0", 1, "--y0", 1, "--v", 1,
                       "--potential", "nope", "-o", tmp_path)
        assert code == 5

    @pytest.mark.parametrize("command", ["solve", "continue", "analyze"])
    def test_jobs_flag_rejected(self, command):
        # only scan and reproduce run workers; elsewhere --jobs would be
        # stamped into the outputs without having been used
        args = (["--x0", 1, "--y0", 1, "--v", 1] if command == "solve"
                else ["record.json"])
        with pytest.raises(SystemExit) as err:
            run_cli(command, *args, "--jobs", 2)
        assert err.value.code == 2

    def test_unwritable_output_exits_4(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        code = run_cli("solve", "--x0", 1.0, "--y0", 0.98, "--v", 0.23,
                       "--potential", "homogeneous:6",
                       "-o", blocker / "sub")
        assert code == 4

    def test_homogeneous_energy_value(self, tmp_path):
        # scaling family at x0 = 1 has E = 0.0467827
        code = run_cli("solve", "--x0", 1.0, "--y0", 0.98, "--v", 0.23,
                       "--potential", "homogeneous:6", "-o", tmp_path)
        assert code == 0
        payload = json.loads(next(tmp_path.glob("solution_*.json")).read_text())
        assert abs(payload["E"] - 0.0467827) <= 1e-4
        assert payload["n0"] is None  # no repulsive core, no collision count


class TestScan:
    def test_tiny_scan_outputs(self, tmp_path):
        code = run_cli("scan", "--x0", 0.75,
                       "--y0-min", 0.70, "--y0-max", 0.76,
                       "--v-min", 0.49, "--v-max", 0.55,
                       "--ny", 6, "--nv", 6, "-o", tmp_path)
        assert code == 0
        grid_csv = tmp_path / "grid_x0_0.75.csv"
        seeds_json = tmp_path / "seeds_x0_0.75.json"
        assert grid_csv.exists() and seeds_json.exists()
        seeds = json.loads(seeds_json.read_text())["seeds"]
        assert any(abs(s["y0"] - 0.725966) < 0.02 for s in seeds)
        rows = [l for l in grid_csv.read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "x0,y0,v,P,D,E,t_f,status"
        assert len(rows) == 1 + 36
        grid_json = json.loads((tmp_path / "grid_x0_0.75.json").read_text())
        assert grid_json["config"]["scan_n_y0"] == 200  # defaults embedded

    @pytest.mark.parametrize("flag", ["--y0-min", "--ny", "--jobs"])
    def test_explicit_zero_reaches_validation(self, tmp_path, flag):
        # an explicit 0 is not replaced by the config default
        args = {"--y0-min": 0.70, "--y0-max": 0.76, "--v-min": 0.49,
                "--v-max": 0.55, "--ny": 6, "--nv": 6} | {flag: 0}
        flat = [str(a) for item in args.items() for a in item]
        assert run_cli("scan", "--x0", 0.75, *flat, "-o", tmp_path) == 5
        assert not list(tmp_path.glob("grid_*"))

    def test_degenerate_two_by_two(self, tmp_path):
        code = run_cli("scan", "--x0", 0.75,
                       "--y0-min", 0.5, "--y0-max", 0.51,
                       "--v-min", 0.3, "--v-max", 0.31,
                       "--ny", 2, "--nv", 2, "-o", tmp_path)
        assert code == 0


@pytest.fixture(scope="module")
def alpha_record_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("rec")
    assert run_cli("solve", "--x0", 0.75, "--y0", 0.73, "--v", 0.52,
                   "-o", out, "--label", "alpha") == 0
    return next(out.glob("solution_*.json"))


@pytest.fixture(scope="module")
def homogeneous_record_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("rec_h6")
    assert run_cli("solve", "--x0", 1.0, "--y0", 0.98, "--v", 0.23,
                   "--potential", "homogeneous:6", "-o", out) == 0
    return next(out.glob("solution_*.json"))


def _stamped_potential(csv_path):
    line = next(l for l in csv_path.read_text().splitlines()
                if l.startswith("# config:"))
    return json.loads(line.partition(":")[2])["potential"]


class TestContinueAndAnalyze:
    def test_continue_stamps_the_record_potential(self, homogeneous_record_file,
                                                  tmp_path):
        assert run_cli("continue", homogeneous_record_file, "--steps", 0,
                       "-o", tmp_path) == 0
        assert _stamped_potential(next(tmp_path.glob("series_*.csv"))) == \
            {"kind": "homogeneous", "a": 6.0}

    @pytest.mark.parametrize("args", [("continue", "--steps", 0), ("analyze",)],
                             ids=["continue", "analyze"])
    def test_potential_flag_off_the_record_exits_5(self, args, alpha_record_file,
                                                   tmp_path):
        assert run_cli(args[0], alpha_record_file, *args[1:], "--potential",
                       "homogeneous:6", "-o", tmp_path / "out") == 5
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [("continue", "--steps", 0), ("analyze",)],
                             ids=["continue", "analyze"])
    def test_config_potential_off_the_record_exits_5(self, args,
                                                     homogeneous_record_file,
                                                     tmp_path):
        path = tmp_path / "cfg.json"
        RunConfig().save(path)  # LJ(12,6), the default
        assert run_cli(args[0], homogeneous_record_file, *args[1:], "--config", path,
                       "-o", tmp_path / "out") == 5
        assert not (tmp_path / "out").exists()

    def test_potential_flag_naming_the_record_potential_accepted(
            self, homogeneous_record_file, tmp_path):
        assert run_cli("continue", homogeneous_record_file, "--steps", 0,
                       "--potential", "homogeneous:6", "-o", tmp_path) == 0

    def test_continue_zero_steps_echoes(self, alpha_record_file, tmp_path):
        code = run_cli("continue", alpha_record_file, "--steps", 0,
                       "-o", tmp_path)
        assert code == 0
        lines = (tmp_path / "series_alpha.csv").read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 2  # header + the single echoed record

    def test_continue_short_series(self, alpha_record_file, tmp_path):
        code = run_cli("continue", alpha_record_file, "--steps", 8,
                       "--direction", "-1", "--no-n0", "-o", tmp_path)
        assert code == 0
        rows = [l for l in (tmp_path / "series_alpha.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) >= 6
        assert (tmp_path / "series_alpha_special.json").exists()

    def test_continue_with_collision_annotation(self, alpha_record_file, tmp_path):
        code = run_cli("continue", alpha_record_file, "--steps", 3,
                       "--direction", "1", "-o", tmp_path)
        assert code == 0
        rows = [l for l in (tmp_path / "series_alpha.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert all(r.rstrip().endswith(",0") for r in rows)  # n0 = 0 upper branch

    def test_collision_count_constant_along_fifth_family(self, tmp_path):
        # the 24-collision family keeps its count at every series point
        out = tmp_path / "eps"
        assert run_cli("solve", "--x0", 0.91, "--y0", 0.803912,
                       "--v", 0.0857343, "-o", out, "--label", "eps") == 0
        rec = next(out.glob("solution_*.json"))
        assert json.loads(rec.read_text())["n0"] == 24
        assert run_cli("continue", rec, "--steps", 3, "--direction", "-1",
                       "-o", out) == 0
        rows = [l for l in (out / "series_eps.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) >= 3
        assert all(r.rstrip().endswith(",24") for r in rows)

    def test_one_sided_x0_limit_honoured(self, alpha_record_file, tmp_path,
                                         capsys):
        code = run_cli("continue", alpha_record_file, "--steps", 40,
                       "--direction", "1", "--x0-max", 0.77, "--no-n0",
                       "-o", tmp_path)
        assert code == 0
        assert "truncated: reached x0 limit" in capsys.readouterr().out
        rows = [l for l in (tmp_path / "series_alpha.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) < 41
        assert all(float(r.split(",")[1]) <= 0.77 for r in rows[:-1])

    def test_explicit_zero_step_exits_5(self, alpha_record_file, tmp_path):
        assert run_cli("continue", alpha_record_file, "--step", 0,
                       "-o", tmp_path) == 5

    def test_analyze_record(self, alpha_record_file, tmp_path, capsys):
        code = run_cli("analyze", alpha_record_file, "-o", tmp_path)
        assert code == 0
        out = json.loads(next(tmp_path.glob("analysis_*.json")).read_text())
        assert out["n0"] == 0
        assert abs(out["T"] - 20.4287) < 1e-3
        assert out["choreography_residual"] <= 1e-9
        printed = capsys.readouterr().out
        assert '"n0": 0' in printed

    def test_analyze_orbit_csv(self, alpha_record_file, tmp_path):
        # orbit CSVs carry their source record and can be re-analyzed
        out_solve = alpha_record_file.parent
        orbit_csv = next(out_solve.glob("orbit_*.csv"))
        code = run_cli("analyze", orbit_csv, "-o", tmp_path)
        assert code == 0

    def test_analyze_garbage_file_exits_5(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        assert run_cli("analyze", bad, "-o", tmp_path) == 5

    @pytest.mark.parametrize("command", ["continue", "analyze"])
    def test_record_without_params_exits_5(self, command, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 20.4, "E": -0.3}))
        assert run_cli(command, bad, "-o", tmp_path / "out") == 5
        assert not (tmp_path / "out").exists()


class TestRemovedPotentialKinds:
    @pytest.mark.parametrize("route", ["flag", "config", "record"])
    def test_exits_5_naming_the_kinds(self, route, alpha_record_file, tmp_path,
                                      capsys):
        if route == "flag":
            args = ["solve", "--x0", 1, "--y0", 1, "--v", 1,
                    "--potential", "morse:2,1.1"]
        elif route == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"potential": {"kind": "buckingham"}}))
            args = ["solve", "--x0", 1, "--y0", 1, "--v", 1, "--config", path]
        else:
            path = tmp_path / "record.json"
            record = json.loads(alpha_record_file.read_text())
            record["potential"] = {"kind": "screened_coulomb", "a": 1.5}
            path.write_text(json.dumps(record))
            args = ["analyze", path]
        assert run_cli(*args, "-o", tmp_path / "out") == 5
        assert "the kinds are lj, homogeneous" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReproduceCommand:
    def test_quick_profile(self, tmp_path, capsys):
        code = run_cli("reproduce", "--quick", "-o", tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads((tmp_path / "reproduce_report.json").read_text())
        ran = [r for r in report["results"] if not r["skipped"]]
        assert {r["criterion"] for r in ran} == {1, 2, 6, 8, 11}
        assert all(r["passed"] for r in ran)
        assert out.count("[PASS]") == len(ran)
        # criterion 1 runs `fig8 solve` into a temporary directory, whose
        # report must not reach the criterion table
        lines = out.splitlines()
        assert not any(line.startswith("converged: ") for line in lines)
        assert all(line.startswith(f"wrote {tmp_path}")
                   for line in lines if line.startswith("wrote "))
        # skipped criteria carry their declared titles too
        skipped = {r["criterion"] for r in report["results"] if r["skipped"]}
        assert skipped == {3, 4, 5, 7, 9, 10}
        declared = {c.cid: c.title for c in rep.CRITERIA}
        assert {r["criterion"]: r["title"] for r in report["results"]} == declared
        assert not any("\n" in title for title in declared.values())

    def test_criterion_error_is_a_failed_result(self, monkeypatch):
        calls = []
        solved = object()

        def newton_solve(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise SolverError("singular Jacobian")
            return solved

        monkeypatch.setattr(rep, "newton_solve", newton_solve)
        ctx = rep.ReproduceContext()
        res = rep.run_criterion(ctx, rep.c02_alpha_solution)
        assert (res.cid, res.title, res.passed) == (
            2, "first Lennard-Jones solution at x0 = 0.75", False)
        assert "error: SolverError: singular Jacobian" in res.details
        # a build that raised is not cached; a build that succeeded is
        assert ctx.alpha_record is solved and ctx.alpha_record is solved
        assert len(calls) == 2

    def test_zero_jobs_exits_5(self, tmp_path):
        assert run_cli("reproduce", "--quick", "--jobs", 0, "-o", tmp_path) == 5

    def test_potential_flag_rejected(self, tmp_path):
        # the criteria check the published LJ(12,6) results only
        assert run_cli("reproduce", "--quick", "--potential", "homogeneous:6",
                       "-o", tmp_path) == 5
        assert not (tmp_path / "reproduce_report.json").exists()

    @pytest.mark.parametrize("cfg", [
        RunConfig(potential=PotentialSpec.homogeneous(6)),
        RunConfig(integrator=IntegratorConfig(rel_tol=1e-9)),
    ], ids=["potential", "integrator"])
    def test_config_off_the_criteria_defaults_rejected(self, cfg, tmp_path):
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert run_cli("reproduce", "--quick", "--config", path,
                       "-o", tmp_path) == 5
        assert not (tmp_path / "reproduce_report.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("newton_tol", 1e-3), ("orbit_samples", 120), ("scan_n_y0", 10),
        ("scan_v_range", (0.1, 0.2)), ("continuation_steps", 5)])
    def test_config_field_the_criteria_ignore_rejected(self, field, value, tmp_path):
        # only jobs and out_dir reach the criteria; any other field would be
        # stamped into the report without having been used
        path = tmp_path / "cfg.json"
        RunConfig(**{field: value}, jobs=2, out_dir=str(tmp_path)).save(path)
        assert run_cli("reproduce", "--quick", "--config", path) == 5
        assert not (tmp_path / "reproduce_report.json").exists()
