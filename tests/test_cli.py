"""Command-line behavior: config merging, artifacts, exit codes."""

import json

import numpy as np
import pytest

from aseries.augmented import AugmentedState, Problem, residual_jacobian
from aseries import cli
from aseries.cli import (
    CSV_COLUMNS,
    HUNT_CMD_OPTIONS,
    _hunt_config,
    _resolve,
    build_parser,
    load_tensor_file,
    main,
    read_config,
)
from aseries.harness import HuntConfig, hunt_swallowtail
from aseries.poisson import (
    ExpSineNonlinearity,
    Grid,
    GridFunction,
    load_grid_function,
    save_grid_function,
)

HUNT_ARGS = ("--problem", "bratu", "--grid", "10x10",
             "--lam0", "0,0.15,2.0", "--lam3-direction", "-1",
             "--stage3-window", "3.0,0.25,2.5")


@pytest.fixture(scope="module")
def hunt_dir(tmp_path_factory):
    """One CLI hunt with saved states, shared across the module."""
    base = tmp_path_factory.mktemp("hunt")
    rc = main(["hunt", *HUNT_ARGS,
               "--save-states", str(base / "states"),
               "--out", str(base / "hunt.json")])
    assert rc == 0
    return base


@pytest.fixture(scope="module")
def hunt_doc(hunt_dir):
    with open(hunt_dir / "hunt.json") as fh:
        return json.load(fh)


def run_continue(tmp_path, name, *extra):
    out = tmp_path / f"{name}.csv"
    rc = main(["continue", "--problem", "bratu", "--grid", "8x8",
               "--level", "0", "--active", "l1", "--lam", "0,0.15,2.0",
               "--stop-at", "fold", "--out", str(out), *extra])
    return rc, out


class TestConfigFile:
    def test_parses_flat_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nproblem = bratu\nmax_steps=7\n")
        assert read_config(str(path)) == {"problem": "bratu",
                                          "max-steps": "7"}

    def test_reports_bad_line_number(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("problem=bratu\nnonsense line\n")
        rc = main(["hunt", "--config", str(path)])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_rejects_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("problem=bratu\ngird=10\n")
        rc = main(["hunt", "--config", str(path)])
        assert rc == 2
        assert "gird" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=bratu\ngrid=8x8\nlevel=0\nactive=l1\n"
                       "lam=0,0.15,2.0\nstop-at=fold\n")
        out_cfg = tmp_path / "from_cfg.csv"
        rc = main(["continue", "--config", str(cfg), "--out", str(out_cfg)])
        assert rc == 0
        out_flag = tmp_path / "from_flag.csv"
        rc = main(["continue", "--config", str(cfg), "--lam", "0,0,0",
                   "--out", str(out_flag)])
        assert rc == 0
        lam2_cfg = out_cfg.read_text().splitlines()[1].split(",")[3]
        lam2_flag = out_flag.read_text().splitlines()[1].split(",")[3]
        assert float(lam2_cfg) == 0.15
        assert float(lam2_flag) == 0.0


class TestContinue:
    def test_solution_branch_finds_fold(self, tmp_path):
        rc, out = run_continue(tmp_path, "sol")
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        with open(out.with_suffix("").with_name("sol.events.json")) as fh:
            doc = json.load(fh)
        assert doc["stopped_on"] == "event:fold"
        (event,) = doc["events"]
        assert event["kind"] == "fold"
        assert not event["approximate"]
        assert 7.0 < event["lam"][0] < 9.0
        assert event["lam"][1:] == [0.15, 2.0]

    def test_runs_are_bitwise_identical(self, tmp_path):
        _, first = run_continue(tmp_path, "one")
        _, second = run_continue(tmp_path, "two")
        assert first.read_bytes() == second.read_bytes()

    def test_csv_values_round_trip(self, tmp_path):
        _, out = run_continue(tmp_path, "rt")
        rows = out.read_text().splitlines()[1:]
        mid = rows[len(rows) // 2].split(",")
        # 17 significant digits reproduce the float64 exactly
        value = float(mid[1])
        assert format(value, ".17g") == mid[1]

    def test_missing_grid_is_usage_error(self, tmp_path, capsys):
        rc = main(["continue", "--problem", "bratu", "--level", "0",
                   "--active", "l1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "--grid" in capsys.readouterr().err

    def test_active_count_must_match_level(self, tmp_path):
        rc = main(["continue", "--problem", "bratu", "--grid", "6x6",
                   "--level", "0", "--active", "l1,l2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_monitor_needs_level(self, tmp_path):
        rc = main(["continue", "--problem", "bratu", "--grid", "6x6",
                   "--level", "0", "--active", "l1", "--monitors", "cusp",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("value", ["0", "-0", "nan", "inf"])
    def test_direction_must_be_nonzero_number(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        rc = main(["continue", "--problem", "bratu", "--grid", "6x6",
                   "--level", "0", "--active", "l1", f"--direction={value}",
                   "--out", str(out)])
        assert rc == 2
        message = f"--direction must be a nonzero number, got {float(value)}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert not (tmp_path / "x.events.json").exists()

    def test_numerical_failure_names_its_class(self, tmp_path, capsys):
        # the lam2 column vanishes at u = 0, so the start's Newton matrix
        # is singular
        out = tmp_path / "x.csv"
        rc = main(["continue", "--problem", "bratu", "--grid", "8x8",
                   "--level", "1", "--active", "l1,l2", "--lam", "8,0,0",
                   "--monitors", "cusp", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        # the block solve's capacitance exposes the singular matrix
        assert err.startswith("numerical failure: SingularJacobianError: "
                              "block Jacobian is singular: scaled "
                              "capacitance condition ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_stop_at_undetected_kind(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["continue", "--problem", "bratu", "--grid", "6x6",
                   "--level", "1", "--active", "l1,l2",
                   "--stop-at", "blowup", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --stop-at 'blowup' is not detected by this run "
            "(have: cusp)\n")
        assert not out.exists()

    def test_fold_line_from_saved_state(self, tmp_path, hunt_dir, hunt_doc):
        fold = next(p for p in hunt_doc["chain"] if p["kind"] == "fold")
        lam = ",".join(format(v, ".17g") for v in fold["lam"])
        out = tmp_path / "foldline.csv"
        rc = main(["continue", "--problem", "bratu", "--grid", "10x10",
                   "--level", "1", "--active", "l1,l2", "--lam", lam,
                   "--u0", str(hunt_dir / "states" / "fold_u.txt"),
                   "--alpha0", str(hunt_dir / "states" / "fold_alpha.txt"),
                   "--stop-at", "cusp", "--ds0", "0.2",
                   "--out", str(out)])
        assert rc == 0
        with open(tmp_path / "foldline.events.json") as fh:
            doc = json.load(fh)
        (event,) = doc["events"]
        assert event["kind"] == "cusp"
        cusp = next(p for p in hunt_doc["chain"] if p["kind"] == "cusp")
        assert event["lam"] == pytest.approx(cusp["lam"], abs=1e-6)


class TestHunt:
    def test_option_defaults_are_hunt_config_defaults(self):
        args = build_parser().parse_args(
            ["hunt", "--problem", "bratu", "--grid", "6"])
        opts = _resolve(args, {}, HUNT_CMD_OPTIONS)
        assert _hunt_config(opts) == HuntConfig()

    @pytest.mark.parametrize("command", ["hunt", "converge"])
    @pytest.mark.parametrize("widths", ["0,0,0", "3,nan,2.5", "3,-0.1,2.5"])
    def test_stage3_window_must_be_positive(self, tmp_path, capsys, command,
                                            widths):
        out = tmp_path / "out.json"
        rc = main([command, *STEP_COMMANDS[command],
                   "--stage3-window", widths, "--out", str(out)])
        assert rc == 2
        shown = tuple(float(w) for w in widths.split(","))
        assert capsys.readouterr().err == (
            f"error: --stage3-window widths must be positive, got {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hunt", "converge"])
    @pytest.mark.parametrize("offsets", ["0,0.01", "-0.005,0.01",
                                         "0.02,0.01", "0.01,0.01", "nan"])
    def test_pivot_offsets_must_rise_from_zero(self, tmp_path, capsys,
                                               command, offsets):
        out = tmp_path / "out.json"
        rc = main([command, *STEP_COMMANDS[command],
                   f"--pivot-offsets={offsets}", "--out", str(out)])
        assert rc == 2
        shown = tuple(float(o) for o in offsets.split(","))
        assert capsys.readouterr().err == (
            f"error: --pivot-offsets must be positive and strictly "
            f"increasing, got {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize("offsets,expected", [
        ("0.005,0.01,0.02", (0.005, 0.01, 0.02)), ("", ())])
    def test_rising_or_empty_pivot_offsets_allowed(self, offsets, expected):
        args = build_parser().parse_args(
            ["hunt", "--problem", "bratu", "--grid", "6",
             "--pivot-offsets", offsets])
        config = _hunt_config(_resolve(args, {}, HUNT_CMD_OPTIONS))
        assert config.pivot_offsets == expected

    def test_infinite_stage3_window_allowed(self):
        args = build_parser().parse_args(
            ["hunt", "--problem", "bratu", "--grid", "6",
             "--stage3-window", "inf,0.25,inf"])
        config = _hunt_config(_resolve(args, {}, HUNT_CMD_OPTIONS))
        assert config.stage3_window == (np.inf, 0.25, np.inf)

    def test_out_is_byte_reproducible(self, tmp_path, capsys):
        # the stage times go to standard error, never into the document
        args = ("--problem", "bratu", "--grid", "6x6", "--lam0",
                "0,0.15,2.0", "--lam3-direction", "-1",
                "--stage3-window", "3.0,0.25,2.5")
        docs = []
        for run in range(2):
            out = tmp_path / f"hunt{run}.json"
            assert main(["hunt", *args, "--out", str(out)]) == 0
            assert capsys.readouterr().err.startswith(
                "stage seconds: solution ")
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["stage_reached"] == "swallowtail"
        assert "timings" not in json.loads(docs[0])

    def test_report_and_states(self, hunt_dir, hunt_doc):
        assert hunt_doc["stage_reached"] == "swallowtail"
        kinds = [p["kind"] for p in hunt_doc["chain"]]
        assert kinds == ["solution", "fold", "cusp", "swallowtail"]
        sw = hunt_doc["chain"][-1]
        assert sw["residual_inf"] < 1e-9
        assert sw["files"] == {
            name: str(hunt_dir / "states" / f"swallowtail_{name}.txt")
            for name in ("u", "alpha", "vbar")}
        for name in ("u", "alpha", "vbar"):
            gf = load_grid_function(hunt_dir / "states" /
                                    f"swallowtail_{name}.txt")
            assert gf.grid.nx == 10

    def test_failed_monitor_solve_writes_partial_report(self, tmp_path,
                                                        capsys):
        # the 3x3 polynomial fold sits on a double eigenvalue: its
        # monitors' regularized solve is singular
        out = tmp_path / "h3.json"
        rc = main(["hunt", "--problem", "polynomial", "--tail", "1",
                   "--direct", "--grid", "3", "--out", str(out)])
        assert rc == 1
        note = ("fold monitors failed: SingularAuxiliaryError: regularized "
                "system is singular")
        assert capsys.readouterr().err.endswith(
            f"numerical failure: {note}\n")
        doc = json.loads(out.read_text())
        assert doc["stage_reached"] == "solution"
        assert doc["chain"] == []
        assert doc["note"] == note

    def test_saved_states_round_trip_bitwise(self, hunt_dir, hunt_doc):
        # the same deterministic hunt in process: saved text files must
        # reproduce every array exactly, and the rebuilt state must
        # reproduce the reported residual
        report = hunt_swallowtail(ExpSineNonlinearity(), Grid(10, 10),
                                  HuntConfig(lam0=(0.0, 0.15, 2.0),
                                             lam3_direction=-1,
                                             stage3_window=(3.0, 0.25, 2.5)))
        state = report.swallowtail.state
        entry = hunt_doc["chain"][-1]
        loaded = {name: load_grid_function(hunt_dir / "states" /
                                           f"swallowtail_{name}.txt").values
                  for name in ("u", "alpha", "vbar")}
        assert np.array_equal(loaded["u"], state.u)
        assert np.array_equal(loaded["alpha"], state.alpha)
        assert np.array_equal(loaded["vbar"], state.vbar)
        rebuilt = AugmentedState(Problem(Grid(10, 10), ExpSineNonlinearity()),
                                 3, loaded["u"],
                                 np.asarray(entry["lam"]),
                                 alpha=loaded["alpha"],
                                 vbar=loaded["vbar"], active=(0, 1, 2))
        residual = np.max(np.abs(residual_jacobian(rebuilt)[0]))
        assert residual < 1e-9

    def test_unreached_target_fails(self, tmp_path, capsys):
        rc = main(["hunt", "--problem", "bratu", "--grid", "6x6",
                   "--max-steps", "0", "--out", str(tmp_path / "h.json")])
        assert rc == 1
        assert "no fold event" in capsys.readouterr().err
        with open(tmp_path / "h.json") as fh:
            assert json.load(fh)["stage_reached"] == "solution"

    def test_bad_target_is_usage_error(self, tmp_path):
        rc = main(["hunt", "--problem", "bratu", "--grid", "6x6",
                   "--target", "butterfly", "--out", str(tmp_path / "h.json")])
        assert rc == 2


STEP_COMMANDS = {
    "continue": ("--problem", "bratu", "--grid", "4x4", "--level", "0",
                 "--active", "l1"),
    "hunt": ("--problem", "bratu", "--grid", "4x4"),
    "converge": ("--problem", "bratu", "--grids", "4,6", "--independent"),
}


@pytest.mark.parametrize("command", sorted(STEP_COMMANDS))
@pytest.mark.parametrize("flag,value,message", [
    ("--tol", "0", "--tol must be positive, got 0.0"),
    ("--tol", "inf", "--tol must be finite, got inf"),
    ("--ds0", "-1e-3", "--ds0 must be positive, got -0.001"),
    ("--ds-max", "0", "--ds-max must be positive, got 0.0"),
    ("--ds0", "inf", "--ds0 must be finite, got inf"),
    ("--ds-max", "inf", "--ds-max must be finite, got inf"),
    ("--bounds", "-5", "--bounds must be positive, got -5.0"),
    ("--max-steps", "-1", "--max-steps must be >= 0"),
    ("--max-newton", "0", "--max-newton must be >= 1"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
])
def test_step_controls_checked(tmp_path, capsys, command, flag, value,
                               message):
    out = tmp_path / "out.json"
    rc = main([command, *STEP_COMMANDS[command], f"{flag}={value}",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestConverge:
    @pytest.mark.parametrize("grids", ["5,4,3", "4,4"])
    def test_grid_list_must_increase(self, tmp_path, capsys, grids):
        out = tmp_path / "conv.json"
        rc = main(["converge", "--problem", "polynomial", "--tail", "1",
                   "--direct", "--grids", grids, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --grids: grid sizes must increase, got {grids!r}\n")
        assert not out.exists()

    def test_seeded_by_report(self, tmp_path, hunt_dir, hunt_doc):
        out = tmp_path / "conv.json"
        rc = main(["converge", "--problem", "bratu", "--grids", "10,15",
                   "--seed-report", str(hunt_dir / "hunt.json"),
                   "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert [r["N"] for r in doc["rows"]] == [10, 15]
        assert doc["rows"][0]["lam"] == hunt_doc["chain"][-1]["lam"]
        assert doc["rows"][0]["distance"] > doc["rows"][1]["distance"] == 0.0
        plot = tmp_path / "conv.csv"
        assert main(["export-plot", "--report", str(out),
                     "--out", str(plot)]) == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "dx,distance"
        assert float(lines[1].split(",")[0]) == pytest.approx(1.0 / 11.0)
        assert float(lines[2].split(",")[0]) == pytest.approx(1.0 / 16.0)

    def test_seeds_by_hunting_the_coarsest_grid(self, tmp_path, capsys):
        out = tmp_path / "conv.json"
        args = ["converge", "--problem", "polynomial", "--tail", "1",
                "--grids", "1,3", "--out", str(out)]
        assert main([*args, "--direct"]) == 0
        with open(out) as fh:
            assert [r["N"] for r in json.load(fh)["rows"]] == [1, 3]
        # the staged hunt's solution branch on one cell has no fold
        assert main(args) == 1
        assert "seeding hunt on 1x1 reached solution" in \
            capsys.readouterr().err

    def test_seed_grid_mismatch(self, tmp_path, hunt_dir, capsys):
        rc = main(["converge", "--problem", "bratu", "--grids", "15,20",
                   "--seed-report", str(hunt_dir / "hunt.json"),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert "coarsest" in capsys.readouterr().err

    def test_independent_rejects_seed_report(self, tmp_path, hunt_dir):
        rc = main(["converge", "--problem", "bratu", "--grids", "10,15",
                   "--independent",
                   "--seed-report", str(hunt_dir / "hunt.json"),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2

    def test_non_finite_seed_state_fails(self, tmp_path, hunt_dir,
                                         hunt_doc, capsys):
        doc = json.loads(json.dumps(hunt_doc))
        u = load_grid_function(_swallowtail_entry(doc)["files"]["u"])
        u.values[3] = np.nan
        save_grid_function(tmp_path / "u.txt", u)
        _swallowtail_entry(doc)["files"]["u"] = str(tmp_path / "u.txt")
        report, out = tmp_path / "nan.json", tmp_path / "c.json"
        report.write_text(json.dumps(doc))
        rc = main(["converge", "--problem", "bratu", "--grids", "10,15",
                   "--seed-report", str(report), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "numerical failure: RefinementError: seed report residual is "
            "nan")
        assert not out.exists()

    def test_grid_range_syntax(self):
        from aseries.cli import _parse_sizes
        assert _parse_sizes("10:85:5") == tuple(range(10, 86, 5))
        assert len(_parse_sizes("10:85:5")) == 16

    def test_failed_monitor_solve_keeps_finished_rows(self, tmp_path,
                                                      capsys):
        # the 3x3 hunt's fold monitors fail (see TestHunt); the 1x1 and
        # 2x2 rows stay in the written table
        out = tmp_path / "conv.json"
        rc = main(["converge", "--problem", "polynomial", "--tail", "1",
                   "--direct", "--grids", "1,2,3", "--independent",
                   "--out", str(out)])
        assert rc == 1
        note = ("stopped at N = 3: hunt reached solution (fold monitors "
                "failed: SingularAuxiliaryError: regularized system is "
                "singular)")
        assert capsys.readouterr().err.endswith(
            f"numerical failure: {note}\n")
        doc = json.loads(out.read_text())
        assert [row["N"] for row in doc["rows"]] == [1, 2]
        assert doc["note"] == note

    def test_report_without_states_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(
            {"chain": [{"kind": "swallowtail", "lam": [1, 2, 3]}]}))
        rc = main(["converge", "--problem", "bratu", "--grids", "10,15",
                   "--seed-report", str(path),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert "save-states" in capsys.readouterr().err


def _swallowtail_entry(doc):
    return next(e for e in doc["chain"] if e["kind"] == "swallowtail")


def _nine_by_nine_alpha(doc, tmp_path):
    path = tmp_path / "alpha9.txt"
    save_grid_function(path, GridFunction(np.ones(81), Grid(9, 9)))
    _swallowtail_entry(doc)["files"]["alpha"] = str(path)
    return doc


#: Malformed seed reports, each made from a copy of the CLI hunt's
#: report, and the cause that `converge` names for it.  dict.update
#: returns None and dict.pop the value, so `or doc` and `and doc` hand
#: on the edited copy.
MALFORMED_SEED_REPORTS = {
    "list-document": (lambda doc, tmp: [doc], "not a hunt report"),
    "number-path": (
        lambda doc, tmp: _swallowtail_entry(doc)["files"].update(u=5) or doc,
        "a bad value: "),
    "no-lam": (lambda doc, tmp: _swallowtail_entry(doc).pop("lam") and doc,
               "the swallowtail entry lacks the key 'lam'"),
    "two-lam": (
        lambda doc, tmp: _swallowtail_entry(doc).update(lam=[8.0, 0.1])
        or doc, "lam must be three finite numbers, got [8.0, 0.1]"),
    "null-lam": (
        lambda doc, tmp: _swallowtail_entry(doc).update(lam=[8.0, 0.1, None])
        or doc, "lam must be three finite numbers, got [8.0, 0.1, None]"),
    "text-lam": (
        lambda doc, tmp: _swallowtail_entry(doc).update(lam="8,0.1,2")
        or doc, "a bad value: "),
    "undecodable": (lambda doc, tmp: b'{"chain": "\xff"}',
                    "'utf-8' codec can't decode"),
    "mixed-grids": (_nine_by_nine_alpha,
                    "alpha lives on 9x9; the coarsest requested grid is "
                    "10x10"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SEED_REPORTS))
def test_malformed_seed_report_is_usage_error(tmp_path, capsys, hunt_doc,
                                              case):
    make, cause = MALFORMED_SEED_REPORTS[case]
    path, out = tmp_path / "bad.json", tmp_path / "c.json"
    made = make(json.loads(json.dumps(hunt_doc)), tmp_path)
    path.write_bytes(made if isinstance(made, bytes)
                     else json.dumps(made).encode())
    rc = main(["converge", "--problem", "bratu", "--grids", "10,15",
               "--seed-report", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --seed-report: {cause}")
    assert "Traceback" not in err
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("the command computed before checking its outputs")


#: Each command with an output it cannot write, the usage error it
#: gives, and the outputs that must not appear; "{tmp}" is the test's
#: directory, and "taken" there is an existing file.
UNWRITABLE_OUTPUTS = {
    "hunt-out": (["hunt", "--problem", "bratu", "--grid", "6x6",
                  "--out", "{tmp}/nodir/x.json"],
                 "--out: no directory '{tmp}/nodir' for "
                 "'{tmp}/nodir/x.json'", []),
    "hunt-save-states": (["hunt", "--problem", "bratu", "--grid", "6x6",
                          "--save-states", "{tmp}/taken",
                          "--out", "{tmp}/h.json"],
                         "--save-states: [Errno 17] File exists: "
                         "'{tmp}/taken'", ["h.json"]),
    "continue-out": (["continue", "--problem", "bratu", "--grid", "6x6",
                      "--out", "{tmp}/nodir/b.csv"],
                     "--out: no directory '{tmp}/nodir' for "
                     "'{tmp}/nodir/b.csv'", []),
    "continue-events": (["continue", "--problem", "bratu", "--grid", "6x6",
                         "--out", "{tmp}/b.csv",
                         "--events", "{tmp}/nodir/e.json"],
                        "--events: no directory '{tmp}/nodir' for "
                        "'{tmp}/nodir/e.json'", ["b.csv"]),
    "continue-directory": (["continue", "--problem", "bratu", "--grid",
                            "6x6", "--out", "{tmp}"],
                           "--out: '{tmp}' is a directory", []),
    "converge-out": (["converge", "--problem", "bratu", "--grids", "4,6",
                      "--out", "{tmp}/nodir/c.json"],
                     "--out: no directory '{tmp}/nodir' for "
                     "'{tmp}/nodir/c.json'", []),
    "export-plot-out": (["export-plot", "--report", "{tmp}/taken",
                         "--out", "{tmp}/nodir/p.csv"],
                        "--out: no directory '{tmp}/nodir' for "
                        "'{tmp}/nodir/p.csv'", []),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_is_usage_error_before_any_work(
        tmp_path, capsys, monkeypatch, case):
    argv, message, absent = UNWRITABLE_OUTPUTS[case]
    for name in ("initial_point", "run_branch", "hunt_swallowtail",
                 "convergence_study"):
        monkeypatch.setattr(cli, name, _no_work)
    (tmp_path / "taken").write_text('{"rows": []}')
    tmp = str(tmp_path)
    rc = main([arg.format(tmp=tmp) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {message.format(tmp=tmp)}\n"
    assert not any((tmp_path / name).exists() for name in absent)


def test_write_failure_after_the_check_is_usage_error(tmp_path, capsys,
                                                      monkeypatch):
    # a directory that vanishes between the check and the write
    out = tmp_path / "gone" / "p.csv"
    out.parent.mkdir()
    src = tmp_path / "conv.json"
    src.write_text(json.dumps({"rows": [{"N": 3, "distance": 1.0}]}))
    check = cli._check_outputs

    def check_then_remove(*outputs):
        check(*outputs)
        out.parent.rmdir()

    monkeypatch.setattr(cli, "_check_outputs", check_then_remove)
    assert main(["export-plot", "--report", str(src),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: [Errno 2] No such file or "
                          "directory: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, flag, text", [
    (("hunt", *STEP_COMMANDS["hunt"]), "lam0", "{},0,0"),
    (("converge", *STEP_COMMANDS["converge"]), "lam0", "0,0.15,{}"),
    (("continue", *STEP_COMMANDS["continue"]), "lam", "0,{},0"),
    (("hunt", "--problem", "polynomial", "--direct", "--grid", "3"),
     "tail", "{}"),
    (("converge", "--problem", "polynomial", "--direct", "--grids", "1,2"),
     "tail", "1,{}"),
], ids=["hunt-lam0", "converge-lam0", "continue-lam", "hunt-tail",
        "converge-tail"])
def test_non_finite_parameters_are_usage_errors(tmp_path, capsys,
                                                monkeypatch, argv, flag,
                                                text, value):
    for name in ("initial_point", "run_branch", "hunt_swallowtail",
                 "convergence_study"):
        monkeypatch.setattr(cli, name, _no_work)
    out = tmp_path / "out.json"
    given = text.format(value)
    rc = main([*argv, f"--{flag}={given}", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --{flag}: values must be finite, got {given!r}\n")
    assert not out.exists()


def write_cusp_tensors(path):
    """Quartic in x plus quadratic in y: canonical positive cusp."""
    t4 = ["6" if i == 0 else "0" for i in range(16)]
    path.write_text("tensor 1\n0 0\ntensor 2\n0 0\n0 1\n"
                    "tensor 3\n" + " ".join(["0"] * 8) + "\n"
                    "tensor 4\n" + " ".join(t4) + "\n")


class TestClassify:
    def test_canonical_cusp(self, tmp_path, capsys):
        path = tmp_path / "cusp.txt"
        write_cusp_tensors(path)
        rc = main(["classify", "--tensors", str(path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "A3, positive"
        assert out[1] == "kernel dimension: 1"

    def test_gradient_rules_out_critical_point(self, tmp_path, capsys):
        path = tmp_path / "grad.txt"
        path.write_text("tensor 1\n1 0\ntensor 2\n1 0\n0 1\n"
                        "tensor 3\n" + " ".join(["0"] * 8) + "\n")
        rc = main(["classify", "--tensors", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "not-critical"

    def test_zero_one_dimensional_tensors_give_a_report(self, tmp_path,
                                                         capsys):
        path = tmp_path / "zero.txt"
        path.write_text("".join(f"tensor {k}\n0\n" for k in range(1, 5)))
        rc = main(["classify", "--tensors", str(path)])
        captured = capsys.readouterr()
        assert rc == 0 and "Traceback" not in captured.err
        assert captured.out.splitlines()[:2] == ["undetermined",
                                                 "kernel dimension: 1"]

    def test_wrong_value_count(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("tensor 1\n0 0\ntensor 2\n1 0 0\n")
        rc = main(["classify", "--tensors", str(path)])
        assert rc == 2
        assert "tensor 2" in capsys.readouterr().err

    def test_needs_order_three(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("tensor 1\n0 0\ntensor 2\n1 0\n0 1\n")
        assert main(["classify", "--tensors", str(path)]) == 2

    def test_comments_and_loader(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\ntensor 1\n1 2 # inline\ntensor 2\n"
                        + " ".join(str(i) for i in range(4)) + "\n")
        tensors = load_tensor_file(str(path))
        assert tensors[0].tolist() == [1.0, 2.0]
        assert tensors[1].shape == (2, 2)


class TestExportPlot:
    def test_convergence_document(self, tmp_path):
        src = tmp_path / "conv.json"
        src.write_text(json.dumps({"rows": [
            {"N": 10, "lam": [1, 0, 0], "newton_iters": 2, "distance": 0.5},
            {"N": 21, "lam": [1, 0, 0], "newton_iters": 2, "distance": 0.0},
        ]}))
        out = tmp_path / "plot.csv"
        assert main(["export-plot", "--report", str(src),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dx,distance"
        assert float(lines[1].split(",")[0]) == pytest.approx(1.0 / 11.0)
        assert [float(line.split(",")[1]) for line in lines[1:]] == [0.5, 0.0]

    def test_hunt_document(self, tmp_path, hunt_dir):
        out = tmp_path / "chain.csv"
        assert main(["export-plot", "--report", str(hunt_dir / "hunt.json"),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kind,lambda1")
        assert lines[-1].startswith("swallowtail,")

    def test_geometry_document(self, tmp_path):
        # no command writes geometry reports, so export-plot rejects them
        src = tmp_path / "geom.json"
        src.write_text(json.dumps({"slices": [
            {"side": "cusp", "lam3": 0.7, "polyline": [[8.0, 0.1]],
             "zeros": [[7.9, 0.12], [7.95, 0.13]]},
            {"side": "smooth", "lam3": 0.5, "polyline": [[8.1, 0.2]],
             "zeros": []},
        ]}))
        out = tmp_path / "geom.csv"
        assert main(["export-plot", "--report", str(src),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_document(self, tmp_path):
        src = tmp_path / "odd.json"
        src.write_text("{}")
        assert main(["export-plot", "--report", str(src),
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"rows": [{"N": 3}]}, "an entry lacks the key 'distance'"),
        ({"chain": [{"kind": "fold", "lam": [1, 0, 0], "newton_iters": 2}]},
         "an entry lacks the key 'residual_inf'"),
    ])
    def test_entry_without_a_key_is_usage_error(self, tmp_path, capsys, doc,
                                                message):
        src, out = tmp_path / "bad.json", tmp_path / "bad.csv"
        src.write_text(json.dumps(doc))
        assert main(["export-plot", "--report", str(src),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --report: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ({"rows": [{"N": "3", "distance": 1}]}, "an entry has a bad value: "),
        ({"rows": [{"N": -1, "distance": 1}]}, "an entry has a bad value: "),
        ({"chain": [{"kind": "fold", "lam": 1, "residual_inf": 0,
                     "newton_iters": 2}]}, "an entry has a bad value: "),
        ("rows", "unrecognized document"),
        (["chain"], "unrecognized document"),
    ], ids=["string-N", "N-minus-one", "scalar-lam", "string-document",
            "list-document"])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, doc,
                                      message):
        src, out = tmp_path / "bad.json", tmp_path / "bad.csv"
        src.write_text(json.dumps(doc))
        assert main(["export-plot", "--report", str(src),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: --report: {message}")
        assert not out.exists()

    def test_undecodable_file_is_usage_error(self, tmp_path, capsys):
        src, out = tmp_path / "bad.json", tmp_path / "bad.csv"
        src.write_bytes(b'{"rows": "\xff"}')
        assert main(["export-plot", "--report", str(src),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --report: ")
        assert "codec can't decode" in err
        assert not out.exists()
