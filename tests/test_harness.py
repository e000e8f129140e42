"""Staged hunts, grid refinement, convergence tables, slice geometry."""

import json

import numpy as np
import pytest

from aseries import continuation
from aseries.augmented import AugmentedState, Problem, residual_jacobian
from aseries.continuation import SingularJacobianError
from aseries.harness import (
    ConvergenceTable,
    GeometryReport,
    HuntConfig,
    HuntReport,
    RefinementError,
    convergence_study,
    hunt_swallowtail,
    locate,
    refine_on_grid,
    verify_swallowtail_geometry,
)
from aseries.poisson import ExpSineNonlinearity, Grid, PolynomialNonlinearity


def eigenvalue(n: int) -> float:
    """Smallest discrete Laplacian eigenvalue on the n x n unit-square grid."""
    return 8.0 * (n + 1) ** 2 * np.sin(np.pi / (2.0 * (n + 1))) ** 2


# frozen from deterministic seed-0 runs of this code; the exp-sine hunts
# start on the known trivial solution at the configured parameter point
ROBUST_CONFIG = HuntConfig(lam0=(0.0, 0.15, 2.0), lam2_direction=1,
                           lam3_direction=-1, stage3_window=(3.0, 0.25, 2.5))
ROBUST_FOLD_10 = 8.16922549
ROBUST_CUSP_10 = (8.29019862, 0.16625061, 2.0)
ROBUST_SW_10 = (7.92470797, 0.12333479, 0.62203896)
ROBUST_SW_15 = (7.93108547, 0.12313157, 0.63524057)
DEFAULT_SW_10 = (10.20337257, 0.24212245, 0.00352326)


@pytest.fixture(scope="module")
def robust_report():
    return hunt_swallowtail(ExpSineNonlinearity(), Grid(10, 10),
                            ROBUST_CONFIG)


@pytest.fixture(scope="module")
def robust_sw(robust_report):
    assert robust_report.stage_reached == "swallowtail"
    return robust_report.swallowtail.state


@pytest.fixture(scope="module")
def geometry_report(robust_sw):
    return verify_swallowtail_geometry(robust_sw)


@pytest.fixture(scope="module")
def poly_report():
    config = HuntConfig(direct_start=True)
    return hunt_swallowtail(PolynomialNonlinearity((1.0,)), Grid(1, 1),
                            config)


class TestLocate:
    def test_rejects_non_square_template(self):
        prob = Problem(Grid(1, 1), PolynomialNonlinearity())
        tmpl = AugmentedState(prob, 1, np.zeros(1), np.zeros(3),
                              alpha=np.array([2.0]), active=(0, 1))
        with pytest.raises(ValueError, match="square"):
            locate(tmpl)

    def test_solves_single_cell_fold(self):
        prob = Problem(Grid(1, 1), PolynomialNonlinearity())
        tmpl = AugmentedState(prob, 1, np.zeros(1),
                              np.array([15.0, 0.0, 0.0]),
                              alpha=np.array([1.5]), active=(0,))
        state, iters = locate(tmpl)
        assert state.lam[0] == pytest.approx(16.0, abs=1e-9)
        assert abs(state.alpha[0]) == pytest.approx(2.0, abs=1e-9)
        assert iters <= 8


class TestDirectChain:
    def test_reaches_exact_eigenpoint(self, poly_report):
        # quartic tail keeps u = 0 a root at every parameter; each level
        # pins one more parameter component to zero
        assert poly_report.stage_reached == "swallowtail"
        assert [p.kind for p in poly_report.chain] == [
            "fold", "cusp", "swallowtail"]
        sw = poly_report.swallowtail
        assert sw.lam[0] == pytest.approx(eigenvalue(1), abs=1e-9)
        assert sw.lam[1] == pytest.approx(0.0, abs=1e-9)
        assert sw.lam[2] == pytest.approx(0.0, abs=1e-9)

    def test_each_stage_converges_fast(self, poly_report):
        for point in poly_report.chain:
            assert point.newton_iters <= 3
            assert point.residual_inf < 1e-9

    def test_butterfly_value_on_single_cell(self, poly_report):
        # f'''' = 1 at the origin; the closed form gives 32 on one cell
        monitors = poly_report.swallowtail.monitors
        assert monitors.butterfly == pytest.approx(32.0, rel=1e-6)
        assert abs(monitors.cusp) < 1e-6
        assert abs(monitors.swallowtail) < 1e-6


class TestHuntBudget:
    def test_zero_steps_gives_partial_report(self):
        config = HuntConfig(max_steps=0)
        report = hunt_swallowtail(ExpSineNonlinearity(), Grid(6, 6), config)
        assert report.stage_reached == "solution"
        assert report.events == []
        assert [p.kind for p in report.chain] == ["solution"]
        assert report.note.startswith("no fold event")

    def test_singular_fold_solve_gives_partial_report(self, monkeypatch):
        # only the square fold system on 6 x 6 has 2 * 36 + 1 rows
        solve = continuation._linear_solve

        def singular_fold(mat, rhs):
            if mat.shape[0] == 2 * 36 + 1:
                raise SingularJacobianError("Factor is exactly singular")
            return solve(mat, rhs)

        monkeypatch.setattr(continuation, "_linear_solve", singular_fold)
        report = hunt_swallowtail(ExpSineNonlinearity(), Grid(6, 6))
        assert report.stage_reached == "solution"
        assert [p.kind for p in report.chain] == ["solution"]
        assert report.note.startswith("fold system did not converge: "
                                      "SingularJacobianError")


class TestStagedHunt:
    def test_chain_matches_frozen_run(self, robust_report):
        fold = robust_report.located("fold")
        cusp = robust_report.located("cusp")
        sw = robust_report.swallowtail
        assert fold.lam[0] == pytest.approx(ROBUST_FOLD_10, abs=2e-6)
        assert cusp.lam == pytest.approx(ROBUST_CUSP_10, abs=2e-6)
        assert sw.lam == pytest.approx(ROBUST_SW_10, abs=2e-6)

    def test_all_events_refined(self, robust_report):
        assert len(robust_report.events) == 3
        assert [e["stage"] for e in robust_report.events] == [
            "solution", "fold", "cusp"]
        assert all(not e["approximate"] for e in robust_report.events)

    def test_chain_residuals_stay_converged(self, robust_report):
        for point in robust_report.chain:
            assert point.residual_inf < 1e-9
            fresh = np.max(np.abs(residual_jacobian(point.state)[0]))
            assert fresh < 1e-9

    def test_butterfly_bounded_away_from_zero(self, robust_report):
        assert abs(robust_report.swallowtail.monitors.butterfly) > 1e3

    def test_report_serializes(self, robust_report):
        doc = json.loads(robust_report.to_json({"swallowtail": {"u": "u.txt"}}))
        assert doc["stage_reached"] == "swallowtail"
        assert doc["grid"] == [10, 10]
        kinds = [entry["kind"] for entry in doc["chain"]]
        assert kinds[-1] == "swallowtail"
        assert doc["chain"][-1]["files"] == {"u": "u.txt"}
        assert doc["config"]["lam0"] == [0.0, 0.15, 2.0]


class TestPivotLadder:
    def test_divergent_cusp_line_triggers_pivot(self):
        # from the origin the first cusp line never crosses the monitor
        # inside the window; the hunt must re-slice onto a neighbour
        report = hunt_swallowtail(ExpSineNonlinearity(), Grid(10, 10),
                                  HuntConfig())
        assert report.stage_reached == "swallowtail"
        assert any(e["stage"] == "pivot" for e in report.events)
        assert "pivot slice" in report.note
        cusps = [p for p in report.chain if p.kind == "cusp"]
        assert len(cusps) == 2
        assert cusps[1].note == "pivot slice"
        assert report.swallowtail.lam == pytest.approx(DEFAULT_SW_10,
                                                       abs=2e-6)


class TestRefinement:
    def test_same_grid_is_fixed_point(self, robust_sw):
        state, iters = refine_on_grid(robust_sw, Grid(10, 10))
        assert iters == 0
        assert np.array_equal(state.u, robust_sw.u)
        assert np.array_equal(state.alpha, robust_sw.alpha)

    def test_refines_to_finer_grid(self, robust_sw):
        state, iters = refine_on_grid(robust_sw, Grid(15, 15))
        assert state.lam == pytest.approx(ROBUST_SW_15, abs=2e-6)
        assert iters <= 10
        assert np.sqrt(Grid(15, 15).cell_area *
                       (state.alpha @ state.alpha)) == pytest.approx(1.0)

    def test_starved_newton_reports_best_state(self, poly_report):
        sw = poly_report.swallowtail.state
        with pytest.raises(RefinementError) as info:
            refine_on_grid(sw, Grid(3, 3), max_newton=1)
        err = info.value
        assert err.state is not None
        assert err.state.problem.grid.nx == 3
        assert err.residual_norm > 1e-9


class TestConvergenceStudy:
    def test_polynomial_positions_match_formula(self, poly_report):
        table = convergence_study(PolynomialNonlinearity((1.0,)), (1, 3, 7),
                                  poly_report.swallowtail.state)
        assert [row.n for row in table.rows] == [1, 3, 7]
        for row in table.rows:
            assert row.lam[0] == pytest.approx(eigenvalue(row.n), abs=1e-9)
            assert row.lam[1] == pytest.approx(0.0, abs=1e-9)
            assert row.lam[2] == pytest.approx(0.0, abs=1e-9)
            assert row.newton_iters <= 8
        dists = [row.distance for row in table.rows]
        assert dists[0] > dists[1] > dists[2] == 0.0
        assert table.note == ""

    def test_deltas_pair_spacing_with_distance(self, poly_report):
        table = convergence_study(PolynomialNonlinearity((1.0,)), (1, 3),
                                  poly_report.swallowtail.state)
        (h0, d0), (h1, d1) = table.deltas
        assert h0 == pytest.approx(0.5)
        assert h1 == pytest.approx(0.25)
        assert d0 > d1 == 0.0

    def test_single_grid_table(self, poly_report):
        table = convergence_study(PolynomialNonlinearity((1.0,)), [1],
                                  poly_report.swallowtail.state)
        assert len(table.rows) == 1
        assert table.rows[0].distance == 0.0

    def test_rejects_seed_on_wrong_grid(self, poly_report):
        with pytest.raises(ValueError, match="wrong grid"):
            convergence_study(PolynomialNonlinearity((1.0,)), (3, 7),
                              poly_report.swallowtail.state)

    def test_rejects_empty_size_list(self, poly_report):
        with pytest.raises(ValueError):
            convergence_study(PolynomialNonlinearity((1.0,)), (),
                              poly_report.swallowtail.state)

    def test_independent_hunts_match_chained(self):
        # from-scratch direct chains per grid; starting inside the first
        # eigenvalue's basin keeps every grid on the same sheet
        config = HuntConfig(direct_start=True, lam0=(18.0, 0.0, 0.0))
        table = convergence_study(PolynomialNonlinearity((1.0,)), (1, 3),
                                  independent=True, config=config)
        assert [row.n for row in table.rows] == [1, 3]
        for row in table.rows:
            assert row.lam[0] == pytest.approx(eigenvalue(row.n), abs=1e-9)
            assert row.lam[1] == pytest.approx(0.0, abs=1e-9)
            assert row.lam[2] == pytest.approx(0.0, abs=1e-9)

    def test_independent_mode_needs_config(self):
        with pytest.raises(ValueError, match="config"):
            convergence_study(PolynomialNonlinearity((1.0,)), (1, 3),
                              independent=True)

    def test_chained_mode_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            convergence_study(PolynomialNonlinearity((1.0,)), (1, 3))

    def test_truncates_on_refinement_failure(self, poly_report):
        table = convergence_study(PolynomialNonlinearity((1.0,)), (1, 3),
                                  poly_report.swallowtail.state, max_newton=1)
        assert len(table.rows) == 1
        assert table.note.startswith("stopped at N = 3")

    def test_truncates_on_singular_solve(self, poly_report, monkeypatch):
        # the level-3 matrix on the 7 x 7 grid has 3 * 49 + 3 rows
        solve = continuation._linear_solve

        def singular_beyond_3x3(mat, rhs):
            if mat.shape[0] > 3 * 9 + 3:
                raise SingularJacobianError("Factor is exactly singular")
            return solve(mat, rhs)

        monkeypatch.setattr(continuation, "_linear_solve", singular_beyond_3x3)
        table = convergence_study(PolynomialNonlinearity((1.0,)), (1, 3, 7),
                                  poly_report.swallowtail.state)
        assert [row.n for row in table.rows] == [1, 3]
        assert table.note.startswith("stopped at N = 7")
        assert "SingularJacobianError" in table.note

    def test_serializes(self, poly_report):
        table = convergence_study(PolynomialNonlinearity((1.0,)), (1, 3),
                                  poly_report.swallowtail.state)
        doc = json.loads(table.to_json())
        assert [row["N"] for row in doc["rows"]] == [1, 3]
        assert doc["rows"][1]["distance"] == 0.0


class TestGeometry:
    def test_counts_two_and_zero(self, geometry_report):
        assert geometry_report.counts == (2, 0)
        assert geometry_report.cusp_side == 1
        assert not geometry_report.at_singularity

    def test_slice_details(self, geometry_report, robust_sw):
        by_side = {s.side: s for s in geometry_report.slices}
        assert set(by_side) == {"cusp", "smooth"}
        cusp_slice = by_side["cusp"]
        assert cusp_slice.start == "anchored-cusp"
        assert cusp_slice.count == 2
        assert len(cusp_slice.zeros) == 2
        gap = np.linalg.norm(np.asarray(cusp_slice.zeros[0]) -
                             np.asarray(cusp_slice.zeros[1]))
        assert gap > 1e-4
        smooth = by_side["smooth"]
        assert smooth.start == "fold-solve"
        assert smooth.count == 0
        assert smooth.polyline  # the fold line itself persists
        # the two slices sit symmetrically about the located point
        lam3_sw = robust_sw.lam[2]
        assert cusp_slice.lam3 - lam3_sw == pytest.approx(
            lam3_sw - smooth.lam3, abs=1e-12)

    def test_zero_offset_flags_singularity(self, poly_report):
        report = verify_swallowtail_geometry(poly_report.swallowtail.state)
        assert report.at_singularity
        assert report.counts is None

    def test_serializes(self, geometry_report):
        doc = json.loads(geometry_report.to_json())
        assert doc["counts"] == [2, 0]
        assert len(doc["slices"]) == 2
        assert all(s["polyline_points"] >= 1 or s["side"] == "cusp"
                   for s in doc["slices"])

    def test_rejects_solution_level_state(self):
        prob = Problem(Grid(1, 1), PolynomialNonlinearity())
        state = AugmentedState(prob, 0, np.zeros(1),
                               np.array([1.0, 0.0, 0.5]), active=(0,))
        with pytest.raises(ValueError, match="kernel"):
            verify_swallowtail_geometry(state)
