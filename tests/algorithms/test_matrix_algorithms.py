"""Tests for the Sec. 4.3 algorithm front-ends (matmul, LU, Faddeev,
Givens, triangular inverse)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.faddeev import faddeev_ggraph, faddeev_graph, run_faddeev
from repro.algorithms.givens import givens_ggraph, run_givens
from repro.algorithms.lu import lu_ggraph, lu_reference, run_lu
from repro.algorithms.matmul import matmul_graph, run_matmul
from repro.algorithms.triangular_inverse import (
    run_triangular_inverse,
    triangular_inverse_ggraph,
    triangular_inverse_inputs,
)
from repro.core.analysis import max_fanout
from repro.core.ggraph import GGraph, group_by_columns


def well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random matrix safe for pivot-free elimination."""
    return rng.random((n, n)) + n * np.eye(n)


class TestMatmul:
    @given(
        n=st.integers(1, 5), p=st.integers(1, 5), q=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=15, deadline=None)
    def test_rectangular_products(self, n, p, q, seed) -> None:
        rng = np.random.default_rng(seed)
        a, b = rng.random((n, p)), rng.random((p, q))
        assert np.allclose(run_matmul(a, b), a @ b)

    def test_pipelined_no_broadcast(self) -> None:
        assert max_fanout(matmul_graph(5)) == 1

    def test_uniform_ggraph(self) -> None:
        gg = GGraph(matmul_graph(5), group_by_columns)
        assert gg.is_uniform_time()
        assert gg.grid_shape() == (5, 5)

    def test_shape_mismatch(self) -> None:
        from repro.algorithms.matmul import matmul_inputs

        with pytest.raises(ValueError, match="mismatch"):
            matmul_inputs(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_bad_dims(self) -> None:
        with pytest.raises(ValueError, match="positive"):
            matmul_graph(0)


class TestLU:
    @given(n=st.integers(2, 7), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_factors_reconstruct(self, n, seed) -> None:
        a = well_conditioned(np.random.default_rng(seed), n)
        lo, up = run_lu(a)
        assert np.allclose(lo @ up, a)
        assert np.allclose(lo, np.tril(lo))
        assert np.allclose(up, np.triu(up))
        assert np.allclose(np.diag(lo), 1.0)

    def test_matches_reference(self) -> None:
        a = well_conditioned(np.random.default_rng(0), 6)
        lo, up = run_lu(a)
        lr, ur = lu_reference(a)
        assert np.allclose(lo, lr) and np.allclose(up, ur)

    def test_reference_rejects_zero_pivot(self) -> None:
        with pytest.raises(ZeroDivisionError, match="pivot"):
            lu_reference(np.zeros((3, 3)))

    def test_fig22_time_pattern(self) -> None:
        gg = lu_ggraph(8)
        assert not gg.is_uniform_time()
        for k in gg.rows:
            row = gg.row_times(k)
            assert len(set(row)) == 1
            assert row[0] == 8 - 1 - k

    def test_nearest_neighbour_ggraph(self) -> None:
        gg = lu_ggraph(6)
        assert set(gg.edge_deltas()) <= {(0, 1), (1, 0), (1, 1)}

    def test_n_too_small(self) -> None:
        from repro.algorithms.lu import lu_graph

        with pytest.raises(ValueError, match="n >= 2"):
            lu_graph(1)


class TestFaddeev:
    @given(n=st.integers(1, 5), seed=st.integers(0, 100))
    @settings(max_examples=12, deadline=None)
    def test_schur_result(self, n, seed) -> None:
        rng = np.random.default_rng(seed)
        A = well_conditioned(rng, n)
        B, C, D = rng.random((n, n)), rng.random((n, n)), rng.random((n, n))
        got = run_faddeev(A, B, C, D)
        assert np.allclose(got, D + C @ np.linalg.inv(A) @ B)

    def test_inverse_special_case(self) -> None:
        """B = I, D = 0, C = I gives the matrix inverse."""
        rng = np.random.default_rng(4)
        A = well_conditioned(rng, 4)
        eye, zero = np.eye(4), np.zeros((4, 4))
        assert np.allclose(run_faddeev(A, eye, eye, zero), np.linalg.inv(A))

    def test_decreasing_times(self) -> None:
        gg = faddeev_ggraph(5)
        firsts = [gg.row_times(k)[0] for k in gg.rows]
        assert firsts == sorted(firsts, reverse=True)

    def test_block_shape_check(self) -> None:
        from repro.algorithms.faddeev import faddeev_inputs

        with pytest.raises(ValueError, match="block B"):
            faddeev_inputs(np.eye(3), np.eye(2), np.eye(3), np.eye(3))

    def test_no_broadcast(self) -> None:
        assert max_fanout(faddeev_graph(4)) <= 3


class TestGivens:
    @given(n=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=12, deadline=None)
    def test_r_factor_properties(self, n, seed) -> None:
        a = np.random.default_rng(seed).random((n, n)) + np.eye(n)
        r = run_givens(a)
        assert np.allclose(r, np.triu(r))
        assert np.allclose(r.T @ r, a.T @ a)

    def test_matches_numpy_qr_up_to_signs(self) -> None:
        a = np.random.default_rng(1).random((5, 5))
        r_ours = run_givens(a)
        r_np = np.linalg.qr(a).R if hasattr(np.linalg.qr(a), "R") else np.linalg.qr(a)[1]
        assert np.allclose(np.abs(r_ours), np.abs(r_np))

    def test_strongly_decreasing_times(self) -> None:
        gg = givens_ggraph(7)
        firsts = [gg.row_times(k)[0] for k in gg.rows]
        assert firsts == sorted(firsts, reverse=True)
        assert firsts[0] > 2 * firsts[-1]

    def test_n_too_small(self) -> None:
        from repro.algorithms.givens import givens_graph

        with pytest.raises(ValueError, match="n >= 2"):
            givens_graph(1)


class TestTriangularInverse:
    @given(n=st.integers(1, 7), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_inverse_correct(self, n, seed) -> None:
        u = np.triu(np.random.default_rng(seed).random((n, n)) + 1.0)
        inv = run_triangular_inverse(u)
        assert np.allclose(inv, np.linalg.inv(u))
        assert np.allclose(u @ inv, np.eye(n), atol=1e-9)

    def test_increasing_column_times(self) -> None:
        gg = triangular_inverse_ggraph(7)
        times = gg.row_times(0)
        assert list(times) == sorted(times)
        assert times[-1] > times[0]

    def test_rejects_non_triangular(self) -> None:
        with pytest.raises(ValueError, match="upper triangular"):
            triangular_inverse_inputs(np.ones((3, 3)))


class TestPartitionedMatmul:
    """Matrix product through the *whole* pipeline: second application."""

    def test_ggraph_structure(self) -> None:
        from repro.algorithms.matmul import matmul_ggraph

        gg = matmul_ggraph(6)
        assert gg.is_uniform_time()
        assert gg.grid_shape() == (6, 6)
        assert set(gg.edge_deltas()) == {(0, 1), (1, 0)}  # no skew

    @given(
        n=st.integers(3, 6),
        m=st.integers(1, 4),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=10, deadline=None)
    def test_linear_array_computes_product(self, n, m, seed) -> None:
        from repro.algorithms.matmul import matmul_graph, matmul_inputs, matmul_group_by_columns
        from repro.core.ggraph import GGraph
        from repro.core.gsets import make_linear_gsets, schedule_gsets
        from repro.core.semiring import REAL
        from repro.arrays.cycle_sim import simulate
        from repro.arrays.plan import partitioned_plan

        rng = np.random.default_rng(seed)
        a, b = rng.random((n, n)), rng.random((n, n))
        dg = matmul_graph(n)
        gg = GGraph(dg, matmul_group_by_columns)
        plan = make_linear_gsets(gg, m)
        ep = partitioned_plan(plan, schedule_gsets(plan))
        res = simulate(ep, dg, matmul_inputs(a, b), REAL)
        assert res.ok
        got = np.array(
            [[res.outputs[("out", i, j)] for j in range(n)] for i in range(n)]
        )
        assert np.allclose(got, a @ b)

    def test_mesh_array_computes_product(self) -> None:
        from repro.algorithms.matmul import matmul_graph, matmul_inputs, matmul_group_by_columns
        from repro.core.ggraph import GGraph
        from repro.core.gsets import make_mesh_gsets, schedule_gsets
        from repro.core.semiring import REAL
        from repro.arrays.cycle_sim import simulate
        from repro.arrays.plan import partitioned_plan

        n = 6
        rng = np.random.default_rng(3)
        a, b = rng.random((n, n)), rng.random((n, n))
        dg = matmul_graph(n)
        gg = GGraph(dg, matmul_group_by_columns)
        plan = make_mesh_gsets(gg, 4)
        ep = partitioned_plan(plan, schedule_gsets(plan))
        res = simulate(ep, dg, matmul_inputs(a, b), REAL)
        assert res.ok and ep.stall_cycles == 0
        got = np.array(
            [[res.outputs[("out", i, j)] for j in range(n)] for i in range(n)]
        )
        assert np.allclose(got, a @ b)

    def test_boolean_semiring_matmul_on_array(self) -> None:
        """The same graph computes boolean reachability products."""
        from repro.algorithms.matmul import matmul_graph
        from repro.core.evaluate import evaluate
        from repro.core.semiring import BOOLEAN

        n = 4
        rng = np.random.default_rng(5)
        a = rng.random((n, n)) < 0.5
        b = rng.random((n, n)) < 0.5
        dg = matmul_graph(n).copy()
        env = {}
        for i in range(n):
            for k in range(n):
                env[("a", i, k)] = bool(a[i, k])
        for k in range(n):
            for j in range(n):
                env[("b", k, j)] = bool(b[k, j])
        # Boolean semiring: zero = False (the const feeds the accumulator).
        for i in range(n):
            for j in range(n):
                dg.set_attr(("zero", i, j), "value", False)
        outs = evaluate(dg, env, BOOLEAN)
        got = np.array([[outs[("out", i, j)] for j in range(n)] for i in range(n)])
        expected = (a.astype(int) @ b.astype(int)) > 0
        assert np.array_equal(got, expected)
