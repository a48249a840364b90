"""Operator algebra, constructors, and the hypoellipticity diagnostics."""

import tracemalloc
import warnings

import numpy as np
import pytest

from torusbayes.lattice import SpectralField, build_lattice, forward_transform, sobolev_norm
from torusbayes.operators import (
    MAX_DENSE,
    DenseOp,
    MultiplierOp,
    _Handover,
    adjoint,
    apply,
    bessel_op,
    compose,
    densify,
    heat_op,
    hypoellipticity_check,
    hypoellipticity_refinement,
    invert,
    norm_sandwich_check,
    symbol_values,
    variable_coeff_op,
)


def random_field(lat, seed):
    rng = np.random.default_rng(seed)
    return forward_transform(lat, rng.standard_normal(lat.shape))


def l2_inner(u, v):
    return np.sum(u.coeffs * np.conj(v.coeffs))


class TestConstructors:
    def test_bessel_symbol_and_orders(self):
        lat = build_lattice(2, 8)
        op = bessel_op(-1.0)
        vals = symbol_values(op, lat)
        assert np.allclose(vals, 1.0 / (1.0 + lat.weights))
        assert op.order_t == 2.0 and op.order_t0 == 2.0
        assert bessel_op(0.5).order_t == -1.0

    @pytest.mark.parametrize("a", [-2.5, -1.0, -0.5, 0.0, 0.75, 2.0])
    def test_bessel_symbol_is_the_sobolev_weight(self, a):
        for lat in (build_lattice(1, 16), build_lattice(2, 8), build_lattice(3, 4)):
            expected = (1.0 + np.sum(lat.freqs.astype(np.float64) ** 2, axis=1)) ** a
            assert np.array_equal(symbol_values(bessel_op(a), lat), expected)

    def test_bessel_zero_is_identity(self):
        lat = build_lattice(1, 8)
        u = random_field(lat, 0)
        assert np.array_equal(apply(bessel_op(0.0), u).coeffs, u.coeffs)

    def test_heat_symbol_values(self):
        lat = build_lattice(2, 8)
        op = heat_op(1)
        vals = symbol_values(op, lat)
        lx, lt = lat.freqs[:, 0], lat.freqs[:, 1]
        expected = 1.0 / (1.0 + 1j * lt + lx**2)
        # Re a on the time-Nyquist plane l_t = -n/2, where l and -l share l_t
        nyquist = lt == -lat.n_per_dim // 2
        expected[nyquist] = expected[nyquist].real
        assert np.allclose(vals, expected)
        assert np.all(vals[nyquist].imag == 0)
        assert op.order_t == 1.0 and op.order_t0 == 2.0

    def test_heat_rejects_wrong_lattice_dim(self):
        lat = build_lattice(1, 8)
        with pytest.raises(ValueError):
            symbol_values(heat_op(1), lat)
        with pytest.raises(ValueError):
            heat_op(3)

    def test_multiplier_requires_t_le_t0(self):
        with pytest.raises(ValueError):
            MultiplierOp(lambda lat: np.ones(lat.size, dtype=complex), 2.0, 1.0)

    def test_dense_size_cap(self):
        lat = build_lattice(2, 80)  # 6400 > MAX_DENSE
        assert lat.size > MAX_DENSE
        with pytest.raises(ValueError):
            DenseOp(lat, np.eye(lat.size, dtype=complex), 0.0, 0.0)

    def test_dense_copies_every_matrix_a_caller_passes(self):
        lat = build_lattice(1, 8)
        mat = np.eye(lat.size, dtype=complex)
        op = DenseOp(lat, mat)
        mat[0, 0] = 5.0  # a writeable matrix: later writes leave the operator unchanged
        assert op.matrix[0, 0] == 1.0 and not op.matrix.flags.writeable
        base = np.eye(lat.size, dtype=complex)
        view = base[:]
        view.setflags(write=False)
        op = DenseOp(lat, view)
        base[0, 0] = 5.0  # a read-only view of a writeable base
        assert op.matrix[0, 0] == 1.0
        owned = np.eye(lat.size, dtype=complex)
        alias = owned[:]
        owned.setflags(write=False)
        op = DenseOp(lat, owned)
        alias[0, 0] = 5.0  # read-only and owning its data, but a view taken before still writes it
        owned.setflags(write=True)
        owned[1, 1] = 5.0  # and its owner can make it writeable again
        assert op.matrix is not owned and op.matrix[0, 0] == op.matrix[1, 1] == 1.0

    def test_dense_takes_a_handed_over_matrix_as_is(self):
        lat = build_lattice(1, 8)
        mat = np.eye(lat.size, dtype=complex)
        op = DenseOp(lat, _Handover(mat))
        assert op.matrix is mat and not mat.flags.writeable
        dense = densify(bessel_op(-1.0), lat)
        assert not dense.matrix.flags.writeable and dense.matrix.flags.owndata


class TestAlgebra:
    def test_apply_multiplies_coefficients(self):
        lat = build_lattice(1, 8)
        u = random_field(lat, 1)
        out = apply(bessel_op(-1.0), u)
        assert np.allclose(out.coeffs, u.coeffs / (1.0 + lat.weights))

    def test_compose_orders_add(self):
        op = compose(bessel_op(-1.0), bessel_op(-0.5))
        assert op.order_t == 3.0 and op.order_t0 == 3.0

    def test_compose_matches_sequential_apply(self):
        lat = build_lattice(2, 8)
        u = random_field(lat, 2)
        a, b = heat_op(1), bessel_op(-1.0)
        lhs = apply(compose(a, b), u)
        rhs = apply(a, apply(b, u))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-14

    def test_compose_associative(self):
        lat = build_lattice(1, 16)
        rng = np.random.default_rng(3)
        ops = [bessel_op(-1.0), variable_coeff_op(1.0 + rng.random(lat.shape),
                                                  bessel_op(-0.5), lat),
               bessel_op(0.5)]
        u = random_field(lat, 4)
        lhs = apply(compose(compose(ops[0], ops[1]), ops[2]), u)
        rhs = apply(compose(ops[0], compose(ops[1], ops[2])), u)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12

    def test_adjoint_inner_product_identity(self):
        lat = build_lattice(1, 16)
        rng = np.random.default_rng(5)
        dense = variable_coeff_op(1.0 + rng.random(lat.shape), bessel_op(-1.0), lat)
        for op in (bessel_op(-1.0), dense):
            u, v = random_field(lat, 6), random_field(lat, 7)
            lhs = l2_inner(apply(op, u), v)
            rhs = l2_inner(u, apply(adjoint(op), v))
            assert abs(lhs - rhs) < 1e-12

    def test_adjoint_of_heat_conjugates_symbol(self):
        lat = build_lattice(2, 8)
        vals = symbol_values(adjoint(heat_op(1)), lat)
        assert np.allclose(vals, np.conj(symbol_values(heat_op(1), lat)))

    def test_invert_multiplier(self):
        lat = build_lattice(2, 8)
        op = heat_op(1)
        inv = invert(op)
        u = random_field(lat, 8)
        back = apply(inv, apply(op, u))
        assert np.abs(back.coeffs - u.coeffs).max() < 1e-12
        assert inv.order_t == -op.order_t0 and inv.order_t0 == -op.order_t

    def test_invert_rejects_vanishing_symbol(self):
        lat = build_lattice(1, 8)
        op = MultiplierOp(lambda lat: (lat.freqs[:, 0] != 0).astype(complex), 0.0, 0.0)
        with pytest.raises(ValueError):
            symbol_values(invert(op), lat)

    def test_invert_dense_roundtrip_and_singular(self):
        lat = build_lattice(1, 8)
        rng = np.random.default_rng(9)
        mat = np.eye(lat.size) + 0.1 * rng.standard_normal((lat.size, lat.size))
        op = DenseOp(lat, mat.astype(complex), 0.0, 0.0)
        ident = compose(op, invert(op))
        assert np.abs(ident.matrix - np.eye(lat.size)).max() < 1e-10
        singular = DenseOp(lat, np.zeros((lat.size, lat.size), dtype=complex), 0.0, 0.0)
        with pytest.raises(ValueError):
            invert(singular)

    def test_densify_matches_apply(self):
        lat = build_lattice(2, 6)
        op = heat_op(1)
        dense = densify(op, lat)
        u = random_field(lat, 10)
        assert np.abs(apply(dense, u).coeffs - apply(op, u).coeffs).max() < 1e-13

    def test_mixed_compose_dense_multiplier(self):
        lat = build_lattice(1, 8)
        rng = np.random.default_rng(11)
        dense = variable_coeff_op(1.0 + rng.random(lat.shape), bessel_op(0.0), lat)
        u = random_field(lat, 12)
        for pair in ((dense, bessel_op(-1.0)), (bessel_op(-1.0), dense)):
            lhs = apply(compose(*pair), u)
            rhs = apply(pair[0], apply(pair[1], u))
            assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-13

    def test_apply_checks_lattice(self):
        lat8, lat16 = build_lattice(1, 8), build_lattice(1, 16)
        dense = densify(bessel_op(-1.0), lat8)
        with pytest.raises(ValueError):
            apply(dense, random_field(lat16, 13))


class TestVariableCoeff:
    def test_constant_one_reduces_to_multiplier(self):
        lat = build_lattice(1, 16)
        op = variable_coeff_op(np.ones(lat.shape), bessel_op(-1.0), lat)
        expected = densify(bessel_op(-1.0), lat)
        assert np.abs(op.matrix - expected.matrix).max() < 1e-13

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 4)], ids=["d1", "d2", "d3"])
    def test_acts_as_multiply_after_smoothing(self, dim, n):
        # a random phi has every Fourier mode, so each axis of the gather is exercised
        lat = build_lattice(dim, n)
        rng = np.random.default_rng(14)
        phi = 1.0 + rng.random(lat.shape)
        op = variable_coeff_op(phi, bessel_op(-1.0), lat)
        u = random_field(lat, 15)
        smoothed = apply(bessel_op(-1.0), u)
        from torusbayes.lattice import inverse_transform

        expected = forward_transform(lat, phi * inverse_transform(smoothed))
        assert np.abs(apply(op, u).coeffs - expected.coeffs).max() < 1e-12

    def test_requires_positive_phi(self):
        lat = build_lattice(1, 8)
        with pytest.raises(ValueError):
            variable_coeff_op(np.zeros(lat.shape), bessel_op(-1.0), lat)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_phi(self, value):
        # one such sample would fill the whole matrix with NaN, seen only as a failed solve
        lat = build_lattice(2, 8)
        phi = np.ones(lat.shape)
        phi[3, 5] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and strictly positive"):
                variable_coeff_op(phi, bessel_op(-1.0), lat)

    def test_orders_preserved(self):
        lat = build_lattice(1, 8)
        op = variable_coeff_op(np.ones(lat.shape) * 2.0, bessel_op(-1.0), lat)
        assert op.order_t == 2.0 and op.order_t0 == 2.0

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 4)], ids=["d1", "d2", "d3"])
    def test_matrix_handed_over_read_only(self, dim, n):
        # entry (k, l) = phi_hat(k - l) * symbol(l), gathered from the frequency differences
        lat = build_lattice(dim, n)
        phi = 1.0 + np.random.default_rng(16).random(lat.shape)
        op = variable_coeff_op(phi, bessel_op(-1.0), lat)
        phi_hat = np.fft.fftn(phi) / lat.size
        diff = (lat.freqs[:, None, :] - lat.freqs[None, :, :]) % n
        expected = phi_hat[tuple(diff[..., j] for j in range(dim))]
        expected *= symbol_values(bessel_op(-1.0), lat)[None, :]
        assert op.matrix.tobytes() == expected.tobytes()
        assert not op.matrix.flags.writeable

    def test_matrix_not_copied(self):
        lat = build_lattice(2, 16)  # K = 256: a 1 MiB matrix outweighs the small arrays
        phi = 1.0 + np.random.default_rng(17).random(lat.shape)
        tracemalloc.start()
        try:
            op = variable_coeff_op(phi, bessel_op(-1.0), lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * op.matrix.nbytes  # the gathered matrix, not a copy of it too


class TestHypoellipticity:
    def test_heat_passes_declared_orders(self):
        rep = hypoellipticity_refinement(heat_op(1), 2, t=1.0, t0=2.0)
        assert rep.passed
        assert abs(rep.c2_slope) <= 0.2 and rep.c1_slope >= -0.2

    def test_heat_fails_elliptic_declaration(self):
        rep = hypoellipticity_refinement(heat_op(1), 2, t=2.0, t0=2.0)
        assert not rep.passed
        assert rep.c2_slope > 0.2

    def test_heat_fails_too_wide_lower_order(self):
        # claiming faster worst-case decay (larger t0) than the symbol has
        rep = hypoellipticity_refinement(heat_op(1), 2, t=1.0, t0=1.0)
        assert not rep.passed

    def test_single_lattice_check_fields(self):
        lat = build_lattice(2, 32)
        chk = hypoellipticity_check(heat_op(1), lat, t=1.0, t0=2.0)
        assert chk.passed and chk.c1 > 0 and np.isfinite(chk.c2)

    def test_orders_default_to_declared(self):
        rep = hypoellipticity_refinement(bessel_op(-1.0), 1)
        assert rep.passed


class TestNormSandwich:
    def test_bessel_normal_operator_stable(self):
        op = compose(adjoint(bessel_op(-1.0)), bessel_op(-1.0))
        rep = norm_sandwich_check(op, r=1.0, t=2.0, t0=2.0, dim=2)
        assert rep.passed
        assert rep.upper_growth < 2.0 and rep.lower_growth < 2.0

    def test_heat_normal_operator_stable_at_true_orders(self):
        op = compose(adjoint(heat_op(1)), heat_op(1))
        rep = norm_sandwich_check(op, r=1.0, t=1.0, t0=2.0, dim=2)
        assert rep.passed

    def test_heat_fails_elliptic_orders(self):
        op = compose(adjoint(heat_op(1)), heat_op(1))
        rep = norm_sandwich_check(op, r=1.0, t=2.0, t0=2.0, dim=2)
        assert not rep.passed

    def test_overtight_upper_order_fails(self):
        op = compose(adjoint(bessel_op(-1.0)), bessel_op(-1.0))
        rep = norm_sandwich_check(op, r=1.0, t=2.5, t0=2.0, dim=2)
        assert not rep.passed

    def test_dense_branch_matches_multiplier_branch(self):
        op = compose(adjoint(heat_op(1)), heat_op(1))
        lat = build_lattice(2, 16)
        dense = norm_sandwich_check(densify(op, lat), r=1.0, t=1.0, t0=2.0, seed=3)
        mult = norm_sandwich_check(op, r=1.0, t=1.0, t0=2.0, dim=2, sizes=(16,), seed=3)
        assert dense.sizes == mult.sizes == (16,)
        np.testing.assert_allclose(dense.upper_max, mult.upper_max, rtol=1e-12)
        np.testing.assert_allclose(dense.lower_max, mult.lower_max, rtol=1e-12)

    def test_dense_branch_matches_probe_loop(self):
        # a non-Hermitian matrix, whose rows and columns have different norms
        lat = build_lattice(2, 8)
        x = lat.grid_axes()[0]
        op = variable_coeff_op(1.0 + 0.5 * np.outer(np.sin(x), np.cos(x)), bessel_op(-1.0), lat)
        r, t, t0 = 1.0, 0.5, 1.5
        rep = norm_sandwich_check(op, r=r, t=t, t0=t0, n_samples=3, seed=5)
        rng = np.random.default_rng(5)
        probes = [np.fft.fftn(rng.standard_normal(lat.shape)).ravel() / 8.0 for _ in range(3)]
        up = lo = 0.0
        for c in [*np.eye(lat.size), *probes]:
            u = SpectralField(lat, c)
            au = apply(op, u)
            up = max(up, sobolev_norm(au, r + 2 * t) / sobolev_norm(u, r))
            lo = max(lo, sobolev_norm(u, r) / sobolev_norm(au, r + 2 * t0))
        assert rep.upper_max[0] == pytest.approx(up, rel=1e-12)
        assert rep.lower_max[0] == pytest.approx(lo, rel=1e-12)
