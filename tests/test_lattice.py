"""Lattice, spectral fields, and the transform pair."""

import tracemalloc

import numpy as np
import pytest

from torusbayes import lattice as lattice_module
from torusbayes.lattice import (
    FrequencyLattice,
    SpectralField,
    _butterfly,
    _cosine_sine_modes,
    _from_cosine_sine,
    _rows_from_cosine_sine,
    _rows_to_cosine_sine,
    _to_cosine_sine,
    build_lattice,
    forward_transform,
    hermitian_defect,
    inverse_transform,
)
from torusbayes.operators import apply, bessel_op, densify, heat_op, variable_coeff_op


class TestFrequencyLattice:
    def test_freqs_match_fft_order(self):
        lat = build_lattice(1, 8)
        expected = np.fft.fftfreq(8, d=1 / 8).astype(np.int64)
        assert np.array_equal(lat.freqs[:, 0], expected)

    def test_weights_are_squared_norms(self):
        lat = build_lattice(2, 6)
        assert np.array_equal(lat.weights, np.sum(lat.freqs**2, axis=1))

    def test_conj_index_is_involution(self):
        for dim in (1, 2, 3):
            lat = build_lattice(dim, 6)
            assert np.array_equal(lat.conj_index[lat.conj_index], np.arange(lat.size))
            # conjugate frequency is the negation modulo the lattice
            neg = lat.freqs[lat.conj_index]
            n = lat.n_per_dim
            assert np.array_equal(neg % n, (-lat.freqs) % n)

    def test_size_and_shape(self):
        lat = build_lattice(3, 4)
        assert lat.size == 64
        assert lat.shape == (4, 4, 4)

    def test_grid_axes(self):
        lat = build_lattice(1, 4)
        assert np.allclose(lat.grid_axes()[0], [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            build_lattice(4, 8)
        with pytest.raises(ValueError):
            build_lattice(1, 7)
        with pytest.raises(ValueError):
            build_lattice(1, 2)

    def test_arrays_read_only(self):
        lat = build_lattice(1, 8)
        with pytest.raises(ValueError):
            lat.freqs[0, 0] = 5


class TestTransforms:
    def test_constant_field_has_unit_zero_mode(self):
        lat = build_lattice(2, 8)
        u = forward_transform(lat, np.ones(lat.shape))
        assert abs(u.coeffs[0] - 1.0) < 1e-14
        assert np.abs(u.coeffs[1:]).max() < 1e-14

    def test_cosine_splits_into_half_modes(self):
        lat = build_lattice(1, 16)
        x = lat.grid_axes()[0]
        u = forward_transform(lat, np.cos(x))
        coeffs = dict(zip(lat.freqs[:, 0].tolist(), u.coeffs))
        assert abs(coeffs[1] - 0.5) < 1e-14
        assert abs(coeffs[-1] - 0.5) < 1e-14
        assert abs(coeffs[0]) < 1e-14

    def test_parseval_identity_is_machine_exact(self):
        rng = np.random.default_rng(42)
        for dim in (1, 2, 3):
            for n in (4, 8):
                lat = build_lattice(dim, n)
                values = rng.standard_normal(lat.shape)
                u = forward_transform(lat, values)
                lhs = np.sum(np.abs(u.coeffs) ** 2)
                rhs = np.mean(values**2)
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, rhs)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2):
            lat = build_lattice(dim, 8)
            values = rng.standard_normal(lat.shape)
            back = inverse_transform(forward_transform(lat, values))
            assert np.abs(back - values).max() < 1e-12

    def test_real_input_gives_hermitian_coeffs(self):
        lat = build_lattice(2, 8)
        u = forward_transform(lat, np.random.default_rng(1).standard_normal(lat.shape))
        assert hermitian_defect(u) < 1e-14

    def test_inverse_rejects_non_hermitian(self):
        lat = build_lattice(1, 8)
        coeffs = np.zeros(lat.size, dtype=complex)
        coeffs[1] = 1.0  # no conjugate partner at -1
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            inverse_transform(SpectralField(lat, coeffs))

    def test_forward_rejects_complex_values(self):
        lat = build_lattice(1, 8)
        with pytest.raises(TypeError):
            forward_transform(lat, np.ones(lat.shape, dtype=complex))

    def test_forward_rejects_wrong_shape(self):
        lat = build_lattice(2, 8)
        with pytest.raises(ValueError):
            forward_transform(lat, np.ones((8, 4)))


class TestSpectralField:
    def test_arithmetic(self):
        lat = build_lattice(1, 8)
        a = SpectralField(lat, np.full(lat.size, 1.0 + 0j))
        b = SpectralField(lat, np.full(lat.size, 2.0 + 0j))
        assert np.all((a + b).coeffs == 3.0)
        assert np.all((b - a).coeffs == 1.0)
        assert np.all((2.0 * a).coeffs == 2.0)
        assert np.all((a * 2.0).coeffs == 2.0)

    def test_lattice_mismatch_rejected(self):
        a = SpectralField(build_lattice(1, 8), np.zeros(8, dtype=complex))
        b = SpectralField(build_lattice(1, 16), np.zeros(16, dtype=complex))
        with pytest.raises(ValueError):
            _ = a + b

    def test_coeffs_are_copied_and_read_only(self):
        lat = build_lattice(1, 8)
        raw = np.zeros(lat.size, dtype=complex)
        field = SpectralField(lat, raw)
        raw[0] = 5.0
        assert field.coeffs[0] == 0.0
        with pytest.raises(ValueError):
            field.coeffs[0] = 1.0

    def test_wrong_length_rejected(self):
        lat = build_lattice(1, 8)
        with pytest.raises(ValueError):
            SpectralField(lat, np.zeros(7, dtype=complex))


def explicit_q(lat):
    """Q from its definition: self-conjugate modes, then (e_l + e_-l) / sqrt 2 and
    -i (e_l - e_-l) / sqrt 2 for each pair l < -l, in flat index order."""
    idx, conj = np.arange(lat.size), lat.conj_index
    real, pair = idx[conj == idx], idx[idx < conj]
    q = np.zeros((lat.size, lat.size), dtype=complex)
    q[np.arange(real.size), real] = 1.0
    cos = real.size + np.arange(pair.size)
    sin = cos + pair.size
    h = np.sqrt(0.5)
    q[cos, pair], q[cos, conj[pair]] = h, h
    q[sin, pair], q[sin, conj[pair]] = -1j * h, 1j * h
    return q


class TestCosineSineBasis:
    SHAPES = [(1, 4), (1, 8), (2, 4), (2, 6), (3, 4)]

    @pytest.mark.parametrize("dim, n", SHAPES)
    def test_unitary_and_round_trip(self, dim, n):
        lat = build_lattice(dim, n)
        q = explicit_q(lat)
        assert np.abs(q @ q.conj().T - np.eye(lat.size)).max() < 1e-14
        # n = 4 has 2^dim self-conjugate modes: zero and the Nyquist corners
        assert np.count_nonzero(lat.conj_index == np.arange(lat.size)) == 2**dim
        rng = np.random.default_rng(dim * n)
        # X = Q^H Y Q for a real Y maps real fields to real fields, and Y is its real form
        y = rng.standard_normal((lat.size, lat.size))
        x = q.conj().T @ y @ q
        out = _to_cosine_sine(lat, x)
        assert out.dtype == np.float64 and np.abs(out - y).max() < 1e-14 * np.abs(y).max()
        assert np.abs(_from_cosine_sine(lat, out) - x).max() < 1e-14 * np.abs(x).max()
        # an imaginary residue at rounding level is dropped; one past it is refused
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        assert _to_cosine_sine(lat, x + 1e-16 * noise).dtype == np.float64
        with pytest.raises(ValueError, match="does not map real fields to real fields"):
            _to_cosine_sine(lat, x + 1e-9 * noise)
        # a real field has real coordinates
        u = forward_transform(lat, rng.standard_normal(lat.shape)).coeffs
        assert np.abs((q @ u).imag).max() < 1e-15

    @pytest.mark.parametrize("dim", [1, 2])
    def test_real_for_operators_preserving_real_fields(self, dim):
        lat = build_lattice(dim, 8)
        phi = 1.0 + 0.5 * np.random.default_rng(3).random(lat.shape)
        for op in (variable_coeff_op(phi, bessel_op(-1.0), lat), densify(bessel_op(-1.0), lat)):
            y = _to_cosine_sine(lat, op.matrix)
            assert y.dtype == np.float64
            assert np.abs(y - (explicit_q(lat) @ op.matrix @ explicit_q(lat).conj().T).real).max() < 1e-15

    @pytest.mark.parametrize("spatial_dim, n", [(1, 8), (1, 16), (2, 4)])
    def test_heat_maps_real_fields_to_real_fields(self, spatial_dim, n):
        # on the time-Nyquist plane l and -l share l_t, so only a real symbol keeps fields real
        lat = build_lattice(spatial_dim + 1, n)
        op = heat_op(spatial_dim)
        u = forward_transform(lat, np.random.default_rng(n).standard_normal(lat.shape))
        image = apply(op, u)
        assert hermitian_defect(image) < 1e-16
        assert np.all(np.isfinite(inverse_transform(image)))
        assert _to_cosine_sine(lat, densify(op, lat).matrix).dtype == np.float64

    @pytest.mark.parametrize("dim, n", SHAPES)
    def test_vector_forms(self, dim, n):
        lat = build_lattice(dim, n)
        q = explicit_q(lat)
        rng = np.random.default_rng(dim + n)
        v = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
        assert np.abs(_rows_to_cosine_sine(lat, v) - q @ v).max() < 1e-14 * np.abs(v).max()
        assert np.abs(_rows_from_cosine_sine(lat, v) - q.conj().T @ v).max() < 1e-14 * np.abs(v).max()
        # a real field has real coordinates, and they map back to it
        u = forward_transform(lat, rng.standard_normal(lat.shape)).coeffs
        u_cs = _rows_to_cosine_sine(lat, u)
        assert u_cs.dtype == np.float64
        assert np.abs(_rows_from_cosine_sine(lat, u_cs) - u).max() < 1e-15

    @pytest.mark.parametrize("dim, n", SHAPES)
    def test_row_stack_forms_act_row_by_row(self, dim, n):
        lat = build_lattice(dim, n)
        rng = np.random.default_rng(dim * n + 1)
        fields = np.stack([forward_transform(lat, rng.standard_normal(lat.shape)).coeffs
                           for _ in range(3)])
        for stack in (fields, fields + 1j * fields[::-1]):
            y = _rows_to_cosine_sine(lat, stack)
            assert y.dtype == (np.float64 if stack is fields else np.complex128)
            for row, v in zip(y, stack):
                assert np.array_equal(row, _rows_to_cosine_sine(lat, v))
            back = _rows_from_cosine_sine(lat, y)
            assert all(np.array_equal(row, _rows_from_cosine_sine(lat, v)) for row, v in zip(back, y))


def unblocked_to_cosine_sine(lat, x):
    """Q X Q^H on the whole matrix at once: a full complex gather, then a real copy if real."""
    order, ns, npair = _cosine_sine_modes(lat)
    y = np.asarray(x, dtype=np.complex128)[np.ix_(order, order)]
    cos, sin = slice(ns, ns + npair), slice(ns + npair, None)
    _butterfly(y[cos], y[sin])
    y[sin] *= -1j
    _butterfly(y[:, cos], y[:, sin])
    y[:, sin] *= 1j
    return lattice_module._real_if_rounding(y)


class TestToCosineSineBlocks:
    @pytest.mark.parametrize("dim, n", [(1, 8), (2, 4), (2, 16), (2, 32), (3, 4)])
    @pytest.mark.parametrize("block", [2, 8, 64])
    def test_same_bytes_as_unblocked(self, dim, n, block, monkeypatch):
        monkeypatch.setattr(lattice_module, "_CS_BLOCK", block)
        lat = build_lattice(dim, n)
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal((lat.size, lat.size))
        x[0, 1] = -0.0
        real = _from_cosine_sine(lat, x)  # maps real fields to real fields
        expected = unblocked_to_cosine_sine(lat, real)
        out = _to_cosine_sine(lat, real)
        assert out.dtype == expected.dtype == np.float64 and out.tobytes() == expected.tobytes()
        for mat in (x, x + 1j * rng.standard_normal(x.shape)):  # neither keeps real fields real
            with pytest.raises(ValueError, match="real fields"):
                _to_cosine_sine(lat, mat)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_no_full_size_temporary(self, kind, monkeypatch):
        # K = 256; small blocks, so the peak counts full-size arrays, not block ones; a form
        # that is complex is refused after the one pass, with no complex K x K array made
        monkeypatch.setattr(lattice_module, "_CS_BLOCK", 8)
        lat = build_lattice(2, 16)
        y = np.random.default_rng(3).standard_normal((lat.size, lat.size))
        x = _from_cosine_sine(lat, y)
        if kind == "complex":  # Q^H (Y + i Y^T) Q
            x += 1j * _from_cosine_sine(lat, y.T)
        tracemalloc.start()
        try:
            if kind == "real":
                assert _to_cosine_sine(lat, x).dtype == np.float64
            else:
                with pytest.raises(ValueError, match="real fields"):
                    _to_cosine_sine(lat, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * 8 * lat.size**2  # bytes of one real K x K array: the result


def exact_hermitian(lat, kind, seed):
    """X X^H for a random real or complex K x K factor X, made exactly Hermitian."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((lat.size, lat.size))
    if kind == "real":
        return x @ x.T  # exactly symmetric as numpy forms it
    x = x + 1j * rng.standard_normal(x.shape)
    g = x @ x.conj().T
    return 0.5 * (g + g.conj().T)


class TestFromCosineSineBlocks:
    @pytest.mark.parametrize("dim, n", [(1, 8), (2, 4), (2, 16), (2, 32), (3, 4)])
    @pytest.mark.parametrize("block", [2, 8, 64])
    def test_same_bytes_as_unblocked(self, dim, n, block, monkeypatch, unblocked_from_cosine_sine):
        monkeypatch.setattr(lattice_module, "_CS_BLOCK", block)
        lat = build_lattice(dim, n)
        rng = np.random.default_rng(n)
        y = rng.standard_normal((lat.size, lat.size))
        y[0, 1] = -0.0
        c = exact_hermitian(lat, "real", n)
        c[1, 2] = c[2, 1] = -0.0
        for mat in (y, c):  # not symmetric, symmetric
            expected = unblocked_from_cosine_sine(lat, mat)
            assert _from_cosine_sine(lat, mat).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_no_full_size_temporary(self, dtype, monkeypatch):
        # K = 256; small blocks, so the peak counts full-size arrays, not block ones
        monkeypatch.setattr(lattice_module, "_CS_BLOCK", 8)
        lat = build_lattice(2, 16)
        rng = np.random.default_rng(2)
        y = rng.standard_normal((lat.size, lat.size)).astype(dtype)
        full = 16 * lat.size**2  # bytes of one complex K x K array: the result
        tracemalloc.start()
        try:
            if dtype == np.float64:
                assert _from_cosine_sine(lat, y).nbytes == full
            else:  # a complex Y is refused at its first block, not read as its real part
                y.imag = rng.standard_normal(y.shape)
                with pytest.raises(TypeError):
                    _from_cosine_sine(lat, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * full


class TestFromCosineSineClosedForm:
    @pytest.mark.parametrize("dim, n", TestCosineSineBasis.SHAPES)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_equals_explicit_product(self, dim, n, kind, hermitian):
        # a complex Y = R + i I, which the transform refuses, through its real parts by
        # linearity: Q^H R Q + i Q^H I Q, where a Hermitian Y has I antisymmetric
        lat = build_lattice(dim, n)
        if hermitian:
            y = exact_hermitian(lat, kind, dim * n)
            assert np.array_equal(y, y.conj().T)
        else:
            rng = np.random.default_rng(dim * n + 2)
            y = rng.standard_normal((lat.size, lat.size))
            if kind == "complex":
                y = y + 1j * rng.standard_normal(y.shape)
        if kind == "real":
            out = _from_cosine_sine(lat, y)
        else:
            out = _from_cosine_sine(lat, y.real) + 1j * _from_cosine_sine(lat, y.imag)
        assert out.dtype == np.complex128
        if hermitian:  # exactly, by construction
            assert np.array_equal(out, out.conj().T)
            assert np.all(out.diagonal().imag == 0.0)
        q = explicit_q(lat)
        assert np.abs(out - q.conj().T @ y @ q).max() < 4 * np.finfo(float).eps * np.abs(y).max()
