"""References shared by several test modules, given as fixtures."""

import numpy as np
import pytest

from torusbayes.lattice import _cosine_sine_modes


def _unblocked_from_cosine_sine(lat, y):
    """Q^H Y Q from the closed forms on the whole matrix at once."""
    order, ns, npair = _cosine_sine_modes(lat)
    r, cos, sin = slice(0, ns), slice(ns, ns + npair), slice(ns + npair, None)

    def real(m):  # Q^H M Q for a real M, rows and columns in cosine/sine order
        z = np.empty(m.shape, dtype=np.complex128)
        z.real[cos, cos] = 0.5 * (m[cos, cos] + m[sin, sin])
        z.imag[cos, cos] = 0.5 * (m[sin, cos] - m[cos, sin])
        z.real[cos, sin] = 0.5 * (m[cos, cos] - m[sin, sin])
        z.imag[cos, sin] = 0.5 * (m[cos, sin] + m[sin, cos])
        z.real[cos, r] = np.sqrt(0.5) * m[cos, r]
        z.imag[cos, r] = np.sqrt(0.5) * m[sin, r]
        z[sin, cos], z[sin, sin], z[sin, r] = z[cos, sin].conj(), z[cos, cos].conj(), z[cos, r].conj()
        z[r, r] = m[r, r]
        z.real[r, cos] = np.sqrt(0.5) * m[r, cos]
        z.imag[r, cos] = -np.sqrt(0.5) * m[r, sin]
        z[r, sin] = z[r, cos].conj()
        return z

    z = real(np.real(y))
    if np.iscomplexobj(y):
        zi = real(y.imag)
        z.real -= zi.imag
        z.imag += zi.real
    back = np.argsort(order)
    return z[np.ix_(back, back)]


@pytest.fixture
def unblocked_from_cosine_sine():
    """The unblocked transcription of ``lattice._from_cosine_sine``, for byte pins."""
    return _unblocked_from_cosine_sine
