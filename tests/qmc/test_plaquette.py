"""Tests for the exact plaquette weight tables."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.qmc.plaquette import (
    CODE_DD,
    CODE_DU_DU,
    CODE_DU_UD,
    CODE_UD_DU,
    CODE_UD_UD,
    CODE_UU,
    LEGAL_CODES,
    PlaquetteTable,
    encode_corners,
)


def two_site_propagator(jz, jxy_eff, dtau):
    """Dense exp(-dtau h) in basis (dd, ud, du, uu), site 1 = low bit."""
    sz = np.diag([-0.5, 0.5])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])
    sm = sp.T

    def k(a, b):  # site1 low bit: kron(site2, site1)
        return np.kron(b, a)

    h = jz * k(sz, sz) + (jxy_eff / 2.0) * (k(sp, sm) + k(sm, sp))
    return expm(-dtau * h)


class TestEncoding:
    def test_encode_corners(self):
        assert encode_corners(1, 0, 1, 0) == CODE_UD_UD
        assert encode_corners(0, 0, 0, 0) == CODE_DD
        assert encode_corners(1, 1, 1, 1) == CODE_UU
        assert encode_corners(1, 0, 0, 1) == CODE_UD_DU

    def test_encode_vectorized(self):
        bl = np.array([1, 0])
        out = encode_corners(bl, 1 - bl, 1 - bl, bl)
        np.testing.assert_array_equal(out, [CODE_UD_DU, CODE_DU_UD])


@pytest.mark.parametrize(
    "jz,jxy,dtau",
    [
        (1.0, 1.0, 0.1),  # Heisenberg AFM
        (1.0, -1.0, 0.1),  # Heisenberg FM xy-part
        (0.5, 1.0, 0.05),  # XXZ
        (0.0, 1.0, 0.2),  # XY
        (1.0, 0.0, 0.1),  # Ising
        (2.0, 0.3, 0.25),
    ],
)
class TestAgainstMatrixExponential:
    def test_weights_match_expm(self, jz, jxy, dtau):
        table = PlaquetteTable.build(jz, jxy, dtau)
        jxy_eff = -abs(jxy)  # Marshall rotation applied by the table
        exact = two_site_propagator(jz, jxy_eff, dtau)
        np.testing.assert_allclose(table.as_matrix(), exact, atol=1e-14)

    def test_dlog_matches_finite_difference(self, jz, jxy, dtau):
        eps = 1e-7
        t0 = PlaquetteTable.build(jz, jxy, dtau)
        t1 = PlaquetteTable.build(jz, jxy, dtau + eps)
        for code in LEGAL_CODES:
            if t0.weights[code] == 0.0:
                continue  # jump weight vanishes at jxy = 0
            fd = (np.log(t1.weights[code]) - np.log(t0.weights[code])) / eps
            assert t0.dlog[code] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_illegal_codes_have_zero_weight(self, jz, jxy, dtau):
        table = PlaquetteTable.build(jz, jxy, dtau)
        for code in range(16):
            if code not in LEGAL_CODES:
                assert table.weights[code] == 0.0

    def test_legal_weights_positive(self, jz, jxy, dtau):
        table = PlaquetteTable.build(jz, jxy, dtau)
        for code in (CODE_DD, CODE_UU, CODE_UD_UD, CODE_DU_DU):
            assert table.weights[code] > 0


class TestSpecialCases:
    def test_marshall_flag(self):
        assert PlaquetteTable.build(1.0, 1.0, 0.1).marshall_rotated
        assert not PlaquetteTable.build(1.0, -1.0, 0.1).marshall_rotated
        assert not PlaquetteTable.build(1.0, 0.0, 0.1).marshall_rotated

    def test_ising_limit_no_jumps(self):
        t = PlaquetteTable.build(1.0, 0.0, 0.1)
        assert t.weights[CODE_UD_DU] == 0.0
        assert t.weights[CODE_DU_UD] == 0.0

    def test_propagator_symmetry(self):
        # exp(-dtau h) is symmetric for the (rotated) real h.
        m = PlaquetteTable.build(0.7, 1.3, 0.15).as_matrix()
        np.testing.assert_allclose(m, m.T)

    def test_invalid_dtau_rejected(self):
        with pytest.raises(ValueError):
            PlaquetteTable.build(1.0, 1.0, 0.0)

    def test_spin_flip_symmetry(self):
        # Global up-down flip maps codes (bl,br,tl,tr)->(1-..): weight equal.
        t = PlaquetteTable.build(0.9, 1.1, 0.2)
        assert t.weights[CODE_UD_UD] == t.weights[CODE_DU_DU]
        assert t.weights[CODE_UD_DU] == t.weights[CODE_DU_UD]
        assert t.weights[CODE_DD] == t.weights[CODE_UU]
