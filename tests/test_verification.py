"""The independent audit at scale, and on a system whose Jacobian is not symmetric.

``verify_certificate`` keeps its operators as (row, col, value) triplets and
bounds the singular values it needs instead of computing them, so its time
and memory grow linearly in ``m * n``.  Below ``DENSE_AUDIT_MAX`` every
audit the tests run is also checked against ``references.dense_audit``
(see ``conftest.py``).
"""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from minimax_fold import build_mesh, maximize, verification
from minimax_fold.model import FEField, cooperative_product, scalar_power
from minimax_fold.verification import oracle_assembly, verify_certificate
from tests.references import dense_audit, triplets_to_dense

# the audit alone, without the dense comparison ``conftest.py`` adds
audit_alone = verify_certificate.__wrapped__


def test_a_certificate_at_n16384_passes_in_seconds():
    spec, mesh = scalar_power(0.5, 2.0), build_mesh(16384)
    cert = maximize(spec, mesh)
    assert cert.valid
    start = time.perf_counter()
    audit = verify_certificate(spec, mesh, cert)
    assert time.perf_counter() - start < 10.0
    assert audit.valid
    assert audit.max_stored_discrepancy < 1e-12


def test_audit_memory_grows_linearly():
    spec = scalar_power(0.5, 2.0)
    peaks = []
    for n in (2048, 4096):
        mesh = build_mesh(n)
        cert = maximize(spec, mesh)
        assert cert.valid
        tracemalloc.start()
        try:
            assert audit_alone(spec, mesh, cert).valid
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


class TestNonVariationalCertificate:
    """A cooperative pair with unequal couplings: J is not symmetric, and the
    stored v* (parallel to the left null vector w) is not a right null vector,
    so only J^T v* vanishes."""

    @pytest.fixture(scope="class")
    def case(self):
        spec = cooperative_product(2, alpha=[[0.0, 0.2], [1.5, 0.0]], b=[1.0, 3.0])
        mesh = build_mesh(64)
        cert = maximize(spec, mesh)
        assert cert.valid
        jac = oracle_assembly(spec, mesh, cert.u_star).jacobian(cert.lambda_star)
        return spec, mesh, cert, jac

    def test_both_audits_pass(self, case):
        spec, mesh, cert, _ = case
        assert verify_certificate(spec, mesh, cert).valid
        assert dense_audit(spec, mesh, cert).valid

    def test_left_and_right_null_vectors_differ(self, case):
        _, _, _, jac = case
        left, _, right_t = np.linalg.svd(triplets_to_dense(jac))
        assert 1.0 - abs(left[:, -1] @ right_t[-1]) > 0.1

    def test_j_applied_to_v_star_is_far_from_zero(self, case):
        _, _, cert, jac = case
        v = cert.v_star.values.ravel()
        column_norm = np.sqrt(jac.col_sums(2).max())
        assert np.linalg.norm(jac.matvec(v)) / np.linalg.norm(v) > 1e-6 * column_norm

    def test_an_audit_with_j_for_its_transpose_rejects(self, case, monkeypatch):
        spec, mesh, cert, _ = case
        monkeypatch.setattr(verification.Triplets, "rmatvec", verification.Triplets.matvec)
        assert not audit_alone(spec, mesh, cert).valid

    def test_the_right_null_vector_in_place_of_v_star_is_rejected(self, case):
        spec, mesh, cert, jac = case
        _, _, right_t = np.linalg.svd(triplets_to_dense(jac))
        right = right_t[-1] * np.sign(right_t[-1].sum())
        assert np.all(right > 0.0)  # a cone field: only J^T v* = 0 can fail
        wrong = dataclasses.replace(cert, v_star=FEField.from_flat(mesh, spec.m, right))
        audit = verify_certificate(spec, mesh, wrong)
        assert not audit.valid
        assert audit.sigma_min > 1e-6 * audit.jac_norm
