"""Test-session settings, and the audit's decision checked against its dense reference.

Every ``verify_certificate`` call the tests make, on a system of order
``m * n`` up to ``DENSE_AUDIT_MAX``, also runs ``references.dense_audit``,
the same residuals on dense matrices with a full SVD, and fails unless the
two decisions agree.
"""

import functools

import hypothesis
import numpy as np

import minimax_fold
from minimax_fold import verification
from tests.references import dense_audit

np.seterr(all="warn", under="ignore")

hypothesis.settings.register_profile(
    "numeric", max_examples=40, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("numeric")

DENSE_AUDIT_MAX = 2048


def _agrees_with_dense_reference(audit):
    @functools.wraps(audit)
    def checked(spec, mesh, cert):
        result = audit(spec, mesh, cert)
        if spec.m * mesh.n_interior <= DENSE_AUDIT_MAX:
            reference = dense_audit(spec, mesh, cert)
            assert result.valid == reference.valid, (result, reference)
        return result
    return checked


verification.verify_certificate = _agrees_with_dense_reference(verification.verify_certificate)
minimax_fold.verify_certificate = verification.verify_certificate
