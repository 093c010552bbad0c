import pytest

from flagged_lr.core import partitions_up_to, subpartitions


WORKED_HIVE_LABELS = (
    (0, 2, 3, 3, 3),
    (3, 7, 9, 10, 10),
    (4, 9, 13, 14, 14),
    (5, 10, 14, 16, 16),
    (5, 10, 14, 16, 17),
)
WORKED_HIVE_BOUNDARY = ((3, 1, 1, 0), (5, 4, 2, 1), (2, 1, 0, 0), (7, 4, 2, 1))
WORKED_HIVE_FLAG = (2, 2, 3, 4)


def skew_pairs(n, max_mu):
    return [
        (mu, gam)
        for mu in partitions_up_to(n, max_mu)
        for gam in subpartitions(mu)
    ]


@pytest.fixture
def worked_hive():
    lam, mu, gam, nu = WORKED_HIVE_BOUNDARY
    return {
        "labels": WORKED_HIVE_LABELS,
        "lam": lam,
        "mu": mu,
        "gam": gam,
        "nu": nu,
        "phi": WORKED_HIVE_FLAG,
    }
