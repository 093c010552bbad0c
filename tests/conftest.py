import pytest

from flagged_lr.core import all_flags, partitions_up_to, subpartitions


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


def decomposition_census():
    """Every (mu, gam, phi) with n <= 3, |mu| <= 5 and every flag, then n = 4
    shapes of 12-13 boxes like those the decompose benchmark draws."""
    small = [
        (mu, gam, phi)
        for n in (1, 2, 3)
        for mu, gam in skew_pairs(n, 5)
        for phi in all_flags(n)
    ]
    return small + [
        ((6, 4, 3, 0), (0, 0, 0, 0), (4, 4, 4, 4)),
        ((7, 5, 4, 0), (1, 1, 1, 0), (4, 4, 4, 4)),
        ((8, 4, 3, 0), (2, 1, 0, 0), (1, 4, 4, 4)),
        ((9, 3, 2, 1), (2, 1, 0, 0), (1, 2, 4, 4)),
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
