import pytest

from plasmonsim.errors import DomainError
from plasmonsim.quantities import (
    COULOMB,
    HBAR_C,
    from_fs,
    require_finite,
    to_fs,
)


def test_constants():
    assert HBAR_C == pytest.approx(197.3270)
    assert COULOMB == pytest.approx(1.439964)


def test_require_finite_names_offender():
    with pytest.raises(DomainError, match="mu"):
        require_finite(mu=float("nan"))


def test_fs_round_trip():
    assert from_fs(to_fs(123.456)) == pytest.approx(123.456, rel=1e-14)
