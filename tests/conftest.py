import pytest

from seqevl.maps import ParameterSchedule
from seqevl.mesh import graded_mesh


@pytest.fixture(scope="session")
def mesh1024():
    return graded_mesh(1024)


@pytest.fixture(scope="session")
def mesh512():
    return graded_mesh(512)


@pytest.fixture(scope="session")
def const01():
    return ParameterSchedule(cycle=(0.1,))
