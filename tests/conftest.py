import pytest

from weylchars.so5 import OrthogonalGeometry


@pytest.fixture(scope="session")
def geo3():
    """SO_5(F_3) with the identity form; the enumeration is cached."""
    geometry = OrthogonalGeometry(q=3)
    geometry.enumerate_group()
    return geometry


@pytest.fixture(scope="session")
def scan3(geo3):
    """``_batched_scan`` of SO_5(F_3), run once: (trace, members, eps, delta)
    of every enumerated element, in the enumeration's order."""
    return geo3._batched_scan()


@pytest.fixture(scope="session")
def coset3(geo3):
    """``_coset_model_batch`` of both 4-space stabilizers of SO_5(F_3), run
    once each: {split: V at every enumerated element}."""
    return {split: geo3._coset_model_batch(geo3.stabilizer(split)) for split in (True, False)}
