"""Shared fixtures and hypothesis profiles."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "acceptance",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rng(seed: int) -> np.random.Generator:
    """Counter-based generator so tests are reproducible bit for bit."""
    return np.random.Generator(np.random.Philox(seed))


def svd_threshold_reference(M, tau):
    """Singular-value shrinkage by the SVD formula, whatever path sv_threshold takes."""
    U, s, Vt = np.linalg.svd(M)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


@pytest.fixture
def tmp_chdir(tmp_path, monkeypatch):
    """Run a test from inside a fresh temporary directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path
